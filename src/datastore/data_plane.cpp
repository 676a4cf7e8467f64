#include "datastore/data_plane.hpp"

namespace cellgan::datastore {

const char* to_string(DataPlane plane) {
  switch (plane) {
    case DataPlane::kLegacy: return "legacy";
    case DataPlane::kStore: return "store";
  }
  return "unknown";
}

std::optional<DataPlane> data_plane_from_string(std::string_view name) {
  if (name == "legacy") return DataPlane::kLegacy;
  if (name == "store") return DataPlane::kStore;
  return std::nullopt;
}

}  // namespace cellgan::datastore
