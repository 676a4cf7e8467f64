// DataPlane — which batch-feeding implementation the trainers consume.
//
// kLegacy is the original per-cell data::DataLoader path; kStore routes
// batches through the shared SampleStore, staged on the drawing lane. The two are
// bit-identical by construction (same shuffle, same normalization, same
// gather), so the switch is a pure performance seam, selected per run by
// TrainingConfig::data_plane (`--data-plane`, default legacy).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace cellgan::datastore {

/// Values are checkpoint bytes (TrainingConfig serialization); 0 is unused.
enum class DataPlane : std::uint32_t { kLegacy = 1, kStore = 2 };

const char* to_string(DataPlane plane);
std::optional<DataPlane> data_plane_from_string(std::string_view name);

}  // namespace cellgan::datastore
