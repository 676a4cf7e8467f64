// DataPlane — which batch-feeding implementation the trainers consume.
//
// kLegacy is the original per-cell data::DataLoader path; kStore routes
// batches through the shared SampleStore, staged on the drawing lane. The two are
// bit-identical by construction (same shuffle, same normalization, same
// gather), so the switch is a pure performance seam — mirrored on
// RunSpec/TrainingConfig the way TensorKernel mirrors the microkernel seam.
// kAuto defers to the CELLGAN_DATA_PLANE environment variable (legacy when
// unset), which is how CI forces the whole tier-1 bed through the store path
// without touching any test.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace cellgan::datastore {

enum class DataPlane : std::uint32_t { kAuto = 0, kLegacy = 1, kStore = 2 };

const char* to_string(DataPlane plane);
std::optional<DataPlane> data_plane_from_string(std::string_view name);

/// Resolve kAuto against the process environment (CELLGAN_DATA_PLANE=legacy|
/// store; unset or unparsable -> legacy, with a one-time warning on garbage).
/// Explicit choices pass through untouched.
DataPlane resolve_data_plane(DataPlane requested);

}  // namespace cellgan::datastore
