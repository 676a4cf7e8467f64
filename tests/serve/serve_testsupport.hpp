// Shared fixtures of the serving suites: synthetic checkpoints (valid grid
// snapshots without a training run) and bit-equality helpers.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "evolve/genome.hpp"
#include "evolve/grid.hpp"
#include "nn/gan_models.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::serve_test {

/// A well-formed tiny-config checkpoint with freshly initialized networks —
/// enough for the serving plane, which only needs restorable parameters,
/// not trained ones. `seed` varies the parameters (distinct models).
inline core::Checkpoint synthetic_checkpoint(std::uint64_t seed) {
  core::Checkpoint snapshot;
  snapshot.config = core::TrainingConfig::tiny();
  snapshot.config.seed = seed;
  common::Rng rng(seed);
  const evolve::Grid grid(static_cast<int>(snapshot.config.grid_rows),
                          static_cast<int>(snapshot.config.grid_cols));
  for (std::uint32_t c = 0; c < snapshot.config.grid_cells(); ++c) {
    auto generator = nn::make_generator(snapshot.config.arch, rng);
    auto discriminator = nn::make_discriminator(snapshot.config.arch, rng);
    auto genome = evolve::CellGenome::capture(generator, discriminator);
    genome.origin_cell = c;
    // Ascending fitness makes cell 0 the unambiguous best.
    genome.g_fitness = 1.0 + 0.1 * static_cast<double>(c);
    genome.d_fitness = 1.0;
    snapshot.centers.push_back(std::move(genome));
    const auto members = grid.neighborhood_of(static_cast<int>(c));
    snapshot.mixtures.emplace_back(members.size(),
                                   1.0 / static_cast<double>(members.size()));
  }
  return snapshot;
}

inline bool bit_identical(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const auto da = a.data();
  const auto db = b.data();
  for (std::size_t i = 0; i < da.size(); ++i) {
    if (da[i] != db[i]) return false;
  }
  return true;
}

}  // namespace cellgan::serve_test
