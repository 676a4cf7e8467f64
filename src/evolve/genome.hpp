// Cell genome: the unit of exchange between grid cells.
//
// A cell's "center" is one generator + one discriminator; neighbors exchange
// copies of their centers after every training epoch (Section II.B). The
// genome carries the flattened parameters of both networks, the mutated
// hyperparameters (learning rates) and the locally-evaluated fitness values
// that the receiving cell's selection step uses.
//
// Within a process a genome is captured once and shared read-only
// (SharedGenome) by every cell that receives it: neighbors run its weights
// where they lie (nn::Sequential::bind). Bytes are made only where a genome
// leaves the process: messages, checkpoints and observer records.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nn/sequential.hpp"

namespace cellgan::evolve {

struct CellGenome {
  std::vector<float> generator_params;
  std::vector<float> discriminator_params;
  double g_learning_rate = 0.0;
  double d_learning_rate = 0.0;
  /// Losses, lower is better; evaluated by the owning cell before exchange.
  double g_fitness = 0.0;
  double d_fitness = 0.0;
  std::uint32_t origin_cell = 0;  ///< grid cell that produced this genome
  std::uint32_t iteration = 0;    ///< epoch at which it was exported

  /// Exactly the bytes serialize() writes, counted without writing them.
  std::size_t byte_size() const;
  std::vector<std::uint8_t> serialize() const;
  static CellGenome deserialize(std::span<const std::uint8_t> bytes);

  /// Copy network parameters out of / into live networks.
  static CellGenome capture(nn::Sequential& generator, nn::Sequential& discriminator);
  void install(nn::Sequential& generator, nn::Sequential& discriminator) const;
};

/// One captured genome, shared read-only by every cell that received it.
using SharedGenome = std::shared_ptr<const CellGenome>;


}  // namespace cellgan::evolve
