// The sequential backend's trainer exactly as core::Session builds it: one
// ParallelTrainer lane with SingleCore cost accounting.
#pragma once

#include "core/parallel_trainer.hpp"

namespace cellgan::testsupport {

inline core::ParallelTrainer sequential_trainer(const core::TrainingConfig& config,
                                                const data::Dataset& dataset,
                                                const core::CostModel& cost = {}) {
  return core::ParallelTrainer(config, dataset, 1, cost, core::ExecMode::SingleCore);
}

}  // namespace cellgan::testsupport
