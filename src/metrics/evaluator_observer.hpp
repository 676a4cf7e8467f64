// Pluggable metric evaluation over the core observer stream.
//
// The paper evaluates training quality with periodic held-out metrics
// (Table II: inception score per grid size); this observer closes the loop
// between the metrics layer and the trainers. Subscribed to a
// core::EventBus, it waits for epoch records that carry genome payloads
// (TrainingConfig::genome_record_every — core::Session derives the cadence
// from RunSpec::observers.eval_every), rebuilds every cell's generator from
// its serialized center genome, samples each one plus the best cell's
// neighborhood mixture, and scores them with the existing metrics layer:
// inception score per generator, IS + FID + mode coverage for the mixture.
// Snapshots are republished through the bus (so a telemetry sink logs them)
// and the last one is harvested into RunResult::metrics.
//
// Location transparency for free: the records look the same whichever
// backend produced them, so the same evaluator scores sequential, threaded
// and (at rank 0) distributed runs — synthetic or `idx:` MNIST.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/observer.hpp"
#include "data/dataset.hpp"
#include "evolve/grid.hpp"
#include "metrics/classifier.hpp"

namespace cellgan::metrics {

struct EvaluatorOptions {
  /// Evaluate on epochs where (epoch + 1) % eval_every == 0 and the record
  /// carries genomes. 0 evaluates on every genome-carrying epoch.
  std::uint32_t eval_every = 0;
  std::size_t samples = 256;  ///< per generator and for the mixture
  std::uint64_t seed = 0xe7a1ULL;  ///< latents + classifier init/training
  std::size_t classifier_epochs = 4;
  std::size_t classifier_batch = 50;
  double classifier_lr = 2e-3;
};

class EvaluatorObserver final : public core::TrainObserver {
 public:
  /// `real` is the held-out set metrics compare against (images must match
  /// config.arch.image_dim); copied, so temporaries are fine. The in-domain
  /// classifier (the Inception stand-in) is trained here, once.
  EvaluatorObserver(const core::TrainingConfig& config, data::Dataset real,
                    EvaluatorOptions options = {});

  void on_epoch_completed(const core::EpochRecord& record) override;
  std::optional<core::MetricSnapshot> take_metrics() override;
  std::optional<core::MetricSnapshot> final_metrics() const override;

  /// Every snapshot computed so far, in epoch order.
  const std::vector<core::MetricSnapshot>& history() const { return history_; }

 private:
  core::TrainingConfig config_;
  evolve::Grid grid_;
  data::Dataset real_;
  EvaluatorOptions options_;
  Classifier classifier_;
  std::vector<core::MetricSnapshot> history_;
  bool pending_ = false;  ///< history_.back() not yet taken by the bus
};

}  // namespace cellgan::metrics
