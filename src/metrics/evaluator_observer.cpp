#include "metrics/evaluator_observer.hpp"

#include <algorithm>
#include <utility>

#include "evolve/genome.hpp"
#include "evolve/mixture.hpp"
#include "metrics/fid.hpp"
#include "metrics/inception_score.hpp"
#include "metrics/mode_coverage.hpp"
#include "nn/gan_models.hpp"
#include "nn/init.hpp"

namespace cellgan::metrics {

namespace {

Classifier make_trained_classifier(const data::Dataset& real,
                                   std::size_t image_dim,
                                   const EvaluatorOptions& options) {
  // Contract checks first — this runs in the member initializer list, so a
  // degenerate held-out set must fail here, named, not deep inside training.
  // FID needs a covariance on each side (fid_from_features throws below 2).
  CG_EXPECT(real.size() >= 2);
  CG_EXPECT(real.images.cols() == image_dim);
  common::Rng rng(options.seed);
  Classifier classifier(rng, /*hidden_dim=*/64, image_dim);
  // Held-out sets at reduced scale can be smaller than the default batch.
  const std::size_t batch =
      std::max<std::size_t>(1, std::min(options.classifier_batch, real.size()));
  classifier.train(real, options.classifier_epochs, batch, options.classifier_lr,
                   rng);
  return classifier;
}


}  // namespace

EvaluatorObserver::EvaluatorObserver(const core::TrainingConfig& config,
                                     data::Dataset real, EvaluatorOptions options)
    : config_(config),
      grid_(static_cast<int>(config.grid_rows), static_cast<int>(config.grid_cols)),
      real_(std::move(real)),
      options_(options),
      classifier_(make_trained_classifier(real_, config.arch.image_dim, options_)) {
  // FID also needs >= 2 generated samples; clamp the batch size.
  options_.samples = std::max<std::size_t>(2, options_.samples);
}

void EvaluatorObserver::on_epoch_completed(const core::EpochRecord& record) {
  if (!record.has_genomes()) return;
  if (options_.eval_every > 0 && (record.epoch + 1) % options_.eval_every != 0) {
    return;
  }
  // Deterministic per epoch, independent of which backend produced the
  // record — the evaluation stream is as reproducible as the training one.
  common::Rng rng(options_.seed ^ (static_cast<std::uint64_t>(record.epoch) + 1));

  core::MetricSnapshot snapshot;
  snapshot.epoch = record.epoch;
  snapshot.best_cell = record.best_cell();

  // Every generator runs on its decoded genome's parameters in place. The
  // evaluation stream still skips the draws of the generator that each cell
  // and each mixture member once had initialized from it, so the metrics
  // keep their bits.
  nn::Sequential generator =
      nn::borrowing_generator(config_.arch, config_.conditional_classes());
  std::vector<evolve::CellGenome> genomes;
  genomes.reserve(record.cells.size());
  for (const auto& cell : record.cells) {
    genomes.push_back(evolve::CellGenome::deserialize(cell.genome));
  }

  // Per-generator inception scores (Table II's quality column, per cell).
  snapshot.cell_is.reserve(record.cells.size());
  for (const auto& genome : genomes) {
    nn::skip_xavier_uniform_init(generator, rng);
    const evolve::MixtureWeights single(1);
    const evolve::MixtureMember member{&generator, genome.generator_params};
    const tensor::Tensor images =
        evolve::sample_mixture(single, {&member, 1}, config_.arch.latent_dim,
                               options_.samples, rng, config_.conditional_classes())
            .images;
    snapshot.cell_is.push_back(inception_score(classifier_, images));
  }

  // The returned generative model: the best cell's neighborhood mixture.
  std::vector<evolve::MixtureMember> members;
  for (const int cell : grid_.neighborhood_of(snapshot.best_cell)) {
    nn::skip_xavier_uniform_init(generator, rng);
    members.push_back(
        {&generator, genomes[static_cast<std::size_t>(cell)].generator_params});
  }
  evolve::MixtureWeights weights(members.size());
  const auto& evolved =
      record.cells[static_cast<std::size_t>(snapshot.best_cell)].mixture_weights;
  if (evolved.size() == members.size()) weights.set_weights(evolved);
  const tensor::Tensor mixture_images =
      evolve::sample_mixture(weights, members, config_.arch.latent_dim, options_.samples,
                             rng, config_.conditional_classes())
          .images;

  snapshot.mixture_is = inception_score(classifier_, mixture_images);
  snapshot.fid = fid_score(classifier_, real_.images, mixture_images);
  const ModeReport modes = mode_report(classifier_, mixture_images);
  snapshot.modes_covered = modes.modes_covered;
  snapshot.tvd_from_uniform = modes.tvd_from_uniform;

  history_.push_back(std::move(snapshot));
  pending_ = true;
}

std::optional<core::MetricSnapshot> EvaluatorObserver::take_metrics() {
  if (!pending_) return std::nullopt;
  pending_ = false;
  return history_.back();
}

std::optional<core::MetricSnapshot> EvaluatorObserver::final_metrics() const {
  if (history_.empty()) return std::nullopt;
  return history_.back();
}

}  // namespace cellgan::metrics
