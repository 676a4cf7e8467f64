// Ablation: adversarial objective (the Mustangs dimension).
//
// Lipizzaner fixes the heuristic (non-saturating) loss; Mustangs mutates the
// objective each epoch among {heuristic, minimax, least-squares}. This bench
// trains the same 3x3 grid under each fixed objective plus the Mustangs mix
// and reports final generator fitness (evaluated with the common heuristic
// metric for comparability) and its spread across cells.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/session.hpp"

namespace {

using namespace cellgan;

struct LossResult {
  double best = 0.0;
  double mean = 0.0;
  double spread = 0.0;
};

LossResult run_mode(core::RunSpec spec, core::LossMode mode,
                    const datastore::SampleStore& train, const data::Dataset& test) {
  spec.config.loss_mode = mode;
  core::Session session(spec);
  session.set_datasets(train, test);
  const core::RunResult outcome = session.run();
  LossResult result;
  result.best = *std::min_element(outcome.g_fitnesses.begin(),
                                  outcome.g_fitnesses.end());
  double sum = 0.0;
  for (const double f : outcome.g_fitnesses) sum += f;
  result.mean = sum / outcome.g_fitnesses.size();
  double var = 0.0;
  for (const double f : outcome.g_fitnesses) {
    var += (f - result.mean) * (f - result.mean);
  }
  result.spread = std::sqrt(var / outcome.g_fitnesses.size());
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.grid_rows = defaults.config.grid_cols = 3;
  defaults.config.iterations = 12;
  defaults.config.batches_per_iteration = 2;
  defaults.dataset.samples = 300;
  auto spec = core::RunSpec::from_args(
      argc, argv, "ablation_losses: Lipizzaner vs Mustangs objectives", defaults);
  if (!spec) return 1;
  if (!spec->result_json.empty()) {
    std::fprintf(stderr, "note: --result-json is ignored by this sweep bench\n");
    spec->result_json.clear();
  }
  core::Session data_session(*spec);
  if (!data_session.prepare()) {
    std::fprintf(stderr, "error: %s\n", data_session.error().c_str());
    return 1;
  }
  const data::Dataset* test = nullptr;
  try {
    test = &data_session.test_set();
  } catch (const std::runtime_error& e) {  // an unreadable IDX test pair
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("ablation: adversarial objective on a %ux%u grid, %u iterations\n",
              spec->config.grid_rows, spec->config.grid_cols,
              spec->config.iterations);
  std::printf("  %-16s | %12s %12s %12s\n", "objective", "best G loss",
              "mean G loss", "cell spread");
  for (const core::LossMode mode :
       {core::LossMode::kHeuristic, core::LossMode::kMinimax,
        core::LossMode::kLeastSquares, core::LossMode::kMustangs}) {
    const LossResult r = run_mode(*spec, mode, data_session.train_set(), *test);
    std::printf("  %-16s | %12.4f %12.4f %12.4f\n", core::to_string(mode), r.best,
                r.mean, r.spread);
  }
  std::printf("\nreading: fitness is evaluated with the shared heuristic"
              " metric;\nthe Mustangs mix explores all three objectives"
              " within one run\n");
  return 0;
}
