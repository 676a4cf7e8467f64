// Quickstart: train a 2x2 cellular GAN grid on the synthetic MNIST stand-in
// through the unified core::Session facade, then print the per-cell losses
// and an ASCII sample from the best cell's mixture.
//
//   ./quickstart [--iterations N] [--grid 2] [--samples 600] [--threads T]
//                [--backend sequential|threads|distributed]
//
// Runs in well under a minute on a laptop: the example uses the tiny network
// architecture; switch to --paper-arch to train the paper's full MLPs.
// --threads T > 1 selects the ThreadPool-backed threads backend (same
// results, bit for bit — cells keep private rng streams and exchange through
// the epoch-staged genome store). --distributed additionally replays the run
// on the master/slave backend.
#include <cstdio>
#include <stdexcept>

#include "core/parallel_trainer.hpp"
#include "core/session.hpp"
#include "data/pgm.hpp"
#include "tensor/ops.hpp"

int main(int argc, char** argv) {
  using namespace cellgan;

  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.iterations = 8;
  defaults.threads = 1;

  common::CliParser cli("quickstart: minimal cellular GAN training run");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("distributed", "true", "also run the master/slave version");
  if (!cli.parse(argc, argv)) return 1;
  auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;
  // Convenience: `--threads T > 1` without an explicit backend means "run the
  // in-process grid on T worker lanes".
  if (spec->threads > 1 && !cli.was_set("backend")) {
    spec->backend = core::Backend::kThreads;
  }

  core::Session session(*spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    return 1;
  }
  std::printf("dataset: %zu samples, %zu pixels each\n",
              session.train_set().samples(), session.train_set().sample_dim());

  // --- cellular training through the facade --------------------------------
  const core::RunResult outcome = session.run();
  std::printf("\n%s run: %.2fs wall\n", core::to_string(outcome.backend),
              outcome.wall_s);
  core::ParallelTrainer* trainer = session.trainer();
  for (std::size_t cell = 0; cell < outcome.g_fitnesses.size(); ++cell) {
    std::printf("  cell %zu: G loss %.4f | D loss %.4f", cell,
                outcome.g_fitnesses[cell], outcome.d_fitnesses[cell]);
    if (trainer != nullptr) {
      std::printf(" | G lr %.6f",
                  trainer->cell(static_cast<int>(cell)).g_learning_rate());
    }
    std::printf("\n");
  }
  std::printf("best cell: %d\n", outcome.best_cell);

  // --- the same training, distributed over master + one slave per cell -----
  if (cli.get_bool("distributed") &&
      spec->backend != core::Backend::kDistributed) {
    core::RunSpec dist_spec = *spec;
    dist_spec.backend = core::Backend::kDistributed;
    dist_spec.result_json.clear();  // --result-json describes the main run
    core::Session dist_session(dist_spec);
    try {
      dist_session.set_datasets(session.train_set(), session.test_set());
    } catch (const std::runtime_error& e) {  // an unreadable IDX test pair
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    const core::RunResult dist = dist_session.run();
    std::printf("\ndistributed run: %.2fs wall, %zu slaves + master\n",
                dist.wall_s, dist.cell_results.size());
    std::printf("  best cell %d (G loss %.4f), heartbeat cycles %llu\n",
                dist.best_cell,
                dist.g_fitnesses[static_cast<std::size_t>(dist.best_cell)],
                static_cast<unsigned long long>(dist.heartbeat_cycles));
  }

  // --- sample from the best cell's neighborhood mixture ---------------------
  const tensor::Tensor samples = session.sample_best(outcome, 4, spec->config.seed);
  if (spec->config.arch.image_dim == data::kImageDim) {
    std::printf("\nmixture sample from best cell (28x28 ASCII):\n%s\n",
                data::ascii_art(samples.row_span(0)).c_str());
    if (data::write_pgm_grid("quickstart_samples.pgm", samples.data(), 4, 2)) {
      std::printf("wrote quickstart_samples.pgm\n");
    }
  } else {
    std::printf("\nmixture sample mean intensity: %.3f (use --paper-arch for "
                "viewable 28x28 output)\n",
                tensor::mean(samples));
  }
  return 0;
}
