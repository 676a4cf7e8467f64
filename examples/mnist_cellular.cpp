// Full cellular GAN training run — the paper's workload, end to end, driven
// through the unified core::Session facade: resolves the dataset (real IDX
// files via --dataset idx:<dir>, otherwise the synthetic stand-in), trains a
// toroidal grid on the chosen backend, evaluates the mixtures through the
// observer bus (metrics::EvaluatorObserver — inception-score analogue, FID,
// mode coverage; per-epoch with --eval-every, final epoch by default), and
// writes a tile of generated digits as a PGM.
//
//   ./mnist_cellular --grid 3 --iterations 20 --backend sequential
//   ./mnist_cellular --backend distributed --samples 2000
//   ./mnist_cellular --dataset idx:/data/mnist --paper-arch true
//   ./mnist_cellular --eval-every 5 --telemetry run.jsonl
//       --checkpoint-every 10 --checkpoint-path rolling.ckpt
//
// With a reduced architecture, synthetic glyphs are rendered natively at the
// configured resolution (the repo-wide make_matched_dataset convention —
// this replaced the pre-facade behavior of downsampling 28x28 renders, so
// metric numbers differ from older runs); IDX images are area-averaged down.
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/session.hpp"
#include "data/pgm.hpp"
#include "metrics/evaluator_observer.hpp"

int main(int argc, char** argv) {
  using namespace cellgan;

  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.iterations = 12;
  defaults.config.batches_per_iteration = 2;
  defaults.dataset.samples = 1200;
  defaults.dataset.seed = defaults.config.seed;

  common::CliParser cli("mnist_cellular: full cellular GAN training workload");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("out", "mnist_cellular_samples.pgm", "output sample sheet");
  cli.add_flag("checkpoint", "", "save final grid state to this file");
  cli.add_flag("resume", "", "restore grid state from this checkpoint first");
  if (!cli.parse(argc, argv)) return 1;
  auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;
  // This example historically drew the synthetic data from the training
  // seed, so multi-seed sweeps vary the data too (unless --dataset pins it).
  if (cli.was_set("seed") && !cli.was_set("dataset")) {
    spec->dataset.seed = spec->config.seed;
  }
  // Always evaluate at least the final epoch (the run's headline numbers);
  // --eval-every N adds the per-epoch trajectory.
  if (spec->observers.eval_every == 0) {
    spec->observers.eval_every = spec->config.iterations;
  }

  core::Session session(*spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    return 1;
  }
  const auto& config = spec->config;
  std::printf("training %ux%u grid, %u iterations, %s backend\n",
              config.grid_rows, config.grid_cols, config.iterations,
              core::to_string(spec->backend));

  if (!cli.get("resume").empty()) {
    const auto snapshot = core::load_checkpoint(cli.get("resume"));
    if (!snapshot || !session.restore(*snapshot)) {
      std::fprintf(stderr, "could not restore checkpoint %s (missing file or"
                   " distributed backend)\n", cli.get("resume").c_str());
      return 1;
    }
    std::printf("resumed from %s (iteration %u)\n", cli.get("resume").c_str(),
                snapshot->iteration);
  }

  // Metric evaluation rides the observer bus — the same seam telemetry and
  // checkpoint policies use, on every backend (pre-observability this was an
  // inline post-run block that only saw the local process). Non-rank-0 TCP
  // ranks never receive the stream and skip the evaluator entirely.
  std::unique_ptr<metrics::EvaluatorObserver> evaluator;
  if (core::Session::hosts_observer_stream(*spec)) {
    metrics::EvaluatorOptions eval_options;
    eval_options.eval_every = spec->observers.eval_every;
    eval_options.samples = spec->observers.eval_samples;
    try {
      evaluator = std::make_unique<metrics::EvaluatorObserver>(
          session.spec().config, session.test_set(), eval_options);
    } catch (const std::runtime_error& e) {  // an unreadable IDX test pair
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    session.observers().subscribe(evaluator.get());
  }

  const core::RunResult outcome = session.run();
  const double best_g_fitness =
      outcome.g_fitnesses[static_cast<std::size_t>(outcome.best_cell)];
  std::printf("%s: wall %.2fs, best cell %d\n", core::to_string(outcome.backend),
              outcome.wall_s, outcome.best_cell);
  const tensor::Tensor samples = session.sample_best(outcome, 64, spec->config.seed);
  if (!cli.get("checkpoint").empty() && session.trainer() != nullptr) {
    if (core::save_checkpoint(cli.get("checkpoint"), session.checkpoint())) {
      std::printf("checkpoint written to %s\n", cli.get("checkpoint").c_str());
    }
  }
  std::printf("best generator loss: %.4f\n", best_g_fitness);

  if (evaluator != nullptr) {
    for (const auto& snapshot : evaluator->history()) {
      std::printf("epoch %u: mixture IS %.3f | FID %.3f | modes %zu/10 |"
                  " TVD %.3f\n",
                  snapshot.epoch + 1, snapshot.mixture_is, snapshot.fid,
                  snapshot.modes_covered, snapshot.tvd_from_uniform);
    }
  }
  if (outcome.metrics.has_value()) {
    std::printf("inception score (analogue): %.3f\n", outcome.metrics->mixture_is);
    std::printf("FID (analogue): %.3f\n", outcome.metrics->fid);
    std::printf("modes covered: %zu/10, TVD from uniform: %.3f\n",
                outcome.metrics->modes_covered,
                outcome.metrics->tvd_from_uniform);
  }
  if (config.arch.image_dim == data::kImageDim &&
      data::write_pgm_grid(cli.get("out"), samples.data(), samples.rows(), 8)) {
    std::printf("wrote %s\n", cli.get("out").c_str());
  }
  return 0;
}
