// cellgan_run — the unified runner: every execution vehicle behind one
// command line, driven entirely by core::RunSpec / core::Session.
//
//   ./cellgan_run --backend sequential --grid 2 --iterations 4
//   ./cellgan_run --backend threads --threads 4 --cost-profile table3
//   ./cellgan_run --backend distributed --dataset idx:/data/mnist
//   ./cellgan_run --spec run.json --result-json result.json
//   ./cellgan_run --eval-every 5 --telemetry run.jsonl
//   ./cellgan_run --list-backends
//
// --dump-spec writes the resolved RunSpec as JSON so any run can be saved
// next to its results and replayed exactly with --spec; --result-json writes
// the unified RunResult (CI archives one per push as a bench artifact).
// --eval-every attaches a metrics::EvaluatorObserver (per-epoch IS / FID /
// mode coverage over the held-out set) and --telemetry streams every
// training event as JSONL — the same observer bus all four backends publish.
#include <cstdio>

#include <exception>
#include <memory>

#include "core/session.hpp"
#include "metrics/evaluator_observer.hpp"

int main(int argc, char** argv) {
  using namespace cellgan;

  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.iterations = 8;

  common::CliParser cli("cellgan_run: unified cellular GAN training runner");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("dump-spec", "", "write the resolved RunSpec JSON to this file");
  cli.add_flag("dry-run", "false", "resolve and print the spec, skip training");
  cli.add_flag("list-backends", "false", "print the backend names and exit");
  cli.add_flag("list-exchanges", "false",
               "print the registered exchange policy names and exit");
  if (!cli.parse(argc, argv)) return 1;

  if (cli.get_bool("list-backends")) {
    for (const core::Backend backend :
         {core::Backend::kSequential, core::Backend::kThreads,
          core::Backend::kDistributed, core::Backend::kDistributedTcp}) {
      std::printf("%s\n", core::to_string(backend));
    }
    return 0;
  }
  if (cli.get_bool("list-exchanges")) {
    for (const auto& name : evolve::exchange_policy_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  const auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;

  if (!cli.get("dump-spec").empty()) {
    if (spec->save(cli.get("dump-spec"))) {
      std::printf("wrote %s\n", cli.get("dump-spec").c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", cli.get("dump-spec").c_str());
      return 1;
    }
  }
  if (cli.get_bool("dry-run")) {
    std::printf("%s", spec->to_text().c_str());
    return 0;
  }

  core::Session session(*spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    return 1;
  }
  std::printf("backend %s: %ux%u grid, %u iterations, %zu training samples\n",
              core::to_string(spec->backend), spec->config.grid_rows,
              spec->config.grid_cols, spec->config.iterations,
              session.train_set().samples());

  // Metric evaluation rides the observer bus: IS / FID / mode coverage over
  // the held-out set every --eval-every epochs, on whichever backend runs.
  // (Non-rank-0 TCP ranks never receive the stream, so they skip the
  // evaluator — and its classifier-training cost — entirely.)
  std::unique_ptr<metrics::EvaluatorObserver> evaluator;
  core::RunResult result;
  try {
    if (spec->observers.eval_every > 0 && core::Session::hosts_observer_stream(*spec)) {
      metrics::EvaluatorOptions options;
      options.eval_every = spec->observers.eval_every;
      options.samples = spec->observers.eval_samples;
      evaluator = std::make_unique<metrics::EvaluatorObserver>(
          session.spec().config, session.test_set(), options);
      session.observers().subscribe(evaluator.get());
    }
    result = session.run();
  } catch (const std::exception& e) {
    // Named runtime errors (an unreadable IDX test pair, minimpi
    // Bootstrap/Timeout/TransportError from the distributed-tcp backend)
    // become a diagnostic, not a terminate.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("wall %.2fs", result.wall_s);
  if (result.virtual_s > 0.0) {
    std::printf(" | virtual %.2f min", result.virtual_s / 60.0);
  }
  if (result.distributed()) {
    std::printf(" | %zu ranks, %llu heartbeat cycles",
                result.ranks.size(),
                static_cast<unsigned long long>(result.heartbeat_cycles));
  }
  std::printf("\n");
  for (std::size_t cell = 0; cell < result.g_fitnesses.size(); ++cell) {
    std::printf("  cell %zu: G loss %.4f | D loss %.4f\n", cell,
                result.g_fitnesses[cell], result.d_fitnesses[cell]);
  }
  if (result.g_fitnesses.empty()) {
    // A non-master rank of a multi-process world: the aggregate lives at
    // rank 0; this process only has its own rank's outcome.
    std::printf("rank done; aggregated results are collected at rank 0\n");
  } else {
    std::printf("best cell: %d (G loss %.4f)\n", result.best_cell,
                result.g_fitnesses[static_cast<std::size_t>(result.best_cell)]);
  }
  if (evaluator != nullptr) {
    for (const auto& snapshot : evaluator->history()) {
      std::printf("  epoch %u: mixture IS %.3f | FID %.3f | modes %zu/10 |"
                  " tvd %.3f\n",
                  snapshot.epoch + 1, snapshot.mixture_is, snapshot.fid,
                  snapshot.modes_covered, snapshot.tvd_from_uniform);
    }
  }
  if (result.metrics.has_value()) {
    std::printf("final metrics (epoch %u): mixture IS %.3f | FID %.3f |"
                " modes %zu/10\n",
                result.metrics->epoch + 1, result.metrics->mixture_is,
                result.metrics->fid, result.metrics->modes_covered);
  }
  return 0;
}
