// Table III — execution times of GAN training: single-core vs the
// parallel/distributed implementation, for 2x2, 3x3 and 4x4 grids, with the
// speedup column. Ten repetitions per grid (like the paper) give the
// avg +- std of the distributed times. With --threads N an extra
// "multithread" column runs the in-process ParallelTrainer: same process,
// cells stepped concurrently on N worker lanes — virtual time shows the
// max-over-lanes makespan (the "p cores" view) and wall time shows the
// real speedup this machine's cores deliver.
//
// Methodology (DESIGN.md §4, EXPERIMENTS.md): the *real* training code runs
// at reduced scale (tiny networks, few iterations) and per-rank virtual
// clocks advance through the calibrated cost model; Table II's resource
// summary is printed from the actual world layout. Wall-clock times of the
// reduced runs are also reported (honest small-scale measurement on this
// machine) — the virtual-time columns are the paper-scale reproduction.
// `ci/check.sh --bench` runs it at reduced scale as a smoke.
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/cli.hpp"
#include "core/session.hpp"

namespace {

using namespace cellgan;

struct GridResult {
  int side = 0;
  double seq_virtual_min = 0.0;
  double seq_wall_s = 0.0;
  double seq_train_flops = 0.0;
  double mt_virtual_min = 0.0;   ///< ParallelTrainer makespan (0 if not run)
  double mt_wall_s = 0.0;
  double mt_train_flops = 0.0;
  bool mt_flops_match = true;    ///< parallel run did exactly the seq work
  bool mt_profile_match = true;  ///< per-routine virtual totals agree
  double dist_virtual_min_avg = 0.0;
  double dist_virtual_min_std = 0.0;
  double dist_wall_s = 0.0;
};

GridResult run_grid(int side, std::uint32_t iterations, int repetitions,
                    std::size_t samples, std::size_t threads) {
  core::RunSpec spec;
  spec.config = core::TrainingConfig::tiny();
  spec.config.grid_rows = spec.config.grid_cols = static_cast<std::uint32_t>(side);
  spec.config.iterations = iterations;
  spec.dataset.samples = samples;
  // The table3 profile calibrates the cost model on this exact configuration:
  // the probe measures real flops/bytes per cell-iteration, the targets are
  // normalized to this run's iteration count (Session does both).
  spec.cost_profile = core::CostProfileKind::kTable3;

  GridResult result;
  result.side = side;

  core::Session seq_session(spec);
  const core::RunResult seq_outcome = seq_session.run();
  result.seq_virtual_min = seq_outcome.virtual_s / 60.0;
  result.seq_wall_s = seq_outcome.wall_s;
  result.seq_train_flops = seq_outcome.train_flops;
  // Calibrate and resolve the dataset once; the multithread and distributed
  // sessions share both.
  const core::CostModel cost = seq_session.cost_model();

  if (threads > 1) {
    core::RunSpec mt_spec = spec;
    mt_spec.backend = core::Backend::kThreads;
    mt_spec.threads = threads;
    core::Session mt_session(mt_spec);
    mt_session.set_cost_model(cost);
    mt_session.set_datasets(seq_session.train_set(), seq_session.test_set());
    const core::RunResult mt_outcome = mt_session.run();
    result.mt_virtual_min = mt_outcome.virtual_s / 60.0;
    result.mt_wall_s = mt_outcome.wall_s;
    result.mt_train_flops = mt_outcome.train_flops;
    result.mt_flops_match = mt_outcome.train_flops == seq_outcome.train_flops;
    for (const char* routine :
         {common::routine::kTrain, common::routine::kUpdateGenomes,
          common::routine::kMutate, common::routine::kGather}) {
      const double seq_vs = seq_outcome.profiler.cost(routine).virtual_s;
      const double mt_vs = mt_outcome.profiler.cost(routine).virtual_s;
      if (std::abs(seq_vs - mt_vs) > 1e-9 * std::max(1.0, seq_vs)) {
        result.mt_profile_match = false;
      }
    }
  }

  std::vector<double> dist_minutes;
  double wall_total = 0.0;
  for (int rep = 0; rep < repetitions; ++rep) {
    core::RunSpec rep_spec = spec;
    rep_spec.backend = core::Backend::kDistributed;
    rep_spec.config.seed = spec.config.seed + 1000 + static_cast<std::uint64_t>(rep);
    core::Session rep_session(rep_spec);
    rep_session.set_cost_model(cost);
    rep_session.set_datasets(seq_session.train_set(), seq_session.test_set());
    const core::RunResult outcome = rep_session.run();
    dist_minutes.push_back(outcome.virtual_s / 60.0);
    wall_total += outcome.wall_s;
  }
  double sum = 0.0;
  for (const double m : dist_minutes) sum += m;
  result.dist_virtual_min_avg = sum / dist_minutes.size();
  double var = 0.0;
  for (const double m : dist_minutes) {
    var += (m - result.dist_virtual_min_avg) * (m - result.dist_virtual_min_avg);
  }
  result.dist_virtual_min_std =
      dist_minutes.size() > 1 ? std::sqrt(var / (dist_minutes.size() - 1)) : 0.0;
  result.dist_wall_s = wall_total / repetitions;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("table3_scaling: Table III reproduction");
  cli.add_flag("iterations", "20", "epochs per run (charges normalized to this)");
  cli.add_flag("repetitions", "10", "distributed repetitions per grid");
  cli.add_flag("samples", "200", "synthetic training samples");
  cli.add_flag("threads", "0",
               "worker lanes for an extra in-process multithread column "
               "(0 = skip)");
  if (!cli.parse(argc, argv)) return 1;

  const auto iterations = static_cast<std::uint32_t>(cli.get_int("iterations"));
  const int repetitions = static_cast<int>(cli.get_int("repetitions"));
  const auto samples = static_cast<std::size_t>(cli.get_int("samples"));
  const auto threads = static_cast<std::size_t>(cli.get_int("threads"));

  // Paper values for side-by-side comparison (Table III).
  struct PaperRow {
    double seq, dist, dist_std, speedup;
  };
  const PaperRow paper[] = {{339.6, 39.81, 0.01, 8.53},
                            {999.5, 73.24, 2.56, 13.65},
                            {1920.0, 126.68, 3.42, 15.17}};

  std::printf("Table II: resources used on each execution\n");
  std::printf("  %-10s %8s %12s\n", "grid size", "# cores", "memory (MB)");
  for (const int side : {2, 3, 4}) {
    const int cells = side * side;
    // Per-process working set: center pair + scratch pair + 4 neighbor
    // genomes at paper scale (~2.2 MB/genome) plus data and runtime.
    const double mb_per_slave = (4 + 4) * 2.2 + 512.0;
    std::printf("  %dx%-8d %8d %12.0f\n", side, side, cells + 1,
                (cells + 1) * mb_per_slave);
  }

  std::vector<GridResult> rows;
  std::printf("\nTable III: execution times of GAN training (virtual minutes,"
              " paper-scale)\n");
  std::printf("  %-9s | %9s %9s | %17s %15s | %8s %8s | %12s %12s\n", "grid",
              "seq(min)", "paper", "dist(min)", "paper", "speedup", "paper",
              "seq wall(s)", "dist wall(s)");
  for (int i = 0; i < 3; ++i) {
    const int side = i + 2;
    const GridResult r = run_grid(side, iterations, repetitions, samples, threads);
    rows.push_back(r);
    const double speedup = r.seq_virtual_min / r.dist_virtual_min_avg;
    std::printf(
        "  %dx%-7d | %9.1f %9.1f | %8.2f+-%-6.2f %8.2f+-%-4.2f | %8.2f %8.2f |"
        " %12.2f %12.2f\n",
        side, side, r.seq_virtual_min, paper[i].seq, r.dist_virtual_min_avg,
        r.dist_virtual_min_std, paper[i].dist, paper[i].dist_std, speedup,
        paper[i].speedup, r.seq_wall_s, r.dist_wall_s);
  }

  if (threads > 1) {
    std::printf("\nmultithread column: ParallelTrainer, %zu worker lanes"
                " (in-process)\n", threads);
    std::printf("  %-9s | %9s %12s | %11s %12s | %10s %7s %7s\n", "grid",
                "mt(min)", "virt speedup", "mt wall(s)", "wall speedup",
                "flops", "profile", "");
    for (const GridResult& r : rows) {
      std::printf("  %dx%-7d | %9.1f %12.2f | %11.2f %12.2f | %10s %7s\n",
                  r.side, r.side, r.mt_virtual_min,
                  r.mt_virtual_min > 0.0 ? r.seq_virtual_min / r.mt_virtual_min : 0.0,
                  r.mt_wall_s,
                  r.mt_wall_s > 0.0 ? r.seq_wall_s / r.mt_wall_s : 0.0,
                  r.mt_flops_match ? "match" : "MISMATCH",
                  r.mt_profile_match ? "match" : "MISMATCH");
    }
    std::printf("  (wall speedup is bounded by this machine's cores; the"
                " virtual column is the calibrated p-core makespan)\n");
  }

  std::printf("\nshape check: superlinear speedup at 2x2/3x3 (memory-pressure"
              " model),\nsublinear at 4x4 (management + gather overhead) — see"
              " EXPERIMENTS.md\n");
  return 0;
}
