// Table IV — profiling of the four most time-consuming routines of GAN
// training (gather, train, update-genomes, mutate) at 4x4: single-core
// totals vs distributed per-slave times, acceleration and speedup columns.
//
// Calibrated with the table4 cost profile (the paper's profiled run is a
// different configuration than its Table III run — the two tables disagree
// on overall speedup; see core/cost_model.hpp). Routine times come out of the
// per-rank Profiler buckets filled by the real trainer code.
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "core/session.hpp"

namespace {

using namespace cellgan;

struct RoutineRow {
  const char* name;
  const char* routine;
  double paper_seq;
  double paper_dist;
};

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("table4_profiling: Table IV reproduction (4x4 grid)");
  cli.add_flag("iterations", "20", "epochs per run");
  cli.add_flag("samples", "200", "synthetic training samples");
  if (!cli.parse(argc, argv)) return 1;

  core::RunSpec spec;
  spec.config = core::TrainingConfig::tiny();
  spec.config.grid_rows = spec.config.grid_cols = 4;
  spec.config.iterations = static_cast<std::uint32_t>(cli.get_int("iterations"));
  spec.dataset.samples = static_cast<std::size_t>(cli.get_int("samples"));
  // table4 calibration (targets normalized to this run's iteration count).
  spec.cost_profile = core::CostProfileKind::kTable4;

  core::Session seq_session(spec);
  const core::RunResult seq_outcome = seq_session.run();

  core::RunSpec dist_spec = spec;
  dist_spec.backend = core::Backend::kDistributed;
  core::Session dist_session(dist_spec);
  dist_session.set_cost_model(seq_session.cost_model());
  dist_session.set_datasets(seq_session.train_set(), seq_session.test_set());
  const core::RunResult dist_outcome = dist_session.run();

  const RoutineRow rows[] = {
      {"gather", common::routine::kGather, 19.4, 19.4},
      {"train", common::routine::kTrain, 264.9, 43.8},
      {"update genomes", common::routine::kUpdateGenomes, 199.8, 16.8},
      {"mutate", common::routine::kMutate, 25.6, 17.9},
  };

  std::printf("Table IV: profiling of the most consuming routines (virtual"
              " minutes, 4x4 grid)\n");
  std::printf("  %-16s | %9s %9s | %9s %9s | %7s %7s | %8s %8s\n", "routine",
              "seq", "paper", "dist", "paper", "accel", "paper", "speedup",
              "paper");
  double seq_total = 0.0, dist_total = 0.0, paper_seq_total = 0.0,
         paper_dist_total = 0.0;
  for (const RoutineRow& row : rows) {
    // Single-core column: total across the whole process (16 cells).
    const double seq_min =
        seq_outcome.profiler.cost(row.routine).virtual_s / 60.0;
    // Distributed column: per-slave average (the paper's per-process view).
    const double dist_min = dist_outcome.slave_routine_virtual_min(row.routine);
    const double accel = 100.0 * (1.0 - dist_min / seq_min);
    const double paper_accel = 100.0 * (1.0 - row.paper_dist / row.paper_seq);
    std::printf("  %-16s | %9.1f %9.1f | %9.1f %9.1f | %6.1f%% %6.1f%% |"
                " %8.2f %8.2f\n",
                row.name, seq_min, row.paper_seq, dist_min, row.paper_dist,
                accel, paper_accel, seq_min / dist_min,
                row.paper_seq / row.paper_dist);
    seq_total += seq_min;
    dist_total += dist_min;
    paper_seq_total += row.paper_seq;
    paper_dist_total += row.paper_dist;
  }
  std::printf("  %-16s | %9.1f %9.1f | %9.1f %9.1f | %6.1f%% %6.1f%% |"
              " %8.2f %8.2f\n",
              "overall", seq_total, paper_seq_total, dist_total,
              paper_dist_total, 100.0 * (1.0 - dist_total / seq_total),
              100.0 * (1.0 - paper_dist_total / paper_seq_total),
              seq_total / dist_total, paper_seq_total / paper_dist_total);
  std::printf("\nshape check: gather ~1x (same elapsed in both versions),\n"
              "update-genomes accelerates most, mutate least among compute"
              " routines\n");
  return 0;
}
