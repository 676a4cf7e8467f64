// Calibrated virtual-time cost model.
//
// The paper's evaluation ran on a 30-node cluster for up to 32 CPU-hours per
// configuration; this environment has two cores and no MPI. The benchmarks
// therefore execute the *real* training code at reduced scale and advance
// per-rank virtual clocks using per-unit-of-work rates (seconds per flop,
// per byte installed, per mutation call, per byte gathered) that are
// calibrated so the paper's configuration reproduces the paper's table rows.
//
// Two calibration profiles exist because the paper's own tables disagree
// (Table III implies a 15.17x overall 4x4 speedup, Table IV implies 5.21x
// for the same grid): `table3()` targets the scaling table, `table4()` the
// per-routine profiling table. Both derivations are the comments in
// CostProfile::table3() and table4() (cost_model.cpp).
//
// The model is event-driven: time only accrues when the training code
// actually performs work (flops counted by the tensor library, bytes counted
// at serialization boundaries, messages timed by minimpi's NetModel), so a
// different workload configuration yields proportionally different times.
#pragma once

#include "common/rng.hpp"
#include "minimpi/netmodel.hpp"

namespace cellgan::core {

/// How the training harness is being executed.
enum class ExecMode {
  RealTime,    ///< no virtual time; wall-clock measurements only
  SingleCore,  ///< all cells in one process (the paper's baseline column)
  /// All cells in one process, stepped concurrently on a thread pool — the
  /// "p cores" view of Table III. Per-cell charges are identical to
  /// SingleCore (the process still holds the whole grid's working set, so
  /// the memory penalty applies); only the clock aggregation differs: each
  /// worker lane owns a VirtualClock and the run's makespan is the max over
  /// lanes per epoch, not the serial sum.
  MultiThread,
  Distributed, ///< one slave process per cell + master (the paper's system)
};

/// Calibration targets, all in minutes per reference run (200 iterations)
/// unless stated otherwise. The fits are commented in CostProfile::table3()
/// and table4() (cost_model.cpp).
struct CostProfile {
  // Sequential (single-core) per-cell routine costs, before memory penalty.
  double seq_train_percell_min = 0.0;
  double seq_update_percell_min = 0.0;
  double seq_mutate_percell_min = 0.0;
  double seq_gather_percell_min = 0.0;  ///< in-process neighbor exchange

  // When true, the per-cell (train+update) cost is scaled so that the total
  // per-cell cost matches the affine fit  c_inf - k/n  of Table III's
  // single-core column (n = number of resident cells). This is the
  // working-set memory-pressure model that produces the paper's superlinear
  // speedups at 2x2/3x3.
  bool seq_affine_penalty = false;
  double seq_affine_cinf_min = 0.0;  ///< c_inf
  double seq_affine_k_min = 0.0;     ///< k

  // Distributed per-slave routine costs.
  double dist_train_perslave_min = 0.0;
  double dist_update_perslave_min = 0.0;
  double dist_mutate_perslave_min = 0.0;

  /// Sender-side allgather cost per other member of the LOCAL communicator
  /// (the direct-exchange allgather makes gather time linear in members).
  double gather_per_member_min = 0.0;

  /// Master-side serialized reduction/management cost per slave — the
  /// "overhead introduced by process management" that makes the paper's
  /// 4x4 speedup sublinear.
  double mgmt_per_slave_min = 0.0;

  double reference_iterations = 200.0;
  double straggler_sigma = 0.02;  ///< per-charge lognormal jitter
  /// Per-rank per-run speed factor (lognormal sigma): models the best-effort
  /// cluster handing different runs differently-loaded nodes — the source of
  /// the paper's run-to-run +-std.
  double node_sigma = 0.03;

  static CostProfile table3();
  static CostProfile table4();
};

/// Measured per-cell-per-iteration workload of the *actual* configuration,
/// used to convert calibration targets into per-unit rates.
struct WorkloadProbe {
  double train_flops = 0.0;    ///< flops spent in the train routine
  double update_bytes = 0.0;   ///< genome bytes installed in update_genomes
  double mutate_calls = 1.0;   ///< mutation invocations
  double genome_bytes = 0.0;   ///< serialized size of one exchanged genome
};

class CostModel {
 public:
  /// Disabled model: every charge is zero (pure real-time runs).
  CostModel() = default;

  static CostModel calibrated(const CostProfile& profile, const WorkloadProbe& probe);

  bool enabled() const { return enabled_; }

  /// Simulated seconds for `flops` of gradient work.
  double train_seconds(ExecMode mode, int grid_cells, double flops) const;
  /// Simulated seconds for installing `bytes` of genome data.
  double update_seconds(ExecMode mode, int grid_cells, double bytes) const;
  /// Simulated seconds for `calls` hyperparameter/mixture mutations.
  double mutate_seconds(ExecMode mode, int grid_cells, double calls) const;
  /// Simulated seconds for the single-core in-process exchange of `bytes`.
  double seq_gather_seconds(int grid_cells, double bytes) const;
  /// Master-side per-slave management charge for a whole run of `iterations`.
  double mgmt_seconds_per_slave(double iterations) const;

  double straggler_sigma() const { return profile_.straggler_sigma; }

  /// Multiplicative lognormal jitter with unit mean (applied to compute
  /// charges in Distributed mode; models the best-effort cluster).
  double jitter(common::Rng& rng) const;

  /// Run-level node speed factor, drawn once per rank per run.
  double node_factor(common::Rng& rng) const;

  /// NetModel configuration whose bandwidth realizes the gather target for
  /// the measured genome size.
  minimpi::NetModelConfig net_config() const;

 private:
  /// Memory-pressure multiplier on sequential train+update at n resident cells.
  double seq_penalty(int grid_cells) const;

  bool enabled_ = false;
  CostProfile profile_;
  WorkloadProbe probe_;
  // Per-unit rates (seconds per flop / byte / call).
  double seq_train_s_per_flop_ = 0.0;
  double dist_train_s_per_flop_ = 0.0;
  double seq_update_s_per_byte_ = 0.0;
  double dist_update_s_per_byte_ = 0.0;
  double seq_mutate_s_per_call_ = 0.0;
  double dist_mutate_s_per_call_ = 0.0;
  double seq_gather_s_per_byte_ = 0.0;
};

}  // namespace cellgan::core
