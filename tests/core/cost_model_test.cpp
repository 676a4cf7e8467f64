// Analytic checks that the calibrated cost model reproduces the paper's
// Table III numbers by construction — the closed-form backbone of the
// scaling benchmark. The derivations are the comments in
// CostProfile::table3() and table4() (src/core/cost_model.cpp).
#include "core/cost_model.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace cellgan::core {
namespace {

WorkloadProbe test_probe() {
  WorkloadProbe probe;
  probe.train_flops = 1e6;
  probe.update_bytes = 4e4;
  probe.mutate_calls = 1.0;
  probe.genome_bytes = 1e4;
  return probe;
}

/// Total sequential virtual minutes for a full reference run on n cells.
double seq_total_min(const CostModel& model, int n) {
  const WorkloadProbe probe = test_probe();
  const double iters = 200.0;
  const double per_cell_s =
      model.train_seconds(ExecMode::SingleCore, n, probe.train_flops) +
      model.update_seconds(ExecMode::SingleCore, n, probe.update_bytes) +
      model.mutate_seconds(ExecMode::SingleCore, n, 1.0) +
      model.seq_gather_seconds(n, 4.0 * probe.genome_bytes);
  return per_cell_s * n * iters / 60.0;
}

TEST(CostModelTest, DisabledModelChargesNothing) {
  CostModel model;
  EXPECT_FALSE(model.enabled());
  EXPECT_DOUBLE_EQ(model.train_seconds(ExecMode::SingleCore, 16, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(model.update_seconds(ExecMode::Distributed, 16, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(model.mutate_seconds(ExecMode::Distributed, 16, 5.0), 0.0);
  EXPECT_DOUBLE_EQ(model.mgmt_seconds_per_slave(200), 0.0);
  EXPECT_FALSE(model.net_config().enabled);
}

TEST(CostModelTest, RealTimeModeChargesNothingEvenWhenCalibrated) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  EXPECT_DOUBLE_EQ(model.train_seconds(ExecMode::RealTime, 16, 1e9), 0.0);
}

TEST(CostModelTest, Table3SequentialTotalsMatchPaper) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  // Paper Table III single-core column: 339.6 / 999.5 / 1920.0 minutes.
  EXPECT_NEAR(seq_total_min(model, 4), 339.6, 0.02 * 339.6);
  EXPECT_NEAR(seq_total_min(model, 9), 999.5, 0.02 * 999.5);
  EXPECT_NEAR(seq_total_min(model, 16), 1920.0, 0.02 * 1920.0);
}

TEST(CostModelTest, Table3DistributedCoreMatchesDecomposition) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  const WorkloadProbe probe = test_probe();
  const double iters = 200.0;
  const double core_min =
      (model.train_seconds(ExecMode::Distributed, 16, probe.train_flops) +
       model.update_seconds(ExecMode::Distributed, 16, probe.update_bytes) +
       model.mutate_seconds(ExecMode::Distributed, 16, 1.0)) *
      iters / 60.0;
  EXPECT_NEAR(core_min, 6.77 + 2.60 + 2.77, 0.05);
}

TEST(CostModelTest, ManagementScalesWithIterations) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  const double full = model.mgmt_seconds_per_slave(200);
  const double half = model.mgmt_seconds_per_slave(100);
  EXPECT_NEAR(full, 5.95 * 60.0, 1.0);
  EXPECT_NEAR(half, full / 2.0, 1e-9);
}

TEST(CostModelTest, NetBandwidthRealizesGatherTarget) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  const auto net = model.net_config();
  ASSERT_TRUE(net.enabled);
  // One genome transfer to one member, 200 times, across 15 members should
  // cost 19.4 minutes (Table IV gather row at 4x4).
  const double per_send_s = test_probe().genome_bytes / net.bandwidth_Bps;
  EXPECT_NEAR(per_send_s * 200.0 * 15.0 / 60.0, 19.4, 0.1);
}

TEST(CostModelTest, SequentialPenaltyGrowsWithResidentCells) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  const double t4 = model.train_seconds(ExecMode::SingleCore, 4, 1e6);
  const double t9 = model.train_seconds(ExecMode::SingleCore, 9, 1e6);
  const double t16 = model.train_seconds(ExecMode::SingleCore, 16, 1e6);
  EXPECT_LT(t4, t9);
  EXPECT_LT(t9, t16);
}

TEST(CostModelTest, PenaltyClampedAtTinyGrids) {
  // The affine fit would go negative at n=1; the model must clamp to >= the
  // clean distributed rate.
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  const double seq = model.train_seconds(ExecMode::SingleCore, 1, 1e6);
  const double dist = model.train_seconds(ExecMode::Distributed, 1, 1e6);
  EXPECT_GE(seq, dist * 0.99);
}

TEST(CostModelTest, Table4RoutinesMatchPaperColumns) {
  const CostModel model = CostModel::calibrated(CostProfile::table4(), test_probe());
  const WorkloadProbe probe = test_probe();
  const double iters = 200.0;
  // Distributed column: train 43.8, update 16.8, mutate 17.9 (per slave).
  EXPECT_NEAR(model.train_seconds(ExecMode::Distributed, 16, probe.train_flops) *
                  iters / 60.0,
              43.8, 0.1);
  EXPECT_NEAR(model.update_seconds(ExecMode::Distributed, 16, probe.update_bytes) *
                  iters / 60.0,
              16.8, 0.1);
  EXPECT_NEAR(model.mutate_seconds(ExecMode::Distributed, 16, 1.0) * iters / 60.0,
              17.9, 0.1);
  // Single-core column: per-cell x16 = 264.9 / 199.8 / 25.6 (no affine
  // penalty in the table4 profile).
  EXPECT_NEAR(model.train_seconds(ExecMode::SingleCore, 16, probe.train_flops) *
                  iters * 16.0 / 60.0,
              264.9, 0.5);
  EXPECT_NEAR(model.update_seconds(ExecMode::SingleCore, 16, probe.update_bytes) *
                  iters * 16.0 / 60.0,
              199.8, 0.5);
  EXPECT_NEAR(model.mutate_seconds(ExecMode::SingleCore, 16, 1.0) * iters * 16.0 /
                  60.0,
              25.6, 0.2);
}

TEST(CostModelTest, ChargesScaleLinearlyWithWork) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  const double one = model.train_seconds(ExecMode::Distributed, 16, 1e6);
  const double three = model.train_seconds(ExecMode::Distributed, 16, 3e6);
  EXPECT_NEAR(three, 3.0 * one, 1e-12);
}

TEST(CostModelTest, JitterHasUnitMean) {
  const CostModel model = CostModel::calibrated(CostProfile::table3(), test_probe());
  common::Rng rng(1);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double j = model.jitter(rng);
    EXPECT_GT(j, 0.0);
    sum += j;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.01);
}

TEST(CostModelTest, DisabledJitterIsOne) {
  CostModel model;
  common::Rng rng(2);
  EXPECT_DOUBLE_EQ(model.jitter(rng), 1.0);
}

TEST(CostModelDeathTest, CalibrationRequiresPositiveProbe) {
  WorkloadProbe bad = test_probe();
  bad.train_flops = 0.0;
  EXPECT_DEATH((void)CostModel::calibrated(CostProfile::table3(), bad),
               "precondition");
}

}  // namespace
}  // namespace cellgan::core
