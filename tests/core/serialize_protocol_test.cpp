// Cross-layer coverage: common/serialize.hpp round-trips of the
// core/protocol.hpp message types actually exchanged between master and
// slave. The per-layer suites test ByteWriter/ByteReader and the protocol
// structs in isolation; this suite checks the combination — byte-exact
// re-serialization, exhaustion of the buffer, and truncation safety.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/protocol.hpp"
#include "evolve/genome.hpp"
#include "testsupport/temp_dir.hpp"

namespace cellgan::core::protocol {
namespace {

evolve::CellGenome make_genome() {
  evolve::CellGenome genome;
  genome.generator_params = {0.5f, -1.25f, 3.0f, 0.0f};
  genome.discriminator_params = {2.0f, 7.5f};
  genome.g_learning_rate = 1e-3;
  genome.d_learning_rate = 2e-4;
  genome.g_fitness = 0.731;
  genome.d_fitness = 0.402;
  genome.origin_cell = 5;
  genome.iteration = 42;
  return genome;
}

void expect_genomes_equal(const evolve::CellGenome& a, const evolve::CellGenome& b) {
  EXPECT_EQ(a.generator_params, b.generator_params);
  EXPECT_EQ(a.discriminator_params, b.discriminator_params);
  EXPECT_DOUBLE_EQ(a.g_learning_rate, b.g_learning_rate);
  EXPECT_DOUBLE_EQ(a.d_learning_rate, b.d_learning_rate);
  EXPECT_DOUBLE_EQ(a.g_fitness, b.g_fitness);
  EXPECT_DOUBLE_EQ(a.d_fitness, b.d_fitness);
  EXPECT_EQ(a.origin_cell, b.origin_cell);
  EXPECT_EQ(a.iteration, b.iteration);
}

TEST(SerializeProtocolTest, RunTaskRoundTrip) {
  RunTask task;
  task.cell_id = 11;
  task.seed = 0xdeadbeefcafef00dull;

  const std::vector<std::uint8_t> bytes = task.serialize();
  const RunTask back = RunTask::deserialize(bytes);
  EXPECT_EQ(back.cell_id, task.cell_id);
  EXPECT_EQ(back.seed, task.seed);

  // Re-serializing the decoded message reproduces the wire bytes exactly.
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(SerializeProtocolTest, StatusReplyRoundTripAllStates) {
  for (const SlaveState state :
       {SlaveState::kInactive, SlaveState::kProcessing, SlaveState::kFinished}) {
    StatusReply reply;
    reply.state = state;
    reply.iteration = 99;
    reply.cell_id = 3;

    const std::vector<std::uint8_t> bytes = reply.serialize();
    const StatusReply back = StatusReply::deserialize(bytes);
    EXPECT_EQ(back.state, state) << to_string(state);
    EXPECT_EQ(back.iteration, reply.iteration);
    EXPECT_EQ(back.cell_id, reply.cell_id);
    EXPECT_EQ(back.serialize(), bytes);
  }
}

TEST(SerializeProtocolTest, SlaveResultRoundTrip) {
  SlaveResult result;
  result.cell_id = 7;
  result.center = make_genome();
  result.mixture_weights = {0.5, 0.25, 0.125, 0.125};
  result.virtual_time_s = 12.75;

  const std::vector<std::uint8_t> bytes = result.serialize();
  const SlaveResult back = SlaveResult::deserialize(bytes);
  EXPECT_EQ(back.cell_id, result.cell_id);
  expect_genomes_equal(back.center, result.center);
  EXPECT_EQ(back.mixture_weights, result.mixture_weights);
  EXPECT_DOUBLE_EQ(back.virtual_time_s, result.virtual_time_s);
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(SerializeProtocolTest, SlaveResultWithEmptyPayloads) {
  SlaveResult result;  // default genome, no mixture weights
  const std::vector<std::uint8_t> bytes = result.serialize();
  const SlaveResult back = SlaveResult::deserialize(bytes);
  EXPECT_EQ(back.cell_id, 0u);
  EXPECT_TRUE(back.center.generator_params.empty());
  EXPECT_TRUE(back.center.discriminator_params.empty());
  EXPECT_TRUE(back.mixture_weights.empty());
}

TEST(SerializeProtocolTest, RandomizedSlaveResultRoundTrips) {
  // Paper-scale payloads (thousands of parameters) with varied sizes, seeded
  // deterministically per test so failures reproduce bit-for-bit.
  common::Rng rng(testsupport::deterministic_seed());
  for (int round = 0; round < 8; ++round) {
    SlaveResult result;
    result.cell_id = static_cast<std::uint32_t>(rng.uniform_int(64));
    result.center.generator_params.resize(1 + rng.uniform_int(4096));
    result.center.discriminator_params.resize(1 + rng.uniform_int(4096));
    for (float& v : result.center.generator_params) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    for (float& v : result.center.discriminator_params) {
      v = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    result.mixture_weights.resize(1 + rng.uniform_int(9), 0.125);
    result.virtual_time_s = rng.uniform(0.0, 600.0);

    const std::vector<std::uint8_t> bytes = result.serialize();
    const SlaveResult back = SlaveResult::deserialize(bytes);
    expect_genomes_equal(back.center, result.center);
    EXPECT_EQ(back.mixture_weights, result.mixture_weights);
    EXPECT_EQ(back.serialize(), bytes);
  }
}

TEST(SerializeProtocolTest, TruncatedBufferIsRejected) {
  // A truncated frame between ranks must trip the bounds-checked reader, not
  // silently decode garbage.
  SlaveResult result;
  result.center = make_genome();
  result.mixture_weights = {0.25, 0.75};
  std::vector<std::uint8_t> bytes = result.serialize();
  bytes.pop_back();
  EXPECT_DEATH((void)SlaveResult::deserialize(bytes), "precondition");

  RunTask task;
  const std::vector<std::uint8_t> task_bytes = task.serialize();
  const std::vector<std::uint8_t> half(task_bytes.begin(),
                                       task_bytes.begin() + task_bytes.size() / 2);
  EXPECT_DEATH((void)RunTask::deserialize(half), "precondition");
}

TEST(SerializeProtocolDeathTest, UnknownLossModeAborts) {
  std::vector<std::uint8_t> bytes = TrainingConfig::tiny().serialize();
  bytes[96] = 7;  // loss_mode names no LossMode
  EXPECT_DEATH((void)TrainingConfig::deserialize(bytes), "precondition");
}

TEST(SerializeProtocolDeathTest, UnknownSlaveStateAborts) {
  StatusReply reply;
  reply.state = static_cast<SlaveState>(9);
  EXPECT_DEATH((void)StatusReply::deserialize(reply.serialize()), "precondition");
}

}  // namespace
}  // namespace cellgan::core::protocol
