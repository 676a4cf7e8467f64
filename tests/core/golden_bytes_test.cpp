// Golden bytes of every serialized record.
//
// The records below cross process boundaries (the master/slave protocol, the
// serving plane) or live on disk (checkpoints), so their byte layouts are a
// format, not an implementation detail. Round-trip tests cannot see a layout
// change that both halves of a codec make together; this suite can. Small
// fixed records are pinned as hex, one field per line; records that carry
// floats are pinned by size and FNV-1a 64 of their bytes. Each pinned record
// is also decoded and re-encoded, so the decoders read exactly these bytes.
//
// A change that fails here changes a wire or checkpoint format: it must bump
// the checkpoint version, and it moves every distributed run's virtual time
// (the broadcast config's length is charged).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cell_trainer.hpp"
#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/observer.hpp"
#include "core/protocol.hpp"
#include "core/rank_state.hpp"
#include "core/workload.hpp"
#include "evolve/genome.hpp"
#include "serve/protocol.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out += kDigits[byte >> 4];
    out += kDigits[byte & 0xf];
  }
  return out;
}

std::uint64_t fnv1a_64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Size and hash of a record's bytes, compared as one value so a failure
/// prints both.
struct Pin {
  std::size_t size = 0;
  std::uint64_t fnv = 0;
  friend bool operator==(const Pin&, const Pin&) = default;
  friend std::ostream& operator<<(std::ostream& os, const Pin& pin) {
    return os << "{" << pin.size << ", 0x" << std::hex << pin.fnv << std::dec << "}";
  }
};

Pin pin(std::span<const std::uint8_t> bytes) { return {bytes.size(), fnv1a_64(bytes)}; }

/// Decoding `bytes` and encoding the result gives `bytes` back.
template <typename Record>
void expect_reencodes(const std::vector<std::uint8_t>& bytes) {
  EXPECT_EQ(Record::deserialize(bytes).serialize(), bytes);
}

evolve::CellGenome make_genome(std::uint32_t origin) {
  evolve::CellGenome genome;
  for (int i = 0; i < 37; ++i) {
    genome.generator_params.push_back(0.5f * static_cast<float>(i) - 3.25f);
  }
  for (int i = 0; i < 11; ++i) {
    genome.discriminator_params.push_back(1.0f / static_cast<float>(i + 1));
  }
  genome.g_learning_rate = 2e-4;
  genome.d_learning_rate = 3e-4;
  genome.g_fitness = 0.6931;
  genome.d_fitness = 1.386;
  genome.origin_cell = origin;
  genome.iteration = 9;
  return genome;
}

core::CellEpochRecord make_cell_record(std::uint32_t cell) {
  core::CellEpochRecord rec;
  rec.cell = cell;
  rec.epoch = 4;
  rec.g_fitness = 0.75;
  rec.d_fitness = 1.25;
  rec.g_learning_rate = 2e-4;
  rec.d_learning_rate = 1e-4;
  rec.loss_kind = 2;
  rec.virtual_s = 12.5;
  rec.train_flops = 3.5e9;
  rec.genome = make_genome(cell).serialize();
  rec.mixture_weights = {0.5, 0.25, 0.125, 0.125};
  rec.exchange_policy = 2;
  rec.exchange_partner = 3;
  rec.exchange_g_adopted = 1;
  rec.exchange_d_adopted = 0;
  rec.exchange_g_before = 0.9;
  rec.exchange_g_after = 0.7;
  rec.exchange_d_before = 1.1;
  rec.exchange_d_after = 1.3;
  rec.exchange_wins = 6;
  rec.exchange_bytes = 4096.0;
  return rec;
}

// --- fixed records, pinned as hex -------------------------------------------

TEST(GoldenBytes, RunTask) {
  core::protocol::RunTask task;
  task.cell_id = 3;
  task.seed = 0x0123456789abcdefull;
  const auto bytes = task.serialize();
  EXPECT_EQ(hex(bytes),
            "03000000"            // cell_id
            "efcdab8967452301");  // seed
  expect_reencodes<core::protocol::RunTask>(bytes);
}

TEST(GoldenBytes, StatusReply) {
  core::protocol::StatusReply reply;
  reply.state = core::protocol::SlaveState::kProcessing;
  reply.iteration = 7;
  reply.cell_id = 2;
  const auto bytes = reply.serialize();
  EXPECT_EQ(hex(bytes),
            "01000000"    // state
            "07000000"    // iteration
            "02000000");  // cell_id
  expect_reencodes<core::protocol::StatusReply>(bytes);
}

TEST(GoldenBytes, SampleRequest) {
  serve::SampleRequest request;
  request.request_id = 0x1122334455667788ull;
  request.seed = 42;
  request.count = 5;
  const auto bytes = request.serialize();
  EXPECT_EQ(hex(bytes),
            "8877665544332211"  // request_id
            "2a00000000000000"  // seed
            "05000000");        // count
  expect_reencodes<serve::SampleRequest>(bytes);
}

TEST(GoldenBytes, StatsResponse) {
  serve::StatsResponse stats;
  stats.requests = 1;
  stats.samples = 2;
  stats.batches = 3;
  stats.cache_hits = 4;
  stats.cache_misses = 5;
  stats.cache_evictions = 6;
  stats.rejected = 7;
  stats.uptime_s = 1.5;
  stats.total_queue_us = 0.25;
  stats.total_forward_us = -2.0;
  const auto bytes = stats.serialize();
  EXPECT_EQ(hex(bytes),
            "0100000000000000"    // requests
            "0200000000000000"    // samples
            "0300000000000000"    // batches
            "0400000000000000"    // cache_hits
            "0500000000000000"    // cache_misses
            "0600000000000000"    // cache_evictions
            "0700000000000000"    // rejected
            "000000000000f83f"    // uptime_s = 1.5
            "000000000000d03f"    // total_queue_us = 0.25
            "00000000000000c0");  // total_forward_us = -2.0
  expect_reencodes<serve::StatsResponse>(bytes);
}

TEST(GoldenBytes, TinyTrainingConfig) {
  const auto bytes = core::TrainingConfig::tiny().serialize();
  ASSERT_EQ(bytes.size(), 152u);
  EXPECT_EQ(hex(bytes),
            "0800000000000000"    // arch.latent_dim
            "1000000000000000"    // arch.hidden_dim
            "0200000000000000"    // arch.hidden_layers
            "4000000000000000"    // arch.image_dim
            "03000000"            // iterations
            "02000000"            // tournament_size
            "02000000"            // grid_rows
            "02000000"            // grid_cols
            "7b14ae47e17a843f"    // mixture_mutation_scale = 0.01
            "2d431cebe2362a3f"    // initial_learning_rate = 0.0002
            "2d431cebe2361a3f"    // lr_mutation_sigma = 0.0001
            "000000000000e03f"    // lr_mutation_probability = 0.5
            "10000000"            // batch_size
            "01000000"            // discriminator_skip_steps
            "01000000"            // batches_per_iteration
            "10000000"            // fitness_eval_samples
            "00000000"            // loss_mode = heuristic
            "000000000000f03f"    // data_dieting_fraction = 1.0
            "00000000"            // genome_record_every
            "00000000"            // genome_record_every_b
            "00000000"            // forward_records
            "01000000"            // data_plane
            "2a00000000000000"    // seed = 42
            "01000000"            // exchange_policy = cellular
            "01000000"            // exchange_every
            "00000000"            // conditional
            "7b14ae47e17a843f");  // weight_clip = 0.01
  expect_reencodes<core::TrainingConfig>(bytes);
}

// --- records that carry floats, pinned by size and hash ----------------------

TEST(GoldenBytes, CellGenome) {
  const auto bytes = make_genome(5).serialize();
  EXPECT_EQ(pin(bytes), (Pin{248, 0xb24211cb21c13ae5ull}));
  EXPECT_EQ(bytes.size(), make_genome(5).byte_size());
  expect_reencodes<evolve::CellGenome>(bytes);
}

TEST(GoldenBytes, SlaveResult) {
  core::protocol::SlaveResult result;
  result.cell_id = 2;
  result.center = make_genome(2);
  result.mixture_weights = {0.5, 0.25, 0.25};
  result.virtual_time_s = 1.75;
  const auto bytes = result.serialize();
  EXPECT_EQ(pin(bytes), (Pin{300, 0xb3bb0d803901c3abull}));
  expect_reencodes<core::protocol::SlaveResult>(bytes);
}

TEST(GoldenBytes, CellEpochRecordWithGenome) {
  const auto bytes = make_cell_record(1).serialize();
  EXPECT_EQ(pin(bytes), (Pin{414, 0x86fa4156e4bbbb1full}));
  expect_reencodes<core::CellEpochRecord>(bytes);
}

TEST(GoldenBytes, EpochRecord) {
  core::EpochRecord record;
  record.epoch = 4;
  record.cells.push_back(make_cell_record(0));
  record.cells.push_back(core::CellEpochRecord{});  // no genome payload
  record.cells.back().cell = 1;
  const auto bytes = record.serialize();
  EXPECT_EQ(pin(bytes), (Pin{576, 0x42a30370b5031ad3ull}));
  expect_reencodes<core::EpochRecord>(bytes);
}

TEST(GoldenBytes, SampleResponse) {
  serve::SampleResponse ok;
  ok.request_id = 77;
  ok.rows = 2;
  ok.cols = 3;
  ok.samples = {0.5f, -0.5f, 0.25f, -0.25f, 1.0f, -1.0f};
  ok.batch_requests = 2;
  ok.queue_us = 12.5;
  ok.forward_us = 80.25;
  serve::SampleResponse refused;
  refused.request_id = 78;
  refused.status = static_cast<std::uint32_t>(serve::SampleStatus::kBadRequest);
  refused.error = "count out of range";
  const auto ok_bytes = ok.serialize();
  const auto refused_bytes = refused.serialize();
  EXPECT_EQ(pin(ok_bytes), (Pin{80, 0xdf94dfb3cbefd928ull}));
  EXPECT_EQ(pin(refused_bytes), (Pin{74, 0x87dad33bdf1e65d5ull}));
  expect_reencodes<serve::SampleResponse>(ok_bytes);
  expect_reencodes<serve::SampleResponse>(refused_bytes);
}

TEST(GoldenBytes, Checkpoint) {
  core::Checkpoint checkpoint;
  checkpoint.config = core::TrainingConfig::tiny();
  checkpoint.config.loss_mode = core::LossMode::kMustangs;
  checkpoint.config.exchange_policy = evolve::ExchangePolicyKind::kLtfb;
  checkpoint.iteration = 9;
  checkpoint.centers = {make_genome(0), make_genome(1)};
  checkpoint.mixtures = {{0.5, 0.5}, {0.75, 0.125, 0.125}};
  const auto bytes = checkpoint.serialize();
  EXPECT_EQ(pin(bytes), (Pin{760, 0x809318ea736202faull}));
  expect_reencodes<core::Checkpoint>(bytes);
}

TEST(GoldenBytes, RankCheckpoint) {
  core::RankCheckpoint checkpoint;
  checkpoint.epoch = 5;
  checkpoint.trainer_state = {1, 2, 3, 4, 5, 250, 251};
  checkpoint.gathered = {std::make_shared<const evolve::CellGenome>(make_genome(0)),
                         nullptr,
                         std::make_shared<const evolve::CellGenome>(make_genome(2))};
  checkpoint.clock_s = 3.75;
  checkpoint.jitter_rng.s[0] = 0x0102030405060708ull;
  checkpoint.jitter_rng.s[1] = 11;
  checkpoint.jitter_rng.s[2] = 0xfedcba9876543210ull;
  checkpoint.jitter_rng.s[3] = 13;
  checkpoint.jitter_rng.cached_normal = -0.375;
  checkpoint.jitter_rng.has_cached_normal = true;
  const auto bytes = checkpoint.serialize();
  EXPECT_EQ(pin(bytes), (Pin{608, 0x0f63c0368966bf21ull}));
  expect_reencodes<core::RankCheckpoint>(bytes);
}

TEST(GoldenBytes, TinyCellTrainingStateAfterOneEpoch) {
  const testsupport::KindGuard scalar(tensor::KernelKind::kScalar);
  core::TrainingConfig config = core::TrainingConfig::tiny();
  config.grid_rows = config.grid_cols = 3;
  const data::Dataset dataset = core::make_matched_dataset(config, 120, 5);
  const evolve::Grid grid(3, 3);
  const core::ExecContext context;
  const auto make_cell = [&](int id) {
    common::Rng master(config.seed);
    return core::CellTrainer(config, grid, id, dataset, master.fork(id), context);
  };
  core::CellTrainer cell = make_cell(4);
  std::vector<evolve::SharedGenome> inbox(grid.size());
  for (const int neighbor : {1, 3}) {
    inbox[static_cast<std::size_t>(neighbor)] =
        std::make_shared<const evolve::CellGenome>(make_cell(neighbor).center_genome());
  }
  cell.step(inbox);
  const auto bytes = cell.serialize_training_state();
  EXPECT_EQ(pin(bytes), (Pin{57717, 0x45dcdb9c545a28daull}));

  core::CellTrainer restored = make_cell(4);
  restored.restore_training_state(bytes);
  EXPECT_EQ(restored.serialize_training_state(), bytes);
}

}  // namespace
}  // namespace cellgan
