#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "testsupport/temp_dir.hpp"

namespace cellgan::core {
namespace {

Checkpoint make_checkpoint() {
  Checkpoint cp;
  cp.config = TrainingConfig::tiny();
  cp.config.grid_rows = cp.config.grid_cols = 2;
  cp.config.loss_mode = LossMode::kMustangs;
  cp.iteration = 17;
  for (std::uint32_t cell = 0; cell < 4; ++cell) {
    evolve::CellGenome genome;
    genome.generator_params = {static_cast<float>(cell), 1.0f, 2.0f};
    genome.discriminator_params = {3.0f, static_cast<float>(cell)};
    genome.g_fitness = 0.1 * cell;
    genome.origin_cell = cell;
    genome.iteration = 17;
    cp.centers.push_back(std::move(genome));
    cp.mixtures.push_back({0.5, 0.25, 0.25});
  }
  return cp;
}

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path(const char* name) const { return tmp_.file(name).string(); }
  testsupport::TempDir tmp_{"cellgan_ckpt"};
};

TEST_F(CheckpointTest, SerializeRoundtrip) {
  const Checkpoint cp = make_checkpoint();
  const Checkpoint loaded = Checkpoint::deserialize(cp.serialize());
  EXPECT_EQ(loaded.config, cp.config);
  EXPECT_EQ(loaded.iteration, 17u);
  ASSERT_EQ(loaded.centers.size(), 4u);
  EXPECT_EQ(loaded.centers[2].generator_params, cp.centers[2].generator_params);
  EXPECT_EQ(loaded.mixtures, cp.mixtures);
}

TEST_F(CheckpointTest, FileRoundtrip) {
  const Checkpoint cp = make_checkpoint();
  ASSERT_TRUE(save_checkpoint(path("run.ckpt"), cp));
  const auto loaded = load_checkpoint(path("run.ckpt"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->config, cp.config);
  EXPECT_EQ(loaded->centers.size(), 4u);
  EXPECT_DOUBLE_EQ(loaded->centers[3].g_fitness, 0.3);
}

TEST_F(CheckpointTest, MissingFileReturnsNullopt) {
  EXPECT_FALSE(load_checkpoint(path("absent.ckpt")).has_value());
}

TEST_F(CheckpointTest, CorruptFileRejected) {
  std::ofstream out(path("junk.ckpt"), std::ios::binary);
  out << "this is not a checkpoint at all, definitely not";
  out.close();
  EXPECT_FALSE(load_checkpoint(path("junk.ckpt")).has_value());
}

TEST_F(CheckpointTest, TruncatedFileRejected) {
  const Checkpoint cp = make_checkpoint();
  ASSERT_TRUE(save_checkpoint(path("trunc.ckpt"), cp));
  const auto full_size = std::filesystem::file_size(path("trunc.ckpt"));
  std::filesystem::resize_file(path("trunc.ckpt"), full_size / 2);
  EXPECT_FALSE(load_checkpoint(path("trunc.ckpt")).has_value());
}

TEST_F(CheckpointTest, OtherFormatVersionRejected) {
  // A checkpoint of another format version (bytes 4-8, after the magic) is
  // refused, not decoded with this build's field list.
  ASSERT_TRUE(save_checkpoint(path("old.ckpt"), make_checkpoint()));
  std::fstream file(path("old.ckpt"), std::ios::binary | std::ios::in | std::ios::out);
  std::uint32_t version = 0;
  file.seekg(4);
  file.read(reinterpret_cast<char*>(&version), sizeof(version));
  ASSERT_TRUE(file.good());
  const auto write_version = [&](std::uint32_t value) {
    file.seekp(4);
    file.write(reinterpret_cast<const char*>(&value), sizeof(value));
    file.flush();
  };
  write_version(version - 1);
  EXPECT_FALSE(load_checkpoint(path("old.ckpt")).has_value());
  // The same bytes with this build's version load again.
  write_version(version);
  EXPECT_TRUE(load_checkpoint(path("old.ckpt")).has_value());
}

TEST_F(CheckpointTest, OverwriteIsAtomicRename) {
  const Checkpoint first = make_checkpoint();
  ASSERT_TRUE(save_checkpoint(path("same.ckpt"), first));
  Checkpoint second = make_checkpoint();
  second.iteration = 99;
  ASSERT_TRUE(save_checkpoint(path("same.ckpt"), second));
  const auto loaded = load_checkpoint(path("same.ckpt"));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->iteration, 99u);
  EXPECT_FALSE(std::filesystem::exists(path("same.ckpt.tmp")));
}

TEST_F(CheckpointTest, UnwritablePathFails) {
  EXPECT_FALSE(save_checkpoint("/nonexistent_dir_xyz/run.ckpt", make_checkpoint()));
}

TEST_F(CheckpointTest, EmptyCheckpointRoundtrips) {
  Checkpoint cp;
  const Checkpoint loaded = Checkpoint::deserialize(cp.serialize());
  EXPECT_TRUE(loaded.centers.empty());
  EXPECT_TRUE(loaded.mixtures.empty());
}

}  // namespace
}  // namespace cellgan::core
