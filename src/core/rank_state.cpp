#include "core/rank_state.hpp"

#include "common/serialize.hpp"
#include "core/checkpoint.hpp"  // read_checkpoint_file, write_file_atomic

namespace cellgan::core {

namespace {
constexpr std::uint32_t kRankMagic = 0xCE11'4ACB;
constexpr std::uint32_t kRankVersion = 1;

constexpr auto kRankCheckpointFields = [](auto& v, auto& checkpoint) {
  v.constant(kRankMagic);
  v.constant(kRankVersion);
  v(checkpoint.epoch);
  v(checkpoint.trainer_state);
  v.blob(checkpoint.gathered);
  v(checkpoint.clock_s);
  v(checkpoint.jitter_rng.s);
  v(checkpoint.jitter_rng.cached_normal);
  v(checkpoint.jitter_rng.has_cached_normal);
  v.constant(kRankMagic);  // trailing magic doubles as a truncation check
};

std::optional<RankCheckpoint> load_slot(const std::string& path) {
  const auto bytes = read_checkpoint_file(path, "rank checkpoint", kRankMagic, kRankVersion);
  if (!bytes) return std::nullopt;
  return RankCheckpoint::deserialize(*bytes);
}
}  // namespace

std::vector<std::uint8_t> RankCheckpoint::serialize() const {
  return common::encode(*this, kRankCheckpointFields);
}

RankCheckpoint RankCheckpoint::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<RankCheckpoint>(bytes, kRankCheckpointFields);
}

std::string rank_checkpoint_path(const std::string& dir, int rank, int slot) {
  return dir + "/rank" + std::to_string(rank) + (slot == 0 ? ".a.rck" : ".b.rck");
}

void save_rank_checkpoint(const std::string& dir, int rank,
                          const RankCheckpoint& checkpoint) {
  const std::string path =
      rank_checkpoint_path(dir, rank, static_cast<int>(checkpoint.epoch % 2));
  std::string error;
  if (!write_file_atomic(path, checkpoint.serialize(), &error)) {
    throw CheckpointWriteError("rank checkpoint write failed: " + error);
  }
}

std::optional<RankCheckpoint> load_latest_rank_checkpoint(const std::string& dir,
                                                          int rank) {
  std::optional<RankCheckpoint> best;
  for (int slot = 0; slot < 2; ++slot) {
    auto candidate = load_slot(rank_checkpoint_path(dir, rank, slot));
    if (candidate && (!best || candidate->epoch > best->epoch)) {
      best = std::move(candidate);
    }
  }
  return best;
}

std::optional<RankCheckpoint> load_rank_checkpoint_at(const std::string& dir,
                                                      int rank,
                                                      std::uint32_t epoch) {
  auto candidate = load_slot(rank_checkpoint_path(dir, rank, static_cast<int>(epoch % 2)));
  if (candidate && candidate->epoch == epoch) return candidate;
  return std::nullopt;
}

}  // namespace cellgan::core
