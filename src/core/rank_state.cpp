#include "core/rank_state.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "core/checkpoint.hpp"  // write_file_atomic, CheckpointWriteError

namespace cellgan::core {

namespace {
constexpr std::uint32_t kRankMagic = 0xCE11'4ACB;
constexpr std::uint32_t kRankVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

std::optional<RankCheckpoint> load_slot(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return std::nullopt;
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  if (size <= 0) return std::nullopt;
  std::fseek(f.get(), 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  if (std::fread(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
    return std::nullopt;
  }
  if (bytes.size() < 12) return std::nullopt;
  std::uint32_t head, version, tail;
  std::memcpy(&head, bytes.data(), 4);
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&tail, bytes.data() + bytes.size() - 4, 4);
  if (head != kRankMagic || tail != kRankMagic || version != kRankVersion) {
    common::log_warn() << "rank checkpoint " << path << " is corrupt or foreign";
    return std::nullopt;
  }
  return RankCheckpoint::deserialize(bytes);
}
}  // namespace

std::vector<std::uint8_t> RankCheckpoint::serialize() const {
  common::ByteWriter w;
  w.write(kRankMagic);
  w.write(kRankVersion);
  w.write(epoch);
  w.write_vector(trainer_state);
  w.write<std::uint64_t>(gathered.size());
  for (const auto& genome : gathered) {
    w.write_vector(genome ? genome->serialize() : std::vector<std::uint8_t>{});
  }
  w.write(clock_s);
  for (const std::uint64_t word : jitter_rng.s) w.write(word);
  w.write(jitter_rng.cached_normal);
  w.write<std::uint8_t>(jitter_rng.has_cached_normal ? 1 : 0);
  w.write(kRankMagic);  // trailing magic doubles as a truncation check
  return w.take();
}

RankCheckpoint RankCheckpoint::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  CG_EXPECT(r.read<std::uint32_t>() == kRankMagic);
  CG_EXPECT(r.read<std::uint32_t>() == kRankVersion);
  RankCheckpoint out;
  out.epoch = r.read<std::uint32_t>();
  out.trainer_state = r.read_vector<std::uint8_t>();
  const auto entries = r.read<std::uint64_t>();
  out.gathered.reserve(entries);
  for (std::uint64_t i = 0; i < entries; ++i) {
    const auto bytes = r.read_vector<std::uint8_t>();
    out.gathered.push_back(bytes.empty() ? nullptr
                                         : std::make_shared<const evolve::CellGenome>(
                                               evolve::CellGenome::deserialize(bytes)));
  }
  out.clock_s = r.read<double>();
  for (auto& word : out.jitter_rng.s) word = r.read<std::uint64_t>();
  out.jitter_rng.cached_normal = r.read<double>();
  out.jitter_rng.has_cached_normal = r.read<std::uint8_t>() != 0;
  CG_EXPECT(r.read<std::uint32_t>() == kRankMagic);
  CG_ENSURE(r.exhausted());
  return out;
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
