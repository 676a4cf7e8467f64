#include "core/checkpoint.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace cellgan::core {

namespace {
constexpr std::uint32_t kMagic = 0xCE11'6A17;  // "cell gan"
// v2: TrainingConfig gained genome_record_every (observer record cadence).
// v3: TrainingConfig gained data_plane (legacy loader vs shared SampleStore).
// v4: TrainingConfig gained exchange_policy/exchange_every (population
//     exchange seam), conditional and weight_clip (wasserstein + class-
//     conditional training).
// v5: data_plane and exchange_policy are always concrete (the environment-
//     resolved `auto` value 0 is gone).
// v6: TrainingConfig lost population_per_cell, which no trainer read (every
//     cell trains one center), so the config bytes are 4 shorter.
constexpr std::uint32_t kVersion = 6;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

constexpr auto kCheckpointFields = [](auto& v, auto& checkpoint) {
  v.constant(kMagic);
  v.constant(kVersion);
  v.blob(checkpoint.config);
  v(checkpoint.iteration);
  v.blob(checkpoint.centers);
  v(checkpoint.mixtures);
  v.constant(kMagic);  // trailing magic doubles as a truncation check
};
}  // namespace

std::vector<std::uint8_t> Checkpoint::serialize() const {
  return common::encode(*this, kCheckpointFields);
}

Checkpoint Checkpoint::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<Checkpoint>(bytes, kCheckpointFields);
}

bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes, std::string* error) {
  const std::string tmp = path + ".tmp";
  const auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    // Never leak the temp file: a stale .tmp would shadow the next attempt
    // and waste the disk budget checkpoints exist to honor.
    std::error_code ignore;
    std::filesystem::remove(tmp, ignore);
    return false;
  };
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return fail("cannot open '" + tmp + "': " + std::strerror(errno));
    if (std::fwrite(bytes.data(), 1, bytes.size(), f.get()) != bytes.size()) {
      return fail("short write to '" + tmp + "': " + std::strerror(errno));
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("cannot rename '" + tmp + "' to '" + path + "': " + ec.message());
  return true;
}

bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  std::string error;
  if (!write_file_atomic(path, checkpoint.serialize(), &error)) {
    common::log_error() << "checkpoint write failed: " << error;
    return false;
  }
  return true;
}

void save_checkpoint_strict(const std::string& path, const Checkpoint& checkpoint) {
  std::string error;
  if (!write_file_atomic(path, checkpoint.serialize(), &error)) {
    throw CheckpointWriteError("checkpoint write failed: " + error);
  }
}

Checkpoint checkpoint_from_results(
    const TrainingConfig& config,
    const std::vector<protocol::SlaveResult>& results) {
  Checkpoint out;
  out.config = config;
  out.centers.reserve(results.size());
  out.mixtures.reserve(results.size());
  for (const auto& result : results) {
    out.iteration = std::max(out.iteration, result.center.iteration);
    out.centers.push_back(result.center);
    out.mixtures.push_back(result.mixture_weights);
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> read_checkpoint_file(const std::string& path,
                                                             const char* kind,
                                                             std::uint32_t magic,
                                                             std::uint32_t version) {
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
  // Cheap integrity checks before handing to the aborting deserializer.
  std::uint32_t head = 0, file_version = 0, tail = 0;
  if (bytes.size() >= 3 * sizeof(std::uint32_t)) {
    std::memcpy(&head, bytes.data(), 4);
    std::memcpy(&file_version, bytes.data() + 4, 4);
    std::memcpy(&tail, bytes.data() + bytes.size() - 4, 4);
  }
  if (head != magic || tail != magic) {
    common::log_warn() << kind << " " << path << " is corrupt or foreign";
    return std::nullopt;
  }
  if (file_version != version) {
    common::log_warn() << kind << " " << path << " has format version "
                       << file_version << " (this build reads " << version
                       << "); re-train or re-save it";
    return std::nullopt;
  }
  return bytes;
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  const auto bytes = read_checkpoint_file(path, "checkpoint", kMagic, kVersion);
  if (!bytes) return std::nullopt;
  return Checkpoint::deserialize(*bytes);
}

}  // namespace cellgan::core
