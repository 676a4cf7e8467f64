// On-disk checkpoints of a training run.
//
// The paper's executions reserve 40 GB of temporary storage per job
// (Table I, execution settings) for intermediate state on the shared
// cluster; this module provides the corresponding capability: a versioned
// binary snapshot of the whole grid (per-cell center genomes + mixture
// weights + iteration counter + the configuration that produced them), so
// interrupted runs can resume and final models can be shipped.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/protocol.hpp"
#include "evolve/genome.hpp"
#include "evolve/mixture.hpp"

namespace cellgan::core {

/// A checkpoint file could not be written (open, write or atomic-rename
/// failure). Recovery correctness depends on checkpoints actually existing,
/// so writers on that path use save_checkpoint_strict and let this propagate
/// instead of downgrading the failure to a log line.
class CheckpointWriteError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A checkpoint written under one exchange policy was asked to resume under
/// another. Policies shape the whole population trajectory (which genomes
/// moved where), so silently continuing under a different policy would
/// produce a run that no policy could have generated — resuming refuses
/// instead.
class CheckpointPolicyMismatchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Checkpoint {
  TrainingConfig config;
  std::uint32_t iteration = 0;
  std::vector<evolve::CellGenome> centers;    ///< indexed by cell id
  std::vector<std::vector<double>> mixtures;  ///< per-cell mixture weights

  std::vector<std::uint8_t> serialize() const;
  static Checkpoint deserialize(std::span<const std::uint8_t> bytes);
};

/// Write a checkpoint file (atomic: temp file + rename). False on I/O
/// error; the temp file is removed on every failure path, never leaked.
bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Like save_checkpoint, but a failure throws CheckpointWriteError naming
/// the path and cause. For writers whose durability other ranks depend on.
void save_checkpoint_strict(const std::string& path, const Checkpoint& checkpoint);

/// The atomic temp-file + rename + cleanup step shared by every checkpoint
/// writer (grid checkpoints here, per-rank training state in trainer_state).
/// Returns false with `error` set on failure.
bool write_file_atomic(const std::string& path,
                       const std::vector<std::uint8_t>& bytes, std::string* error);

/// The bytes of the file at `path` if they carry the envelope every
/// checkpoint kind shares: leading `magic`, `version`, trailing `magic`.
/// nullopt for a missing or empty file; nullopt and a warning naming `kind`
/// for a corrupt or foreign file, or one of another version.
std::optional<std::vector<std::uint8_t>> read_checkpoint_file(const std::string& path,
                                                             const char* kind,
                                                             std::uint32_t magic,
                                                             std::uint32_t version);

/// Read a checkpoint file; nullopt on missing/corrupt file (corruption is
/// detected by the length-prefixed format and a trailing magic).
std::optional<Checkpoint> load_checkpoint(const std::string& path);

/// Build a checkpoint from the results the master collected in a
/// distributed run (the reduction's output), so distributed runs can be
/// persisted and resumed by either trainer.
Checkpoint checkpoint_from_results(const TrainingConfig& config,
                                   const std::vector<protocol::SlaveResult>& results);

}  // namespace cellgan::core
