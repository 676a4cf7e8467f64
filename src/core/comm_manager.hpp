// The comm-manager class — the second of the paper's two new classes
// (Section III.C): an abstract wrapper over every inter-process communication
// the trainer needs, "defined in an abstract way without defining explicitly
// how the communications are implemented". The grid class does not depend on
// it, and trainers only see this interface, so the message transport is
// swappable (the paper's motivation for decoupling).
//
// Two implementations:
//  * MpiCommManager  — allgather over the LOCAL communicator (active slaves),
//    exactly the paper's distributed exchange path.
//  * LocalCommManager — in-process store for the single-core baseline; hands
//    each cell only its neighbors' genomes and charges the calibrated
//    in-process copy cost.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "core/exec_context.hpp"
#include "evolve/grid.hpp"
#include "minimpi/comm.hpp"

namespace cellgan::core {

class CommManager {
 public:
  virtual ~CommManager() = default;

  /// Grid cell this manager serves.
  virtual int cell_id() const = 0;

  /// Publish this cell's serialized center genome and collect the latest
  /// genomes of other cells. Returns payloads indexed by cell id; entries
  /// this transport does not deliver (e.g. non-neighbors in the local
  /// implementation) are empty. Blocking in the MPI implementation
  /// (collective over LOCAL).
  virtual std::vector<std::vector<std::uint8_t>> exchange(
      std::span<const std::uint8_t> genome_bytes) = 0;
};

/// Shared in-process genome store for LocalCommManager instances.
///
/// Double-buffered and epoch-staged so the in-process trainers can step all
/// cells of an epoch concurrently and still stay deterministic: publish()
/// stages a genome for the NEXT epoch, latest() reads the newest genome
/// published in any EARLIER epoch, and flip() is the epoch barrier that makes
/// the staged genomes visible. Every cell therefore sees exactly its
/// neighbors' previous-epoch genomes regardless of thread count or cell
/// order — the cellular "newest-available" rule with a well-defined "now".
/// All three operations are mutex-guarded (the store is hammered from every
/// worker thread of the parallel trainer).
class GenomeStore {
 public:
  explicit GenomeStore(std::size_t cells) : slots_(cells) {}
  std::size_t size() const { return slots_.size(); }

  /// Epoch counter, advanced by flip(). Publishes stage into this epoch;
  /// reads see strictly older epochs.
  std::uint64_t epoch() const;

  /// Stage `bytes` as `cell`'s genome for the next epoch. Re-publishing
  /// within one epoch overwrites the staged value.
  void publish(int cell, std::vector<std::uint8_t> bytes);

  /// Newest genome of `cell` published before the current epoch (empty if
  /// none yet). Returns a copy so the caller owns its bytes outside the lock.
  std::vector<std::uint8_t> latest(int cell) const;

  /// Epoch barrier: everything published during the finished epoch becomes
  /// visible to subsequent latest() calls.
  void flip();

 private:
  /// The two most recent published versions of one cell's genome: writers
  /// overwrite the older entry (or re-stamp the current epoch's), readers
  /// take the newest entry from a previous epoch — so a publish never
  /// clobbers the version the current epoch is still reading.
  struct Entry {
    std::vector<std::uint8_t> bytes;
    std::uint64_t epoch = 0;
    bool valid = false;
  };
  /// Cache-line aligned so adjacent cells' slots never share a line: every
  /// worker thread of the parallel trainer re-stamps its own cell's entry
  /// headers (epoch/valid words) each epoch, and without the padding those
  /// word-granularity writes would ping-pong lines between lanes even though
  /// the cells are logically independent.
  struct alignas(common::kCacheLineBytes) Slot : std::array<Entry, 2> {};

  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::vector<Slot> slots_;
};

/// Single-process transport: reads neighbor genomes straight from the store.
/// collect()/publish() split the exchange so the trainer loop can gather the
/// epoch's inbox before stepping and stage the result afterwards; exchange()
/// keeps the one-call CommManager interface (publish, then collect).
class LocalCommManager final : public CommManager {
 public:
  LocalCommManager(GenomeStore& store, const evolve::Grid& grid, int cell,
                   const ExecContext& context);

  int cell_id() const override { return cell_; }
  std::vector<std::vector<std::uint8_t>> exchange(
      std::span<const std::uint8_t> genome_bytes) override;

  /// Read the neighbors' visible (previous-epoch) genomes, charging the
  /// calibrated in-process copy cost to the cell's context.
  std::vector<std::vector<std::uint8_t>> collect();

  /// Same, but copy exactly `sources` (the exchange policy's per-epoch list,
  /// e.g. neighbors plus an LTFB tournament partner). With the cellular
  /// policy the list equals the grid neighbors, so bytes and charged cost are
  /// identical to collect().
  std::vector<std::vector<std::uint8_t>> collect(std::span<const int> sources);

  /// Stage this cell's serialized genome for the next epoch.
  void publish(std::span<const std::uint8_t> genome_bytes);

 private:
  GenomeStore& store_;
  const evolve::Grid& grid_;
  int cell_;
  const ExecContext& context_;
};

/// MPI transport: local rank within the slaves-only communicator == cell id.
/// Lockstep semantics — the per-epoch allgather synchronizes all slaves
/// (the paper's implementation).
class MpiCommManager final : public CommManager {
 public:
  explicit MpiCommManager(minimpi::Comm& local_comm);

  int cell_id() const override { return local_comm_.rank(); }
  std::vector<std::vector<std::uint8_t>> exchange(
      std::span<const std::uint8_t> genome_bytes) override;

 private:
  minimpi::Comm& local_comm_;
};

/// Asynchronous MPI transport: publishes the genome to grid neighbors with
/// point-to-point sends and polls (never blocks on) incoming genomes,
/// keeping the newest per source — "newest available" cellular semantics.
/// A slave is never delayed by a straggling neighbor; it simply trains
/// against the freshest genome it has. Also moves (s-1) instead of (n-1)
/// genomes per epoch.
class AsyncMpiCommManager final : public CommManager {
 public:
  /// `grid` defines whom to publish to; must outlive the manager.
  AsyncMpiCommManager(minimpi::Comm& local_comm, const evolve::Grid& grid);

  int cell_id() const override { return local_comm_.rank(); }
  std::vector<std::vector<std::uint8_t>> exchange(
      std::span<const std::uint8_t> genome_bytes) override;

 private:
  minimpi::Comm& local_comm_;
  const evolve::Grid& grid_;
  /// Latest genome seen from each cell (empty until first arrival).
  std::vector<std::vector<std::uint8_t>> latest_;
};

}  // namespace cellgan::core
