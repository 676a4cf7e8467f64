// The comm-manager class — the second of the paper's two new classes
// (Section III.C): an abstract wrapper over every inter-process communication
// the trainer needs, "defined in an abstract way without defining explicitly
// how the communications are implemented". The grid class does not depend on
// it, and trainers only see this interface, so the message transport is
// swappable (the paper's motivation for decoupling).
//
// Every implementation hands out genomes as SharedGenome pointers, indexed by
// cell id:
//  * MpiCommManager  — allgather over the LOCAL communicator (active slaves),
//    exactly the paper's distributed exchange path and its lockstep, with
//    each serialized genome sent once, in one shared buffer, to the cells
//    that read it; each payload the cell reads is decoded once, on receipt.
//  * AsyncMpiCommManager — point-to-point sends to the neighbors, newest
//    arrival per source wins.
//  * LocalCommManager — in-process store for the single-core baseline; hands
//    each cell only its sources' genomes, by pointer, and charges the
//    calibrated in-process copy cost on their byte_size().
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/aligned.hpp"
#include "core/exec_context.hpp"
#include "evolve/genome.hpp"
#include "evolve/grid.hpp"
#include "minimpi/comm.hpp"

namespace cellgan::core {

class CommManager {
 public:
  virtual ~CommManager() = default;

  /// Grid cell this manager serves.
  virtual int cell_id() const = 0;

  /// Publish this cell's center genome and collect the latest genomes of
  /// other cells, indexed by cell id. `sources` names the cells the caller
  /// will read (the exchange policy's list) and `readers` the cells that
  /// read the caller's genome (CellTrainer::exchange_readers); entries this
  /// transport does not deliver are null. Blocking in the MPI implementation
  /// (collective over LOCAL).
  virtual std::vector<evolve::SharedGenome> exchange(
      const evolve::SharedGenome& genome, std::span<const int> sources,
      std::span<const int> readers) = 0;
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

  /// Stage `genome` (not null) as `cell`'s genome for the next epoch.
  /// Re-publishing within one epoch overwrites the staged value.
  void publish(int cell, evolve::SharedGenome genome);

  /// Newest genome of `cell` published before the current epoch (null if
  /// none yet). The lock covers only the pointer copy.
  evolve::SharedGenome latest(int cell) const;

  /// Epoch barrier: everything published during the finished epoch becomes
  /// visible to subsequent latest() calls.
  void flip();

 private:
  /// One cell's genomes. Cache-line aligned so adjacent cells' slots never
  /// share a line: every worker thread of the parallel trainer writes its own
  /// cell's slot each epoch, and without the padding those writes would
  /// ping-pong lines between lanes even though the cells are independent.
  struct alignas(common::kCacheLineBytes) Slot {
    evolve::SharedGenome visible;  ///< newest published before this epoch
    evolve::SharedGenome staged;   ///< published during this epoch
  };

  mutable std::mutex mutex_;
  std::uint64_t epoch_ = 0;
  std::vector<Slot> slots_;
};

/// Single-process transport: hands out the store's genome pointers.
/// collect()/publish() split the exchange so the trainer loop can gather the
/// epoch's inbox before stepping and stage the result afterwards; exchange()
/// keeps the one-call CommManager interface (publish, then collect).
class LocalCommManager final : public CommManager {
 public:
  LocalCommManager(GenomeStore& store, const evolve::Grid& grid, int cell,
                   const ExecContext& context);

  int cell_id() const override { return cell_; }
  /// Readers need no list here: the store shares one pointer with all.
  std::vector<evolve::SharedGenome> exchange(const evolve::SharedGenome& genome,
                                             std::span<const int> sources,
                                             std::span<const int> readers) override;

  /// Read the neighbors' visible (previous-epoch) genomes, charging the
  /// calibrated in-process copy cost to the cell's context.
  std::vector<evolve::SharedGenome> collect();

  /// Same, but read exactly `sources` (the exchange policy's per-epoch list,
  /// e.g. neighbors plus an LTFB tournament partner). With the cellular
  /// policy the list equals the grid neighbors, so bytes and charged cost are
  /// identical to collect(). The cost model still charges a copy of each
  /// genome's byte_size(), the exchange a transport would make.
  std::vector<evolve::SharedGenome> collect(std::span<const int> sources);

  /// Stage this cell's genome for the next epoch.
  void publish(evolve::SharedGenome genome);

 private:
  GenomeStore& store_;
  const evolve::Grid& grid_;
  int cell_;
  const ExecContext& context_;
};

/// MPI transport: local rank within the slaves-only communicator == cell id.
/// Lockstep semantics — the per-epoch allgather synchronizes all slaves
/// (the paper's implementation). The serialized genome moves into the
/// collective and goes only to `readers`; every other slave gets an empty
/// frame in its place, so the lockstep, the virtual clocks and peer-death
/// detection are the full allgather's.
class MpiCommManager final : public CommManager {
 public:
  explicit MpiCommManager(minimpi::Comm& local_comm);

  int cell_id() const override { return local_comm_.rank(); }
  std::vector<evolve::SharedGenome> exchange(const evolve::SharedGenome& genome,
                                             std::span<const int> sources,
                                             std::span<const int> readers) override;

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
  /// Hands out the neighbors' newest genomes; `sources` and `readers` are
  /// not consulted (this transport runs only the cellular policy, whose
  /// sources are the neighbors and whose readers are the cells it
  /// influences).
  std::vector<evolve::SharedGenome> exchange(const evolve::SharedGenome& genome,
                                             std::span<const int> sources,
                                             std::span<const int> readers) override;

 private:
  minimpi::Comm& local_comm_;
  const evolve::Grid& grid_;
  /// Latest genome seen from each cell (null until first arrival), decoded
  /// once when it arrives.
  std::vector<evolve::SharedGenome> latest_;
};

}  // namespace cellgan::core
