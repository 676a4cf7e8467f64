// ExchangePolicy — the seam that owns HOW genomes and discriminators move
// between grid cells each epoch.
//
// The paper's cellular algorithm is one member of a family of population-
// based GAN trainers. This seam extracts its per-epoch migration step
// (install gathered neighbor genomes, adopt a strictly fitter center) into a
// pluggable policy so the alternatives from the related work drop in without
// forking the trainer:
//
//   cellular — the five-cell toroidal neighborhood exchange (Section II.B),
//              bit-identical to the pre-seam CellTrainer::update_genomes;
//   ltfb     — LBANN-style Livermore Tournament Fast Batch: on a fixed
//              cadence, a deterministic seeded pairing matches cells in
//              pairs, fitnesses are compared, and the winner's genome
//              replaces the loser's (ties break toward the lower cell id);
//   gap      — Generative Adversarial Parallelization: discriminators rotate
//              among cells on a fixed cadence while generators stay put.
//
// Every policy is a pure function of (run seed, cell, epoch) and consumes
// NOTHING from the per-cell RNG streams, so any policy replays bit-
// identically on all four backends — the transport (allgather / local
// store) only has to deliver a superset of ExchangePolicy::sources().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.hpp"
#include "evolve/genome.hpp"
#include "evolve/grid.hpp"

namespace cellgan::evolve {

/// Values are checkpoint bytes (TrainingConfig serialization); 0 is unused.
enum class ExchangePolicyKind : std::uint32_t {
  kCellular = 1,
  kLtfb = 2,
  kGap = 3,
};

const char* to_string(ExchangePolicyKind kind);

/// Parse a registered policy name ("cellular" | "ltfb" | "gap"); nullopt for
/// anything else.
std::optional<ExchangePolicyKind> exchange_policy_from_string(std::string_view name);

/// The registered policy names, for CLI validation messages and
/// `cellgan_run --list-exchanges`.
std::vector<std::string> exchange_policy_names();

/// Sub-stream id the LTFB pairing RNG forks off the run seed. Cells fork
/// their private streams at ids 0..cells-1, so this keeps the pairing stream
/// disjoint from every training stream.
inline constexpr std::uint64_t kLtfbPairingStream = 0x17FB;

/// LTFB pairing for tournament round `round`: a pure function of
/// (seed, cells, round) — every rank computes the identical table with zero
/// communication. Returns partner[cell] (-1 for the unpaired odd cell).
std::vector<int> ltfb_pairing(std::uint64_t seed, int cells, std::uint64_t round);

/// What one policy application did to its hosting cell — the payload of the
/// `"event":"exchange"` telemetry.
struct ExchangeOutcome {
  std::int32_t partner = -1;       ///< counterpart cell id (-1: none)
  bool g_adopted = false;          ///< center generator was replaced
  bool d_adopted = false;          ///< center discriminator was replaced
  double g_fitness_before = 0.0;
  double g_fitness_after = 0.0;
  double d_fitness_before = 0.0;
  double d_fitness_after = 0.0;
  std::uint64_t wins = 0;          ///< cumulative tournament wins (ltfb)
  double bytes_in = 0.0;           ///< genome bytes received (byte_size())
  bool exchanged() const { return g_adopted || d_adopted; }
};

/// The surface a policy sees (and mutates) on its hosting cell trainer.
/// Keeps the policy free of the trainer's data/optimizer machinery: it can
/// read fitnesses, maintain the neighbor subpopulation, and adopt a genome
/// per side (parameters + learning rate + bookkeeping fitness, exactly the
/// cellular selection semantics).
class ExchangeHost {
 public:
  virtual ~ExchangeHost() = default;

  virtual int cell() const = 0;
  virtual const Grid& grid() const = 0;
  virtual double g_fitness() const = 0;
  virtual double d_fitness() const = 0;

  /// Neighbor subpopulation slots (slot i holds grid.neighbors_of(cell)[i]).
  virtual std::size_t subpop_slots() const = 0;
  virtual const CellGenome* subpop_genome(std::size_t slot) const = 0;
  virtual void install_subpop(std::size_t slot, SharedGenome genome) = 0;

  /// Adopt one side of `genome` into the center: parameters, learning rate
  /// and fitness bookkeeping.
  virtual void adopt_generator(const CellGenome& genome) = 0;
  virtual void adopt_discriminator(const CellGenome& genome) = 0;
};

class ExchangePolicy {
 public:
  virtual ~ExchangePolicy() = default;

  virtual ExchangePolicyKind kind() const = 0;

  /// Cells whose genomes this policy needs delivered to `cell` for `epoch`,
  /// in installation order. The local store hands out exactly this list and
  /// the allgather decodes exactly it, so for the cellular policy the gather
  /// bytes — and the charged gather cost — are identical to the pre-seam
  /// neighbor loop.
  virtual std::vector<int> sources(const Grid& grid, int cell,
                                   std::uint32_t epoch) const = 0;

  /// Apply the policy for `epoch`. `gathered[cell]` holds that cell's
  /// genome (missing/null entries are skipped; epoch 0 passes all-null).
  /// Returns what happened, for telemetry and cost charging.
  virtual ExchangeOutcome apply(ExchangeHost& host,
                                std::span<const SharedGenome> gathered,
                                std::uint32_t epoch) = 0;

  /// Policy-private state (LTFB win counters) for rank checkpoints; the
  /// default is stateless. Hand-written, not a field list: each policy
  /// appends its own state to the trainer's.
  virtual void serialize_state(common::ByteWriter& writer) const;
  virtual void restore_state(common::ByteReader& reader);
};

/// Construct a policy. `exchange_every` is the tournament/rotation cadence in
/// epochs (>= 1, ignored by cellular).
std::unique_ptr<ExchangePolicy> make_exchange_policy(ExchangePolicyKind kind,
                                                     std::uint64_t seed,
                                                     std::uint32_t exchange_every);

}  // namespace cellgan::evolve
