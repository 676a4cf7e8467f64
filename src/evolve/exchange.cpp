#include "evolve/exchange.hpp"

#include <algorithm>
#include <numeric>

#include "common/expect.hpp"
#include "common/rng.hpp"

namespace cellgan::evolve {

const char* to_string(ExchangePolicyKind kind) {
  switch (kind) {
    case ExchangePolicyKind::kCellular: return "cellular";
    case ExchangePolicyKind::kLtfb: return "ltfb";
    case ExchangePolicyKind::kGap: return "gap";
  }
  return "unknown";
}

std::optional<ExchangePolicyKind> exchange_policy_from_string(std::string_view name) {
  if (name == "cellular") return ExchangePolicyKind::kCellular;
  if (name == "ltfb") return ExchangePolicyKind::kLtfb;
  if (name == "gap") return ExchangePolicyKind::kGap;
  return std::nullopt;
}

std::vector<std::string> exchange_policy_names() {
  return {"cellular", "ltfb", "gap"};
}

std::vector<int> ltfb_pairing(std::uint64_t seed, int cells, std::uint64_t round) {
  CG_EXPECT(cells > 0);
  // A pure function of (seed, round): fork a throwaway stream instead of
  // advancing any live generator, so every rank — and every replay — computes
  // the identical table at any point in the run.
  common::Rng rng = common::Rng(seed).fork(kLtfbPairingStream).fork(round);
  std::vector<std::uint32_t> order(static_cast<std::size_t>(cells));
  std::iota(order.begin(), order.end(), 0u);
  rng.shuffle(order);
  std::vector<int> partner(static_cast<std::size_t>(cells), -1);
  for (std::size_t i = 0; i + 1 < order.size(); i += 2) {
    partner[order[i]] = static_cast<int>(order[i + 1]);
    partner[order[i + 1]] = static_cast<int>(order[i]);
  }
  return partner;
}

void ExchangePolicy::serialize_state(common::ByteWriter&) const {}
void ExchangePolicy::restore_state(common::ByteReader&) {}

namespace {

/// Install freshly gathered neighbor genomes into the subpopulation — the
/// first half of the pre-seam CellTrainer::update_genomes, shared by every
/// policy so tournament selection and the neighborhood mixture keep working
/// under ltfb/gap. Returns the installed byte count (the gather payload the
/// cost model charges for).
double install_neighbor_genomes(ExchangeHost& host,
                                std::span<const SharedGenome> gathered) {
  double bytes_in = 0.0;
  const auto& neighbors = host.grid().neighbors_of(host.cell());
  CG_EXPECT(neighbors.size() == host.subpop_slots());
  for (std::size_t slot = 0; slot < neighbors.size(); ++slot) {
    const int neighbor = neighbors[slot];
    if (neighbor >= static_cast<int>(gathered.size())) continue;
    const SharedGenome& genome = gathered[neighbor];
    if (genome == nullptr) continue;
    bytes_in += static_cast<double>(genome->byte_size());
    host.install_subpop(slot, genome);
  }
  return bytes_in;
}

/// Cell `source`'s gathered genome, null when absent.
const CellGenome* gathered_genome(std::span<const SharedGenome> gathered, int source) {
  if (source < 0 || source >= static_cast<int>(gathered.size())) return nullptr;
  return gathered[source].get();
}

bool is_neighbor_of(const Grid& grid, int cell, int other) {
  const auto& neighbors = grid.neighbors_of(cell);
  return std::find(neighbors.begin(), neighbors.end(), other) != neighbors.end();
}

// --- cellular ---------------------------------------------------------------

/// The paper's Section II.B migration: install gathered neighbors, then a
/// strictly fitter neighbor center replaces the local center, per side. The
/// body replicates the pre-seam CellTrainer::update_genomes exactly (same
/// scan order, same strict comparisons), so existing runs are bit-identical.
class CellularPolicy final : public ExchangePolicy {
 public:
  ExchangePolicyKind kind() const override { return ExchangePolicyKind::kCellular; }

  std::vector<int> sources(const Grid& grid, int cell, std::uint32_t) const override {
    return grid.neighbors_of(cell);
  }

  ExchangeOutcome apply(ExchangeHost& host,
                        std::span<const SharedGenome> gathered,
                        std::uint32_t) override {
    ExchangeOutcome outcome;
    outcome.g_fitness_before = host.g_fitness();
    outcome.d_fitness_before = host.d_fitness();
    outcome.bytes_in = install_neighbor_genomes(host, gathered);

    // Selection: a strictly fitter neighbor center replaces the local center
    // (parameters, learning rate and bookkeeping fitness), per side.
    const CellGenome* best_g = nullptr;
    const CellGenome* best_d = nullptr;
    for (std::size_t slot = 0; slot < host.subpop_slots(); ++slot) {
      const CellGenome* genome = host.subpop_genome(slot);
      if (genome == nullptr) continue;
      if (genome->g_fitness < host.g_fitness() &&
          (best_g == nullptr || genome->g_fitness < best_g->g_fitness)) {
        best_g = genome;
      }
      if (genome->d_fitness < host.d_fitness() &&
          (best_d == nullptr || genome->d_fitness < best_d->d_fitness)) {
        best_d = genome;
      }
    }
    if (best_g != nullptr) {
      host.adopt_generator(*best_g);
      outcome.g_adopted = true;
      outcome.partner = static_cast<std::int32_t>(best_g->origin_cell);
    }
    if (best_d != nullptr) {
      host.adopt_discriminator(*best_d);
      outcome.d_adopted = true;
      if (best_g == nullptr) {
        outcome.partner = static_cast<std::int32_t>(best_d->origin_cell);
      }
    }
    outcome.g_fitness_after = host.g_fitness();
    outcome.d_fitness_after = host.d_fitness();
    return outcome;
  }
};

// --- ltfb -------------------------------------------------------------------

/// LBANN-style tournament: on each cadence epoch a deterministic seeded
/// pairing matches the grid's cells in pairs; both partners compare their
/// exported generator fitnesses (losses, lower is better; ties break toward
/// the lower cell id) and the loser adopts the winner's whole genome. Between
/// tournaments the neighbor subpopulation keeps flowing, so in-epoch
/// tournament selection and the mixture stay functional.
class LtfbPolicy final : public ExchangePolicy {
 public:
  LtfbPolicy(std::uint64_t seed, std::uint32_t every) : seed_(seed), every_(every) {
    CG_EXPECT(every_ >= 1);
  }

  ExchangePolicyKind kind() const override { return ExchangePolicyKind::kLtfb; }

  std::vector<int> sources(const Grid& grid, int cell,
                           std::uint32_t epoch) const override {
    std::vector<int> out = grid.neighbors_of(cell);
    if (tournament_epoch(epoch)) {
      const int partner = ltfb_pairing(seed_, grid.size(), round_of(epoch))[cell];
      if (partner >= 0 && std::find(out.begin(), out.end(), partner) == out.end()) {
        out.push_back(partner);
      }
    }
    return out;
  }

  ExchangeOutcome apply(ExchangeHost& host,
                        std::span<const SharedGenome> gathered,
                        std::uint32_t epoch) override {
    ExchangeOutcome outcome;
    outcome.g_fitness_before = host.g_fitness();
    outcome.d_fitness_before = host.d_fitness();
    outcome.bytes_in = install_neighbor_genomes(host, gathered);
    outcome.wins = wins_;
    if (!tournament_epoch(epoch)) {
      outcome.g_fitness_after = host.g_fitness();
      outcome.d_fitness_after = host.d_fitness();
      return outcome;
    }
    const Grid& grid = host.grid();
    const int cell = host.cell();
    const int partner = ltfb_pairing(seed_, grid.size(), round_of(epoch))[cell];
    outcome.partner = partner;
    const CellGenome* rival = gathered_genome(gathered, partner);
    if (rival != nullptr) {
      if (!is_neighbor_of(grid, cell, partner)) {
        outcome.bytes_in += static_cast<double>(rival->byte_size());
      }
      // Both partners evaluate the same symmetric predicate, so exactly one
      // side adopts: strictly lower generator loss wins, ties go to the
      // lower cell id.
      const bool rival_wins = rival->g_fitness < host.g_fitness() ||
                              (rival->g_fitness == host.g_fitness() && partner < cell);
      if (rival_wins) {
        host.adopt_generator(*rival);
        host.adopt_discriminator(*rival);
        outcome.g_adopted = true;
        outcome.d_adopted = true;
      } else {
        outcome.wins = ++wins_;
      }
    }
    outcome.g_fitness_after = host.g_fitness();
    outcome.d_fitness_after = host.d_fitness();
    return outcome;
  }

  void serialize_state(common::ByteWriter& writer) const override {
    writer.write<std::uint64_t>(wins_);
  }
  void restore_state(common::ByteReader& reader) override {
    wins_ = reader.read<std::uint64_t>();
  }

 private:
  bool tournament_epoch(std::uint32_t epoch) const {
    return epoch > 0 && epoch % every_ == 0;
  }
  std::uint64_t round_of(std::uint32_t epoch) const { return epoch / every_; }

  std::uint64_t seed_;
  std::uint32_t every_;
  std::uint64_t wins_ = 0;  ///< cumulative tournaments won by this cell
};

// --- gap --------------------------------------------------------------------

/// Generative Adversarial Parallelization: generators stay put while
/// discriminators rotate among the cells on a fixed cadence. Round r uses
/// shift s = ((r - 1) mod (cells - 1)) + 1, so every cell adopts the
/// discriminator of cell (cell + s) and the rotation visits every other cell
/// before repeating.
class GapPolicy final : public ExchangePolicy {
 public:
  explicit GapPolicy(std::uint32_t every) : every_(every) { CG_EXPECT(every_ >= 1); }

  ExchangePolicyKind kind() const override { return ExchangePolicyKind::kGap; }

  std::vector<int> sources(const Grid& grid, int cell,
                           std::uint32_t epoch) const override {
    std::vector<int> out = grid.neighbors_of(cell);
    const int donor = donor_of(grid, cell, epoch);
    if (donor >= 0 && std::find(out.begin(), out.end(), donor) == out.end()) {
      out.push_back(donor);
    }
    return out;
  }

  ExchangeOutcome apply(ExchangeHost& host,
                        std::span<const SharedGenome> gathered,
                        std::uint32_t epoch) override {
    ExchangeOutcome outcome;
    outcome.g_fitness_before = host.g_fitness();
    outcome.d_fitness_before = host.d_fitness();
    outcome.bytes_in = install_neighbor_genomes(host, gathered);
    const Grid& grid = host.grid();
    const int cell = host.cell();
    const int donor = donor_of(grid, cell, epoch);
    if (donor >= 0) {
      outcome.partner = donor;
      const CellGenome* genome = gathered_genome(gathered, donor);
      if (genome != nullptr) {
        if (!is_neighbor_of(grid, cell, donor)) {
          outcome.bytes_in += static_cast<double>(genome->byte_size());
        }
        host.adopt_discriminator(*genome);
        outcome.d_adopted = true;
      }
    }
    outcome.g_fitness_after = host.g_fitness();
    outcome.d_fitness_after = host.d_fitness();
    return outcome;
  }

 private:
  int donor_of(const Grid& grid, int cell, std::uint32_t epoch) const {
    if (epoch == 0 || epoch % every_ != 0) return -1;
    const int cells = grid.size();
    if (cells < 2) return -1;
    const std::uint64_t round = epoch / every_;
    const int shift = static_cast<int>((round - 1) % static_cast<std::uint64_t>(cells - 1)) + 1;
    return (cell + shift) % cells;
  }

  std::uint32_t every_;
};

}  // namespace

std::unique_ptr<ExchangePolicy> make_exchange_policy(ExchangePolicyKind kind,
                                                     std::uint64_t seed,
                                                     std::uint32_t exchange_every) {
  const std::uint32_t every = std::max<std::uint32_t>(1, exchange_every);
  switch (kind) {
    case ExchangePolicyKind::kCellular: return std::make_unique<CellularPolicy>();
    case ExchangePolicyKind::kLtfb:
      return std::make_unique<LtfbPolicy>(seed, every);
    case ExchangePolicyKind::kGap: return std::make_unique<GapPolicy>(every);
  }
  CG_EXPECT(!"make_exchange_policy: unknown policy kind");
  return nullptr;
}

}  // namespace cellgan::evolve
