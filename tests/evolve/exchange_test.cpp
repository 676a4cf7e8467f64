// ExchangePolicy: the population-exchange seam (evolve/exchange.hpp) — the
// registry vocabulary, the pinned LTFB pairing order, and the per-policy
// semantics (cellular strictly-fitter adoption, ltfb tournaments, gap
// discriminator rotation) against a fake host.
#include "evolve/exchange.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/config.hpp"

namespace cellgan::evolve {
namespace {

/// Minimal ExchangeHost: records adoptions and mirrors the real trainer's
/// bookkeeping (adopting a side takes over that side's fitness).
class FakeHost final : public ExchangeHost {
 public:
  FakeHost(const Grid& grid, int cell, double g_fitness, double d_fitness)
      : grid_(grid),
        cell_(cell),
        g_fitness_(g_fitness),
        d_fitness_(d_fitness),
        subpop_(grid.neighbors_of(cell).size()) {}

  int cell() const override { return cell_; }
  const Grid& grid() const override { return grid_; }
  double g_fitness() const override { return g_fitness_; }
  double d_fitness() const override { return d_fitness_; }
  std::size_t subpop_slots() const override { return subpop_.size(); }
  const CellGenome* subpop_genome(std::size_t slot) const override {
    return subpop_[slot].get();
  }
  void install_subpop(std::size_t slot, SharedGenome genome) override {
    subpop_[slot] = std::move(genome);
  }
  void adopt_generator(const CellGenome& genome) override {
    g_adopted_from = static_cast<int>(genome.origin_cell);
    g_fitness_ = genome.g_fitness;
  }
  void adopt_discriminator(const CellGenome& genome) override {
    d_adopted_from = static_cast<int>(genome.origin_cell);
    d_fitness_ = genome.d_fitness;
  }

  int g_adopted_from = -1;
  int d_adopted_from = -1;

 private:
  const Grid& grid_;
  int cell_;
  double g_fitness_;
  double d_fitness_;
  std::vector<SharedGenome> subpop_;
};

CellGenome make_genome(int origin, double g_fitness, double d_fitness) {
  CellGenome genome;
  genome.generator_params = {1.0f, 2.0f};
  genome.discriminator_params = {3.0f};
  genome.g_learning_rate = 0.1;
  genome.d_learning_rate = 0.2;
  genome.g_fitness = g_fitness;
  genome.d_fitness = d_fitness;
  genome.origin_cell = static_cast<std::uint32_t>(origin);
  return genome;
}

/// gathered[] sized for `grid` with the given (cell, genome) entries filled.
std::vector<SharedGenome> gather(const Grid& grid,
                                 const std::vector<std::pair<int, CellGenome>>& entries) {
  std::vector<SharedGenome> gathered(static_cast<std::size_t>(grid.size()));
  for (const auto& [cell, genome] : entries) {
    gathered[static_cast<std::size_t>(cell)] = std::make_shared<const CellGenome>(genome);
  }
  return gathered;
}

TEST(ExchangeRegistryTest, NamesRoundTripAndListRegistered) {
  for (const auto kind : {ExchangePolicyKind::kCellular, ExchangePolicyKind::kLtfb,
                          ExchangePolicyKind::kGap}) {
    const auto parsed = exchange_policy_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(exchange_policy_from_string("ring").has_value());
  EXPECT_FALSE(exchange_policy_from_string("auto").has_value());
  EXPECT_FALSE(exchange_policy_from_string("").has_value());
  // The registered set the CLI diagnostics print.
  EXPECT_EQ(exchange_policy_names(),
            (std::vector<std::string>{"cellular", "ltfb", "gap"}));
}

TEST(ExchangeRegistryTest, EnvironmentDoesNotChooseThePolicy) {
  // A default config runs the cellular policy whatever the environment says;
  // only TrainingConfig::exchange_policy selects.
  ::setenv("CELLGAN_EXCHANGE", "ltfb", 1);
  const core::TrainingConfig config;
  const auto policy =
      make_exchange_policy(config.exchange_policy, config.seed, config.exchange_every);
  ASSERT_NE(policy, nullptr);
  EXPECT_EQ(policy->kind(), ExchangePolicyKind::kCellular);
  ::unsetenv("CELLGAN_EXCHANGE");
}

TEST(ExchangeRegistryTest, FactoryBuildsEveryRegisteredPolicy) {
  for (const auto kind : {ExchangePolicyKind::kCellular, ExchangePolicyKind::kLtfb,
                          ExchangePolicyKind::kGap}) {
    const auto policy = make_exchange_policy(kind, /*seed=*/7, /*every=*/1);
    ASSERT_NE(policy, nullptr);
    EXPECT_EQ(policy->kind(), kind);
  }
}

TEST(LtfbPairingTest, PairingIsAnInvolutionWithoutSelfPairs) {
  for (const int cells : {2, 5, 9, 16}) {
    for (const std::uint64_t round : {1u, 2u, 7u}) {
      const auto partner = ltfb_pairing(/*seed=*/99, cells, round);
      ASSERT_EQ(partner.size(), static_cast<std::size_t>(cells));
      int unpaired = 0;
      for (int cell = 0; cell < cells; ++cell) {
        if (partner[cell] < 0) {
          ++unpaired;
          continue;
        }
        EXPECT_NE(partner[cell], cell);
        EXPECT_EQ(partner[partner[cell]], cell);  // symmetric pairing
      }
      EXPECT_EQ(unpaired, cells % 2);  // exactly the odd cell sits out
    }
  }
}

TEST(LtfbPairingTest, PairingOrderIsPinnedForever) {
  // The historical pairing tables for seed 1234 on a 4x4 grid, rounds 1 and
  // 2. Every rank computes this table independently (zero communication) and
  // every checkpointed LTFB run replays against it, so these exact values are
  // a compatibility contract like RngTest.ShuffleOrderIsPinnedForever. If
  // this test fails, the change broke replay compatibility — revert it.
  const std::vector<int> round1{4, 11, 15, 14, 0,  6, 5, 13,
                                10, 12, 8,  1,  9,  7, 3, 2};
  const std::vector<int> round2{10, 14, 8, 11, 7, 13, 12, 4,
                                2,  15, 0, 3,  6, 5,  1,  9};
  EXPECT_EQ(ltfb_pairing(1234, 16, 1), round1);
  EXPECT_EQ(ltfb_pairing(1234, 16, 2), round2);
  // And the table is a pure function: recomputing gives identical results.
  EXPECT_EQ(ltfb_pairing(1234, 16, 1), ltfb_pairing(1234, 16, 1));
  EXPECT_NE(ltfb_pairing(1234, 16, 1), ltfb_pairing(1234, 16, 2));
}

TEST(CellularPolicyTest, StrictlyFitterNeighborAdoptedPerSide) {
  Grid grid(3, 3);
  const auto policy = make_exchange_policy(ExchangePolicyKind::kCellular, 7, 1);
  FakeHost host(grid, 0, /*g=*/1.0, /*d=*/1.0);
  const auto& neighbors = grid.neighbors_of(0);
  ASSERT_GE(neighbors.size(), 3u);
  // Two fitter generators (the fittest must win) and one fitter
  // discriminator; the host's own fitness bounds the rest.
  const auto gathered = gather(
      grid, {{neighbors[0], make_genome(neighbors[0], 0.5, 2.0)},
             {neighbors[1], make_genome(neighbors[1], 0.2, 3.0)},
             {neighbors[2], make_genome(neighbors[2], 4.0, 0.7)}});
  const ExchangeOutcome outcome = policy->apply(host, gathered, /*epoch=*/1);
  EXPECT_TRUE(outcome.g_adopted);
  EXPECT_TRUE(outcome.d_adopted);
  EXPECT_EQ(host.g_adopted_from, neighbors[1]);  // fittest generator
  EXPECT_EQ(host.d_adopted_from, neighbors[2]);
  EXPECT_EQ(outcome.partner, neighbors[1]);  // g-adoption origin wins the slot
  EXPECT_DOUBLE_EQ(outcome.g_fitness_before, 1.0);
  EXPECT_DOUBLE_EQ(outcome.g_fitness_after, 0.2);
  EXPECT_DOUBLE_EQ(outcome.d_fitness_after, 0.7);
  EXPECT_GT(outcome.bytes_in, 0.0);
  EXPECT_TRUE(outcome.exchanged());
}

TEST(CellularPolicyTest, EqualFitnessIsNotAdopted) {
  // Strict comparison: an equally-fit neighbor must not replace the center
  // (the pre-seam semantics the seam is pinned to).
  Grid grid(3, 3);
  const auto policy = make_exchange_policy(ExchangePolicyKind::kCellular, 7, 1);
  FakeHost host(grid, 0, 1.0, 1.0);
  const int neighbor = grid.neighbors_of(0)[0];
  const auto gathered = gather(grid, {{neighbor, make_genome(neighbor, 1.0, 1.0)}});
  const ExchangeOutcome outcome = policy->apply(host, gathered, 1);
  EXPECT_FALSE(outcome.exchanged());
  EXPECT_EQ(outcome.partner, -1);
  EXPECT_EQ(host.g_adopted_from, -1);
  EXPECT_DOUBLE_EQ(outcome.g_fitness_after, 1.0);
}

TEST(CellularPolicyTest, SourcesAreTheNeighbors) {
  Grid grid(3, 3);
  const auto policy = make_exchange_policy(ExchangePolicyKind::kCellular, 7, 1);
  for (int cell = 0; cell < grid.size(); ++cell) {
    EXPECT_EQ(policy->sources(grid, cell, 5), grid.neighbors_of(cell));
  }
}

TEST(LtfbPolicyTest, TournamentLoserAdoptsWholeGenome) {
  Grid grid(2, 2);
  const std::uint64_t seed = 42;
  const auto policy = make_exchange_policy(ExchangePolicyKind::kLtfb, seed, 1);
  FakeHost host(grid, 0, /*g=*/1.0, /*d=*/1.0);
  const auto partner_table = ltfb_pairing(seed, grid.size(), 1);
  const int partner = partner_table[0];
  ASSERT_GE(partner, 0);
  // The rival's generator loss is strictly lower: the host loses and adopts
  // BOTH sides of the rival's genome.
  const auto gathered =
      gather(grid, {{partner, make_genome(partner, 0.5, 9.0)}});
  const ExchangeOutcome outcome = policy->apply(host, gathered, /*epoch=*/1);
  EXPECT_EQ(outcome.partner, partner);
  EXPECT_TRUE(outcome.g_adopted);
  EXPECT_TRUE(outcome.d_adopted);
  EXPECT_EQ(host.g_adopted_from, partner);
  EXPECT_EQ(host.d_adopted_from, partner);
  EXPECT_DOUBLE_EQ(outcome.g_fitness_after, 0.5);
  EXPECT_EQ(outcome.wins, 0u);
}

TEST(LtfbPolicyTest, TournamentWinnerKeepsGenomeAndCountsWin) {
  Grid grid(2, 2);
  const std::uint64_t seed = 42;
  const auto policy = make_exchange_policy(ExchangePolicyKind::kLtfb, seed, 1);
  FakeHost host(grid, 0, 0.3, 1.0);
  const int partner = ltfb_pairing(seed, grid.size(), 1)[0];
  const auto gathered =
      gather(grid, {{partner, make_genome(partner, 0.8, 0.1)}});
  const ExchangeOutcome outcome = policy->apply(host, gathered, 1);
  EXPECT_EQ(outcome.partner, partner);
  EXPECT_FALSE(outcome.exchanged());
  EXPECT_EQ(outcome.wins, 1u);
  EXPECT_DOUBLE_EQ(outcome.g_fitness_after, 0.3);

  // Win counters accumulate and round-trip through checkpoint state. Each
  // round has its own pairing table, so look the rival up per round.
  const int partner2 = ltfb_pairing(seed, grid.size(), 2)[0];
  const auto gathered2 =
      gather(grid, {{partner2, make_genome(partner2, 0.9, 0.1)}});
  EXPECT_EQ(policy->apply(host, gathered2, 2).wins, 2u);
  common::ByteWriter writer;
  policy->serialize_state(writer);
  const auto bytes = writer.take();
  const auto fresh = make_exchange_policy(ExchangePolicyKind::kLtfb, seed, 1);
  common::ByteReader reader(bytes);
  fresh->restore_state(reader);
  const int partner3 = ltfb_pairing(seed, grid.size(), 3)[0];
  const auto gathered3 =
      gather(grid, {{partner3, make_genome(partner3, 0.9, 0.1)}});
  EXPECT_EQ(fresh->apply(host, gathered3, 3).wins, 3u);
}

TEST(LtfbPolicyTest, TieBreaksTowardLowerCellId) {
  Grid grid(2, 2);
  const std::uint64_t seed = 42;
  const int partner_of_0 = ltfb_pairing(seed, grid.size(), 1)[0];
  // Equal generator losses: the higher-id side of the pair adopts, the
  // lower-id side keeps its genome — exactly one adoption per pair.
  const int low = std::min(0, partner_of_0), high = std::max(0, partner_of_0);
  const auto policy_low = make_exchange_policy(ExchangePolicyKind::kLtfb, seed, 1);
  const auto policy_high = make_exchange_policy(ExchangePolicyKind::kLtfb, seed, 1);
  FakeHost host_low(grid, low, 1.0, 1.0);
  FakeHost host_high(grid, high, 1.0, 1.0);
  const auto gathered = gather(grid, {{low, make_genome(low, 1.0, 1.0)},
                                      {high, make_genome(high, 1.0, 1.0)}});
  const auto outcome_low = policy_low->apply(host_low, gathered, 1);
  const auto outcome_high = policy_high->apply(host_high, gathered, 1);
  EXPECT_FALSE(outcome_low.exchanged());
  EXPECT_EQ(outcome_low.wins, 1u);
  EXPECT_TRUE(outcome_high.g_adopted);
  EXPECT_TRUE(outcome_high.d_adopted);
  EXPECT_EQ(host_high.g_adopted_from, low);
}

TEST(LtfbPolicyTest, OffCadenceEpochsOnlyFlowNeighbors) {
  Grid grid(2, 2);
  const std::uint64_t seed = 42;
  const auto policy = make_exchange_policy(ExchangePolicyKind::kLtfb, seed,
                                           /*every=*/3);
  FakeHost host(grid, 0, 1.0, 1.0);
  // Epochs 0..2 are not tournament epochs under every=3 (epoch 0 never is).
  for (const std::uint32_t epoch : {0u, 1u, 2u, 4u}) {
    const auto gathered = gather(grid, {});
    const auto outcome = policy->apply(host, gathered, epoch);
    EXPECT_FALSE(outcome.exchanged()) << "epoch " << epoch;
    EXPECT_EQ(outcome.partner, -1) << "epoch " << epoch;
    EXPECT_EQ(policy->sources(grid, 0, epoch), grid.neighbors_of(0));
  }
  // Epoch 3 is round 1: the partner joins the source list when it is not
  // already a neighbor (on the 2x2 torus every cell borders every other, so
  // here we just assert the tournament fires).
  const auto gathered = gather(
      grid, {{ltfb_pairing(seed, grid.size(), 1)[0],
              make_genome(ltfb_pairing(seed, grid.size(), 1)[0], 0.1, 0.1)}});
  EXPECT_TRUE(policy->apply(host, gathered, 3).exchanged());
}

TEST(LtfbPolicyTest, NonNeighborPartnerJoinsSources) {
  // On a 4x4 grid some tournament partners are not grid neighbors; the
  // source list must name them so allgather-free transports could fetch them.
  Grid grid(4, 4);
  const std::uint64_t seed = 1234;
  const auto policy = make_exchange_policy(ExchangePolicyKind::kLtfb, seed, 1);
  bool saw_non_neighbor = false;
  for (int cell = 0; cell < grid.size(); ++cell) {
    const int partner = ltfb_pairing(seed, grid.size(), 1)[cell];
    if (partner < 0) continue;
    const auto sources = policy->sources(grid, cell, /*epoch=*/1);
    EXPECT_NE(std::find(sources.begin(), sources.end(), partner), sources.end())
        << "cell " << cell;
    const auto& neighbors = grid.neighbors_of(cell);
    if (std::find(neighbors.begin(), neighbors.end(), partner) ==
        neighbors.end()) {
      saw_non_neighbor = true;
    }
  }
  EXPECT_TRUE(saw_non_neighbor);
}

TEST(GapPolicyTest, DiscriminatorRotatesGeneratorStays) {
  Grid grid(3, 3);
  const auto policy = make_exchange_policy(ExchangePolicyKind::kGap, 7,
                                           /*every=*/1);
  FakeHost host(grid, 0, 1.0, 1.0);
  // Round 1: shift 1 — cell 0 adopts cell 1's discriminator, even when that
  // discriminator is LESS fit (rotation is unconditional, unlike cellular).
  const auto gathered = gather(grid, {{1, make_genome(1, 0.1, 5.0)}});
  const ExchangeOutcome outcome = policy->apply(host, gathered, /*epoch=*/1);
  EXPECT_EQ(outcome.partner, 1);
  EXPECT_FALSE(outcome.g_adopted);
  EXPECT_TRUE(outcome.d_adopted);
  EXPECT_EQ(host.g_adopted_from, -1);
  EXPECT_EQ(host.d_adopted_from, 1);
  EXPECT_DOUBLE_EQ(outcome.d_fitness_after, 5.0);
}

TEST(GapPolicyTest, RotationVisitsEveryOtherCellBeforeRepeating) {
  Grid grid(3, 3);
  const auto policy = make_exchange_policy(ExchangePolicyKind::kGap, 7, 1);
  // donor(round r) = (cell + ((r-1) mod 8) + 1) mod 9: rounds 1..8 visit
  // cells 1..8 from cell 0, round 9 wraps back to 1.
  std::vector<int> donors;
  for (std::uint32_t epoch = 1; epoch <= 9; ++epoch) {
    FakeHost host(grid, 0, 1.0, 1.0);
    const auto sources = policy->sources(grid, 0, epoch);
    // The donor is the one source that is not a default neighbor, or a
    // neighbor itself — recover it from apply's partner field.
    const int donor = static_cast<int>(epoch) <= 8 ? static_cast<int>(epoch)
                                                   : 1;  // expected
    const auto gathered = gather(grid, {{donor, make_genome(donor, 1.0, 1.0)}});
    const auto outcome = policy->apply(host, gathered, epoch);
    EXPECT_EQ(outcome.partner, donor) << "epoch " << epoch;
    EXPECT_NE(std::find(sources.begin(), sources.end(), donor), sources.end());
    donors.push_back(outcome.partner);
  }
  EXPECT_EQ(donors, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8, 1}));
}

TEST(GapPolicyTest, OffCadenceAndEpochZeroDoNothing) {
  Grid grid(3, 3);
  const auto policy = make_exchange_policy(ExchangePolicyKind::kGap, 7,
                                           /*every=*/4);
  FakeHost host(grid, 0, 1.0, 1.0);
  for (const std::uint32_t epoch : {0u, 1u, 2u, 3u, 5u}) {
    const auto outcome = policy->apply(host, gather(grid, {}), epoch);
    EXPECT_FALSE(outcome.exchanged()) << "epoch " << epoch;
    EXPECT_EQ(outcome.partner, -1) << "epoch " << epoch;
    EXPECT_EQ(policy->sources(grid, 0, epoch), grid.neighbors_of(0));
  }
  // Epoch 4 is round 1: the rotation fires.
  const auto gathered = gather(grid, {{1, make_genome(1, 1.0, 1.0)}});
  EXPECT_TRUE(policy->apply(host, gathered, 4).d_adopted);
}

}  // namespace
}  // namespace cellgan::evolve
