#include "evolve/evolution.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace cellgan::core {
namespace {

TEST(TournamentTest, SingleEntrantAlwaysWins) {
  common::Rng rng(1);
  const std::vector<double> fitnesses{0.5};
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(evolve::tournament_select(fitnesses, 2, rng), 0u);
  }
}

TEST(TournamentTest, FullTournamentPicksGlobalBest) {
  common::Rng rng(2);
  const std::vector<double> fitnesses{3.0, 1.0, 2.0, 0.5, 4.0};
  // With tournament size >> population, the minimum is found w.h.p.
  int best_picked = 0;
  for (int i = 0; i < 50; ++i) {
    if (evolve::tournament_select(fitnesses, 64, rng) == 3u) ++best_picked;
  }
  EXPECT_GE(best_picked, 49);
}

TEST(TournamentTest, Size2PrefersBetterIndividuals) {
  common::Rng rng(3);
  const std::vector<double> fitnesses{0.1, 10.0};  // index 0 far better
  int zero_wins = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (evolve::tournament_select(fitnesses, 2, rng) == 0u) ++zero_wins;
  }
  // P(best wins binary tournament over 2 individuals) = 3/4.
  EXPECT_NEAR(zero_wins / static_cast<double>(trials), 0.75, 0.02);
}

TEST(TournamentTest, Size1IsUniform) {
  common::Rng rng(4);
  const std::vector<double> fitnesses{1.0, 2.0, 3.0, 4.0};
  std::vector<int> counts(4, 0);
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) ++counts[evolve::tournament_select(fitnesses, 1, rng)];
  for (const int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.25, 0.02);
  }
}

TEST(TournamentTest, LowerIsBetterConvention) {
  common::Rng rng(5);
  const std::vector<double> fitnesses{-5.0, 0.0, 5.0};
  int neg_wins = 0;
  for (int i = 0; i < 1000; ++i) {
    if (evolve::tournament_select(fitnesses, 3, rng) == 0u) ++neg_wins;
  }
  EXPECT_GT(neg_wins, 600);  // -5 should dominate size-3 tournaments
}

TEST(TournamentDeathTest, EmptyPopulationAborts) {
  common::Rng rng(6);
  EXPECT_DEATH((void)evolve::tournament_select({}, 2, rng), "precondition");
}

TEST(LrMutationTest, ZeroProbabilityNeverMutates) {
  common::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(evolve::mutate_learning_rate(2e-4, 1e-4, 0.0, rng), 2e-4);
  }
}

TEST(LrMutationTest, UnitProbabilityAlwaysMutates) {
  common::Rng rng(8);
  int changed = 0;
  for (int i = 0; i < 100; ++i) {
    if (evolve::mutate_learning_rate(2e-4, 1e-4, 1.0, rng) != 2e-4) ++changed;
  }
  EXPECT_EQ(changed, 100);
}

TEST(LrMutationTest, PaperProbabilityMutatesAboutHalf) {
  common::Rng rng(9);
  int changed = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (evolve::mutate_learning_rate(2e-4, 1e-4, 0.5, rng) != 2e-4) ++changed;
  }
  EXPECT_NEAR(changed / static_cast<double>(trials), 0.5, 0.03);
}

TEST(LrMutationTest, PerturbationScaleMatchesSigma) {
  common::Rng rng(10);
  double sum_sq = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const double mutated = evolve::mutate_learning_rate(1.0, 1e-4, 1.0, rng);
    sum_sq += (mutated - 1.0) * (mutated - 1.0);
  }
  EXPECT_NEAR(std::sqrt(sum_sq / trials), 1e-4, 1e-5);
}

TEST(LrMutationTest, NeverGoesNonPositive) {
  common::Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    // Tiny rate + huge sigma: clamping must keep it positive.
    EXPECT_GT(evolve::mutate_learning_rate(1e-7, 1.0, 1.0, rng), 0.0);
  }
}

TEST(LrMutationDeathTest, NonPositiveInputAborts) {
  common::Rng rng(12);
  EXPECT_DEATH((void)evolve::mutate_learning_rate(0.0, 1e-4, 0.5, rng), "precondition");
}

}  // namespace
}  // namespace cellgan::core
