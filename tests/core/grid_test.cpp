#include "evolve/grid.hpp"

#include <gtest/gtest.h>

namespace cellgan::core {
namespace {

TEST(GridTest, DefaultNeighborhoodIsFiveCell) {
  evolve::Grid grid(4, 4);
  for (int cell = 0; cell < grid.size(); ++cell) {
    EXPECT_EQ(grid.subpopulation_size(cell), 5u);
    EXPECT_EQ(grid.neighbors_of(cell).size(), 4u);
  }
}

TEST(GridTest, NeighborhoodOfPutsCenterFirst) {
  evolve::Grid grid(3, 3);
  const auto hood = grid.neighborhood_of(4);
  ASSERT_EQ(hood.size(), 5u);
  EXPECT_EQ(hood[0], 4);
}

TEST(GridTest, TwoByTwoSubpopulationIsThree) {
  // N==S and W==E on the 2x2 torus.
  evolve::Grid grid(2, 2);
  for (int cell = 0; cell < 4; ++cell) {
    EXPECT_EQ(grid.subpopulation_size(cell), 3u);
  }
}

TEST(GridTest, Figure1OverlapExample) {
  // The paper's Fig. 1: on the 4x4 toroid, updates in N1,0 and N1,2 reach
  // the neighborhoods of N1,1 and N1,3 through overlap.
  evolve::Grid grid(4, 4);
  const int c10 = grid.cell_of({1, 0});
  const int c12 = grid.cell_of({1, 2});
  const int c11 = grid.cell_of({1, 1});
  const int c13 = grid.cell_of({1, 3});
  // Cell (1,1) has both (1,0) and (1,2) in its neighborhood.
  EXPECT_TRUE(grid.is_neighbor(c11, c10));
  EXPECT_TRUE(grid.is_neighbor(c11, c12));
  // Cell (1,3) reaches (1,0) westward across the wrap and (1,2) eastward.
  EXPECT_TRUE(grid.is_neighbor(c13, c10));
  EXPECT_TRUE(grid.is_neighbor(c13, c12));
}

TEST(GridTest, DefaultInfluenceIsSymmetric) {
  // Default neighborhoods: a cell reads exactly the cells that read it.
  evolve::Grid grid(3, 3);
  for (int cell = 0; cell < grid.size(); ++cell) {
    for (int other = 0; other < grid.size(); ++other) {
      if (other == cell) continue;
      EXPECT_EQ(grid.is_neighbor(cell, other), grid.is_neighbor(other, cell))
          << "cells " << cell << " and " << other;
    }
  }
}

TEST(GridTest, SetNeighborsReplacesList) {
  evolve::Grid grid(3, 3);
  grid.set_neighbors(0, {1, 2});
  EXPECT_EQ(grid.neighbors_of(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(grid.subpopulation_size(0), 3u);
}

TEST(GridTest, SetNeighborsDropsSelfAndDuplicates) {
  evolve::Grid grid(3, 3);
  grid.set_neighbors(0, {0, 1, 1, 2, 0, 2});
  EXPECT_EQ(grid.neighbors_of(0), (std::vector<int>{1, 2}));
}

TEST(GridTest, SetNeighborsAllowsEmpty) {
  evolve::Grid grid(3, 3);
  grid.set_neighbors(4, {});
  EXPECT_TRUE(grid.neighbors_of(4).empty());
  EXPECT_EQ(grid.subpopulation_size(4), 1u);  // isolated cell trains alone
}

TEST(GridTest, SetNeighborsSelfOnlyListBecomesIsolated) {
  // A list of only the cell itself collapses to the empty neighborhood (self
  // entries are dropped, not errors — the cell is always its own center).
  evolve::Grid grid(3, 3);
  grid.set_neighbors(4, {4, 4});
  EXPECT_TRUE(grid.neighbors_of(4).empty());
  EXPECT_EQ(grid.subpopulation_size(4), 1u);
}

TEST(GridTest, SetNeighborsRejectsOutOfRangeWithNamedError) {
  // Out-of-range neighbor ids used to be silently accepted and blow up later
  // inside exchange; now they are a named topology error at the call site.
  evolve::Grid grid(3, 3);
  EXPECT_THROW(grid.set_neighbors(0, {9}), evolve::GridTopologyError);
  EXPECT_THROW(grid.set_neighbors(0, {-1}), evolve::GridTopologyError);
  EXPECT_THROW(grid.set_neighbors(0, {1, 2, 42}), evolve::GridTopologyError);
  try {
    grid.set_neighbors(0, {9});
    FAIL() << "expected GridTopologyError";
  } catch (const evolve::GridTopologyError& e) {
    // The diagnostic names the offending id and the valid range.
    EXPECT_NE(std::string(e.what()).find('9'), std::string::npos) << e.what();
  }
  // A failed rewiring leaves the previous neighborhood untouched.
  EXPECT_EQ(grid.neighbors_of(0).size(), 4u);
}

TEST(GridTest, DynamicRewiringCanBeAsymmetric) {
  evolve::Grid grid(3, 3);
  grid.set_neighbors(0, {4});
  // 4 sees its default neighbors; 0 is not among them (not adjacent).
  EXPECT_TRUE(grid.is_neighbor(0, 4));
  EXPECT_FALSE(grid.is_neighbor(4, 0));
}

TEST(GridTest, ResetRestoresDefaults) {
  evolve::Grid grid(3, 3);
  const auto original = grid.neighbors_of(4);
  grid.set_neighbors(4, {0});
  EXPECT_NE(grid.neighbors_of(4), original);
  grid.reset_default_neighborhoods();
  EXPECT_EQ(grid.neighbors_of(4), original);
}

TEST(GridTest, CoordsRoundtrip) {
  evolve::Grid grid(3, 4);
  for (int cell = 0; cell < grid.size(); ++cell) {
    EXPECT_EQ(grid.cell_of(grid.coords_of(cell)), cell);
  }
}

TEST(GridDeathTest, InvalidCellAborts) {
  evolve::Grid grid(2, 2);
  EXPECT_DEATH((void)grid.neighbors_of(4), "precondition");
  // The CELL argument is still a hard contract violation (abort); only the
  // neighbor LIST is user/config input and throws GridTopologyError.
  EXPECT_DEATH(grid.set_neighbors(7, {0}), "precondition");
}

}  // namespace
}  // namespace cellgan::core
