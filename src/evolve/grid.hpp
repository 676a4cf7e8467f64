// The grid class — one of the paper's two new classes (Section III.C).
//
// Replaces Lipizzaner's `neighbourhood`: a toroidal rows x cols grid whose
// cells each own a five-cell neighborhood {center, N, S, W, E} (Fig. 1).
// Unlike the original, neighborhoods can be modified dynamically at runtime
// ("allows modifying the grid and also the structure of neighboring
// processes dynamically ... exploring different patterns for training"),
// and the class is fully decoupled from the communication layer — it only
// deals in cell indices.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "minimpi/cart.hpp"

namespace cellgan::evolve {

using minimpi::GridCoord;

/// Named, catchable error for invalid dynamic rewiring (an out-of-range
/// neighbor index in set_neighbors). Topology mistakes come from user input
/// (dynamic reconfiguration examples, future config files), so they must be
/// recoverable — unlike indexing a bad cell on a read path, which stays a
/// programming-contract CG_EXPECT.
class GridTopologyError : public std::runtime_error {
 public:
  explicit GridTopologyError(const std::string& what) : std::runtime_error(what) {}
};

class Grid {
 public:
  Grid(int rows, int cols);

  int rows() const { return topology_.rows(); }
  int cols() const { return topology_.cols(); }
  int size() const { return topology_.size(); }

  GridCoord coords_of(int cell) const { return topology_.coords_of(cell); }
  int cell_of(GridCoord coord) const { return topology_.rank_of(coord); }

  /// Neighbors of `cell`, center excluded, in N,S,W,E order (default) or the
  /// order given to set_neighbors.
  const std::vector<int>& neighbors_of(int cell) const;

  /// Full sub-population membership: center first, then neighbors.
  std::vector<int> neighborhood_of(int cell) const;

  /// Size of cell's sub-population (s in the paper; 5 on grids >= 3x3).
  std::size_t subpopulation_size(int cell) const;

  // ---- dynamic reconfiguration ---------------------------------------------

  /// Replace a cell's neighbor list (deduplicated, center removed). Throws
  /// GridTopologyError when any neighbor index is outside the grid.
  void set_neighbors(int cell, std::vector<int> neighbors);

  /// Restore the default five-cell toroidal neighborhoods everywhere.
  void reset_default_neighborhoods();

  /// True if `other` is in `cell`'s neighbor list.
  bool is_neighbor(int cell, int other) const;

 private:
  void check_cell(int cell) const;

  minimpi::CartTopology topology_;
  std::vector<std::vector<int>> neighbors_;  // per cell, center excluded
};

}  // namespace cellgan::evolve
