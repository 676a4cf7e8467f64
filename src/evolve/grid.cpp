#include "evolve/grid.hpp"

#include <algorithm>

#include "common/expect.hpp"

namespace cellgan::evolve {

Grid::Grid(int rows, int cols) : topology_(rows, cols) {
  reset_default_neighborhoods();
}

void Grid::check_cell(int cell) const {
  CG_EXPECT(cell >= 0 && cell < size());
}

const std::vector<int>& Grid::neighbors_of(int cell) const {
  check_cell(cell);
  return neighbors_[cell];
}

std::vector<int> Grid::neighborhood_of(int cell) const {
  check_cell(cell);
  std::vector<int> out;
  out.reserve(neighbors_[cell].size() + 1);
  out.push_back(cell);
  out.insert(out.end(), neighbors_[cell].begin(), neighbors_[cell].end());
  return out;
}

std::size_t Grid::subpopulation_size(int cell) const {
  check_cell(cell);
  return neighbors_[cell].size() + 1;
}

void Grid::set_neighbors(int cell, std::vector<int> neighbors) {
  check_cell(cell);
  std::vector<int> cleaned;
  cleaned.reserve(neighbors.size());
  for (const int n : neighbors) {
    if (n < 0 || n >= size()) {
      throw GridTopologyError("neighbor index " + std::to_string(n) +
                              " out of range for cell " + std::to_string(cell) +
                              " on a " + std::to_string(rows()) + "x" +
                              std::to_string(cols()) + " grid");
    }
    if (n == cell) continue;
    if (std::find(cleaned.begin(), cleaned.end(), n) == cleaned.end()) {
      cleaned.push_back(n);
    }
  }
  neighbors_[cell] = std::move(cleaned);
}

void Grid::reset_default_neighborhoods() {
  neighbors_.assign(size(), {});
  for (int cell = 0; cell < size(); ++cell) {
    // C,N,S,W,E with duplicates dropped on degenerate grids; strip center.
    for (const int r : topology_.neighborhood_of(cell)) {
      if (r != cell) neighbors_[cell].push_back(r);
    }
  }
}

bool Grid::is_neighbor(int cell, int other) const {
  check_cell(cell);
  check_cell(other);
  const auto& ns = neighbors_[cell];
  return std::find(ns.begin(), ns.end(), other) != ns.end();
}

}  // namespace cellgan::evolve
