#include "core/comm_manager.hpp"

#include "common/expect.hpp"

namespace cellgan::core {

std::uint64_t GenomeStore::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void GenomeStore::publish(int cell, evolve::SharedGenome genome) {
  std::lock_guard<std::mutex> lock(mutex_);
  CG_EXPECT(cell >= 0 && cell < static_cast<int>(slots_.size()));
  CG_EXPECT(genome != nullptr);
  slots_[cell].staged = std::move(genome);
}

evolve::SharedGenome GenomeStore::latest(int cell) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CG_EXPECT(cell >= 0 && cell < static_cast<int>(slots_.size()));
  return slots_[cell].visible;
}

void GenomeStore::flip() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Slot& slot : slots_) {
    if (slot.staged != nullptr) slot.visible = std::move(slot.staged);
  }
  ++epoch_;
}

LocalCommManager::LocalCommManager(GenomeStore& store, const evolve::Grid& grid, int cell,
                                   const ExecContext& context)
    : store_(store), grid_(grid), cell_(cell), context_(context) {
  CG_EXPECT(static_cast<int>(store.size()) == grid.size());
}

std::vector<evolve::SharedGenome> LocalCommManager::collect() {
  return collect(grid_.neighbors_of(cell_));
}

std::vector<evolve::SharedGenome> LocalCommManager::collect(
    std::span<const int> sources) {
  std::vector<evolve::SharedGenome> out(store_.size());
  double copied_bytes = 0.0;
  for (const int neighbor : sources) {
    out[neighbor] = store_.latest(neighbor);
    if (out[neighbor] != nullptr) {
      copied_bytes += static_cast<double>(out[neighbor]->byte_size());
    }
  }
  if (context_.virtual_time()) {
    const double cost =
        context_.cost->seq_gather_seconds(context_.grid_cells, copied_bytes);
    context_.charge(common::routine::kGather, 0.0, cost);
  }
  return out;
}

void LocalCommManager::publish(evolve::SharedGenome genome) {
  store_.publish(cell_, std::move(genome));
}

MpiCommManager::MpiCommManager(minimpi::Comm& local_comm) : local_comm_(local_comm) {}

std::vector<evolve::SharedGenome> MpiCommManager::exchange(
    const evolve::SharedGenome& genome, std::span<const int> sources,
    std::span<const int> readers) {
  const auto payloads = local_comm_.allgather(genome->serialize(), readers);
  std::vector<evolve::SharedGenome> out(payloads.size());
  for (const int source : sources) {
    if (payloads[source].empty()) continue;
    out[source] = std::make_shared<const evolve::CellGenome>(
        evolve::CellGenome::deserialize(payloads[source]));
  }
  return out;
}

}  // namespace cellgan::core
