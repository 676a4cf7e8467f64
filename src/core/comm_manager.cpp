#include "core/comm_manager.hpp"

#include "common/expect.hpp"

namespace cellgan::core {

std::uint64_t GenomeStore::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

void GenomeStore::publish(int cell, std::vector<std::uint8_t> bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  CG_EXPECT(cell >= 0 && cell < static_cast<int>(slots_.size()));
  Slot& slot = slots_[cell];
  // Re-stamp this epoch's staged entry if there is one; otherwise overwrite
  // the invalid or older entry, never the newest still-readable version.
  Entry* target = &slot[0];
  if (slot[0].valid && slot[0].epoch == epoch_) {
    target = &slot[0];
  } else if (slot[1].valid && slot[1].epoch == epoch_) {
    target = &slot[1];
  } else if (!slot[0].valid) {
    target = &slot[0];
  } else if (!slot[1].valid) {
    target = &slot[1];
  } else {
    target = slot[0].epoch <= slot[1].epoch ? &slot[0] : &slot[1];
  }
  target->bytes = std::move(bytes);
  target->epoch = epoch_;
  target->valid = true;
}

std::vector<std::uint8_t> GenomeStore::latest(int cell) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CG_EXPECT(cell >= 0 && cell < static_cast<int>(slots_.size()));
  const Slot& slot = slots_[cell];
  const Entry* best = nullptr;
  for (const Entry& entry : slot) {
    if (!entry.valid || entry.epoch >= epoch_) continue;
    if (best == nullptr || entry.epoch > best->epoch) best = &entry;
  }
  return best == nullptr ? std::vector<std::uint8_t>{} : best->bytes;
}

void GenomeStore::flip() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++epoch_;
}

LocalCommManager::LocalCommManager(GenomeStore& store, const evolve::Grid& grid, int cell,
                                   const ExecContext& context)
    : store_(store), grid_(grid), cell_(cell), context_(context) {
  CG_EXPECT(static_cast<int>(store.size()) == grid.size());
}

std::vector<std::vector<std::uint8_t>> LocalCommManager::exchange(
    std::span<const std::uint8_t> genome_bytes) {
  publish(genome_bytes);
  return collect();
}

std::vector<std::vector<std::uint8_t>> LocalCommManager::collect() {
  return collect(grid_.neighbors_of(cell_));
}

std::vector<std::vector<std::uint8_t>> LocalCommManager::collect(
    std::span<const int> sources) {
  std::vector<std::vector<std::uint8_t>> out(store_.size());
  double copied_bytes = 0.0;
  for (const int neighbor : sources) {
    out[neighbor] = store_.latest(neighbor);  // copy, like a real transport
    copied_bytes += static_cast<double>(out[neighbor].size());
  }
  if (context_.virtual_time()) {
    const double cost =
        context_.cost->seq_gather_seconds(context_.grid_cells, copied_bytes);
    context_.charge(common::routine::kGather, 0.0, cost);
  }
  return out;
}

void LocalCommManager::publish(std::span<const std::uint8_t> genome_bytes) {
  store_.publish(cell_, {genome_bytes.begin(), genome_bytes.end()});
}

MpiCommManager::MpiCommManager(minimpi::Comm& local_comm) : local_comm_(local_comm) {}

std::vector<std::vector<std::uint8_t>> MpiCommManager::exchange(
    std::span<const std::uint8_t> genome_bytes) {
  return local_comm_.allgather(genome_bytes);
}

namespace {
// User tag for asynchronous genome publications on the LOCAL communicator.
constexpr int kTagAsyncGenome = 100;
}  // namespace

AsyncMpiCommManager::AsyncMpiCommManager(minimpi::Comm& local_comm, const evolve::Grid& grid)
    : local_comm_(local_comm),
      grid_(grid),
      latest_(static_cast<std::size_t>(grid.size())) {
  CG_EXPECT(grid_.size() == local_comm_.size());
}

std::vector<std::vector<std::uint8_t>> AsyncMpiCommManager::exchange(
    std::span<const std::uint8_t> genome_bytes) {
  const int me = cell_id();
  // Publish to the cells whose sub-populations include this one (with the
  // default symmetric neighborhoods these are exactly our own neighbors).
  for (const int target : grid_.influenced_by(me)) {
    local_comm_.send(target, kTagAsyncGenome, genome_bytes);
  }
  // Drain everything that has (causally) arrived, newest-per-source wins.
  while (auto m = local_comm_.try_recv_arrived(minimpi::kAnySource, kTagAsyncGenome)) {
    latest_[m->source] = std::move(m->payload);
  }
  // Hand back copies so the caller's install step owns its bytes.
  std::vector<std::vector<std::uint8_t>> out(latest_.size());
  for (const int neighbor : grid_.neighbors_of(me)) {
    out[neighbor] = latest_[neighbor];
  }
  return out;
}

}  // namespace cellgan::core
