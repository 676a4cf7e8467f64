// Process-wide data-plane counters.
//
// Every SampleStore / StoreFeed in the process accumulates into one global
// set of relaxed atomics; core::Session snapshots them around a run and
// publishes the delta through the EventBus as a DataStoreRecord, so the JSONL
// telemetry stream shows how the data plane behaved (bytes served from the
// page cache, stores built).
// Relaxed ordering is enough: the counters are diagnostics, never control
// flow, and each is independently monotone.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/aligned.hpp"

namespace cellgan::datastore {

struct StatsSnapshot {
  std::uint64_t bytes_mapped = 0;     ///< live mmap bytes across all stores
  std::uint64_t stores_created = 0;   ///< SampleStore constructions
};

/// The live counters. Each on its own cache line: stores are created and
/// dropped from any lane or rank thread.
struct GlobalStats {
  common::CacheAligned<std::atomic<std::uint64_t>> bytes_mapped;
  common::CacheAligned<std::atomic<std::uint64_t>> stores_created;

  StatsSnapshot snapshot() const {
    StatsSnapshot s;
    s.bytes_mapped = bytes_mapped.value.load(std::memory_order_relaxed);
    s.stores_created = stores_created.value.load(std::memory_order_relaxed);
    return s;
  }
};

GlobalStats& stats();

}  // namespace cellgan::datastore
