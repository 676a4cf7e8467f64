// DataPlane — an inert name. Every run reads its batches through
// datastore::StoreFeed; the name stays only because the ledger still passes
// one to make_feed (bench/ledger/ledger.cpp:800). It goes, with
// TrainingConfig::data_plane, once ROADMAP item 1 stops the ledger naming it.
#pragma once

#include <cstdint>

namespace cellgan::datastore {

/// Values are checkpoint bytes (TrainingConfig serialization); 0 is unused.
enum class DataPlane : std::uint32_t { kLegacy = 1, kStore = 2 };

}  // namespace cellgan::datastore
