#include "minimpi/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

#include "common/log.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/errors.hpp"

namespace cellgan::minimpi {

namespace {

/// Internal tag of the distributed split rendezvous; far below both the user
/// range (>= 0) and the collectives' internal tags (comm.cpp, -2..-6).
constexpr int kTagSplit = -100;

/// Deadline for the distributed split rendezvous (a dead peer then surfaces
/// as TimeoutError instead of hanging the split forever).
constexpr std::chrono::seconds kSplitTimeout{120};

/// Process-independent child-communicator key: every member of a split
/// derives the same value from the parent's key, the split sequence number
/// and its color (splitmix64 finalizer — collision odds are negligible and
/// create_context_locked checks anyway).
std::uint64_t derive_context_key(std::uint64_t parent_key, int round, int color) {
  std::uint64_t x = parent_key + 0x9e3779b97f4a7c15ULL;
  x ^= static_cast<std::uint64_t>(round + 1) * 0xbf58476d1ce4e5b9ULL;
  x ^= static_cast<std::uint64_t>(color + 2) * 0x94d049bb133111ebULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  // Key 0 is reserved for WORLD.
  return x == 0 ? 1 : x;
}

// Split contributions ride the shared little-endian codec (transport.hpp).
void pack_i32(std::vector<std::uint8_t>& out, std::int32_t value) {
  std::uint8_t raw[4];
  store_le32(raw, static_cast<std::uint32_t>(value));
  out.insert(out.end(), raw, raw + 4);
}

std::int32_t unpack_i32(const std::uint8_t* p) {
  return static_cast<std::int32_t>(load_le32(p));
}

}  // namespace

Runtime::Runtime(int world_size, NetModelConfig net_config, std::uint64_t seed)
    : world_size_(world_size), net_(net_config) {
  CG_EXPECT(world_size >= 1);
  transport_ = std::make_unique<InProcTransport>();
  transport_->set_sink([this](Frame frame) { ingest(std::move(frame)); });
  rank_states_.reserve(world_size_);
  common::Rng seeder(seed);
  for (int r = 0; r < world_size_; ++r) {
    auto state = std::make_unique<RankState>();
    state->jitter_rng = seeder.fork(static_cast<std::uint64_t>(r));
    rank_states_.push_back(std::move(state));
  }
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  std::vector<int> world_members(world_size_);
  for (int r = 0; r < world_size_; ++r) world_members[r] = r;
  create_context_locked(std::move(world_members), /*key=*/0);
}

Runtime::Runtime(int world_size, int local_rank, std::unique_ptr<Transport> transport,
                 NetModelConfig net_config, std::uint64_t seed)
    : world_size_(world_size), local_rank_(local_rank), net_(net_config),
      transport_(std::move(transport)) {
  CG_EXPECT(world_size >= 1);
  CG_EXPECT(local_rank >= 0 && local_rank < world_size);
  CG_EXPECT(transport_ != nullptr);
  // Only the hosted rank owns state; its jitter stream is derived exactly as
  // the in-process simulation derives rank `local_rank`'s, so per-rank
  // behaviour is bit-identical across deployment modes.
  rank_states_.resize(world_size_);
  common::Rng seeder(seed);
  rank_states_[local_rank_] = std::make_unique<RankState>();
  rank_states_[local_rank_]->jitter_rng =
      seeder.fork(static_cast<std::uint64_t>(local_rank_));
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    std::vector<int> world_members(world_size_);
    for (int r = 0; r < world_size_; ++r) world_members[r] = r;
    create_context_locked(std::move(world_members), /*key=*/0);
  }
  transport_->set_sink([this](Frame frame) { ingest(std::move(frame)); });
  transport_->set_peer_loss_handler(
      [this](int world_rank, bool clean_eof, const std::string& reason) {
        note_peer_loss(world_rank, clean_eof, reason);
      });
  transport_->start();  // blocking rendezvous; BootstrapError propagates
}

Runtime::~Runtime() {
  if (transport_ != nullptr) transport_->shutdown();
}

RankState& Runtime::rank_state(int world_rank) {
  CG_EXPECT(world_rank >= 0 && world_rank < world_size_);
  CG_EXPECT(rank_states_[world_rank] != nullptr);  // distributed: local only
  return *rank_states_[world_rank];
}

CommContext& Runtime::context(int context_id) {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  CG_EXPECT(context_id >= 0 && context_id < static_cast<int>(contexts_.size()));
  return *contexts_[context_id];
}

int Runtime::create_context_locked(std::vector<int> members, std::uint64_t key) {
  CG_EXPECT(!context_of_key_.contains(key));
  auto ctx = std::make_unique<CommContext>();
  ctx->key = key;
  ctx->members = std::move(members);
  ctx->mailboxes.reserve(ctx->members.size());
  for (std::size_t i = 0; i < ctx->members.size(); ++i) {
    ctx->mailboxes.push_back(std::make_unique<Mailbox>());
  }
  contexts_.push_back(std::move(ctx));
  const int id = static_cast<int>(contexts_.size()) - 1;
  context_of_key_[key] = id;
  // Frames that raced ahead of this communicator's creation are delivered
  // now, in arrival order (preserving the per-(source, tag) FIFO guarantee).
  if (const auto early = pending_.find(key); early != pending_.end()) {
    for (Frame& frame : early->second) {
      deliver_locked(*contexts_[id], std::move(frame));
    }
    pending_.erase(early);
  }
  return id;
}

void Runtime::route(int context_id, int dst_local_rank, Message message) {
  OutboundFrame frame;
  int dst_world = -1;
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    CG_EXPECT(context_id >= 0 && context_id < static_cast<int>(contexts_.size()));
    const CommContext& ctx = *contexts_[context_id];
    CG_EXPECT(dst_local_rank >= 0 &&
              dst_local_rank < static_cast<int>(ctx.members.size()));
    frame.context_key = ctx.key;
    dst_world = ctx.members[dst_local_rank];
  }
  frame.src_rank = message.source;
  frame.dst_rank = dst_local_rank;
  frame.tag = message.tag;
  frame.arrival_vt = message.arrival_vt;
  frame.payload = share_payload(std::move(message.payload));
  transport_->send(dst_world, std::move(frame));
}

void Runtime::deliver_locked(CommContext& context, Frame frame) {
  const int members = static_cast<int>(context.members.size());
  if (frame.dst_rank < 0 || frame.dst_rank >= members) {
    throw TransportError("frame addressed to rank " + std::to_string(frame.dst_rank) +
                         " of a " + std::to_string(members) +
                         "-member communicator");
  }
  if (distributed() && context.members[frame.dst_rank] != local_rank_) {
    throw TransportError(
        "frame addressed to world rank " +
        std::to_string(context.members[frame.dst_rank]) +
        " delivered to the process hosting rank " + std::to_string(local_rank_));
  }
  Message message;
  message.source = frame.src_rank;
  message.tag = frame.tag;
  message.arrival_vt = frame.arrival_vt;
  message.payload = std::move(frame.payload);
  context.mailboxes[frame.dst_rank]->push(std::move(message));
}

void Runtime::ingest(Frame frame) {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  const auto it = context_of_key_.find(frame.context_key);
  if (it == context_of_key_.end()) {
    // In-process, every context exists before anyone can address it.
    CG_EXPECT(distributed());
    // Distributed: either an early arrival for a communicator this process
    // is mid-split on (drained by create_context_locked) or a stray with a
    // wrong context id (visible through pending_frames()).
    pending_[frame.context_key].push_back(std::move(frame));
    return;
  }
  deliver_locked(*contexts_[it->second], std::move(frame));
}

void Runtime::note_peer_loss(int world_rank, bool clean_eof, std::string reason) {
  if (!distributed()) return;  // in-process worlds share one fate anyway
  std::lock_guard<std::mutex> lock(losses_mutex_);
  losses_.try_emplace(world_rank, PeerLoss{clean_eof, std::move(reason)});
}

bool Runtime::peer_lost(int world_rank) const {
  std::lock_guard<std::mutex> lock(losses_mutex_);
  return losses_.contains(world_rank);
}

std::vector<int> Runtime::lost_peers() const {
  std::lock_guard<std::mutex> lock(losses_mutex_);
  std::vector<int> ranks;
  ranks.reserve(losses_.size());
  for (const auto& [rank, loss] : losses_) ranks.push_back(rank);
  return ranks;
}

std::string Runtime::peer_loss_reason(int world_rank) const {
  std::lock_guard<std::mutex> lock(losses_mutex_);
  const auto it = losses_.find(world_rank);
  return it == losses_.end() ? std::string() : it->second.reason;
}

std::size_t Runtime::pending_frames() const {
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  std::size_t total = 0;
  for (const auto& [key, frames] : pending_) total += frames.size();
  return total;
}

std::vector<Runtime::RankResult> Runtime::run(
    const std::function<void(Comm&)>& rank_main) {
  if (distributed()) {
    common::set_thread_log_label("rank " + std::to_string(local_rank_));
    Comm comm(*this, /*context_id=*/0, /*local_rank=*/local_rank_);
    // Named errors (TimeoutError, TransportError, BootstrapError) propagate:
    // the caller owns this process' boundary and exit status.
    rank_main(comm);
    std::vector<RankResult> results(static_cast<std::size_t>(world_size_));
    results[static_cast<std::size_t>(local_rank_)].virtual_time_s =
        rank_states_[local_rank_]->clock.now();
    results[static_cast<std::size_t>(local_rank_)].profiler =
        rank_states_[local_rank_]->profiler;
    return results;
  }

  std::vector<std::thread> threads;
  threads.reserve(world_size_);
  for (int r = 0; r < world_size_; ++r) {
    threads.emplace_back([this, r, &rank_main] {
      common::set_thread_log_label("rank " + std::to_string(r));
      Comm comm(*this, /*context_id=*/0, /*local_rank=*/r);
      try {
        rank_main(comm);
      } catch (const std::exception& e) {
        // Fail-stop, like an MPI job: one rank's failure kills the world.
        common::log_error() << "rank " << r << " terminated with exception: " << e.what();
        std::abort();
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<RankResult> results;
  results.reserve(world_size_);
  for (int r = 0; r < world_size_; ++r) {
    RankResult result;
    result.virtual_time_s = rank_states_[r]->clock.now();
    result.profiler = rank_states_[r]->profiler;
    results.push_back(std::move(result));
  }
  return results;
}

int Runtime::split_context(int parent_context, int caller_local_rank, int color,
                           int key) {
  if (distributed()) {
    return split_context_distributed(parent_context, caller_local_rank, color, key);
  }
  std::unique_lock<std::mutex> lock(contexts_mutex_);
  CG_EXPECT(parent_context >= 0 && parent_context < static_cast<int>(contexts_.size()));
  CommContext& parent = *contexts_[parent_context];
  const int n = static_cast<int>(parent.members.size());
  CG_EXPECT(caller_local_rank >= 0 && caller_local_rank < n);

  auto& rounds = split_round_[parent_context];
  if (static_cast<int>(rounds.size()) < n) rounds.resize(n, 0);
  const int round = rounds[caller_local_rank]++;

  const auto group_key = std::make_pair(parent_context, round);
  SplitGroup& group = splits_[group_key];
  if (group.colors.empty()) {
    group.colors.assign(n, -2);
    group.keys.assign(n, 0);
  }
  group.colors[caller_local_rank] = color;
  group.keys[caller_local_rank] = key;
  ++group.arrived;

  if (group.arrived == n) {
    // Last to arrive builds all the new contexts.
    std::map<int, std::vector<std::pair<std::pair<int, int>, int>>> by_color;
    for (int r = 0; r < n; ++r) {
      if (group.colors[r] >= 0) {
        by_color[group.colors[r]].push_back({{group.keys[r], r}, r});
      }
    }
    for (auto& [c, entries] : by_color) {
      std::sort(entries.begin(), entries.end());
      std::vector<int> members;
      members.reserve(entries.size());
      for (const auto& [sort_key, parent_rank] : entries) {
        members.push_back(parent.members[parent_rank]);
      }
      const int ctx_id =
          create_context_locked(std::move(members),
                                derive_context_key(parent.key, round, c));
      for (const auto& [sort_key, parent_rank] : entries) {
        group.context_of_member[parent_rank] = ctx_id;
      }
    }
    group.built = true;
    split_cv_.notify_all();
  } else {
    split_cv_.wait(lock, [&group] { return group.built; });
  }

  if (color < 0) return -1;
  auto it = group.context_of_member.find(caller_local_rank);
  CG_ENSURE(it != group.context_of_member.end());
  return it->second;
}

int Runtime::split_context_distributed(int parent_context, int caller_local_rank,
                                       int color, int key) {
  std::vector<int> members;
  std::uint64_t parent_key = 0;
  Mailbox* my_mailbox = nullptr;
  int round = 0;
  {
    std::lock_guard<std::mutex> lock(contexts_mutex_);
    CG_EXPECT(parent_context >= 0 &&
              parent_context < static_cast<int>(contexts_.size()));
    CommContext& parent = *contexts_[parent_context];
    const int n = static_cast<int>(parent.members.size());
    CG_EXPECT(caller_local_rank >= 0 && caller_local_rank < n);
    CG_EXPECT(parent.members[caller_local_rank] == local_rank_);
    members = parent.members;
    parent_key = parent.key;
    my_mailbox = parent.mailboxes[caller_local_rank].get();
    auto& rounds = split_round_[parent_context];
    if (rounds.empty()) rounds.resize(1, 0);
    round = rounds[0]++;  // one local caller per process
  }
  const int n = static_cast<int>(members.size());

  // Direct exchange of (color, key) with every other member over the parent
  // communicator — the collective part of MPI_Comm_split. Control traffic:
  // no virtual-time cost and no clock movement, matching the in-process
  // split, which is free.
  std::vector<std::uint8_t> contribution;
  pack_i32(contribution, color);
  pack_i32(contribution, key);
  for (int r = 0; r < n; ++r) {
    if (r == caller_local_rank) continue;
    Message message;
    message.source = caller_local_rank;
    message.tag = kTagSplit;
    message.payload = contribution;
    route(parent_context, r, std::move(message));
  }

  std::vector<int> colors(n, -2);
  std::vector<int> keys(n, 0);
  colors[caller_local_rank] = color;
  keys[caller_local_rank] = key;
  const auto deadline = std::chrono::steady_clock::now() + kSplitTimeout;
  for (int r = 0; r < n; ++r) {
    if (r == caller_local_rank) continue;
    // Sliced wait so a peer whose stream is gone is named as PeerDeathError
    // right away (the recovery loop catches that) instead of burning the
    // whole split deadline into an unrecoverable TimeoutError.
    std::optional<Message> message;
    for (;;) {
      const auto slice = std::min(
          deadline, std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(100));
      message = my_mailbox->pop_until(r, kTagSplit, slice);
      if (message) break;
      if (peer_lost(members[r])) {
        throw PeerDeathError(members[r],
                             "split rendezvous: world rank " +
                                 std::to_string(members[r]) + " died (" +
                                 peer_loss_reason(members[r]) + ")");
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
    }
    if (!message) {
      throw TimeoutError("split rendezvous: no contribution from world rank " +
                         std::to_string(members[r]) + " within " +
                         std::to_string(kSplitTimeout.count()) + "s");
    }
    CG_EXPECT(message->payload.size() == 8);
    colors[r] = unpack_i32(message->payload.data());
    keys[r] = unpack_i32(message->payload.data() + 4);
  }

  if (color < 0) return -1;

  // Deterministic grouping, identical to the in-process path: members of the
  // caller's color, ordered by (key, parent rank).
  std::vector<std::pair<std::pair<int, int>, int>> entries;
  for (int r = 0; r < n; ++r) {
    if (colors[r] == color) entries.push_back({{keys[r], r}, r});
  }
  std::sort(entries.begin(), entries.end());
  std::vector<int> child_members;
  child_members.reserve(entries.size());
  for (const auto& [sort_key, parent_rank] : entries) {
    child_members.push_back(members[parent_rank]);
  }
  const std::uint64_t child_key = derive_context_key(parent_key, round, color);
  std::lock_guard<std::mutex> lock(contexts_mutex_);
  return create_context_locked(std::move(child_members), child_key);
}

}  // namespace cellgan::minimpi
