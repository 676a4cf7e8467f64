// Live-socket coverage of the TCP transport: worlds of 2-3 "processes"
// simulated by threads that each own a full distributed-mode Runtime +
// TcpTransport pair connected over loopback. Exercises the rendezvous
// bootstrap, framed p2p and collective traffic, the over-the-wire
// communicator split, stray-frame quarantine and bootstrap failure
// deadlines — all without forking, so the suite runs under ASan.
#include "minimpi/tcp_transport.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <thread>

#include "common/timer.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/errors.hpp"
#include "minimpi/runtime.hpp"

namespace cellgan::minimpi {
namespace {

/// Run `rank_main` on a world of `world_size` TCP-connected Runtimes, one
/// per thread. Rank 0 binds an ephemeral rendezvous port that the peers
/// learn through a shared future (exactly the launcher's role).
void run_tcp_world(int world_size,
                   const std::function<void(Runtime&, Comm&)>& rank_main) {
  std::promise<std::string> endpoint_promise;
  std::shared_future<std::string> endpoint = endpoint_promise.get_future().share();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    threads.emplace_back([&, rank] {
      TcpTransportOptions options;
      options.world_size = world_size;
      options.rank = rank;
      options.timeout_s = 30.0;
      std::unique_ptr<TcpTransport> transport;
      if (rank == 0) {
        options.rendezvous = "127.0.0.1:0";
        transport = std::make_unique<TcpTransport>(options);
        endpoint_promise.set_value(transport->rendezvous_endpoint());
      } else {
        options.rendezvous = endpoint.get();
        transport = std::make_unique<TcpTransport>(options);
      }
      Runtime runtime(world_size, rank, std::move(transport));
      runtime.run([&](Comm& world) { rank_main(runtime, world); });
    });
  }
  for (auto& thread : threads) thread.join();
}

TEST(TcpTransportTest, PointToPointEchoAcrossProcBoundary) {
  run_tcp_world(2, [](Runtime&, Comm& world) {
    if (world.rank() == 0) {
      const std::vector<std::uint8_t> ping = {1, 2, 3, 4};
      world.send(1, 10, ping);
      const Message pong = world.recv(1, 20);
      EXPECT_EQ(pong.payload, (std::vector<std::uint8_t>{4, 3, 2, 1}));
      EXPECT_EQ(pong.source, 1);
    } else {
      Message ping = world.recv(0, 10);
      std::reverse(ping.payload.begin(), ping.payload.end());
      world.send(0, 20, ping.payload);
    }
  });
}

TEST(TcpTransportTest, LargePayloadSurvivesFraming) {
  // Bigger than any single socket write is likely to carry at once, so the
  // receive path has to reassemble partial reads correctly.
  run_tcp_world(2, [](Runtime&, Comm& world) {
    constexpr std::size_t kBytes = 1 << 20;
    if (world.rank() == 0) {
      std::vector<std::uint8_t> blob(kBytes);
      for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
      }
      world.send(1, 1, blob);
      const Message ack = world.recv(1, 2);
      EXPECT_EQ(Comm::value_of<std::uint64_t>(ack), 0xACCE55ULL);
    } else {
      const Message blob = world.recv(0, 1);
      ASSERT_EQ(blob.payload.size(), kBytes);
      bool all_match = true;
      for (std::size_t i = 0; i < blob.payload.size(); ++i) {
        all_match &= blob.payload[i] ==
                     static_cast<std::uint8_t>(i * 2654435761u >> 13);
      }
      EXPECT_TRUE(all_match);
      world.send_value<std::uint64_t>(0, 2, 0xACCE55ULL);
    }
  });
}

TEST(TcpTransportTest, CollectivesRunOverTheWire) {
  run_tcp_world(3, [](Runtime&, Comm& world) {
    // barrier, bcast, gather, allgather, allreduce — the whole collective
    // surface the master/slave system uses, across real sockets.
    world.barrier();
    std::vector<std::uint8_t> config = {7, 7, 7};
    if (world.rank() != 0) config.clear();
    world.bcast(config, 0);
    EXPECT_EQ(config, (std::vector<std::uint8_t>{7, 7, 7}));

    const std::uint8_t mine = static_cast<std::uint8_t>(world.rank() + 1);
    const auto gathered = world.gather(std::span(&mine, 1), /*root=*/0);
    if (world.rank() == 0) {
      ASSERT_EQ(gathered.size(), 3u);
      for (int r = 0; r < 3; ++r) {
        ASSERT_EQ(gathered[static_cast<std::size_t>(r)].size(), 1u);
        EXPECT_EQ(gathered[static_cast<std::size_t>(r)][0], r + 1);
      }
    }

    const auto all = world.allgather(std::span(&mine, 1));
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r)][0], r + 1);
    }

    // A sum and a max, reduced over an allgather of doubles.
    const double value = static_cast<double>(world.rank());
    double sum = 0.0;
    double max = value;
    for (const auto& payload : world.allgather(std::span(
             reinterpret_cast<const std::uint8_t*>(&value), sizeof(value)))) {
      double v = 0.0;
      ASSERT_EQ(payload.size(), sizeof(v));
      std::memcpy(&v, payload.data(), sizeof(v));
      sum += v;
      max = std::max(max, v);
    }
    EXPECT_EQ(sum, 3.0);
    EXPECT_EQ(max, 2.0);
  });
}

TEST(TcpTransportTest, SplitBuildsConsistentCommunicatorsAcrossProcesses) {
  // The master/slave deployment's exact split sequence: LOCAL excludes rank
  // 0, GLOBAL reorders everyone. Contexts are negotiated over the wire and
  // the derived keys must agree, or the follow-up traffic would strand in
  // pending_frames().
  run_tcp_world(3, [](Runtime& runtime, Comm& world) {
    auto local = world.split(world.rank() == 0 ? -1 : 0, world.rank());
    auto global = world.split(0, -world.rank());  // reversed order by key
    ASSERT_TRUE(global.has_value());
    EXPECT_EQ(global->size(), 3);
    EXPECT_EQ(global->rank(), 2 - world.rank());

    if (world.rank() == 0) {
      EXPECT_FALSE(local.has_value());
    } else {
      ASSERT_TRUE(local.has_value());
      EXPECT_EQ(local->size(), 2);
      EXPECT_EQ(local->rank(), world.rank() - 1);
      // Neighbor exchange on the split communicator.
      const std::uint8_t mine = static_cast<std::uint8_t>(10 + world.rank());
      const auto exchanged = local->allgather(std::span(&mine, 1));
      EXPECT_EQ(exchanged[0][0], 11);
      EXPECT_EQ(exchanged[1][0], 12);
    }
    // Reordered GLOBAL still routes: everyone tells its GLOBAL-rank-0 (world
    // rank 2) its world rank.
    if (global->rank() != 0) {
      global->send_value<std::int32_t>(0, 9, world.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        const Message m = global->recv(kAnySource, 9);
        seen += Comm::value_of<std::int32_t>(m);
      }
      EXPECT_EQ(seen, 0 + 1);  // world ranks 0 and 1
    }
    world.barrier();  // nobody tears the mesh down mid-test
    EXPECT_EQ(runtime.pending_frames(), 0u);
  });
}

TEST(TcpTransportTest, StrayContextFrameIsQuarantined) {
  run_tcp_world(2, [](Runtime& runtime, Comm& world) {
    if (world.rank() == 0) {
      OutboundFrame stray;
      stray.context_key = 0xdecafbadULL;  // context that will never exist
      stray.src_rank = 0;
      stray.dst_rank = 0;
      runtime.transport().send(1, std::move(stray));
      world.send(1, 1, {});  // fence: arrives after the stray (same stream)
      world.recv(1, 2);
    } else {
      world.recv(0, 1);
      EXPECT_EQ(runtime.pending_frames(), 1u);
      world.send(0, 2, {});
    }
  });
}

TEST(TcpTransportTest, RecvTimeoutNamesTheSilentPeer) {
  run_tcp_world(2, [](Runtime&, Comm& world) {
    if (world.rank() == 0) {
      // Rank 1 never sends on tag 77: the deadline-aware receive must raise
      // the named error instead of hanging the world.
      EXPECT_THROW(world.recv_timeout(1, 77, 0.1), TimeoutError);
      world.send(1, 78, {});  // release the peer
    } else {
      world.recv(0, 78);
    }
  });
}

TEST(TcpTransportTest, PeerDeathRaisesNamedErrorInsteadOfHanging) {
  // A rank that vanishes (its transport tears down, exactly what SIGKILL
  // looks like from the outside: streams close) must surface on every
  // survivor's pending receive as PeerDeathError — quickly, with the dead
  // rank named, and without aborting the process or burning a long timeout.
  run_tcp_world(3, [](Runtime& runtime, Comm& world) {
    if (world.rank() == 2) return;  // "dies" right after bootstrap
    common::WallTimer detect;
    try {
      (void)world.recv(2, 77);
      FAIL() << "expected PeerDeathError";
    } catch (const PeerDeathError& e) {
      EXPECT_EQ(e.world_rank(), 2);
      EXPECT_NE(std::string(e.what()).find("2"), std::string::npos);
    }
    EXPECT_LT(detect.elapsed_s(), 10.0);
    EXPECT_TRUE(runtime.peer_lost(2));
    EXPECT_TRUE(world.peer_lost(2));
    // Sending to a lost peer is a silent drop, not a crash: the error
    // belongs to whoever waits on the reply.
    world.send(2, 99, {});
    // The survivors' own link is untouched.
    const std::vector<std::uint8_t> ping = {1};
    const std::vector<std::uint8_t> pong = {2};
    if (world.rank() == 0) {
      world.send(1, 5, ping);
      EXPECT_EQ(world.recv(1, 6).payload, pong);
    } else {
      EXPECT_EQ(world.recv(0, 5).payload, ping);
      world.send(0, 6, pong);
    }
  });
}

TEST(TcpTransportTest, MessagesDeliveredBeforeDeathStillArrive) {
  // Frames that reached the receiver before the stream was lost always win
  // over the loss report: a peer's dying words are not discarded.
  run_tcp_world(2, [](Runtime&, Comm& world) {
    if (world.rank() == 1) {
      const std::vector<std::uint8_t> last_words = {42};
      world.send(0, 5, last_words);
      return;  // gone immediately after the send
    }
    EXPECT_EQ(world.recv(1, 5).payload, (std::vector<std::uint8_t>{42}));
    EXPECT_THROW((void)world.recv(1, 6), PeerDeathError);
  });
}

TEST(TcpTransportTest, BootstrapTimesOutWithNamedError) {
  // Nothing listens on the rendezvous endpoint: the would-be rank 1 must
  // fail its bootstrap within the deadline, not hang.
  TcpTransportOptions options;
  options.world_size = 2;
  options.rank = 1;
  options.rendezvous = "127.0.0.1:1";  // reserved port; nothing listens
  options.timeout_s = 0.3;
  auto transport = std::make_unique<TcpTransport>(options);
  EXPECT_THROW(
      {
        Runtime runtime(2, 1, std::move(transport));
      },
      BootstrapError);
}

TEST(TcpTransportTest, WorldSizeMismatchIsRejectedAtBootstrap) {
  // Rank 0 expects a world of 2; a peer configured for a world of 3 learns
  // the mismatch from the endpoint table and fails with a named error. That
  // peer registered and then vanished, so rank 0's pending receive names it
  // as PeerDeathError right away — errors with names on both sides, no
  // hang, no deadline burned.
  std::promise<std::string> endpoint_promise;
  auto endpoint = endpoint_promise.get_future().share();
  std::thread rank0([&] {
    TcpTransportOptions options;
    options.world_size = 2;
    options.rank = 0;
    options.rendezvous = "127.0.0.1:0";
    options.timeout_s = 10.0;
    auto transport = std::make_unique<TcpTransport>(options);
    endpoint_promise.set_value(transport->rendezvous_endpoint());
    Runtime runtime(2, 0, std::move(transport));
    Comm world(runtime, 0, 0);
    try {
      (void)world.recv_timeout(1, 1, 0.2);
      FAIL() << "expected PeerDeathError or TimeoutError";
    } catch (const PeerDeathError& e) {
      EXPECT_EQ(e.world_rank(), 1);  // the usual: EOF beats the deadline
    } catch (const TimeoutError&) {
      // Loss not yet reported when the deadline hit: still a named error.
    }
  });
  TcpTransportOptions options;
  options.world_size = 3;  // wrong
  options.rank = 1;
  options.rendezvous = endpoint.get();
  options.timeout_s = 10.0;
  auto transport = std::make_unique<TcpTransport>(options);
  try {
    Runtime runtime(3, 1, std::move(transport));
    FAIL() << "expected BootstrapError";
  } catch (const BootstrapError& e) {
    EXPECT_NE(std::string(e.what()).find("world size"), std::string::npos);
  }
  rank0.join();
}

TEST(TcpTransportTest, HeldRendezvousPortIsRankZerosAlone) {
  // The launcher's order of events: bind the rendezvous port, hand the
  // socket to rank 0, and only later does rank 0 listen. In between, no
  // other socket can bind the port, and rank 0 listens on the held socket
  // rather than binding the port again.
  std::string error;
  const int held = listen_on(Endpoint{"127.0.0.1", 0}, &error);
  ASSERT_GE(held, 0) << error;
  const Endpoint endpoint = local_endpoint_of(held);
  adopt_rendezvous_listener(held);
  EXPECT_LT(listen_on(endpoint, &error), 0) << "another socket took the held port";

  constexpr int kWorld = 2;
  std::vector<std::thread> threads;
  for (int rank = 0; rank < kWorld; ++rank) {
    threads.emplace_back([&, rank] {
      TcpTransportOptions options;
      options.world_size = kWorld;
      options.rank = rank;
      options.timeout_s = 30.0;
      options.rendezvous = endpoint.to_string();
      auto transport = std::make_unique<TcpTransport>(options);
      if (rank == 0) {
        EXPECT_EQ(transport->rendezvous_endpoint(), endpoint.to_string());
      }
      Runtime runtime(kWorld, rank, std::move(transport));
      runtime.run([](Comm& world) {
        EXPECT_EQ(world.size(), 2);
        world.barrier();
      });
    });
  }
  for (auto& thread : threads) thread.join();
  // The held socket outlives the world, ready for a respawned rank 0.
  EXPECT_LT(listen_on(endpoint, &error), 0);
  const int again = adopted_listener_for(endpoint);
  EXPECT_GE(again, 0);
  if (again >= 0) ::close(again);
}

}  // namespace
}  // namespace cellgan::minimpi
