// Rendezvous/bootstrap of a multi-process minimpi world.
//
// Deployment contract (mirrors an mpirun rank file): every process knows its
// rank, the world size, and the *rendezvous endpoint* — the host:port where
// rank 0 listens. Each peer binds its own ephemeral listener, registers
// (rank, endpoint) with rank 0, receives the full rank -> endpoint table
// back, and the processes then dial a full mesh (rank i connects to every
// j < i; the registration connection doubles as the 0<->i link). The three
// values arrive through the CELLGAN_RANK / CELLGAN_WORLD / CELLGAN_ENDPOINT
// environment variables, which is what `cellgan_launch` exports into the
// processes it forks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <span>
#include <vector>

#include "minimpi/transport.hpp"

namespace cellgan::minimpi {

inline constexpr const char* kEnvRank = "CELLGAN_RANK";
inline constexpr const char* kEnvWorld = "CELLGAN_WORLD";
inline constexpr const char* kEnvEndpoint = "CELLGAN_ENDPOINT";

/// host:port pair. Host must be a numeric IPv4 address (the launcher and the
/// two-terminal workflow both use explicit addresses; name resolution is a
/// deployment concern this layer stays out of).
struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  std::string to_string() const;
  static std::optional<Endpoint> parse(const std::string& text,
                                       std::string* error = nullptr);
};

/// The identity a process needs to join a world, as read from the
/// CELLGAN_* environment. nullopt (with a diagnostic naming the missing or
/// malformed variable) when the environment does not describe a world.
struct WorldEnv {
  int world_size = 0;
  int rank = -1;
  std::string rendezvous;  ///< rank 0's endpoint, unparsed
};

std::optional<WorldEnv> world_from_env(std::string* error);

// ---- socket helpers (shared by the TCP transport and the launcher) ---------

/// Bind + listen on `endpoint` (port 0 = ephemeral). Returns the fd, or -1
/// with `error` set.
int listen_on(const Endpoint& endpoint, std::string* error);

/// The actual bound address of a listening socket (resolves port 0).
Endpoint local_endpoint_of(int listen_fd);

/// Dial `endpoint`, retrying until `timeout_s` elapses (peers may start
/// before the listener is up). Returns the fd, or -1 with `error` set.
int connect_with_retry(const Endpoint& endpoint, double timeout_s,
                       std::string* error);

/// Write exactly `n` bytes (EINTR-safe, SIGPIPE suppressed). False on error.
bool write_all(int fd, const void* data, std::size_t n);

/// Write one frame: the wire header, built on the stack, and `payload`, sent
/// together by sendmsg over two iovecs — no copy of the payload, and never
/// two writes per frame unless the socket takes it in parts. Retries partial
/// writes and EINTR like write_all; the socket's send timeout still bounds
/// each call. False on error.
bool write_frame(int fd, const FrameHeader& header,
                 std::span<const std::uint8_t> payload);

/// Read exactly `n` bytes. False on EOF or error (check errno / bytes read
/// via `got` when provided).
bool read_exact(int fd, void* data, std::size_t n, std::size_t* got = nullptr);

/// Hand this process a socket that already listens on its world's
/// rendezvous endpoint. cellgan_launch binds it before forking the ranks and
/// holds it until they exit, so no other process can take the port before
/// rank 0 (or a respawned rank 0) listens. The socket stays open for the life
/// of the process.
void adopt_rendezvous_listener(int listen_fd);

/// A new descriptor of the adopted listener when it listens on `endpoint`;
/// -1 when there is none or it listens elsewhere.
int adopted_listener_for(const Endpoint& endpoint);

// ---- mesh bootstrap ---------------------------------------------------------

/// Fully-connected world as seen by one rank.
struct Mesh {
  /// One connected socket per peer world rank; entry [own rank] is -1.
  std::vector<int> peer_fds;
  /// rank -> listener endpoint table (informational once the mesh is up).
  std::vector<std::string> endpoints;
};

/// Run the rendezvous protocol over `listen_fd` (this rank's bound listener;
/// for rank 0 it must be bound to the rendezvous endpoint). Blocking; throws
/// BootstrapError naming the first rank/step that failed once `timeout_s`
/// elapses. On return every peer_fds entry is a connected stream socket.
Mesh bootstrap_mesh(int listen_fd, int rank, int world_size,
                    const Endpoint& rendezvous, double timeout_s);

}  // namespace cellgan::minimpi
