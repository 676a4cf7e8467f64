#include "minimpi/bootstrap.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/expect.hpp"
#include "minimpi/errors.hpp"

namespace cellgan::minimpi {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

constexpr std::uint32_t kBootMagic = 0x31424743;  // "CGB1"
enum BootType : std::uint8_t { kBootRegister = 1, kBootTable = 2, kBootHello = 3 };

double seconds_left(Clock::time_point deadline) {
  const double s = std::chrono::duration<double>(deadline - Clock::now()).count();
  return s > 0.0 ? s : 0.0;
}

void set_recv_timeout(int fd, double seconds) {
  if (seconds < 1e-3) seconds = 1e-3;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

[[noreturn]] void boot_fail(const std::string& message) {
  throw BootstrapError("bootstrap: " + message);
}

bool read_exact_until(int fd, void* data, std::size_t n, Clock::time_point deadline) {
  set_recv_timeout(fd, seconds_left(deadline));
  return read_exact(fd, data, n);
}

// Bootstrap control messages: [magic u32][type u8][body...], little-endian
// (integer codec shared with the frame format — transport.hpp).
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t raw[4];
  store_le32(raw, v);
  out.insert(out.end(), raw, raw + 4);
}

void send_boot_message(int fd, BootType type, const std::vector<std::uint8_t>& body,
                       const std::string& what) {
  std::vector<std::uint8_t> wire;
  wire.reserve(5 + body.size());
  put_u32(wire, kBootMagic);
  wire.push_back(static_cast<std::uint8_t>(type));
  wire.insert(wire.end(), body.begin(), body.end());
  if (!write_all(fd, wire.data(), wire.size())) {
    boot_fail("cannot send " + what + ": " + std::strerror(errno));
  }
}

BootType read_boot_header(int fd, Clock::time_point deadline, const std::string& what) {
  std::uint8_t header[5];
  if (!read_exact_until(fd, header, sizeof(header), deadline)) {
    boot_fail("reading " + what + ": peer closed or timed out");
  }
  if (load_le32(header) != kBootMagic) {
    boot_fail("reading " + what + ": not a cellgan bootstrap message");
  }
  return static_cast<BootType>(header[4]);
}

std::uint32_t read_u32_field(int fd, Clock::time_point deadline, const std::string& what) {
  std::uint8_t raw[4];
  if (!read_exact_until(fd, raw, sizeof(raw), deadline)) {
    boot_fail("reading " + what + ": peer closed or timed out");
  }
  return load_le32(raw);
}

std::string read_string_field(int fd, Clock::time_point deadline, const std::string& what) {
  const std::uint32_t length = read_u32_field(fd, deadline, what);
  if (length > 1024) boot_fail("reading " + what + ": implausible string length");
  std::string value(length, '\0');
  if (length > 0 && !read_exact_until(fd, value.data(), length, deadline)) {
    boot_fail("reading " + what + ": peer closed or timed out");
  }
  return value;
}

int accept_until(int listen_fd, Clock::time_point deadline, const std::string& what) {
  for (;;) {
    pollfd pfd{listen_fd, POLLIN, 0};
    const double left = seconds_left(deadline);
    if (left <= 0.0) boot_fail(what + ": timed out waiting for a connection");
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) boot_fail(what + ": timed out waiting for a connection");
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      boot_fail(what + ": accept failed: " + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }
}

/// Closes an accepted socket unless it is released into the mesh — the
/// handshake reads between accept and registration can throw.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  int get() const { return fd_; }
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_;
};

}  // namespace

// ---- Endpoint ---------------------------------------------------------------

std::string Endpoint::to_string() const {
  return host + ":" + std::to_string(port);
}

std::optional<Endpoint> Endpoint::parse(const std::string& text, std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<Endpoint> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const auto colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return fail("endpoint '" + text + "' is not host:port");
  }
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  if (port_text.find_first_not_of("0123456789") != std::string::npos) {
    return fail("endpoint '" + text + "' has a non-numeric port");
  }
  const unsigned long port = std::strtoul(port_text.c_str(), nullptr, 10);
  if (port > 65535) return fail("endpoint '" + text + "' port out of range");
  endpoint.port = static_cast<std::uint16_t>(port);
  in_addr probe{};
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &probe) != 1) {
    return fail("endpoint '" + text + "' host is not a numeric IPv4 address");
  }
  return endpoint;
}

// ---- environment ------------------------------------------------------------

std::optional<WorldEnv> world_from_env(std::string* error) {
  const auto fail = [&](const std::string& message) -> std::optional<WorldEnv> {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };
  const auto read_int = [&](const char* name, int& out) {
    const char* value = std::getenv(name);
    if (value == nullptr || *value == '\0') return false;
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (end == value || *end != '\0') return false;
    out = static_cast<int>(parsed);
    return true;
  };
  WorldEnv env;
  if (!read_int(kEnvRank, env.rank)) {
    return fail(std::string(kEnvRank) + " is not set to a rank number");
  }
  if (!read_int(kEnvWorld, env.world_size)) {
    return fail(std::string(kEnvWorld) + " is not set to a world size");
  }
  const char* endpoint = std::getenv(kEnvEndpoint);
  if (endpoint == nullptr || *endpoint == '\0') {
    return fail(std::string(kEnvEndpoint) + " is not set to rank 0's host:port");
  }
  env.rendezvous = endpoint;
  std::string endpoint_error;
  if (!Endpoint::parse(env.rendezvous, &endpoint_error)) return fail(endpoint_error);
  if (env.world_size < 1) return fail(std::string(kEnvWorld) + " must be >= 1");
  if (env.rank < 0 || env.rank >= env.world_size) {
    return fail(std::string(kEnvRank) + " must be in [0, " +
                std::to_string(env.world_size) + ")");
  }
  return env;
}

// ---- socket helpers ---------------------------------------------------------

int listen_on(const Endpoint& endpoint, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error != nullptr) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad listen host '" + endpoint.host + "'";
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    if (error != nullptr) {
      *error = "cannot listen on " + endpoint.to_string() + ": " + std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  return fd;
}

Endpoint local_endpoint_of(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  CG_EXPECT(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  char host[INET_ADDRSTRLEN] = {0};
  ::inet_ntop(AF_INET, &addr.sin_addr, host, sizeof(host));
  return Endpoint{host, ntohs(addr.sin_port)};
}

int connect_with_retry(const Endpoint& endpoint, double timeout_s, std::string* error) {
  const auto deadline = deadline_after(timeout_s);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(endpoint.port);
  if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr.sin_addr) != 1) {
    if (error != nullptr) *error = "bad connect host '" + endpoint.host + "'";
    return -1;
  }
  int last_errno = 0;
  do {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last_errno = errno;
      break;
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    last_errno = errno;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (Clock::now() < deadline);
  if (error != nullptr) {
    *error = "cannot connect to " + endpoint.to_string() + " within " +
             std::to_string(timeout_s) + "s: " + std::strerror(last_errno);
  }
  return -1;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t wrote = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) return false;
    sent += static_cast<std::size_t>(wrote);
  }
  return true;
}

bool write_frame(int fd, const FrameHeader& header,
                 std::span<const std::uint8_t> payload) {
  std::array<std::uint8_t, kFrameHeaderBytes> head;
  encode_frame_header(header, payload.size(), head);
  std::array<iovec, 2> parts{{
      {head.data(), head.size()},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()},
  }};
  msghdr message{};
  message.msg_iov = parts.data();
  message.msg_iovlen = payload.empty() ? 1 : 2;
  while (message.msg_iovlen > 0) {
    const ssize_t wrote = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (wrote == 0) return false;
    // Skip what went out: whole iovecs first, then into the next one.
    auto left = static_cast<std::size_t>(wrote);
    while (message.msg_iovlen > 0 && left >= message.msg_iov->iov_len) {
      left -= message.msg_iov->iov_len;
      ++message.msg_iov;
      --message.msg_iovlen;
    }
    if (message.msg_iovlen > 0) {
      iovec& next = *message.msg_iov;
      next.iov_base = static_cast<std::uint8_t*>(next.iov_base) + left;
      next.iov_len -= left;
    }
  }
  return true;
}

bool read_exact(int fd, void* data, std::size_t n, std::size_t* got) {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t received = 0;
  while (received < n) {
    const ssize_t read = ::recv(fd, p + received, n - received, 0);
    if (read < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (read == 0) break;  // EOF
    received += static_cast<std::size_t>(read);
  }
  if (got != nullptr) *got = received;
  return received == n;
}

namespace {
std::atomic<int> g_adopted_listener{-1};
}  // namespace

void adopt_rendezvous_listener(int listen_fd) {
  CG_EXPECT(listen_fd >= 0);
  g_adopted_listener.store(listen_fd);
}

int adopted_listener_for(const Endpoint& endpoint) {
  const int fd = g_adopted_listener.load();
  if (fd < 0) return -1;
  const Endpoint bound = local_endpoint_of(fd);
  if (bound.port != endpoint.port || bound.host != endpoint.host) return -1;
  return ::fcntl(fd, F_DUPFD_CLOEXEC, 0);
}

// ---- mesh bootstrap ---------------------------------------------------------

namespace {

void bootstrap_mesh_impl(int listen_fd, int rank, int world_size,
                         const Endpoint& rendezvous, Clock::time_point deadline,
                         Mesh& mesh) {
  mesh.peer_fds.assign(static_cast<std::size_t>(world_size), -1);
  mesh.endpoints.assign(static_cast<std::size_t>(world_size), "");
  mesh.endpoints[static_cast<std::size_t>(rank)] =
      local_endpoint_of(listen_fd).to_string();
  if (world_size == 1) return;

  if (rank == 0) {
    // Collect one REGISTER per peer; the registration connection becomes the
    // 0 <-> peer mesh link.
    for (int i = 1; i < world_size; ++i) {
      FdGuard fd(accept_until(listen_fd, deadline,
                              "rank 0 rendezvous (" + std::to_string(i - 1) +
                                  "/" + std::to_string(world_size - 1) +
                                  " peers registered)"));
      if (read_boot_header(fd.get(), deadline, "registration") != kBootRegister) {
        boot_fail("rendezvous received a non-registration message");
      }
      const int peer =
          static_cast<int>(read_u32_field(fd.get(), deadline, "registration rank"));
      if (peer < 1 || peer >= world_size) {
        boot_fail("registration from out-of-range rank " + std::to_string(peer));
      }
      if (mesh.peer_fds[static_cast<std::size_t>(peer)] != -1) {
        boot_fail("rank " + std::to_string(peer) + " registered twice");
      }
      mesh.endpoints[static_cast<std::size_t>(peer)] =
          read_string_field(fd.get(), deadline, "registration endpoint");
      mesh.peer_fds[static_cast<std::size_t>(peer)] = fd.release();
    }
    // Publish the rank -> endpoint table to everyone.
    std::vector<std::uint8_t> body;
    put_u32(body, static_cast<std::uint32_t>(world_size));
    for (const std::string& endpoint : mesh.endpoints) {
      put_u32(body, static_cast<std::uint32_t>(endpoint.size()));
      body.insert(body.end(), endpoint.begin(), endpoint.end());
    }
    for (int i = 1; i < world_size; ++i) {
      send_boot_message(mesh.peer_fds[static_cast<std::size_t>(i)], kBootTable, body,
                        "endpoint table to rank " + std::to_string(i));
    }
    return;
  }

  // Peer: register with rank 0 and read the table back.
  std::string error;
  const int fd0 = connect_with_retry(rendezvous, seconds_left(deadline), &error);
  if (fd0 < 0) boot_fail("rank " + std::to_string(rank) + ": " + error);
  mesh.peer_fds[0] = fd0;
  // Advertise the address this host has on its route to rank 0 (the
  // listener itself is bound to the wildcard address, whose name would be
  // undialable) plus the listener's port — what peers on other machines
  // must dial.
  mesh.endpoints[static_cast<std::size_t>(rank)] =
      Endpoint{local_endpoint_of(fd0).host, local_endpoint_of(listen_fd).port}
          .to_string();
  {
    std::vector<std::uint8_t> body;
    put_u32(body, static_cast<std::uint32_t>(rank));
    const std::string& own = mesh.endpoints[static_cast<std::size_t>(rank)];
    put_u32(body, static_cast<std::uint32_t>(own.size()));
    body.insert(body.end(), own.begin(), own.end());
    send_boot_message(fd0, kBootRegister, body, "registration");
  }
  if (read_boot_header(fd0, deadline, "endpoint table") != kBootTable) {
    boot_fail("expected the endpoint table from rank 0");
  }
  const int advertised =
      static_cast<int>(read_u32_field(fd0, deadline, "table world size"));
  if (advertised != world_size) {
    boot_fail("rank 0 advertises world size " + std::to_string(advertised) +
              " but this rank was started with " + std::to_string(world_size));
  }
  for (int r = 0; r < world_size; ++r) {
    mesh.endpoints[static_cast<std::size_t>(r)] =
        read_string_field(fd0, deadline, "table endpoint of rank " + std::to_string(r));
  }

  // Fill in the mesh: dial every lower peer, accept every higher one.
  for (int j = 1; j < rank; ++j) {
    const auto peer_endpoint = Endpoint::parse(mesh.endpoints[static_cast<std::size_t>(j)]);
    if (!peer_endpoint) {
      boot_fail("rank " + std::to_string(j) + " advertised a bad endpoint '" +
                mesh.endpoints[static_cast<std::size_t>(j)] + "'");
    }
    const int fd = connect_with_retry(*peer_endpoint, seconds_left(deadline), &error);
    if (fd < 0) boot_fail("dialing rank " + std::to_string(j) + ": " + error);
    std::vector<std::uint8_t> body;
    put_u32(body, static_cast<std::uint32_t>(rank));
    send_boot_message(fd, kBootHello, body, "hello to rank " + std::to_string(j));
    mesh.peer_fds[static_cast<std::size_t>(j)] = fd;
  }
  for (int expected = rank + 1; expected < world_size; ++expected) {
    FdGuard fd(accept_until(listen_fd, deadline,
                            "rank " + std::to_string(rank) + " mesh accept"));
    if (read_boot_header(fd.get(), deadline, "mesh hello") != kBootHello) {
      boot_fail("mesh accept received a non-hello message");
    }
    const int peer = static_cast<int>(read_u32_field(fd.get(), deadline, "hello rank"));
    if (peer <= rank || peer >= world_size ||
        mesh.peer_fds[static_cast<std::size_t>(peer)] != -1) {
      boot_fail("mesh hello from unexpected rank " + std::to_string(peer));
    }
    mesh.peer_fds[static_cast<std::size_t>(peer)] = fd.release();
  }
  return;
}

}  // namespace

Mesh bootstrap_mesh(int listen_fd, int rank, int world_size,
                    const Endpoint& rendezvous, double timeout_s) {
  CG_EXPECT(listen_fd >= 0);
  CG_EXPECT(world_size >= 1);
  CG_EXPECT(rank >= 0 && rank < world_size);
  Mesh mesh;
  try {
    bootstrap_mesh_impl(listen_fd, rank, world_size, rendezvous,
                        deadline_after(timeout_s), mesh);
    return mesh;
  } catch (...) {
    // A partially-built mesh must not leak its sockets into a process that
    // outlives the failure (tests; a launcher that retries).
    for (const int fd : mesh.peer_fds) {
      if (fd >= 0) ::close(fd);
    }
    throw;
  }
}

}  // namespace cellgan::minimpi
