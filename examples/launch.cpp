// cellgan_launch — the local substitute for `mpirun`: fork one OS process
// per world rank (grid cells + 1 master), wire the rendezvous into each
// child through the CELLGAN_RANK / CELLGAN_WORLD / CELLGAN_ENDPOINT
// environment, and run every rank through the Session facade's
// `distributed-tcp` backend (real sockets between real processes).
//
//   ./cellgan_launch --grid 2 --iterations 4                # 5 processes
//   ./cellgan_launch --grid-rows 1 --grid-cols 2 --samples 64  # world of 3
//   ./cellgan_launch ... --verify-parity   # assert rank 0's RunResult JSON
//                                          # matches the in-process
//                                          # `distributed` backend bit for bit
//   ./cellgan_launch ... --recover-dir /tmp/ck --kill-rank 2 --kill-at-epoch 1
//                                          # chaos: rank 2 SIGKILLs itself
//                                          # after epoch 1; the launcher
//                                          # respawns it and the world rolls
//                                          # back to the last common
//                                          # checkpoint and replays — the
//                                          # result must equal an
//                                          # undisturbed run's
//
// Each rank writes <--rank-results>.rank<R>.json; rank 0's file carries the
// aggregated result (fitnesses, best cell, virtual makespan). The same
// backend works across terminals/machines without this launcher: start each
// process by hand with the three CELLGAN_* variables exported (see README
// "Running distributed").
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "minimpi/bootstrap.hpp"

namespace {

using namespace cellgan;

/// Fault-tolerance knobs forwarded to the rank processes through the
/// CELLGAN_* environment (see core/distributed_trainer.hpp).
struct LaunchFaults {
  std::string recover_dir;       ///< "" = recovery off
  int max_restarts = 3;
  int kill_rank = -1;            ///< chaos: which rank kills itself
  long long kill_at_epoch = -1;  ///< chaos: after which absolute epoch
  bool chaos() const { return kill_rank >= 0 && kill_at_epoch >= 0; }
};

/// Child body: become one rank of the world and run it through the Session
/// facade, exactly as a hand-started `cellgan_run --backend distributed-tcp`
/// would. `rendezvous_fd` is the launcher's listener on `endpoint` (-1 when
/// the user named the endpoint): rank 0 listens on it, the others close it.
/// Returns the process exit code.
int run_rank(core::RunSpec spec, int rank, int world_size,
             const std::string& endpoint, int rendezvous_fd,
             const std::string& results_prefix, const LaunchFaults& faults,
             bool doomed) {
  if (rendezvous_fd >= 0) {
    if (rank == 0) {
      minimpi::adopt_rendezvous_listener(rendezvous_fd);
    } else {
      ::close(rendezvous_fd);
    }
  }
  ::setenv(minimpi::kEnvRank, std::to_string(rank).c_str(), 1);
  ::setenv(minimpi::kEnvWorld, std::to_string(world_size).c_str(), 1);
  ::setenv(minimpi::kEnvEndpoint, endpoint.c_str(), 1);
  if (!faults.recover_dir.empty()) {
    ::setenv(core::kEnvRecoverDir, faults.recover_dir.c_str(), 1);
    ::setenv(core::kEnvMaxRestarts,
             std::to_string(faults.max_restarts).c_str(), 1);
  }
  if (doomed) {
    ::setenv(core::kEnvKillAtEpoch,
             std::to_string(faults.kill_at_epoch).c_str(), 1);
  } else {
    // A respawned replacement of the doomed rank must not die again.
    ::unsetenv(core::kEnvKillAtEpoch);
  }
  spec.backend = core::Backend::kDistributedTcp;
  spec.result_json = results_prefix + ".rank" + std::to_string(rank) + ".json";
  if (rank != 0) {
    // Observers ride the master: slaves forward their records to rank 0,
    // which republishes them through the bus. A slave opening the same
    // telemetry path would just clobber rank 0's stream.
    spec.observers.telemetry.clear();
  }
  try {
    core::Session session(std::move(spec));
    if (!session.prepare()) {
      std::fprintf(stderr, "[rank %d] %s\n", rank, session.error().c_str());
      return 2;
    }
    const core::RunResult result = session.run();
    if (rank == 0) {
      std::printf("[rank 0] world of %d done: best cell %d", world_size,
                  result.best_cell);
      if (result.virtual_s > 0.0) {
        std::printf(", virtual %.2f min", result.virtual_s / 60.0);
      }
      std::printf("\n");
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[rank %d] %s\n", rank, e.what());
    return 3;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// First `"key": value` line of a RunResult JSON (the result-level keys all
/// appear before the per-routine blocks), value trimmed of the trailing
/// comma. Empty when absent.
std::string extract_value(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = json.find(needle);
  if (at == std::string::npos) return "";
  const auto begin = at + needle.size();
  auto end = json.find('\n', begin);
  if (end == std::string::npos) end = json.size();
  std::string value = json.substr(begin, end - begin);
  while (!value.empty() && (value.back() == ',' || value.back() == ' ')) {
    value.pop_back();
  }
  while (!value.empty() && value.front() == ' ') value.erase(value.begin());
  return value;
}

/// Compare the deterministic result fields of two RunResult JSON artifacts.
/// Wall-clock and heartbeat counters legitimately differ run to run; the
/// training outcome and the virtual-time accounting must not.
bool results_match(const std::string& tcp_json, const std::string& inproc_json) {
  static const char* kKeys[] = {"virtual_s",   "virtual_min", "train_flops",
                                "best_cell",   "g_fitnesses", "d_fitnesses",
                                "ranks"};
  bool ok = true;
  for (const char* key : kKeys) {
    const std::string tcp_value = extract_value(tcp_json, key);
    const std::string inproc_value = extract_value(inproc_json, key);
    if (tcp_value.empty() || tcp_value != inproc_value) {
      std::fprintf(stderr, "parity mismatch on \"%s\":\n  tcp:     %s\n"
                   "  inproc:  %s\n", key, tcp_value.c_str(), inproc_value.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.iterations = 4;
  defaults.backend = core::Backend::kDistributedTcp;

  common::CliParser cli(
      "cellgan_launch: fork one process per rank and train over TCP");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("grid-rows", "0", "grid rows (0 = keep --grid / spec value)");
  cli.add_flag("grid-cols", "0", "grid cols (0 = keep --grid / spec value)");
  cli.add_flag("world", "0", "expected world size (0 = grid cells + 1)");
  cli.add_flag("endpoint", "", "rank 0 rendezvous host:port (default: a free"
               " loopback port this launcher holds until rank 0 listens)");
  cli.add_flag("rank-results", "cellgan_launch",
               "per-rank RunResult JSON prefix (<prefix>.rank<R>.json)");
  cli.add_flag("verify-parity", "false",
               "after the run, execute the in-process distributed backend on"
               " the same spec and require rank 0's result JSON to match");
  cli.add_flag("launch-timeout", "300", "seconds before hung ranks are killed");
  cli.add_flag("recover-dir", "",
               "enable rank-death recovery: rolling per-rank checkpoints live"
               " here and dead ranks are respawned (stale *.rck are wiped at"
               " launch)");
  cli.add_flag("max-restarts", "3",
               "generation restarts / respawns before the launch fails");
  cli.add_flag("kill-rank", "",
               "chaos: this slave rank raises SIGKILL on itself (needs"
               " --kill-at-epoch; unset = off)");
  cli.add_flag("kill-at-epoch", "",
               "chaos: the epoch after which --kill-rank dies (checkpoint"
               " already written; unset = off)");
  if (!cli.parse(argc, argv)) return 1;
  auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;

  // The launcher's own counts go through the settings table's parser, so a
  // malformed value is a named error rather than a prefix read.
  const auto count = [&cli](const char* flag, std::uint64_t min, std::uint64_t max,
                            std::uint64_t& out) {
    const std::string problem =
        core::parse_count(cli.get(flag), std::string("--") + flag, min, max, out);
    if (!problem.empty()) std::fprintf(stderr, "%s\n", problem.c_str());
    return problem.empty();
  };
  constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
  std::uint64_t grid_rows = 0, grid_cols = 0, world = 0, max_restarts = 0;
  std::uint64_t timeout_s = 0, kill_rank = 0, kill_at_epoch = 0;
  if (!count("grid-rows", 0, std::numeric_limits<std::uint32_t>::max(), grid_rows) ||
      !count("grid-cols", 0, std::numeric_limits<std::uint32_t>::max(), grid_cols) ||
      !count("world", 0, kIntMax, world) ||
      !count("max-restarts", 0, kIntMax, max_restarts) ||
      !count("launch-timeout", 1, kIntMax, timeout_s) ||
      (cli.was_set("kill-rank") && !count("kill-rank", 0, kIntMax, kill_rank)) ||
      (cli.was_set("kill-at-epoch") &&
       !count("kill-at-epoch", 0, std::numeric_limits<std::uint32_t>::max(),
              kill_at_epoch))) {
    return 1;
  }
  if (grid_rows > 0) spec->config.grid_rows = static_cast<std::uint32_t>(grid_rows);
  if (grid_cols > 0) spec->config.grid_cols = static_cast<std::uint32_t>(grid_cols);

  const int world_size = static_cast<int>(spec->config.grid_cells()) + 1;
  if (world != 0 && world != static_cast<std::uint64_t>(world_size)) {
    std::fprintf(stderr, "--world %llu does not match the grid (%u cells + 1"
                 " master = %d ranks)\n", static_cast<unsigned long long>(world),
                 spec->config.grid_cells(), world_size);
    return 1;
  }
  const std::string results_prefix = cli.get("rank-results");

  LaunchFaults faults;
  faults.recover_dir = cli.get("recover-dir");
  faults.max_restarts = static_cast<int>(max_restarts);
  if (cli.was_set("kill-rank")) faults.kill_rank = static_cast<int>(kill_rank);
  if (cli.was_set("kill-at-epoch")) {
    faults.kill_at_epoch = static_cast<long long>(kill_at_epoch);
  }
  if ((faults.kill_rank >= 0) != (faults.kill_at_epoch >= 0)) {
    std::fprintf(stderr,
                 "--kill-rank and --kill-at-epoch must be used together\n");
    return 1;
  }
  if (faults.chaos() &&
      (faults.kill_rank < 1 || faults.kill_rank >= world_size)) {
    std::fprintf(stderr, "--kill-rank %d is not a slave rank (1..%d)\n",
                 faults.kill_rank, world_size - 1);
    return 1;
  }
  if (!faults.recover_dir.empty()) {
    // Fresh recovery state per launch: create the directory and drop rolling
    // checkpoints left behind by an earlier world.
    std::error_code ec;
    std::filesystem::create_directories(faults.recover_dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create --recover-dir %s: %s\n",
                   faults.recover_dir.c_str(), ec.message().c_str());
      return 1;
    }
    for (const auto& entry :
         std::filesystem::directory_iterator(faults.recover_dir, ec)) {
      if (entry.path().extension() == ".rck") {
        std::error_code ignore;
        std::filesystem::remove(entry.path(), ignore);
      }
    }
  }

  // Without --endpoint, bind a loopback port here and hold it until every
  // rank has exited: rank 0, and a respawned rank 0, listen on this very
  // socket, so no other process can take the port in between.
  std::string endpoint = cli.get("endpoint");
  int rendezvous_fd = -1;
  if (endpoint.empty()) {
    std::string error;
    rendezvous_fd = minimpi::listen_on(minimpi::Endpoint{"127.0.0.1", 0}, &error);
    if (rendezvous_fd < 0) {
      std::fprintf(stderr, "rendezvous: %s\n", error.c_str());
      return 1;
    }
    endpoint = minimpi::local_endpoint_of(rendezvous_fd).to_string();
  }

  std::printf("launching %d ranks (%ux%u grid + master), rendezvous %s\n",
              world_size, spec->config.grid_rows, spec->config.grid_cols,
              endpoint.c_str());
  std::fflush(stdout);
  std::fflush(stderr);

  // Fork before any thread/pool exists in this process; each child becomes
  // one rank end to end (dataset load, bootstrap, training, result JSON).
  std::vector<pid_t> children;
  children.reserve(static_cast<std::size_t>(world_size));
  for (int rank = 0; rank < world_size; ++rank) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      for (const pid_t child : children) ::kill(child, SIGKILL);
      return 1;
    }
    if (pid == 0) {
      const bool doomed = faults.chaos() && rank == faults.kill_rank;
      ::_exit(run_rank(*spec, rank, world_size, endpoint, rendezvous_fd,
                       results_prefix, faults, doomed));
    }
    children.push_back(pid);
  }

  // Reap with a deadline so a wedged rank fails the launch instead of
  // hanging it. With recovery enabled, a rank that dies by signal is
  // respawned (without the chaos environment) so it can rejoin the
  // surviving ranks at the rendezvous and roll back with them.
  const auto start = std::chrono::steady_clock::now();
  std::vector<bool> done(children.size(), false);
  int failures = 0;
  int respawns_left = faults.recover_dir.empty() ? 0 : faults.max_restarts;
  std::size_t remaining = children.size();
  while (remaining > 0) {
    bool progressed = false;
    for (std::size_t i = 0; i < children.size(); ++i) {
      if (done[i]) continue;
      int status = 0;
      const pid_t reaped = ::waitpid(children[i], &status, WNOHANG);
      if (reaped == children[i]) {
        progressed = true;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        if (!clean && WIFSIGNALED(status) && respawns_left > 0) {
          --respawns_left;
          std::fprintf(stderr,
                       "rank %zu died (signal %d); respawning (%d respawn%s"
                       " left)\n",
                       i, WTERMSIG(status), respawns_left,
                       respawns_left == 1 ? "" : "s");
          const pid_t replacement = ::fork();
          if (replacement == 0) {
            ::_exit(run_rank(*spec, static_cast<int>(i), world_size, endpoint,
                             rendezvous_fd, results_prefix, faults,
                             /*doomed=*/false));
          }
          if (replacement > 0) {
            children[i] = replacement;
            continue;  // rank i lives again
          }
          std::perror("fork");
        }
        done[i] = true;
        --remaining;
        if (!clean) {
          std::fprintf(stderr, "rank %zu failed (status %d)\n", i,
                       WIFEXITED(status) ? WEXITSTATUS(status) : -1);
          ++failures;
        }
      }
    }
    if (remaining == 0) break;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (elapsed > static_cast<double>(timeout_s)) {
      std::fprintf(stderr, "launch timed out after %llus; killing %zu ranks\n",
                   static_cast<unsigned long long>(timeout_s), remaining);
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (!done[i]) ::kill(children[i], SIGKILL);
      }
      for (std::size_t i = 0; i < children.size(); ++i) {
        if (!done[i]) ::waitpid(children[i], nullptr, 0);
      }
      return 1;
    }
    if (!progressed) ::usleep(20 * 1000);
  }
  if (failures > 0) return 1;

  const std::string rank0_json = results_prefix + ".rank0.json";
  std::printf("all %d ranks exited cleanly; rank 0 result: %s\n", world_size,
              rank0_json.c_str());

  if (!cli.get_bool("verify-parity")) return 0;

  // Reference run: the very same spec through the in-process `distributed`
  // backend (thread-per-rank simulation). Per-rank outcomes must match the
  // multi-process run bit for bit.
  std::printf("verify-parity: running the in-process distributed backend...\n");
  core::RunSpec reference = *spec;
  reference.backend = core::Backend::kDistributed;
  reference.result_json = results_prefix + ".inproc.json";
  // The reference exists for the result JSON only — reopening the same
  // telemetry path would clobber rank 0's stream.
  reference.observers.telemetry.clear();
  core::Session session(reference);
  if (!session.prepare()) {
    std::fprintf(stderr, "reference run: %s\n", session.error().c_str());
    return 1;
  }
  (void)session.run();
  const std::string tcp_json = read_file(rank0_json);
  const std::string inproc_json = read_file(reference.result_json);
  if (tcp_json.empty() || inproc_json.empty()) {
    std::fprintf(stderr, "parity: missing result JSON (%s / %s)\n",
                 rank0_json.c_str(), reference.result_json.c_str());
    return 1;
  }
  if (!results_match(tcp_json, inproc_json)) return 1;
  std::printf("parity OK: distributed-tcp == distributed on virtual time,"
              " fitnesses and best cell\n");
  return 0;
}
