// Wall-clock and virtual-clock timing.
//
// WallTimer measures real elapsed time. VirtualClock is the per-rank simulated
// clock used by the minimpi NetModel to reproduce cluster-scale timings on a
// laptop: compute and communication *costs* are added explicitly, and
// synchronization points merge clocks (a receive completes no earlier than the
// matching send). The costs come from core/cost_model.hpp and
// minimpi/netmodel.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>

namespace cellgan::common {

/// Monotonic wall-clock stopwatch (seconds as double).
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double elapsed_s() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Simulated per-rank clock, in seconds. Monotone non-decreasing.
/// Thread-safe: the paper's slave processes run a communication (main)
/// thread and a training (execution) thread against one per-rank timeline.
class VirtualClock {
 public:
  VirtualClock() = default;
  VirtualClock(const VirtualClock& other) : now_s_(other.now()) {}
  VirtualClock& operator=(const VirtualClock& other);

  double now() const;

  /// Advance by a non-negative cost.
  void advance(double seconds);

  /// now = max(now, t): models waiting for an event at absolute time t.
  void wait_until(double t);

 private:
  mutable std::mutex mutex_;
  double now_s_ = 0.0;
};

}  // namespace cellgan::common
