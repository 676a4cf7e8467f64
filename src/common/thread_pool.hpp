// Shared-memory parallelism: a fixed-size worker pool with a parallel_for
// helper. This is the "multithreading programming" level of the paper's
// two-level parallel model (Section III.A): within one rank, cells run on
// pool lanes (core/parallel_trainer.hpp); across ranks, minimpi passes
// messages. Tensor ops never fan out on their own, so one process has
// exactly one level of parallelism.
//
// The pool is deliberately simple — static partitioning of index ranges —
// because the GAN workload is uniform (the paper applies uniform domain
// decomposition for the same reason).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cellgan::common {

class ThreadPool {
 public:
  /// `num_threads == 0` or `1` means "run inline on the caller".
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size() + 1; }  // workers + caller

  /// Run fn(begin, end) over [0, n) split into contiguous chunks, one per
  /// participant (workers + the calling thread). Blocks until all complete.
  /// If any chunk throws, every chunk still runs to completion and the first
  /// exception is rethrown on the caller; the pool stays usable.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void worker_loop(std::size_t worker_index);
  /// Run one chunk, keeping the first exception any chunk raises.
  void run_chunk(const Task& task);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::vector<Task> tasks_;       // one slot per worker
  std::uint64_t generation_ = 0;  // bumped per parallel_for call
  std::size_t pending_ = 0;
  std::exception_ptr error_;      // first exception of the current call
  bool stopping_ = false;
};

}  // namespace cellgan::common
