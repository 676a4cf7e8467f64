// Micro-batching sampler: folds concurrent sample requests into single
// generator forward passes without changing any request's bytes.
//
// Policy: a batch opens when the first job arrives and closes when either
// max_batch jobs are queued for the same model or max_delay_us has elapsed
// since the first arrival — the classic latency/throughput knob of serving
// systems. One worker thread executes batches (model forwards reuse layer
// activation buffers, so they must be serialized anyway; the batch itself,
// vectorized by the SIMD GEMM microkernel, is the parallelism).
//
// Bit-identity: each job's stochastic draw is planned on its OWN Rng(seed)
// stream (CheckpointMixture::plan), then the per-generator latents of all
// jobs are stacked into one tensor per generator and forwarded once. Because
// every tensor kernel accumulates each output row partition-independently
// (tests/tensor/kernel_parity pins this), the rows a job gets back are
// bit-identical to a solo CheckpointMixture::sample(count, seed) — whatever
// jobs happened to share the forward. The serve end-to-end suite asserts
// this across batch sizes.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "core/checkpoint_sampler.hpp"
#include "serve/observer.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::serve {

struct BatchPolicy {
  std::size_t max_batch = 8;        ///< close a batch at this many requests
  std::uint32_t max_delay_us = 2000;  ///< ... or this long after the first
};

/// What the batcher hands back when a job's samples are ready.
struct SampleOutcome {
  tensor::Tensor samples;            ///< count x image_dim
  std::uint32_t batch_requests = 0;  ///< jobs in the shared forward
  std::uint32_t batch_samples = 0;   ///< total rows of the shared forward
  double queue_us = 0.0;             ///< enqueue -> batch close
  double forward_us = 0.0;           ///< plan+forward+scatter of the batch
  double total_us = 0.0;             ///< enqueue -> outcome ready
};

/// One queued request. `done` runs on the worker thread after the batch
/// executes; it must not block (the server's callback serializes the
/// response and writes it to the socket).
struct SampleJob {
  std::uint64_t id = 0;
  std::uint64_t seed = 0;
  std::uint32_t count = 1;
  std::shared_ptr<core::CheckpointMixture> model;
  bool cache_hit = true;
  std::chrono::steady_clock::time_point enqueued;
  std::function<void(SampleOutcome)> done;
};

class Batcher {
 public:
  explicit Batcher(BatchPolicy policy, ServeObserver* observer = nullptr);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  /// Queue a job (stamps `enqueued`). False once drain_and_stop began — the
  /// caller answers kShuttingDown instead.
  bool enqueue(SampleJob job);

  /// Complete every queued job, then stop the worker. Idempotent; after
  /// return all `done` callbacks have run.
  void drain_and_stop();

 private:
  void worker();
  /// Pop the next batch: front job plus up-to-max_batch successors sharing
  /// its model, FIFO order preserved. Blocks until policy closes a batch or
  /// drain begins with an empty queue (returns empty).
  std::deque<SampleJob> next_batch(std::unique_lock<std::mutex>& lock);
  void run_batch(std::deque<SampleJob> batch);

  BatchPolicy policy_;
  ServeObserver* observer_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<SampleJob> queue_;
  bool draining_ = false;
  std::uint64_t batch_id_ = 0;  ///< worker thread only

  std::thread worker_;
};

}  // namespace cellgan::serve
