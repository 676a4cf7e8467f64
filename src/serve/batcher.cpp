#include "serve/batcher.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/expect.hpp"

namespace cellgan::serve {

namespace {

double elapsed_us(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

Batcher::Batcher(BatchPolicy policy, ServeObserver* observer)
    : policy_(policy), observer_(observer) {
  CG_EXPECT(policy_.max_batch >= 1);
  worker_ = std::thread([this] { worker(); });
}

Batcher::~Batcher() { drain_and_stop(); }

bool Batcher::enqueue(SampleJob job) {
  CG_EXPECT(job.model != nullptr && job.count >= 1);
  job.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (draining_) return false;
    queue_.push_back(std::move(job));
  }
  cv_.notify_all();
  return true;
}

void Batcher::drain_and_stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    draining_ = true;
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
}

std::deque<SampleJob> Batcher::next_batch(std::unique_lock<std::mutex>& lock) {
  cv_.wait(lock, [&] { return !queue_.empty() || draining_; });
  if (queue_.empty()) return {};  // draining and nothing left

  // Jobs co-batch only when they share a model instance (one forward pass
  // per generator serves them all); a model boundary closes the batch.
  const auto ready = [&] {
    std::size_t n = 0;
    const auto* model = queue_.front().model.get();
    for (const auto& job : queue_) {
      if (job.model.get() != model || n >= policy_.max_batch) break;
      ++n;
    }
    return n;
  };

  const auto deadline =
      queue_.front().enqueued + std::chrono::microseconds(policy_.max_delay_us);
  while (!draining_ && ready() < policy_.max_batch) {
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
  }

  std::deque<SampleJob> batch;
  const auto* model = queue_.front().model.get();
  while (!queue_.empty() && batch.size() < policy_.max_batch &&
         queue_.front().model.get() == model) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  return batch;
}

void Batcher::run_batch(std::deque<SampleJob> batch) {
  using clock = std::chrono::steady_clock;
  const auto closed = clock::now();
  const auto model = batch.front().model;
  const std::size_t generators = model->generators();
  const std::size_t latent_dim = model->latent_dim();
  const std::size_t image_dim = model->image_dim();

  // Each job's stochastic draw on its own Rng(seed) stream — this is what
  // makes the result independent of which jobs shared the batch.
  std::vector<evolve::MixtureDraw> draws;
  draws.reserve(batch.size());
  std::uint32_t batch_samples = 0;
  for (const auto& job : batch) {
    draws.push_back(model->plan(job.count, job.seed));
    batch_samples += job.count;
  }

  std::vector<tensor::Tensor> outputs;
  outputs.reserve(batch.size());
  for (const auto& job : batch) {
    outputs.emplace_back(job.count, image_dim);
  }

  const auto forward_start = clock::now();
  for (std::size_t g = 0; g < generators; ++g) {
    std::size_t total_rows = 0;
    for (const auto& draw : draws) total_rows += draw.rows_of[g].size();
    if (total_rows == 0) continue;

    // Stack every job's latents for this generator, job order preserved.
    tensor::Tensor stacked(total_rows, latent_dim);
    std::size_t offset = 0;
    for (const auto& draw : draws) {
      const std::size_t n = draw.rows_of[g].size();
      if (n == 0) continue;
      const auto src = draw.latents[g].data();
      std::copy(src.begin(), src.end(),
                stacked.data().begin() +
                    static_cast<std::ptrdiff_t>(offset * latent_dim));
      offset += n;
    }

    const tensor::Tensor images = model->forward(g, stacked);

    // Scatter each job's slice back into its own output tensor.
    offset = 0;
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const auto& rows_of = draws[j].rows_of[g];
      for (std::size_t k = 0; k < rows_of.size(); ++k) {
        const auto src = images.row_span(offset + k);
        auto dst = outputs[j].row_span(rows_of[k]);
        std::copy(src.begin(), src.end(), dst.begin());
      }
      offset += rows_of.size();
    }
  }
  const auto finished = clock::now();
  const double forward_us = elapsed_us(forward_start, finished);

  const std::uint64_t batch_id = ++batch_id_;

  if (observer_ != nullptr) {
    core::ServeBatchRecord record;
    record.batch_id = batch_id;
    record.requests = static_cast<std::uint32_t>(batch.size());
    record.samples = batch_samples;
    record.delay_us = elapsed_us(batch.front().enqueued, closed);
    record.forward_us = forward_us;
    observer_->record_batch(record);
  }

  for (std::size_t j = 0; j < batch.size(); ++j) {
    auto& job = batch[j];
    SampleOutcome outcome;
    outcome.samples = std::move(outputs[j]);
    outcome.batch_requests = static_cast<std::uint32_t>(batch.size());
    outcome.batch_samples = batch_samples;
    outcome.queue_us = elapsed_us(job.enqueued, closed);
    outcome.forward_us = forward_us;
    outcome.total_us = elapsed_us(job.enqueued, clock::now());
    if (observer_ != nullptr) {
      core::ServeRequestRecord record;
      record.request_id = job.id;
      record.count = job.count;
      record.batch_requests = outcome.batch_requests;
      record.batch_samples = batch_samples;
      record.queue_us = outcome.queue_us;
      record.forward_us = outcome.forward_us;
      record.total_us = outcome.total_us;
      record.cache_hit = job.cache_hit;
      observer_->record_request(record);
    }
    if (job.done) job.done(std::move(outcome));
  }
}

void Batcher::worker() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    auto batch = next_batch(lock);
    if (batch.empty()) return;
    lock.unlock();
    run_batch(std::move(batch));
    lock.lock();
  }
}

}  // namespace cellgan::serve
