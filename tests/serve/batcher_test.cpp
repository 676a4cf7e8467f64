// serve/batcher: micro-batched outcomes must be bit-identical to solo
// CheckpointMixture::sample draws whatever the batch composition, occupancy
// must be reported, and drain must complete every accepted job.
#include "serve/batcher.hpp"

#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "serve/serve_testsupport.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan::serve {
namespace {

using serve_test::bit_identical;
using serve_test::synthetic_checkpoint;

std::shared_ptr<core::CheckpointMixture> make_model(std::uint64_t seed = 1) {
  return std::make_shared<core::CheckpointMixture>(synthetic_checkpoint(seed));
}

/// Enqueue (seed, count) jobs and wait for all outcomes, order-preserving.
std::vector<SampleOutcome> run_jobs(
    Batcher& batcher, const std::shared_ptr<core::CheckpointMixture>& model,
    const std::vector<std::pair<std::uint64_t, std::uint32_t>>& jobs) {
  std::vector<std::promise<SampleOutcome>> promises(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SampleJob job;
    job.id = i + 1;
    job.seed = jobs[i].first;
    job.count = jobs[i].second;
    job.model = model;
    job.done = [&promises, i](SampleOutcome outcome) {
      promises[i].set_value(std::move(outcome));
    };
    EXPECT_TRUE(batcher.enqueue(std::move(job)));
  }
  std::vector<SampleOutcome> outcomes;
  outcomes.reserve(jobs.size());
  for (auto& promise : promises) {
    outcomes.push_back(promise.get_future().get());
  }
  return outcomes;
}

TEST(Batcher, BatchedOutcomesBitIdenticalToSoloSamples) {
  auto model = make_model();
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> jobs = {
      {11, 5}, {22, 3}, {33, 8}, {44, 1}};
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    SCOPED_TRACE(tensor::to_string(kind));
    const testsupport::KindGuard guard(kind);
    // A long delay bound so all jobs land in one batch deterministically.
    Batcher batcher(BatchPolicy{8, 200'000});
    const auto outcomes = run_jobs(batcher, model, jobs);
    batcher.drain_and_stop();

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const tensor::Tensor solo = model->sample(jobs[i].second, jobs[i].first);
      EXPECT_TRUE(bit_identical(outcomes[i].samples, solo))
          << "job " << i << " diverged from its solo draw";
    }
  }
}

TEST(Batcher, ReportsBatchOccupancy) {
  auto model = make_model();
  Batcher batcher(BatchPolicy{8, 200'000});
  const auto outcomes =
      run_jobs(batcher, model, {{1, 2}, {2, 2}, {3, 2}});
  batcher.drain_and_stop();

  // All three fit one batch (policy allows 8, delay is huge).
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.batch_requests, 3u);
    EXPECT_EQ(outcome.batch_samples, 6u);
    EXPECT_GE(outcome.forward_us, 0.0);
    EXPECT_GE(outcome.total_us, outcome.queue_us);
  }
}

TEST(Batcher, MaxBatchOneEqualsBatchedResults) {
  auto model = make_model();
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> jobs = {
      {7, 4}, {8, 6}, {9, 2}};

  Batcher solo_batcher(BatchPolicy{1, 0});
  const auto solo = run_jobs(solo_batcher, model, jobs);
  solo_batcher.drain_and_stop();

  Batcher grouped_batcher(BatchPolicy{8, 200'000});
  const auto grouped = run_jobs(grouped_batcher, model, jobs);
  grouped_batcher.drain_and_stop();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(solo[i].batch_requests, 1u);
    EXPECT_TRUE(bit_identical(solo[i].samples, grouped[i].samples))
        << "batch-size dependence at job " << i;
  }
}

TEST(Batcher, DistinctModelsNeverShareABatch) {
  auto model_a = make_model(1);
  auto model_b = make_model(2);
  Batcher batcher(BatchPolicy{8, 200'000});

  std::vector<std::promise<SampleOutcome>> promises(4);
  const std::shared_ptr<core::CheckpointMixture> models[4] = {
      model_a, model_a, model_b, model_a};
  for (std::size_t i = 0; i < 4; ++i) {
    SampleJob job;
    job.id = i + 1;
    job.seed = 100 + i;
    job.count = 2;
    job.model = models[i];
    job.done = [&promises, i](SampleOutcome outcome) {
      promises[i].set_value(std::move(outcome));
    };
    ASSERT_TRUE(batcher.enqueue(std::move(job)));
  }
  std::vector<SampleOutcome> outcomes;
  for (auto& promise : promises) outcomes.push_back(promise.get_future().get());
  batcher.drain_and_stop();

  // Whatever the batch boundaries fell out as, each job must still match its
  // own model's solo draw — a cross-model batch would break this.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(bit_identical(outcomes[i].samples,
                              models[i]->sample(2, 100 + i)));
  }
  // The lone model-b job ran alone: the model boundary forced a split.
  EXPECT_EQ(outcomes[2].batch_requests, 1u);
}

TEST(Batcher, EnqueueAfterDrainReturnsFalse) {
  auto model = make_model();
  Batcher batcher(BatchPolicy{4, 1000});
  batcher.drain_and_stop();

  SampleJob job;
  job.id = 1;
  job.seed = 5;
  job.count = 2;
  job.model = model;
  job.done = [](SampleOutcome) { FAIL() << "job ran after drain"; };
  EXPECT_FALSE(batcher.enqueue(std::move(job)));
}

TEST(Batcher, DrainCompletesQueuedJobs) {
  auto model = make_model();
  // Huge delay: without the drain, the single queued job would sit waiting
  // for company. Drain must flush it immediately.
  auto batcher = std::make_unique<Batcher>(BatchPolicy{8, 10'000'000});
  std::promise<SampleOutcome> promise;
  SampleJob job;
  job.id = 1;
  job.seed = 3;
  job.count = 4;
  job.model = model;
  job.done = [&promise](SampleOutcome outcome) {
    promise.set_value(std::move(outcome));
  };
  ASSERT_TRUE(batcher->enqueue(std::move(job)));
  batcher->drain_and_stop();

  auto future = promise.get_future();
  ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(bit_identical(future.get().samples, model->sample(4, 3)));
}

TEST(Batcher, PublishesObserverRecords) {
  core::EventBus bus;
  struct Recorder final : core::TrainObserver {
    std::vector<core::ServeRequestRecord> requests;
    std::vector<core::ServeBatchRecord> batches;
    void on_serve_request(const core::ServeRequestRecord& r) override {
      requests.push_back(r);
    }
    void on_serve_batch(const core::ServeBatchRecord& r) override {
      batches.push_back(r);
    }
  } recorder;
  bus.subscribe(&recorder);

  ServeObserver observer(&bus);
  auto model = make_model();
  {
    Batcher batcher(BatchPolicy{8, 200'000}, &observer);
    run_jobs(batcher, model, {{1, 3}, {2, 5}});
    batcher.drain_and_stop();
  }

  ASSERT_EQ(recorder.batches.size(), 1u);
  EXPECT_EQ(recorder.batches[0].requests, 2u);
  EXPECT_EQ(recorder.batches[0].samples, 8u);
  ASSERT_EQ(recorder.requests.size(), 2u);
  EXPECT_EQ(recorder.requests[0].count, 3u);
  EXPECT_EQ(recorder.requests[1].count, 5u);
  EXPECT_EQ(observer.stats().requests, 2u);
  EXPECT_EQ(observer.stats().samples, 8u);
  EXPECT_EQ(observer.stats().batches, 1u);
}

}  // namespace
}  // namespace cellgan::serve
