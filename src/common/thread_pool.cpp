#include "common/thread_pool.hpp"

#include <algorithm>
#include <utility>

namespace cellgan::common {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t workers = num_threads <= 1 ? 0 : num_threads - 1;
  tasks_.resize(workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t parts = std::min(size(), n);
  if (parts == 1) {
    fn(0, n);
    return;
  }
  // Balanced split: participant i takes [i*n/parts, (i+1)*n/parts), so every
  // chunk is non-empty. Slots 0..parts-2 go to workers; the last chunk runs
  // on the caller.
  const auto bound = [n, parts](std::size_t i) { return i * n / parts; };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
    pending_ = parts - 1;
    error_ = nullptr;
    for (std::size_t i = 0; i + 1 < parts; ++i) {
      tasks_[i].fn = &fn;
      tasks_[i].begin = bound(i);
      tasks_[i].end = bound(i + 1);
    }
    for (std::size_t i = parts - 1; i < tasks_.size(); ++i) tasks_[i].fn = nullptr;
  }
  work_ready_.notify_all();
  run_chunk(Task{&fn, bound(parts - 1), n});
  // Workers still hold `fn` until pending_ drains: never leave before that,
  // even when the caller's own chunk threw.
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return pending_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::run_chunk(const Task& task) {
  try {
    (*task.fn)(task.begin, task.end);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_generation = 0;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] { return stopping_ || generation_ != seen_generation; });
      if (stopping_) return;
      seen_generation = generation_;
      task = tasks_[worker_index];
      if (task.fn == nullptr) continue;  // no work for this worker this round
    }
    run_chunk(task);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
    }
    work_done_.notify_one();
  }
}

}  // namespace cellgan::common
