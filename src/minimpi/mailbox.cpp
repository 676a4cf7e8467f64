#include "minimpi/mailbox.hpp"

#include <chrono>

namespace cellgan::minimpi {

namespace {
bool matches(const Message& m, int source, int tag) {
  return (source == kAnySource || m.source == source) &&
         (tag == kAnyTag || m.tag == tag);
}
}  // namespace

void Mailbox::push(Message message) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(message));
  }
  available_.notify_all();
}

std::optional<Message> Mailbox::extract_locked(int source, int tag) {
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (matches(*it, source, tag)) {
      Message m = std::move(*it);
      queue_.erase(it);
      return m;
    }
  }
  return std::nullopt;
}

Message Mailbox::pop(int source, int tag) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto m = extract_locked(source, tag)) return std::move(*m);
    available_.wait(lock);
  }
}

std::optional<Message> Mailbox::pop_for(int source, int tag, double timeout_s) {
  return pop_until(source, tag,
                   std::chrono::steady_clock::now() +
                       std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(timeout_s)));
}

std::optional<Message> Mailbox::pop_until(
    int source, int tag, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (auto m = extract_locked(source, tag)) return m;
    if (available_.wait_until(lock, deadline) == std::cv_status::timeout) {
      return extract_locked(source, tag);
    }
  }
}

std::optional<Message> Mailbox::try_pop(int source, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  return extract_locked(source, tag);
}

bool Mailbox::probe(int source, int tag) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& m : queue_) {
    if (matches(m, source, tag)) return true;
  }
  return false;
}

std::size_t Mailbox::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

}  // namespace cellgan::minimpi
