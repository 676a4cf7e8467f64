#include "serve/client.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/expect.hpp"

namespace cellgan::serve {

ServeClient::~ServeClient() { close(); }

bool ServeClient::connect(const minimpi::Endpoint& endpoint, double timeout_s,
                          std::string* error) {
  CG_EXPECT(fd_ < 0);
  fd_ = minimpi::connect_with_retry(endpoint, timeout_s, error);
  if (fd_ < 0) return false;
  reader_ = std::thread([this] { reader_loop(); });
  return true;
}

void ServeClient::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  if (reader_.joinable()) reader_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t ServeClient::send_request(std::uint64_t seed,
                                        std::uint32_t count) {
  SampleRequest request;
  request.seed = seed;
  request.count = count;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0 || reader_done_) return 0;
    request.request_id = next_id_++;
  }
  const auto payload = request.serialize();
  std::lock_guard<std::mutex> lock(write_mutex_);
  if (!send_message(fd_, MsgType::kSampleRequest, payload)) return 0;
  return request.request_id;
}

bool ServeClient::wait(std::uint64_t id, Completion* out, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    const auto it = completions_.find(id);
    if (it != completions_.end()) {
      if (out != nullptr) *out = it->second;
      completions_.erase(it);
      return true;
    }
    if (reader_done_) return false;
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        completions_.find(id) == completions_.end()) {
      return false;
    }
  }
}

bool ServeClient::stats(StatsResponse* out, double timeout_s) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.reset();
  }
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!send_message(fd_, MsgType::kStatsRequest, {})) return false;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_until(lock, deadline,
                 [&] { return stats_.has_value() || reader_done_; });
  if (!stats_.has_value()) return false;
  if (out != nullptr) *out = *stats_;
  return true;
}

bool ServeClient::shutdown_server(double timeout_s) {
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (!send_message(fd_, MsgType::kShutdownRequest, {})) return false;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_until(lock, deadline,
                 [&] { return shutdown_acked_ || reader_done_; });
  return shutdown_acked_;
}

void ServeClient::reader_loop() {
  for (;;) {
    Message msg;
    bool alive = false;
    try {
      alive = recv_message(fd_, &msg);
    } catch (const ProtocolError&) {
      alive = false;  // torn-down connection or corrupt stream: stop reading
    }
    if (!alive) break;
    std::lock_guard<std::mutex> lock(mutex_);
    switch (msg.type) {
      case MsgType::kSampleResponse: {
        Completion completion;
        completion.response = SampleResponse::deserialize(msg.payload);
        completion.received = std::chrono::steady_clock::now();
        completions_[completion.response.request_id] = std::move(completion);
        break;
      }
      case MsgType::kStatsResponse:
        stats_ = StatsResponse::deserialize(msg.payload);
        break;
      case MsgType::kShutdownAck:
        shutdown_acked_ = true;
        break;
      default:
        break;  // unknown server message: ignore
    }
    cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  reader_done_ = true;
  cv_.notify_all();
}

namespace {

double percentile_ms(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

void append_number(std::string& out, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  out += buffer;
}

}  // namespace

std::string LoadReport::to_json() const {
  std::string out = "{\"offered_qps\":";
  append_number(out, offered_qps);
  out += ",\"achieved_qps\":";
  append_number(out, achieved_qps);
  out += ",\"sent\":" + std::to_string(sent);
  out += ",\"completed\":" + std::to_string(completed);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"p50_ms\":";
  append_number(out, p50_ms);
  out += ",\"p95_ms\":";
  append_number(out, p95_ms);
  out += ",\"p99_ms\":";
  append_number(out, p99_ms);
  out += ",\"mean_ms\":";
  append_number(out, mean_ms);
  out += ",\"max_ms\":";
  append_number(out, max_ms);
  out += ",\"mean_batch_requests\":";
  append_number(out, mean_batch_requests);
  out += ",\"wall_s\":";
  append_number(out, wall_s);
  out += "}";
  return out;
}

LoadReport run_open_loop(ServeClient& client, const LoadOptions& options) {
  CG_EXPECT(options.qps > 0.0 && options.duration_s > 0.0);
  using clock = std::chrono::steady_clock;

  LoadReport report;
  report.offered_qps = options.qps;

  const auto interval =
      std::chrono::duration_cast<clock::duration>(std::chrono::duration<double>(
          1.0 / options.qps));
  const auto total = static_cast<std::uint64_t>(
      std::max(1.0, std::floor(options.qps * options.duration_s)));

  struct Pending {
    std::uint64_t id = 0;  ///< 0 = send failed
    clock::time_point scheduled;
  };
  std::vector<Pending> pending;
  pending.reserve(total);

  const auto start = clock::now();
  for (std::uint64_t i = 0; i < total; ++i) {
    const auto scheduled = start + interval * i;
    std::this_thread::sleep_until(scheduled);
    Pending p;
    p.scheduled = scheduled;  // open loop: debit from the schedule, not now
    p.id = client.send_request(options.seed_base + i, options.count);
    pending.push_back(p);
    ++report.sent;
  }

  std::vector<double> latencies_ms;
  latencies_ms.reserve(pending.size());
  double batch_sum = 0.0;
  for (const auto& p : pending) {
    ServeClient::Completion completion;
    if (p.id == 0 || !client.wait(p.id, &completion, options.timeout_s) ||
        !completion.response.ok()) {
      ++report.failed;
      continue;
    }
    ++report.completed;
    latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(completion.received -
                                                  p.scheduled)
            .count());
    batch_sum += completion.response.batch_requests;
  }
  report.wall_s = std::chrono::duration<double>(clock::now() - start).count();

  std::sort(latencies_ms.begin(), latencies_ms.end());
  report.p50_ms = percentile_ms(latencies_ms, 0.50);
  report.p95_ms = percentile_ms(latencies_ms, 0.95);
  report.p99_ms = percentile_ms(latencies_ms, 0.99);
  if (!latencies_ms.empty()) {
    double sum = 0.0;
    for (const double v : latencies_ms) sum += v;
    report.mean_ms = sum / static_cast<double>(latencies_ms.size());
    report.max_ms = latencies_ms.back();
  }
  if (report.completed > 0) {
    report.mean_batch_requests =
        batch_sum / static_cast<double>(report.completed);
  }
  if (report.wall_s > 0.0) {
    report.achieved_qps =
        static_cast<double>(report.completed) / report.wall_s;
  }
  return report;
}

}  // namespace cellgan::serve
