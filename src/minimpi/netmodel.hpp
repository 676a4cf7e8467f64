// Virtual-time network model (the "wire" of the simulated cluster).
//
// When enabled, every send charges the sender's clock with a serialization
// cost (bytes / bandwidth — in mpi4py-style stacks serialization dominates)
// and stamps the message with arrival = send_completion + latency; receivers
// additionally pay a per-byte deserialization overhead. When disabled all
// costs are zero and minimpi behaves as a plain in-process message layer.
//
// Default constants are calibrated against the paper's Cluster-UY runs.
#pragma once

#include <cstddef>

namespace cellgan::minimpi {

struct NetModelConfig {
  bool enabled = false;
  double latency_s = 1e-3;             ///< per-message wire latency
  double bandwidth_Bps = 9.8e6;        ///< sender-side serialization+transfer rate
  double recv_overhead_s_per_B = 0.0;  ///< receiver-side deserialization
};

class NetModel {
 public:
  NetModel() = default;
  explicit NetModel(NetModelConfig config) : config_(config) {}

  bool enabled() const { return config_.enabled; }
  const NetModelConfig& config() const { return config_; }

  /// Sender-side busy time for a payload of `bytes`.
  double send_cost_s(std::size_t bytes) const {
    return config_.enabled ? static_cast<double>(bytes) / config_.bandwidth_Bps : 0.0;
  }

  /// Wire delay added on top of the sender's completion time.
  double latency_s() const { return config_.enabled ? config_.latency_s : 0.0; }

  /// Receiver-side busy time for a payload of `bytes`.
  double recv_cost_s(std::size_t bytes) const {
    return config_.enabled ? static_cast<double>(bytes) * config_.recv_overhead_s_per_B
                           : 0.0;
  }

 private:
  NetModelConfig config_;
};

}  // namespace cellgan::minimpi
