#include "core/protocol.hpp"

namespace cellgan::core::protocol {

const char* to_string(SlaveState state) {
  switch (state) {
    case SlaveState::kInactive: return "inactive";
    case SlaveState::kProcessing: return "processing";
    case SlaveState::kFinished: return "finished";
  }
  return "unknown";
}

namespace {
constexpr auto kRunTaskFields = [](auto& v, auto& task) {
  v(task.cell_id);
  v(task.seed);
};

constexpr auto kStatusReplyFields = [](auto& v, auto& reply) {
  v(reply.state);
  v(reply.iteration);
  v(reply.cell_id);
};

constexpr auto kSlaveResultFields = [](auto& v, auto& result) {
  v(result.cell_id);
  v(result.virtual_time_s);
  v(result.mixture_weights);
  v.blob(result.center);
};
}  // namespace

std::vector<std::uint8_t> RunTask::serialize() const {
  return common::encode(*this, kRunTaskFields);
}

RunTask RunTask::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<RunTask>(bytes, kRunTaskFields);
}

std::vector<std::uint8_t> StatusReply::serialize() const {
  return common::encode(*this, kStatusReplyFields);
}

StatusReply StatusReply::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<StatusReply>(bytes, kStatusReplyFields);
}

std::vector<std::uint8_t> SlaveResult::serialize() const {
  return common::encode(*this, kSlaveResultFields);
}

SlaveResult SlaveResult::deserialize(std::span<const std::uint8_t> bytes) {
  return common::decode<SlaveResult>(bytes, kSlaveResultFields);
}

}  // namespace cellgan::core::protocol
