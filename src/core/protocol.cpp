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

std::vector<std::uint8_t> RunTask::serialize() const {
  common::ByteWriter w;
  w.write(cell_id);
  w.write(seed);
  return w.take();
}

RunTask RunTask::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  RunTask t;
  t.cell_id = r.read<std::uint32_t>();
  t.seed = r.read<std::uint64_t>();
  CG_ENSURE(r.exhausted());
  return t;
}

std::vector<std::uint8_t> StatusReply::serialize() const {
  common::ByteWriter w;
  w.write(static_cast<std::uint32_t>(state));
  w.write(iteration);
  w.write(cell_id);
  return w.take();
}

StatusReply StatusReply::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  StatusReply s;
  s.state = static_cast<SlaveState>(r.read<std::uint32_t>());
  s.iteration = r.read<std::uint32_t>();
  s.cell_id = r.read<std::uint32_t>();
  CG_ENSURE(r.exhausted());
  return s;
}

std::vector<std::uint8_t> SlaveResult::serialize() const {
  common::ByteWriter w;
  w.write(cell_id);
  w.write(virtual_time_s);
  w.write_vector(mixture_weights);
  const auto genome_bytes = center.serialize();
  w.write_vector(genome_bytes);
  return w.take();
}

SlaveResult SlaveResult::deserialize(std::span<const std::uint8_t> bytes) {
  common::ByteReader r(bytes);
  SlaveResult s;
  s.cell_id = r.read<std::uint32_t>();
  s.virtual_time_s = r.read<double>();
  s.mixture_weights = r.read_vector<double>();
  const auto genome_bytes = r.read_vector<std::uint8_t>();
  s.center = evolve::CellGenome::deserialize(genome_bytes);
  CG_ENSURE(r.exhausted());
  return s;
}

}  // namespace cellgan::core::protocol
