#include "core/parallel_trainer.hpp"

#include <algorithm>

namespace cellgan::core {

ParallelTrainer::ParallelTrainer(const TrainingConfig& config,
                                 const datastore::SampleStore& dataset,
                                 std::size_t threads,
                                 const CostModel& cost_model, ExecMode mode)
    : core_(config, dataset, cost_model), pool_(std::max<std::size_t>(1, threads)) {
  const auto n = static_cast<std::size_t>(core_.grid().size());
  // Balanced contiguous partition over exactly min(threads, cells) lanes:
  // the first n % lanes lanes take one extra cell, so no requested worker
  // sits idle while another carries two cells more.
  const std::size_t lanes =
      std::min(std::max<std::size_t>(1, threads), std::max<std::size_t>(1, n));
  const std::size_t base = n / lanes;
  const std::size_t extra = n % lanes;
  lane_begin_.reserve(lanes + 1);
  lane_begin_.push_back(0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    lane_begin_.push_back(lane_begin_.back() + base + (lane < extra ? 1 : 0));
  }
  lanes_.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    lanes_.push_back(std::make_unique<Lane>(config.seed ^ 0x5eedbeefULL ^ lane));
  }
  core_.build_cells([this, mode](int cell) {
    Lane& lane = *lanes_[lane_of(static_cast<std::size_t>(cell))];
    ExecContext context;
    context.mode = mode;
    context.grid_cells = core_.grid().size();
    context.cost = &core_.cost_model();
    context.clock = &lane.clock;
    context.profiler = &lane.profiler;
    context.jitter_rng = &lane.jitter_rng;
    return context;
  });
}

std::size_t ParallelTrainer::lane_of(std::size_t cell) const {
  // Invert the balanced partition: the first `extra` lanes hold base+1 cells.
  const std::size_t lanes = lanes_.size();
  const std::size_t n = lane_begin_.back();
  const std::size_t base = n / lanes;
  const std::size_t extra = n % lanes;
  const std::size_t boundary = extra * (base + 1);
  if (cell < boundary) return cell / (base + 1);
  return extra + (cell - boundary) / base;
}

TrainOutcome ParallelTrainer::run() {
  common::WallTimer wall;
  for (std::uint32_t iter = 0; iter < core_.config().iterations; ++iter) {
    core_.begin_epoch(iter);
    // One task per lane; the pool hands each participant a contiguous lane
    // range, and every lane's cells run on exactly one thread (so the
    // per-thread flops counters harvested inside CellTrainer::step stay
    // attributed to the right cell).
    pool_.parallel_for(lanes_.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t lane = begin; lane < end; ++lane) {
        for (std::size_t cell = lane_begin_[lane]; cell < lane_begin_[lane + 1];
             ++cell) {
          core_.run_cell_epoch(static_cast<int>(cell));
        }
      }
    });
    // Epoch barrier, in virtual time too: every lane waits for the slowest
    // before the staged genomes become visible.
    double makespan = 0.0;
    for (const auto& lane : lanes_) makespan = std::max(makespan, lane->clock.now());
    for (const auto& lane : lanes_) lane->clock.wait_until(makespan);
    core_.finish_epoch();
    // Records were written by the pool workers (distinct slots per cell, and
    // parallel_for joined); publishing here keeps one thread, cell order.
    core_.publish_epoch();
  }
  double virtual_s = 0.0;
  std::vector<common::Profiler> parts;
  parts.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    virtual_s = std::max(virtual_s, lane->clock.now());
    parts.push_back(lane->profiler);
  }
  return core_.make_outcome(wall.elapsed_s(), virtual_s,
                            common::Profiler::merged(parts));
}

}  // namespace cellgan::core
