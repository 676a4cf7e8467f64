// Ablation: neighborhood size / shape vs training quality and communication
// volume. The paper fixes s=5 (five-cell); this bench compares:
//   isolated  (s=1, no coevolution — plain per-cell GAN training)
//   ring      (s=3, E/W neighbors)
//   moore5    (s=5, the paper's N/S/W/E)
//   moore9    (s=9, full 8-neighbor Moore)
// on a 4x4 grid, reporting final best generator loss, mean generator loss,
// and exchanged bytes per iteration (the comm cost the topology implies).
#include <cstdio>
#include <numeric>

#include "core/comm_manager.hpp"
#include "core/session.hpp"

namespace {

using namespace cellgan;

void apply_topology(evolve::Grid& grid, const std::string& name) {
  if (name == "isolated") {
    for (int cell = 0; cell < grid.size(); ++cell) grid.set_neighbors(cell, {});
  } else if (name == "ring") {
    for (int cell = 0; cell < grid.size(); ++cell) {
      const auto coord = grid.coords_of(cell);
      grid.set_neighbors(cell, {grid.cell_of({coord.row, coord.col - 1}),
                                grid.cell_of({coord.row, coord.col + 1})});
    }
  } else if (name == "moore5") {
    grid.reset_default_neighborhoods();
  } else if (name == "moore9") {
    for (int cell = 0; cell < grid.size(); ++cell) {
      const auto coord = grid.coords_of(cell);
      std::vector<int> neighbors;
      for (int dr = -1; dr <= 1; ++dr) {
        for (int dc = -1; dc <= 1; ++dc) {
          if (dr == 0 && dc == 0) continue;
          neighbors.push_back(grid.cell_of({coord.row + dr, coord.col + dc}));
        }
      }
      grid.set_neighbors(cell, std::move(neighbors));
    }
  }
}

struct AblationResult {
  double best_g_loss = 0.0;
  double mean_g_loss = 0.0;
  double bytes_per_iteration = 0.0;
};

AblationResult run_topology(const core::TrainingConfig& config,
                            const data::Dataset& dataset,
                            const std::string& topology) {
  evolve::Grid grid(static_cast<int>(config.grid_rows),
                    static_cast<int>(config.grid_cols));
  apply_topology(grid, topology);

  core::ExecContext context;  // real-time
  common::Rng master(config.seed);
  core::GenomeStore store(grid.size());
  std::vector<std::unique_ptr<core::CellTrainer>> cells;
  std::vector<std::unique_ptr<core::LocalCommManager>> comms;
  for (int cell = 0; cell < grid.size(); ++cell) {
    cells.push_back(std::make_unique<core::CellTrainer>(
        config, grid, cell, dataset, master.fork(cell), context));
    comms.push_back(
        std::make_unique<core::LocalCommManager>(store, grid, cell, context));
  }

  double bytes_total = 0.0;
  std::vector<std::vector<evolve::SharedGenome>> inboxes(
      grid.size(), std::vector<evolve::SharedGenome>(grid.size()));
  for (std::uint32_t iter = 0; iter < config.iterations; ++iter) {
    // Two-phase epoch over the staged store: step + publish everyone, cross
    // the epoch barrier, then collect next epoch's inboxes.
    for (int cell = 0; cell < grid.size(); ++cell) {
      cells[cell]->step(inboxes[cell]);
      comms[cell]->publish(cells[cell]->export_genome());
    }
    store.flip();
    for (int cell = 0; cell < grid.size(); ++cell) {
      inboxes[cell] = comms[cell]->collect();
      for (const auto& genome : inboxes[cell]) {
        if (genome != nullptr) bytes_total += static_cast<double>(genome->byte_size());
      }
    }
  }

  AblationResult result;
  result.best_g_loss = cells[0]->g_fitness();
  double sum = 0.0;
  for (const auto& cell : cells) {
    result.best_g_loss = std::min(result.best_g_loss, cell->g_fitness());
    sum += cell->g_fitness();
  }
  result.mean_g_loss = sum / grid.size();
  result.bytes_per_iteration = bytes_total / config.iterations;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.grid_rows = defaults.config.grid_cols = 4;
  defaults.config.iterations = 10;
  defaults.config.batches_per_iteration = 2;
  defaults.dataset.samples = 300;
  common::CliParser cli("ablation_neighborhood: sub-population size sweep");
  core::RunSpec::add_flags(cli, defaults);
  if (!cli.parse(argc, argv)) return 1;
  const auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;

  // The topology sweep drives Grid/CellTrainer directly; flags and dataset
  // resolution come from the shared RunSpec/Session machinery. Flags that
  // only steer a Session backend have nothing to act on here.
  for (const char* flag : {"backend", "threads", "cost-profile", "result-json"}) {
    if (cli.was_set(flag)) {
      std::fprintf(stderr,
                   "note: --%s is ignored (this sweep drives the grid directly)\n",
                   flag);
    }
  }
  const core::TrainingConfig& config = spec->config;
  core::Session session(*spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    return 1;
  }
  const data::Dataset& dataset = session.train_set();

  std::printf("ablation: neighborhood topology on a %ux%u grid, %u iterations\n",
              config.grid_rows, config.grid_cols, config.iterations);
  std::printf("  %-10s %6s | %12s %12s | %16s\n", "topology", "s", "best G loss",
              "mean G loss", "KB/iteration");
  for (const char* topology : {"isolated", "ring", "moore5", "moore9"}) {
    const AblationResult r = run_topology(config, dataset, topology);
    const int s = topology == std::string("isolated")  ? 1
                  : topology == std::string("ring")    ? 3
                  : topology == std::string("moore5")  ? 5
                                                       : 9;
    std::printf("  %-10s %6d | %12.4f %12.4f | %16.1f\n", topology, s,
                r.best_g_loss, r.mean_g_loss, r.bytes_per_iteration / 1024.0);
  }
  std::printf("\nreading: larger neighborhoods move more bytes per epoch;\n"
              "coevolution (s>1) shares fitter genomes across the torus\n");
  return 0;
}
