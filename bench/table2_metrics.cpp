// Table II — quality of the generative models per grid size: the inception
// score (and FID / mode coverage, which the paper discusses qualitatively)
// of the best neighborhood's mixture after training 2x2 / 3x3 / 4x4 grids,
// measured end-to-end through the observer bus: the trainer publishes epoch
// records, metrics::EvaluatorObserver samples each generator and the best
// mixture every --eval-every epochs and scores them against the held-out
// set — the same wiring `cellgan_run --eval-every` uses, on synthetic data
// or real MNIST (`--dataset idx:DIR`).
//
// Methodology (DESIGN.md §1): the in-domain MLP classifier stands in for the
// Inception network, preserving the fitness-ordering role the paper assigns
// to the score; runs are reduced-scale reproductions, so the measured trend
// across grid sizes (larger grids -> better mixtures), not the absolute
// paper numbers, is the comparison target.
//
// --json FILE writes the measured rows as machine-readable JSON so CI can
// archive metric numbers (ci/check.sh --bench -> BENCH_metrics.json).
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "metrics/evaluator_observer.hpp"

namespace {

using namespace cellgan;

struct GridMetrics {
  int side = 0;
  double mean_cell_is = 0.0;   ///< mean per-generator IS at the final eval
  double best_cell_is = 0.0;
  double mixture_is = 0.0;     ///< Table II's quality column
  double fid = 0.0;
  std::size_t modes_covered = 0;
  double tvd_from_uniform = 0.0;
  double virtual_min = 0.0;    ///< run makespan, for the time-vs-quality view
  std::size_t evals = 0;       ///< metric snapshots taken during the run
};

GridMetrics run_grid(const core::RunSpec& base, int side) {
  core::RunSpec spec = base;
  spec.config.grid_rows = spec.config.grid_cols = static_cast<std::uint32_t>(side);

  core::Session session(spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    std::exit(1);
  }
  metrics::EvaluatorOptions options;
  options.eval_every = spec.observers.eval_every;
  options.samples = spec.observers.eval_samples;
  const data::Dataset* test = nullptr;
  try {
    test = &session.test_set();
  } catch (const std::runtime_error& e) {  // an unreadable IDX test pair
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(1);
  }
  metrics::EvaluatorObserver evaluator(session.spec().config, *test, options);
  session.observers().subscribe(&evaluator);
  const core::RunResult result = session.run();

  GridMetrics row;
  row.side = side;
  row.virtual_min = result.virtual_s / 60.0;
  row.evals = evaluator.history().size();
  if (result.metrics.has_value()) {
    const core::MetricSnapshot& final_snapshot = *result.metrics;
    double total = 0.0, best = 0.0;
    for (const double is : final_snapshot.cell_is) {
      total += is;
      best = std::max(best, is);
    }
    row.mean_cell_is =
        final_snapshot.cell_is.empty()
            ? 0.0
            : total / static_cast<double>(final_snapshot.cell_is.size());
    row.best_cell_is = best;
    row.mixture_is = final_snapshot.mixture_is;
    row.fid = final_snapshot.fid;
    row.modes_covered = final_snapshot.modes_covered;
    row.tvd_from_uniform = final_snapshot.tvd_from_uniform;
  }
  return row;
}

void write_json(const std::string& path, const std::vector<GridMetrics>& rows,
                const core::RunSpec& base) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"table2_metrics\",\n");
  std::fprintf(f, "  \"schema_version\": %u,\n", core::kRunJsonSchemaVersion);
  // The dataset text embeds a user path: escape it for valid JSON.
  std::string dataset_text;
  for (const char c : base.dataset.to_text()) {
    if (c == '"' || c == '\\') dataset_text += '\\';
    dataset_text += c;
  }
  std::fprintf(f, "  \"iterations\": %u,\n  \"eval_every\": %u,\n"
               "  \"eval_samples\": %zu,\n  \"dataset\": \"%s\",\n"
               "  \"grids\": [\n",
               base.config.iterations, base.observers.eval_every,
               base.observers.eval_samples, dataset_text.c_str());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GridMetrics& r = rows[i];
    std::fprintf(f,
                 "    {\"side\": %d, \"mean_cell_is\": %.6f, "
                 "\"best_cell_is\": %.6f, \"mixture_is\": %.6f,\n"
                 "     \"fid\": %.6f, \"modes_covered\": %zu, "
                 "\"tvd_from_uniform\": %.6f,\n"
                 "     \"virtual_min\": %.6f, \"evals\": %zu}%s\n",
                 r.side, r.mean_cell_is, r.best_cell_is, r.mixture_is, r.fid,
                 r.modes_covered, r.tvd_from_uniform, r.virtual_min, r.evals,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.iterations = 12;
  defaults.dataset.samples = 200;
  defaults.cost_profile = core::CostProfileKind::kTable3;
  defaults.observers.eval_every = 4;
  defaults.observers.eval_samples = 128;

  common::CliParser cli("table2_metrics: Table II reproduction (generator "
                        "quality per grid size, via the observer bus)");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("max-side", "4", "largest grid side to run (2..max-side)");
  cli.add_flag("json", "", "write machine-readable results to this file");
  if (!cli.parse(argc, argv)) return 1;
  auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;
  if (spec->observers.eval_every == 0) {
    std::fprintf(stderr, "--eval-every must be >= 1 for this bench\n");
    return 1;
  }
  const int max_side = static_cast<int>(cli.get_int("max-side"));
  if (max_side < 2) {
    std::fprintf(stderr, "--max-side must be >= 2\n");
    return 1;
  }

  std::printf("Table II: generator quality per grid size (%u iterations, "
              "eval every %u)\n",
              spec->config.iterations, spec->observers.eval_every);
  std::printf("  %-6s | %10s %10s %10s | %8s %8s %6s | %10s\n", "grid",
              "cell IS", "best IS", "mix IS", "FID", "tvd", "modes",
              "virt(min)");
  std::vector<GridMetrics> rows;
  for (int side = 2; side <= max_side; ++side) {
    const GridMetrics r = run_grid(*spec, side);
    rows.push_back(r);
    std::printf("  %dx%-4d | %10.3f %10.3f %10.3f | %8.3f %8.3f %5zu/10 |"
                " %10.2f\n",
                r.side, r.side, r.mean_cell_is, r.best_cell_is, r.mixture_is,
                r.fid, r.tvd_from_uniform, r.modes_covered, r.virtual_min);
  }

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) write_json(json_path, rows, *spec);

  std::printf("\nshape check: the paper's Table II trend is larger grids ->"
              " better mixtures\n(higher IS); absolute values depend on the"
              " reduced scale and the in-domain\nclassifier — see DESIGN.md"
              " §1 and EXPERIMENTS.md\n");
  return 0;
}
