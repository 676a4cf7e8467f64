// Train briefly, then use the final product the way a downstream user would:
// save the trained grid as a checkpoint, restore it through the serving
// plane's warm model cache (serve::ModelCache -> core::CheckpointMixture) and
// draw a sheet of images with one seed-addressed batched mixture forward —
// the "generative model returned ... defined by the sub-population with the
// highest quality" (Section II.B). This is exactly the path cellgan_serve
// walks per request, so the printed samples are reproducible bit-for-bit by
// a serving daemon pointed at the same checkpoint and seed (per
// tensor-kernel kind); the example asserts that against the Session's own
// seeded sample_best.
#include <cstdio>
#include <filesystem>

#include "core/checkpoint.hpp"
#include "core/session.hpp"
#include "data/pgm.hpp"
#include "evolve/grid.hpp"
#include "serve/model_cache.hpp"

int main(int argc, char** argv) {
  using namespace cellgan;

  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.arch = nn::GanArch::paper();  // full 28x28 images for viewing
  defaults.config.batch_size = 50;
  defaults.config.iterations = 8;
  defaults.backend = core::Backend::kDistributed;

  common::CliParser cli("mixture_inference: sample from the returned mixture");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("count", "16", "images to generate");
  cli.add_flag("sample-seed", "42",
               "sampling seed (the serve-path request seed)");
  cli.add_flag("out-dir", "out", "artifact directory (checkpoint + PGM)");
  if (!cli.parse(argc, argv)) return 1;
  const auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;

  core::Session session(*spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    return 1;
  }
  std::printf("training %ux%u grid (paper architecture), %u iterations...\n",
              spec->config.grid_rows, spec->config.grid_cols,
              spec->config.iterations);
  const core::RunResult outcome = session.run();

  // The reduction returns the best cell; its neighborhood on the torus is the
  // mixture the checkpoint sampler reassembles.
  evolve::Grid grid(static_cast<int>(spec->config.grid_rows),
                    static_cast<int>(spec->config.grid_cols));
  const auto members = grid.neighborhood_of(outcome.best_cell);
  std::printf("best cell: %d, neighborhood:", outcome.best_cell);
  for (const int m : members) std::printf(" %d", m);
  std::printf("\n");

  // Hand-off artifact: the checkpoint is the model file a serving daemon
  // loads; writing it and restoring through the cache is the deployment
  // round trip, not a detour.
  const std::filesystem::path out_dir(cli.get("out-dir"));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  const std::string checkpoint_path = (out_dir / "mixture.ckpt").string();
  if (!core::save_checkpoint(checkpoint_path,
                             session.result_checkpoint(outcome))) {
    std::fprintf(stderr, "error: cannot write %s\n", checkpoint_path.c_str());
    return 1;
  }
  std::printf("checkpoint: %s\n", checkpoint_path.c_str());

  serve::ModelCache cache(2);
  const auto lookup = cache.get(checkpoint_path);
  if (lookup.model == nullptr) {
    std::fprintf(stderr, "error: %s\n", lookup.error.c_str());
    return 1;
  }
  std::printf("restored cell %d, mixture weights:", lookup.model->cell());
  for (const double w : lookup.model->weights().weights()) {
    std::printf(" %.3f", w);
  }
  std::printf("\n");

  const auto count = static_cast<std::size_t>(cli.get_int("count"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("sample-seed"));
  const tensor::Tensor samples = lookup.model->sample(count, seed);

  // The serving plane's promise, checked where a user can see it: the
  // restored model's draw equals the Session's own seeded sampler.
  const tensor::Tensor direct = session.sample_best(outcome, count, seed);
  const auto a = samples.data();
  const auto b = direct.data();
  bool identical = a.size() == b.size();
  for (std::size_t i = 0; identical && i < a.size(); ++i) {
    identical = a[i] == b[i];
  }
  std::printf("serve-path == session sample_best(seed): %s\n",
              identical ? "bit-identical" : "MISMATCH");
  if (!identical) return 1;

  std::printf("sample (ASCII):\n%s", data::ascii_art(samples.row_span(0)).c_str());
  const std::string pgm_path = (out_dir / "mixture_samples.pgm").string();
  if (data::write_pgm_grid(pgm_path, samples.data(), count, 4)) {
    std::printf("wrote %s\n", pgm_path.c_str());
  }
  return 0;
}
