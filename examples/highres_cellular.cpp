// Higher-dimensional image generation — the paper's closing future-work item
// ("apply our method to train GANs to address the generation of higher
// dimensional images, such as samples from CIFAR and CelebA").
//
// The synthetic digit glyphs are vector shapes, so the data layer renders
// natively at any resolution; this example trains the cellular GAN on
// 32x32 (1024-pixel) images — larger than MNIST's 784 — exercising exactly
// the scaling path the paper proposes: only the architecture configuration
// changes; the run goes through the same core::Session facade as every
// other workload (pick --backend threads to use more cores).
#include <cstdio>

#include "core/session.hpp"
#include "data/pgm.hpp"

int main(int argc, char** argv) {
  using namespace cellgan;

  core::RunSpec defaults;
  defaults.config = core::TrainingConfig::tiny();
  defaults.config.iterations = 10;
  defaults.config.batch_size = 32;
  defaults.config.fitness_eval_samples = 32;
  defaults.config.batches_per_iteration = 2;
  defaults.dataset.samples = 500;
  defaults.dataset.seed = 11;

  common::CliParser cli("highres_cellular: 32x32 generation (future work)");
  core::RunSpec::add_flags(cli, defaults);
  cli.add_flag("side", "32", "image side length (>= 28 exceeds MNIST)");
  cli.add_flag("out", "highres_samples.pgm", "output sample sheet");
  if (!cli.parse(argc, argv)) return 1;
  auto spec = core::RunSpec::from_cli(cli, defaults);
  if (!spec) return 1;

  const auto side = static_cast<std::size_t>(cli.get_int("side"));
  spec->config.arch.latent_dim = 32;
  spec->config.arch.hidden_dim = 96;
  spec->config.arch.image_dim = side * side;

  core::Session session(*spec);
  if (!session.prepare()) {
    std::fprintf(stderr, "error: %s\n", session.error().c_str());
    return 1;
  }
  std::printf("training %ux%u grid on %zux%zu images (%zu pixels), %u epochs\n",
              spec->config.grid_rows, spec->config.grid_cols, side, side,
              spec->config.arch.image_dim, spec->config.iterations);
  std::printf("generator parameters: %zu, discriminator: %zu\n",
              spec->config.arch.generator_parameter_count(),
              spec->config.arch.discriminator_parameter_count());

  const core::RunResult outcome = session.run();
  std::printf("done in %.2fs wall; best cell %d (G loss %.4f)\n", outcome.wall_s,
              outcome.best_cell,
              outcome.g_fitnesses[static_cast<std::size_t>(outcome.best_cell)]);

  const tensor::Tensor samples = session.sample_best(outcome, 9, spec->config.seed);
  std::printf("sample (ASCII, %zux%zu):\n%s", side, side,
              data::ascii_art_sized(samples.row_span(0), side).c_str());
  if (data::write_pgm_grid_sized(cli.get("out"), samples.data(), 9, 3, side)) {
    std::printf("wrote %s\n", cli.get("out").c_str());
  }
  return 0;
}
