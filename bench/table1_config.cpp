// Table I — parameters settings of the trained GANs.
//
// Prints the default TrainingConfig side by side with the paper's values and
// exits non-zero on any mismatch, so the configuration table is regenerated
// (and guarded) like every other experiment.
#include <cstdio>
#include <cstdlib>

#include "core/config.hpp"

namespace {

int failures = 0;

void row(const char* parameter, double ours, double paper) {
  const bool ok = ours == paper;
  if (!ok) ++failures;
  std::printf("  %-34s %12g %12g   %s\n", parameter, ours, paper,
              ok ? "ok" : "MISMATCH");
}

}  // namespace

int main() {
  using cellgan::core::TrainingConfig;
  const TrainingConfig config;  // library defaults must equal Table I

  std::printf("Table I: parameters settings of the trained GANs\n");
  std::printf("  %-34s %12s %12s\n", "parameter", "this repo", "paper");
  std::printf("  -- network topology --\n");
  row("input neurons (latent)", static_cast<double>(config.arch.latent_dim), 64);
  row("number of hidden layers", static_cast<double>(config.arch.hidden_layers), 2);
  row("neurons per hidden layer", static_cast<double>(config.arch.hidden_dim), 256);
  row("output neurons", static_cast<double>(config.arch.image_dim), 784);
  std::printf("  -- coevolutionary settings --\n");
  row("iterations", config.iterations, 200);
  // Every cell trains one center pair; the other members of its
  // subpopulation are its neighbors' gathered centers. Fixed, not a setting.
  row("population size per cell", 1, 1);
  row("tournament size", config.tournament_size, 2);
  row("mixture mutation scale", config.mixture_mutation_scale, 0.01);
  std::printf("  -- hyperparameter mutation --\n");
  row("initial learning rate (Adam)", config.initial_learning_rate, 0.0002);
  row("mutation rate (sigma)", config.lr_mutation_sigma, 0.0001);
  row("mutation probability", config.lr_mutation_probability, 0.5);
  std::printf("  -- training settings --\n");
  row("batch size", config.batch_size, 100);
  row("skip N disc. steps", config.discriminator_skip_steps, 1);
  std::printf("  -- derived network sizes --\n");
  std::printf("  %-34s %12zu\n", "generator parameters",
              config.arch.generator_parameter_count());
  std::printf("  %-34s %12zu\n", "discriminator parameters",
              config.arch.discriminator_parameter_count());

  if (failures != 0) {
    std::fprintf(stderr, "%d Table I mismatches\n", failures);
    return EXIT_FAILURE;
  }
  std::printf("all Table I parameters match the paper\n");
  return EXIT_SUCCESS;
}
