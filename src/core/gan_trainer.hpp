// Adversarial gradient steps and loss evaluations for one G/D pairing.
//
// Standard non-saturating GAN objective with BCE-with-logits:
//   D minimizes  BCE(D(x_real), 1) + BCE(D(G(z)), 0)
//   G minimizes  BCE(D(G(z)), 1)
// Each function performs exactly one mini-batch update (or a pure
// evaluation), so the cell trainer composes them freely under tournament
// selection.
//
// Two orthogonal extensions ride GanStepOptions (both off by default, so
// existing call sites and trajectories are untouched):
//   weight_clip  — WGAN critic clipping: after each discriminator step every
//                  parameter is clamped to [-c, +c] (Arjovsky et al.);
//   conditional  — class-conditional pathway: one-hot labels are appended to
//                  generator latents and discriminator inputs. Fake labels
//                  are drawn uniformly from the caller's rng (BEFORE the
//                  latent block, a fixed order the parity suites pin); real
//                  labels come from the dataset batch.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "core/gan_losses.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::core {

struct GanStepOptions {
  /// > 0: clamp every discriminator parameter to [-weight_clip, +weight_clip]
  /// after the optimizer step (the WGAN critic constraint).
  double weight_clip = 0.0;
  /// > 0: conditional pathway with this many one-hot label classes.
  std::size_t label_classes = 0;
  /// Row-aligned labels of the real batch; required when label_classes > 0
  /// and the call consumes a real batch.
  std::span<const std::uint32_t> real_labels = {};
};

/// One discriminator update on a real batch + an equal-size fake batch.
/// Returns the discriminator loss before the step. `loss_kind` selects the
/// objective (Mustangs loss diversity); the default reproduces Lipizzaner.
double train_discriminator_step(nn::Sequential& discriminator,
                                nn::Adam& d_optimizer,
                                nn::Sequential& generator,
                                const tensor::Tensor& real_batch,
                                std::size_t latent_dim, common::Rng& rng,
                                GanLossKind loss_kind = GanLossKind::kHeuristic,
                                const GanStepOptions& options = {});

/// One generator update against a fixed discriminator. Returns the generator
/// loss before the step.
double train_generator_step(nn::Sequential& generator, nn::Adam& g_optimizer,
                            nn::Sequential& discriminator, std::size_t batch_size,
                            std::size_t latent_dim, common::Rng& rng,
                            GanLossKind loss_kind = GanLossKind::kHeuristic,
                            const GanStepOptions& options = {});

/// Generator loss (how badly G fools D) without any update. Fitness
/// comparisons always use the heuristic objective so values are comparable
/// across cells regardless of each cell's training loss.
double evaluate_generator_loss(nn::Sequential& generator,
                               nn::Sequential& discriminator, std::size_t batch_size,
                               std::size_t latent_dim, common::Rng& rng,
                               const GanStepOptions& options = {});

/// Discriminator loss on real + fake batches without any update.
double evaluate_discriminator_loss(nn::Sequential& discriminator,
                                   nn::Sequential& generator,
                                   const tensor::Tensor& real_batch,
                                   std::size_t latent_dim, common::Rng& rng,
                                   const GanStepOptions& options = {});

/// Append `classes` one-hot columns (label per row) to `x` — the conditional
/// input encoding shared by training, fitness evaluation and mixture
/// sampling.
tensor::Tensor append_one_hot(const tensor::Tensor& x,
                              std::span<const std::uint32_t> labels,
                              std::size_t classes);

/// Clamp every parameter of `net` to [-clip, +clip] (WGAN critic clipping).
void clip_parameters(nn::Sequential& net, double clip);

}  // namespace cellgan::core
