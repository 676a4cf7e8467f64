#include "core/gan_trainer.hpp"

#include <algorithm>
#include <vector>

#include "common/expect.hpp"
#include "tensor/ops.hpp"

namespace cellgan::core {

namespace {

tensor::Tensor latent_batch(std::size_t batch_size, std::size_t latent_dim,
                            common::Rng& rng) {
  return tensor::Tensor::randn(batch_size, latent_dim, rng, 1.0f);
}

/// Uniform fake-class labels, one per row. Drawn BEFORE the latent block so
/// the conditional rng consumption order is fixed and replayable.
std::vector<std::uint32_t> draw_labels(std::size_t count, std::size_t classes,
                                       common::Rng& rng) {
  std::vector<std::uint32_t> labels(count);
  for (auto& label : labels) {
    label = static_cast<std::uint32_t>(rng.uniform_int(classes));
  }
  return labels;
}

/// Gradient w.r.t. the unconditioned columns: drop the one-hot tail the
/// discriminator backward produced for the label plane.
tensor::Tensor drop_label_columns(const tensor::Tensor& grad, std::size_t cols) {
  CG_EXPECT(grad.cols() >= cols);
  tensor::Tensor out(grad.rows(), cols);
  for (std::size_t r = 0; r < grad.rows(); ++r) {
    const auto src = grad.row_span(r);
    auto dst = out.row_span(r);
    std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(cols),
              dst.begin());
  }
  return out;
}

/// The generator input for a conditional (or plain) fake batch.
tensor::Tensor generator_input(const tensor::Tensor& latents,
                               std::span<const std::uint32_t> labels,
                               std::size_t classes) {
  if (classes == 0) return latents;
  return append_one_hot(latents, labels, classes);
}

/// The discriminator input for a conditional (or plain) image batch.
tensor::Tensor discriminator_input(const tensor::Tensor& images,
                                   std::span<const std::uint32_t> labels,
                                   std::size_t classes) {
  if (classes == 0) return images;
  return append_one_hot(images, labels, classes);
}

}  // namespace

tensor::Tensor append_one_hot(const tensor::Tensor& x,
                              std::span<const std::uint32_t> labels,
                              std::size_t classes) {
  CG_EXPECT(labels.size() == x.rows());
  tensor::Tensor out(x.rows(), x.cols() + classes);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto src = x.row_span(r);
    auto dst = out.row_span(r);
    std::copy(src.begin(), src.end(), dst.begin());
    std::fill(dst.begin() + static_cast<std::ptrdiff_t>(x.cols()), dst.end(), 0.0f);
    CG_EXPECT(labels[r] < classes);
    dst[x.cols() + labels[r]] = 1.0f;
  }
  return out;
}

void clip_parameters(nn::Sequential& net, double clip) {
  CG_EXPECT(clip > 0.0);
  const float c = static_cast<float>(clip);
  for (tensor::Tensor* parameter : net.parameters()) {
    for (float& value : parameter->data()) value = std::clamp(value, -c, c);
  }
}

double train_discriminator_step(nn::Sequential& discriminator,
                                nn::Adam& d_optimizer,
                                nn::Sequential& generator,
                                const tensor::Tensor& real_batch,
                                std::size_t latent_dim, common::Rng& rng,
                                GanLossKind loss_kind,
                                const GanStepOptions& options) {
  const std::size_t batch = real_batch.rows();
  const std::size_t classes = options.label_classes;
  std::vector<std::uint32_t> fake_labels;
  if (classes > 0) {
    CG_EXPECT(options.real_labels.size() == batch);
    fake_labels = draw_labels(batch, classes, rng);
  }
  const tensor::Tensor fake = generator.forward(
      generator_input(latent_batch(batch, latent_dim, rng), fake_labels, classes),
      nn::Cache::kNone);

  discriminator.zero_grad();
  // Gradients accumulate across the real and fake backward passes; no one
  // reads the image gradients.
  const tensor::Tensor real_logits = discriminator.forward(
      discriminator_input(real_batch, options.real_labels, classes));
  auto [real_loss, d_real] = discriminator_real_loss_grad(loss_kind, real_logits);
  discriminator.backward(d_real, nn::Grads::kParams);
  const tensor::Tensor fake_logits =
      discriminator.forward(discriminator_input(fake, fake_labels, classes));
  auto [fake_loss, d_fake] = discriminator_fake_loss_grad(loss_kind, fake_logits);
  discriminator.backward(d_fake, nn::Grads::kParams);

  d_optimizer.step(discriminator);
  if (options.weight_clip > 0.0) clip_parameters(discriminator, options.weight_clip);
  return static_cast<double>(real_loss) + fake_loss;
}

double train_generator_step(nn::Sequential& generator, nn::Adam& g_optimizer,
                            nn::Sequential& discriminator, std::size_t batch_size,
                            std::size_t latent_dim, common::Rng& rng,
                            GanLossKind loss_kind, const GanStepOptions& options) {
  generator.zero_grad();

  const std::size_t classes = options.label_classes;
  std::vector<std::uint32_t> fake_labels;
  if (classes > 0) fake_labels = draw_labels(batch_size, classes, rng);
  const tensor::Tensor fake = generator.forward(generator_input(
      latent_batch(batch_size, latent_dim, rng), fake_labels, classes));
  const tensor::Tensor logits =
      discriminator.forward(discriminator_input(fake, fake_labels, classes));
  auto [loss, dlogits] = generator_loss_grad(loss_kind, logits);
  // D only carries the gradient back to G: its own parameter gradients stay
  // untouched, and G's latent gradient is never computed.
  const tensor::Tensor dinput = discriminator.backward(dlogits, nn::Grads::kInput);
  generator.backward(classes == 0 ? dinput : drop_label_columns(dinput, fake.cols()),
                     nn::Grads::kParams);

  g_optimizer.step(generator);
  return loss;
}

double evaluate_generator_loss(nn::Sequential& generator,
                               nn::Sequential& discriminator, std::size_t batch_size,
                               std::size_t latent_dim, common::Rng& rng,
                               const GanStepOptions& options) {
  const std::size_t classes = options.label_classes;
  std::vector<std::uint32_t> fake_labels;
  if (classes > 0) fake_labels = draw_labels(batch_size, classes, rng);
  const tensor::Tensor fake = generator.forward(
      generator_input(latent_batch(batch_size, latent_dim, rng), fake_labels, classes),
      nn::Cache::kNone);
  const tensor::Tensor logits = discriminator.forward(
      discriminator_input(fake, fake_labels, classes), nn::Cache::kNone);
  auto [loss, dlogits] =
      tensor::bce_with_logits(logits, tensor::Tensor::full(batch_size, 1, 1.0f));
  (void)dlogits;
  return loss;
}

double evaluate_discriminator_loss(nn::Sequential& discriminator,
                                   nn::Sequential& generator,
                                   const tensor::Tensor& real_batch,
                                   std::size_t latent_dim, common::Rng& rng,
                                   const GanStepOptions& options) {
  const std::size_t batch = real_batch.rows();
  const std::size_t classes = options.label_classes;
  std::vector<std::uint32_t> fake_labels;
  if (classes > 0) {
    CG_EXPECT(options.real_labels.size() == batch);
    fake_labels = draw_labels(batch, classes, rng);
  }
  const tensor::Tensor fake = generator.forward(
      generator_input(latent_batch(batch, latent_dim, rng), fake_labels, classes),
      nn::Cache::kNone);
  const tensor::Tensor real_logits = discriminator.forward(
      discriminator_input(real_batch, options.real_labels, classes), nn::Cache::kNone);
  auto [real_loss, d_real] =
      tensor::bce_with_logits(real_logits, tensor::Tensor::full(batch, 1, 1.0f));
  (void)d_real;
  const tensor::Tensor fake_logits = discriminator.forward(
      discriminator_input(fake, fake_labels, classes), nn::Cache::kNone);
  auto [fake_loss, d_fake] =
      tensor::bce_with_logits(fake_logits, tensor::Tensor::full(batch, 1, 0.0f));
  (void)d_fake;
  return static_cast<double>(real_loss) + fake_loss;
}

}  // namespace cellgan::core
