#include "nn/gan_models.hpp"

#include <memory>

#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"

namespace cellgan::nn {

GanArch GanArch::paper() { return GanArch{64, 256, 2, 784}; }

GanArch GanArch::tiny() { return GanArch{8, 16, 2, 64}; }

namespace {
std::size_t mlp_parameter_count(std::size_t in, std::size_t hidden,
                                std::size_t hidden_layers, std::size_t out) {
  std::size_t total = (in + 1) * hidden;
  for (std::size_t i = 1; i < hidden_layers; ++i) total += (hidden + 1) * hidden;
  total += (hidden + 1) * out;
  return total;
}

/// in -> hidden^k (tanh) -> out, plus a tanh on the output when `squash`.
Sequential mlp(std::size_t in, const GanArch& arch, std::size_t out, bool squash,
               Params params) {
  Sequential net;
  net.add(std::make_unique<Linear>(in, arch.hidden_dim, params));
  net.add(std::make_unique<Tanh>());
  for (std::size_t i = 1; i < arch.hidden_layers; ++i) {
    net.add(std::make_unique<Linear>(arch.hidden_dim, arch.hidden_dim, params));
    net.add(std::make_unique<Tanh>());
  }
  net.add(std::make_unique<Linear>(arch.hidden_dim, out, params));
  if (squash) net.add(std::make_unique<Tanh>());
  return net;
}
}  // namespace

std::size_t GanArch::generator_parameter_count() const {
  return mlp_parameter_count(latent_dim, hidden_dim, hidden_layers, image_dim);
}

std::size_t GanArch::discriminator_parameter_count() const {
  return mlp_parameter_count(image_dim, hidden_dim, hidden_layers, 1);
}

Sequential make_generator(const GanArch& arch, common::Rng& rng,
                          std::size_t label_dims) {
  Sequential net =
      mlp(arch.latent_dim + label_dims, arch, arch.image_dim, true, Params::kOwned);
  xavier_uniform_init(net, rng);
  return net;
}

Sequential make_discriminator(const GanArch& arch, common::Rng& rng,
                              std::size_t label_dims) {
  Sequential net = mlp(arch.image_dim + label_dims, arch, 1, false, Params::kOwned);
  xavier_uniform_init(net, rng);
  return net;
}

Sequential borrowing_generator(const GanArch& arch, std::size_t label_dims) {
  return mlp(arch.latent_dim + label_dims, arch, arch.image_dim, true,
             Params::kBorrowed);
}

Sequential borrowing_discriminator(const GanArch& arch, std::size_t label_dims) {
  return mlp(arch.image_dim + label_dims, arch, 1, false, Params::kBorrowed);
}

}  // namespace cellgan::nn
