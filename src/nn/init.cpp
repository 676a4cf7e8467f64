#include "nn/init.hpp"

#include <cmath>

#include "nn/linear.hpp"

namespace cellgan::nn {

void xavier_uniform_init(Sequential& net, common::Rng& rng) {
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    auto* linear = dynamic_cast<Linear*>(&net.layer(i));
    if (linear == nullptr) continue;
    const double fan_in = static_cast<double>(linear->in_features());
    const double fan_out = static_cast<double>(linear->out_features());
    const double a = std::sqrt(6.0 / (fan_in + fan_out));
    for (auto& w : linear->weight().data()) {
      w = static_cast<float>(rng.uniform(-a, a));
    }
    linear->bias().fill(0.0f);
  }
}

void skip_xavier_uniform_init(Sequential& net, common::Rng& rng) {
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const auto* linear = dynamic_cast<const Linear*>(&net.layer(i));
    if (linear == nullptr) continue;
    const std::size_t weights = linear->in_features() * linear->out_features();
    for (std::size_t w = 0; w < weights; ++w) (void)rng.uniform();
  }
}

}  // namespace cellgan::nn
