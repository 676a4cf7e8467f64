#include "nn/optimizer.hpp"

#include <cmath>

#include "tensor/flops.hpp"

namespace cellgan::nn {

Adam::Adam(double lr, double beta1, double beta2, double epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void Adam::step(Layer& layer) {
  auto params = layer.parameters();
  auto grads = layer.gradients();
  CG_EXPECT(params.size() == grads.size());
  if (m_.size() != params.size()) {
    m_.assign(params.size(), {});
    v_.assign(params.size(), {});
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const float step_size = static_cast<float>(lr_ / bc1);
  const float b1 = static_cast<float>(beta1_), b2 = static_cast<float>(beta2_);
  const float eps = static_cast<float>(epsilon_);
  const float inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2));

  for (std::size_t i = 0; i < params.size(); ++i) {
    auto p = params[i]->data();
    auto g = grads[i]->data();
    CG_EXPECT(p.size() == g.size());
    if (m_[i].size() != p.size()) {
      m_[i].assign(p.size(), 0.0f);
      v_[i].assign(p.size(), 0.0f);
    }
    tensor::count_flops(10ULL * p.size());
    float* m = m_[i].data();
    float* v = v_[i].data();
    for (std::size_t j = 0; j < p.size(); ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * g[j];
      v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
      p[j] -= step_size * m[j] / (std::sqrt(v[j]) * inv_sqrt_bc2 + eps);
    }
  }
}

void Adam::reset() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

}  // namespace cellgan::nn
