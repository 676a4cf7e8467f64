#include "nn/optimizer.hpp"

#include <cmath>

#include "tensor/flops.hpp"
#include "tensor/kernels.hpp"

namespace cellgan::nn {

Adam::Adam(double lr, double beta1, double beta2, double epsilon)
    : lr_(lr), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {}

void Adam::step(Layer& layer) {
  auto params = layer.parameters();
  auto grads = layer.gradients();
  CG_EXPECT(params.size() == grads.size());
  if (m_.empty() && v_.empty() && !params.empty()) {
    // A fresh optimizer, or one just reset(). Held moments, say restored
    // from a checkpoint, must fit the layer: they are never replaced.
    CG_EXPECT(t_ == 0);
    for (const tensor::Tensor* p : params) {
      m_.emplace_back(p->size(), 0.0f);
      v_.emplace_back(p->size(), 0.0f);
    }
  }
  CG_EXPECT(m_.size() == params.size() && v_.size() == params.size());
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const tensor::kernels::AdamCoefficients coefficients{
      .beta1 = static_cast<float>(beta1_),
      .beta2 = static_cast<float>(beta2_),
      .step_size = static_cast<float>(lr_ / bc1),
      .inv_sqrt_bc2 = static_cast<float>(1.0 / std::sqrt(bc2)),
      .epsilon = static_cast<float>(epsilon_)};
  const tensor::KernelKind kind = tensor::active_kernel_kind();

  for (std::size_t i = 0; i < params.size(); ++i) {
    auto p = params[i]->data();
    auto g = grads[i]->data();
    CG_EXPECT(p.size() == g.size());
    CG_EXPECT(m_[i].size() == p.size() && v_[i].size() == p.size());
    tensor::count_flops(10ULL * p.size());
    tensor::kernels::adam_update(kind, coefficients, p.data(), g.data(), m_[i].data(),
                                 v_[i].data(), p.size());
  }
}

void Adam::reset() {
  t_ = 0;
  m_.clear();
  v_.clear();
}

}  // namespace cellgan::nn
