// Finite-difference gradient checks for every activation backward pass and
// the two loss functions — the invariants the whole training stack rests on.
#include <gtest/gtest.h>

#include <functional>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace cellgan::tensor {
namespace {

/// Numerical dL/dx for a scalar-valued function of one tensor.
Tensor numeric_gradient(const std::function<double(const Tensor&)>& f, Tensor x,
                        float eps = 1e-3f) {
  Tensor grad(x.rows(), x.cols());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float original = x.data()[i];
    x.data()[i] = original + eps;
    const double up = f(x);
    x.data()[i] = original - eps;
    const double down = f(x);
    x.data()[i] = original;
    grad.data()[i] = static_cast<float>((up - down) / (2.0 * eps));
  }
  return grad;
}

void expect_grad_near(const Tensor& analytic, const Tensor& numeric,
                      float tol = 2e-2f) {
  ASSERT_TRUE(analytic.same_shape(numeric));
  for (std::size_t i = 0; i < analytic.size(); ++i) {
    ASSERT_NEAR(analytic.data()[i], numeric.data()[i], tol)
        << "at flat index " << i;
  }
}

TEST(GradCheckTest, TanhBackward) {
  common::Rng rng(1);
  const Tensor x = Tensor::randn(3, 4, rng);
  // L = sum(tanh(x)); dL/dy = ones.
  const Tensor y = tanh_forward(x);
  const Tensor analytic = tanh_backward(Tensor::full(3, 4, 1.0f), y);
  const Tensor numeric = numeric_gradient(
      [](const Tensor& t) { return static_cast<double>(sum(tanh_forward(t))); }, x);
  expect_grad_near(analytic, numeric);
}

TEST(GradCheckTest, BceWithLogitsGradient) {
  common::Rng rng(4);
  const Tensor logits = Tensor::randn(4, 2, rng);
  Tensor target(4, 2);
  for (std::size_t i = 0; i < target.size(); ++i) {
    target.data()[i] = (i % 2 == 0) ? 1.0f : 0.0f;
  }
  auto [loss, analytic] = bce_with_logits(logits, target);
  (void)loss;
  const Tensor numeric = numeric_gradient(
      [&target](const Tensor& z) {
        return bce_with_logits(z, target).first;
      },
      logits);
  expect_grad_near(analytic, numeric, 1e-2f);
}

TEST(GradCheckTest, SoftmaxCrossEntropyGradient) {
  common::Rng rng(5);
  const Tensor logits = Tensor::randn(4, 5, rng);
  const std::vector<std::uint32_t> labels{0, 2, 4, 1};
  auto [loss, analytic] = softmax_cross_entropy(logits, labels);
  (void)loss;
  const Tensor numeric = numeric_gradient(
      [&labels](const Tensor& z) {
        return softmax_cross_entropy(z, labels).first;
      },
      logits);
  expect_grad_near(analytic, numeric, 1e-2f);
}

}  // namespace
}  // namespace cellgan::tensor
