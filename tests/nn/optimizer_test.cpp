#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"

namespace cellgan::nn {
namespace {

/// One-parameter "network" for closed-form optimizer checks.
class ScalarLayer final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input) override { return input; }
  tensor::Tensor backward(const tensor::Tensor& grad) override { return grad; }
  std::vector<tensor::Tensor*> parameters() override { return {&param_}; }
  std::vector<tensor::Tensor*> gradients() override { return {&grad_}; }
  void zero_grad() override { grad_.fill(0.0f); }

  tensor::Tensor param_{1, 1, {1.0f}};
  tensor::Tensor grad_{1, 1, {0.0f}};
};

TEST(AdamTest, FirstStepMovesByLearningRate) {
  // With bias correction, the very first Adam step is ~lr * sign(grad).
  ScalarLayer layer;
  layer.grad_.at(0, 0) = 3.0f;
  Adam adam(0.01);
  adam.step(layer);
  EXPECT_NEAR(layer.param_.at(0, 0), 1.0f - 0.01f, 1e-4f);
}

TEST(AdamTest, MatchesReferenceImplementationForThreeSteps) {
  // Reference computed with the textbook Adam recurrences.
  const double lr = 0.1, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  double p = 1.0, m = 0.0, v = 0.0;
  const double grads[3] = {2.0, -1.0, 0.5};

  ScalarLayer layer;
  Adam adam(lr, b1, b2, eps);
  for (int t = 1; t <= 3; ++t) {
    const double g = grads[t - 1];
    m = b1 * m + (1 - b1) * g;
    v = b2 * v + (1 - b2) * g * g;
    const double mhat = m / (1 - std::pow(b1, t));
    const double vhat = v / (1 - std::pow(b2, t));
    p -= lr * mhat / (std::sqrt(vhat) + eps);

    layer.grad_.at(0, 0) = static_cast<float>(g);
    adam.step(layer);
    EXPECT_NEAR(layer.param_.at(0, 0), p, 1e-4) << "step " << t;
  }
  EXPECT_EQ(adam.steps_taken(), 3u);
}

TEST(AdamTest, ResetClearsMomentsAndStepCount) {
  ScalarLayer layer;
  layer.grad_.at(0, 0) = 1.0f;
  Adam adam(0.1);
  adam.step(layer);
  adam.reset();
  EXPECT_EQ(adam.steps_taken(), 0u);
  // After reset, the next step behaves like a first step again.
  const float before = layer.param_.at(0, 0);
  layer.grad_.at(0, 0) = 1.0f;
  adam.step(layer);
  EXPECT_NEAR(layer.param_.at(0, 0), before - 0.1f, 1e-4f);
}

TEST(AdamTest, LearningRateChangeKeepsMoments) {
  // Mutating lr mid-training (Lipizzaner's hyperparameter mutation) must not
  // reset Adam state: the second step with halved lr should be ~half the
  // size of the same step with original lr, not a fresh first step.
  ScalarLayer a_layer, b_layer;
  Adam a(0.1), b(0.1);
  a_layer.grad_.at(0, 0) = 1.0f;
  b_layer.grad_.at(0, 0) = 1.0f;
  a.step(a_layer);
  b.step(b_layer);
  b.set_learning_rate(0.05);
  a_layer.grad_.at(0, 0) = 1.0f;
  b_layer.grad_.at(0, 0) = 1.0f;
  const float a_before = a_layer.param_.at(0, 0);
  const float b_before = b_layer.param_.at(0, 0);
  a.step(a_layer);
  b.step(b_layer);
  const float a_delta = a_before - a_layer.param_.at(0, 0);
  const float b_delta = b_before - b_layer.param_.at(0, 0);
  EXPECT_NEAR(b_delta, 0.5f * a_delta, 1e-5f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (p - 3)^2; gradient = 2(p - 3).
  ScalarLayer layer;
  Adam adam(0.1);
  for (int i = 0; i < 500; ++i) {
    layer.grad_.at(0, 0) = 2.0f * (layer.param_.at(0, 0) - 3.0f);
    adam.step(layer);
  }
  EXPECT_NEAR(layer.param_.at(0, 0), 3.0f, 0.05f);
}

TEST(AdamTest, TrainsLinearRegression) {
  // y = x * w_true; recover w via MSE gradient steps on a Linear layer.
  common::Rng rng(11);
  Linear layer(2, 1);
  layer.weight().fill(0.0f);
  Adam adam(0.05);
  const tensor::Tensor w_true(2, 1, {0.5f, -1.5f});
  for (int step = 0; step < 400; ++step) {
    const tensor::Tensor x = tensor::Tensor::randn(16, 2, rng);
    const tensor::Tensor target = tensor::matmul(x, w_true);
    layer.zero_grad();
    const tensor::Tensor y = layer.forward(x);
    // dL/dy for L = mean((y - t)^2) is 2(y - t)/n.
    tensor::Tensor dy = y;
    tensor::axpy(-1.0f, target, dy);
    for (auto& v : dy.data()) v *= 2.0f / 16.0f;
    (void)layer.backward(dy);
    adam.step(layer);
  }
  EXPECT_NEAR(layer.weight().at(0, 0), 0.5f, 0.05f);
  EXPECT_NEAR(layer.weight().at(1, 0), -1.5f, 0.05f);
}

}  // namespace
}  // namespace cellgan::nn
