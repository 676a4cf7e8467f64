#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/gan_models.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan::nn {
namespace {

/// One-parameter "network" for closed-form optimizer checks.
class ScalarLayer final : public Layer {
 public:
  tensor::Tensor forward(const tensor::Tensor& input, Cache) override { return input; }
  tensor::Tensor backward(const tensor::Tensor& grad, Grads) override { return grad; }
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

TEST(AdamDeathTest, RestoredMomentsOfAnotherShapeAbort) {
  // Moments restored from a checkpoint must fit the layer. Moments of another
  // shape used to be replaced by zeros without a word, while the restored
  // step count stayed.
  ScalarLayer layer;
  layer.grad_.at(0, 0) = 1.0f;
  Adam longer(0.1);
  longer.restore_moments(7, {{0.5f, 0.5f}}, {{0.25f, 0.25f}});
  EXPECT_DEATH(longer.step(layer), "precondition");
  Adam more(0.1);
  more.restore_moments(7, {{0.5f}, {0.5f}}, {{0.25f}, {0.25f}});
  EXPECT_DEATH(more.step(layer), "precondition");
  Adam none(0.1);
  none.restore_moments(7, {}, {});
  EXPECT_DEATH(none.step(layer), "precondition");
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

/// Parameters and moments after `steps` Adam steps on seeded uniform
/// gradients, all under one kernel kind.
struct AdamRun {
  std::vector<float> params;
  std::vector<std::vector<float>> m, v;
};

template <typename L>
AdamRun run_adam(tensor::KernelKind kind, L layer, int steps) {
  testsupport::KindGuard guard(kind);
  common::Rng rng(5);
  Adam adam(2e-4);
  for (int s = 0; s < steps; ++s) {
    for (tensor::Tensor* g : layer.gradients()) {
      *g = tensor::Tensor::rand_uniform(g->rows(), g->cols(), rng, -1.0f, 1.0f);
    }
    adam.step(layer);
  }
  AdamRun run{{}, adam.first_moments(), adam.second_moments()};
  for (tensor::Tensor* p : layer.parameters()) {
    run.params.insert(run.params.end(), p->data().begin(), p->data().end());
  }
  return run;
}

/// Index of the first element whose bits differ; a.size() when none does.
std::size_t first_bit_difference(std::span<const float> a, std::span<const float> b) {
  EXPECT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) {
      return i;
    }
  }
  return a.size();
}

void expect_same_adam_bits(const AdamRun& scalar, const AdamRun& simd) {
  EXPECT_EQ(scalar.params.size(), first_bit_difference(scalar.params, simd.params));
  ASSERT_EQ(scalar.m.size(), simd.m.size());
  ASSERT_EQ(scalar.v.size(), simd.v.size());
  for (std::size_t i = 0; i < scalar.m.size(); ++i) {
    EXPECT_EQ(scalar.m[i].size(), first_bit_difference(scalar.m[i], simd.m[i])) << i;
    EXPECT_EQ(scalar.v[i].size(), first_bit_difference(scalar.v[i], simd.v[i])) << i;
  }
}

TEST(AdamTest, OneStepIdenticalUnderBothKinds) {
  // 13x7 weights and 7 biases: both tensors end in a partial vector.
  common::Rng rng(3);
  Linear layer(13, 7);
  layer.weight() = tensor::Tensor::randn(13, 7, rng);
  layer.bias() = tensor::Tensor::randn(1, 7, rng);
  expect_same_adam_bits(run_adam(tensor::KernelKind::kScalar, layer, 1),
                        run_adam(tensor::KernelKind::kSimd, layer, 1));
}

TEST(AdamTest, FiftyGeneratorStepsIdenticalUnderBothKinds) {
  // The Table I generator, 283,920 parameters.
  common::Rng rng(4);
  Sequential generator = make_generator(GanArch::paper(), rng);
  ASSERT_EQ(generator.parameter_count(), 283920u);
  const std::vector<float> initial = generator.flatten_parameters();
  const AdamRun scalar = run_adam(tensor::KernelKind::kScalar, std::move(generator), 50);
  Sequential again = make_generator(GanArch::paper(), rng);
  again.load_parameters(initial);
  expect_same_adam_bits(scalar, run_adam(tensor::KernelKind::kSimd, std::move(again), 50));
}

}  // namespace
}  // namespace cellgan::nn
