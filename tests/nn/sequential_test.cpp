#include "nn/sequential.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "tensor/ops.hpp"

namespace cellgan::nn {
namespace {

Sequential make_mlp(common::Rng& rng) {
  Sequential net;
  net.add(std::make_unique<Linear>(4, 8));
  net.add(std::make_unique<Tanh>());
  net.add(std::make_unique<Linear>(8, 2));
  xavier_uniform_init(net, rng);
  return net;
}

TEST(SequentialTest, ForwardChainsLayers) {
  common::Rng rng(1);
  Sequential net = make_mlp(rng);
  const tensor::Tensor x = tensor::Tensor::randn(3, 4, rng);
  const tensor::Tensor y = net.forward(x);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(SequentialTest, ParameterCountMatchesLayerSum) {
  common::Rng rng(2);
  Sequential net = make_mlp(rng);
  // (4+1)*8 + (8+1)*2
  EXPECT_EQ(net.parameter_count(), 40u + 18u);
  EXPECT_EQ(net.parameters().size(), 4u);  // two weights + two biases
}

TEST(SequentialTest, FlattenLoadRoundtrip) {
  common::Rng rng(3);
  Sequential net = make_mlp(rng);
  const std::vector<float> flat = net.flatten_parameters();
  EXPECT_EQ(flat.size(), net.parameter_count());

  Sequential other = make_mlp(rng);  // different random init
  other.load_parameters(flat);
  EXPECT_EQ(other.flatten_parameters(), flat);

  // Networks with identical parameters produce identical outputs.
  const tensor::Tensor x = tensor::Tensor::randn(2, 4, rng);
  const tensor::Tensor y1 = net.forward(x);
  const tensor::Tensor y2 = other.forward(x);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(SequentialDeathTest, LoadWrongSizeAborts) {
  common::Rng rng(4);
  Sequential net = make_mlp(rng);
  std::vector<float> wrong(net.parameter_count() + 1, 0.0f);
  EXPECT_DEATH(net.load_parameters(wrong), "condition");
}

TEST(SequentialTest, BackwardPropagatesThroughAllLayers) {
  common::Rng rng(5);
  Sequential net = make_mlp(rng);
  const tensor::Tensor x = tensor::Tensor::randn(2, 4, rng);
  (void)net.forward(x);
  const tensor::Tensor dx = net.backward(tensor::Tensor::full(2, 2, 1.0f));
  EXPECT_EQ(dx.rows(), 2u);
  EXPECT_EQ(dx.cols(), 4u);
  // Parameter gradients must be populated on every Linear layer.
  for (auto* g : net.gradients()) {
    float norm = 0.0f;
    for (const float v : g->data()) norm += std::abs(v);
    EXPECT_GT(norm, 0.0f);
  }
}

TEST(SequentialTest, ZeroGradClearsAllLayers) {
  common::Rng rng(6);
  Sequential net = make_mlp(rng);
  const tensor::Tensor x = tensor::Tensor::randn(2, 4, rng);
  (void)net.forward(x);
  (void)net.backward(tensor::Tensor::full(2, 2, 1.0f));
  net.zero_grad();
  for (auto* g : net.gradients()) {
    for (const float v : g->data()) EXPECT_EQ(v, 0.0f);
  }
}

TEST(SequentialTest, EmptySequentialIsIdentity) {
  Sequential net;
  common::Rng rng(7);
  const tensor::Tensor x = tensor::Tensor::randn(2, 3, rng);
  const tensor::Tensor y = net.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(y.data()[i], x.data()[i]);
  }
  EXPECT_EQ(net.parameter_count(), 0u);
}

TEST(SequentialTest, XavierInitBoundsRespectFanInOut) {
  common::Rng rng(8);
  Sequential net;
  net.add(std::make_unique<Linear>(100, 50));
  xavier_uniform_init(net, rng);
  auto* linear = dynamic_cast<Linear*>(&net.layer(0));
  ASSERT_NE(linear, nullptr);
  const double bound = std::sqrt(6.0 / 150.0);
  for (const float w : linear->weight().data()) {
    EXPECT_LE(std::abs(w), bound + 1e-6);
  }
  for (const float b : linear->bias().data()) EXPECT_EQ(b, 0.0f);
}

}  // namespace
}  // namespace cellgan::nn
