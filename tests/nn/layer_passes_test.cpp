// Partial backward passes and cache-less forwards (nn/module.hpp), for
// Linear, Tanh and Sequential under both kernel kinds:
//  * backward(grad, what) gives bit for bit the part of a full backward that
//    `what` selects, and touches nothing else;
//  * forward(input, Cache::kNone) returns the bits of a caching forward;
//  * a backward after a cache-less forward dies, even when an older caching
//    forward left a cache of the same shape behind.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan::nn {
namespace {

using tensor::Tensor;
using testsupport::KindGuard;

constexpr std::size_t kBatch = 5;

struct LayerCase {
  const char* name;
  std::size_t in, out;
  std::function<LayerPtr(common::Rng&)> make;
};

const LayerCase kCases[] = {
    {"Linear", 13, 7,
     [](common::Rng& rng) -> LayerPtr {
       auto layer = std::make_unique<Linear>(13, 7);
       layer->weight() = Tensor::randn(13, 7, rng);
       layer->bias() = Tensor::randn(1, 7, rng);
       return layer;
     }},
    {"Tanh", 13, 13, [](common::Rng&) -> LayerPtr { return std::make_unique<Tanh>(); }},
    {"Sequential", 13, 7,
     [](common::Rng& rng) -> LayerPtr {
       auto net = std::make_unique<Sequential>();
       net->add(std::make_unique<Linear>(13, 9));
       net->add(std::make_unique<Tanh>());
       net->add(std::make_unique<Linear>(9, 7));
       net->add(std::make_unique<Tanh>());
       xavier_uniform_init(*net, rng);
       return net;
     }},
};

std::vector<std::uint32_t> bits(std::span<const float> values) {
  std::vector<std::uint32_t> out;
  for (const float v : values) out.push_back(std::bit_cast<std::uint32_t>(v));
  return out;
}

/// The flattened parameter gradients and the returned tensor of one
/// zero_grad, caching forward and backward(dy, what).
struct Pass {
  std::vector<std::uint32_t> param_grads;
  Tensor input_grad;
};

Pass run_pass(Layer& layer, const Tensor& x, const Tensor& dy, Grads what) {
  layer.zero_grad();
  (void)layer.forward(x);
  Pass pass{{}, layer.backward(dy, what)};
  for (const Tensor* g : layer.gradients()) {
    const std::vector<std::uint32_t> g_bits = bits(g->data());
    pass.param_grads.insert(pass.param_grads.end(), g_bits.begin(), g_bits.end());
  }
  return pass;
}

TEST(LayerPasses, PartialBackwardMatchesFullBackward) {
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    KindGuard guard(kind);
    for (const LayerCase& c : kCases) {
      const std::string label = std::string(c.name) + " " + tensor::to_string(kind);
      common::Rng rng(7);
      const LayerPtr layer = c.make(rng);
      const Tensor x = Tensor::randn(kBatch, c.in, rng);
      const Tensor dy = Tensor::randn(kBatch, c.out, rng);

      const Pass full = run_pass(*layer, x, dy, Grads::kAll);
      const Pass params = run_pass(*layer, x, dy, Grads::kParams);
      const Pass input = run_pass(*layer, x, dy, Grads::kInput);

      EXPECT_EQ(full.param_grads, params.param_grads) << label;
      EXPECT_TRUE(params.input_grad.empty()) << label;
      ASSERT_TRUE(full.input_grad.same_shape(input.input_grad)) << label;
      EXPECT_EQ(bits(full.input_grad.data()), bits(input.input_grad.data())) << label;
      // An input-only pass leaves the zeroed parameter gradients alone.
      EXPECT_EQ(std::vector<std::uint32_t>(full.param_grads.size(), 0u), input.param_grads)
          << label;
    }
  }
}

TEST(LayerPasses, CachelessForwardMatchesCachingForward) {
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    KindGuard guard(kind);
    for (const LayerCase& c : kCases) {
      common::Rng rng(8);
      const LayerPtr layer = c.make(rng);
      const Tensor x = Tensor::randn(kBatch, c.in, rng);
      const Tensor cached = layer->forward(x);
      const Tensor uncached = layer->forward(x, Cache::kNone);
      ASSERT_TRUE(cached.same_shape(uncached)) << c.name;
      EXPECT_EQ(bits(cached.data()), bits(uncached.data()))
          << c.name << " " << tensor::to_string(kind);
    }
  }
}

TEST(LayerPassesDeathTest, BackwardAfterCachelessForwardDies) {
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    KindGuard guard(kind);
    for (const LayerCase& c : kCases) {
      for (const Grads what : {Grads::kAll, Grads::kParams, Grads::kInput}) {
        common::Rng rng(9);
        const LayerPtr layer = c.make(rng);
        const Tensor x = Tensor::randn(kBatch, c.in, rng);
        const Tensor dy = Tensor::randn(kBatch, c.out, rng);
        // The caching forward leaves a cache of the same batch size behind.
        (void)layer->forward(x);
        (void)layer->forward(x, Cache::kNone);
        EXPECT_DEATH((void)layer->backward(dy, what), "precondition")
            << c.name << " " << tensor::to_string(kind);
      }
    }
  }
}

}  // namespace
}  // namespace cellgan::nn
