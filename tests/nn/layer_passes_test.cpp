// Partial backward passes and cache-less forwards (nn/module.hpp), for
// Linear, Tanh and Sequential under both kernel kinds:
//  * backward(grad, what) gives bit for bit the part of a full backward that
//    `what` selects, and touches nothing else;
//  * forward(input, Cache::kNone) returns the bits of a caching forward;
//  * a backward after a cache-less forward dies, even when an older caching
//    forward left a cache of the same shape behind;
//  * a network of borrowed layers bound to another's flat parameters gives
//    its forwards and input gradients bit for bit, and refuses to compute or
//    expose parameter gradients.
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
#include "nn/gan_models.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
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

TEST(BoundNetwork, RunsAnOwnedNetworksParametersBitForBit) {
  for (const tensor::KernelKind kind : testsupport::kAllKernelKinds) {
    KindGuard guard(kind);
    const std::string label = tensor::to_string(kind);
    common::Rng rng(10);
    const GanArch arch = GanArch::tiny();
    Sequential owned = make_discriminator(arch, rng, /*label_dims=*/3);
    const std::vector<float> flat = owned.flatten_parameters();
    Sequential bound = borrowing_discriminator(arch, 3);
    bound.bind(flat);
    const Tensor x = Tensor::randn(kBatch, arch.image_dim + 3, rng);
    const Tensor dy = Tensor::randn(kBatch, 1, rng);

    EXPECT_EQ(bits(owned.forward(x, Cache::kNone).data()),
              bits(bound.forward(x, Cache::kNone).data()))
        << label;
    EXPECT_EQ(bits(owned.forward(x).data()), bits(bound.forward(x).data())) << label;
    EXPECT_EQ(bits(owned.backward(dy, Grads::kInput).data()),
              bits(bound.backward(dy, Grads::kInput).data()))
        << label;
  }
}

TEST(BoundNetwork, RebindingSwitchesParameters) {
  common::Rng rng(11);
  const GanArch arch = GanArch::tiny();
  Sequential first = make_generator(arch, rng);
  Sequential second = make_generator(arch, rng);
  const std::vector<float> first_flat = first.flatten_parameters();
  const std::vector<float> second_flat = second.flatten_parameters();
  Sequential bound = borrowing_generator(arch);
  const Tensor z = Tensor::randn(kBatch, arch.latent_dim, rng);
  bound.bind(first_flat);
  EXPECT_EQ(bits(first.forward(z, Cache::kNone).data()),
            bits(bound.forward(z, Cache::kNone).data()));
  bound.bind(second_flat);
  EXPECT_EQ(bits(second.forward(z, Cache::kNone).data()),
            bits(bound.forward(z, Cache::kNone).data()));
}

TEST(BoundNetworkDeathTest, ParameterWorkOnABoundNetworkDies) {
  common::Rng rng(12);
  const GanArch arch = GanArch::tiny();
  Sequential owned = make_generator(arch, rng);
  const std::vector<float> flat = owned.flatten_parameters();
  Sequential bound = borrowing_generator(arch);
  bound.bind(flat);
  const Tensor z = Tensor::randn(kBatch, arch.latent_dim, rng);
  const Tensor dy = Tensor::randn(kBatch, arch.image_dim, rng);
  for (const Grads what : {Grads::kAll, Grads::kParams}) {
    (void)bound.forward(z);
    EXPECT_DEATH((void)bound.backward(dy, what), "precondition");
  }
  Adam adam(1e-3);
  EXPECT_DEATH(adam.step(bound), "precondition");
  EXPECT_DEATH((void)bound.parameters(), "precondition");
}

TEST(BoundNetworkDeathTest, BindingNeedsBorrowedLayersAndTheWholeSpan) {
  common::Rng rng(13);
  const GanArch arch = GanArch::tiny();
  Sequential owned = make_generator(arch, rng);
  const std::vector<float> flat = owned.flatten_parameters();
  EXPECT_DEATH((void)owned.bind(flat), "precondition");
  Sequential bound = borrowing_generator(arch);
  const std::span<const float> all(flat);
  EXPECT_DEATH((void)bound.bind(all.first(flat.size() - 1)), "precondition");
  const std::vector<float> longer(flat.size() + 1, 0.0f);
  EXPECT_DEATH((void)bound.bind(longer), "precondition");
  Sequential unbound = borrowing_generator(arch);
  EXPECT_DEATH((void)unbound.forward(Tensor::randn(kBatch, arch.latent_dim, rng)),
               "precondition");
}

}  // namespace
}  // namespace cellgan::nn
