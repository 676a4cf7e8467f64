// Weight initialization schemes.
#pragma once

#include "common/rng.hpp"
#include "nn/sequential.hpp"

namespace cellgan::nn {

/// Xavier/Glorot uniform on every Linear layer: W ~ U(-a, a) with
/// a = sqrt(6 / (fan_in + fan_out)); biases zero.
void xavier_uniform_init(Sequential& net, common::Rng& rng);

/// Advance `rng` past the draws xavier_uniform_init takes on a network of
/// `net`'s shape, one per weight, without touching any parameter (`net` may
/// be borrowing).
void skip_xavier_uniform_init(Sequential& net, common::Rng& rng);

}  // namespace cellgan::nn
