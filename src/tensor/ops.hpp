// Tensor ops used by the neural network layers.
//
// GEMM variants cover forward (A*B), weight gradients (A^T*B) and input
// gradients (A*B^T) so layers never materialize transposes. Ops report
// their flop counts (see flops.hpp) and run on the calling thread; the
// shared-memory level of the paper's two-level model is the cell lanes.
//
// The inner loops live behind the microkernel seam in tensor/kernels.hpp:
// a scalar bit-exact reference and a packed-panel SIMD implementation,
// selected at runtime (set_kernel_kind, which the Session calls with
// RunSpec::tensor_kernel). This header's contracts are
// kind-independent; only GEMM accumulation order (and so low-order float
// bits) may differ between kinds.
#pragma once

#include <span>
#include <utility>

#include "tensor/tensor.hpp"

namespace cellgan::tensor {

// ---- GEMM -----------------------------------------------------------------

/// C = A(mxk) * B(kxn)
Tensor matmul(const Tensor& a, const Tensor& b);
/// The same, with B the k*n floats of `b` in row-major order (a borrowed
/// weight matrix).
Tensor matmul(const Tensor& a, std::span<const float> b, std::size_t n);
/// C = A^T(m<-k) * B : a is (k x m), b is (k x n), result (m x n).
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// C = A(m x k) * B^T : b is (n x k), result (m x n).
Tensor matmul_nt(const Tensor& a, const Tensor& b);
/// The same, with B the n*k floats of `b` in row-major order.
Tensor matmul_nt(const Tensor& a, std::span<const float> b, std::size_t n);

// ---- Elementwise ------------------------------------------------------------

/// y += alpha * x
void axpy(float alpha, const Tensor& x, Tensor& y);
/// Each row of `a` += bias (bias is 1 x cols).
void add_row_bias(Tensor& a, const Tensor& bias);
/// The same, with the bias as a span of a.cols() floats.
void add_row_bias(Tensor& a, std::span<const float> bias);
/// 1 x cols vector of column sums (bias gradient).
Tensor col_sum(const Tensor& a);

// ---- Activations ------------------------------------------------------------

Tensor tanh_forward(const Tensor& x);
/// dx = dy * (1 - y^2), where y = tanh(x) from the forward pass.
Tensor tanh_backward(const Tensor& dy, const Tensor& y);

// ---- Reductions -------------------------------------------------------------

float sum(const Tensor& a);
float mean(const Tensor& a);

// ---- Losses -----------------------------------------------------------------

/// Binary cross-entropy with logits, numerically stable.
/// Returns (loss_mean, dloss/dlogits). `target` is the same shape as logits.
std::pair<float, Tensor> bce_with_logits(const Tensor& logits, const Tensor& target);

/// Row-wise softmax cross-entropy against integer labels.
/// Returns (loss_mean, dloss/dlogits).
std::pair<float, Tensor> softmax_cross_entropy(const Tensor& logits,
                                               const std::vector<std::uint32_t>& labels);

/// Row-wise softmax probabilities.
Tensor softmax(const Tensor& logits);

/// Index of the max entry of each row.
std::vector<std::uint32_t> argmax_rows(const Tensor& a);

}  // namespace cellgan::tensor
