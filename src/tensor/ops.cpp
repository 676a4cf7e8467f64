#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/flops.hpp"
#include "tensor/kernels.hpp"

namespace cellgan::tensor {

// Every op runs its kernel once over the whole tensor on the calling thread
// (parallelism lives one level up, in the cell lanes), so flops land on the
// caller's thread-local counter.

Tensor matmul(const Tensor& a, const Tensor& b) {
  CG_EXPECT(a.cols() == b.rows());
  return matmul(a, b.data(), b.cols());
}

Tensor matmul(const Tensor& a, std::span<const float> b, std::size_t n) {
  const std::size_t m = a.rows(), k = a.cols();
  CG_EXPECT(b.size() == k * n);
  Tensor c(m, n);
  count_flops(2ULL * m * k * n);
  kernels::gemm(active_kernel_kind(), a.data().data(), b.data(), c.data().data(), 0, m,
                k, n);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  CG_EXPECT(a.rows() == b.rows());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  Tensor c(m, n);
  count_flops(2ULL * m * k * n);
  kernels::gemm_tn(active_kernel_kind(), a.data().data(), b.data().data(),
                   c.data().data(), 0, m, k, m, n);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  CG_EXPECT(a.cols() == b.cols());
  return matmul_nt(a, b.data(), b.rows());
}

Tensor matmul_nt(const Tensor& a, std::span<const float> b, std::size_t n) {
  const std::size_t m = a.rows(), k = a.cols();
  CG_EXPECT(b.size() == n * k);
  Tensor c(m, n);
  count_flops(2ULL * m * k * n);
  kernels::gemm_nt(active_kernel_kind(), a.data().data(), b.data(), c.data().data(), 0,
                   m, k, n);
  return c;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  CG_EXPECT(x.same_shape(y));
  count_flops(2ULL * x.size());
  kernels::ew_axpy(active_kernel_kind(), alpha, x.data().data(), y.data().data(),
                   x.size());
}

void add_row_bias(Tensor& a, const Tensor& bias) {
  CG_EXPECT(bias.rows() == 1);
  add_row_bias(a, bias.data());
}

void add_row_bias(Tensor& a, std::span<const float> bias) {
  CG_EXPECT(bias.size() == a.cols());
  count_flops(a.size());
  kernels::ew_add_row_bias(active_kernel_kind(), a.data().data(), bias.data(), a.rows(),
                           a.cols());
}

Tensor col_sum(const Tensor& a) {
  Tensor out(1, a.cols());
  count_flops(a.size());
  kernels::ew_col_sum(active_kernel_kind(), a.data().data(), out.data().data(),
                      a.rows(), a.cols());
  return out;
}

Tensor tanh_forward(const Tensor& x) {
  Tensor y(x.rows(), x.cols());
  count_flops(8ULL * x.size());  // tanh ~ several flops; fixed estimate
  kernels::ew_tanh_forward(active_kernel_kind(), x.data().data(), y.data().data(),
                           x.size());
  return y;
}

Tensor tanh_backward(const Tensor& dy, const Tensor& y) {
  CG_EXPECT(dy.same_shape(y));
  Tensor dx(y.rows(), y.cols());
  count_flops(3ULL * y.size());
  kernels::ew_tanh_backward(active_kernel_kind(), dy.data().data(), y.data().data(),
                            dx.data().data(), y.size());
  return dx;
}

float sum(const Tensor& a) {
  count_flops(a.size());
  double acc = 0.0;
  for (const float v : a.data()) acc += v;
  return static_cast<float>(acc);
}

float mean(const Tensor& a) {
  CG_EXPECT(a.size() > 0);
  return sum(a) / static_cast<float>(a.size());
}

std::pair<float, Tensor> bce_with_logits(const Tensor& logits, const Tensor& target) {
  CG_EXPECT(logits.same_shape(target));
  Tensor dz(logits.rows(), logits.cols());
  count_flops(12ULL * logits.size());
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(logits.size());
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float z = logits.data()[i];
    const float y = target.data()[i];
    // max(z,0) - z*y + log(1 + exp(-|z|))
    loss += std::max(z, 0.0f) - z * y + std::log1p(std::exp(-std::abs(z)));
    const float sig = z >= 0.0f ? 1.0f / (1.0f + std::exp(-z))
                                : std::exp(z) / (1.0f + std::exp(z));
    dz.data()[i] = (sig - y) * inv_n;
  }
  return {static_cast<float>(loss) * inv_n, std::move(dz)};
}

Tensor softmax(const Tensor& logits) {
  Tensor probs(logits.rows(), logits.cols());
  count_flops(10ULL * logits.size());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    auto in = logits.row_span(r);
    auto out = probs.row_span(r);
    float mx = in[0];
    for (const float v : in) mx = std::max(mx, v);
    float denom = 0.0f;
    for (std::size_t c = 0; c < in.size(); ++c) {
      out[c] = std::exp(in[c] - mx);
      denom += out[c];
    }
    for (auto& v : out) v /= denom;
  }
  return probs;
}

std::pair<float, Tensor> softmax_cross_entropy(const Tensor& logits,
                                               const std::vector<std::uint32_t>& labels) {
  CG_EXPECT(labels.size() == logits.rows());
  Tensor dz = softmax(logits);
  count_flops(4ULL * logits.size());
  double loss = 0.0;
  const float inv_b = 1.0f / static_cast<float>(logits.rows());
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    const std::uint32_t y = labels[r];
    CG_EXPECT(y < logits.cols());
    auto row = dz.row_span(r);
    loss -= std::log(std::max(row[y], 1e-12f));
    row[y] -= 1.0f;
    for (auto& v : row) v *= inv_b;
  }
  return {static_cast<float>(loss) * inv_b, std::move(dz)};
}

std::vector<std::uint32_t> argmax_rows(const Tensor& a) {
  std::vector<std::uint32_t> out(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    auto row = a.row_span(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    out[r] = static_cast<std::uint32_t>(best);
  }
  return out;
}

}  // namespace cellgan::tensor
