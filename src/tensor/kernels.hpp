// The tensor microkernel seam: scalar reference kernels and a vectorized
// (packed-panel SIMD) implementation behind one runtime switch.
//
// ops.cpp owns shape checks and flop accounting; this layer owns only the
// inner loops. The kernel kind picks the code of every loop here, the GEMMs,
// the elementwise family and the Adam update; two kinds exist:
//
//  * kScalar — the bit-exact reference. Plain loops in the exact
//    accumulation order the repo has always used, and libm tanh, so runs
//    pinned to it reproduce the seed behavior bit for bit; it is the oracle
//    the kernel_parity suite checks kSimd against.
//  * kSimd — packed A/B panels (L1/L2-sized, 64-byte aligned) swept by a
//    register-tiled microkernel, the first this CPU runs of: AVX-512F 6x32,
//    AVX2+FMA 6x16 (both runtime-dispatched via target attributes), NEON
//    6x16 on ARM, and a compiler-autovectorized portable 6x16 tile. The FMA
//    tiles give identical bits; GEMM results may differ from scalar by
//    accumulation order (FMA + vector-lane sums), and the kernel_parity
//    suite bounds the drift. On AVX2+FMA, tanh is an 8-wide rational
//    approximation within 3e-7 of the exact value (elsewhere it stays libm).
//    On AVX2 the other elementwise loops and the Adam update run 8 lanes at
//    once and give the scalar loops' bits: each lane evaluates the scalar
//    expression tree in the same order, with no fused multiply-add, and the
//    n % 8 tail runs the scalar expression.
//
// Selection: the process starts on kSimd; set_kernel_kind() switches it, and
// Session::prepare applies RunSpec::tensor_kernel (`--tensor-kernel`) that
// way, so the spec alone decides a run's kind. Results are deterministic
// for a fixed kind and independent of how rows are split: row-range GEMM accumulates every output
// element in an order that does not depend on the range (serve batching
// relies on this to stay bit-identical to solo draws).
//
// Output contract (uniform across all three GEMM kernels): gemm, gemm_tn and
// gemm_nt OVERWRITE C rows [row_begin, row_end); callers never pre-zero.
// (Historically gemm filled while gemm_tn accumulated into caller-zeroed
// memory — that asymmetry is gone.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace cellgan::tensor {

enum class KernelKind : std::uint32_t {
  kScalar = 0,  ///< bit-exact reference loops
  kSimd = 1,    ///< packed panels + vector microkernel
};

const char* to_string(KernelKind kind);
std::optional<KernelKind> kernel_kind_from_string(std::string_view name);

/// Currently selected kernel kind (kSimd until set_kernel_kind).
KernelKind active_kernel_kind();
/// Select the kernel kind process-wide.
void set_kernel_kind(KernelKind kind);

/// Name of the GEMM tile the kSimd path engages on this machine: "avx512f",
/// "avx2+fma", "neon" or "portable" (autovectorized tile).
const char* simd_instruction_set();

namespace kernels {

// All GEMM kernels OVERWRITE c rows [row_begin, row_end) — see the contract
// above. Matrices are dense row-major, tightly packed.

/// C(m x n) = A(m x k) * B(k x n), rows [row_begin, row_end).
void gemm(KernelKind kind, const float* a, const float* b, float* c,
          std::size_t row_begin, std::size_t row_end, std::size_t k,
          std::size_t n);

/// C(m x n) = A^T * B with A stored (k x m), B (k x n).
void gemm_tn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t row_begin, std::size_t row_end, std::size_t k,
             std::size_t m, std::size_t n);

/// C(m x n) = A(m x k) * B^T with B stored (n x k).
void gemm_nt(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t row_begin, std::size_t row_end, std::size_t k,
             std::size_t n);

// Test hooks. kSimd runs one tile per process, the first the CPU can run;
// these reach the others, so each is tested where the CPU can run it.

/// The three GEMMs above: gemm, gemm_tn, gemm_nt.
enum class GemmLayout { kNn, kTn, kNt };

/// Names of the kSimd GEMM tiles this CPU can run, the dispatched one first.
std::vector<const char*> runnable_gemm_tiles();

/// The kSimd GEMM of `layout` on the named tile (one of
/// runnable_gemm_tiles()), with the operands and output contract of that
/// layout's function above; m is read only by kTn.
void simd_gemm_on_tile(std::string_view tile, GemmLayout layout, const float* a,
                       const float* b, float* c, std::size_t row_begin,
                       std::size_t row_end, std::size_t k, std::size_t m,
                       std::size_t n);

// Elementwise family over [0, n). Each output element depends only on its own
// inputs, so any split of [0, n) reproduces one full call bit for bit. Every
// loop but tanh gives the same bits under both kinds.

/// y += alpha * x
void ew_axpy(KernelKind kind, float alpha, const float* x, float* y, std::size_t n);
/// rows [0, rows) of a (rows x cols) += bias (1 x cols)
void ew_add_row_bias(KernelKind kind, float* a, const float* bias, std::size_t rows,
                     std::size_t cols);
/// out (1 x cols) = the column sums of a (rows x cols), each column's rows
/// added in order, starting from 0.
void ew_col_sum(KernelKind kind, const float* a, float* out, std::size_t rows,
                std::size_t cols);
/// kScalar: libm tanh. kSimd on AVX2+FMA: the rational approximation
/// x*P(x^2)/Q(x^2) on x clamped to +-7.9988 (x itself when |x| < 0.0004),
/// at most 3e-7 from the exact tanh; NaN stays NaN, +-inf gives +-1.
void ew_tanh_forward(KernelKind kind, const float* x, float* y, std::size_t n);
/// dx = dy * (1 - y^2)
void ew_tanh_backward(KernelKind kind, const float* dy, const float* y, float* dx,
                      std::size_t n);

/// The constants of one Adam step (nn::Adam::step derives them from the
/// hyperparameters and the step count).
struct AdamCoefficients {
  float beta1, beta2;
  float step_size;     ///< lr / (1 - beta1^t)
  float inv_sqrt_bc2;  ///< 1 / sqrt(1 - beta2^t)
  float epsilon;
};

/// One Adam update of n parameters, in place:
///   m = beta1 * m + (1 - beta1) * g
///   v = beta2 * v + (1 - beta2) * g * g
///   p -= step_size * m / (sqrt(v) * inv_sqrt_bc2 + epsilon)
void adam_update(KernelKind kind, const AdamCoefficients& c, float* p, const float* g,
                 float* m, float* v, std::size_t n);

}  // namespace kernels

}  // namespace cellgan::tensor
