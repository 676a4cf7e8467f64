#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/aligned.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CELLGAN_X86 1
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

// Independence hint for the fallback tile and the elementwise loops: no
// iteration reads another's output. Under GCC it is `ivdep`, which removes
// the vectorizer's runtime alias checks and nothing more; it does not make a
// loop vectorize. At -O2, GCC 12's default very-cheap cost model vectorizes
// only loops that need no scalar epilogue, so the portable tile (trip count
// kNR) gets packed mulps/addps while the elementwise loops (trip count n)
// compile to scalar movss/addss.
#if defined(__clang__)
#define CG_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define CG_VEC_LOOP _Pragma("GCC ivdep")
#else
#define CG_VEC_LOOP
#endif

namespace cellgan::tensor {

// --- kernel selection -------------------------------------------------------

const char* to_string(KernelKind kind) {
  switch (kind) {
    case KernelKind::kScalar: return "scalar";
    case KernelKind::kSimd: return "simd";
  }
  return "unknown";
}

std::optional<KernelKind> kernel_kind_from_string(std::string_view name) {
  if (name == "scalar") return KernelKind::kScalar;
  if (name == "simd") return KernelKind::kSimd;
  return std::nullopt;
}

namespace {

std::atomic<KernelKind> g_kind{KernelKind::kSimd};

}  // namespace

KernelKind active_kernel_kind() { return g_kind.load(std::memory_order_relaxed); }

void set_kernel_kind(KernelKind kind) { g_kind.store(kind, std::memory_order_relaxed); }

namespace kernels {

namespace {

// --- scalar reference GEMM --------------------------------------------------
// The exact loops (and accumulation orders) the repo has always run, so a
// scalar-pinned run reproduces seed numbers bit for bit. The historical
// `if (a == 0.0f) continue;` branches are gone: on dense float data the
// branch costs more than the multiply it skips and it blocked the compiler
// from vectorizing the j loop.

// Row-blocked: for each row i of A, accumulate A(i,l) * B(l, :) into C(i, :).
// Streaming over B rows keeps the access pattern sequential.
void scalar_gemm(const float* a, const float* b, float* c,
                 std::size_t row_begin, std::size_t row_end, std::size_t k,
                 std::size_t n) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* ci = c + i * n;
    std::fill(ci, ci + n, 0.0f);
    const float* ai = a + i * k;
    for (std::size_t l = 0; l < k; ++l) {
      const float ail = ai[l];
      const float* bl = b + l * n;
      for (std::size_t j = 0; j < n; ++j) ci[j] += ail * bl[j];
    }
  }
}

// C(i,j) = sum_l A(l,i) * B(l,j), A stored k x m. The l loop is blocked so
// the touched B rows stay in cache while the block is swept once per output
// row. Rows are zeroed up front (the kernel owns its output now — callers
// used to pre-zero), which preserves the historical accumulation order.
void scalar_gemm_tn(const float* a, const float* b, float* c,
                    std::size_t row_begin, std::size_t row_end, std::size_t k,
                    std::size_t m, std::size_t n) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    float* ci = c + i * n;
    std::fill(ci, ci + n, 0.0f);
  }
  constexpr std::size_t kBlockL = 64;
  for (std::size_t l0 = 0; l0 < k; l0 += kBlockL) {
    const std::size_t l1 = std::min(k, l0 + kBlockL);
    for (std::size_t i = row_begin; i < row_end; ++i) {
      float* ci = c + i * n;
      for (std::size_t l = l0; l < l1; ++l) {
        const float ali = a[l * m + i];
        const float* bl = b + l * n;
        for (std::size_t j = 0; j < n; ++j) ci[j] += ali * bl[j];
      }
    }
  }
}

// C(i,j) = dot(A row i, B row j), B stored n x k. Four output columns per
// pass share each load of A's row (register tiling).
void scalar_gemm_nt(const float* a, const float* b, float* c,
                    std::size_t row_begin, std::size_t row_end, std::size_t k,
                    std::size_t n) {
  for (std::size_t i = row_begin; i < row_end; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t l = 0; l < k; ++l) {
        const float ail = ai[l];
        acc0 += ail * b0[l];
        acc1 += ail * b1[l];
        acc2 += ail * b2[l];
        acc3 += ail * b3[l];
      }
      ci[j] = acc0;
      ci[j + 1] = acc1;
      ci[j + 2] = acc2;
      ci[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* bj = b + j * k;
      float acc = 0.0f;
      for (std::size_t l = 0; l < k; ++l) acc += ai[l] * bj[l];
      ci[j] = acc;
    }
  }
}

// --- packed-panel SIMD GEMM -------------------------------------------------
//
// One blocked implementation covers all three variants: the logical operands
// Op(A)[i,l] and Op(B)[l,j] are addressed through (row, col) strides, so the
// TN/NT transposes are absorbed by the packing routines instead of
// materialized. Panels are packed into 64-byte-aligned thread-local scratch
// (kKC x kNR B slabs, kMR x kKC A slabs, zero-padded to full tiles) and swept
// by a kMR x kNR register-tiled microkernel — AVX2+FMA (runtime-dispatched),
// NEON, or an autovectorized portable tile.
//
// Determinism: for any output element, partial products accumulate in panel
// (pc) order, and within a panel in l order on a fixed register lane — none
// of which depends on the caller's row partition [row_begin, row_end) or on
// which jc/ic block the element lands in. Any row split (serve batching
// stacks requests as rows) is therefore bit-identical to one full-range call.

constexpr std::size_t kMR = 6;    ///< microkernel rows (A register tile)
constexpr std::size_t kNR = 16;   ///< microkernel cols (two 8-float vectors)
constexpr std::size_t kKC = 256;  ///< k panel: packed A slab ~kMR*kKC*4 = 6KB
constexpr std::size_t kMC = 96;   ///< m panel: packed A block ~96KB, L2-sized
constexpr std::size_t kNC = 1024; ///< n panel: packed B block <= 1MB

/// ctile[kMR * kNR] = sum_l pa[l*kMR + r] * pb[l*kNR + c]
using MicroKernel = void (*)(std::size_t kc, const float* pa, const float* pb,
                             float* ctile);

void micro_portable(std::size_t kc, const float* pa, const float* pb,
                    float* ctile) {
  float acc[kMR * kNR] = {};
  for (std::size_t l = 0; l < kc; ++l) {
    const float* al = pa + l * kMR;
    const float* bl = pb + l * kNR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = al[r];
      CG_VEC_LOOP
      for (std::size_t c = 0; c < kNR; ++c) acc[r * kNR + c] += av * bl[c];
    }
  }
  std::memcpy(ctile, acc, sizeof(acc));
}

#if defined(CELLGAN_X86)

// The 6x16 tile lives in twelve ymm registers only because all three `r`
// loops fully unroll: if any of them stays a loop, GCC keeps acc0/acc1 in
// stack memory and every FMA becomes a load-FMA-store round trip, 2-3x slower.
__attribute__((target("avx2,fma"))) void micro_avx2(std::size_t kc,
                                                    const float* pa,
                                                    const float* pb,
                                                    float* ctile) {
  static_assert(kMR == 6, "the unroll pragmas below must equal kMR");
  __m256 acc0[kMR];
  __m256 acc1[kMR];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kMR; ++r) {
    acc0[r] = _mm256_setzero_ps();
    acc1[r] = _mm256_setzero_ps();
  }
  for (std::size_t l = 0; l < kc; ++l) {
    const __m256 b0 = _mm256_load_ps(pb + l * kNR);
    const __m256 b1 = _mm256_load_ps(pb + l * kNR + 8);
    const float* al = pa + l * kMR;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMR; ++r) {
      const __m256 av = _mm256_broadcast_ss(al + r);
      acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
    }
  }
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kMR; ++r) {
    _mm256_store_ps(ctile + r * kNR, acc0[r]);
    _mm256_store_ps(ctile + r * kNR + 8, acc1[r]);
  }
}

bool cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#elif defined(__ARM_NEON)

void micro_neon(std::size_t kc, const float* pa, const float* pb,
                float* ctile) {
  float32x4_t acc[kMR][4];
  for (std::size_t r = 0; r < kMR; ++r) {
    for (std::size_t q = 0; q < 4; ++q) acc[r][q] = vdupq_n_f32(0.0f);
  }
  for (std::size_t l = 0; l < kc; ++l) {
    const float* bl = pb + l * kNR;
    float32x4_t b[4];
    for (std::size_t q = 0; q < 4; ++q) b[q] = vld1q_f32(bl + 4 * q);
    const float* al = pa + l * kMR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float32x4_t av = vdupq_n_f32(al[r]);
      for (std::size_t q = 0; q < 4; ++q) {
        acc[r][q] = vfmaq_f32(acc[r][q], av, b[q]);
      }
    }
  }
  for (std::size_t r = 0; r < kMR; ++r) {
    for (std::size_t q = 0; q < 4; ++q) {
      vst1q_f32(ctile + r * kNR + 4 * q, acc[r][q]);
    }
  }
}

#endif

MicroKernel select_microkernel() {
#if defined(CELLGAN_X86)
  if (cpu_has_avx2_fma()) return micro_avx2;
  return micro_portable;
#elif defined(__ARM_NEON)
  return micro_neon;
#else
  return micro_portable;
#endif
}

MicroKernel active_microkernel() {
  static const MicroKernel kernel = select_microkernel();
  return kernel;
}

/// Pack Op(A) rows [i0, i0+mc) x cols [l0, l0+kc) into kMR-row slabs:
/// dst slab s holds rows [s*kMR, s*kMR+kMR) laid out dst[l*kMR + r],
/// zero-padded past mc so the microkernel never needs a row tail path.
void pack_a(const float* a, float* dst, std::size_t i0, std::size_t mc,
            std::size_t l0, std::size_t kc, std::size_t row_stride,
            std::size_t col_stride) {
  for (std::size_t slab = 0; slab < mc; slab += kMR) {
    const std::size_t rows = std::min(kMR, mc - slab);
    float* out = dst + slab * kc;
    for (std::size_t l = 0; l < kc; ++l) {
      const float* src = a + (l0 + l) * col_stride + (i0 + slab) * row_stride;
      std::size_t r = 0;
      for (; r < rows; ++r) out[l * kMR + r] = src[r * row_stride];
      for (; r < kMR; ++r) out[l * kMR + r] = 0.0f;
    }
  }
}

/// Pack Op(B) rows [l0, l0+kc) x cols [j0, j0+nc) into kNR-column slabs
/// (dst[l*kNR + c], zero-padded past nc).
void pack_b(const float* b, float* dst, std::size_t l0, std::size_t kc,
            std::size_t j0, std::size_t nc, std::size_t row_stride,
            std::size_t col_stride) {
  for (std::size_t slab = 0; slab < nc; slab += kNR) {
    const std::size_t cols = std::min(kNR, nc - slab);
    float* out = dst + slab * kc;
    for (std::size_t l = 0; l < kc; ++l) {
      const float* src = b + (l0 + l) * row_stride + (j0 + slab) * col_stride;
      std::size_t c = 0;
      for (; c < cols; ++c) out[l * kNR + c] = src[c * col_stride];
      for (; c < kNR; ++c) out[l * kNR + c] = 0.0f;
    }
  }
}

/// Blocked, packed GEMM over logical operands: C rows [row_begin, row_end)
/// OVERWRITTEN with Op(A) * Op(B), where Op(A)[i,l] = a[i*a_rs + l*a_cs] and
/// Op(B)[l,j] = b[l*b_rs + j*b_cs]. C is dense row-major (m x n).
void simd_gemm(const float* a, const float* b, float* c, std::size_t row_begin,
               std::size_t row_end, std::size_t k, std::size_t n,
               std::size_t a_rs, std::size_t a_cs, std::size_t b_rs,
               std::size_t b_cs) {
  if (row_end <= row_begin || n == 0) return;
  if (k == 0) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      std::fill(c + i * n, c + i * n + n, 0.0f);
    }
    return;
  }
  const MicroKernel micro = active_microkernel();
  // Thread-local so concurrent cell lanes pack into private panels; capacity
  // persists across calls (the training loop reuses a handful of shapes).
  static thread_local common::AlignedBuffer a_panels;
  static thread_local common::AlignedBuffer b_panels;
  const std::size_t m = row_end - row_begin;
  alignas(common::kCacheLineBytes) float ctile[kMR * kNR];
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t n_slabs = (nc + kNR - 1) / kNR;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      float* pb = b_panels.grow(n_slabs * kNR * kc);
      pack_b(b, pb, pc, kc, jc, nc, b_rs, b_cs);
      const bool first_panel = pc == 0;
      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        const std::size_t m_slabs = (mc + kMR - 1) / kMR;
        float* pa = a_panels.grow(m_slabs * kMR * kc);
        pack_a(a, pa, row_begin + ic, mc, pc, kc, a_rs, a_cs);
        for (std::size_t si = 0; si < m_slabs; ++si) {
          const std::size_t tile_rows = std::min(kMR, mc - si * kMR);
          for (std::size_t sj = 0; sj < n_slabs; ++sj) {
            const std::size_t tile_cols = std::min(kNR, nc - sj * kNR);
            micro(kc, pa + si * kMR * kc, pb + sj * kNR * kc, ctile);
            float* cbase =
                c + (row_begin + ic + si * kMR) * n + jc + sj * kNR;
            for (std::size_t r = 0; r < tile_rows; ++r) {
              float* crow = cbase + r * n;
              const float* trow = ctile + r * kNR;
              if (first_panel) {
                for (std::size_t cc = 0; cc < tile_cols; ++cc) {
                  crow[cc] = trow[cc];
                }
              } else {
                for (std::size_t cc = 0; cc < tile_cols; ++cc) {
                  crow[cc] += trow[cc];
                }
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace

// --- GEMM dispatch ----------------------------------------------------------

void gemm(KernelKind kind, const float* a, const float* b, float* c,
          std::size_t row_begin, std::size_t row_end, std::size_t k,
          std::size_t n) {
  if (kind == KernelKind::kScalar) {
    scalar_gemm(a, b, c, row_begin, row_end, k, n);
  } else {
    simd_gemm(a, b, c, row_begin, row_end, k, n, /*a_rs=*/k, /*a_cs=*/1,
              /*b_rs=*/n, /*b_cs=*/1);
  }
}

void gemm_tn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t row_begin, std::size_t row_end, std::size_t k,
             std::size_t m, std::size_t n) {
  if (kind == KernelKind::kScalar) {
    scalar_gemm_tn(a, b, c, row_begin, row_end, k, m, n);
  } else {
    // Op(A)[i,l] = a[l*m + i]: the packing absorbs the transpose.
    simd_gemm(a, b, c, row_begin, row_end, k, n, /*a_rs=*/1, /*a_cs=*/m,
              /*b_rs=*/n, /*b_cs=*/1);
  }
}

void gemm_nt(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t row_begin, std::size_t row_end, std::size_t k,
             std::size_t n) {
  if (kind == KernelKind::kScalar) {
    scalar_gemm_nt(a, b, c, row_begin, row_end, k, n);
  } else {
    // Op(B)[l,j] = b[j*k + l].
    simd_gemm(a, b, c, row_begin, row_end, k, n, /*a_rs=*/k, /*a_cs=*/1,
              /*b_rs=*/1, /*b_cs=*/k);
  }
}

const char* instruction_set_name() {
#if defined(CELLGAN_X86)
  return cpu_has_avx2_fma() ? "avx2+fma" : "portable";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "portable";
#endif
}

// --- elementwise family -----------------------------------------------------
// Each output element is one expression over its own inputs. Every op but
// tanh runs one loop for both kernel kinds (scalar code at -O2, see
// CG_VEC_LOOP). libm's tanh costs ~30 ns an element, as much as the GEMMs
// around it, so tanh's simd kind on AVX2+FMA is a vector rational
// approximation; sigmoid stays libm (no training net uses it).

#if defined(CELLGAN_X86)

namespace {

/// y[0, 8) = tanh(x[0, 8)), 8 lanes at once; each lane sees only its own
/// input. The float rational approximation of Eigen's
/// generic_fast_tanh_float: x*P(x^2)/Q(x^2) on x clamped to +-7.9988 (where
/// it rounds to +-1), both polynomials by Horner in x^2.
__attribute__((target("avx2,fma"), always_inline)) inline void tanh8_avx2(
    const float* x, float* y) {
  const __m256 v = _mm256_loadu_ps(x);
  // min/max return their second operand when either is NaN, so a NaN input
  // passes the clamp and comes out NaN.
  const __m256 xc =
      _mm256_max_ps(_mm256_set1_ps(-7.99881172180175781f),
                    _mm256_min_ps(_mm256_set1_ps(7.99881172180175781f), v));
  const __m256 x2 = _mm256_mul_ps(xc, xc);
  __m256 p = _mm256_set1_ps(-2.76076847742355e-16f);
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(2.00018790482477e-13f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(-8.60467152213735e-11f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(5.12229709037114e-08f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(1.48572235717979e-05f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(6.37261928875436e-04f));
  p = _mm256_fmadd_ps(x2, p, _mm256_set1_ps(4.89352455891786e-03f));
  __m256 q = _mm256_set1_ps(1.19825839466702e-06f);
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(1.18534705686654e-04f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(2.26843463243900e-03f));
  q = _mm256_fmadd_ps(x2, q, _mm256_set1_ps(4.89352518554385e-03f));
  const __m256 ratio = _mm256_div_ps(_mm256_mul_ps(xc, p), q);
  // tanh(x) rounds to x below 0.0004; returning x keeps -0 and denormals.
  const __m256 abs_v = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), v);
  const __m256 tiny = _mm256_cmp_ps(abs_v, _mm256_set1_ps(0.0004f), _CMP_LT_OQ);
  _mm256_storeu_ps(y, _mm256_blendv_ps(ratio, v, tiny));
}

/// The n % 8 tail runs through the same 8-wide code on a zero-padded copy,
/// so an element's result never depends on where a call starts or ends.
__attribute__((target("avx2,fma"))) void tanh_avx2(const float* x, float* y,
                                                   std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) tanh8_avx2(x + i, y + i);
  if (i == n) return;
  alignas(32) float tail[8] = {};
  std::memcpy(tail, x + i, (n - i) * sizeof(float));
  tanh8_avx2(tail, tail);
  std::memcpy(y + i, tail, (n - i) * sizeof(float));
}

}  // namespace

#endif

void ew_add(const float* a, const float* b, float* c, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
}

void ew_sub(const float* a, const float* b, float* c, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] - b[i];
}

void ew_mul(const float* a, const float* b, float* c, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] * b[i];
}

void ew_scale(const float* a, float s, float* c, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] * s;
}

void ew_axpy(float alpha, const float* x, float* y, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void ew_add_row_bias(float* a, const float* bias, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = a + r * cols;
    CG_VEC_LOOP
    for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

void ew_tanh_forward([[maybe_unused]] KernelKind kind, const float* x, float* y,
                     std::size_t n) {
#if defined(CELLGAN_X86)
  if (kind == KernelKind::kSimd && cpu_has_avx2_fma()) {
    tanh_avx2(x, y, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

void ew_tanh_backward(const float* dy, const float* y, float* dx, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const float yi = y[i];
    dx[i] = dy[i] * (1.0f - yi * yi);
  }
}

void ew_sigmoid_forward(const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                     : std::exp(v) / (1.0f + std::exp(v));
  }
}

void ew_sigmoid_backward(const float* dy, const float* y, float* dx, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const float yi = y[i];
    dx[i] = dy[i] * yi * (1.0f - yi);
  }
}

void ew_leaky_relu_forward(const float* x, float slope, float* y, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v >= 0.0f ? v : slope * v;
  }
}

void ew_leaky_relu_backward(const float* dy, const float* x, float slope, float* dx,
                            std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    dx[i] = dy[i] * (x[i] >= 0.0f ? 1.0f : slope);
  }
}

}  // namespace kernels

const char* simd_instruction_set() { return kernels::instruction_set_name(); }

}  // namespace cellgan::tensor
