#include "tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/aligned.hpp"
#include "common/expect.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CELLGAN_X86 1
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

// Independence hint for the fallback tile and the scalar elementwise loops:
// no iteration reads another's output. Under GCC it is `ivdep`, which removes
// the vectorizer's runtime alias checks and nothing more; it does not make a
// loop vectorize. At -O2, GCC 12's default very-cheap cost model vectorizes
// only loops that need no scalar epilogue, so the portable tile (trip count
// kNR) gets packed mulps/addps while the scalar elementwise loops (trip count
// n) compile to scalar movss/addss; the simd kind has its own AVX2 loops.
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
// (kKC x nr B slabs, kMR x kKC A slabs, zero-padded to full tiles) and swept
// by a kMR x nr register-tiled microkernel, picked at runtime: AVX-512F 6x32,
// AVX2+FMA 6x16, NEON 6x16, or an autovectorized portable 6x16 tile.
//
// Determinism: for any output element, partial products accumulate in panel
// (pc) order, and within a panel in l order on a fixed register lane — none
// of which depends on the caller's row partition [row_begin, row_end), on
// which jc/ic block the element lands in, or on the tile's width. Any row
// split (serve batching stacks requests as rows) is therefore bit-identical
// to one full-range call, and the FMA tiles to each other.

constexpr std::size_t kMR = 6;    ///< microkernel rows (A register tile)
constexpr std::size_t kNR = 16;   ///< cols of the 16-wide tiles
constexpr std::size_t kKC = 256;  ///< k panel: packed A slab ~kMR*kKC*4 = 6KB
constexpr std::size_t kMC = 96;   ///< m panel: packed A block ~96KB, L2-sized
constexpr std::size_t kNC = 1024; ///< n panel: packed B block <= 1MB

/// Writes the rows x cols corner of the kMR x nr tile
/// sum_l pa[l*kMR + r] * pb[l*nr + c] to C (row stride ldc): C = tile on the
/// first k panel, C + tile on later ones (`accumulate`).
using TileKernel = void (*)(std::size_t kc, const float* pa, const float* pb,
                            float* c, std::size_t ldc, std::size_t rows,
                            std::size_t cols, bool accumulate);

/// A microkernel and the B slab width it sweeps; `name` is what
/// simd_instruction_set() reports when it is the dispatched tile.
struct GemmTile {
  TileKernel kernel;
  std::size_t nr;
  const char* name;
};

/// ctile[kMR * kNR] = sum_l pa[l*kMR + r] * pb[l*kNR + c]
using StackTileKernel = void (*)(std::size_t kc, const float* pa,
                                 const float* pb, float* ctile);

/// Runs a 16-wide tile into a stack tile and copies its corner into C.
template <StackTileKernel micro>
void via_stack_tile(std::size_t kc, const float* pa, const float* pb, float* c,
                    std::size_t ldc, std::size_t rows, std::size_t cols,
                    bool accumulate) {
  alignas(common::kCacheLineBytes) float ctile[kMR * kNR];
  micro(kc, pa, pb, ctile);
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = c + r * ldc;
    const float* trow = ctile + r * kNR;
    if (accumulate) {
      for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] += trow[cc];
    } else {
      for (std::size_t cc = 0; cc < cols; ++cc) crow[cc] = trow[cc];
    }
  }
}

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

constexpr std::size_t kNR512 = 32;  ///< cols of the AVX-512 tile

// micro_avx2's six rows at 32 columns: twelve zmm accumulators, two B loads,
// six broadcasts and twelve register-to-register FMAs per k step. The same
// unroll rule holds. C is read and written through lane masks, so no lane
// past `cols` and no row past `rows` touches memory.
__attribute__((target("avx512f"))) void micro_avx512(
    std::size_t kc, const float* pa, const float* pb, float* c,
    std::size_t ldc, std::size_t rows, std::size_t cols, bool accumulate) {
  static_assert(kMR == 6, "the unroll pragmas below must equal kMR");
  __m512 acc0[kMR];
  __m512 acc1[kMR];
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kMR; ++r) {
    acc0[r] = _mm512_setzero_ps();
    acc1[r] = _mm512_setzero_ps();
  }
  for (std::size_t l = 0; l < kc; ++l) {
    const __m512 b0 = _mm512_load_ps(pb + l * kNR512);
    const __m512 b1 = _mm512_load_ps(pb + l * kNR512 + 16);
    const float* al = pa + l * kMR;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMR; ++r) {
      const __m512 av = _mm512_set1_ps(al[r]);
      acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
      acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
    }
  }
  const auto lanes = [](std::size_t n) -> __mmask16 {
    return n >= 16 ? 0xFFFF : static_cast<__mmask16>((1u << n) - 1);
  };
  const __mmask16 mask0 = lanes(cols);
  const bool wide = cols > 16;
  const __mmask16 mask1 = wide ? lanes(cols - 16) : 0;
#pragma GCC unroll 6
  for (std::size_t r = 0; r < kMR; ++r) {
    if (r == rows) break;
    float* crow = c + r * ldc;
    __m512 v0 = acc0[r];
    if (accumulate) v0 = _mm512_add_ps(_mm512_maskz_loadu_ps(mask0, crow), v0);
    _mm512_mask_storeu_ps(crow, mask0, v0);
    if (wide) {
      __m512 v1 = acc1[r];
      if (accumulate) {
        v1 = _mm512_add_ps(_mm512_maskz_loadu_ps(mask1, crow + 16), v1);
      }
      _mm512_mask_storeu_ps(crow + 16, mask1, v1);
    }
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

/// The tiles this CPU can run, fastest first; the first is dispatched.
std::vector<GemmTile> runnable_tiles() {
  std::vector<GemmTile> tiles;
#if defined(CELLGAN_X86)
  if (__builtin_cpu_supports("avx512f")) {
    tiles.push_back({micro_avx512, kNR512, "avx512f"});
  }
  if (cpu_has_avx2_fma()) {
    tiles.push_back({via_stack_tile<micro_avx2>, kNR, "avx2+fma"});
  }
#elif defined(__ARM_NEON)
  tiles.push_back({via_stack_tile<micro_neon>, kNR, "neon"});
#endif
  tiles.push_back({via_stack_tile<micro_portable>, kNR, "portable"});
  return tiles;
}

const GemmTile& active_tile() {
  static const GemmTile tile = runnable_tiles().front();
  return tile;
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

/// Pack Op(B) rows [l0, l0+kc) x cols [j0, j0+nc) into nr-column slabs
/// (dst[l*nr + c], zero-padded past nc). Unit column stride (B in gemm and
/// gemm_tn) copies each row with memcpy.
void pack_b(const float* b, float* dst, std::size_t nr, std::size_t l0,
            std::size_t kc, std::size_t j0, std::size_t nc,
            std::size_t row_stride, std::size_t col_stride) {
  for (std::size_t slab = 0; slab < nc; slab += nr) {
    const std::size_t cols = std::min(nr, nc - slab);
    float* out = dst + slab * kc;
    for (std::size_t l = 0; l < kc; ++l) {
      const float* src = b + (l0 + l) * row_stride + (j0 + slab) * col_stride;
      float* row = out + l * nr;
      if (col_stride == 1) {
        std::memcpy(row, src, cols * sizeof(float));
      } else {
        for (std::size_t c = 0; c < cols; ++c) row[c] = src[c * col_stride];
      }
      std::fill(row + cols, row + nr, 0.0f);
    }
  }
}

/// Blocked, packed GEMM over logical operands: C rows [row_begin, row_end)
/// OVERWRITTEN with Op(A) * Op(B), where Op(A)[i,l] = a[i*a_rs + l*a_cs] and
/// Op(B)[l,j] = b[l*b_rs + j*b_cs]. C is dense row-major (m x n).
void simd_gemm(const GemmTile& tile, const float* a, const float* b, float* c,
               std::size_t row_begin, std::size_t row_end, std::size_t k,
               std::size_t n, std::size_t a_rs, std::size_t a_cs,
               std::size_t b_rs, std::size_t b_cs) {
  if (row_end <= row_begin || n == 0) return;
  if (k == 0) {
    for (std::size_t i = row_begin; i < row_end; ++i) {
      std::fill(c + i * n, c + i * n + n, 0.0f);
    }
    return;
  }
  // Thread-local so concurrent cell lanes pack into private panels; capacity
  // persists across calls (the training loop reuses a handful of shapes).
  static thread_local common::AlignedBuffer a_panels;
  static thread_local common::AlignedBuffer b_panels;
  const std::size_t nr = tile.nr;
  const std::size_t m = row_end - row_begin;
  for (std::size_t jc = 0; jc < n; jc += kNC) {
    const std::size_t nc = std::min(kNC, n - jc);
    const std::size_t n_slabs = (nc + nr - 1) / nr;
    for (std::size_t pc = 0; pc < k; pc += kKC) {
      const std::size_t kc = std::min(kKC, k - pc);
      float* pb = b_panels.grow(n_slabs * nr * kc);
      pack_b(b, pb, nr, pc, kc, jc, nc, b_rs, b_cs);
      const bool accumulate = pc > 0;
      for (std::size_t ic = 0; ic < m; ic += kMC) {
        const std::size_t mc = std::min(kMC, m - ic);
        const std::size_t m_slabs = (mc + kMR - 1) / kMR;
        float* pa = a_panels.grow(m_slabs * kMR * kc);
        pack_a(a, pa, row_begin + ic, mc, pc, kc, a_rs, a_cs);
        for (std::size_t si = 0; si < m_slabs; ++si) {
          const std::size_t tile_rows = std::min(kMR, mc - si * kMR);
          float* crow = c + (row_begin + ic + si * kMR) * n + jc;
          for (std::size_t sj = 0; sj < n_slabs; ++sj) {
            tile.kernel(kc, pa + si * kMR * kc, pb + sj * nr * kc,
                        crow + sj * nr, n, tile_rows,
                        std::min(nr, nc - sj * nr), accumulate);
          }
        }
      }
    }
  }
}

/// The kSimd GEMM of one layout on `tile`; the strides absorb the
/// transposes. m (A's row count) is read only by kTn.
void simd_gemm(const GemmTile& tile, GemmLayout layout, const float* a,
               const float* b, float* c, std::size_t row_begin,
               std::size_t row_end, std::size_t k, std::size_t m,
               std::size_t n) {
  switch (layout) {
    case GemmLayout::kNn:
      simd_gemm(tile, a, b, c, row_begin, row_end, k, n, /*a_rs=*/k,
                /*a_cs=*/1, /*b_rs=*/n, /*b_cs=*/1);
      return;
    case GemmLayout::kTn:  // Op(A)[i,l] = a[l*m + i]
      simd_gemm(tile, a, b, c, row_begin, row_end, k, n, /*a_rs=*/1,
                /*a_cs=*/m, /*b_rs=*/n, /*b_cs=*/1);
      return;
    case GemmLayout::kNt:  // Op(B)[l,j] = b[j*k + l]
      simd_gemm(tile, a, b, c, row_begin, row_end, k, n, /*a_rs=*/k,
                /*a_cs=*/1, /*b_rs=*/1, /*b_cs=*/k);
      return;
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
    simd_gemm(active_tile(), GemmLayout::kNn, a, b, c, row_begin, row_end, k,
              /*m=*/0, n);
  }
}

void gemm_tn(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t row_begin, std::size_t row_end, std::size_t k,
             std::size_t m, std::size_t n) {
  if (kind == KernelKind::kScalar) {
    scalar_gemm_tn(a, b, c, row_begin, row_end, k, m, n);
  } else {
    simd_gemm(active_tile(), GemmLayout::kTn, a, b, c, row_begin, row_end, k,
              m, n);
  }
}

void gemm_nt(KernelKind kind, const float* a, const float* b, float* c,
             std::size_t row_begin, std::size_t row_end, std::size_t k,
             std::size_t n) {
  if (kind == KernelKind::kScalar) {
    scalar_gemm_nt(a, b, c, row_begin, row_end, k, n);
  } else {
    simd_gemm(active_tile(), GemmLayout::kNt, a, b, c, row_begin, row_end, k,
              /*m=*/0, n);
  }
}

std::vector<const char*> runnable_gemm_tiles() {
  std::vector<const char*> names;
  for (const GemmTile& tile : runnable_tiles()) names.push_back(tile.name);
  return names;
}

void simd_gemm_on_tile(std::string_view tile_name, GemmLayout layout,
                       const float* a, const float* b, float* c,
                       std::size_t row_begin, std::size_t row_end,
                       std::size_t k, std::size_t m, std::size_t n) {
  const std::vector<GemmTile> tiles = runnable_tiles();
  const auto tile = std::find_if(tiles.begin(), tiles.end(), [&](const GemmTile& t) {
    return t.name == tile_name;
  });
  CG_EXPECT(tile != tiles.end());
  simd_gemm(*tile, layout, a, b, c, row_begin, row_end, k, m, n);
}

// --- elementwise family -----------------------------------------------------
// Each output element is one expression over its own inputs. kScalar runs
// plain loops (scalar code at -O2, see CG_VEC_LOOP); kSimd runs them 8 lanes
// wide where the CPU has AVX2. Each lane evaluates the scalar expression tree
// in the same order, sqrt and div round correctly in both, and the n % 8 tail
// runs the scalar loop, so both kinds give the same bits. tanh is the
// exception: libm's costs ~30 ns an element, as much as the GEMMs around it,
// so its simd kind on AVX2+FMA is a vector rational approximation.
//
// GCC contracts a*b + c into one FMA wherever the target has FMA (the scalar
// loops in a -march=native build, the AVX2 loops there too), and a fused
// multiply-add rounds once where the scalar oracle rounds twice.
// CG_NO_FP_CONTRACT pins both kinds' loops to the separate operations, and the
// AVX2 loops target "avx2" without "fma".
#if defined(__GNUC__) && !defined(__clang__)
#define CG_NO_FP_CONTRACT __attribute__((optimize("fp-contract=off")))
#else
#define CG_NO_FP_CONTRACT
#endif

namespace {

CG_NO_FP_CONTRACT void axpy_scalar(float alpha, const float* x, float* y,
                                   std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

CG_NO_FP_CONTRACT void add_row_bias_scalar(float* a, const float* bias,
                                           std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = a + r * cols;
    CG_VEC_LOOP
    for (std::size_t c = 0; c < cols; ++c) row[c] += bias[c];
  }
}

CG_NO_FP_CONTRACT void col_sum_scalar(const float* a, float* out,
                                      std::size_t rows, std::size_t cols) {
  std::fill(out, out + cols, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    for (std::size_t c = 0; c < cols; ++c) out[c] += row[c];
  }
}

CG_NO_FP_CONTRACT void tanh_backward_scalar(const float* dy, const float* y,
                                            float* dx, std::size_t n) {
  CG_VEC_LOOP
  for (std::size_t i = 0; i < n; ++i) {
    const float yi = y[i];
    dx[i] = dy[i] * (1.0f - yi * yi);
  }
}

CG_NO_FP_CONTRACT void adam_scalar(const AdamCoefficients& c, float* p,
                                   const float* g, float* m, float* v,
                                   std::size_t n) {
  const float b1 = c.beta1, b2 = c.beta2, step_size = c.step_size;
  const float inv_sqrt_bc2 = c.inv_sqrt_bc2, eps = c.epsilon;
  for (std::size_t j = 0; j < n; ++j) {
    m[j] = b1 * m[j] + (1.0f - b1) * g[j];
    v[j] = b2 * v[j] + (1.0f - b2) * g[j] * g[j];
    p[j] -= step_size * m[j] / (std::sqrt(v[j]) * inv_sqrt_bc2 + eps);
  }
}

}  // namespace

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

__attribute__((target("avx2"))) CG_NO_FP_CONTRACT void axpy_avx2(
    float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 ax = _mm256_mul_ps(va, _mm256_loadu_ps(x + i));
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_loadu_ps(y + i), ax));
  }
  axpy_scalar(alpha, x + i, y + i, n - i);
}

__attribute__((target("avx2"))) CG_NO_FP_CONTRACT void add_row_bias_avx2(
    float* a, const float* bias, std::size_t rows, std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = a + r * cols;
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(row + c, _mm256_add_ps(_mm256_loadu_ps(row + c),
                                              _mm256_loadu_ps(bias + c)));
    }
    add_row_bias_scalar(row + c, bias + c, 1, cols - c);
  }
}

/// Vectorized across columns: out's vectors gather each row in turn, so
/// every column adds its rows in the scalar loop's order.
__attribute__((target("avx2"))) CG_NO_FP_CONTRACT void col_sum_avx2(
    const float* a, float* out, std::size_t rows, std::size_t cols) {
  std::fill(out, out + cols, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = a + r * cols;
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8) {
      _mm256_storeu_ps(out + c, _mm256_add_ps(_mm256_loadu_ps(out + c),
                                              _mm256_loadu_ps(row + c)));
    }
    for (; c < cols; ++c) out[c] += row[c];
  }
}

__attribute__((target("avx2"))) CG_NO_FP_CONTRACT void tanh_backward_avx2(
    const float* dy, const float* y, float* dx, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 yi = _mm256_loadu_ps(y + i);
    const __m256 slope = _mm256_sub_ps(one, _mm256_mul_ps(yi, yi));
    _mm256_storeu_ps(dx + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), slope));
  }
  tanh_backward_scalar(dy + i, y + i, dx + i, n - i);
}

__attribute__((target("avx2"))) CG_NO_FP_CONTRACT void adam_avx2(
    const AdamCoefficients& c, float* p, const float* g, float* m, float* v,
    std::size_t n) {
  const __m256 b1 = _mm256_set1_ps(c.beta1);
  const __m256 b2 = _mm256_set1_ps(c.beta2);
  const __m256 one_minus_b1 = _mm256_set1_ps(1.0f - c.beta1);
  const __m256 one_minus_b2 = _mm256_set1_ps(1.0f - c.beta2);
  const __m256 step_size = _mm256_set1_ps(c.step_size);
  const __m256 inv_sqrt_bc2 = _mm256_set1_ps(c.inv_sqrt_bc2);
  const __m256 eps = _mm256_set1_ps(c.epsilon);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 gi = _mm256_loadu_ps(g + i);
    const __m256 mi = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m + i)),
                                    _mm256_mul_ps(one_minus_b1, gi));
    const __m256 vi =
        _mm256_add_ps(_mm256_mul_ps(b2, _mm256_loadu_ps(v + i)),
                      _mm256_mul_ps(_mm256_mul_ps(one_minus_b2, gi), gi));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 denom =
        _mm256_add_ps(_mm256_mul_ps(_mm256_sqrt_ps(vi), inv_sqrt_bc2), eps);
    const __m256 update = _mm256_div_ps(_mm256_mul_ps(step_size, mi), denom);
    _mm256_storeu_ps(p + i, _mm256_sub_ps(_mm256_loadu_ps(p + i), update));
  }
  adam_scalar(c, p + i, g + i, m + i, v + i, n - i);
}

bool cpu_has_avx2() { return __builtin_cpu_supports("avx2"); }

}  // namespace

#endif

void ew_axpy([[maybe_unused]] KernelKind kind, float alpha, const float* x,
             float* y, std::size_t n) {
#if defined(CELLGAN_X86)
  if (kind == KernelKind::kSimd && cpu_has_avx2()) {
    axpy_avx2(alpha, x, y, n);
    return;
  }
#endif
  axpy_scalar(alpha, x, y, n);
}

void ew_add_row_bias([[maybe_unused]] KernelKind kind, float* a, const float* bias,
                     std::size_t rows, std::size_t cols) {
#if defined(CELLGAN_X86)
  if (kind == KernelKind::kSimd && cpu_has_avx2()) {
    add_row_bias_avx2(a, bias, rows, cols);
    return;
  }
#endif
  add_row_bias_scalar(a, bias, rows, cols);
}

void ew_col_sum([[maybe_unused]] KernelKind kind, const float* a, float* out,
                std::size_t rows, std::size_t cols) {
#if defined(CELLGAN_X86)
  if (kind == KernelKind::kSimd && cpu_has_avx2()) {
    col_sum_avx2(a, out, rows, cols);
    return;
  }
#endif
  col_sum_scalar(a, out, rows, cols);
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

void ew_tanh_backward([[maybe_unused]] KernelKind kind, const float* dy,
                      const float* y, float* dx, std::size_t n) {
#if defined(CELLGAN_X86)
  if (kind == KernelKind::kSimd && cpu_has_avx2()) {
    tanh_backward_avx2(dy, y, dx, n);
    return;
  }
#endif
  tanh_backward_scalar(dy, y, dx, n);
}

void adam_update([[maybe_unused]] KernelKind kind, const AdamCoefficients& c,
                 float* p, const float* g, float* m, float* v, std::size_t n) {
#if defined(CELLGAN_X86)
  if (kind == KernelKind::kSimd && cpu_has_avx2()) {
    adam_avx2(c, p, g, m, v, n);
    return;
  }
#endif
  adam_scalar(c, p, g, m, v, n);
}

}  // namespace kernels

const char* simd_instruction_set() { return kernels::active_tile().name; }

}  // namespace cellgan::tensor
