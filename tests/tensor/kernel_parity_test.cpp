// Pins the SIMD GEMM microkernels against the scalar reference (the seam in
// tensor/kernels.hpp):
//
//  * the GEMM family may differ by accumulation order (packed panels + FMA),
//    but only within the documented bound asserted here: for every output
//    element, |kind - reference| <= 16*eps * sum_l |a||b| + 1e-6, with the
//    double-precision dot product as reference. The cross-kind gap obeys
//    twice that bound;
//  * all three GEMM kernels OVERWRITE their output rows (the unified
//    initialization contract) — poisoned output memory must not leak in;
//  * row-range calls reproduce the full-range call bit for bit for a fixed
//    kind (serve batching stacks requests as rows and relies on it), write
//    no other row and nothing past C, and concurrent calls from cell lanes
//    reproduce the serial call;
//  * kSimd dispatches the first tile the CPU can run (AVX-512F 6x32, AVX2+FMA
//    6x16, NEON 6x16, portable 6x16); every tile the CPU can run gets the
//    bound and the row-write check, not only the dispatched one;
//  * on an FMA tile, the simd output bits of three seeded GEMMs per variant
//    are pinned by hash, the same for every FMA tile, so a change to a tile's
//    FMA order fails across builds;
//  * tanh: the scalar kind is libm bit for bit, the simd kind stays within an
//    absolute bound of the double-precision tanh with libm's special values,
//    and every output depends only on its own input (no effect of the call's
//    start offset or length, the vector tail included). On AVX2+FMA its
//    output bits are pinned by hash, like the GEMMs';
//  * the other elementwise ops (axpy, add_row_bias, col_sum, tanh_backward)
//    and the Adam update give the same bits under both kinds, from any
//    start, the vector tail included.
//
// Shapes sweep odd/prime/tail-heavy sizes so partial 6x16 and 6x32 tiles,
// panel remainders and sub-vector widths all get exercised, and run under the
// tier1 label so the ASan/UBSan CI job covers the packing scratch buffers.
#include "tensor/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/run_spec.hpp"
#include "tensor/ops.hpp"
#include "testsupport/kind_guard.hpp"

namespace cellgan::tensor {
namespace {

using testsupport::KindGuard;

struct GemmShape {
  std::size_t m, k, n;
};

// Odd, prime and tail-heavy shapes around the 6x16 and 6x32 microkernel
// tiles and the 256-deep k panel, plus the paper's discriminator first layer.
const GemmShape kShapes[] = {
    {1, 1, 1},   {2, 3, 5},     {5, 7, 3},    {6, 16, 16},  {7, 17, 19},
    {17, 13, 11}, {31, 64, 33},  {33, 65, 17}, {3, 257, 65}, {129, 31, 63},
    {13, 300, 47}, {100, 784, 256},
};

Tensor random_tensor(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  common::Rng rng(seed);
  return Tensor::randn(rows, cols, rng);
}

/// Asserts `result` element-wise against the double-precision reference of
/// op(A')B' (A'[i,l], B'[l,j] given through accessors), with the documented
/// accumulation bound.
template <typename AccessA, typename AccessB>
void expect_within_gemm_bound(const Tensor& result, std::size_t m,
                              std::size_t k, std::size_t n, AccessA at_a,
                              AccessB at_b, const char* label) {
  constexpr float kEps = std::numeric_limits<float>::epsilon();
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double ref = 0.0;
      double scale = 0.0;
      for (std::size_t l = 0; l < k; ++l) {
        const double a = at_a(i, l);
        const double b = at_b(l, j);
        ref += a * b;
        scale += std::abs(a) * std::abs(b);
      }
      const double bound = 16.0 * kEps * scale + 1e-6;
      ASSERT_NEAR(result.at(i, j), ref, bound)
          << label << " element (" << i << "," << j << ") of " << m << "x" << k
          << "x" << n;
    }
  }
}

TEST(KernelParity, MatmulWithinBoundBothKinds) {
  for (const auto& shape : kShapes) {
    const Tensor a = random_tensor(shape.m, shape.k, 11 + shape.m);
    const Tensor b = random_tensor(shape.k, shape.n, 23 + shape.n);
    const auto at_a = [&](std::size_t i, std::size_t l) { return a.at(i, l); };
    const auto at_b = [&](std::size_t l, std::size_t j) { return b.at(l, j); };
    Tensor scalar_c(0, 0), simd_c(0, 0);
    {
      KindGuard guard(KernelKind::kScalar);
      scalar_c = matmul(a, b);
    }
    {
      KindGuard guard(KernelKind::kSimd);
      simd_c = matmul(a, b);
    }
    expect_within_gemm_bound(scalar_c, shape.m, shape.k, shape.n, at_a, at_b,
                             "scalar matmul");
    expect_within_gemm_bound(simd_c, shape.m, shape.k, shape.n, at_a, at_b,
                             "simd matmul");
  }
}

TEST(KernelParity, MatmulTnWithinBoundBothKinds) {
  for (const auto& shape : kShapes) {
    // A stored k x m, logical A^T.
    const Tensor a = random_tensor(shape.k, shape.m, 31 + shape.k);
    const Tensor b = random_tensor(shape.k, shape.n, 41 + shape.n);
    const auto at_a = [&](std::size_t i, std::size_t l) { return a.at(l, i); };
    const auto at_b = [&](std::size_t l, std::size_t j) { return b.at(l, j); };
    Tensor scalar_c(0, 0), simd_c(0, 0);
    {
      KindGuard guard(KernelKind::kScalar);
      scalar_c = matmul_tn(a, b);
    }
    {
      KindGuard guard(KernelKind::kSimd);
      simd_c = matmul_tn(a, b);
    }
    expect_within_gemm_bound(scalar_c, shape.m, shape.k, shape.n, at_a, at_b,
                             "scalar matmul_tn");
    expect_within_gemm_bound(simd_c, shape.m, shape.k, shape.n, at_a, at_b,
                             "simd matmul_tn");
  }
}

TEST(KernelParity, MatmulNtWithinBoundBothKinds) {
  for (const auto& shape : kShapes) {
    const Tensor a = random_tensor(shape.m, shape.k, 53 + shape.m);
    // B stored n x k, logical B^T.
    const Tensor b = random_tensor(shape.n, shape.k, 61 + shape.k);
    const auto at_a = [&](std::size_t i, std::size_t l) { return a.at(i, l); };
    const auto at_b = [&](std::size_t l, std::size_t j) { return b.at(j, l); };
    Tensor scalar_c(0, 0), simd_c(0, 0);
    {
      KindGuard guard(KernelKind::kScalar);
      scalar_c = matmul_nt(a, b);
    }
    {
      KindGuard guard(KernelKind::kSimd);
      simd_c = matmul_nt(a, b);
    }
    expect_within_gemm_bound(scalar_c, shape.m, shape.k, shape.n, at_a, at_b,
                             "scalar matmul_nt");
    expect_within_gemm_bound(simd_c, shape.m, shape.k, shape.n, at_a, at_b,
                             "simd matmul_nt");
  }
}

TEST(KernelParity, GemmCrossKindDriftBounded) {
  // The scalar and SIMD results must sit within twice the per-kind bound of
  // each other (both are within it of the double reference).
  constexpr float kEps = std::numeric_limits<float>::epsilon();
  for (const auto& shape : kShapes) {
    const Tensor a = random_tensor(shape.m, shape.k, 71 + shape.m);
    const Tensor b = random_tensor(shape.k, shape.n, 83 + shape.n);
    Tensor scalar_c(0, 0), simd_c(0, 0);
    {
      KindGuard guard(KernelKind::kScalar);
      scalar_c = matmul(a, b);
    }
    {
      KindGuard guard(KernelKind::kSimd);
      simd_c = matmul(a, b);
    }
    for (std::size_t i = 0; i < shape.m; ++i) {
      for (std::size_t j = 0; j < shape.n; ++j) {
        double scale = 0.0;
        for (std::size_t l = 0; l < shape.k; ++l) {
          scale += std::abs(static_cast<double>(a.at(i, l))) *
                   std::abs(static_cast<double>(b.at(l, j)));
        }
        ASSERT_NEAR(scalar_c.at(i, j), simd_c.at(i, j),
                    2.0 * (16.0 * kEps * scale + 1e-6));
      }
    }
  }
}

TEST(KernelParity, StridedViewOperandsMatchFullTensors) {
  // slice_rows / reshaped produce the operands layers actually feed the
  // kernels; a slice's GEMM must equal the matching rows computed whole.
  const Tensor a = random_tensor(40, 37, 97);
  const Tensor b = random_tensor(37, 29, 101);
  for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kSimd}) {
    KindGuard guard(kind);
    const Tensor whole = matmul(a, b);
    const Tensor part = matmul(a.slice_rows(7, 23), b);
    for (std::size_t i = 0; i < part.rows(); ++i) {
      for (std::size_t j = 0; j < part.cols(); ++j) {
        ASSERT_EQ(part.at(i, j), whole.at(i + 7, j)) << to_string(kind);
      }
    }
    const Tensor reshaped = a.reshaped(37, 40);
    const Tensor tn_a = matmul_tn(reshaped, random_tensor(37, 5, 103));
    ASSERT_EQ(tn_a.rows(), 40u);
    ASSERT_EQ(tn_a.cols(), 5u);
  }
}

TEST(KernelParity, GemmKernelsOverwritePoisonedOutput) {
  // The unified output contract: kernels OVERWRITE rows [row_begin, row_end)
  // — callers never pre-zero, so poisoned memory must vanish entirely.
  const std::size_t m = 9, k = 14, n = 21;
  const Tensor a = random_tensor(m, k, 7);
  const Tensor b = random_tensor(k, n, 9);
  const Tensor a_t = random_tensor(k, m, 11);
  const Tensor b_t = random_tensor(n, k, 13);
  const float poison = std::numeric_limits<float>::quiet_NaN();
  for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kSimd}) {
    std::vector<float> c(m * n, poison);
    kernels::gemm(kind, a.data().data(), b.data().data(), c.data(), 0, m, k, n);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << to_string(kind);

    std::fill(c.begin(), c.end(), poison);
    kernels::gemm_tn(kind, a_t.data().data(), b.data().data(), c.data(), 0, m,
                     k, m, n);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << to_string(kind);

    std::fill(c.begin(), c.end(), poison);
    kernels::gemm_nt(kind, a.data().data(), b_t.data().data(), c.data(), 0, m,
                     k, n);
    for (const float v : c) ASSERT_FALSE(std::isnan(v)) << to_string(kind);

    // k == 0 must still overwrite (with zeros), not skip the rows.
    std::fill(c.begin(), c.end(), poison);
    kernels::gemm(kind, a.data().data(), b.data().data(), c.data(), 0, m, 0, n);
    for (const float v : c) ASSERT_EQ(v, 0.0f) << to_string(kind);
  }
}

TEST(KernelParity, RowRangeKernelMatchesFullRun) {
  // Row-partitioned calls must reproduce the full run bit for bit for a
  // fixed kind — the accumulation order of an output element never depends
  // on the partition.
  const std::size_t m = 23, k = 65, n = 47;
  const Tensor a = random_tensor(m, k, 17);
  const Tensor b = random_tensor(k, n, 19);
  for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kSimd}) {
    std::vector<float> whole(m * n, 0.0f);
    kernels::gemm(kind, a.data().data(), b.data().data(), whole.data(), 0, m,
                  k, n);
    std::vector<float> split(m * n, 0.0f);
    kernels::gemm(kind, a.data().data(), b.data().data(), split.data(), 0, 9,
                  k, n);
    kernels::gemm(kind, a.data().data(), b.data().data(), split.data(), 9, 10,
                  k, n);
    kernels::gemm(kind, a.data().data(), b.data().data(), split.data(), 10, m,
                  k, n);
    ASSERT_EQ(0,
              std::memcmp(whole.data(), split.data(), m * n * sizeof(float)))
        << to_string(kind);
  }
}

/// One GEMM variant bound to its operands: writes rows [row_begin, row_end)
/// of a dense m x n C.
using RowRangeGemm =
    std::function<void(float* c, std::size_t row_begin, std::size_t row_end)>;

/// Runs `gemm` on rows [3, 11) and [5, 13) of a sentinel-filled C with 64
/// guard floats past its end: rows in the range must match a full-range call
/// bit for bit, and every other row and guard float must keep the sentinel.
void expect_writes_only_its_rows(const RowRangeGemm& gemm, std::size_t m,
                                 std::size_t n, const std::string& label) {
  constexpr std::size_t kGuard = 64;
  const float sentinel = 1234.5f;
  std::vector<float> whole(m * n + kGuard, sentinel);
  gemm(whole.data(), 0, m);
  for (std::size_t g = 0; g < kGuard; ++g) {
    ASSERT_EQ(sentinel, whole[m * n + g]) << label << " all rows, guard " << g;
  }
  const std::size_t ranges[][2] = {{3, 11}, {5, 13}};
  for (const auto& [row_begin, row_end] : ranges) {
    std::vector<float> c(m * n + kGuard, sentinel);
    gemm(c.data(), row_begin, row_end);
    for (std::size_t i = 0; i < m; ++i) {
      const bool in_range = i >= row_begin && i < row_end;
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(in_range ? whole[i * n + j] : sentinel),
                  std::bit_cast<std::uint32_t>(c[i * n + j]))
            << label << " rows [" << row_begin << "," << row_end << ") element ("
            << i << "," << j << ")";
      }
    }
    for (std::size_t g = 0; g < kGuard; ++g) {
      ASSERT_EQ(sentinel, c[m * n + g])
          << label << " rows [" << row_begin << "," << row_end << ") guard " << g;
    }
  }
}

/// Runs one layout's GEMM on rows [row_begin, row_end) of C, with a and b
/// stored as that layout's kernel takes them.
using LayoutGemm = std::function<void(
    kernels::GemmLayout layout, const float* a, const float* b, float* c,
    std::size_t row_begin, std::size_t row_end, std::size_t k, std::size_t m,
    std::size_t n)>;

/// GemmWritesOnlyItsRows' sweep: n covers every column tail of a 16- and a
/// 32-wide tile; k = 7 takes only the first k panel's store, k = 300 also the
/// second panel's add into C.
void expect_layouts_write_only_their_rows(const LayoutGemm& gemm,
                                          const std::string& label) {
  constexpr std::size_t m = 13;
  for (const std::size_t k : {std::size_t{7}, std::size_t{300}}) {
    for (std::size_t n = 1; n <= 33; ++n) {
      const Tensor a = random_tensor(m, k, 3 * n + k);
      const Tensor b = random_tensor(k, n, 5 * n + k);
      const Tensor a_t = random_tensor(k, m, 7 * n + k);
      const Tensor b_t = random_tensor(n, k, 11 * n + k);
      const struct {
        kernels::GemmLayout layout;
        const Tensor& a;
        const Tensor& b;
        const char* name;
      } cases[] = {{kernels::GemmLayout::kNn, a, b, "gemm"},
                   {kernels::GemmLayout::kTn, a_t, b, "gemm_tn"},
                   {kernels::GemmLayout::kNt, a, b_t, "gemm_nt"}};
      for (const auto& op : cases) {
        expect_writes_only_its_rows(
            [&](float* c, std::size_t row_begin, std::size_t row_end) {
              gemm(op.layout, op.a.data().data(), op.b.data().data(), c,
                   row_begin, row_end, k, m, n);
            },
            m, n,
            label + " " + op.name + " " + std::to_string(m) + "x" +
                std::to_string(k) + "x" + std::to_string(n));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(KernelParity, GemmWritesOnlyItsRows) {
  for (const KernelKind kind : testsupport::kAllKernelKinds) {
    expect_layouts_write_only_their_rows(
        [kind](kernels::GemmLayout layout, const float* a, const float* b,
               float* c, std::size_t row_begin, std::size_t row_end,
               std::size_t k, std::size_t m, std::size_t n) {
          switch (layout) {
            case kernels::GemmLayout::kNn:
              kernels::gemm(kind, a, b, c, row_begin, row_end, k, n);
              return;
            case kernels::GemmLayout::kTn:
              kernels::gemm_tn(kind, a, b, c, row_begin, row_end, k, m, n);
              return;
            case kernels::GemmLayout::kNt:
              kernels::gemm_nt(kind, a, b, c, row_begin, row_end, k, n);
              return;
          }
        },
        to_string(kind));
  }
}

TEST(KernelParity, ThreadedMatmulBitIdenticalToSerialPerKind) {
  // Cell lanes run GEMMs concurrently; each lane packs into its own
  // thread-local panels, so every lane must reproduce the serial result.
  const Tensor a = random_tensor(64, 129, 29);
  const Tensor b = random_tensor(129, 65, 31);
  for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kSimd}) {
    KindGuard guard(kind);
    const Tensor serial = matmul(a, b);
    std::vector<Tensor> lanes(4, Tensor(0, 0));
    common::ThreadPool pool(lanes.size());
    pool.parallel_for(lanes.size(), [&](std::size_t begin, std::size_t end) {
      for (std::size_t lane = begin; lane < end; ++lane) lanes[lane] = matmul(a, b);
    });
    for (const Tensor& lane : lanes) {
      ASSERT_EQ(0, std::memcmp(serial.data().data(), lane.data().data(),
                               serial.size() * sizeof(float)))
          << to_string(kind);
    }
  }
}

/// Op(A) * Op(B) over all rows on the named simd tile, with a and b stored
/// as the layout's kernel takes them.
Tensor gemm_on_tile(const char* tile, kernels::GemmLayout layout, const Tensor& a,
                    const Tensor& b) {
  const bool tn = layout == kernels::GemmLayout::kTn;
  const std::size_t m = tn ? a.cols() : a.rows();
  const std::size_t k = tn ? a.rows() : a.cols();
  const std::size_t n = layout == kernels::GemmLayout::kNt ? b.rows() : b.cols();
  Tensor c(m, n);
  kernels::simd_gemm_on_tile(tile, layout, a.data().data(), b.data().data(),
                             c.data().data(), 0, m, k, m, n);
  return c;
}

TEST(KernelParity, EveryTileWithinBound) {
  // kSimd dispatches one tile; every other tile this CPU can run (the AVX2
  // and portable tiles on an AVX-512 host) gets the *WithinBoundBothKinds
  // bound here, on all three layouts.
  for (const char* tile : kernels::runnable_gemm_tiles()) {
    for (const auto& shape : kShapes) {
      const Tensor a = random_tensor(shape.m, shape.k, 11 + shape.m);
      const Tensor b = random_tensor(shape.k, shape.n, 23 + shape.n);
      const Tensor a_t = random_tensor(shape.k, shape.m, 31 + shape.k);
      const Tensor b_t = random_tensor(shape.n, shape.k, 61 + shape.k);
      const auto at_a = [&](std::size_t i, std::size_t l) { return a.at(i, l); };
      const auto at_b = [&](std::size_t l, std::size_t j) { return b.at(l, j); };
      const auto at_a_t = [&](std::size_t i, std::size_t l) { return a_t.at(l, i); };
      const auto at_b_t = [&](std::size_t l, std::size_t j) { return b_t.at(j, l); };
      const std::string label = std::string(tile) + " ";
      expect_within_gemm_bound(gemm_on_tile(tile, kernels::GemmLayout::kNn, a, b),
                               shape.m, shape.k, shape.n, at_a, at_b,
                               (label + "gemm").c_str());
      expect_within_gemm_bound(gemm_on_tile(tile, kernels::GemmLayout::kTn, a_t, b),
                               shape.m, shape.k, shape.n, at_a_t, at_b,
                               (label + "gemm_tn").c_str());
      expect_within_gemm_bound(gemm_on_tile(tile, kernels::GemmLayout::kNt, a, b_t),
                               shape.m, shape.k, shape.n, at_a, at_b_t,
                               (label + "gemm_nt").c_str());
    }
  }
}

TEST(KernelParity, EveryTileWritesOnlyItsRows) {
  // The 16-wide tiles write C from a stack tile, the 32-wide one through
  // lane masks; each tile this CPU can run gets GemmWritesOnlyItsRows' sweep.
  for (const char* tile : kernels::runnable_gemm_tiles()) {
    expect_layouts_write_only_their_rows(
        [tile](kernels::GemmLayout layout, const float* a, const float* b,
               float* c, std::size_t row_begin, std::size_t row_end,
               std::size_t k, std::size_t m, std::size_t n) {
          kernels::simd_gemm_on_tile(tile, layout, a, b, c, row_begin, row_end,
                                     k, m, n);
        },
        tile);
  }
}

/// FNV-1a (64-bit) over the bytes of a tensor's elements.
std::uint64_t fnv1a_64(const Tensor& t) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(t.data().data());
  for (std::size_t i = 0; i < t.size() * sizeof(float); ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

TEST(KernelParity, SimdGemmBitsArePinned) {
  // Every other GEMM test compares kinds, rows or lanes within one build, so
  // a microkernel change that reorders an output element's FMA chain would
  // pass them all. These hashes pin the exact output bits of the dispatched
  // kSimd path and of every FMA tile this CPU can run (avx512f, avx2+fma,
  // neon: the tile width does not change any element's chain) across
  // builds. Operands are uniform, not normal: Rng::uniform uses only integer
  // and IEEE arithmetic, so the inputs do not depend on libm.
  const std::vector<const char*> tiles = kernels::runnable_gemm_tiles();
  const auto is_fma = [](const char* tile) { return std::string(tile) != "portable"; };
  if (!is_fma(tiles.front())) {
    GTEST_SKIP() << "hashes are of the FMA tiles; this CPU runs only the "
                 << tiles.front() << " tile";
  }
  struct Pinned {
    GemmShape shape;
    std::uint64_t nn, tn, nt;
  };
  const Pinned kPinned[] = {
      // two k panels, partial tiles
      {{13, 300, 47},
       0x1a1b8176b7f65ca8ull, 0xb0d020016b6a9a60ull, 0x5239dd1799ffb208ull},
      // four k panels, the last one 16 deep (the Table I 784-wide layers)
      {{100, 784, 256},
       0x3e63b9a877a7934bull, 0x3be6e31128760136ull, 0x7a32e0aa71ce9589ull},
      // GanArch::tiny scale
      {{16, 64, 16},
       0x627c435060e091aaull, 0xdfbd9fe3e1f17026ull, 0xbe4c4b3a86d1c85eull},
  };
  KindGuard guard(KernelKind::kSimd);
  for (const Pinned& pinned : kPinned) {
    const GemmShape& s = pinned.shape;
    common::Rng rng(1000 * s.m + s.n);
    const Tensor a = Tensor::rand_uniform(s.m, s.k, rng, -1.0f, 1.0f);
    const Tensor b = Tensor::rand_uniform(s.k, s.n, rng, -1.0f, 1.0f);
    const Tensor a_t = Tensor::rand_uniform(s.k, s.m, rng, -1.0f, 1.0f);
    const Tensor b_t = Tensor::rand_uniform(s.n, s.k, rng, -1.0f, 1.0f);
    const std::string label = std::to_string(s.m) + "x" + std::to_string(s.k) +
                              "x" + std::to_string(s.n);
    EXPECT_EQ(pinned.nn, fnv1a_64(matmul(a, b))) << "matmul " << label;
    EXPECT_EQ(pinned.tn, fnv1a_64(matmul_tn(a_t, b))) << "matmul_tn " << label;
    EXPECT_EQ(pinned.nt, fnv1a_64(matmul_nt(a, b_t))) << "matmul_nt " << label;
    for (const char* tile : tiles) {
      if (!is_fma(tile)) continue;
      EXPECT_EQ(pinned.nn, fnv1a_64(gemm_on_tile(tile, kernels::GemmLayout::kNn, a, b)))
          << tile << " gemm " << label;
      EXPECT_EQ(pinned.tn, fnv1a_64(gemm_on_tile(tile, kernels::GemmLayout::kTn, a_t, b)))
          << tile << " gemm_tn " << label;
      EXPECT_EQ(pinned.nt, fnv1a_64(gemm_on_tile(tile, kernels::GemmLayout::kNt, a, b_t)))
          << tile << " gemm_nt " << label;
    }
  }
}

TEST(KernelParity, TanhWithinBoundBothKinds) {
  // A linear sweep of [0, 16] plus a geometric one down to 1.5e-11, so the
  // tiny-input, polynomial and clamped regimes are all dense.
  std::vector<float> sweep;
  constexpr int kLinear = 250000;
  for (int i = 0; i <= kLinear; ++i) sweep.push_back(16.0f * i / kLinear);
  for (int i = 0; i <= 64 * 40; ++i) {
    sweep.push_back(16.0f * std::exp2(-static_cast<float>(i) / 64.0f));
  }
  const std::size_t n = sweep.size();
  const Tensor x(1, n, sweep);
  Tensor neg_x(1, n);
  for (std::size_t i = 0; i < n; ++i) neg_x.data()[i] = -sweep[i];

  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float kDenormal = std::numeric_limits<float>::denorm_min() * 77.0f;
  const Tensor special = Tensor::row(
      {std::numeric_limits<float>::quiet_NaN(), kInf, -kInf, -0.0f, 0.0f,
       kDenormal, -kDenormal});

  for (const KernelKind kind : testsupport::kAllKernelKinds) {
    KindGuard guard(kind);
    const Tensor y = tanh_forward(x);
    const Tensor neg_y = tanh_forward(neg_x);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = y.data()[i];
      if (kind == KernelKind::kScalar) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(std::tanh(sweep[i])),
                  std::bit_cast<std::uint32_t>(v))
            << "x=" << sweep[i];
      }
      ASSERT_NEAR(v, std::tanh(static_cast<double>(sweep[i])), 3e-7)
          << to_string(kind) << " x=" << sweep[i];
      ASSERT_LE(std::abs(v), 1.0f) << to_string(kind) << " x=" << sweep[i];
      ASSERT_EQ(-v, neg_y.data()[i]) << to_string(kind) << " x=" << sweep[i];
    }

    const Tensor s = tanh_forward(special);
    EXPECT_TRUE(std::isnan(s.data()[0])) << to_string(kind);
    EXPECT_EQ(1.0f, s.data()[1]) << to_string(kind);
    EXPECT_EQ(-1.0f, s.data()[2]) << to_string(kind);
    EXPECT_EQ(0.0f, s.data()[3]) << to_string(kind);
    EXPECT_TRUE(std::signbit(s.data()[3])) << to_string(kind);
    EXPECT_EQ(0.0f, s.data()[4]) << to_string(kind);
    EXPECT_FALSE(std::signbit(s.data()[4])) << to_string(kind);
    EXPECT_EQ(kDenormal, s.data()[5]) << to_string(kind);
    EXPECT_EQ(-kDenormal, s.data()[6]) << to_string(kind);
  }
}

TEST(KernelParity, TanhIsPositionIndependent) {
  // Row splits, cell lanes and batched serving call tanh on sub-ranges, so an
  // output may depend only on its own input: not on its offset from a vector
  // boundary nor on the call's length. Every start offset mod 8 and every
  // length 1..17 (tails of every size) is checked against one full call, and
  // nothing past the range may be written.
  constexpr std::size_t kMaxStart = 8;
  constexpr std::size_t kMaxN = 17;
  common::Rng rng(77);
  const Tensor values = Tensor::rand_uniform(1, kMaxStart + kMaxN, rng, -9.0f, 9.0f);
  std::vector<float> x(values.data().begin(), values.data().end());
  x[3] = 1e-5f;  // below the tiny-input cutoff
  x[11] = -0.0f;
  x[12] = std::numeric_limits<float>::quiet_NaN();
  const float sentinel = 12345.0f;
  for (const KernelKind kind : testsupport::kAllKernelKinds) {
    std::vector<float> whole(x.size());
    kernels::ew_tanh_forward(kind, x.data(), whole.data(), x.size());
    for (std::size_t start = 0; start < kMaxStart; ++start) {
      for (std::size_t n = 1; n <= kMaxN; ++n) {
        std::vector<float> y(n + 1, sentinel);
        kernels::ew_tanh_forward(kind, x.data() + start, y.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(whole[start + i]),
                    std::bit_cast<std::uint32_t>(y[i]))
              << to_string(kind) << " start " << start << " n " << n << " i " << i;
        }
        ASSERT_EQ(sentinel, y[n]) << to_string(kind) << " start " << start << " n " << n;
      }
    }
  }
}

TEST(KernelParity, SimdTanhBitsArePinned) {
  // The bound above leaves room for a reordered polynomial; these hashes pin
  // the avx2+fma tanh's exact output bits across builds, on the paper's
  // 100x784 generator output and an odd shape with an n % 8 tail. The simd
  // tanh runs where the CPU has AVX2+FMA, that is where the avx2+fma GEMM
  // tile is runnable, whichever tile the GEMMs dispatch.
  const std::vector<const char*> tiles = kernels::runnable_gemm_tiles();
  if (std::none_of(tiles.begin(), tiles.end(), [](const char* tile) {
        return std::string(tile) == "avx2+fma";
      })) {
    GTEST_SKIP() << "hashes are of the avx2+fma tanh; this CPU lacks AVX2+FMA";
  }
  struct Pinned {
    std::size_t rows, cols;
    std::uint64_t hash;
  };
  const Pinned kPinned[] = {
      {100, 784, 0x71997d2ec4036643ull},
      {13, 37, 0xe8197f10119bbc06ull},
  };
  KindGuard guard(KernelKind::kSimd);
  for (const Pinned& pinned : kPinned) {
    common::Rng rng(1000 * pinned.rows + pinned.cols);
    const Tensor x = Tensor::rand_uniform(pinned.rows, pinned.cols, rng, -8.0f, 8.0f);
    EXPECT_EQ(pinned.hash, fnv1a_64(tanh_forward(x)))
        << "tanh " << pinned.rows << "x" << pinned.cols;
  }
}

/// Asserts that `actual` has the shape and the exact bits of `expected`.
void expect_same_bits(const Tensor& expected, const Tensor& actual,
                      const std::string& label) {
  ASSERT_TRUE(expected.same_shape(actual)) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(expected.data()[i]),
              std::bit_cast<std::uint32_t>(actual.data()[i]))
        << label << " element " << i;
  }
}

/// axpy, add_row_bias, col_sum and tanh_backward, in that order, run under
/// `kind` on seeded rows x cols operands.
std::vector<Tensor> elementwise_outputs(KernelKind kind, std::size_t rows,
                                        std::size_t cols) {
  KindGuard guard(kind);
  common::Rng rng(31 * rows + cols);
  const Tensor x = Tensor::randn(rows, cols, rng);
  Tensor y = Tensor::randn(rows, cols, rng);
  const Tensor bias = Tensor::randn(1, cols, rng);
  const Tensor dy = Tensor::randn(rows, cols, rng);
  const Tensor tanh_y = Tensor::rand_uniform(rows, cols, rng, -1.0f, 1.0f);
  axpy(-0.37f, x, y);
  Tensor biased = x;
  add_row_bias(biased, bias);
  return {y, biased, col_sum(x), tanh_backward(dy, tanh_y)};
}

TEST(KernelParity, ElementwiseBitsMatchAcrossKinds) {
  // The simd elementwise loops must reproduce the scalar oracle bit for bit.
  // Widths 0..67 give every tail length of an 8-wide loop several times; at
  // three rows an odd width also starts rows 1 and 2 off a vector boundary.
  // 100x784 is the paper's generator output.
  const char* const kNames[] = {"axpy", "add_row_bias", "col_sum", "tanh_backward"};
  std::vector<std::pair<std::size_t, std::size_t>> shapes;
  for (std::size_t n = 0; n <= 67; ++n) {
    shapes.emplace_back(1, n);
    shapes.emplace_back(3, n);
  }
  shapes.emplace_back(100, 784);
  for (const auto& [rows, cols] : shapes) {
    const std::vector<Tensor> scalar = elementwise_outputs(KernelKind::kScalar, rows, cols);
    const std::vector<Tensor> simd = elementwise_outputs(KernelKind::kSimd, rows, cols);
    for (std::size_t op = 0; op < scalar.size(); ++op) {
      expect_same_bits(scalar[op], simd[op],
                       std::string(kNames[op]) + " " + std::to_string(rows) + "x" +
                           std::to_string(cols));
    }
  }
}

TEST(KernelParity, ElementwiseKernelsMatchAcrossKindsOffAVectorBoundary) {
  // The ops start each kernel at a tensor's first float; here every loop the
  // kind selects starts one float later, with one more float after its range.
  // The kinds must agree bit for bit inside the range and leave both
  // neighbours untouched.
  constexpr std::size_t kRows = 3;
  constexpr float kSentinel = 12345.0f;
  const kernels::AdamCoefficients adam{.beta1 = 0.9f, .beta2 = 0.999f,
                                       .step_size = 2e-3f, .inv_sqrt_bc2 = 22.4f,
                                       .epsilon = 1e-8f};
  for (std::size_t cols = 0; cols <= 67; ++cols) {
    const std::size_t n = kRows * cols;
    common::Rng rng(500 + cols);
    const auto padded = [&](float lo, float hi) {
      const Tensor t = Tensor::rand_uniform(1, n, rng, lo, hi);
      std::vector<float> out(n + 2, kSentinel);
      std::copy(t.data().begin(), t.data().end(), out.begin() + 1);
      return out;
    };
    const std::vector<float> x = padded(-2.0f, 2.0f), y = padded(-2.0f, 2.0f);
    const std::vector<float> tanh_y = padded(-1.0f, 1.0f);
    const std::vector<float> m = padded(-0.1f, 0.1f), v = padded(0.0f, 0.01f);
    const Tensor bias = Tensor::rand_uniform(1, cols + 1, rng, -1.0f, 1.0f);
    std::vector<std::vector<float>> outputs[2];
    for (const KernelKind kind : testsupport::kAllKernelKinds) {
      std::vector<float> axpy_y = y, biased = x, sums(cols + 2, kSentinel);
      std::vector<float> dx(n + 2, kSentinel), adam_p = x, adam_m = m, adam_v = v;
      kernels::ew_axpy(kind, -0.37f, x.data() + 1, axpy_y.data() + 1, n);
      kernels::ew_add_row_bias(kind, biased.data() + 1, bias.data().data() + 1, kRows,
                               cols);
      kernels::ew_col_sum(kind, x.data() + 1, sums.data() + 1, kRows, cols);
      kernels::ew_tanh_backward(kind, y.data() + 1, tanh_y.data() + 1, dx.data() + 1, n);
      kernels::adam_update(kind, adam, adam_p.data() + 1, y.data() + 1,
                           adam_m.data() + 1, adam_v.data() + 1, n);
      outputs[static_cast<std::size_t>(kind)] = {axpy_y, biased, sums, dx,
                                                 adam_p, adam_m, adam_v};
    }
    const char* const kNames[] = {"axpy", "add_row_bias", "col_sum", "tanh_backward",
                                  "adam p", "adam m", "adam v"};
    for (std::size_t op = 0; op < outputs[0].size(); ++op) {
      const std::vector<float>& scalar = outputs[0][op];
      const std::vector<float>& simd = outputs[1][op];
      const std::string label = std::string(kNames[op]) + " cols " + std::to_string(cols);
      ASSERT_EQ(scalar.size(), simd.size()) << label;
      for (std::size_t i = 0; i < scalar.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(scalar[i]),
                  std::bit_cast<std::uint32_t>(simd[i]))
            << label << " element " << i;
      }
      EXPECT_EQ(kSentinel, simd.front()) << label;
      EXPECT_EQ(kSentinel, simd.back()) << label;
    }
  }
}

TEST(KernelSelection, NameRoundTripAndSetGet) {
  EXPECT_STREQ("scalar", to_string(KernelKind::kScalar));
  EXPECT_STREQ("simd", to_string(KernelKind::kSimd));
  EXPECT_EQ(KernelKind::kScalar, kernel_kind_from_string("scalar"));
  EXPECT_EQ(KernelKind::kSimd, kernel_kind_from_string("simd"));
  EXPECT_FALSE(kernel_kind_from_string("avx512").has_value());
  EXPECT_FALSE(kernel_kind_from_string("").has_value());

  const KernelKind before = active_kernel_kind();
  set_kernel_kind(KernelKind::kScalar);
  EXPECT_EQ(KernelKind::kScalar, active_kernel_kind());
  set_kernel_kind(KernelKind::kSimd);
  EXPECT_EQ(KernelKind::kSimd, active_kernel_kind());
  set_kernel_kind(before);

  // Whatever the hardware, the instruction-set name is one of the known ones,
  // and it is the first tile this CPU can run.
  const std::string isa = simd_instruction_set();
  EXPECT_TRUE(isa == "avx512f" || isa == "avx2+fma" || isa == "neon" ||
              isa == "portable")
      << isa;
  EXPECT_EQ(isa, kernels::runnable_gemm_tiles().front());
}

TEST(KernelSelection, EnvironmentDoesNotChooseTheKind) {
  // The process default and the spec default are simd whatever the
  // environment says; only RunSpec::tensor_kernel / set_kernel_kind select.
  ::setenv("CELLGAN_TENSOR_KERNEL", "scalar", 1);
  EXPECT_EQ(KernelKind::kSimd, active_kernel_kind());
  EXPECT_EQ(KernelKind::kSimd, core::RunSpec{}.tensor_kernel);
  ::unsetenv("CELLGAN_TENSOR_KERNEL");
}

}  // namespace
}  // namespace cellgan::tensor
