// Tensor microkernel benchmark: scalar vs SIMD on the GEMMs training runs at
// the paper's layer shapes, plus the elementwise loops and the Adam step it
// runs, each under both kernel kinds, emitting BENCH_tensor.json. Every op
// runs on the calling thread (tensor ops never fan out), so these are the
// per-lane numbers a training cell sees.
//
// Every row is measured in kRounds interleaved rounds (round r measures each
// row once before round r + 1 starts), so a change of the shared host's speed
// lands on all rows alike; a row reports the median and the interquartile
// range of its rounds.
//
// Self-contained (no Google Benchmark) so the sweep always builds and the
// JSON carries exactly the fields CI asserts on: per-shape GFLOP/s for both
// kernel kinds, the simd/scalar speedup of the medians, and the best
// single-thread GEMM speedup (`ci/check.sh --bench` reads it; the README
// table is generated from the same file).
//
//   micro_tensor [--min-time SECONDS] [--json PATH]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "nn/gan_models.hpp"
#include "nn/optimizer.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"

namespace {

using namespace cellgan;
using Clock = std::chrono::steady_clock;

/// Runs `body` repeatedly until `min_seconds` of wall time accumulate (at
/// least three iterations) and returns seconds per iteration.
template <typename Body>
double time_per_iteration(double min_seconds, const Body& body) {
  body();  // warm up: panels packed once, pages faulted in
  std::size_t iterations = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++iterations;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds || iterations < 3);
  return elapsed / static_cast<double>(iterations);
}

constexpr std::size_t kRounds = 7;

/// Median and quartiles of one row's rounds (linear interpolation between
/// order statistics).
struct Spread {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double p) {
    const double pos = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

enum class GemmOp { kNn, kTn, kNt };

const char* to_string(GemmOp op) {
  switch (op) {
    case GemmOp::kNn: return "matmul";
    case GemmOp::kTn: return "matmul_tn";
    case GemmOp::kNt: return "matmul_nt";
  }
  return "?";
}

struct GemmShape {
  std::size_t m, k, n;
};

/// One GEMM shape: the rounds of both kinds, in GFLOP/s.
struct GemmRow {
  GemmOp op;
  GemmShape shape;
  tensor::Tensor a, b;
  std::vector<double> scalar_gflops, simd_gflops;
};

GemmRow make_gemm_row(GemmOp op, const GemmShape& shape) {
  common::Rng rng(1);
  // Operand storage per op: TN takes A as (k x m), NT takes B as (n x k).
  const std::size_t a_rows = op == GemmOp::kTn ? shape.k : shape.m;
  const std::size_t a_cols = op == GemmOp::kTn ? shape.m : shape.k;
  const std::size_t b_rows = op == GemmOp::kNt ? shape.n : shape.k;
  const std::size_t b_cols = op == GemmOp::kNt ? shape.k : shape.n;
  tensor::Tensor a = tensor::Tensor::randn(a_rows, a_cols, rng);
  tensor::Tensor b = tensor::Tensor::randn(b_rows, b_cols, rng);
  return {op, shape, std::move(a), std::move(b), {}, {}};
}

double run_gemm_gflops(const GemmRow& row, tensor::KernelKind kind,
                       double min_seconds) {
  tensor::set_kernel_kind(kind);
  volatile float sink = 0.0f;
  const double seconds = time_per_iteration(min_seconds, [&] {
    tensor::Tensor c = row.op == GemmOp::kNn   ? tensor::matmul(row.a, row.b)
                       : row.op == GemmOp::kTn ? tensor::matmul_tn(row.a, row.b)
                                               : tensor::matmul_nt(row.a, row.b);
    sink = sink + c.at(0, 0);
  });
  const GemmShape& s = row.shape;
  const double flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.k) *
                       static_cast<double>(s.n);
  return flops / seconds * 1e-9;
}

/// One elementwise loop under one kind: `body` handles `elements` elements
/// per call and returns one of its outputs.
struct ElementwiseRow {
  const char* op;
  tensor::KernelKind kind;
  std::size_t elements;
  std::function<float()> body;
  std::vector<double> gelems;  ///< 1e9 elements per second, per round
};

double run_elementwise_gelems(const ElementwiseRow& row, double min_seconds) {
  tensor::set_kernel_kind(row.kind);
  volatile float sink = 0.0f;
  const double seconds =
      time_per_iteration(min_seconds, [&] { sink = sink + row.body(); });
  return static_cast<double>(row.elements) / seconds * 1e-9;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

/// `"name": median, "name_iqr": [q1, q3]`
std::string json_spread(const char* name, const Spread& s) {
  return std::string("\"") + name + "\": " + format_double(s.median) + ", \"" + name +
         "_iqr\": [" + format_double(s.q1) + ", " + format_double(s.q3) + "]";
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Tensor microkernel sweep: scalar vs SIMD GFLOP/s on the GEMMs of the "
      "paper's layers; writes BENCH_tensor.json");
  cli.add_flag("min-time", "0.05", "seconds of wall time per row and round");
  cli.add_flag("json", "BENCH_tensor.json", "output JSON path (empty = skip)");
  if (!cli.parse(argc, argv)) return 1;
  const double min_seconds = cli.get_double("min-time");
  const std::string json_path = cli.get("json");

  // The GEMMs training runs at batch 100 on the five distinct Table I layers
  // (generator 64->256->256->784, discriminator 784->256->256->1): per
  // Linear layer in->out, the forward matmul (100 x in x out), the weight
  // gradient matmul_tn (in x 100 x out) and the input gradient matmul_nt
  // (100 x out x in).
  constexpr std::size_t kBatch = 100;
  const std::pair<std::size_t, std::size_t> layers[] = {
      {64, 256}, {256, 256}, {256, 784}, {784, 256}, {256, 1}};
  std::vector<GemmRow> gemm_rows;
  for (const auto& [in, out] : layers) {
    gemm_rows.push_back(make_gemm_row(GemmOp::kNn, {kBatch, in, out}));
    gemm_rows.push_back(make_gemm_row(GemmOp::kTn, {in, kBatch, out}));
    gemm_rows.push_back(make_gemm_row(GemmOp::kNt, {kBatch, out, in}));
  }

  // The elementwise work of a training step at 100x784, the generator's
  // output, under both kinds: every loop here follows the kind. adam_step is
  // one nn::Adam::step over the Table I generator's 283,920 parameters, the
  // work of the ledger's nn.adam_ms.
  common::Rng rng(2);
  const tensor::Tensor x = tensor::Tensor::randn(100, 784, rng);
  const tensor::Tensor dy = tensor::Tensor::randn(100, 784, rng);
  const tensor::Tensor bias = tensor::Tensor::randn(1, 784, rng);
  const tensor::Tensor y = tensor::tanh_forward(x);
  tensor::Tensor acc = tensor::Tensor::randn(100, 784, rng);
  nn::Sequential gen = nn::make_generator(nn::GanArch::paper(), rng);
  for (tensor::Tensor* g : gen.gradients()) {
    *g = tensor::Tensor::randn(g->rows(), g->cols(), rng);
  }
  nn::Adam adam(2e-4);  // Table I
  std::vector<ElementwiseRow> ew_rows;
  const auto add_loop = [&](const char* op, std::size_t elements,
                            std::function<float()> body) {
    for (const tensor::KernelKind kind :
         {tensor::KernelKind::kScalar, tensor::KernelKind::kSimd}) {
      ew_rows.push_back({op, kind, elements, body, {}});
    }
  };
  add_loop("axpy", x.size(), [&] {
    tensor::axpy(0.37f, x, acc);
    return acc.at(0, 0);
  });
  add_loop("add_row_bias", x.size(), [&] {
    tensor::add_row_bias(acc, bias);
    return acc.at(0, 0);
  });
  add_loop("col_sum", x.size(), [&] { return tensor::col_sum(x).at(0, 0); });
  add_loop("tanh_forward", x.size(), [&] { return tensor::tanh_forward(x).at(0, 0); });
  add_loop("tanh_backward", x.size(),
           [&] { return tensor::tanh_backward(dy, y).at(0, 0); });
  add_loop("adam_step", gen.parameter_count(), [&] {
    adam.step(gen);
    return gen.parameters()[0]->at(0, 0);
  });

  std::printf("tensor kernels: simd path = %s; median [IQR] of %zu rounds\n",
              tensor::simd_instruction_set(), kRounds);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (GemmRow& row : gemm_rows) {
      row.scalar_gflops.push_back(
          run_gemm_gflops(row, tensor::KernelKind::kScalar, min_seconds));
      row.simd_gflops.push_back(run_gemm_gflops(row, tensor::KernelKind::kSimd, min_seconds));
    }
    for (ElementwiseRow& row : ew_rows) {
      row.gelems.push_back(run_elementwise_gelems(row, min_seconds));
    }
  }

  std::printf("%-10s %13s %22s %22s %8s\n", "op", "shape", "scalar GF/s",
              "simd GF/s", "speedup");
  double best_single_thread_speedup = 0.0;
  std::ostringstream gemm_json;
  for (std::size_t i = 0; i < gemm_rows.size(); ++i) {
    const GemmRow& r = gemm_rows[i];
    const Spread scalar = spread_of(r.scalar_gflops);
    const Spread simd = spread_of(r.simd_gflops);
    const double speedup = scalar.median > 0.0 ? simd.median / scalar.median : 0.0;
    best_single_thread_speedup = std::max(best_single_thread_speedup, speedup);
    std::printf("%-10s %4zux%4zux%4zu %6.2f [%6.2f-%6.2f] %6.2f [%6.2f-%6.2f] %7.2fx\n",
                to_string(r.op), r.shape.m, r.shape.k, r.shape.n, scalar.median, scalar.q1,
                scalar.q3, simd.median, simd.q1, simd.q3, speedup);
    gemm_json << "    {\"op\": \"" << to_string(r.op) << "\", \"m\": " << r.shape.m
              << ", \"k\": " << r.shape.k << ", \"n\": " << r.shape.n << ", "
              << json_spread("scalar_gflops", scalar) << ", "
              << json_spread("simd_gflops", simd)
              << ", \"speedup\": " << format_double(speedup) << "}"
              << (i + 1 < gemm_rows.size() ? "," : "") << "\n";
  }
  std::ostringstream ew_json;
  for (std::size_t i = 0; i < ew_rows.size(); ++i) {
    const ElementwiseRow& r = ew_rows[i];
    const Spread gelems = spread_of(r.gelems);
    std::printf("%-19s %-6s %7zu elems %8.3f [%.3f-%.3f] Gelem/s\n", r.op,
                tensor::to_string(r.kind), r.elements, gelems.median, gelems.q1, gelems.q3);
    ew_json << "    {\"op\": \"" << r.op << "\", \"kind\": \""
            << tensor::to_string(r.kind) << "\", \"elements\": " << r.elements << ", "
            << json_spread("gelems_per_s", gelems) << "}"
            << (i + 1 < ew_rows.size() ? "," : "") << "\n";
  }

  std::printf("best single-thread GEMM speedup (simd/scalar medians): %.2fx\n",
              best_single_thread_speedup);

  if (!json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"simd_instruction_set\": \""
        << tensor::simd_instruction_set() << "\",\n";
    out << "  \"min_time_seconds\": " << format_double(min_seconds) << ",\n";
    out << "  \"rounds\": " << kRounds << ",\n";
    out << "  \"best_single_thread_gemm_speedup\": "
        << format_double(best_single_thread_speedup) << ",\n";
    out << "  \"gemm\": [\n" << gemm_json.str() << "  ],\n";
    out << "  \"elementwise\": [\n" << ew_json.str() << "  ]\n}\n";
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "micro_tensor: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    file << out.str();
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
