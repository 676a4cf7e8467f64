// Tensor microkernel benchmark: scalar vs SIMD on the GEMMs training runs at
// the paper's layer shapes, plus the elementwise loops and the Adam step it
// runs (tanh under both kinds), emitting BENCH_tensor.json. Every op runs on
// the calling thread (tensor ops never fan out), so these are the per-lane
// numbers a training cell sees.
//
// Self-contained (no Google Benchmark) so the sweep always builds and the
// JSON carries exactly the fields CI asserts on: per-shape GFLOP/s for both
// kernel kinds, the simd/scalar speedup, and the best single-thread GEMM
// speedup (`ci/check.sh --bench` reads it; the README table is generated
// from the same file).
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

struct GemmResult {
  GemmOp op;
  GemmShape shape;
  double scalar_gflops = 0.0;
  double simd_gflops = 0.0;
  double speedup() const {
    return scalar_gflops > 0.0 ? simd_gflops / scalar_gflops : 0.0;
  }
};

double run_gemm_gflops(GemmOp op, const GemmShape& shape,
                       tensor::KernelKind kind, double min_seconds) {
  common::Rng rng(1);
  // Operand storage per op: TN takes A as (k x m), NT takes B as (n x k).
  const std::size_t a_rows = op == GemmOp::kTn ? shape.k : shape.m;
  const std::size_t a_cols = op == GemmOp::kTn ? shape.m : shape.k;
  const std::size_t b_rows = op == GemmOp::kNt ? shape.n : shape.k;
  const std::size_t b_cols = op == GemmOp::kNt ? shape.k : shape.n;
  const tensor::Tensor a = tensor::Tensor::randn(a_rows, a_cols, rng);
  const tensor::Tensor b = tensor::Tensor::randn(b_rows, b_cols, rng);
  tensor::set_kernel_kind(kind);
  volatile float sink = 0.0f;
  const double seconds = time_per_iteration(min_seconds, [&] {
    tensor::Tensor c = op == GemmOp::kNn   ? tensor::matmul(a, b)
                       : op == GemmOp::kTn ? tensor::matmul_tn(a, b)
                                           : tensor::matmul_nt(a, b);
    sink = sink + c.at(0, 0);
  });
  const double flops =
      2.0 * static_cast<double>(shape.m) * static_cast<double>(shape.k) *
      static_cast<double>(shape.n);
  return flops / seconds * 1e-9;
}

struct ElementwiseResult {
  std::string op;
  tensor::KernelKind kind;
  std::size_t elements;
  double gelems = 0.0;  ///< 1e9 elements per second
};

/// `body` handles `elements` elements per call and returns one of its outputs.
double run_elementwise_gelems(tensor::KernelKind kind, std::size_t elements,
                              const std::function<float()>& body,
                              double min_seconds) {
  tensor::set_kernel_kind(kind);
  volatile float sink = 0.0f;
  const double seconds =
      time_per_iteration(min_seconds, [&] { sink = sink + body(); });
  return static_cast<double>(elements) / seconds * 1e-9;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Tensor microkernel sweep: scalar vs SIMD GFLOP/s on the GEMMs of the "
      "paper's layers; writes BENCH_tensor.json");
  cli.add_flag("min-time", "0.2", "seconds of wall time per measurement");
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
  std::vector<std::pair<GemmOp, GemmShape>> gemms;
  for (const auto& [in, out] : layers) {
    gemms.push_back({GemmOp::kNn, {kBatch, in, out}});
    gemms.push_back({GemmOp::kTn, {in, kBatch, out}});
    gemms.push_back({GemmOp::kNt, {kBatch, out, in}});
  }

  std::printf("tensor kernels: simd path = %s\n",
              tensor::simd_instruction_set());
  std::printf("%-10s %15s %14s %14s %8s\n", "op", "shape", "scalar GF/s",
              "simd GF/s", "speedup");

  std::vector<GemmResult> gemm_results;
  double best_single_thread_speedup = 0.0;
  for (const auto& [op, shape] : gemms) {
    GemmResult r{op, shape, 0.0, 0.0};
    r.scalar_gflops =
        run_gemm_gflops(op, shape, tensor::KernelKind::kScalar, min_seconds);
    r.simd_gflops = run_gemm_gflops(op, shape, tensor::KernelKind::kSimd, min_seconds);
    best_single_thread_speedup = std::max(best_single_thread_speedup, r.speedup());
    std::printf("%-10s %5zux%4zux%4zu %14.2f %14.2f %7.2fx\n", to_string(op),
                shape.m, shape.k, shape.n, r.scalar_gflops, r.simd_gflops,
                r.speedup());
    gemm_results.push_back(r);
  }

  // The elementwise work of a training step at 100x784, the generator's
  // output: tanh_forward is the one loop whose code depends on the kind; the
  // others run one loop for both, measured under simd. adam_step is one
  // nn::Adam::step over the Table I generator's 283,920 parameters, the work
  // of the ledger's nn.adam_ms.
  std::vector<ElementwiseResult> ew_results;
  {
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
    using tensor::KernelKind;
    const struct {
      const char* op;
      KernelKind kind;
      std::size_t elements;
      std::function<float()> body;
    } rows[] = {
        {"axpy", KernelKind::kSimd, x.size(),
         [&] {
           tensor::axpy(0.37f, x, acc);
           return acc.at(0, 0);
         }},
        {"add_row_bias", KernelKind::kSimd, x.size(),
         [&] {
           tensor::add_row_bias(acc, bias);
           return acc.at(0, 0);
         }},
        {"col_sum", KernelKind::kSimd, x.size(),
         [&] { return tensor::col_sum(x).at(0, 0); }},
        {"tanh_forward", KernelKind::kScalar, x.size(),
         [&] { return tensor::tanh_forward(x).at(0, 0); }},
        {"tanh_forward", KernelKind::kSimd, x.size(),
         [&] { return tensor::tanh_forward(x).at(0, 0); }},
        {"tanh_backward", KernelKind::kSimd, x.size(),
         [&] { return tensor::tanh_backward(dy, y).at(0, 0); }},
        {"adam_step", KernelKind::kSimd, gen.parameter_count(),
         [&] {
           adam.step(gen);
           return gen.parameters()[0]->at(0, 0);
         }}};
    for (const auto& [op, kind, elements, body] : rows) {
      ElementwiseResult r{op, kind, elements,
                          run_elementwise_gelems(kind, elements, body, min_seconds)};
      std::printf("%-19s %-6s %7zu elems %12.2f Gelem/s\n", op,
                  tensor::to_string(kind), r.elements, r.gelems);
      ew_results.push_back(r);
    }
  }

  std::printf("best single-thread GEMM speedup (simd/scalar): %.2fx\n",
              best_single_thread_speedup);

  if (!json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"simd_instruction_set\": \""
        << tensor::simd_instruction_set() << "\",\n";
    out << "  \"min_time_seconds\": " << format_double(min_seconds) << ",\n";
    out << "  \"best_single_thread_gemm_speedup\": "
        << format_double(best_single_thread_speedup) << ",\n";
    out << "  \"gemm\": [\n";
    for (std::size_t i = 0; i < gemm_results.size(); ++i) {
      const GemmResult& r = gemm_results[i];
      out << "    {\"op\": \"" << to_string(r.op) << "\", \"m\": " << r.shape.m
          << ", \"k\": " << r.shape.k << ", \"n\": " << r.shape.n
          << ", \"scalar_gflops\": " << format_double(r.scalar_gflops)
          << ", \"simd_gflops\": " << format_double(r.simd_gflops)
          << ", \"speedup\": " << format_double(r.speedup()) << "}"
          << (i + 1 < gemm_results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"elementwise\": [\n";
    for (std::size_t i = 0; i < ew_results.size(); ++i) {
      const ElementwiseResult& r = ew_results[i];
      out << "    {\"op\": \"" << r.op << "\", \"kind\": \""
          << tensor::to_string(r.kind) << "\", \"elements\": " << r.elements
          << ", \"gelems_per_s\": " << format_double(r.gelems) << "}"
          << (i + 1 < ew_results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
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
