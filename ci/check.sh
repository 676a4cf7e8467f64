#!/usr/bin/env bash
# CI entry point: configure, build, run the whole test bed once, then confirm
# the tier-1 label resolved to the full bed without re-executing it. No
# environment variable selects a tensor kernel or exchange policy, so one
# pass covers them: the parity suites pin each choice explicitly (kernel
# kinds, all three exchange policies).
# The suites that loop over both kernel kinds run the AVX2 elementwise and
# Adam loops under simd and the scalar oracle loops under scalar.
# Usage:
#   ci/check.sh [--bench] [build-dir]
#
# --bench additionally runs the perf bed at reduced scale (table3_scaling as
# a smoke) and records the numbers (the Table II metric sweep
# BENCH_metrics.json, the scalar-vs-SIMD tensor kernel sweep
# BENCH_tensor.json with the median and IQR of interleaved rounds, the
# exchange-policy sweep BENCH_exchange.json, the serving-plane latency/QPS sweep
# BENCH_serving.json with its telemetry stream SMOKE_serving.jsonl, and a
# smoke-run telemetry stream SMOKE_telemetry.jsonl in the build dir), so perf
# and quality PRs can show deltas.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
RUN_BENCH=0
if [ "${1:-}" = "--bench" ]; then
  RUN_BENCH=1
  shift
fi
BUILD="${1:-$ROOT/build}"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -B "$BUILD" -S "$ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$JOBS"

cd "$BUILD"
ctest --output-on-failure -j "$JOBS"

# The label machinery must keep covering the whole bed: a tier-1 run that
# silently matches zero (or few) tests would let label-filtered CI jobs pass
# while executing nothing.
TOTAL="$(ctest -N | tail -1 | grep -o '[0-9]\+')"
TIER1="$(ctest -N -L tier1 | tail -1 | grep -o '[0-9]\+')"
echo "tier1 label covers $TIER1 of $TOTAL tests"
if [ -z "$TIER1" ] || [ "$TIER1" -ne "$TOTAL" ]; then
  echo "error: tier1 label no longer covers the full test bed" >&2
  exit 1
fi

# Multi-process smoke at reduced scale: fork a world of 3 real processes
# (1x2 grid + master) over the TCP transport and require rank 0's RunResult
# to match the in-process distributed backend bit for bit. This also runs as
# the `examples.launch_tcp_smoke` ctest; the explicit invocation archives
# the rank JSONs as CI artifacts.
echo "=== smoke: cellgan_launch world=3 over TCP + parity check ==="
./examples/cellgan_launch --grid-rows 1 --grid-cols 2 --iterations 2 \
  --samples 64 --cost-profile table3 \
  --rank-results "$BUILD/SMOKE_launch_tcp" --verify-parity true

# Chaos smoke: SIGKILL rank 2 after epoch 1, respawn it, roll the world back
# to the last common checkpoint, replay — and still demand bit-identical
# parity with the undisturbed in-process backend. The rank-0 telemetry
# stream (archived as a CI artifact) shows the recovery: epochs re-published
# after the rollback appear twice. Also runs as the
# `examples.launch_chaos_smoke` ctest; the explicit invocation archives the
# recovery artifacts.
echo "=== smoke: cellgan_launch chaos (kill + respawn + rollback) + parity ==="
rm -rf "$BUILD/SMOKE_chaos_ck" "$BUILD/SMOKE_chaos_telemetry.jsonl"
./examples/cellgan_launch --grid-rows 1 --grid-cols 2 --iterations 4 \
  --samples 64 --cost-profile table3 \
  --rank-results "$BUILD/SMOKE_launch_chaos" --verify-parity true \
  --recover-dir "$BUILD/SMOKE_chaos_ck" --kill-rank 2 --kill-at-epoch 1 \
  --telemetry "$BUILD/SMOKE_chaos_telemetry.jsonl"
grep -q '"event"' "$BUILD/SMOKE_chaos_telemetry.jsonl" || {
  echo "error: chaos run produced no telemetry stream" >&2
  exit 1
}

# The wall-clock ledger (bench/ledger, the repository's benchmark) builds its
# own CMake project against the library APIs; a short smoke run here makes a
# change to any API it calls fail CI rather than the benchmark.
echo "=== smoke: wall-clock ledger (bench/ledger/run.sh --smoke) ==="
bash "$ROOT/bench/ledger/run.sh" --smoke

if [ "$RUN_BENCH" -eq 1 ]; then
  echo "=== smoke: table3_scaling (reduced scale) ==="
  BENCH_THREADS=$(( JOBS < 2 ? 2 : JOBS ))
  ./bench/table3_scaling --iterations 4 --repetitions 2 --samples 64 \
    --threads "$BENCH_THREADS"
  echo "=== bench: table2_metrics (reduced scale) -> BENCH_metrics.json ==="
  ./bench/table2_metrics --iterations 4 --samples 96 --max-side 2 \
    --eval-every 2 --eval-samples 48 --json "$BUILD/BENCH_metrics.json"
  echo "=== smoke: observability (eval + telemetry) -> SMOKE_telemetry.jsonl ==="
  rm -f "$BUILD/SMOKE_telemetry.jsonl"
  ./examples/cellgan_run --backend threads --threads 2 --iterations 4 \
    --grid 2 --samples 64 --cost-profile table3 --eval-every 2 \
    --eval-samples 48 --telemetry "$BUILD/SMOKE_telemetry.jsonl"
  grep -q '"event":"metrics"' "$BUILD/SMOKE_telemetry.jsonl" || {
    echo "error: telemetry stream has no metrics records" >&2
    exit 1
  }
  echo "=== bench: exchange_compare (policy x grid sweep) -> BENCH_exchange.json ==="
  ./bench/exchange_compare --iterations 4 --samples 96 --max-side 3 \
    --json "$BUILD/BENCH_exchange.json"
  grep -q '"deterministic": true' "$BUILD/BENCH_exchange.json" || {
    echo "error: an exchange policy diverged between repeated runs" >&2
    exit 1
  }
  echo "=== bench: micro_tensor (scalar vs SIMD) -> BENCH_tensor.json ==="
  ./bench/micro_tensor --min-time 0.01 --json "$BUILD/BENCH_tensor.json"
  grep -q '"best_single_thread_gemm_speedup"' "$BUILD/BENCH_tensor.json" || {
    echo "error: BENCH_tensor.json missing the kernel speedup summary" >&2
    exit 1
  }
  echo "=== bench: serve_load (QPS sweep, in-process server) -> BENCH_serving.json ==="
  rm -f "$BUILD/SMOKE_serving.jsonl"
  ./bench/serve_load --qps 25,50,100 --duration-s 1.5 --count 8 \
    --iterations 4 --out-dir "$BUILD/serve_bench_out" \
    --json "$BUILD/BENCH_serving.json" \
    --telemetry "$BUILD/SMOKE_serving.jsonl"
  grep -q '"p99_ms"' "$BUILD/BENCH_serving.json" || {
    echo "error: BENCH_serving.json missing latency percentiles" >&2
    exit 1
  }
  grep -q '"parity": true' "$BUILD/BENCH_serving.json" || {
    echo "error: serve path is not bit-identical to Session::sample_best" >&2
    exit 1
  }
  grep -q '"event":"serve_request"' "$BUILD/SMOKE_serving.jsonl" || {
    echo "error: serving telemetry stream has no serve_request records" >&2
    exit 1
  }
  echo "=== smoke: cellgan_serve daemon + cellgan_client over loopback ==="
  ./examples/cellgan_serve --checkpoint "$BUILD/serve_bench_out/serve_bench.ckpt" \
    --listen 127.0.0.1:0 > "$BUILD/SMOKE_serve_daemon.log" &
  SERVE_PID=$!
  for _ in $(seq 1 50); do
    grep -q 'listening on' "$BUILD/SMOKE_serve_daemon.log" && break
    sleep 0.1
  done
  SERVE_EP="$(grep -o 'listening on .*' "$BUILD/SMOKE_serve_daemon.log" | awk '{print $3}')"
  if [ -z "$SERVE_EP" ]; then
    echo "error: cellgan_serve did not announce an endpoint" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  ./examples/cellgan_client --connect "$SERVE_EP" --qps 20 --duration-s 1 \
    --count 8 --stats true --shutdown true
  wait "$SERVE_PID" || {
    echo "error: cellgan_serve did not exit cleanly after shutdown" >&2
    exit 1
  }
  grep -q 'cellgan_serve done' "$BUILD/SMOKE_serve_daemon.log" || {
    echo "error: daemon log missing the drain summary" >&2
    exit 1
  }
fi
