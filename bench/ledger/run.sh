#!/usr/bin/env bash
# Wall-clock ledger of cellular GAN training. Builds the ledger (a CMake
# project over the repository root) into bench/ledger/build, writes the
# seed's MNIST-shaped IDX fixture, then measures one workload or all four,
# each in its own process:
#
#   bench/ledger/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                       [--trace 0|1|FILE] [--smoke]
#
# --trace 1 adds the traced reps and the probe phase and reports the
# per-layer metrics; --trace FILE does the same and writes the Chrome trace of
# every workload measured to FILE (default bench/ledger/build/results/
# trace.json). Each workload writes bench/ledger/build/results/<workload>.json.
# The last line of standard output is the result JSON of the last workload
# measured; the exit code is non-zero when any check failed. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$here/build"

workload=all
seed=1
seconds=20
trace=0
smoke=false
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --smoke) smoke=true; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
if ! [[ "$seed" =~ ^[0-9]+$ ]]; then
  echo "run.sh: --seed must be a non-negative integer" >&2
  exit 2
fi
trace_file="$build/results/trace.json"
case "$trace" in
  0|1) ;;
  *) trace_file="$trace"; trace=1 ;;
esac

# The ledger builds the library sources two directories up; without them
# there is nothing to measure.
if [ ! -f "$root/CMakeLists.txt" ] || [ ! -d "$root/src" ]; then
  echo "run.sh: no cellgan sources at $root; run from a full checkout" >&2
  exit 1
fi

# Compilers and tools put scratch files under TMPDIR; keep them in the build.
mkdir -p "$build/tmp" "$build/results"
export TMPDIR="$build/tmp"

log="$build/build.log"
if ! { [ -f "$build/CMakeCache.txt" ] ||
       cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo; } >"$log" 2>&1 ||
   ! cmake --build "$build" --target ledger -j "$(nproc)" >>"$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: build failed; full log in $log" >&2
  exit 1
fi
ledger="$build/ledger"

# The training data: an MNIST-shaped IDX quartet made from the seed. Only the
# current seed's quartet is kept.
sizes=()
tag="seed-$seed"
if $smoke; then
  sizes=(--train 2000 --test 400)
  tag="smoke-seed-$seed"
fi
data="$build/data/$tag"
if [ ! -d "$data" ]; then
  rm -rf "$build/data"
  mkdir -p "$build/data"
  "$ledger" --make-fixture "$data.tmp" --seed "$seed" "${sizes[@]}" >&2
  mv "$data.tmp" "$data"
fi

rev=unknown
if [ -e "$root/.git" ]; then
  rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi

workloads="$workload"
if [ "$workload" = all ]; then
  workloads="$("$ledger" --list)"
fi
if [ "$trace" = 1 ] || $smoke; then
  rm -f "$trace_file"
fi
status=0
for w in $workloads; do
  "$ledger" --workload "$w" --data "$data" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --smoke "$smoke" --out "$build/results" \
    --trace-file "$trace_file" --git-rev "$rev" || status=$?
done
exit "$status"
