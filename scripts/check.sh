#!/usr/bin/env bash
# One-command verification: plain tier-1 build + full test suite + the
# registry-driven golden-diff harness, the serving benchmark's build and a
# 2 s correctness run of its gated workloads, then the full suite under
# AddressSanitizer and UndefinedBehaviorSanitizer, then the same golden
# harness (plus the focused concurrency suites) under ThreadSanitizer. This
# is the flow CI runs; a clean exit here means the tree is shippable.
#
#   scripts/check.sh          # everything (plain + perfbench + sanitizers)
#   scripts/check.sh --fast   # plain build + tests + the perfbench build only
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

echo "== tier-1: configure + build =="
cmake -B build -S .
cmake --build build -j "$(nproc)"

echo "== tier-1: full test suite =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== tier-1: golden-diff harness (ctest -L golden) =="
ctest --test-dir build -L golden --output-on-failure

echo "== tier-1: quant kernels + backend (ctest -L quant) =="
ctest --test-dir build -L quant --output-on-failure

# Live-mutation battery: WAL / manifest corruption sweeps, the recovery
# state machine under the mutate.* fault points, and the forked kill -9
# crash tests. Runs in --fast mode too — crash safety is not optional.
echo "== tier-1: live mutation + crash recovery (ctest -L mutate) =="
ctest --test-dir build -L mutate --output-on-failure

# Resource-pressure battery: admission control, the ENOSPC taxonomy,
# maintenance retry/escalation and the integrity scrubber. Runs in --fast
# mode too — backpressure and quarantine guard the same acks the crash
# tests do.
echo "== tier-1: resource pressure + scrubbing (ctest -L pressure) =="
ctest --test-dir build -L pressure --output-on-failure

# The quantized backend and golden matrix promise bit-identical results at
# every thread count; pin that against the pool-size dial explicitly.
for threads in 1 4; do
  echo "== tier-1: golden + quant at ADAMINE_NUM_THREADS=$threads =="
  ADAMINE_NUM_THREADS=$threads \
    ctest --test-dir build -L 'golden|quant' --output-on-failure
done

# The serving benchmark (perfbench/) builds the library from src/ in its
# own tree, the same way perfbench/run.py does, so a src/ change that
# breaks the benchmark's build fails here too.
bench_dir="${CARGO_TARGET_DIR:-.bench_build}/perfbench"
echo "== perfbench: build serve_bench =="
if [[ ! -f "$bench_dir/CMakeCache.txt" ]]; then
  cmake -S perfbench -B "$bench_dir" -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$bench_dir" --target serve_bench -j "$(nproc)"

if [[ "$FAST" == "1" ]]; then
  echo "check.sh: OK (fast mode, perfbench runs and sanitizer passes skipped)"
  exit 0
fi

# A short run of each gated workload. run.py exits 0 on a wrong answer
# (it only checks the result's shape), so the verdict is read from the
# result line: every answer matched scalar and no operation failed.
for workload in photo_search live_ingest; do
  echo "== perfbench: $workload smoke run (2 s) =="
  result="$(python3 perfbench/run.py --workload "$workload" --seed 1 \
              --seconds 2 --trace 0 | tail -n 1)"
  echo "$result"
  if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r["correct"] is True and r["failed"] == 0 else 1)
' "$result"; then
    echo "perfbench $workload: wrong answers or failed operations" >&2
    exit 1
  fi
done

# Memory errors and undefined behaviour anywhere in the tree: the whole
# suite, decoders' hostile-input sweeps included, under each sanitizer.
for pass in asan:address ubsan:undefined; do
  dir="build-${pass%%:*}"
  sanitizer="${pass#*:}"
  echo "== ${pass%%:*}: configure + build (ADAMINE_SANITIZE=$sanitizer) =="
  cmake -B "$dir" -S . -DADAMINE_SANITIZE="$sanitizer"
  cmake --build "$dir" -j "$(nproc)"
  echo "== ${pass%%:*}: full test suite =="
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
done

echo "== tsan: configure + build (ADAMINE_SANITIZE=thread) =="
cmake -B build-tsan -S . -DADAMINE_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)"

echo "== tsan: golden-diff harness =="
ctest --test-dir build-tsan -L golden --output-on-failure

echo "== tsan: concurrency suites (ctest -L tsan) =="
ctest --test-dir build-tsan -L tsan --output-on-failure

echo "check.sh: OK"
