#!/usr/bin/env bash
# Runs the inference and kernel microbenchmarks, leaving their JSON result
# files (BENCH_model_inference.json, BENCH_kernels.json) in the current
# directory. End-to-end numbers come from lanbench (lanbench/README.md).
#
# Usage: tools/run_benches.sh [build-dir]   (default: ./build)
#
# LAN_BENCH_SMOKE=1 shrinks the timing windows (same knob `ctest -L
# perf-smoke` uses) for a fast liveness run instead of a measurement.
set -euo pipefail

build_dir="${1:-build}"
if [[ ! -d "${build_dir}/bench" ]]; then
  echo "error: ${build_dir}/bench not found (configure+build first:" >&2
  echo "       cmake -B ${build_dir} -S . && cmake --build ${build_dir} -j)" >&2
  exit 1
fi

for bench in model_inference kernel_bench; do
  bin="${build_dir}/bench/${bench}"
  if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built" >&2
    exit 1
  fi
  echo "==== ${bench} ===="
  "${bin}"
done

echo "wrote BENCH_model_inference.json and BENCH_kernels.json"
