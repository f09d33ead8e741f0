#!/usr/bin/env bash
# Records the kernel microbenchmarks (reference kernels, BM_*Scalar, vs
# morsel-parallel ones) into BENCH_kernels.json at the repo root and prints a
# speedup summary.
#
# Usage:
#     scripts/bench_kernels.sh [build_dir]
#
# Re-record the checked-in baseline after touching src/operators/kernels.cc
# or src/common/parallel.*:
#     cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
#     scripts/bench_kernels.sh build
#
# Numbers are host-dependent; the checked-in BENCH_kernels.json documents the
# recording machine in its "context" block. On single-core containers the
# wall-time speedup of Parallel/8 is bounded by total work (the arena has one
# core to run on); the per-run "CPU" column counts only the calling thread,
# so CPU-time ratios show the work the arena offloads.
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
bench="${repo_root}/${build_dir}/bench/micro_kernels"
out="${repo_root}/BENCH_kernels.json"

if [[ ! -x "${bench}" ]]; then
  echo "error: ${bench} not built (run cmake --build ${build_dir} -j first)" >&2
  exit 1
fi

"${bench}" \
  --benchmark_filter='BM_((Filter|HashJoin|Aggregate)(Scalar|Parallel)|Pipeline(Unfused|Fused))' \
  --benchmark_min_time=0.5 \
  --benchmark_repetitions=3 \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="${out}" \
  --benchmark_out_format=json

python3 - "${out}" <<'EOF'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as f:
    doc = json.load(f)

median = {
    b["run_name"]: b["real_time"]
    for b in doc["benchmarks"]
    if b.get("aggregate_name") == "median"
}

print()
print(f"{'kernel':<12} {'scalar':>12} {'parallel/8':>12} {'speedup':>9}")
for kernel in ("Filter", "HashJoin", "Aggregate"):
    scalar = median.get(f"BM_{kernel}Scalar")
    par8 = median.get(f"BM_{kernel}Parallel/8")
    if scalar is None or par8 is None:
        print(f"{kernel:<12} {'missing':>12}")
        continue
    print(f"{kernel:<12} {scalar:>10.0f}ns {par8:>10.0f}ns "
          f"{scalar / par8:>8.2f}x")

# Operator fusion: same chain unfused vs fused, at DoP 1 and 8.
print()
print(f"{'pipeline':<12} {'unfused':>12} {'fused':>12} {'speedup':>9}")
for dop in (1, 8):
    unfused = median.get(f"BM_PipelineUnfused/{dop}")
    fused = median.get(f"BM_PipelineFused/{dop}")
    if unfused is None or fused is None:
        print(f"{'dop ' + str(dop):<12} {'missing':>12}")
        continue
    print(f"{'dop ' + str(dop):<12} {unfused:>10.0f}ns {fused:>10.0f}ns "
          f"{unfused / fused:>8.2f}x")
EOF

echo
echo "wrote ${out}"
