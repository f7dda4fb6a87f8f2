#!/usr/bin/env bash
# Local run of CI's bench-smoke gate.
#
# A native build on an AVX-512 host emits no avx2 records (the avx2 kernels
# are not the widest ISA there), so comparing its smoke JSON against
# bench/baseline.json reports every avx2 record as MISSING. This script
# reproduces the CI flavour instead: it configures an x86-64-v3 (AVX2) build
# into build-v3/, runs the bench-smoke job's exact command list from
# .github/workflows/ci.yml, merges the JSON files in the same order and
# calls bench/compare_baseline.py at CI's --tolerance 0.6.
#
# Usage: tools/bench_gate_local.sh [build-dir]    (default: build-v3)
# Exit status is compare_baseline.py's (0 = gate passed), or the first
# failing bench's.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${1:-build-v3}"
cd "$root"

cmake -B "$build" -S . -DTSV_MARCH=x86-64-v3 -DCMAKE_BUILD_TYPE=Release \
  -DTSV_BUILD_TESTS=OFF
cmake --build "$build" -j "$(nproc)" --target fig7_blockfree table4_speedup \
  fig9_scaling fig10_throughput fig12_latency fig13_robustness \
  fig14_generic fig15_warmstart

out="$build/bench-smoke"
mkdir -p "$out"
b="$build"
# Keep in step with the "Run bench smoke" step of the bench-smoke job.
"$b/fig7_blockfree" --smoke --dtype both --json "$out/fig7-smoke.json"
"$b/table4_speedup" --smoke --dtype both --json "$out/table4-smoke.json"
"$b/fig9_scaling" --smoke --json "$out/fig9-smoke.json"
"$b/fig10_throughput" --smoke --json "$out/fig10-smoke.json" --min-speedup 1.5
"$b/fig12_latency" --smoke --json "$out/fig12-smoke.json"
"$b/fig13_robustness" --smoke --json "$out/fig13-smoke.json" --max-overhead 0.03
"$b/fig14_generic" --smoke --dtype both --json "$out/fig14-smoke.json"
"$b/fig15_warmstart" --smoke --json "$out/fig15-smoke.json" --min-speedup 1.0

# The "Merge bench-smoke.json" step (jq -s 'add'), without needing jq.
python3 - "$out/bench-smoke.json" "$out"/fig7-smoke.json \
  "$out"/table4-smoke.json "$out"/fig9-smoke.json "$out"/fig10-smoke.json \
  "$out"/fig12-smoke.json "$out"/fig13-smoke.json \
  "$out"/fig14-smoke.json "$out"/fig15-smoke.json <<'EOF'
import json, sys
merged = []
for path in sys.argv[2:]:
    with open(path) as f:
        merged += json.load(f)
with open(sys.argv[1], "w") as f:
    json.dump(merged, f)
print(len(merged), "records")
EOF

python3 bench/compare_baseline.py bench/baseline.json "$out/bench-smoke.json" \
  --tolerance 0.6 --report "$out/bench-compare.txt"
