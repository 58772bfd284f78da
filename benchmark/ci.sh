#!/usr/bin/env bash
# benchmark/ci.sh --smoke : a <= 30 s check that the benchmark still runs.
#
# One short run per workload (about one second of measurement each); checks
# that every run exits 0, prints the result line last, reports exactly the
# end-to-end names and units /BENCHMARK.json lists, and failed nothing. It
# applies no bounds: two-second runs say nothing about speed. Meant for a
# later CI issue to call; scripts/ci.sh does not call it yet.
set -euo pipefail

if [[ "${1:-}" != "--smoke" ]]; then
  echo "usage: benchmark/ci.sh --smoke" >&2
  exit 2
fi

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-$here/target}/release/hec-benchmark"

for workload in apps_solve serve_hit serve_miss cluster_mix; do
  "$bin" run --workload "$workload" --seed 36 --seconds 2 --trace 0 | tail -n 1 |
    python3 -c '
import json, sys
workload = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
line = json.loads(sys.stdin.read())
assert sorted(line) == ["attempted", "correct", "failed", "metrics"], sorted(line)
want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
got = {name: m["unit"] for name, m in line["metrics"].items()}
assert got == want, f"{workload}: names/units differ: {set(got) ^ set(want)}"
assert all(m["value"] > 0 for m in line["metrics"].values()), f"{workload}: a metric is not positive"
assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, f"{workload}: {line}"
n = line["attempted"]
print(f"smoke ok: {workload}: {n} operations, fail_frac 0")
' "$workload"
done
