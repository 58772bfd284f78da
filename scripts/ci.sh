#!/usr/bin/env sh
# Hermetic CI gate: everything runs offline against the lockfile (which
# contains only workspace crates — see DESIGN.md §6).
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace --examples
# The packages tier-1's `cargo test -q` runs too (the root
# `default-members`); --no-fail-fast is what this pass adds: a red
# package must not hide the ones after it.
cargo test -q --offline --workspace --no-fail-fast
# .cargo/config.toml builds for target-cpu=native and claims that changes
# no bits. The kernels' pinned FFT outputs and GTC's golden state bits
# hold that claim: run them once more for the portable target, in a
# target dir of their own so the native build above is not thrown away.
RUSTFLAGS='' CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/portable" \
    cargo test -q --offline -p kernels -p gtc --lib
cargo fmt --check
# Warnings are errors on every target: a private helper or an import that
# a deletion orphans fails here instead of lingering. A target dir of its
# own, since RUSTFLAGS would otherwise invalidate the builds above.
RUSTFLAGS='-D warnings' CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}/warnings" \
    cargo check --offline --workspace --all-targets
# A doc link to a private, ambiguous or deleted item fails here instead
# of rotting.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

# scripts/pair.sh is run by hand (it takes minutes per pair); here it only
# has to parse, and to refuse a bad argument with exit 2 before it builds.
bash -n scripts/pair.sh
status=0
bash scripts/pair.sh HEAD no_such_workload 2> /dev/null || status=$?
[ "$status" -eq 2 ] || { echo "ci: pair.sh took a bad workload (exit $status)"; exit 1; }

# Soak the four targets whose probe captures other tests in the same
# process used to pollute (DESIGN.md §3, rule 3): a capture is scoped to
# its own call tree at any test-thread count, every time. The cluster
# targets ride along: kill, restart and drain race on one member's
# lifecycle lock (DESIGN.md §9), and such a race has only ever shown
# under full-suite parallelism. So do the serve targets: they drive the
# reactor's per-connection state machine, deadlines and upstream
# exchanges (DESIGN.md §11), and their queue-full and deadline tests
# depend on timing.
for threads in 1 2 4; do
    for target in "-p hec-core --lib" "-p fvcam --lib" "-p paratec --lib" \
                  "-p hec-suite --test cross_crate_properties" \
                  "-p hec-cluster --lib" "-p hec-suite --test cluster_e2e" \
                  "-p hec-suite --test cluster_elasticity" "-p hec-serve --lib" \
                  "-p hec-suite --test serve_e2e" "-p hec-suite --test serve_protocol"; do
        for _ in 1 2 3 4 5; do
            # shellcheck disable=SC2086  # $target is a word list on purpose
            RUST_TEST_THREADS=$threads cargo test -q --offline $target > /dev/null
        done
    done
done

# benchmark/ is a workspace of its own that path-depends on crates/*, so
# nothing above notices when a crate API change stops it compiling. Build
# and run its tests, then one short run of each workload, checked the way
# `benchmark/ci.sh --smoke` checks its runs: the end-to-end names and
# units BENCHMARK.json lists, every value positive, nothing failed.
# The runs are 10 s, not that smoke's 2 s. cpu_us_per_req is read per
# reference segment from /proc/<pid>/stat, in 10 ms ticks, and a 2 s
# serve_miss segment (~360 requests) costs the server less than one tick,
# so it reads 0. A 10 s segment (~1 800 requests) costs ~30 ms, and
# since user and system time each truncate to whole ticks, a span of more
# than two ticks never reads 0. Back to `benchmark/ci.sh --smoke` once
# the benchmark reads CPU time finer than a tick (ROADMAP, rulers (j)).
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
for workload in apps_solve serve_hit serve_miss cluster_mix; do
    "${CARGO_TARGET_DIR:-benchmark/target}/release/hec-benchmark" run \
        --workload "$workload" --seed 36 --seconds 10 --trace 0 | tail -n 1 |
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
print(f"bench smoke ok: {workload}: {n} operations, fail_frac 0")
' "$workload"
done

# Regenerate every artifact (tables, canonical responses, profiles) at
# 1, 2 and 4 workers, and hold each run against the committed baseline:
# every exact field (phase counters, table cells, response bytes) must
# match bit for bit, on any host and at any worker count. How fast
# anything ran is benchmark/'s question (above), not this gate's.
ART_DIR=$(mktemp -d)
LOG=$(mktemp)
trap 'rm -rf "$ART_DIR" "$LOG"' EXIT
for threads in 1 2 4; do
    HEC_THREADS=$threads ./target/release/repro all "$ART_DIR/$threads"
    ./target/release/repro diff baseline "$ART_DIR/$threads"
done

# What only a process can show: the CLI wiring and the log lines. Start
# each server, read its bound address off the `listening on` line, drive
# the admin surface through `repro post`, stop it, and require a graceful
# exit. What the servers answer under load, kills and churn is the
# in-process tests' job (tests/serve_*.rs, tests/cluster_*.rs, above).
for server in "serve" "cluster 2"; do
    # shellcheck disable=SC2086  # $server is a word list on purpose
    HEC_THREADS=2 ./target/release/repro $server > "$LOG" 2>&1 &
    PID=$!
    URL=
    for _ in 1 2 3 4 5 6 7 8 9 10; do
        URL=$(sed -n 's/^listening on /http:\/\//p' "$LOG")
        [ -n "$URL" ] && break
        sleep 1
    done
    [ -n "$URL" ] || { echo "ci: repro $server did not come up"; cat "$LOG"; exit 1; }
    if [ "$server" != serve ]; then
        ./target/release/repro post "$URL" /admin/scale-up
        ./target/release/repro post "$URL" '/admin/kill?replica=0'
    fi
    ./target/release/repro post "$URL" /shutdown
    wait "$PID"
    grep -q "drained and stopped" "$LOG" \
        || { echo "ci: repro $server did not stop gracefully"; cat "$LOG"; exit 1; }
done

echo "ci: ok"
