#!/usr/bin/env sh
# Hermetic CI gate: everything runs offline against the lockfile (which
# contains only workspace crates — see DESIGN.md §6).
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace --examples
# --no-fail-fast: a red package must not hide the ones after it.
cargo test -q --offline --workspace --no-fail-fast
cargo fmt --check

# scripts/pair.sh is run by hand (it takes minutes per pair); here it only
# has to parse, and to refuse a bad argument with exit 2 before it builds.
bash -n scripts/pair.sh
status=0
bash scripts/pair.sh HEAD no_such_workload 2> /dev/null || status=$?
[ "$status" -eq 2 ] || { echo "ci: pair.sh took a bad workload (exit $status)"; exit 1; }

# Soak the four targets whose probe captures other tests in the same
# process used to pollute (DESIGN.md §3, rule 3): a capture is scoped to
# its own call tree at any test-thread count, every time. The cluster
# targets ride along: kill, restart, drain and the health checker race
# on one member record (DESIGN.md §9), and such a race has only ever
# shown under full-suite parallelism.
for threads in 1 2 4; do
    for target in "-p hec-core --lib" "-p fvcam --lib" "-p paratec --lib" \
                  "-p hec-suite --test cross_crate_properties" \
                  "-p hec-cluster --lib" "-p hec-suite --test cluster_e2e" \
                  "-p hec-suite --test cluster_elasticity"; do
        for _ in 1 2 3 4 5; do
            # shellcheck disable=SC2086  # $target is a word list on purpose
            RUST_TEST_THREADS=$threads cargo test -q --offline $target > /dev/null
        done
    done
done

# benchmark/ is a workspace of its own that path-depends on crates/*, so
# nothing above notices when a crate API change stops it compiling. Build
# and run its tests, then one short run of each workload.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
benchmark/ci.sh --smoke

# Regenerate every artifact (tables, canonical responses, profiles) in
# one run, then hold it against the committed baseline: every exact field
# (phase counters, table cells, response bytes) must match bit for bit,
# on any host. How fast anything ran is benchmark/'s question (above),
# not this gate's.
ART_DIR=$(mktemp -d)
LOG=$(mktemp)
trap 'rm -rf "$ART_DIR" "$LOG"' EXIT
HEC_THREADS=2 ./target/release/repro all "$ART_DIR"
./target/release/repro diff baseline "$ART_DIR"

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
