#!/usr/bin/env sh
# Hermetic CI gate: everything runs offline against the lockfile (which
# contains only workspace crates — see DESIGN.md §6).
set -eu
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace --examples
# --no-fail-fast: a red package must not hide the ones after it.
cargo test -q --offline --workspace --no-fail-fast
cargo fmt --check

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

# Regenerate every artifact (tables, canonical responses, profiles,
# load tests) in one run, then hold it against the committed baseline:
# every exact field (phase counters, table cells, response bytes, error
# counts, seeded elasticity counters) must match bit for bit, on any
# host. How fast anything ran is benchmark/'s question (above), not
# this gate's.
ART_DIR=$(mktemp -d)
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$ART_DIR" "$SMOKE_DIR"' EXIT
HEC_THREADS=2 ./target/release/repro all "$ART_DIR"
./target/release/repro diff baseline "$ART_DIR"

# Smoke the serve subsystem end to end: ephemeral port, short open-loop
# load at a fixed seeded rate (coordinated-omission-free latency), zero
# error responses required, then a graceful stop (drains in-flight
# requests before the process exits). The reactor's connection gauge
# must read zero once the load generator's keep-alive connections have
# drained.
SERVE_LOG=$(mktemp)
HEC_THREADS=2 ./target/release/repro serve > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
    SERVE_URL=$(sed -n 's/^listening on /http:\/\//p' "$SERVE_LOG")
    [ -n "$SERVE_URL" ] && break
    sleep 1
done
[ -n "$SERVE_URL" ] || { echo "ci: serve did not come up"; cat "$SERVE_LOG"; exit 1; }
# loadgen itself exits nonzero on any error response (after retries).
( cd "$SMOKE_DIR" && HEC_THREADS=2 "$OLDPWD/target/release/repro" loadgen "$SERVE_URL" 2 4 --rate=400 )
grep -q '"connections_open_after_drain": 0' "$SMOKE_DIR/BENCH_serve.json" \
    || { echo "ci: serve connections did not drain to zero"; exit 1; }
./target/release/repro stop "$SERVE_URL"
wait "$SERVE_PID"
grep -q "drained and stopped" "$SERVE_LOG" || { echo "ci: serve did not stop gracefully"; exit 1; }
rm -f "$SERVE_LOG"

# Smoke the cluster tier end to end: 3 replicas behind the router, load
# through the one frontend URL, kill a replica mid-run, and require zero
# error responses anyway (replication + failover must absorb the kill),
# then a graceful stop of router and replicas together.
CLUSTER_LOG=$(mktemp)
HEC_THREADS=2 ./target/release/repro cluster 3 > "$CLUSTER_LOG" 2>&1 &
CLUSTER_PID=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
    CLUSTER_URL=$(sed -n 's/^listening on /http:\/\//p' "$CLUSTER_LOG")
    [ -n "$CLUSTER_URL" ] && break
    sleep 1
done
[ -n "$CLUSTER_URL" ] || { echo "ci: cluster did not come up"; cat "$CLUSTER_LOG"; exit 1; }
( sleep 1; ./target/release/repro kill "$CLUSTER_URL" 0 ) &
KILL_PID=$!
( cd "$SMOKE_DIR" && HEC_THREADS=2 "$OLDPWD/target/release/repro" loadgen "$CLUSTER_URL" 3 4 --rate=400 )
grep -q '"connections_open_after_drain": 0' "$SMOKE_DIR/BENCH_cluster.json" \
    || { echo "ci: cluster connections did not drain to zero"; exit 1; }
wait "$KILL_PID"
./target/release/repro stop "$CLUSTER_URL"
wait "$CLUSTER_PID"
grep -q "drained and stopped" "$CLUSTER_LOG" || { echo "ci: cluster did not stop gracefully"; exit 1; }
rm -f "$CLUSTER_LOG"

# Smoke cluster elasticity end to end: a 2-replica cluster scales up to
# 3 and drains one member back out while the open-loop load runs, and
# still every admitted request must succeed (bounded rebalancing plus
# cache handoff must make the churn invisible to clients). The BENCH
# artifact must record the membership events it lived through.
ELASTIC_DIR=$(mktemp -d)
ELASTIC_LOG=$(mktemp)
trap 'rm -rf "$ART_DIR" "$SMOKE_DIR" "$ELASTIC_DIR"' EXIT
HEC_THREADS=2 ./target/release/repro cluster 2 > "$ELASTIC_LOG" 2>&1 &
ELASTIC_PID=$!
for _ in 1 2 3 4 5 6 7 8 9 10; do
    ELASTIC_URL=$(sed -n 's/^listening on /http:\/\//p' "$ELASTIC_LOG")
    [ -n "$ELASTIC_URL" ] && break
    sleep 1
done
[ -n "$ELASTIC_URL" ] || { echo "ci: elastic cluster did not come up"; cat "$ELASTIC_LOG"; exit 1; }
( sleep 1; ./target/release/repro scale "$ELASTIC_URL" up; \
  sleep 1; ./target/release/repro scale "$ELASTIC_URL" down ) &
SCALE_PID=$!
( cd "$ELASTIC_DIR" && HEC_THREADS=2 "$OLDPWD/target/release/repro" loadgen "$ELASTIC_URL" 3 4 --rate=400 )
grep -q '"errors": 0' "$ELASTIC_DIR/BENCH_cluster.json" \
    || { echo "ci: elasticity churn produced error responses"; exit 1; }
grep -q '"membership_events"' "$ELASTIC_DIR/BENCH_cluster.json" \
    || { echo "ci: elasticity smoke recorded no membership events"; exit 1; }
wait "$SCALE_PID"
./target/release/repro stop "$ELASTIC_URL"
wait "$ELASTIC_PID"
grep -q "drained and stopped" "$ELASTIC_LOG" || { echo "ci: elastic cluster did not stop gracefully"; exit 1; }
rm -f "$ELASTIC_LOG"

echo "ci: ok"
