#!/usr/bin/env bash
# scripts/pair.sh <rev> <workload> [pairs=10] [seed=36]
#
# Alternating parent/change pairs of one benchmark workload: <rev> (the
# parent) against this checkout's working tree (the change), both built
# from source with the same settings, each into its own CARGO_TARGET_DIR,
# at the run length /BENCHMARK.json fixes. Pair i runs the parent first when
# i is odd and the change first when it is even.
#
# Prints every run's result line as it finishes, then per end-to-end metric
# both medians and quartiles, the change's wins, and a verdict by the rule of
# choosing-metrics §8:
#   improved    the change wins >= 9/10 of the pairs (ties count for neither)
#               and its median beats the parent's by more than the parent's
#               interquartile distance;
#   worse       the change's median is worse than the parent's by more than
#               the metric's bound;
#   unresolved  either side's interquartile distance exceeds the bound, and
#               not every change run beats every parent run;
#   no worse    otherwise.
#
# The parent is exported with `git archive` rather than checked out as a
# `git worktree`: an archive registers nothing in .git, so an interrupted run
# leaves only its temporary directory, which the exit trap removes. Set
# TMPDIR to put that directory (and both builds) elsewhere.
set -euo pipefail

usage() {
    echo "usage: scripts/pair.sh <rev> <apps_solve|serve_hit|serve_miss|cluster_mix> [pairs=10] [seed=36]" >&2
    exit 2
}

[[ $# -ge 2 && $# -le 4 ]] || usage
rev=$1
workload=$2
pairs=${3:-10}
seed=${4:-36}
case $workload in apps_solve | serve_hit | serve_miss | cluster_mix) ;; *) usage ;; esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seed =~ ^[0-9]+$ ]] || usage

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
commit=$(git -C "$root" rev-parse --verify --quiet "$rev^{commit}") || usage
seconds=$(awk -F'[:,]' '/"run_seconds"/ { gsub(/ /, "", $2); print $2 }' "$root/BENCHMARK.json")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM
mkdir "$work/parent"
git -C "$root" archive "$commit" | tar -x -C "$work/parent"

# cargo reads .cargo/config.toml (target-cpu=native) from the directory it
# runs in, so each side builds and runs from its own checkout root.
declare -A src=([parent]="$work/parent" [change]="$root")
for side in parent change; do
    echo "pair.sh: building $side" >&2
    (cd "${src[$side]}" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

echo "# scripts/pair.sh $rev $workload $pairs $seed: parent $commit vs the working tree of $(git -C "$root" rev-parse HEAD), ${seconds} s runs"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        status=0
        line=$(cd "${src[$side]}" && "$work/target-$side/release/hec-benchmark" run \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1) || status=$?
        echo "$i $side exit=$status $line" | tee -a "$work/runs.txt"
    done
done

# runs.txt: "<pair> <side> exit=<status> <result line>". Metric directions
# and bounds come from /BENCHMARK.json's end_to_end entries.
awk '
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function q(a, n, p,    h, k) {  # linear interpolation between order statistics
    h = (n - 1) * p + 1; k = int(h)
    return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
}
function abs(x) { return x < 0 ? -x : x }
function f(x) { return sprintf(abs(x) >= 1000 ? "%.0f" : "%.4g", x) }
FNR == NR {
    if ($0 ~ /"name":/) { name = $0; sub(/.*"name": *"/, "", name); sub(/".*/, "", name) }
    if ($0 ~ /"better":/) { b = $0; sub(/.*"better": *"/, "", b); sub(/".*/, "", b); better[name] = b }
    if ($0 ~ /"bound":/) { b = $0; sub(/.*"bound": */, "", b); bound[name] = b + 0 }
    next
}
{
    pair = $1; side = $2
    runs[side]++
    if ($3 != "exit=0" || $0 !~ /"correct": true/ || $0 !~ /"failed": 0,/) bad[side]++
    rest = $0
    while (match(rest, /"[a-z0-9_]+": \{"value": [-+0-9.eE]+/)) {
        s = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        m = s; sub(/^"/, "", m); sub(/".*/, "", m)
        v = s; sub(/.*"value": /, "", v)
        val[m, side, pair] = v + 0
        if (!(m in seen)) { seen[m] = 1; order[++nm] = m }
    }
    if (pair > np) np = pair
}
END {
    printf "%-16s %-30s %-30s %7s %6s  %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict"
    for (k = 1; k <= nm; k++) {
        m = order[k]; lower = better[m] != "higher"; bnd = (m in bound) ? bound[m] : 0.25
        n = 0; wins = 0
        for (i = 1; i <= np; i++) {
            if (!((m, "parent", i) in val) || !((m, "change", i) in val)) continue
            pv = val[m, "parent", i]; cv = val[m, "change", i]
            P[++n] = pv; C[n] = cv
            if ((lower && cv < pv) || (!lower && cv > pv)) wins++
        }
        if (n == 0) continue
        # every change run better than every parent run?
        sort(P, n); sort(C, n)
        apart = lower ? C[n] < P[1] : C[1] > P[n]
        pm = q(P, n, 0.5); cm = q(C, n, 0.5)
        piqr = q(P, n, 0.75) - q(P, n, 0.25); ciqr = q(C, n, 0.75) - q(C, n, 0.25)
        gain = lower ? pm - cm : cm - pm   # > 0 when the change is better
        if (wins * 10 >= 9 * n && gain > piqr) verdict = "improved"
        else if (-gain > bnd * abs(pm)) verdict = "worse"
        else if ((piqr > bnd * abs(pm) || ciqr > bnd * abs(pm)) && !apart) verdict = "unresolved"
        else verdict = "no worse"
        printf "%-16s %-30s %-30s %+6.1f%% %3d/%-2d  %s\n", m,
            f(pm) " [" f(q(P, n, 0.25)) ", " f(q(P, n, 0.75)) "]",
            f(cm) " [" f(q(C, n, 0.25)) ", " f(q(C, n, 0.75)) "]",
            pm != 0 ? 100 * (cm - pm) / abs(pm) : 0, wins, n, verdict
    }
    printf "runs: parent %d (%d failed or not correct), change %d (%d failed or not correct)\n", runs["parent"], bad["parent"], runs["change"], bad["change"]
}' "$root/BENCHMARK.json" "$work/runs.txt"
