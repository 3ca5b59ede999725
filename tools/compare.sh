#!/bin/sh
# Compare two commits with spinbench by the benchmark's "Comparing two
# commits" rule (benchmark/README.md): each commit's `benchmark/` is built
# once, from a fresh export of that commit, into a target directory of its
# own; then ten pairs of runs, seeds 1-10, alternate which side goes first
# (odd pairs: parent), each pair running the four workloads of
# BENCHMARK.json for its `run_seconds` with tracing off. Prints, per
# workload and end-to-end metric: median [q1-q3] of each side, the pairs
# the change wins, and the verdict — `better` needs at least 9 wins of 10
# and medians apart by more than the parent's inter-quartile spread,
# `worse` is a median past the metric's bound, `within` is the rest.
#
#   tools/compare.sh <parent-commit> <change-commit>
#
# COMPARE_DIR   scratch directory (default /tmp/spinbench-compare); the
#               exports, builds and every run's JSON line are kept there
# COMPARE_PAIRS number of pairs (default 10)
# COMPARE_SECS  seconds per run (default: run_seconds of BENCHMARK.json)
# COMPARE_TRACE=1  instead of the timed pairs, one 5 s traced pass per side
#               and workload at seed 1, printing every per-layer metric
#               counted in `count` or `bytes` whose value differs between
#               the two sides — the exact counts a change moves
set -eu
[ $# -eq 2 ] || { echo "usage: $0 <parent-commit> <change-commit>" >&2; exit 2; }
repo="$(cd "$(dirname "$0")/.." && pwd)"
dir="${COMPARE_DIR:-/tmp/spinbench-compare}"
pairs="${COMPARE_PAIRS:-10}"
secs="${COMPARE_SECS:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$repo/BENCHMARK.json")}"
workloads="pr_full sssp_delta pr_durable serve_mixed"
mkdir -p "$dir"
runs="$dir/runs.txt"
: > "$runs"

for side in parent change; do
    commit="$1"
    [ "$side" = change ] && commit="$2"
    rm -rf "$dir/$side"
    mkdir -p "$dir/$side"
    git -C "$repo" archive "$commit" | tar -x -C "$dir/$side"
    echo "building $side ($commit)" >&2
    CARGO_TARGET_DIR="$dir/$side-target" cargo build --release --offline --quiet \
        --manifest-path "$dir/$side/benchmark/Cargo.toml"
done

if [ "${COMPARE_TRACE:-0}" = 1 ]; then
    traces="$dir/traces.txt"
    : > "$traces"
    for workload in $workloads; do
        for side in parent change; do
            echo "traced $workload $side" >&2
            line="$(cd "$dir/$side" && "$dir/$side-target/release/spinbench" \
                --workload "$workload" --seed 1 --seconds 5 --trace 1 | tail -n 1)"
            echo "$side $workload $line" >> "$traces"
        done
    done
    awk '
        {
            side = $1; workload = $2; json = $0
            if (!(workload in seen)) { seen[workload] = 1; order[++nworkloads] = workload }
            if (json !~ /"correct":true/ || json !~ /"failed":0[,}]/) flawed[workload] = flawed[workload] " " side
            while (match(json, /"[a-z_.]+":\{"value":[^,]*,"unit":"(count|bytes)"\}/)) {
                metric = substr(json, RSTART + 1, RLENGTH - 1)
                json = substr(json, RSTART + RLENGTH)
                name = metric; sub(/".*/, "", name)
                value = metric; sub(/.*"value":/, "", value); sub(/,.*/, "", value)
                if (!((workload, name) in known)) { known[workload, name] = 1; names[workload, ++count[workload]] = name }
                values[side, workload, name] = value
            }
        }
        END {
            for (w = 1; w <= nworkloads; w++) {
                workload = order[w]
                printf "%s%s\n", workload, (workload in flawed) ? "  FAILED OR WRONG:" flawed[workload] : ""
                differ = 0
                for (i = 1; i <= count[workload]; i++) {
                    name = names[workload, i]
                    parent = values["parent", workload, name]; change = values["change", workload, name]
                    if (parent == change) continue
                    differ++
                    printf "  %-36s %14s -> %-14s %+.0f\n", name, parent, change, change - parent
                }
                if (!differ) print "  every count and bytes metric identical"
            }
        }' "$traces"
    exit 0
fi

pair=1
while [ "$pair" -le "$pairs" ]; do
    order="parent change"
    [ $((pair % 2)) -eq 0 ] && order="change parent"
    for workload in $workloads; do
        for side in $order; do
            echo "pair $pair seed $pair $workload $side" >&2
            line="$(cd "$dir/$side" && "$dir/$side-target/release/spinbench" \
                --workload "$workload" --seed "$pair" --seconds "$secs" --trace 0 | tail -n 1)"
            echo "$side $pair $workload $line" >> "$runs"
        done
    done
    pair=$((pair + 1))
done

awk -v bounds="$(tr -d ' \n' < "$repo/BENCHMARK.json")" '
    function metric(json, name,    at, rest) {
        at = index(json, "\"" name "\":{\"value\":")
        if (!at) return ""
        rest = substr(json, at + length(name) + 12)
        sub(/[,}].*/, "", rest)
        return rest + 0
    }
    function quantile(side, key, q,    n, i, j, t, v, pos, lo) {
        n = 0
        for (i = 1; i <= npairs; i++) if ((side, i, key) in value) v[++n] = value[side, i, key]
        for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
        pos = (n - 1) * q + 1; lo = int(pos)
        return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
    }
    BEGIN {
        nmetrics = split("setup_s query_ms_p50 query_ms_p75 point_ms_p50 point_ms_p90 stmts_per_s peak_rss_mb", metrics, " ")
        for (m = 1; m <= nmetrics; m++) {
            at = index(bounds, "\"name\":\"" metrics[m] "\"")
            rest = substr(bounds, at); sub(/}.*/, "", rest)
            higher[metrics[m]] = rest ~ /"better":"higher"/
            sub(/.*"bound":/, "", rest); bound[metrics[m]] = rest + 0
        }
    }
    {
        side = $1; pair = $2; workload = $3; json = $0
        if (!(workload in seen)) { seen[workload] = 1; order[++nworkloads] = workload }
        if (pair > npairs) npairs = pair
        if (json !~ /"correct":true/ || json !~ /"failed":0[,}]/) flawed[workload] = flawed[workload] " " side "/" pair
        for (m = 1; m <= nmetrics; m++) value[side, pair, workload SUBSEP metrics[m]] = metric(json, metrics[m])
    }
    END {
        for (w = 1; w <= nworkloads; w++) {
            printf "%s%s\n", order[w], (order[w] in flawed) ? "  FAILED OR WRONG:" flawed[order[w]] : ""
            for (m = 1; m <= nmetrics; m++) {
                name = metrics[m]; key = order[w] SUBSEP name; sign = higher[name] ? -1 : 1
                wins = 0
                for (i = 1; i <= npairs; i++) if (sign * value["change", i, key] < sign * value["parent", i, key]) wins++
                pm = quantile("parent", key, 0.5); cm = quantile("change", key, 0.5)
                spread = quantile("parent", key, 0.75) - quantile("parent", key, 0.25)
                verdict = "within"
                if (wins * 10 >= npairs * 9 && sign * (pm - cm) > spread) verdict = "better"
                else if (sign * (cm - pm) > bound[name] * pm) verdict = "WORSE"
                printf "  %-13s %10.4g [%.4g-%.4g] -> %10.4g [%.4g-%.4g]  %2d/%d  %.3fx  %s\n", name, \
                    pm, quantile("parent", key, 0.25), quantile("parent", key, 0.75), \
                    cm, quantile("change", key, 0.25), quantile("change", key, 0.75), \
                    wins, npairs, pm ? cm / pm : 0, verdict
            }
        }
    }' "$runs"
