#!/usr/bin/env bash
# The alternating-pair protocol every perf PR needs (choosing-metrics §8),
# as one command instead of a hand-rolled loop.
#
# Usage: scripts/pairs.sh PARENT_REF WORKLOAD [PAIRS=10] [SECONDS=18] [SEED]
#
# Builds `benchmark/` of PARENT_REF and of the anchor tree 73be467 (each
# once, from a `git archive` of it, under target/pairs/ — nothing is
# checked out, no git state is left behind) and of the working tree, then
# runs PAIRS pairs of
#   <bin> --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0 --out …
# with the anchor as a fixed third arm in every pair, cycling the three
# arms through all six orders, and reads every run's `--out` line.
# Prints, per end-to-end metric, each arm's median [q1, q3], the ratios
# change / parent and change / anchor, and how many pairs the change won
# against the parent; the min-of-passes row is each run's least-disturbed
# pass, steadier than the median on a box whose speed steps. Appends one
# line to the tracked BENCH_wall.jsonl (ROADMAP 4b): host, cores, seed,
# the commits, every arm's quartiles. The anchor, the same tree in every
# batch, makes change / anchor comparable across batches whose levels
# drift. A run that is not `"correct": true` aborts the script.
#
# SEED defaults to a fresh random one — the claim must hold at a seed not
# used while the change was written — and is printed and recorded.
# `benchmark/` itself is not touched.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 2 ]]; then
    sed -n '2,25p' "$0" | sed 's/^# \{0,1\}//'
    exit 2
fi
parent_ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-18}
seed=${5:-$((RANDOM % 9000 + 1000))}

parent=$(git rev-parse --short=12 "${parent_ref}^{commit}")
anchor=$(git rev-parse --short=12 "73be467^{commit}")
change=$(git rev-parse --short=12 HEAD)
git diff --quiet HEAD -- . ':!BENCH_wall.jsonl' || change+="+dirty"

dir=target/pairs
mkdir -p "$dir"
build_tree() { # commit
    [[ -x $dir/bench-$1 ]] && return
    echo "==> building benchmark/ of $1"
    rm -rf "$dir/src-$1"
    mkdir -p "$dir/src-$1"
    git archive "$1" | tar -x -C "$dir/src-$1"
    cargo build --release --offline --quiet --manifest-path "$dir/src-$1/benchmark/Cargo.toml"
    cp "$dir/src-$1/benchmark/target/release/tdtcp-benchmark" "$dir/bench-$1"
}
build_tree "$parent"
build_tree "$anchor"
echo "==> building benchmark/ of the working tree ($change)"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
cp benchmark/target/release/tdtcp-benchmark "$dir/bench-change"

out=$(mktemp -d "$dir/run-XXXXXX")
declare -A bin=([parent]="$dir/bench-$parent" [change]="$dir/bench-change" [anchor]="$dir/bench-$anchor")
run_side() { # side
    "${bin[$1]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        --out "$out/$1.jsonl" >/dev/null
}
# Every order of the three arms, so each goes first, second and last
# equally often and the parent precedes the change in half the pairs.
orders=("parent change anchor" "change anchor parent" "anchor parent change"
    "change parent anchor" "parent anchor change" "anchor change parent")
echo "==> $pairs pairs of $workload (+ anchor $anchor), seed $seed, --seconds $seconds, $(nproc) cores"
for ((i = 1; i <= pairs; i++)); do
    for side in ${orders[(i - 1) % 6]}; do
        run_side "$side"
    done
    echo "    pair $i/$pairs done"
done

# One value per run, in run order: a named metric, or the fastest pass.
metric() { grep -o "\"$2\": {\"value\": [^,]*" "$out/$1.jsonl" | awk '{print $NF}'; }
min_pass_ms() {
    grep -o '"pass_wall_ns": \[[^]]*' "$out/$1.jsonl" | sed 's/.*\[//' |
        awk -F', ' '{m = $1; for (i = 2; i <= NF; i++) if ($i < m) m = $i; print m / 1e6}'
}

# stdin: "parent change anchor" per pair. Prints the table row and
# appends the metric's JSON to $out/metrics.json.
summarise() { # name better(lower|higher)
    awk -v name="$1" -v better="$2" -v json="$out/metrics.json" '
        function quart(a, n, p,    h, lo) {
            h = (n - 1) * p; lo = int(h)
            return a[lo + 1] + (h - lo) * (a[(lo + 2 > n ? n : lo + 2)] - a[lo + 1])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++) {
                t = dst[i]
                for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]
                dst[j + 1] = t
            }
        }
        {
            n++; p[n] = $1; c[n] = $2; a[n] = $3
            if ($1 == $2) ties++
            else if ((better == "lower") == ($2 < $1)) wins++
        }
        END {
            sorted(p, ps, n); sorted(c, cs, n); sorted(a, an, n)
            pq1 = quart(ps, n, 0.25); pm = quart(ps, n, 0.5); pq3 = quart(ps, n, 0.75)
            cq1 = quart(cs, n, 0.25); cm = quart(cs, n, 0.5); cq3 = quart(cs, n, 0.75)
            aq1 = quart(an, n, 0.25); am = quart(an, n, 0.5); aq3 = quart(an, n, 0.75)
            printf "%-26s %12.5g [%.5g, %.5g] %12.5g [%.5g, %.5g] %12.5g [%.5g, %.5g]  %6.3f %6.3f  %d/%d%s\n", name,
                pm, pq1, pq3, cm, cq1, cq3, am, aq1, aq3, (pm ? cm / pm : 1), (am ? cm / am : 1),
                wins, n, (ties ? " (" ties " ties)" : "")
            printf "\"%s\": {\"parent\": [%.6g, %.6g, %.6g], \"change\": [%.6g, %.6g, %.6g], \"anchor\": [%.6g, %.6g, %.6g], \"wins\": %d, \"ties\": %d}\n",
                name, pq1, pm, pq3, cq1, cm, cq3, aq1, am, aq3, wins, ties >> json
        }'
}

printf '%-26s %35s %35s %35s  %6s %6s  %s\n' metric "parent median [q1, q3]" "change median [q1, q3]" \
    "anchor median [q1, q3]" "c / p" "c / a" "pairs won"
for m in wall_ns_per_sim_ms:lower wall_ns_per_delivered_seg:lower setup_s:lower \
    peak_rss_mb:lower sim_goodput_gbps:higher min_pass_ms:lower; do
    name=${m%:*}
    if [[ $name == min_pass_ms ]]; then
        paste -d' ' <(min_pass_ms parent) <(min_pass_ms change) <(min_pass_ms anchor)
    else
        paste -d' ' <(metric parent "$name") <(metric change "$name") <(metric anchor "$name")
    fi | summarise "$name" "${m#*:}"
done

printf '{"workload": "%s", "parent": "%s", "change": "%s", "anchor": "%s", "host": "%s", "cores": %d, "seed": %d, "seconds": %s, "pairs": %d, "metrics": {%s}}\n' \
    "$workload" "$parent" "$change" "$anchor" "$(hostname)" "$(nproc)" "$seed" "$seconds" "$pairs" \
    "$(paste -sd, "$out/metrics.json" | sed 's/,"/, "/g')" \
    >>BENCH_wall.jsonl
echo "==> appended to BENCH_wall.jsonl; raw runs in $out/"
