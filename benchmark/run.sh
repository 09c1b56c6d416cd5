#!/usr/bin/env bash
# The one command. With `--workload <name>` (the form BENCHMARK.json's
# `command` is run in) it measures that workload; with `compare A B` it
# compares two result files; with neither it measures all five
# workloads, one process each so `peak_rss_mb` is per workload.
set -euo pipefail
manifest="$(dirname "$0")/Cargo.toml"
bench() {
    cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
}
case " $* " in
    *" --workload "* | " compare "*) bench "$@" ;;
    *)
        for w in paper_bulk fabric16 fabric16_w2 short_incast chaos_soak; do
            bench --workload "$w" "$@"
        done
        ;;
esac
