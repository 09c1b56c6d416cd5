#!/usr/bin/env bash
# Local CI gate. Everything here runs fully offline: the workspace has
# zero registry dependencies by design (see DESIGN.md), so an empty
# cargo registry — or no network at all — must never break the build.
#
# Usage: scripts/ci.sh [soak|lint]
#   Any other argument prints this usage line and exits 2 before
#   anything is built.
#   (none) — the default gate: release build, the tests of every
#           member (the root `default-members`: unit tests, property
#           suites and the root suites), the window-barrier panic and
#           worker-invariance tests, the queue oracle (the timer wheel
#           against the `BTreeMap` reference queue), the scoreboard oracle, the allocation ledger, the
#           laws and the pinned digests (determinism, the whole
#           multirack suite with its barrier stress, the fabric,
#           slot-edge and two-door pins, the live set) again in release,
#           chaos
#           soak, figures smoke, `figures all --jobs 1` diffed
#           bit-for-bit against the
#           checked-in figures_output.txt (every deterministic row,
#           the tails table included), every example under a
#           wall-clock timeout, the benchmark package (built --offline
#           --locked against its own Cargo.lock, its unit tests, one
#           pass of each of its five workloads, all of which must
#           report "correct": true), the doc-link check
#           (`cargo doc` with -D warnings: every intra-doc link resolves
#           and no public doc links a private item), and clippy
#           -D warnings in the debug and the release profile, which
#           carries the static rules (DESIGN.md §10):
#           the workspace lint table in Cargo.toml (unsafe_code denied,
#           every suppression an #[expect] with a reason) and
#           clippy.toml's disallowed types and methods (HashMap/HashSet,
#           wall-clock reads, read_dir). tests/static_rules.rs (layering,
#           no registry packages, stream labels, literal seeds) runs
#           with the other tests. Host time is measured by the benchmark
#           package (BENCHMARK.json, benchmark/README.md) only.
#   lint  — run only the static rules: the doc-link check, clippy
#           -D warnings over every target in both profiles, then
#           tests/static_rules.rs.
#   soak  — deepen the property-test search: every testkit `props!`
#           block runs TK_CASES cases (default 10000) instead of its
#           built-in count, and the chaos soak runs 5000 scenarios.
#           Override with TK_CASES=N scripts/ci.sh soak.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
case "$MODE" in
    ""|soak|lint) ;;
    *)
        echo "usage: scripts/ci.sh [soak|lint]" >&2
        exit 2
        ;;
esac
CHAOS_CASES=200

if [[ "$MODE" == "soak" ]]; then
    export TK_CASES="${TK_CASES:-10000}"
    CHAOS_CASES="${TK_CASES_CHAOS:-5000}"
    echo "==> soak mode: TK_CASES=${TK_CASES}, chaos at ${CHAOS_CASES}"
fi

echo "==> cargo build --release --offline"
cargo build --release --offline

# A renamed or deleted item leaves the doc links that name it dangling,
# and nothing else notices: rustdoc with warnings denied fails on them.
doc_links() {
    echo "==> doc links: cargo doc -D warnings"
    RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --offline --workspace
}

# Code under `cfg(debug_assertions)` drops out of a release build only,
# so an item that only debug-only code uses warns there and nowhere
# else: lint both profiles. The release pass costs about 5 s from an
# empty target directory on a 2-CPU box, and well under a second when
# nothing changed.
clippy() {
    echo "==> cargo clippy -D warnings, debug and release (the static rules, DESIGN.md §10)"
    cargo clippy --offline --all-targets -- -D warnings
    cargo clippy --offline --release --all-targets -- -D warnings
}

if [[ "$MODE" == "lint" ]]; then
    echo "==> static rules: doc links, cargo clippy -D warnings, tests/static_rules.rs"
    doc_links
    clippy
    cargo test -q --offline --test static_rules
    echo "LINT OK"
    exit 0
fi

echo "==> cargo test -q --offline"
cargo test -q --offline

# The window barrier's spin/park hand-off is timing-sensitive and an
# unoptimised build hides races an optimised one shows: run its panic
# tests and the two worker-invariance runs again in release. Those two
# are the two-rack week with every feature on and the rotor with every
# chaos plane armed, each at 1, 2 and 4 workers; both serve the one
# train rule. The empty-window stress runs with the multirack suite
# below.
echo "==> window barrier, release build: panic propagation, worker invariance"
cargo test -q --offline --release -p simcore par::tests::run_windows
cargo test -q --offline --release -p rdcn --lib two_rack_week_with_every_feature_is_worker_invariant
cargo test -q --offline --release -p rdcn --lib chaos_run_is_worker_invariant

# The wheel's debug assertions are compiled out of the build every figure
# and the benchmark run on, and an optimised build inlines across the
# allocator boundary the ledger counts at: hold both to their oracles
# there too. The same holds for the SACK scoreboard's bit walks, the
# series store's word packing and the inert-flow law, which rest on the
# same kind of inlined index math. `--test laws` also holds the wire law
# (every segment of nine runs through `to_wire` / `from_wire`) and its
# never-panic parser property to the optimised codecs.
echo "==> queue, scoreboard and series oracles, allocation ledger, the laws (inert flow, observer, wire), release build"
cargo test -q --offline --release --test queue_oracle
cargo test -q --offline --release --test scoreboard_oracle
cargo test -q --offline --release --test series_oracle
cargo test -q --offline --release --test alloc_ledger
cargo test -q --offline --release --test laws

# The segment ledger and the running totals' full-scan check run only in
# debug builds, while figures and the benchmark run in release: hold the
# pinned digests in the release build too, so a digest that depends on
# the build profile fails here. They are every variant and every armed
# chaos plane (determinism); the 16-rack fabric at 1–32 workers, the
# two slot-edge policies on the armed rotor, the two doors at one digest
# and the 10k-empty-window barrier stress (the whole multirack suite);
# and the whole live-set suite: its pinned `short_incast` digests and
# the edges of the live-host rule that the optimised build must keep
# too — late starts, closed hosts hearing no notification or prepare
# signal, and finished flows retiring at a window barrier.
echo "==> pinned digests, release build: determinism, multirack, live set"
cargo test -q --offline --release --test determinism
cargo test -q --offline --release --test multirack
cargo test -q --offline --release --test liveset

echo "==> chaos soak: ${CHAOS_CASES} randomized scenarios"
TK_CASES="$CHAOS_CASES" cargo test -q --offline --test chaos chaos_soak

echo "==> figures quick smoke (parallel harness end to end)"
cargo run -q --offline --release -p bench --bin figures -- quick > /dev/null

# figures_output.txt is `figures all --jobs 1` stdout, checked in: every
# number in it is deterministic simulation output, so an unchanged tree
# reproduces it byte for byte and a change that claims to be
# digest-neutral is held to that here. After a deliberate behaviour
# change, regenerate it with the command below and say which rows moved.
echo "==> figures all --jobs 1 vs checked-in figures_output.txt (bit-for-bit)"
figures_out="$(mktemp)"
cargo run -q --offline --release -p bench --bin figures -- all --jobs 1 > "$figures_out"
if ! cmp -s figures_output.txt "$figures_out"; then
    echo "figures all --jobs 1 no longer reproduces figures_output.txt; first differing lines:"
    diff figures_output.txt "$figures_out" | head -20 || true
    exit 1
fi

# The examples are the user-facing entry points, and the only callers of
# some configurations (a paced single-path sender once livelocked the
# engine and nothing noticed): run each to completion under a wall-clock
# timeout — all four finish in seconds.
echo "==> examples (each under a 120 s timeout)"
for ex in examples/*.rs; do
    name="$(basename "$ex" .rs)"
    if ! timeout 120 cargo run -q --offline --release --example "$name" > /dev/null; then
        echo "example $name failed or ran past 120 s"
        exit 1
    fi
done

# The benchmark (BENCHMARK.json, benchmark/README.md) is a package of its
# own that times the crates' `pub` surface from outside, so nothing in
# the workspace build or tests notices when that surface changes under
# it. Build it, run its unit tests, and run each workload once: every
# run cross-checks its output and reports `"correct": true` or not.
# `--locked`: the package keeps its own Cargo.lock, which names the
# workspace crates it builds. A workspace change that would make cargo
# rewrite that lock (a crate added, renamed or re-wired) fails here
# instead of silently editing the benchmark's files.
echo "==> benchmark: offline locked build, unit tests, one pass of each workload"
cargo build -q --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml
smoke="$(bash benchmark/run.sh --passes 1 --trace 0 | grep '^{"correct"')"
if [[ "$(grep -c '^{"correct": true' <<< "$smoke")" -ne 5 ]]; then
    echo "$smoke" | cut -c1-120
    echo "benchmark smoke: not all five workloads reported \"correct\": true"
    exit 1
fi

doc_links
clippy

echo "CI OK"
