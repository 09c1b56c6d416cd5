//! Fixture-file tests: every rule fires with the right file:line and
//! rule id, and every rule is suppressible with a reasoned
//! `detlint: allow`. The fixture sources live under `fixtures/`, which
//! the workspace scanner skips — they exist to contain violations.

use detlint::{check_rust_source, layering};

fn ids(findings: &[detlint::Finding]) -> Vec<(&'static str, u32)> {
    findings.iter().map(|f| (f.rule.id(), f.line)).collect()
}

#[test]
fn unordered_iter_fires_and_suppresses() {
    let src = include_str!("../fixtures/unordered_iter.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/lib.rs", src);
    // use-line + two on the construction line; the annotated HashSet
    // pair is suppressed; strings/comments never fire. The fixture is
    // labelled src/lib.rs, so the missing forbid(unsafe_code) is also
    // (correctly) reported.
    assert_eq!(
        ids(&findings),
        vec![
            ("forbid_unsafe", 1),
            ("unordered_iter", 5),
            ("unordered_iter", 8),
            ("unordered_iter", 8),
        ]
    );
    assert_eq!(suppressed, 2);
}

#[test]
fn wall_clock_fires_and_suppresses() {
    let src = include_str!("../fixtures/wall_clock.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(
        ids(&findings),
        vec![("wall_clock", 6), ("wall_clock", 11)],
        "Instant::now and SystemTime fire; type-position Instant does not"
    );
    assert_eq!(suppressed, 1, "trailing allow on the annotated site");
}

#[test]
fn ambient_rng_fires_on_entropy_and_literal_seeds() {
    let src = include_str!("../fixtures/ambient_rng.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(
        ids(&findings),
        vec![
            ("ambient_rng", 5),
            ("ambient_rng", 10),
            ("ambient_rng", 15),
        ],
        "thread_rng, literal seed, and mangled literal seed fire; \
         config seed, fork labels, #[cfg(test)] code, and the annotated \
         site do not"
    );
    assert_eq!(suppressed, 1);
}

#[test]
fn ambient_rng_is_relaxed_in_test_paths() {
    let src = "fn setup() { let r = DetRng::new(1234); }";
    let (findings, _) = check_rust_source("crates/demo/tests/proptests.rs", src);
    assert!(findings.is_empty(), "test code may pin literal seeds");
    let (findings, _) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(ids(&findings), vec![("ambient_rng", 1)]);
}

#[test]
fn det_float_order_fires_and_suppresses() {
    let src = include_str!("../fixtures/det_float_order.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(
        ids(&findings),
        vec![("det_float_order", 6), ("det_float_order", 10)],
        "float sum/fold over annotated hash collections still fire; \
         the det_float_order-annotated site, integer folds, and \
         Vec-ordered float folds do not"
    );
    assert!(findings[0].message.contains("not associative"));
    // 4 unordered_iter (one per annotated hash param) + 1 det_float_order.
    assert_eq!(suppressed, 5);
}

#[test]
fn digest_coverage_reports_unfolded_counters() {
    let src = include_str!("../fixtures/digest_coverage.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/stats.rs", src);
    assert_eq!(
        ids(&findings),
        vec![
            ("digest_coverage", 11),
            ("digest_coverage", 15),
            ("digest_coverage", 17),
        ],
        "unfolded u64, i64, and u32 counters are all reported; folded \
         fields and non-counter types are not"
    );
    assert!(findings[0].message.contains("late_adds"));
    assert!(findings[0].message.contains("DemoStats"));
    assert!(findings[1].message.contains("max_skew_ns"));
    assert!(findings[2].message.contains("retries"));
    assert_eq!(suppressed, 1, "SuppressedStats::scratch is annotated");
}

#[test]
fn forbid_unsafe_missing_vs_present() {
    let clean = include_str!("../fixtures/clean_lib.rs");
    let (findings, _) = check_rust_source("crates/demo/src/lib.rs", clean);
    assert!(findings.is_empty(), "clean crate root has no findings");

    let (findings, _) = check_rust_source("crates/demo/src/lib.rs", "pub fn f() {}");
    assert_eq!(ids(&findings), vec![("forbid_unsafe", 1)]);

    // Non-root files are not required to carry the attribute.
    let (findings, _) = check_rust_source("crates/demo/src/inner.rs", "pub fn f() {}");
    assert!(findings.is_empty());
}

#[test]
fn bad_suppression_reported_for_reasonless_allow() {
    let src = include_str!("../fixtures/bad_suppression.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(suppressed, 2, "the reasonless allow still silences both HashMap hits");
    assert_eq!(ids(&findings), vec![("bad_suppression", 5)]);
    assert!(findings[0].message.contains("unordered_iter"));
}

#[test]
fn layering_rejects_upward_and_registry_deps() {
    let manifest = "\
[package]
name = \"tcp\"

[dependencies]
simcore.workspace = true
rdcn.workspace = true
serde = \"1.0\"

[dev-dependencies]
testkit.workspace = true
bench.workspace = true
";
    let (findings, _) = layering::check_manifest("crates/tcp/Cargo.toml", manifest);
    assert_eq!(
        ids(&findings),
        vec![
            ("layer_deps", 6),
            ("layer_deps", 7),
            ("layer_deps", 11),
        ],
        "tcp->rdcn breaks the DAG, serde breaks the offline guarantee, \
         and bench is unreachable even as a dev-dependency"
    );
    assert!(findings[1].message.contains("registry"));
}

#[test]
fn layering_accepts_the_real_shape() {
    let manifest = "\
[package]
name = \"tdtcp\"

[dependencies]
simcore.workspace = true
wire.workspace = true
tcp.workspace = true

[dev-dependencies]
testkit.workspace = true
rdcn.workspace = true
";
    let (findings, _) = layering::check_manifest("crates/core/Cargo.toml", manifest);
    assert!(
        findings.is_empty(),
        "transports may dev-depend on rdcn to drive an emulator: {findings:?}"
    );
}

#[test]
fn layering_suppressible_in_toml_comments() {
    let manifest = "\
[package]
name = \"simcore\"

[dependencies]
testkit.workspace = true
# detlint: allow(layer_deps) — fixture: documented migration exception
wire.workspace = true
";
    let (findings, suppressed) = layering::check_manifest("crates/simcore/Cargo.toml", manifest);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn layer_deps_fixture_fires_on_both_lines() {
    let src = include_str!("../fixtures/layer_deps.toml");
    let (findings, _) = layering::check_manifest("crates/tcp/Cargo.toml", src);
    assert_eq!(
        ids(&findings),
        vec![("layer_deps", 7), ("layer_deps", 8)],
        "tcp->rdcn breaks the DAG and serde breaks the offline guarantee"
    );
}

#[test]
fn forbid_unsafe_fixture_fires_at_crate_root() {
    let src = include_str!("../fixtures/forbid_unsafe.rs");
    let (findings, _) = check_rust_source("crates/demo/src/lib.rs", src);
    assert_eq!(ids(&findings), vec![("forbid_unsafe", 1)]);
}

#[test]
fn stream_discipline_fires_on_dup_value_magic_and_undeclared() {
    let src = include_str!("../fixtures/stream_discipline.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(
        ids(&findings),
        vec![
            ("stream_discipline", 5),
            ("stream_discipline", 9),
            ("stream_discipline", 10),
        ],
        "duplicate value, inline magic number, and undeclared label all \
         fire; declared labels, base+offset forks, and #[cfg(test)] \
         forks do not"
    );
    assert!(findings[0].message.contains("FAULT_STREAM_LABEL"));
    assert!(findings[0].message.contains("DUPLICATE_STREAM_LABEL"));
    assert!(findings[1].message.contains("fork"));
    assert!(findings[2].message.contains("GHOST_STREAM_LABEL"));
    assert_eq!(suppressed, 0);
}

#[test]
fn shard_safety_fires_on_shard_and_mailbox_bypass_and_float_fold() {
    let src = include_str!("../fixtures/shard_safety.rs");
    let (findings, suppressed) = check_rust_source("crates/rdcn/src/shard.rs", src);
    assert_eq!(
        ids(&findings),
        vec![("shard_safety", 56), ("shard_safety", 61), ("shard_safety", 66)],
        "a shard writing through the world's `shards`, a shard indexing \
         the mailbox `boxes` and a float fold over collected mail all \
         fire; `post`/`collect` calls and the mailbox type's own fixed \
         source-order drain do not"
    );
    assert!(findings[0].message.contains("shards"));
    assert!(findings[1].message.contains("`peek` touches `boxes`"));
    assert!(findings[2].message.contains("float `sum`"));
    assert_eq!(suppressed, 0);
}

#[test]
fn shard_safety_is_scoped_to_shard_files() {
    // The same source outside rdcn::shard is someone else's business.
    let src = include_str!("../fixtures/shard_safety.rs");
    let (findings, _) = check_rust_source("crates/demo/src/util.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn suppression_audit_reports_stale_allow() {
    let src = include_str!("../fixtures/suppression_audit.rs");
    let (findings, suppressed) = check_rust_source("crates/demo/src/util.rs", src);
    assert_eq!(
        ids(&findings),
        vec![("suppression_audit", 4)],
        "the zero-hit wall_clock allow is stale; the unordered_iter \
         allow still earns its keep"
    );
    assert!(findings[0].message.contains("wall_clock"));
    assert_eq!(suppressed, 1);
}

// ---- cross-file workspace rules, driven through `analyze` ----

fn src(rel_path: &str, contents: &str) -> detlint::Source {
    detlint::Source {
        rel_path: rel_path.to_string(),
        contents: contents.to_string(),
    }
}

#[test]
fn stream_label_collision_across_files() {
    let report = detlint::analyze(&[
        src(
            "crates/demo/src/stream_a.rs",
            include_str!("../fixtures/ws/stream_a.rs"),
        ),
        src(
            "crates/demo/src/stream_b.rs",
            include_str!("../fixtures/ws/stream_b.rs"),
        ),
    ]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule.id(), "stream_discipline");
    assert_eq!(f.file, "crates/demo/src/stream_b.rs");
    assert_eq!(f.line, 3);
    assert!(
        f.message.contains("stream_a.rs"),
        "the finding names the first declaration: {}",
        f.message
    );
}

#[test]
fn digest_fold_in_another_file_counts_as_coverage() {
    let report = detlint::analyze(&[
        src(
            "crates/demo/src/digest_stats.rs",
            include_str!("../fixtures/ws/digest_stats.rs"),
        ),
        src(
            "crates/demo/src/digest_fold.rs",
            include_str!("../fixtures/ws/digest_fold.rs"),
        ),
    ]);
    // `forwarded` is folded by the trait impl in the other file;
    // `dropped` is not folded anywhere.
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    let f = &report.findings[0];
    assert_eq!(f.rule.id(), "digest_coverage");
    assert_eq!(f.file, "crates/demo/src/digest_stats.rs");
    assert_eq!(f.line, 5);
    assert!(f.message.contains("dropped"));
}
