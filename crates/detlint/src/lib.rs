//! # detlint — determinism & layering static analysis
//!
//! Every claim this reproduction makes rests on determinism *by
//! construction*: the golden-digest suite can only observe a violation
//! after the fact, and one `HashMap` iteration feeding a digest or one
//! stray wall-clock read silently breaks the parallel-vs-serial
//! bit-identical guarantee. detlint makes those rules machine-checked
//! at the source level, with zero dependencies (no `syn`, no registry
//! crates — the linter that polices the offline-build guarantee must
//! not break it).
//!
//! v2 pipeline (DESIGN.md §10): **lexer → item parser → symbol graph →
//! rules**. Per-file token rules run as before; on top, the parser
//! extracts each file's item skeleton, the [`graph::SymbolGraph`]
//! indexes it workspace-wide, and [`wsrules`] checks the cross-file
//! invariants the sharded engine depends on (stream-label uniqueness,
//! cross-file digest folds, mailbox-only shard access). Suppression is
//! applied per file after *all* rules, and audited: a directive that no
//! longer suppresses anything is itself a finding.
//!
//! See `DESIGN.md` §10 for the rule set and suppression syntax; run it
//! via `scripts/ci.sh lint` or `cargo run -p detlint`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod layering;
pub mod lexer;
pub mod parser;
pub mod report;
pub mod rules;
pub mod suppress;
pub mod wsrules;

pub use report::{Finding, Report, RuleId};

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One file to analyze, already read into memory. The analyzer never
/// touches the filesystem — [`collect_sources`] does the reading, so
/// fixture tests can feed in-memory workspaces.
#[derive(Debug, Clone)]
pub struct Source {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// File contents.
    pub contents: String,
}

/// Check one Rust source file (already read into memory). Returns
/// (unsuppressed findings, suppressed count). Public so fixture tests
/// can drive single files without a workspace on disk. The file is
/// analyzed as a one-file workspace: the workspace rules run too, with
/// the symbol graph restricted to this file.
pub fn check_rust_source(rel_path: &str, src: &str) -> (Vec<Finding>, usize) {
    let report = analyze(&[Source {
        rel_path: rel_path.to_string(),
        contents: src.to_string(),
    }]);
    (report.findings, report.suppressed)
}

/// Analyze a set of sources as one workspace. This is the whole
/// pipeline: lex, parse items, run per-file rules, build the symbol
/// graph, run workspace rules, apply suppression per file, audit stale
/// suppressions.
pub fn analyze(sources: &[Source]) -> Report {
    // Per-file pass: findings before suppression, plus parsed units for
    // the graph.
    struct FileWork {
        rel_path: String,
        directives: Vec<suppress::Directive>,
        findings: Vec<Finding>,
    }
    let mut works: Vec<FileWork> = Vec::with_capacity(sources.len());
    let mut units: Vec<graph::Unit> = Vec::new();

    for s in sources {
        if s.rel_path.ends_with("Cargo.toml") {
            works.push(FileWork {
                rel_path: s.rel_path.clone(),
                directives: suppress::parse(&s.contents),
                findings: layering::check_manifest_raw(&s.rel_path, &s.contents),
            });
            continue;
        }
        let lexed = lexer::lex_full(&s.contents);
        let parsed = parser::parse_file(&lexed.tokens);
        let directives = suppress::parse_comments(&s.contents, &lexed.comments);
        let ctx = rules::FileCtx {
            rel_path: s.rel_path.clone(),
        };
        let findings = rules::check_file(&ctx, &lexed.tokens);
        works.push(FileWork {
            rel_path: s.rel_path.clone(),
            directives,
            findings,
        });
        units.push(graph::Unit {
            rel_path: s.rel_path.clone(),
            lexed,
            parsed,
        });
    }

    // Workspace pass: cross-file rules on the symbol graph, routed back
    // to each finding's file so its directives can suppress it.
    let symbol_graph = graph::SymbolGraph::build(&units);
    let by_path: BTreeMap<String, usize> = works
        .iter()
        .enumerate()
        .map(|(i, w)| (w.rel_path.clone(), i))
        .collect();
    for f in wsrules::check_workspace(&symbol_graph) {
        if let Some(&i) = by_path.get(f.file.as_str()) {
            works[i].findings.push(f);
        }
    }

    // Suppression + audit, per file.
    let mut report = Report::default();
    for w in &mut works {
        let applied =
            suppress::apply_counted(&w.rel_path, &w.directives, std::mem::take(&mut w.findings));
        let stale = suppress::audit(&w.rel_path, &w.directives, &applied);
        for f in &applied.suppressed {
            report.suppressed_by_rule[f.rule.index()] += 1;
        }
        report.suppressed += applied.suppressed.len();
        report.findings.extend(applied.kept);
        report.findings.extend(stale);
        report.files_scanned += 1;
        report.scanned.push(w.rel_path.clone());
    }
    report.sort();
    report
}

/// Read every `.rs` file and `Cargo.toml` under `root` into memory,
/// skipping `target/`, VCS metadata, and detlint's own rule fixtures
/// (which exist to contain violations). Sorted by path so reports are
/// independent of readdir order.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut files = Vec::new();
    collect_files(root, root, &mut files)?;
    files.sort();
    files
        .iter()
        .map(|rel| {
            Ok(Source {
                rel_path: rel.to_string_lossy().replace('\\', "/"),
                contents: std::fs::read_to_string(root.join(rel))?,
            })
        })
        .collect()
}

/// Scan a whole workspace rooted at `root`.
pub fn run(root: &Path) -> std::io::Result<Report> {
    Ok(analyze(&collect_sources(root)?))
}

const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures", "tk-regressions"];

fn collect_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_files(root, &path, out)?;
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
