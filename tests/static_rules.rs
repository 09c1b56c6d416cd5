//! The static rules that read files (DESIGN.md §10). Every other static
//! rule is a rustc or clippy lint: `[workspace.lints]` in the root
//! `Cargo.toml` and the disallowed types and methods in `clippy.toml`.
//!
//! Each check is a function from text to the faults it finds.
//! `the_workspace_keeps_every_rule` runs them on the real files; each
//! other test seeds one bad input and shows the check naming it.

use std::fs;
use std::path::{Path, PathBuf};

/// The layering: allowed `[dependencies]` and `[dev-dependencies]` per
/// package. Transports never see `rdcn`, not even in tests; only the root
/// sees `bench`.
const LAYERS: &[(&str, &[&str], &[&str])] = &[
    ("testkit", &[], &[]),
    ("wire", &[], &["testkit"]),
    ("simcore", &["testkit"], &[]),
    ("tcp", &["simcore", "wire", "testkit"], &[]),
    ("tdtcp", &["simcore", "wire", "tcp"], &[]),
    ("mptcp", &["simcore", "wire", "tcp"], &[]),
    ("rdcn", &["simcore", "wire", "tcp", "testkit"], &[]),
    ("bench", &["simcore", "wire", "rdcn", "tcp", "tdtcp", "mptcp", "testkit"], &[]),
    ("tdtcp-repro", &["simcore", "wire", "rdcn", "tcp", "tdtcp", "mptcp", "bench"], &["testkit"]),
];

/// Faults in one `Cargo.toml`: no pinned layer, a dependency outside it
/// or not `workspace = true`, or no `[lints] workspace = true`.
fn manifest_faults(toml: &str) -> Vec<String> {
    let (mut section, mut name, mut lints, mut deps) = ("", None, false, Vec::new());
    for line in toml.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
        if line.starts_with('[') {
            section = line;
        } else if section == "[package]" && line.starts_with("name ") {
            name = line.split('"').nth(1);
        } else if section == "[lints]" {
            lints |= line == "workspace = true";
        } else if section == "[dependencies]" || section == "[dev-dependencies]" {
            deps.push((section, line));
        }
    }
    let name = name.unwrap_or_default();
    let Some(&(_, normal, dev)) = LAYERS.iter().find(|l| l.0 == name) else {
        return vec![format!("`{name}` has no pinned layer")];
    };
    let unlinted = (!lints).then(|| format!("`{name}` lacks `[lints] workspace = true`"));
    let mut faults: Vec<String> = unlinted.into_iter().collect();
    for (section, line) in deps {
        let allowed = if section == "[dependencies]" { normal } else { dev };
        match line.strip_suffix(".workspace = true") {
            Some(dep) if allowed.contains(&dep) => {}
            Some(dep) => faults.push(format!("`{name}` may not depend on `{dep}` in {section}")),
            None => faults.push(format!("`{name}`: `{line}` is not a `workspace = true` dependency")),
        }
    }
    faults
}

/// Faults in `Cargo.lock`: any package from outside the workspace.
fn lock_faults(lock: &str) -> Vec<String> {
    let outside = lock.lines().filter(|l| l.starts_with("source = "));
    outside.map(|l| format!("a package from outside the workspace: {l}")).collect()
}

/// The argument text of every call `callee(…)` in `src`; `callee` ends
/// in the opening parenthesis.
fn call_args<'a>(src: &'a str, callee: &str) -> Vec<&'a str> {
    let calls = src.match_indices(callee).map(|(i, _)| &src[i + callee.len()..]);
    let close = |rest: &'a str| {
        let mut depth = 1;
        rest.char_indices().find_map(|(j, c)| {
            depth += i32::from(c == '(') - i32::from(c == ')');
            (depth == 0).then(|| &rest[..j])
        })
    };
    calls.filter_map(close).collect()
}

/// Faults in the production text (above the first `#[cfg(test)]`, line
/// comments dropped) of `(path, source)` files: stream labels, or a label
/// and the rack range, sharing a value; a `.fork(` naming no
/// `*_STREAM_LABEL` / `*_STREAM_BASE`; an RNG seeded with a literal.
fn stream_faults(files: &[(String, String)]) -> Vec<String> {
    let (mut faults, mut streams) = (Vec::new(), Vec::new());
    for (path, src) in files {
        let shipped = src.split("#[cfg(test)]").next().unwrap_or_default().lines();
        let src = shipped.filter(|l| !l.trim_start().starts_with("//")).collect::<Vec<_>>().join("\n");
        for (lhs, rhs) in src.lines().filter_map(|l| l.split_once(": u64 = ")) {
            let name = lhs.rsplit(' ').next().unwrap_or_default();
            let width = match name {
                n if n.ends_with("_STREAM_BASE") => 64, // rack r forks BASE + r
                n if n.ends_with("_STREAM_LABEL") => 1,
                _ => continue,
            };
            let digits = rhs.trim_end_matches(';').replace('_', "");
            let value = match digits.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => digits.parse(),
            }
            .unwrap_or_else(|_| panic!("{path}: {name} is not a literal"));
            streams.push((name.to_string(), value, value + width));
        }
        for arg in call_args(&src, ".fork(") {
            if !arg.contains("_STREAM_LABEL") && !arg.contains("_STREAM_BASE") {
                faults.push(format!("{path}: fork({arg}) names no *_STREAM_LABEL / *_STREAM_BASE"));
            }
        }
        let seeds = [call_args(&src, "DetRng::new("), call_args(&src, "TkRng::new(")].concat();
        for seed in seeds.iter().filter(|a| a.starts_with(|c: char| c.is_ascii_digit())) {
            faults.push(format!("{path}: an RNG seeded with the literal {seed}"));
        }
    }
    for (i, (a, lo, hi)) in streams.iter().enumerate() {
        let twins = streams[i + 1..].iter().filter(|(_, lo2, hi2)| lo < hi2 && lo2 < hi);
        faults.extend(twins.map(|(b, ..)| format!("stream labels {a} and {b} share a value")));
    }
    faults
}

/// The files of `crates/bench/src` that may call a transport's
/// constructors: the one builder, `Variant::endpoints`, and the ablation,
/// which builds TDTCP with ablated configs no variant names.
const ENDPOINT_BUILDERS: [&str; 2] =
    ["crates/bench/src/variants.rs", "crates/bench/src/experiments/ablation.rs"];

/// Faults in `(path, source)` files of `crates/bench/src`: a transport
/// (`tcp::Connection`, `TdtcpConnection`, `MptcpConnection`) built
/// outside the files allowed to build one.
fn endpoint_faults(files: &[(String, String)]) -> Vec<String> {
    let builds = |src: &str| src.contains("Connection::connect(") || src.contains("Connection::listen(");
    let outside = files.iter().filter(|(path, _)| !ENDPOINT_BUILDERS.contains(&path.as_str()));
    let builders = outside.filter(|(_, src)| builds(src));
    builders.map(|(path, _)| format!("{path} builds a transport; use `Variant::endpoints`")).collect()
}

/// The docs whose file references `reference_faults` checks.
const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

/// The extensions that make a backticked span a file reference.
const EXTENSIONS: [&str; 9] = ["rs", "md", "toml", "sh", "json", "jsonl", "txt", "lock", "yml"];

/// The top-level directories that make a backticked span with a `/` a
/// reference, to a file or a directory.
const TOP_DIRS: [&str; 6] = ["crates", "tests", "src", "scripts", "benchmark", "examples"];

/// Faults in the file references of the doc `name`, whose text is `doc`,
/// against `tree`, every `(path, text)` file of the repo outside
/// `target/`. A reference is a backticked span outside fenced blocks,
/// made of path characters, that ends in a known extension or starts
/// with a top-level directory and a `/`; `:N` or `:N–M` (lines) or
/// `::name` (an item) may follow. It must resolve as a path from the
/// root, as a path under `crates/`, or as the one file whose path ends
/// in it. The file must have at least the last line cited, and hold a
/// `fn`, type, `const` or `mod` called `name`.
fn reference_faults(name: &str, doc: &str, tree: &[(String, String)]) -> Vec<String> {
    let mut fenced = false;
    let prose: Vec<&str> = doc
        .lines()
        .filter(|l| {
            let fence = l.trim_start().starts_with("```");
            fenced ^= fence;
            !fenced && !fence
        })
        .collect();
    let prose = prose.join("\n");
    let pathy = |c: char| c.is_ascii_alphanumeric() || "_./-:–".contains(c);
    let spans = prose.split('`').skip(1).step_by(2).filter(|s| !s.is_empty() && s.chars().all(pathy));
    let mut faults = Vec::new();
    for span in spans {
        let (path, item, line): (&str, Option<&str>, Option<usize>) = match span.split_once("::") {
            Some((path, item)) => (path, Some(item), None),
            None => match span.split_once(':') {
                None => (span, None, None),
                Some((path, lines)) => match lines.rsplit(['-', '–']).next().map(str::parse) {
                    Some(Ok(n)) if lines.chars().all(|c| c.is_ascii_digit() || "-–".contains(c)) => (path, None, Some(n)),
                    _ => continue,
                },
            },
        };
        let path = path.trim_end_matches('/');
        let base = path.rsplit('/').next().unwrap_or_default();
        let is_file = base.rsplit_once('.').is_some_and(|(stem, ext)| !stem.is_empty() && EXTENSIONS.contains(&ext));
        let is_dir = path.split_once('/').is_some_and(|(top, _)| TOP_DIRS.contains(&top));
        let exact = ["", "crates/"].map(|root| format!("{root}{path}"));
        if !is_file {
            let inside = |p: &String| exact.iter().any(|d| p == d || p.starts_with(&format!("{d}/")));
            if is_dir && !tree.iter().any(|(p, _)| inside(p)) {
                faults.push(format!("{name}: `{span}` names no file"));
            }
            continue;
        }
        let tail = format!("/{path}");
        let named = tree.iter().find(|(p, _)| exact.contains(p));
        let ending: Vec<_> = tree.iter().filter(|(p, _)| p.ends_with(&tail)).collect();
        let (file, text) = match (named, ending.as_slice()) {
            (Some(f), _) | (None, &[f]) => f,
            (None, &[]) => {
                faults.push(format!("{name}: `{span}` names no file"));
                continue;
            }
            (None, many) => {
                faults.push(format!("{name}: `{span}` names {} files", many.len()));
                continue;
            }
        };
        let lines = text.lines().count();
        if let Some(n) = line.filter(|&n| n > lines) {
            faults.push(format!("{name}: `{span}`: {file} has {lines} lines, not {n}"));
        }
        let defines = |item: &str| {
            let words = ["fn", "struct", "enum", "trait", "type", "const", "static", "mod"];
            words.iter().any(|kw| {
                let decl = format!("{kw} {item}");
                let ends = |(i, _): (usize, &str)| !text[i + decl.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_');
                text.match_indices(&decl).any(ends)
            })
        };
        if let Some(item) = item.filter(|i| !defines(i)) {
            faults.push(format!("{name}: `{span}`: {file} has no item `{item}`"));
        }
    }
    faults
}

/// Every file under `dir`, recursively, in path order, but for build
/// output (`target/`) and hidden directories.
#[expect(clippy::disallowed_methods, reason = "the listing is sorted before use")]
fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        let skipped = path.file_name().is_some_and(|n| n == "target" || n.to_string_lossy().starts_with('.'));
        if !path.is_dir() {
            out.push(path);
        } else if !skipped {
            out.extend(walk(&path));
        }
    }
    out.sort();
    out
}

#[test]
fn the_workspace_keeps_every_rule() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |rel: &str| fs::read_to_string(root.join(rel)).expect("readable file");
    let rel = |p: &PathBuf| p.strip_prefix(root).expect("under the root").display().to_string();
    let files: Vec<String> = walk(&root.join("crates")).iter().map(rel).collect();
    let mut manifests = vec!["Cargo.toml"];
    manifests.extend(files.iter().filter(|f| f.ends_with("/Cargo.toml")).map(String::as_str));
    assert_eq!(manifests.len(), LAYERS.len(), "one pinned layer per package: {manifests:?}");
    // The rng module defines `fork` and seeds children from its label mix.
    let sources: Vec<_> = files
        .iter()
        .filter(|f| f.split('/').nth(2) == Some("src") && f.ends_with(".rs"))
        .filter(|f| *f != "crates/testkit/src/rng.rs")
        .map(|f| (f.clone(), read(f)))
        .collect();
    let mut faults = lock_faults(&read("Cargo.lock"));
    faults.extend(manifests.iter().flat_map(|m| manifest_faults(&read(m))));
    faults.extend(stream_faults(&sources));
    let harness: Vec<_> = sources.iter().filter(|(f, _)| f.starts_with("crates/bench/src/")).cloned().collect();
    faults.extend(endpoint_faults(&harness));
    let text = |p: &PathBuf| String::from_utf8_lossy(&fs::read(p).expect("readable file")).into_owned();
    let tree: Vec<_> = walk(root).iter().map(|p| (rel(p), text(p))).collect();
    faults.extend(DOCS.iter().flat_map(|doc| reference_faults(doc, &read(doc), &tree)));
    assert!(faults.is_empty(), "{faults:#?}");
}

#[test]
fn a_transport_depending_on_rdcn_is_named() {
    let toml = "[package]\nname = \"tdtcp\"\n[dependencies]\nrdcn.workspace = true\n[lints]\nworkspace = true\n";
    assert_eq!(manifest_faults(toml), ["`tdtcp` may not depend on `rdcn` in [dependencies]"]);
}

#[test]
fn a_registry_dependency_is_named() {
    let toml = "[package]\nname = \"wire\"\n[dependencies]\nserde = \"1\"\n[lints]\nworkspace = true\n";
    let want = ["`wire`: `serde = \"1\"` is not a `workspace = true` dependency"];
    assert_eq!(manifest_faults(toml), want);
    let lock = "[[package]]\nname = \"serde\"\nsource = \"registry+crates-io\"\n";
    assert_eq!(lock_faults(lock).len(), 1);
}

#[test]
fn a_manifest_without_lints_is_named() {
    let toml = "[package]\nname = \"simcore\"\n[dependencies]\ntestkit.workspace = true\n";
    assert_eq!(manifest_faults(toml), ["`simcore` lacks `[lints] workspace = true`"]);
}

#[test]
fn two_labels_with_one_value_are_named() {
    let twins = "pub const FAULT_STREAM_LABEL: u64 = 0xFA17;\nconst CLOCK_STREAM_LABEL: u64 = 0xFA17;";
    let want = "stream labels FAULT_STREAM_LABEL and CLOCK_STREAM_LABEL share a value";
    assert_eq!(stream_faults(&lib(twins)), [want]);
    let in_range = "pub const RACK_STREAM_BASE: u64 = 0x5AAD_0000;\nconst X_STREAM_LABEL: u64 = 0x5AAD_003F;";
    assert_eq!(stream_faults(&lib(in_range)).len(), 1);
}

#[test]
fn a_fork_with_a_literal_label_is_named() {
    let src = "fn f(r: &DetRng) -> DetRng { r.fork(0x1234) }\n#[cfg(test)]\nfn g(r: &DetRng) { r.fork(1); }";
    let want = "crates/x/src/lib.rs: fork(0x1234) names no *_STREAM_LABEL / *_STREAM_BASE";
    assert_eq!(stream_faults(&lib(src)), [want]);
}

#[test]
fn a_literal_seed_is_named() {
    let src = "fn f() -> DetRng { DetRng::new(7) }\nfn g(seed: u64) -> DetRng { DetRng::new(seed) }";
    assert_eq!(stream_faults(&lib(src)), ["crates/x/src/lib.rs: an RNG seeded with the literal 7"]);
}

#[test]
fn a_harness_building_its_own_transport_is_named() {
    let tails = "pub fn make_endpoints(variant: Variant, net: &NetConfig, i: usize, bytes: u64, now: SimTime) {\n    \
        Box::new(tdtcp::TdtcpConnection::connect(FlowId(i as u32), cfg.clone(), &template, now))\n}";
    let files = [("crates/bench/src/tails.rs", tails), ("crates/bench/src/variants.rs", tails)];
    let files = files.map(|(p, s)| (p.to_string(), s.to_string()));
    assert_eq!(endpoint_faults(&files), ["crates/bench/src/tails.rs builds a transport; use `Variant::endpoints`"]);
}

#[test]
fn a_stale_file_reference_is_named() {
    let tree = [
        ("tests/faults.rs", "fn check() {}\n".repeat(127)),
        ("crates/rdcn/src/shard.rs", "pub(crate) fn next_window() {}\n".into()),
        ("crates/tcp/src/connection.rs", String::new()),
        ("crates/mptcp/src/connection.rs", String::new()),
    ];
    let tree = tree.map(|(p, s)| (p.to_string(), s));
    let doc = "`tests/faults.rs:142`, `tests/faults.rs:120–127`, `tests/faults.rs::check_all`, \
        `rdcn/src/shard.rs::next_window`, `shard.rs:1`, `connection.rs`, `BENCH_tails.json`, \
        `crates/detlint/`, `crates/rdcn`, `rdcn::shard`\n```\n`crates/gone.rs`\n```\n";
    assert_eq!(reference_faults("X.md", doc, &tree), [
        "X.md: `tests/faults.rs:142`: tests/faults.rs has 127 lines, not 142",
        "X.md: `tests/faults.rs::check_all`: tests/faults.rs has no item `check_all`",
        "X.md: `connection.rs` names 2 files",
        "X.md: `BENCH_tails.json` names no file",
        "X.md: `crates/detlint/` names no file",
    ]);
}

/// One production source file holding `src`.
fn lib(src: &str) -> Vec<(String, String)> {
    vec![("crates/x/src/lib.rs".to_string(), src.to_string())]
}
