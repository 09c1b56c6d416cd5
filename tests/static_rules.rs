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

/// Every file under `dir`, recursively, in path order.
#[expect(clippy::disallowed_methods, reason = "the listing is sorted before use")]
fn walk(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).expect("readable directory") {
        let path = entry.expect("readable entry").path();
        if path.is_dir() { out.extend(walk(&path)) } else { out.push(path) }
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

/// One production source file holding `src`.
fn lib(src: &str) -> Vec<(String, String)> {
    vec![("crates/x/src/lib.rs".to_string(), src.to_string())]
}
