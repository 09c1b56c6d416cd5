//! Workspace rules: checks that need the cross-file symbol graph.
//!
//! * `stream_discipline` — forked-RNG stream labels are the only thing
//!   keeping per-plane randomness independent (DESIGN.md §4): two
//!   constants with the same value silently correlate two streams, and
//!   an inline magic number at a `fork(...)` call site can collide with
//!   a declared label without any single file showing the conflict. So:
//!   every `*_STREAM_LABEL` / `*_STREAM_BASE` constant must be
//!   workspace-unique (by name and by value), and every non-test
//!   `fork(...)` call site must reference a declared label constant.
//! * `digest_coverage` (v2) — same counter-omission check as v1, but
//!   the `write_digest` fold may live in any file, inherent or trait
//!   impl (`rdcn::statfold`). The union of every fold body for the type
//!   must name every pub counter.
//! * `shard_safety` — in shard-engine files, only the leader type (the
//!   struct owning the `shards` vector) may touch other shards' state,
//!   and only the mailbox type (the struct owning `boxes`) may touch the
//!   mailbox storage: everyone else goes through its `hand_off`/`collect`.
//!   Any other function mentioning `shards` or `boxes` is a mailbox
//!   bypass. And a function handling mail (`mail`/`mailbox`/`boxes` in
//!   scope) must not accumulate floats through iterator folds —
//!   cross-rack float folding is only deterministic in the explicit
//!   fixed source-rack collect order.
//! * `suppression_audit` lives in [`crate::suppress`]: it needs the
//!   per-directive hit counts that only exist after every other rule
//!   has run and suppression has been applied.

use std::collections::BTreeMap;

use crate::graph::{is_stream_const, SymbolGraph, Unit};
use crate::lexer::{ident, Tok};
use crate::report::{Finding, RuleId};
use crate::rules::{float_acc_sites, is_test_path};

/// Run every workspace rule over the graph.
pub fn check_workspace(graph: &SymbolGraph<'_>) -> Vec<Finding> {
    let mut findings = Vec::new();
    stream_discipline(graph, &mut findings);
    digest_coverage(graph, &mut findings);
    shard_safety(graph, &mut findings);
    findings
}

/// Units whose own (non-`#[cfg(test)]`) code is production scope.
fn prod_units<'a>(graph: &'a SymbolGraph<'_>) -> impl Iterator<Item = &'a Unit> {
    graph.units.iter().filter(|u| !is_test_path(&u.rel_path))
}

fn stream_discipline(graph: &SymbolGraph<'_>, findings: &mut Vec<Finding>) {
    // Declared stream constants, production scope only.
    // name -> [(file, line)], value -> [(name, file, line)]
    let mut by_name: BTreeMap<&str, Vec<(&str, u32)>> = BTreeMap::new();
    let mut by_value: BTreeMap<u64, Vec<(&str, &str, u32)>> = BTreeMap::new();
    for u in prod_units(graph) {
        for c in &u.parsed.consts {
            if !is_stream_const(&c.name) || u.in_cfg_test(c.line) {
                continue;
            }
            by_name.entry(&c.name).or_default().push((&u.rel_path, c.line));
            if let Some(v) = c.value {
                by_value
                    .entry(v)
                    .or_default()
                    .push((&c.name, &u.rel_path, c.line));
            }
        }
    }
    for (name, mut decls) in by_name {
        if decls.len() < 2 {
            continue;
        }
        decls.sort();
        let (first_file, first_line) = decls[0];
        for &(file, line) in &decls[1..] {
            findings.push(Finding {
                rule: RuleId::StreamDiscipline,
                file: file.to_string(),
                line,
                message: format!(
                    "stream label `{name}` is also declared at {first_file}:{first_line}; \
                     labels must be workspace-unique"
                ),
            });
        }
    }
    for (value, mut decls) in by_value {
        if decls.len() < 2 {
            continue;
        }
        decls.sort_by_key(|&(_, file, line)| (file.to_string(), line));
        // Same name twice is already reported above; only flag distinct
        // names sharing a value.
        let (first_name, first_file, first_line) = decls[0];
        for &(name, file, line) in &decls[1..] {
            if name == first_name {
                continue;
            }
            findings.push(Finding {
                rule: RuleId::StreamDiscipline,
                file: file.to_string(),
                line,
                message: format!(
                    "stream label `{name}` duplicates the value {value:#x} of `{first_name}` \
                     ({first_file}:{first_line}); identical labels fork identical streams"
                ),
            });
        }
    }

    // Call sites: every non-test `.fork(...)` must reference a declared
    // label constant, never an inline number.
    for u in prod_units(graph) {
        let toks = &u.lexed.tokens;
        for (i, t) in toks.iter().enumerate() {
            if ident(t) != Some("fork")
                || !matches!(toks.get(i + 1).map(|t| &t.kind), Some(Tok::Punct('(')))
                || i == 0
                || !matches!(toks[i - 1].kind, Tok::Punct('.') | Tok::Punct(':'))
                || u.in_cfg_test(t.line)
            {
                continue;
            }
            // Balanced argument scan.
            let mut depth = 1usize;
            let mut j = i + 2;
            let mut has_int = false;
            let mut label_idents: Vec<&str> = Vec::new();
            while j < toks.len() && depth > 0 {
                match &toks[j].kind {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::IntLit(_) => has_int = true,
                    Tok::Ident(s) if is_stream_const(s) => label_idents.push(s),
                    _ => {}
                }
                j += 1;
            }
            if label_idents.is_empty() {
                if has_int {
                    findings.push(Finding {
                        rule: RuleId::StreamDiscipline,
                        file: u.rel_path.clone(),
                        line: t.line,
                        message: "fork(...) with an inline numeric label; declare a \
                                  `*_STREAM_LABEL` constant so collisions are checkable \
                                  workspace-wide"
                            .into(),
                    });
                }
            } else {
                for name in label_idents {
                    if !graph.const_declared(name) {
                        findings.push(Finding {
                            rule: RuleId::StreamDiscipline,
                            file: u.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "fork(...) references `{name}`, which is not declared as a \
                                 constant anywhere in the workspace"
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Counter fields of a pub struct: `pub name: u64|i64|u32` with a bare
/// type — the same criterion v1 used, read off the parsed skeleton.
fn counter_fields(s: &crate::parser::StructInfo) -> Vec<(&str, u32)> {
    s.fields
        .iter()
        .filter(|f| {
            f.is_pub && f.ty_is_simple && matches!(f.ty.as_str(), "u64" | "i64" | "u32")
        })
        .map(|f| (f.name.as_str(), f.line))
        .collect()
}

fn digest_coverage(graph: &SymbolGraph<'_>, findings: &mut Vec<Finding>) {
    for u in graph.units {
        for s in &u.parsed.structs {
            if !s.is_pub {
                continue;
            }
            let counters = counter_fields(s);
            if counters.is_empty() {
                continue;
            }
            let Some(folded) = graph.digest_idents(&s.name) else {
                continue; // no write_digest anywhere for this type
            };
            for (field, line) in counters {
                if !folded.contains(field) {
                    findings.push(Finding {
                        rule: RuleId::DigestCoverage,
                        file: u.rel_path.clone(),
                        line,
                        message: format!(
                            "pub counter `{}` is not folded into any {}::write_digest \
                             (searched every impl, all files); digests would miss changes \
                             to it",
                            field, s.name
                        ),
                    });
                }
            }
        }
    }
}

/// Is this file part of a shard engine? (`shard.rs`, `shard/…`.)
fn is_shard_scope(rel_path: &str) -> bool {
    rel_path
        .rsplit('/')
        .next()
        .is_some_and(|f| f.starts_with("shard"))
        || rel_path.contains("/shard/")
}

fn shard_safety(graph: &SymbolGraph<'_>, findings: &mut Vec<Finding>) {
    // The two guarded fields, each with the types that own it across
    // every shard-scope file. Leader types own `shards`: their methods
    // are the only sanctioned place for cross-shard access (the window
    // barrier). The mailbox type owns `boxes`: its `hand_off`/`collect` are
    // the only way a segment changes racks.
    let mut guarded = [
        ("shards", "leader", std::collections::BTreeSet::new()),
        ("boxes", "mailbox", std::collections::BTreeSet::new()),
    ];
    for u in prod_units(graph) {
        if is_shard_scope(&u.rel_path) {
            for (field, _, owners) in &mut guarded {
                owners.extend(graph.owners_of(u, field));
            }
        }
    }
    for u in prod_units(graph) {
        if !is_shard_scope(&u.rel_path) {
            continue;
        }
        for f in &u.parsed.fns {
            if u.in_cfg_test(f.line) {
                continue;
            }
            let body = u.body_tokens(f);
            for (field, role, owners) in &guarded {
                if f.owner.as_deref().is_some_and(|o| owners.contains(o)) {
                    continue;
                }
                for t in body {
                    if ident(t) == Some(field) {
                        findings.push(Finding {
                            rule: RuleId::ShardSafety,
                            file: u.rel_path.clone(),
                            line: t.line,
                            message: format!(
                                "`{}` touches `{field}` but is not a method of a {role} \
                                 type (one owning `{field}`); cross-shard state may only \
                                 move through the mailbox `hand_off`/`collect` API",
                                f.name
                            ),
                        });
                    }
                }
            }
            // Mail-handling float accumulation: only the explicit fixed
            // source-rack collect order is deterministic across worker
            // counts; iterator folds hide the order.
            let handles_mail = body
                .iter()
                .any(|t| matches!(ident(t), Some("mail" | "mailbox" | "mailboxes" | "boxes")));
            if handles_mail {
                for (line, acc) in float_acc_sites(body) {
                    findings.push(Finding {
                        rule: RuleId::ShardSafety,
                        file: u.rel_path.clone(),
                        line,
                        message: format!(
                            "float `{acc}` while handling shard mail in `{}`; \
                             accumulate with an explicit fixed source-order loop \
                             instead of an iterator fold",
                            f.name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SymbolGraph;
    use crate::lexer::lex_full;
    use crate::parser::parse_file;

    fn unit(rel_path: &str, src: &str) -> Unit {
        let lexed = lex_full(src);
        let parsed = parse_file(&lexed.tokens);
        Unit { rel_path: rel_path.to_string(), lexed, parsed }
    }

    fn check(units: &[Unit]) -> Vec<Finding> {
        check_workspace(&SymbolGraph::build(units))
    }

    #[test]
    fn duplicate_label_values_across_files_fire() {
        let units = vec![
            unit("crates/a/src/lib.rs", "pub const FAULT_STREAM_LABEL: u64 = 0xFA17;\n"),
            unit("crates/b/src/lib.rs", "pub const CLOCK_STREAM_LABEL: u64 = 0xFA17;\n"),
        ];
        let f = check(&units);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RuleId::StreamDiscipline);
        assert_eq!(f[0].file, "crates/b/src/lib.rs");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn fork_with_label_offset_passes_and_magic_number_fires() {
        let units = vec![unit(
            "crates/a/src/lib.rs",
            "pub const RACK_STREAM_BASE: u64 = 0x5AAD_0000;\n\
             fn ok(r: &DetRng, i: u64) { let _ = r.fork(RACK_STREAM_BASE + i); }\n\
             fn bad(r: &DetRng) { let _ = r.fork(42); }\n",
        )];
        let f = check(&units);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (RuleId::StreamDiscipline, 3));
    }

    #[test]
    fn cross_file_digest_fold_counts_as_coverage() {
        let units = vec![
            unit(
                "crates/a/src/stats.rs",
                "pub struct S { pub sent: u64, pub lost: u64 }\n",
            ),
            unit(
                "crates/a/src/fold.rs",
                "impl S { pub fn write_digest(&self, d: &mut D) { d.u64(self.sent); } }\n",
            ),
        ];
        let f = check(&units);
        // `lost` is missing from every fold; `sent` is covered cross-file.
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (RuleId::DigestCoverage, 1));
        assert!(f[0].message.contains("lost"));
    }

    #[test]
    fn shard_mailbox_bypass_fires_for_non_leader() {
        let units = vec![unit(
            "crates/demo/src/shard.rs",
            "pub struct Leader { shards: Vec<Shard> }\n\
             impl Leader { fn drain(&mut self) { self.shards.len(); } }\n\
             impl Shard { fn cheat(&mut self, world: &mut Leader) { world.shards.clear(); } }\n",
        )];
        let f = check(&units);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (RuleId::ShardSafety, 3));
        assert!(f[0].message.contains("cheat"));
    }

    #[test]
    fn mailbox_storage_is_private_to_the_mailbox_type() {
        let units = vec![unit(
            "crates/demo/src/shard.rs",
            "pub struct Mail { boxes: Vec<Vec<u64>> }\n\
             impl Mail { fn post(&mut self, d: usize, m: u64) { self.boxes[d].push(m); } }\n\
             impl Shard { fn emit(&mut self, m: u64) { self.mail.post(1, m); } }\n\
             impl Shard { fn peek(&self) -> usize { self.mail.boxes[1].len() } }\n",
        )];
        let f = check(&units);
        assert_eq!(f.len(), 1);
        assert_eq!((f[0].rule, f[0].line), (RuleId::ShardSafety, 4));
        assert!(f[0].message.contains("peek") && f[0].message.contains("boxes"));
    }
}
