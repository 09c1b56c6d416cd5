//! The workspace symbol graph.
//!
//! One [`Unit`] per scanned Rust file (tokens + parsed item skeleton);
//! [`SymbolGraph`] indexes the units so the workspace rules in
//! [`crate::wsrules`] can answer cross-file questions: "where is this
//! constant declared?", "which `write_digest` bodies fold this struct's
//! counters?", "which structs own the shard vector?". All indexes use
//! `BTree` collections — detlint lints itself, and `unordered_iter`
//! applies to its own source too.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{ident, Lexed, Token};
use crate::parser::{FnInfo, ParsedFile};

/// One scanned Rust file: path, token stream, item skeleton.
#[derive(Debug)]
pub struct Unit {
    /// Workspace-relative path.
    pub rel_path: String,
    /// Tokens + comments from [`crate::lexer::lex_full`].
    pub lexed: Lexed,
    /// Item skeleton from [`crate::parser::parse_file`].
    pub parsed: ParsedFile,
}

impl Unit {
    /// The tokens of a function body (empty for signature-only fns).
    pub fn body_tokens(&self, f: &FnInfo) -> &[Token] {
        if f.body.0 >= f.body.1 {
            return &[];
        }
        &self.lexed.tokens[f.body.0..=f.body.1]
    }

    /// Is this line inside the file's `#[cfg(test)]` tail?
    pub fn in_cfg_test(&self, line: u32) -> bool {
        self.parsed.cfg_test_line.is_some_and(|l| line >= l)
    }
}

/// Cross-file symbol indexes over a set of [`Unit`]s.
pub struct SymbolGraph<'a> {
    /// The underlying units, in scan order.
    pub units: &'a [Unit],
    /// Every const name declared anywhere (module level or impl level).
    const_names: BTreeSet<&'a str>,
    /// `write_digest` bodies by owning type name:
    /// `type name -> [(unit index, fn)]`.
    digest_fns: BTreeMap<&'a str, Vec<(usize, &'a FnInfo)>>,
}

impl<'a> SymbolGraph<'a> {
    /// Index `units`. One pass over the parsed skeletons; token streams
    /// are only touched later, per query.
    pub fn build(units: &'a [Unit]) -> Self {
        let mut const_names = BTreeSet::new();
        let mut digest_fns: BTreeMap<&str, Vec<(usize, &FnInfo)>> = BTreeMap::new();
        for (ui, u) in units.iter().enumerate() {
            for c in &u.parsed.consts {
                const_names.insert(c.name.as_str());
            }
            for f in &u.parsed.fns {
                if f.name == "write_digest" {
                    if let Some(owner) = &f.owner {
                        digest_fns.entry(owner.as_str()).or_default().push((ui, f));
                    }
                }
            }
        }
        SymbolGraph { units, const_names, digest_fns }
    }

    /// Is a constant with this name declared anywhere in the workspace?
    pub fn const_declared(&self, name: &str) -> bool {
        self.const_names.contains(name)
    }

    /// Union of identifiers mentioned in every `write_digest` body whose
    /// impl type is `ty`, across all files — the v2 upgrade over v1's
    /// same-file search. `None` when no such body exists anywhere (a
    /// struct without a digest has nothing to be covered by).
    pub fn digest_idents(&self, ty: &str) -> Option<BTreeSet<&'a str>> {
        let fns = self.digest_fns.get(ty)?;
        let mut out = BTreeSet::new();
        let mut any_body = false;
        for &(ui, f) in fns {
            let body = self.units[ui].body_tokens(f);
            if body.is_empty() {
                continue; // trait-declaration signature, not a fold
            }
            any_body = true;
            for t in body {
                if let Some(s) = ident(t) {
                    out.insert(s);
                }
            }
        }
        any_body.then_some(out)
    }

    /// Names of structs in `unit` with a field named `field`. The shard
    /// engine's two ownership roles are read off field names: the leader
    /// types own `shards` (their methods alone may touch other shards'
    /// state), the mailbox type owns `boxes` (its methods alone may
    /// touch the mailbox storage).
    pub fn owners_of(&self, unit: &'a Unit, field: &str) -> BTreeSet<&'a str> {
        unit.parsed
            .structs
            .iter()
            .filter(|s| s.fields.iter().any(|f| f.name == field))
            .map(|s| s.name.as_str())
            .collect()
    }
}

/// Is this const a forked-RNG stream label by naming convention?
pub fn is_stream_const(name: &str) -> bool {
    name.ends_with("_STREAM_LABEL") || name.ends_with("_STREAM_BASE")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_full;
    use crate::parser::parse_file;

    fn unit(rel_path: &str, src: &str) -> Unit {
        let lexed = lex_full(src);
        let parsed = parse_file(&lexed.tokens);
        Unit { rel_path: rel_path.to_string(), lexed, parsed }
    }

    #[test]
    fn digest_idents_union_across_files() {
        let units = vec![
            unit(
                "crates/a/src/stats.rs",
                "pub struct Stats { pub sent: u64, pub lost: u64 }\n",
            ),
            unit(
                "crates/a/src/fold.rs",
                "impl Stats { pub fn write_digest(&self, d: &mut Digest) { d.u64(self.sent); } }\n",
            ),
            unit(
                "crates/b/src/statfold.rs",
                "impl InjectorStats for Stats { fn write_digest(&self, d: &mut Digest) { d.u64(self.lost); } }\n",
            ),
        ];
        let g = SymbolGraph::build(&units);
        let ids = g.digest_idents("Stats").expect("two bodies exist");
        assert!(ids.contains("sent") && ids.contains("lost"));
        assert!(g.digest_idents("Nothing").is_none());
    }

    #[test]
    fn owners_by_field_name() {
        let u = unit(
            "crates/rdcn/src/shard.rs",
            "pub struct ShardedEmulator { shards: Vec<Mutex<RackShard>> }\n\
             pub struct Mailboxes { boxes: Vec<Mutex<Vec<Msg>>> }\n\
             pub struct RackShard { mail: Arc<Mailboxes> }\n",
        );
        let units = vec![u];
        let g = SymbolGraph::build(&units);
        let leaders = g.owners_of(&units[0], "shards");
        assert!(leaders.contains("ShardedEmulator"));
        assert!(!leaders.contains("RackShard"));
        let mailboxes = g.owners_of(&units[0], "boxes");
        assert_eq!(mailboxes.into_iter().collect::<Vec<_>>(), ["Mailboxes"]);
    }

    #[test]
    fn stream_const_naming() {
        assert!(is_stream_const("FAULT_STREAM_LABEL"));
        assert!(is_stream_const("RACK_STREAM_BASE"));
        assert!(!is_stream_const("STREAM_LABELS"));
    }
}
