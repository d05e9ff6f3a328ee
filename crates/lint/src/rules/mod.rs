//! The rule framework: every rule sees one lexed file at a time and
//! emits findings with a rule id, severity, and `file:line:col` span.
//!
//! Applicability is decided here, not inside each rule: a rule declares
//! which crates it covers via [`RuleMeta::applies`], and the engine
//! (in `lib.rs`) strips `#[cfg(test)]` regions and suppressed lines
//! after the rules run. Rules therefore only contain matching logic.

use crate::lexer::{Tok, TokKind};

pub mod budget_reachability;
pub mod error_taxonomy;
pub mod narrowing_cast;
pub mod nested_vec_adjacency;
pub mod offline_guard;
pub mod panic_freedom;
pub mod unsafe_audit;

/// How severe a finding is. Every current rule is `Deny` (the binary
/// exits non-zero); the field exists so future advisory rules can ship
/// as `Warn` without changing the report format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Fails the lint run.
    Deny,
    /// Reported but does not fail the run.
    Warn,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// One reported violation.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule id (kebab-case), also the pragma key.
    pub rule: &'static str,
    pub severity: Severity,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// Byte offset of the anchoring token — used by the engine to drop
    /// findings inside `#[cfg(test)]` items; not part of the report.
    pub byte: usize,
    /// Human explanation of this specific violation.
    pub message: String,
}

/// Static description of a rule, used by `--list-rules`, the docs, and
/// pragma validation.
pub struct RuleMeta {
    pub id: &'static str,
    pub severity: Severity,
    /// One-line summary for the catalog.
    pub summary: &'static str,
    /// Whether the rule runs on a file belonging to `crate_name`
    /// (`"cli"`, `"core"`, ... — `"dvicl"` for the root crate).
    pub applies: fn(crate_name: &str) -> bool,
    /// The matcher itself.
    pub check: fn(&FileCtx) -> Vec<Finding>,
}

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated (also used by path-scoped
    /// rules such as nested-vec-adjacency).
    pub rel: &'a str,
    /// Crate the file belongs to (directory under `crates/`, or
    /// `"dvicl"` for the root `src/`).
    pub crate_name: &'a str,
    pub src: &'a str,
    /// The full token stream, comments included.
    pub toks: &'a [Tok],
    /// Indices into `toks` of the non-comment tokens, in order. Rules
    /// that match token sequences iterate this so interleaved comments
    /// cannot break a pattern.
    pub code: &'a [usize],
    /// Byte spans of `#[cfg(test)]` / `#[test]` items; findings inside
    /// are dropped by the engine, but rules may also consult this to
    /// avoid analyzing test-only functions.
    pub test_spans: &'a [(usize, usize)],
    /// Parsed items (fns with body spans, impls, structs, statics, …)
    /// — see [`crate::parse::items`].
    pub items: &'a [crate::parse::Item],
}

impl FileCtx<'_> {
    /// The text of a token.
    pub fn text(&self, tok: &Tok) -> &str {
        tok.text(self.src)
    }

    /// Whether a byte offset falls inside a test-only item.
    pub fn in_test(&self, byte: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// Builds a finding anchored at `tok`.
    pub fn finding(&self, meta_id: &'static str, severity: Severity, tok: &Tok, message: String) -> Finding {
        Finding {
            rule: meta_id,
            severity,
            file: self.rel.to_string(),
            line: tok.line,
            col: tok.col,
            byte: tok.start,
            message,
        }
    }
}

fn applies_everywhere(_crate_name: &str) -> bool {
    true
}

/// Library crates only: the `cli` binary and the `bench`/`lint` tooling
/// crates are allowed process/exit-code idioms and their own error
/// types; everything else must speak `DviclError`.
fn applies_to_library_crates(crate_name: &str) -> bool {
    !matches!(crate_name, "cli" | "bench" | "lint")
}

/// A workspace-level rule: sees the whole analyzed [`crate::Workspace`]
/// (symbol table, call graph, every file) instead of one file.
pub struct WsRuleMeta {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
    pub check: fn(&crate::Workspace) -> Vec<Finding>,
}

/// The rule catalog, in reporting order.
pub fn catalog() -> &'static [RuleMeta] {
    &[
        RuleMeta {
            id: panic_freedom::ID,
            severity: Severity::Deny,
            summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in non-test code",
            applies: applies_everywhere,
            check: panic_freedom::check,
        },
        RuleMeta {
            id: unsafe_audit::ID,
            severity: Severity::Deny,
            summary: "every unsafe block/impl needs an immediately preceding `// SAFETY:` comment",
            applies: applies_everywhere,
            check: unsafe_audit::check,
        },
        RuleMeta {
            id: error_taxonomy::ID,
            severity: Severity::Deny,
            summary: "library crates must use DviclError: no Box<dyn Error>, Result<_, String>, or stringly Err values",
            applies: applies_to_library_crates,
            check: error_taxonomy::check,
        },
        RuleMeta {
            id: narrowing_cast::ID,
            severity: Severity::Deny,
            summary: "narrowing `as u8/u16/u32` casts need a pragma or allowlist entry proving they cannot truncate",
            applies: applies_everywhere,
            check: narrowing_cast::check,
        },
        RuleMeta {
            id: nested_vec_adjacency::ID,
            severity: Severity::Deny,
            summary: "no `Vec<Vec<_>>` adjacency on the build/refine hot path — CSR/arena storage only",
            applies: applies_everywhere, // path-scoped inside the rule
            check: nested_vec_adjacency::check,
        },
        RuleMeta {
            id: offline_guard::ID,
            severity: Severity::Deny,
            summary: "no std::net / std::process outside the cli and bench crates",
            applies: |c| !matches!(c, "cli" | "bench"),
            check: offline_guard::check,
        },
    ]
}

/// The workspace-level rule catalog, in reporting order. These run
/// once per lint run over the whole [`crate::Workspace`].
pub fn ws_catalog() -> &'static [WsRuleMeta] {
    &[
        WsRuleMeta {
            id: budget_reachability::ID,
            severity: Severity::Deny,
            summary: "looping/recursive functions in refine/canon/core must reach the Budget machinery through the call graph",
            check: budget_reachability::check,
        },
    ]
}

/// Rule ids that pragmas may name: both catalogs plus the two pragma
/// meta-rules emitted by the engine itself.
pub fn known_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = catalog().iter().map(|m| m.id).collect();
    ids.extend(ws_catalog().iter().map(|m| m.id));
    ids.push(crate::PRAGMA_MISSING_REASON);
    ids.push(crate::PRAGMA_UNKNOWN_RULE);
    ids
}

/// Helper shared by sequence-matching rules: the code token at code
/// position `pos + ahead`, if any.
pub fn code_tok<'a>(ctx: &'a FileCtx, pos: usize, ahead: usize) -> Option<&'a Tok> {
    ctx.code.get(pos + ahead).map(|&i| &ctx.toks[i])
}

/// True when the code token at `pos + ahead` is the punct byte `b`.
pub fn is_punct(ctx: &FileCtx, pos: usize, ahead: usize, b: u8) -> bool {
    matches!(code_tok(ctx, pos, ahead), Some(t) if t.kind == TokKind::Punct(b))
}

/// True when the code token at `pos + ahead` is an identifier with
/// exactly this text.
pub fn is_ident(ctx: &FileCtx, pos: usize, ahead: usize, text: &str) -> bool {
    matches!(code_tok(ctx, pos, ahead), Some(t) if t.kind == TokKind::Ident && ctx.text(t) == text)
}
