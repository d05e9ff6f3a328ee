//! obs-span-naming: span labels are the keys of the phase-time table.
//!
//! DESIGN.md §9 fixes the convention: a label is a dot-path of at least
//! two `[a-z0-9_]+` segments whose first segment names the crate that
//! opens the span (`"canon.search"`, `"core.leaf_ir"`). A misspelled
//! label silently creates a new phase row instead of folding into the
//! intended one, so the convention is machine-checked: every string
//! literal passed to a `span(...)` / `span!(...)` call must parse as
//! such a dot-path with a known crate prefix.

use super::{code_tok, is_punct, FileCtx, Finding, Severity};
use crate::lexer::TokKind;

pub const ID: &str = "obs-span-naming";

/// First-segment vocabulary: the workspace's crate short names (plus
/// `dvicl` for the root crate).
const KNOWN_PREFIXES: [&str; 14] = [
    "graph", "govern", "group", "refine", "canon", "core", "apps", "data", "cli", "bench",
    "lint", "obs", "index", "dvicl",
];

fn is_segment(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// `Ok(())` for a well-formed label, `Err(reason)` otherwise.
fn validate(label: &str) -> Result<(), String> {
    let mut segments = label.split('.');
    // split() always yields at least one item.
    let first = segments.next().unwrap_or_default();
    if !KNOWN_PREFIXES.contains(&first) {
        return Err(format!(
            "first segment `{first}` is not a workspace crate (expected one of {})",
            KNOWN_PREFIXES.join(", ")
        ));
    }
    let mut rest = 0usize;
    for seg in segments {
        if !is_segment(seg) {
            return Err(format!(
                "segment `{seg}` is not lower_snake_case ([a-z0-9_]+)"
            ));
        }
        rest += 1;
    }
    if rest == 0 {
        return Err("label needs at least two dot-separated segments (crate.phase)".to_string());
    }
    Ok(())
}

pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    for pos in 0..ctx.code.len() {
        let Some(tok) = code_tok(ctx, pos, 0) else {
            continue;
        };
        if tok.kind != TokKind::Ident || ctx.text(tok) != "span" {
            continue;
        }
        // `span("...")` or the `span!("...")` macro form.
        let lit_at = if is_punct(ctx, pos, 1, b'(') {
            2
        } else if is_punct(ctx, pos, 1, b'!') && is_punct(ctx, pos, 2, b'(') {
            3
        } else {
            continue;
        };
        let Some(lit) = code_tok(ctx, pos, lit_at) else {
            continue;
        };
        if lit.kind != TokKind::StrLit {
            continue; // a non-literal label is out of this rule's reach
        }
        let text = ctx.text(lit);
        let label = text.trim_matches('"');
        if let Err(reason) = validate(label) {
            out.push(ctx.finding(
                ID,
                Severity::Deny,
                lit,
                format!("span label \"{label}\" breaks the crate.phase convention: {reason}"),
            ));
        }
    }
    out
}
