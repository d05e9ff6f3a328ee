//! The Send-safety report: a machine-readable classification of the
//! `core::sub` / `core::arena` types the parallel-build PR (ROADMAP
//! item 1) will move across worker threads.
//!
//! For every struct, enum, and static declared in `crates/core/src/
//! sub.rs` and `crates/core/src/arena.rs`, each field's declared type
//! text is screened for the same `!Send` markers the
//! shared-state-screen rule uses (`Rc`, `RefCell`, `Cell`,
//! `UnsafeCell`, raw pointers) plus borrowed data (`&` in a field
//! type means the value cannot be moved to a worker that outlives the
//! borrow). A type with no flagged field is `send-ready`; one with any
//! flagged field is `blocked`, and the report names the field and the
//! marker so the parallel PR knows exactly what to restructure.
//!
//! The report is JSON (schema `dvicl-send-safety-v1`), emitted by
//! `dvicl-lint --send-safety-report <FILE>` and archived by the CI
//! lint job. Like the rest of the linter it is a *screen*, not a
//! proof: it reads declared type text, not resolved types, so a
//! type alias hiding an `Rc` would pass here and be caught by the
//! compiler the moment a `Send` bound appears.

use crate::parse::ItemKind;
use crate::rules::shared_state_screen::{type_mentions, UNSHAREABLE};
use crate::Workspace;
use std::fmt::Write as _;

/// The schema tag embedded in the report.
pub const SCHEMA: &str = "dvicl-send-safety-v1";

/// The files whose types the report covers.
pub const COVERED_FILES: [&str; 2] = ["crates/core/src/sub.rs", "crates/core/src/arena.rs"];

/// One field (or enum payload) verdict.
struct FieldVerdict {
    name: String,
    type_text: String,
    /// The `!Send` marker found in the type text, if any.
    marker: Option<&'static str>,
}

/// One covered type.
struct TypeVerdict {
    name: String,
    kind: &'static str,
    file: String,
    line: u32,
    fields: Vec<FieldVerdict>,
}

impl TypeVerdict {
    fn blocked(&self) -> bool {
        self.fields.iter().any(|f| f.marker.is_some())
    }
}

/// Screens one declared type text for `!Send` markers.
fn classify(type_text: &str) -> Option<&'static str> {
    if let Some(bad) = UNSHAREABLE.iter().find(|m| type_mentions(type_text, m)) {
        return Some(bad);
    }
    if type_text.contains("*const") || type_text.contains("*mut") {
        return Some("raw pointer");
    }
    if type_text.contains('&') {
        return Some("borrowed data");
    }
    None
}

/// Builds the JSON report over an analyzed workspace. Types appear in
/// declaration order per file, files in [`COVERED_FILES`] order.
pub fn report(ws: &Workspace) -> String {
    let mut types: Vec<TypeVerdict> = Vec::new();
    for covered in COVERED_FILES {
        let Some(file) = ws.file_by_rel(covered) else { continue };
        for item in &file.items {
            if item.is_test {
                continue;
            }
            let kind = match item.kind {
                ItemKind::Struct => "struct",
                ItemKind::Enum => "enum",
                ItemKind::Static => "static",
                _ => continue,
            };
            let name_tok = &file.toks[file.code[item.name_cp]];
            let fields = if kind == "static" {
                vec![FieldVerdict {
                    name: item.name.clone(),
                    type_text: item.type_text.clone(),
                    marker: classify(&item.type_text),
                }]
            } else {
                item.fields
                    .iter()
                    .map(|(name, ty)| FieldVerdict {
                        name: name.clone(),
                        type_text: ty.clone(),
                        marker: classify(ty),
                    })
                    .collect()
            };
            types.push(TypeVerdict {
                name: item.name.clone(),
                kind,
                file: file.rel.clone(),
                line: name_tok.line,
                fields,
            });
        }
    }

    let blocked = types.iter().filter(|t| t.blocked()).count();
    let mut out = String::new();
    let _ = write!(out, "{{\"schema\":{}", crate::report::json_str(SCHEMA));
    out.push_str(",\"files\":[");
    for (i, f) in COVERED_FILES.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&crate::report::json_str(f));
    }
    out.push_str("],\"types\":[");
    for (i, t) in types.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"kind\":{},\"file\":{},\"line\":{},\"status\":{},\"fields\":[",
            crate::report::json_str(&t.name),
            crate::report::json_str(t.kind),
            crate::report::json_str(&t.file),
            t.line,
            crate::report::json_str(if t.blocked() { "blocked" } else { "send-ready" }),
        );
        for (j, f) in t.fields.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"type\":{}",
                crate::report::json_str(&f.name),
                crate::report::json_str(&f.type_text),
            );
            if let Some(m) = f.marker {
                let _ = write!(out, ",\"marker\":{}", crate::report::json_str(m));
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    let _ = write!(
        out,
        "],\"summary\":{{\"types\":{},\"send_ready\":{},\"blocked\":{}}}}}",
        types.len(),
        types.len() - blocked,
        blocked
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_with(sub: &str, arena: &str) -> Workspace {
        Workspace::analyze(vec![
            ("crates/core/src/sub.rs".to_string(), sub.to_string()),
            ("crates/core/src/arena.rs".to_string(), arena.to_string()),
        ])
    }

    #[test]
    fn owned_types_are_send_ready() {
        let ws = ws_with(
            "pub struct Sub { pub n: usize, verts: Vec<u32> }",
            "pub struct SubArena { adj: Vec<u32>, peak: u64 }",
        );
        let r = report(&ws);
        assert!(r.contains("\"schema\":\"dvicl-send-safety-v1\""), "{r}");
        assert!(r.contains("\"name\":\"Sub\""), "{r}");
        assert!(r.contains("\"name\":\"SubArena\""), "{r}");
        assert!(r.contains("\"summary\":{\"types\":2,\"send_ready\":2,\"blocked\":0}"), "{r}");
        assert!(!r.contains("\"status\":\"blocked\""), "{r}");
    }

    #[test]
    fn rc_field_blocks_and_names_the_marker() {
        let ws = ws_with(
            "pub struct Sub { shared: Rc<Vec<u32>>, n: usize }",
            "",
        );
        let r = report(&ws);
        assert!(r.contains("\"status\":\"blocked\""), "{r}");
        assert!(r.contains("\"marker\":\"Rc\""), "{r}");
        assert!(r.contains("\"blocked\":1"), "{r}");
    }

    #[test]
    fn raw_pointer_and_borrow_fields_block() {
        let ws = ws_with(
            "pub struct A { p: *mut u8 }\npub struct B<'a> { s: &'a [u32] }",
            "",
        );
        let r = report(&ws);
        assert!(r.contains("\"marker\":\"raw pointer\""), "{r}");
        assert!(r.contains("\"marker\":\"borrowed data\""), "{r}");
        assert!(r.contains("\"blocked\":2"), "{r}");
    }

    #[test]
    fn test_only_types_are_excluded() {
        let ws = ws_with(
            "pub struct Sub { n: usize }\n#[cfg(test)]\nmod tests { struct Fixture { r: Rc<u8> } }",
            "",
        );
        let r = report(&ws);
        assert!(!r.contains("Fixture"), "{r}");
        assert!(r.contains("\"blocked\":0"), "{r}");
    }
}
