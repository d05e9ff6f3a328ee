//! shared-state-screen: the Send-safety gate for the parallel build.
//!
//! ROADMAP item 1 moves `Sub`/`SubArena` values and the build/refine/
//! canon hot path onto worker threads. Two things would silently
//! poison that move:
//!
//! 1. **Process-global mutable state** — `static mut` anywhere, or a
//!    non-`thread_local` static whose type carries single-threaded
//!    interior mutability (`RefCell`, `Cell`, `Rc`, `UnsafeCell`).
//!    `thread_local!` statics are exempt: per-thread state is the
//!    *solution*, not the problem (obs spans already use it).
//! 2. **Single-threaded aliasing on the hot path** — `Rc`, `RefCell`,
//!    `Cell`, `UnsafeCell`, or raw pointers (`*const`/`*mut`) used by
//!    any function reachable, through the call graph, from the
//!    build/refine/canon roots. Those types make the values they touch
//!    `!Send`, so the parallel PR could not move the work.
//!
//! Atomics, `Mutex`/`RwLock`, and `OnceLock` pass: they are the
//! thread-safe idioms. The machine-readable Send-safety report for
//! `core::sub`/`core::arena` types (`--send-safety-report`) is built
//! on the same classification — see `crate::send_safety`.

use super::{Finding, Severity};
use crate::lexer::TokKind;
use crate::Workspace;

pub const ID: &str = "shared-state-screen";

/// Interior-mutability / aliasing markers that are `!Sync` (statics)
/// or `!Send` (hot-path values).
pub const UNSHAREABLE: [&str; 4] = ["RefCell", "Cell", "UnsafeCell", "Rc"];

/// Hot-path roots: every non-test function defined in these locations
/// seeds the reachability scan.
fn is_hot_root_file(rel: &str) -> bool {
    rel == "crates/core/src/build.rs"
        || rel.starts_with("crates/refine/src")
        || rel.starts_with("crates/canon/src")
}

/// Whether `name` occurs in `type_text` as a whole identifier (so `Rc`
/// does not match `Arc`).
pub fn type_mentions(type_text: &str, name: &str) -> bool {
    type_text
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|seg| seg == name)
}

pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();

    // 1. Statics, workspace-wide.
    for &r in &ws.symbols.statics {
        let file = &ws.files[r.file];
        let item = &file.items[r.item];
        if item.is_test {
            continue;
        }
        let name_tok = &file.toks[file.code[item.name_cp]];
        if item.is_mut {
            out.push(finding(
                file,
                name_tok,
                format!(
                    "`static mut {}` is unsynchronized global mutable state; use an atomic, \
                     a lock, or thread-local storage",
                    item.name
                ),
            ));
            continue;
        }
        if item.thread_local {
            continue;
        }
        if let Some(bad) = UNSHAREABLE
            .iter()
            .find(|m| type_mentions(&item.type_text, m))
        {
            out.push(finding(
                file,
                name_tok,
                format!(
                    "static `{}` carries `{bad}` ({}) — single-threaded interior mutability \
                     in a process-global; wrap it in thread_local! or use a Sync type",
                    item.name, item.type_text
                ),
            ));
        }
    }

    // 2. Functions reachable from the build/refine/canon hot path.
    let syms = &ws.symbols;
    let roots: Vec<bool> = (0..syms.fns.len())
        .map(|id| {
            let r = syms.fns[id];
            is_hot_root_file(&ws.files[r.file].rel) && !syms.fn_item(&ws.files, id).is_test
        })
        .collect();
    let hot = ws.calls.reachable_from(&roots);
    for (id, &is_hot) in hot.iter().enumerate() {
        if !is_hot {
            continue;
        }
        let r = syms.fns[id];
        let file = &ws.files[r.file];
        let item = &file.items[r.item];
        let Some((_, body_end)) = item.body else { continue };
        let mut seen: Vec<&str> = Vec::new();
        for cp in item.sig.0..body_end {
            let Some(&ti) = file.code.get(cp) else { break };
            let tok = &file.toks[ti];
            let marker = match tok.kind {
                TokKind::Ident => {
                    let t = tok.text(&file.src);
                    UNSHAREABLE.iter().copied().find(|&m| m == t)
                }
                TokKind::Punct(b'*') => {
                    // `*const` / `*mut`: a raw-pointer type.
                    match file.code.get(cp + 1) {
                        Some(&ni)
                            if file.toks[ni].kind == TokKind::Ident
                                && matches!(file.toks[ni].text(&file.src), "const" | "mut") =>
                        {
                            Some("raw pointer")
                        }
                        _ => None,
                    }
                }
                _ => None,
            };
            let Some(marker) = marker else { continue };
            if seen.contains(&marker) {
                continue;
            }
            seen.push(marker);
            out.push(finding(
                file,
                tok,
                format!(
                    "`{}` is reachable from the build/refine/canon hot path and uses \
                     {marker} — `!Send` aliasing the parallel build cannot move across \
                     threads; use owned/atomic/locked state or justify with a pragma",
                    item.name
                ),
            ));
        }
    }
    out
}

fn finding(file: &crate::FileData, tok: &crate::lexer::Tok, message: String) -> Finding {
    Finding {
        rule: ID,
        severity: Severity::Deny,
        file: file.rel.clone(),
        line: tok.line,
        col: tok.col,
        byte: tok.start,
        message,
    }
}

#[cfg(test)]
mod tests {
    use super::ID;
    use crate::lint_source;

    #[test]
    fn static_mut_and_global_refcell_are_flagged() {
        let src = "
            static mut HITS: usize = 0;
            static CACHE: RefCell<Vec<u8>> = RefCell::new(Vec::new());
            static OK: AtomicU64 = AtomicU64::new(0);
        ";
        let (findings, _) = lint_source("crates/obs/src/x.rs", src);
        assert_eq!(findings.iter().filter(|f| f.rule == ID).count(), 2, "{findings:?}");
    }

    #[test]
    fn thread_local_refcell_is_exempt() {
        let src = "
            thread_local! {
                static STACK: RefCell<Vec<u8>> = RefCell::new(Vec::new());
            }
        ";
        let (findings, _) = lint_source("crates/obs/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn rc_is_flagged_only_when_reachable_from_a_hot_root() {
        // Two files: the hot root calls `helper` in a cold module;
        // `cold` has the same Rc but no path from the hot roots.
        let build = "
            pub fn build_node(n: usize) -> usize {
                helper(n)
            }
        ";
        let util = "
            pub fn helper(n: usize) -> usize {
                let shared: Rc<Vec<u8>> = Rc::new(Vec::new());
                shared.len() + n
            }
            pub fn cold(n: usize) -> usize {
                let also: Rc<u8> = Rc::new(0);
                n + (*also as usize)
            }
        ";
        let ws = crate::Workspace::analyze(vec![
            ("crates/core/src/build.rs".to_string(), build.to_string()),
            ("crates/data/src/util.rs".to_string(), util.to_string()),
        ]);
        let report = ws.lint();
        let hits: Vec<_> = report.findings.iter().filter(|f| f.rule == ID).collect();
        assert_eq!(hits.len(), 1, "{:?}", report.findings);
        assert!(hits[0].message.contains("helper"), "{hits:?}");
    }

    #[test]
    fn arc_and_atomics_on_the_hot_path_pass() {
        let arc = "
            pub fn build_node(n: usize) -> usize {
                let shared: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
                shared.load(Ordering::Relaxed) as usize + n
            }
        ";
        let (findings, _) = lint_source("crates/core/src/build.rs", arc);
        assert!(findings.iter().all(|f| f.rule != ID), "{findings:?}");
    }
}
