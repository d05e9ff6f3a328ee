//! End-to-end tests of the `dvicl-lint` binary: exit codes, JSON mode,
//! and the zero-findings acceptance gate over the real workspace.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dvicl-lint"))
}

fn fixture(group: &str, name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(group)
        .join(name)
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists")
}

#[test]
fn workspace_is_lint_clean() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .output()
        .expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "workspace must have zero unsuppressed findings:\n{stdout}"
    );
    assert!(stdout.contains("0 finding(s)"), "{stdout}");
}

#[test]
fn tripping_fixture_exits_nonzero() {
    for (group, rel) in [
        ("panic_freedom", "crates/core/src/fixture.rs"),
        ("budget_reachability", "crates/refine/src/partition.rs"),
        ("unsafe_audit", "crates/core/src/fixture.rs"),
        ("error_taxonomy", "crates/core/src/fixture.rs"),
        ("narrowing_cast", "crates/core/src/fixture.rs"),
        ("offline_guard", "crates/core/src/fixture.rs"),
    ] {
        let out = bin()
            .arg("--root")
            .arg(workspace_root())
            .arg("--as")
            .arg(rel)
            .arg(fixture(group, "trip.rs"))
            .output()
            .expect("run dvicl-lint");
        assert_eq!(
            out.status.code(),
            Some(1),
            "{group}/trip.rs must exit 1:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn clean_fixture_exits_zero() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--as")
        .arg("crates/core/src/fixture.rs")
        .arg(fixture("panic_freedom", "clean.rs"))
        .output()
        .expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn json_mode_emits_structured_findings() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--as")
        .arg("crates/core/src/fixture.rs")
        .arg("--json")
        .arg(fixture("panic_freedom", "trip.rs"))
        .output()
        .expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(stdout.trim_start().starts_with("{\"findings\":["), "{stdout}");
    assert!(stdout.contains("\"rule\":\"panic-freedom\""), "{stdout}");
    assert!(stdout.contains("\"line\":"), "{stdout}");
}

#[test]
fn list_rules_covers_the_catalog() {
    let out = bin().arg("--list-rules").output().expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    let listed: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        [
            "panic-freedom",
            "unsafe-audit",
            "error-taxonomy",
            "narrowing-cast",
            "nested-vec-adjacency",
            "offline-guard",
            "budget-reachability",
            "pragma-missing-reason",
            "pragma-unknown-rule",
        ],
        "{stdout}"
    );
}

#[test]
fn github_format_emits_error_annotations() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("--as")
        .arg("crates/core/src/fixture.rs")
        .arg("--format")
        .arg("github")
        .arg(fixture("panic_freedom", "trip.rs"))
        .output()
        .expect("run dvicl-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        stdout.contains("::error file=crates/core/src/fixture.rs,line="),
        "{stdout}"
    );
    assert!(stdout.contains("title=panic-freedom::"), "{stdout}");
    assert!(stdout.contains("::notice title=dvicl-lint::"), "{stdout}");
}

#[test]
fn unknown_flag_exits_two() {
    let out = bin().arg("--frobnicate").output().expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unreadable_file_exits_two() {
    let out = bin()
        .arg("--root")
        .arg(workspace_root())
        .arg("does/not/exist.rs")
        .output()
        .expect("run dvicl-lint");
    assert_eq!(out.status.code(), Some(2));
}
