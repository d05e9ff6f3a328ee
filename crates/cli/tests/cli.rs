//! End-to-end tests of the `dvicl` binary.

use std::io::Write;
use std::process::{Command, Stdio};

fn dvicl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn canon_on_inline_graph6() {
    let (stdout, _, ok) = dvicl(&["canon", "g6:C~"]); // K4
    assert!(ok);
    assert!(stdout.contains("n: 4  m: 6"));
    assert!(stdout.contains("certificate (canonical graph6): C~"));
}

#[test]
fn aut_of_petersen() {
    // Published graph6 string of the Petersen graph.
    let (stdout, _, ok) = dvicl(&["aut", "g6:IheA@GUAo"]);
    assert!(ok);
    assert!(stdout.contains("|Aut(G)| = 120"));
    assert!(stdout.contains("orbits: 1 (0 singletons)"));
}

#[test]
fn iso_distinguishes() {
    // C6 vs K3,3-prism style pair via inline literals: encode with the
    // library first.
    use dvicl_graph::{graph6, named};
    let c6 = format!("g6:{}", graph6::to_graph6(&named::cycle(6)));
    let two_tri = format!(
        "g6:{}",
        graph6::to_graph6(&named::cycle(3).disjoint_union(&named::cycle(3)))
    );
    let (stdout, _, ok) = dvicl(&["iso", &c6, &two_tri]);
    assert!(ok);
    assert!(stdout.contains("isomorphic: no"));
    let (stdout, _, _) = dvicl(&["iso", &c6, &c6]);
    assert!(stdout.contains("isomorphic: yes"));
    assert!(stdout.contains("mapping: "));
}

/// Parses cycle notation (`(1,7)(3,6,5)`, or `()`) into a permutation
/// of `0..n`.
fn parse_cycles(n: usize, text: &str) -> dvicl_graph::Perm {
    let cycles: Vec<Vec<u32>> = text
        .split(['(', ')'])
        .filter(|c| !c.is_empty())
        .map(|c| c.split(',').map(|v| v.parse().unwrap()).collect())
        .collect();
    let refs: Vec<&[u32]> = cycles.iter().map(Vec::as_slice).collect();
    dvicl_graph::Perm::from_cycles(n, &refs).unwrap()
}

/// The text after `prefix` on the one stdout line that starts with it.
fn line_after<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

#[test]
fn iso_mapping_composes_the_canon_labelings() {
    // `iso G H` must answer with λ_G·λ_H⁻¹ of the labelings `canon`
    // prints under the same flags: same leaf configuration, same
    // --target-cell.
    let (g, h) = ("g6:HhCGGE@", "g6:H`GQ?UC");
    for flags in [
        &[][..],
        &["--target-cell", "first"],
        &["--target-cell", "largest"],
        &["--target-cell", "most-constrained"],
    ] {
        let run = |args: &[&str]| {
            let (stdout, stderr, ok) = dvicl(&[flags, args].concat());
            assert!(ok, "{flags:?} {args:?}: {stderr}");
            stdout
        };
        let lambda_g = parse_cycles(9, line_after(&run(&["canon", g]), "canonical labeling: "));
        let lambda_h = parse_cycles(9, line_after(&run(&["canon", h]), "canonical labeling: "));
        let iso = run(&["iso", g, h]);
        assert_eq!(line_after(&iso, "isomorphic: "), "yes");
        let expected = lambda_g.then(&lambda_h.inverse());
        assert_eq!(line_after(&iso, "mapping: "), expected.to_string(), "{flags:?}");
    }
}

#[test]
fn tree_stats_and_render() {
    use dvicl_graph::{graph6, named};
    let fig1 = format!("g6:{}", graph6::to_graph6(&named::fig1_example()));
    let (stdout, _, ok) = dvicl(&["tree", &fig1, "--render"]);
    assert!(ok);
    assert!(stdout.contains("nodes: 7"));
    assert!(stdout.contains("non-singleton leaves: 1"));
}

#[test]
fn ssm_counts() {
    use dvicl_graph::{graph6, named};
    let fig1 = format!("g6:{}", graph6::to_graph6(&named::fig1_example()));
    let (stdout, _, ok) = dvicl(&["ssm", &fig1, "4"]);
    assert!(ok);
    assert!(stdout.contains("images under Aut(G): 3"));
}

#[test]
fn ssm_rejects_a_bad_or_missing_limit() {
    // A malformed `--limit` is a typed usage error (exit 2), never a
    // silent fallback to the default limit.
    let petersen_edge = ["ssm", "g6:IheA@GUAo", "0,1"];
    for tail in [&["--limit", "abc"][..], &["--limit"]] {
        let args = [&petersen_edge[..], tail].concat();
        let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
            .args(&args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            out.stdout.is_empty(),
            "{args:?}: no partial answer on stdout"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--limit"), "{args:?}: {stderr}");
    }
    // A valid limit below the 15 edge images lists the first 3 of them,
    // in the order the complete listing (default limit 20) starts with.
    let listed = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.starts_with("  ["))
            .map(str::to_string)
            .collect()
    };
    let (stdout, _, ok) = dvicl(&[&petersen_edge[..], &["--limit", "3"]].concat());
    assert!(ok);
    assert!(stdout.contains("images under Aut(G): 15"), "got: {stdout}");
    assert!(stdout.contains("first 3 matches:\n"), "got: {stdout}");
    let (complete, _, ok) = dvicl(&petersen_edge);
    assert!(ok);
    assert!(
        complete.contains("first 15 matches (complete):"),
        "got: {complete}"
    );
    assert_eq!(listed(&stdout), listed(&complete)[..3]);
}

#[test]
fn one_shot_subcommands_reject_extra_arguments() {
    // A surplus operand or a flag the subcommand does not take is a
    // usage error (exit 2), never silently dropped.
    for args in [
        &["canon", "g6:Bw", "extra"][..],
        &["canon", "g6:Bw", "g6:C~"],
        &["aut", "g6:Bw", "--render"],
        &["iso", "g6:Bw", "g6:Bw", "g6:Bw"],
        &["ssm", "g6:IheA@GUAo", "0,1", "--render"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: no answer on stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unexpected argument"), "{args:?}: {stderr}");
    }
}

#[test]
fn reads_edge_list_from_stdin() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"# triangle\n0 1\n1 2\n2 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("n: 3  m: 3"));
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let (_, stderr, ok) = dvicl(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn dataset_emits_edge_list() {
    let (stdout, _, ok) = dvicl(&["dataset", "wikivote"]);
    assert!(ok);
    assert!(stdout.starts_with("# nodes:"));
    let (_, stderr, ok) = dvicl(&["dataset", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown dataset"));
}

#[test]
fn convert_roundtrip() {
    let (g6line, _, ok) = dvicl(&["convert", "g6:IheA@GUAo"]);
    assert!(ok);
    // Converting an inline graph6 yields an edge list...
    assert!(g6line.contains("# nodes: 10 edges: 15"));
}

#[test]
fn second_stdin_read_is_a_clear_error() {
    // `iso - -` used to silently read an empty second graph; now the
    // second `-` must fail with a typed message and exit code 2.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["iso", "-", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"0 1\n1 2\n2 0\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stdin") && stderr.contains("already consumed"),
        "stderr must explain the double stdin read, got: {stderr}"
    );
}

#[test]
fn timeout_exits_3_within_twice_the_deadline() {
    use std::time::{Duration, Instant};
    // A CFI instance over a cubic circulant: hard enough that the
    // unbudgeted debug-build run takes seconds, so a 300 ms deadline is
    // guaranteed to fire mid-search.
    let base = dvicl_data::bench_graphs::cubic_circulant(200);
    let hard = dvicl_data::bench_graphs::cfi(&base, false);
    let path = std::env::temp_dir().join(format!("dvicl-hard-{}.g6", std::process::id()));
    std::fs::write(&path, dvicl_graph::graph6::to_graph6(&hard)).unwrap();
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--timeout", "300ms", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let elapsed = t0.elapsed();
    std::fs::remove_file(&path).ok();
    assert_eq!(out.status.code(), Some(3), "budget exhaustion must exit 3");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exceeded"), "got: {stderr}");
    assert!(
        elapsed < Duration::from_millis(600),
        "a 300 ms deadline must abort within ~2x, took {elapsed:?}"
    );
}

#[test]
fn max_nodes_degrades_gracefully() {
    // A node budget far too small for the divided build: the run must
    // still succeed (whole-graph fallback), note the degradation on
    // stderr, and print a certificate.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--max-nodes", "2", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "got: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("n: 10  m: 15"));
    assert!(stdout.contains("certificate (canonical graph6):"));
}

#[test]
fn malformed_input_exits_2() {
    let (_, stderr, _) = dvicl(&["canon", "g6:C"]); // truncated graph6
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:C"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr.contains("parse error"), "got: {stderr}");
    // Bad flag values are input errors too.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--timeout", "banana", "g6:C~"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn paranoid_verifies_results() {
    // Witness checks pass on healthy runs and say so on stderr.
    let (stdout, stderr, ok) = dvicl(&["canon", "--paranoid", "g6:IheA@GUAo"]);
    assert!(ok, "paranoid canon failed: {stderr}");
    assert!(stdout.contains("certificate (canonical graph6):"));
    assert!(stderr.contains("paranoid: tree witness checks passed"), "got: {stderr}");

    let (stdout, stderr, ok) = dvicl(&["iso", "--paranoid", "g6:IheA@GUAo", "g6:IheA@GUAo"]);
    assert!(ok, "paranoid iso failed: {stderr}");
    assert!(stdout.contains("isomorphic: yes"));
    assert!(stderr.contains("paranoid: iso mapping witness checks passed"), "got: {stderr}");
}

#[test]
fn paranoid_covers_degraded_results() {
    // A degraded run must pass the same witness checks and carry both
    // the degradation marker and the paranoid confirmation.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--paranoid", "--max-nodes", "2", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("degraded"), "got: {stderr}");
    assert!(stderr.contains("paranoid: tree witness checks passed"), "got: {stderr}");
}

#[test]
fn fault_plan_flag_trips_deterministically() {
    // Tripping the work budget at the first build checkpoint degrades
    // the run (marker on stderr, exit 0) — the resilient path treats an
    // injected WorkUnits trip exactly like a real one.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--paranoid", "--fault-plan", "trip@core.build_node:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "got: {stderr}");
    assert!(stderr.contains("degraded"), "got: {stderr}");
    assert!(stderr.contains("paranoid: tree witness checks passed"), "got: {stderr}");

    // Cancellation is not degradable: typed error, exit 3.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "cancel@core.build_node:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cancelled"), "got: {stderr}");

    // An injected parse fault surfaces as a parse error, exit 2.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "parse@graph.graph6:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fault_plan_env_var_is_honored() {
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:IheA@GUAo"])
        .env("DVICL_FAULT_PLAN", "cancel@govern.spend:1")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(3));

    // A malformed plan spec is a usage-level input error.
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:C~"])
        .env("DVICL_FAULT_PLAN", "explode@everything")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "nope", "g6:C~"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn fault_plan_with_an_unknown_site_is_rejected() {
    // A misspelled site would inject nothing; it is bad input (exit 2)
    // whose message lists the valid sites, from the flag and the
    // environment alike.
    let flag = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "--fault-plan", "trip@core.buildnode:1", "g6:IheA@GUAo"])
        .output()
        .expect("binary runs");
    let env = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["canon", "g6:IheA@GUAo"])
        .env("DVICL_FAULT_PLAN", "trip@core.buildnode:1")
        .output()
        .expect("binary runs");
    for out in [flag, env] {
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown fault site 'core.buildnode'"), "got: {stderr}");
        assert!(stderr.contains("core.build_node"), "got: {stderr}");
    }
}

#[test]
fn quotient_of_petersen_collapses() {
    let (stdout, _, ok) = dvicl(&["quotient", "g6:IheA@GUAo"]);
    assert!(ok);
    assert!(stdout.contains("quotient: n = 1, m = 0"));
    assert!(stdout.contains("entropy = 0.0000"));
}

/// Runs the binary with `input` piped to stdin; returns stdout, stderr
/// and the exit code.
fn dvicl_stdin(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // A process that fails before reading stdin (e.g. an unusable
    // --index file) closes the pipe early; that is the scenario under
    // test, not a harness error.
    let _ = child.stdin.as_mut().unwrap().write_all(input.as_bytes());
    let out = child.wait_with_output().unwrap();
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// A scratch path that is removed when the value drops.
struct TempPath(std::path::PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        TempPath(std::env::temp_dir().join(format!("dvicl-cli-{tag}-{}", std::process::id())))
    }

    fn as_str(&self) -> &str {
        self.0.to_str().unwrap()
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn batch_protocol_answers_inserts_and_lookups() {
    // Petersen twice (one g6:, one as an inline edge list of the
    // isomorphic Kneser construction is overkill — relabeled g6 works),
    // a pentagon, and queries against both.
    let queries = "\
# corpus
insert g6:IheA@GUAo
insert el:0-1,1-2,2-3,3-4,4-0

lookup el:1-2,2-3,3-4,4-5,5-1
insert g6:IheA@GUAo
groupsize g6:IheA@GUAo
lookup el:0-1
";
    let (stdout, stderr, code) = dvicl_stdin(&["batch"], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        [
            "insert: class=0 members=1 fresh",
            "insert: class=1 members=1 fresh",
            "lookup: class=1 members=1",
            "insert: class=0 members=2 known",
            "groupsize: 2",
            "lookup: not-indexed",
        ],
        "stdout: {stdout}"
    );
    assert!(
        stderr.contains("served 6 requests (0 errors); index: 2 classes, 3 members"),
        "stderr: {stderr}"
    );
}

#[test]
fn batch_request_errors_stay_inline() {
    // Malformed specs and unknown commands answer `error:` lines and
    // the stream keeps going with exit 0.
    let queries = "\
insert el:0-x
frobnicate g6:C~
insert nope
insert g6:C~ extra
lookup g6:C~
";
    let (stdout, stderr, code) = dvicl_stdin(&["batch"], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "stdout: {stdout}");
    for line in &lines[..4] {
        assert!(line.starts_with("error: "), "got: {line}");
    }
    assert_eq!(lines[4], "lookup: not-indexed");
    assert!(stderr.contains("(4 errors)"), "stderr: {stderr}");
}

#[test]
fn batch_per_request_budget_trips_inline() {
    // Three work units cannot canonicalize Petersen, but the tripped
    // request must not take the service down: the pentagon after it
    // still gets a real answer.
    let queries = "\
insert g6:IheA@GUAo
insert el:0-1,1-2,2-3,3-4,4-0
";
    let (stdout, stderr, code) = dvicl_stdin(&["batch", "--req-max-nodes", "40"], queries);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "stdout: {stdout}");
    assert!(
        lines[0].starts_with("error: ") && lines[0].contains("budget"),
        "got: {}",
        lines[0]
    );
    assert_eq!(lines[1], "insert: class=0 members=1 fresh");
}

#[test]
fn batch_saves_an_index_that_serve_reloads() {
    let path = TempPath::new("roundtrip");
    let (_, stderr, code) = dvicl_stdin(
        &["batch", "--save", path.as_str()],
        "insert g6:IheA@GUAo\ninsert g6:IheA@GUAo\ninsert el:0-1,1-2,2-0\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    // `serve` flushes per response and stops at `quit`; --paranoid makes
    // the load re-derive every stored fingerprint.
    let (stdout, stderr, code) = dvicl_stdin(
        &["serve", "--index", path.as_str(), "--paranoid"],
        "groupsize g6:IheA@GUAo\nlookup el:0-1,1-2,2-0\nquit\nlookup g6:C~\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        lines,
        ["groupsize: 2", "lookup: class=1 members=1"],
        "lines after quit must not be answered; stdout: {stdout}"
    );
}

#[test]
fn batch_rejects_a_corrupt_index_file() {
    let path = TempPath::new("corrupt");
    std::fs::write(&path.0, b"not a DVIX1 file at all").unwrap();
    let (_, stderr, code) = dvicl_stdin(&["batch", "--index", path.as_str()], "lookup g6:C~\n");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("error:"), "stderr: {stderr}");
}

#[test]
fn batch_fault_injection_covers_the_index_checkpoints() {
    // An injected fault at index.insert is a per-request error: the
    // service answers it inline and keeps going.
    let (stdout, stderr, code) = dvicl_stdin(
        &["batch", "--fault-plan", "trip@index.insert:2"],
        "insert g6:C~\ninsert g6:C~\ninsert g6:C~\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "insert: class=0 members=1 fresh");
    assert!(lines[1].starts_with("error: "), "got: {}", lines[1]);
    assert_eq!(lines[2], "insert: class=0 members=2 known");

    // At index.load the index is unusable: a process-level typed exit.
    let path = TempPath::new("faultload");
    let (_, _, code) = dvicl_stdin(
        &["batch", "--save", path.as_str()],
        "insert g6:C~\n",
    );
    assert_eq!(code, Some(0));
    let (_, stderr, code) = dvicl_stdin(
        &["batch", "--index", path.as_str(), "--fault-plan", "trip@index.load:1"],
        "lookup g6:C~\n",
    );
    assert_eq!(code, Some(3), "stderr: {stderr}");
}

/// The `(label, calls, total_ms, self_ms)` phase rows of the final
/// summary line in a `--trace-json` file.
fn trace_phases(path: &TempPath) -> Vec<(String, u64, f64, f64)> {
    let text = std::fs::read_to_string(&path.0).unwrap();
    let summary = text
        .lines()
        .last()
        .filter(|l| l.starts_with(r#"{"type":"summary""#))
        .unwrap_or_else(|| panic!("no final summary line: {text:?}"));
    let rows = summary.split(r#""phases":["#).nth(1).unwrap();
    let rows = &rows[..rows.find(']').unwrap()];
    rows.split("},{")
        .filter(|r| !r.is_empty())
        .map(|row| {
            let field = |key: &str| {
                let rest = row.split(&format!("\"{key}\":")).nth(1).unwrap();
                rest.split([',', '}'])
                    .next()
                    .unwrap()
                    .trim_matches('"')
                    .to_string()
            };
            let num = |key: &str| field(key).parse::<f64>().unwrap();
            (
                field("label"),
                field("calls").parse().unwrap(),
                num("total_ms"),
                num("self_ms"),
            )
        })
        .collect()
}

#[test]
fn a_whole_run_decomposes_under_one_cli_run_span() {
    // (args, stdin, exit code): every subcommand shape, a budget trip and
    // a parse error — a failed run keeps its phase rows too.
    let petersen = "g6:IheA@GUAo";
    let cases: [(&[&str], &str, i32); 7] = [
        (&["canon", petersen], "", 0),
        (&["aut", petersen], "", 0),
        (&["iso", petersen, petersen], "", 0),
        (&["tree", petersen, "--render"], "", 0),
        (
            &["batch"],
            "insert g6:IheA@GUAo\nlookup el:0-1,1-2,2-0\n",
            0,
        ),
        (&["--timeout", "0ms", "canon", "g6:Bw"], "", 3),
        (&["canon", "g6:C"], "", 2),
    ];
    for (i, (args, input, want)) in cases.into_iter().enumerate() {
        let trace = TempPath::new(&format!("whole-run-{i}"));
        let mut full = vec!["--trace-json", trace.as_str()];
        full.extend_from_slice(args);
        let (_, stderr, code) = dvicl_stdin(&full, input);
        assert_eq!(code, Some(want), "{args:?}: {stderr}");
        let rows = trace_phases(&trace);
        let runs: Vec<_> = rows.iter().filter(|r| r.0 == "cli.run").collect();
        assert!(
            runs.len() == 1 && runs[0].1 == 1,
            "{args:?}: one cli.run span: {rows:?}"
        );
        assert!(
            rows.iter().any(|r| r.0 == "graph.load"),
            "{args:?}: {rows:?}"
        );
        // In integer nanoseconds Σ self equals the root's total exactly;
        // 1 ns of slack covers the conversion to f64 milliseconds, so
        // even an empty span outside `cli.run` shows.
        let total = runs[0].2;
        let self_sum: f64 = rows.iter().map(|r| r.3).sum();
        assert!(
            (self_sum - total).abs() <= 1e-6,
            "{args:?}: Σ self {self_sum} ms vs cli.run total {total} ms: {rows:?}"
        );
    }
}

#[test]
fn a_closed_stdout_still_delivers_the_trace_summary() {
    // The Gnutella edge list (~100 KB) overflows the 64 KiB pipe buffer,
    // so a write fails however the timing falls.
    let trace = TempPath::new("closed-trace");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["--trace-json", trace.as_str(), "dataset", "Gnutella"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    assert_eq!(child.wait().unwrap().code(), Some(0));
    let rows = trace_phases(&trace);
    assert!(
        rows.iter().any(|r| r.0 == "cli.run" && r.1 == 1),
        "{rows:?}"
    );
}

#[test]
fn batch_saves_its_index_when_stdout_closes_early() {
    // 3,000 responses (~90 KB) overflow the pipe buffer: the service
    // stops reading requests, then still saves and summarizes.
    let queries = TempPath::new("closed-queries");
    std::fs::write(&queries.0, "insert g6:IheA@GUAo\n".repeat(3000)).unwrap();
    let index = TempPath::new("closed-index");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvicl"))
        .args(["batch", "--save", index.as_str(), queries.as_str()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let served: u64 = stderr
        .split("served ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no summary line: {stderr}"));
    assert!((1..3000).contains(&served), "stderr: {stderr}");
    // Every request served was inserted, and the saved index holds them.
    let (stdout, stderr, code) = dvicl_stdin(
        &["serve", "--index", index.as_str()],
        "groupsize g6:IheA@GUAo\n",
    );
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert_eq!(stdout.trim(), format!("groupsize: {served}"));
}
