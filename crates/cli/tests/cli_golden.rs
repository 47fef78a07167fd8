//! Golden output fixture for the model-taking `psph` subcommands.
//!
//! Runs a fixed set of command lines — `solve` and `sweep` grids for all
//! five models, a `serve` session, `conform` on the sync and async
//! grids, and the f-vector and Betti lines of `homology` — and compares
//! their standard output byte for byte against
//! `tests/fixtures/cli_tables.txt`. Only timing tokens are masked: the
//! digits in front of `µs` and every `time:` line. Every run passes
//! `--threads 2`, so thread-dependent header text is fixed too.
//!
//! A change that keeps this test green prints the same verdicts, vertex
//! and facet counts, labels and tables as the code that recorded the
//! fixture. To re-record after a change that is *meant* to alter the
//! output, run
//!
//! ```text
//! cargo test -p ps-cli --test cli_golden -- --ignored regenerate
//! ```

use std::io::Write as _;
use std::process::{Command, Stdio};

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/cli_tables.txt");

const MODELS: [&str; 5] = ["async", "sync", "semisync", "byzantine", "dynamic"];

/// The `serve` session: one query per model, then a second batch that
/// repeats the first query (a session-cache hit).
const SERVE_INPUT: &str = "\
async 1 1 3 1
sync 1 1 3 2 1
semisync 1 1 3 1 1 2
byzantine 2 1 3 1
dynamic 1 3 1 strong

async 1 1 3 1
";

/// One fixture case: the arguments, optional stdin, and whether only
/// the header, f-vector and Betti lines are kept (homology, whose work
/// counters are an implementation detail of the reduction).
struct Case {
    args: Vec<String>,
    stdin: Option<&'static str>,
    homology_lines: bool,
}

fn case(args: &[&str]) -> Case {
    Case {
        args: args.iter().map(|s| s.to_string()).collect(),
        stdin: None,
        homology_lines: false,
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    for m in MODELS {
        out.push(case(&["solve", m, "--procs", "3"]));
        out.push(case(&["solve", m, "--procs", "3", "--k", "2"]));
    }
    // the k-per-round rule: kpr = min(k, f) once f ≥ 2
    for m in ["sync", "semisync"] {
        out.push(case(&["solve", m, "--procs", "3", "--f", "2", "--k", "2"]));
    }
    for m in MODELS {
        // dynamic r = 2 takes seconds; its r = 1 row covers the model
        let rounds = if m == "dynamic" { "1" } else { "2" };
        out.push(case(&[
            "sweep",
            m,
            "--procs",
            "3",
            "--k",
            "2",
            "--rounds",
            rounds,
            "--threads",
            "2",
        ]));
        out.push(case(&[
            "sweep",
            m,
            "--procs",
            "3",
            "--k",
            "2",
            "--independent",
            "--threads",
            "2",
        ]));
    }
    out.push(Case {
        args: ["serve", "--threads", "2"].map(String::from).to_vec(),
        stdin: Some(SERVE_INPUT),
        homology_lines: false,
    });
    for m in ["sync", "async"] {
        out.push(case(&[
            "conform",
            m,
            "--procs",
            "3",
            "--k",
            "2",
            "--threads",
            "2",
        ]));
    }
    for m in MODELS {
        let mut c = case(&["homology", m, "--procs", "3", "--k", "2", "--threads", "2"]);
        c.homology_lines = true;
        out.push(c);
    }
    let mut c = case(&[
        "homology",
        "sync",
        "--procs",
        "3",
        "--f",
        "2",
        "--k",
        "2",
        "--threads",
        "2",
    ]);
    c.homology_lines = true;
    out.push(c);
    out
}

/// Replaces the digits in front of every `µs` with `_` and every
/// `time:` line with a placeholder.
fn mask(line: &str) -> String {
    if line.trim_start().starts_with("time:") {
        return "  time: <masked>".to_string();
    }
    let mut out = String::new();
    let mut rest = line;
    while let Some(pos) = rest.find("µs") {
        let head = &rest[..pos];
        let digits = head.len() - head.trim_end_matches(|c: char| c.is_ascii_digit()).len();
        out.push_str(&head[..head.len() - digits]);
        if digits > 0 {
            out.push('_');
        }
        out.push_str("µs");
        rest = &rest[pos + "µs".len()..];
    }
    out.push_str(rest);
    out
}

fn run(c: &Case) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_psph"))
        .args(&c.args)
        .stdin(if c.stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    if let Some(input) = c.stdin {
        child
            .stdin
            .take()
            .expect("piped")
            .write_all(input.as_bytes())
            .expect("stdin accepts the session");
    }
    let out = child.wait_with_output().expect("binary exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut text = format!("$ psph {}\n", c.args.join(" "));
    for line in stdout.lines() {
        let keep = !c.homology_lines
            || line.contains("protocol complex:")
            || line.contains("f-vector:")
            || line.contains("Betti numbers:");
        if keep {
            text.push_str(&mask(line));
            text.push('\n');
        }
    }
    text.push_str(&format!("exit: {}\n\n", out.status.code().unwrap_or(-1)));
    text
}

fn render() -> String {
    cases().iter().map(run).collect()
}

#[test]
fn cli_tables_match_the_golden_fixture() {
    let expected = std::fs::read_to_string(FIXTURE).expect("fixture exists");
    let actual = render();
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        let window = |s: &str| -> String {
            s.lines()
                .skip(first.saturating_sub(3))
                .take(8)
                .collect::<Vec<_>>()
                .join("\n")
        };
        panic!(
            "CLI output differs from {FIXTURE} at line {}\n--- expected ---\n{}\n--- actual ---\n{}",
            first + 1,
            window(&expected),
            window(&actual)
        );
    }
}

#[test]
fn mask_hides_only_timing_tokens() {
    assert_eq!(
        mask("a k=1: solvable  [source=solved, 1017µs]"),
        "a k=1: solvable  [source=solved, _µs]"
    );
    assert_eq!(
        mask("  latency: mean 12µs, max 345µs"),
        "  latency: mean _µs, max _µs"
    );
    assert_eq!(mask("  time: complex 0.001s"), "  time: <masked>");
    assert_eq!(mask("k = 1..=2 (4 points)"), "k = 1..=2 (4 points)");
}

#[test]
#[ignore = "rewrites the fixture; run explicitly after an intended output change"]
fn regenerate() {
    std::fs::write(FIXTURE, render()).expect("fixture is writable");
}
