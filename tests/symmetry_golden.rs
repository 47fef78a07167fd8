//! Golden certified-symmetry fixture for the task complexes.
//!
//! The solver's orbit branching and the sweeps' canonical dedup both
//! consume the symmetry set that `task_symmetries` certifies for a task
//! complex, in its output order, and the subset that
//! `PreparedInstance::attach_symmetries` keeps. This test pins both on
//! every point of the build-order grid (the point names are read from
//! `tests/fixtures/build_order.txt`, which already holds the benchmark
//! `sweep` groups): for each point it hashes every returned symmetry's
//! vertex image table and value image table, in output order, with
//! FNV-1a 64, and compares the count, the digest and the kept count
//! against `tests/fixtures/symmetries.txt`.
//!
//! A certification change that keeps this test green returns the same
//! symmetries in the same order as the code that recorded the fixture.
//! To re-record after a change that is *meant* to alter the set, run
//!
//! ```text
//! cargo test --release --test symmetry_golden -- --ignored regenerate
//! ```
//!
//! which rewrites the fixture and prints each point's certification
//! time.

use std::collections::BTreeSet;
use std::time::Instant;

use pseudosphere::agreement::{
    allowed_values, allowed_values_ss, task_symmetries, InstanceSymmetry, PreparedInstance,
    SweepKey, SymmetricView, TaskParts,
};
use pseudosphere::models::{process_transpositions, GraphFamily};
use pseudosphere::topology::{IdComplex, VertexPool};

const GRID: &str = "tests/fixtures/build_order.txt";
const FIXTURE: &str = "tests/fixtures/symmetries.txt";

/// FNV-1a 64 (the same hash as the build-order fixture).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// One grid point: the shared key of its instance family and the top
/// input value `k` (value domain `{0..=k}`).
struct Point {
    name: String,
    key: SweepKey,
    k: u64,
}

/// Parses a build-order point name such as
/// `semisync n+1=4 kpr=1 f=2 p=2 r=2 k=1`.
fn parse_point(name: &str) -> Point {
    let mut words = name.split_whitespace();
    let model = words.next().expect("model name");
    let fields: Vec<(&str, &str)> = words
        .map(|w| w.split_once('=').expect("field=value"))
        .collect();
    let field = |f: &str| -> &str {
        fields
            .iter()
            .find(|(k, _)| *k == f)
            .unwrap_or_else(|| panic!("{name}: no field {f}"))
            .1
    };
    let num = |f: &str| -> usize { field(f).parse().expect("numeric field") };
    let n_plus_1 = num("n+1");
    let rounds = num("r");
    let key = match model {
        "async" => SweepKey::Async {
            f: num("f"),
            n_plus_1,
            rounds,
        },
        "sync" => SweepKey::Sync {
            f: num("f"),
            n_plus_1,
            k_per_round: num("kpr"),
            rounds,
        },
        "semisync" => SweepKey::SemiSync {
            f: num("f"),
            n_plus_1,
            k_per_round: num("kpr"),
            microrounds: num("p") as u32,
            rounds,
        },
        "byzantine" => SweepKey::Byzantine {
            t: num("t"),
            n_plus_1,
            rounds,
        },
        "dynamic" => SweepKey::Dynamic {
            n_plus_1,
            family: GraphFamily::from_name(field("family")).expect("graph family"),
            rounds,
        },
        other => panic!("{name}: unknown model {other}"),
    };
    Point {
        name: name.to_string(),
        key,
        k: num("k") as u64,
    }
}

/// The build-order grid, in fixture order.
fn grid() -> Vec<Point> {
    let text = std::fs::read_to_string(path(GRID)).expect("build-order fixture present");
    text.lines()
        .map(|l| parse_point(l.split(" vertices=").next().expect("point name")))
        .collect()
}

fn n_plus_1(key: &SweepKey) -> usize {
    match *key {
        SweepKey::Async { n_plus_1, .. }
        | SweepKey::Sync { n_plus_1, .. }
        | SweepKey::SemiSync { n_plus_1, .. }
        | SweepKey::Byzantine { n_plus_1, .. }
        | SweepKey::Dynamic { n_plus_1, .. } => n_plus_1,
    }
}

/// Certifies one complex's symmetries and renders the fixture line
/// tail: `symmetries=<S> fnv=<digest> kept=<K>`.
fn certify<V: SymmetricView>(
    pool: &VertexPool<V>,
    complex: &IdComplex,
    allowed: impl FnMut(&V) -> BTreeSet<u64>,
    n_plus_1: usize,
    values: &BTreeSet<u64>,
) -> String {
    let gens = process_transpositions(n_plus_1);
    let syms: Vec<InstanceSymmetry> = task_symmetries(pool, complex, n_plus_1, &gens, values);
    let mut h = Fnv::new();
    h.u32(syms.len() as u32);
    for sym in &syms {
        h.u32(pool.len() as u32);
        for v in 0..pool.len() {
            h.u32(sym.vertex_image(v) as u32);
        }
        h.u32(values.len() as u32);
        for x in 0..values.len() as u64 {
            h.u64(sym.value_image(x));
        }
    }
    let count = syms.len();
    let kept = PreparedInstance::from_interned(pool, complex, allowed).attach_symmetries(syms);
    format!("symmetries={count} fnv={:016x} kept={kept}", h.0)
}

impl Point {
    /// Builds the point's task complex, certifies it and renders its
    /// fixture line.
    fn line(&self) -> String {
        let values: BTreeSet<u64> = (0..=self.k).collect();
        let n = n_plus_1(&self.key);
        let tail = match self.key.parts(&values) {
            TaskParts::Views(pool, c) => certify(&pool, &c, allowed_values, n, &values),
            TaskParts::SsViews(pool, c) => certify(&pool, &c, allowed_values_ss, n, &values),
        };
        format!("{} {tail}", self.name)
    }
}

fn path(rel: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

#[test]
fn task_symmetries_match_the_golden_fixture() {
    let expected = std::fs::read_to_string(path(FIXTURE)).expect("fixture present");
    let expected: Vec<&str> = expected.lines().collect();
    let points = grid();
    assert_eq!(
        expected.len(),
        points.len(),
        "fixture has {} lines for a {}-point grid",
        expected.len(),
        points.len()
    );
    let mismatches: Vec<String> = points
        .iter()
        .zip(&expected)
        .filter_map(|(p, want)| {
            let got = p.line();
            (got != *want).then(|| format!("  want {want}\n   got {got}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} symmetry sets differ from the golden fixture:\n{}",
        mismatches.len(),
        points.len(),
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/fixtures/symmetries.txt; run only to re-record"]
fn regenerate() {
    let mut out = String::new();
    for p in grid() {
        let start = Instant::now();
        let l = p.line();
        println!("{:>8.3}s  {l}", start.elapsed().as_secs_f64());
        out.push_str(&l);
        out.push('\n');
    }
    std::fs::write(path(FIXTURE), out).expect("fixture written");
}
