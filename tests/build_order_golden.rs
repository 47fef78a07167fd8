//! Golden build-order fixture for protocol-complex construction.
//!
//! Everything downstream of construction — `PreparedInstance`, certified
//! symmetries, structural store keys, solver statistics and witnesses —
//! depends not only on *which* complex a `*_task_parts` builder returns
//! but on the exact vertex-id order of its pool and the facet set over
//! those ids. This test pins both: for every point of a fixed grid it
//! hashes a deterministic byte encoding of the pool labels (in id order)
//! followed by the facets (as id lists, in facet order) with FNV-1a 64,
//! and compares against `tests/fixtures/build_order.txt`.
//!
//! A construction change that keeps this test green is byte-identical
//! to the code that recorded the fixture. To re-record after a change
//! that is *meant* to renumber vertices, run
//!
//! ```text
//! cargo test --release --test build_order_golden -- --ignored regenerate
//! ```
//!
//! which rewrites the fixture and prints each point's build time.

use std::collections::BTreeSet;
use std::time::Instant;

use pseudosphere::agreement::{
    async_task_parts, byzantine_task_parts, dynamic_task_parts, semisync_task_parts,
    sync_task_parts,
};
use pseudosphere::models::{GraphFamily, SsView, View};
use pseudosphere::topology::{IdComplex, VertexPool};

const FIXTURE: &str = "tests/fixtures/build_order.txt";

/// FNV-1a 64 (the same hash as the verdict store's record checksum).
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

/// A complete, injective byte encoding of a vertex label (unlike
/// `Debug`, which renders nested views only by their heard sets).
trait Encode {
    fn encode(&self, h: &mut Fnv);
}

impl Encode for View<u64> {
    fn encode(&self, h: &mut Fnv) {
        match self {
            View::Input { process, input } => {
                h.bytes(&[0]);
                h.u32(process.0);
                h.u64(*input);
            }
            View::Round { process, heard } => {
                h.bytes(&[1]);
                h.u32(process.0);
                h.u32(heard.len() as u32);
                for (q, v) in heard {
                    h.u32(q.0);
                    v.encode(h);
                }
            }
        }
    }
}

impl Encode for SsView<u64> {
    fn encode(&self, h: &mut Fnv) {
        match self {
            SsView::Input { process, input } => {
                h.bytes(&[0]);
                h.u32(process.0);
                h.u64(*input);
            }
            SsView::Round { process, heard } => {
                h.bytes(&[1]);
                h.u32(process.0);
                h.u32(heard.len() as u32);
                for (q, (mu, v)) in heard {
                    h.u32(q.0);
                    h.u32(*mu);
                    v.encode(h);
                }
            }
        }
    }
}

/// One fixture line: `<point> vertices=<V> facets=<F> fnv=<digest>`.
fn line<V: Encode + pseudosphere::topology::Label>(
    point: &str,
    pool: &VertexPool<V>,
    complex: &IdComplex,
) -> String {
    let mut h = Fnv::new();
    h.u32(pool.len() as u32);
    for label in pool.labels() {
        label.encode(&mut h);
    }
    h.u32(complex.facet_count() as u32);
    for facet in complex.facets() {
        h.u32(facet.len() as u32);
        for id in facet.ids() {
            h.u32(id);
        }
    }
    format!(
        "{point} vertices={} facets={} fnv={:016x}",
        pool.len(),
        complex.facet_count(),
        h.0
    )
}

/// The fixture grid, in fixture order: every model at `n + 1 ≤ 4`,
/// `r ≤ 2`, value domain `{0..=k}` with `k ≤ 2`, restricted to builds
/// that take at most about two seconds on the recording commit (see
/// [`EXCLUDED`]), plus the benchmark `sweep` group sync `n + 1 = 5`,
/// `f = 1` (domain `{0, 1, 2}`; its async `n + 1 = 4`, `f = 2` group is a
/// grid point).
fn grid() -> Vec<Point> {
    let mut points = Vec::new();
    for k in 1..=2u64 {
        for n_plus_1 in 2..=4usize {
            for rounds in 1..=2usize {
                // two-round async, Byzantine and dynamic complexes at
                // n + 1 = 4 run from 10⁴ to past 10⁶ facets and take
                // from seconds to minutes to build
                let wide = n_plus_1 < 4 || rounds == 1;
                for f in 1..n_plus_1 {
                    if wide {
                        points.push(Point::Async {
                            k,
                            n_plus_1,
                            f,
                            rounds,
                        });
                    }
                    for k_per_round in 1..=f.min(2) {
                        points.push(Point::Sync {
                            k,
                            n_plus_1,
                            k_per_round,
                            f,
                            rounds,
                        });
                        points.push(Point::SemiSync {
                            k,
                            n_plus_1,
                            k_per_round,
                            f,
                            rounds,
                        });
                    }
                    if wide {
                        points.push(Point::Byzantine {
                            k,
                            n_plus_1,
                            t: f,
                            rounds,
                        });
                    }
                }
                if !wide {
                    continue;
                }
                for family in [GraphFamily::Rooted, GraphFamily::StronglyConnected] {
                    points.push(Point::Dynamic {
                        k,
                        n_plus_1,
                        family,
                        rounds,
                    });
                }
            }
        }
    }
    points.retain(|p| !EXCLUDED.contains(&p.name().as_str()));
    points.push(Point::Sync {
        k: 2,
        n_plus_1: 5,
        k_per_round: 1,
        f: 1,
        rounds: 1,
    });
    points
}

/// Grid points whose build took well over two seconds on the recording commit
/// (kept out so the suite stays fast). The benchmark's async `n + 1 = 4`,
/// `f = 2` group (`k = 2`, about 4 s there) stays in on purpose.
const EXCLUDED: &[&str] = &[
    "semisync n+1=4 kpr=1 f=2 p=2 r=2 k=1",
    "semisync n+1=4 kpr=2 f=2 p=2 r=2 k=1",
    "semisync n+1=4 kpr=1 f=3 p=2 r=2 k=1",
    "semisync n+1=4 kpr=2 f=3 p=2 r=2 k=1",
    "semisync n+1=4 kpr=2 f=2 p=2 r=1 k=2",
    "semisync n+1=4 kpr=2 f=3 p=2 r=1 k=2",
    "byzantine n+1=4 t=2 r=1 k=2",
    "byzantine n+1=4 t=3 r=1 k=2",
    "async n+1=4 f=3 r=1 k=2",
    "sync n+1=4 kpr=1 f=2 r=2 k=2",
    "sync n+1=4 kpr=2 f=2 r=2 k=2",
    "sync n+1=4 kpr=1 f=3 r=2 k=2",
    "sync n+1=4 kpr=2 f=3 r=2 k=2",
    "semisync n+1=4 kpr=1 f=2 p=2 r=2 k=2",
    "semisync n+1=4 kpr=2 f=2 p=2 r=2 k=2",
    "semisync n+1=4 kpr=1 f=3 p=2 r=2 k=2",
    "semisync n+1=4 kpr=2 f=3 p=2 r=2 k=2",
];

#[derive(Clone, Copy, Debug)]
enum Point {
    Async {
        k: u64,
        n_plus_1: usize,
        f: usize,
        rounds: usize,
    },
    Sync {
        k: u64,
        n_plus_1: usize,
        k_per_round: usize,
        f: usize,
        rounds: usize,
    },
    SemiSync {
        k: u64,
        n_plus_1: usize,
        k_per_round: usize,
        f: usize,
        rounds: usize,
    },
    Byzantine {
        k: u64,
        n_plus_1: usize,
        t: usize,
        rounds: usize,
    },
    Dynamic {
        k: u64,
        n_plus_1: usize,
        family: GraphFamily,
        rounds: usize,
    },
}

/// Microrounds per semi-synchronous round in the grid.
const MICROROUNDS: u32 = 2;

impl Point {
    fn name(&self) -> String {
        match *self {
            Point::Async {
                k,
                n_plus_1,
                f,
                rounds,
            } => format!("async n+1={n_plus_1} f={f} r={rounds} k={k}"),
            Point::Sync {
                k,
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => format!("sync n+1={n_plus_1} kpr={k_per_round} f={f} r={rounds} k={k}"),
            Point::SemiSync {
                k,
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => format!(
                "semisync n+1={n_plus_1} kpr={k_per_round} f={f} p={MICROROUNDS} r={rounds} k={k}"
            ),
            Point::Byzantine {
                k,
                n_plus_1,
                t,
                rounds,
            } => format!("byzantine n+1={n_plus_1} t={t} r={rounds} k={k}"),
            Point::Dynamic {
                k,
                n_plus_1,
                family,
                rounds,
            } => format!(
                "dynamic n+1={n_plus_1} family={} r={rounds} k={k}",
                family.name()
            ),
        }
    }

    /// Builds the point's task complex and renders its fixture line.
    fn build(&self) -> String {
        let name = self.name();
        match *self {
            Point::Async {
                k,
                n_plus_1,
                f,
                rounds,
            } => {
                let (pool, c) = async_task_parts(&values(k), n_plus_1, f, rounds);
                line(&name, &pool, &c)
            }
            Point::Sync {
                k,
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => {
                let (pool, c) = sync_task_parts(&values(k), n_plus_1, k_per_round, f, rounds);
                line(&name, &pool, &c)
            }
            Point::SemiSync {
                k,
                n_plus_1,
                k_per_round,
                f,
                rounds,
            } => {
                let (pool, c) =
                    semisync_task_parts(&values(k), n_plus_1, k_per_round, f, MICROROUNDS, rounds);
                line(&name, &pool, &c)
            }
            Point::Byzantine {
                k,
                n_plus_1,
                t,
                rounds,
            } => {
                let (pool, c) = byzantine_task_parts(&values(k), n_plus_1, t, rounds);
                line(&name, &pool, &c)
            }
            Point::Dynamic {
                k,
                n_plus_1,
                family,
                rounds,
            } => {
                let (pool, c) = dynamic_task_parts(&values(k), n_plus_1, family, rounds);
                line(&name, &pool, &c)
            }
        }
    }
}

fn values(k: u64) -> BTreeSet<u64> {
    (0..=k).collect()
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE)
}

#[test]
fn task_builds_match_the_golden_build_order() {
    let expected = std::fs::read_to_string(fixture_path()).expect("fixture present");
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
            let got = p.build();
            (got != *want).then(|| format!("  want {want}\n   got {got}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "{} of {} builds differ from the golden build order:\n{}",
        mismatches.len(),
        points.len(),
        mismatches.join("\n")
    );
}

#[test]
#[ignore = "rewrites tests/fixtures/build_order.txt; run only to re-record"]
fn regenerate() {
    let mut out = String::new();
    for p in grid() {
        let start = Instant::now();
        let l = p.build();
        println!("{:>8.3}s  {l}", start.elapsed().as_secs_f64());
        out.push_str(&l);
        out.push('\n');
    }
    std::fs::write(fixture_path(), out).expect("fixture written");
}
