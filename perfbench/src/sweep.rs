//! `sweep`: a cold researcher grid through one call each of
//! `solvability_sweep_shared_opts` and `connectivity_sweep_shared`.
//!
//! Construction-bound: build/intern dominates both groups, reduction does
//! real work only here (the 194 481-facet async group), and search is
//! about 1% of the work, so this is the bypass case for search changes.

use std::time::Instant;

use ps_agreement::{
    connectivity_sweep_shared, solvability_sweep_shared_opts, ConnectivityResult,
    SolvabilityResult, SweepOptions, SweepPoint,
};

use crate::pipeline;
use crate::stats::{Gate, Metric};
use crate::trace::Tracer;
use crate::Workload;

/// Sync n+1=5, f=1, one crash per round, and async n+1=4, f=2, both at
/// r=1 and k in {1, 2}.
fn grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for k in 1..=2 {
        points.push(SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 5,
            k_per_round: 1,
            rounds: 1,
        });
    }
    for k in 1..=2 {
        points.push(SweepPoint::Async {
            k,
            f: 2,
            n_plus_1: 4,
            rounds: 1,
        });
    }
    points
}

/// Pinned outputs, in grid order: verdict, vertices, facets of the group
/// complex (domain {0, 1, 2}), and whether it is (k-1)-connected.
const EXPECTED: [(bool, usize, usize, bool); 4] = [
    (false, 2835, 17658, true),
    (true, 2835, 17658, false),
    (false, 756, 194481, true),
    (false, 756, 194481, true),
];

/// The set-up warm-up grid: the smallest sync group, through the same
/// two entry points.
fn warmup_grid() -> Vec<SweepPoint> {
    (1..=2)
        .map(|k| SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        })
        .collect()
}

pub struct Sweep {
    threads: usize,
    points: Vec<SweepPoint>,
    last: Option<(Vec<SolvabilityResult>, Vec<ConnectivityResult>)>,
}

impl Sweep {
    pub fn new(threads: usize) -> Sweep {
        Sweep {
            threads,
            points: Vec::new(),
            last: None,
        }
    }
}

fn check(gate: &mut Gate, what: &str, verdicts: &[SolvabilityResult], conn: &[ConnectivityResult]) {
    for (i, &(solvable, vertices, facets, connected)) in EXPECTED.iter().enumerate() {
        let want = SolvabilityResult {
            solvable,
            vertices,
            facets,
        };
        gate.expect_eq(
            &format!("{what} verdict {i}"),
            verdicts.get(i).cloned(),
            Some(want),
        );
        let got = conn
            .get(i)
            .map(|c| (c.vertices, c.facets, c.q, c.connected));
        // q = k - 1, and the grid alternates k = 1, 2
        let q = i as i32 % 2;
        gate.expect_eq(
            &format!("{what} connectivity {i}"),
            got,
            Some((vertices, facets, q, connected)),
        );
    }
}

impl Workload for Sweep {
    fn setup(&mut self) {
        self.points = grid();
        let warm = warmup_grid();
        solvability_sweep_shared_opts(&warm, self.threads, SweepOptions::default());
        connectivity_sweep_shared(&warm, self.threads);
    }

    fn pass(&mut self, gate: &mut Gate) -> Vec<f64> {
        let t = Instant::now();
        let verdicts =
            solvability_sweep_shared_opts(&self.points, self.threads, SweepOptions::default());
        let mid = Instant::now();
        let conn = connectivity_sweep_shared(&self.points, self.threads);
        let units = vec![(mid - t).as_secs_f64(), mid.elapsed().as_secs_f64()];
        check(gate, "sweep", &verdicts, &conn);
        self.last = Some((verdicts, conn));
        units
    }

    fn details(&self, per_unit: &[f64]) -> Vec<Metric> {
        vec![
            Metric::new("sweep_s", per_unit[0], "s"),
            Metric::new("homology_s", per_unit[1], "s"),
        ]
    }

    fn replay(&mut self, tr: &mut Tracer, gate: &mut Gate) {
        let verdicts = tr.span("call", "sweep/solvability", |tr| {
            pipeline::replay_solvability(tr, "sweep/solvability", &self.points)
        });
        let conn = tr.span("call", "sweep/connectivity", |tr| {
            pipeline::replay_connectivity(tr, "sweep/connectivity", &self.points)
        });
        check(gate, "replay", &verdicts, &conn);
        let (pass_verdicts, pass_conn) = self.last.as_ref().expect("a pass precedes the replay");
        gate.expect_eq("replay verdicts equal the pass", &verdicts, pass_verdicts);
        gate.expect_eq("replay connectivity equals the pass", &conn, pass_conn);
    }
}
