//! `conform`: `conformance_check` over a sync and an async n+1=4 grid.
//!
//! Holds the search-heavy group (sync r=2), runs tens of thousands of
//! protocol executions (the only load on `ps-protocols` and the schedule
//! enumerators), and drives the scheduler as many tiny runs dominated by
//! set-up, the opposite of `traffic`.

use std::time::Instant;

use ps_agreement::{
    conformance_check, solvability_sweep_shared_opts, ConformConfig, ConformReport, PointOutcome,
    SolvabilityResult, SweepOptions, SweepPoint,
};

use crate::pipeline;
use crate::stats::{median, Gate, Metric};
use crate::trace::Tracer;
use crate::Workload;

/// Sync n+1=4, f=1, k<=2, r<=2, then async n+1=4, f=1, k<=2, r=1.
fn grid() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for k in 1..=2 {
        for rounds in 1..=2 {
            points.push(SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 4,
                k_per_round: 1,
                rounds,
            });
        }
    }
    for k in 1..=2 {
        points.push(SweepPoint::Async {
            k,
            f: 1,
            n_plus_1: 4,
            rounds: 1,
        });
    }
    points
}

/// Pinned outcome per grid point: `true` for PASS, `false` for WITNESS.
/// Consensus (k=1) is impossible at r=1 with one crash, and
/// asynchronously; every other point is solvable.
const EXPECTED_PASS: [bool; 6] = [false, true, true, true, false, true];

pub struct Conform {
    threads: usize,
    seed: u64,
    points: Vec<SweepPoint>,
    cfg: ConformConfig,
    conform_s: Vec<f64>,
    sweep_call_s: Vec<f64>,
    sweep_call: Vec<SolvabilityResult>,
    last: Option<ConformReport>,
}

impl Conform {
    pub fn new(threads: usize, seed: u64) -> Conform {
        Conform {
            threads,
            seed,
            points: Vec::new(),
            cfg: ConformConfig::default(),
            conform_s: Vec::new(),
            sweep_call_s: Vec::new(),
            sweep_call: Vec::new(),
            last: None,
        }
    }
}

fn executions(report: &ConformReport) -> u64 {
    report
        .points
        .iter()
        .map(|p| match p.outcome {
            PointOutcome::Pass { executions }
            | PointOutcome::Fail { executions, .. }
            | PointOutcome::Witness { executions, .. }
            | PointOutcome::Unbroken { executions } => executions,
            PointOutcome::Skipped { .. } => 0,
        })
        .sum()
}

impl Workload for Conform {
    fn setup(&mut self) {
        self.points = grid();
        self.cfg = ConformConfig {
            seed: self.seed,
            ..ConformConfig::default()
        };
        // warm-up: the smallest sync point through the same entry point
        let warm = [SweepPoint::Sync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds: 1,
        }];
        conformance_check(&warm, self.threads, SweepOptions::default(), &self.cfg);
    }

    fn pass(&mut self, gate: &mut Gate) -> Vec<f64> {
        let t = Instant::now();
        let report = conformance_check(
            &self.points,
            self.threads,
            SweepOptions::default(),
            &self.cfg,
        );
        let seconds = t.elapsed().as_secs_f64();
        self.conform_s.push(seconds);
        for (i, (rep, &pass)) in report.points.iter().zip(&EXPECTED_PASS).enumerate() {
            let ok = if pass {
                matches!(rep.outcome, PointOutcome::Pass { .. })
            } else {
                matches!(rep.outcome, PointOutcome::Witness { .. })
            };
            gate.check(ok, || format!("conform point {i}: {:?}", rep.outcome));
        }
        gate.expect_eq("conform points", report.points.len(), EXPECTED_PASS.len());
        gate.check(report.all_ok(), || "conform report is not all_ok".into());
        self.last = Some(report);
        vec![seconds]
    }

    fn details(&self, per_unit: &[f64]) -> Vec<Metric> {
        vec![Metric::new("conform_s", per_unit[0], "s")]
    }

    /// The protocol executions run only inside `conformance_check`, so
    /// their share is that call minus the public sweep entry point on the
    /// same points; the replay reproduces the sweep.
    fn reference(&mut self, _last: &[f64]) -> f64 {
        let t = Instant::now();
        let verdicts =
            solvability_sweep_shared_opts(&self.points, self.threads, SweepOptions::default());
        let seconds = t.elapsed().as_secs_f64();
        self.sweep_call_s.push(seconds);
        self.sweep_call = verdicts;
        seconds
    }

    fn replay(&mut self, tr: &mut Tracer, gate: &mut Gate) {
        let report = self.last.as_ref().expect("a pass precedes the replay");
        let replayed = tr.span("call", "conform/solvability", |tr| {
            pipeline::replay_solvability(tr, "conform/solvability", &self.points)
        });
        tr.add("conform.executions", executions(report) as f64);
        let pass_verdicts: Vec<bool> = report.points.iter().map(|p| p.solvable).collect();
        let call_verdicts: Vec<bool> = self.sweep_call.iter().map(|v| v.solvable).collect();
        gate.expect_eq(
            "sweep call verdicts equal the pass",
            &call_verdicts,
            &pass_verdicts,
        );
        gate.expect_eq(
            "replay results equal the sweep call",
            &replayed,
            &self.sweep_call,
        );
    }

    fn gauges(&self) -> Vec<(&'static str, f64)> {
        let sweep = median(&self.sweep_call_s);
        vec![
            ("conform.sweep_s", sweep),
            ("conform.exec_s", median(&self.conform_s) - sweep),
        ]
    }
}
