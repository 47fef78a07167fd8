//! `traffic`: the scheduler event loop alone, through `traffic_run`
//! (StepGossip) under each timing policy at n=1000, plus a wide async run
//! at n=5000.
//!
//! No topology and no solver: the bypass case for every pipeline change.
//! The wide run is where the scheduler's per-channel tables, which grow
//! with n squared, set peak memory.

use std::collections::BTreeMap;
use std::time::Instant;

use ps_runtime::{
    traffic_run, AsyncPolicy, RandomTimedAdversary, SemisyncPolicy, SyncPolicy, TimedParams,
    TimingPolicy, TrafficReport,
};

use crate::stats::{Gate, Metric};
use crate::trace::Tracer;
use crate::Workload;

const MESSAGES: u64 = 1_000_000;
const HORIZON: u64 = 10_000_000;

/// (run name, its trace span, policy, processes).
const RUNS: [(&str, &str, &str, usize); 4] = [
    ("sync", "sched.sync", "sync", 1000),
    ("semisync", "sched.semisync", "semisync", 1000),
    ("async", "sched.async", "async", 1000),
    ("wide", "sched.wide", "async", 5000),
];

pub struct Traffic {
    seed: u64,
    /// Events processed by each run (the same every pass for one seed).
    events: [u64; RUNS.len()],
}

impl Traffic {
    pub fn new(seed: u64) -> Traffic {
        Traffic {
            seed,
            events: [0; RUNS.len()],
        }
    }
}

/// One `traffic_run` with the command-line interface's timing
/// parameters (c1=1, c2=2, d=4) and a seeded adversary without crashes.
fn run(seed: u64, policy: &str, n: usize, messages: u64) -> TrafficReport {
    let mut adversary = RandomTimedAdversary::new(seed, BTreeMap::new());
    let params = TimedParams::new(1, 2, 4);
    let mut policy: Box<dyn TimingPolicy + '_> = match policy {
        "sync" => Box::new(SyncPolicy::new(&mut adversary)),
        "semisync" => Box::new(SemisyncPolicy::new(&mut adversary, params)),
        _ => Box::new(AsyncPolicy::new(&mut adversary, params)),
    };
    traffic_run(n, messages, policy.as_mut(), HORIZON)
}

fn check(gate: &mut Gate, name: &str, r: &TrafficReport) {
    gate.check(
        r.delivered == MESSAGES
            && r.dropped == 0
            && r.invariants_ok
            && r.events == r.delivered + r.steps,
        || format!("traffic {name}: {r:?}"),
    );
}

impl Workload for Traffic {
    fn setup(&mut self) {
        // warm-up: a small run under each policy
        for (_, _, policy, _) in RUNS {
            run(self.seed, policy, 100, 10_000);
        }
    }

    fn pass(&mut self, gate: &mut Gate) -> Vec<f64> {
        let mut units = Vec::with_capacity(RUNS.len());
        for (i, (name, _, policy, n)) in RUNS.into_iter().enumerate() {
            let t = Instant::now();
            let report = run(self.seed, policy, n, MESSAGES);
            units.push(t.elapsed().as_secs_f64());
            check(gate, name, &report);
            self.events[i] = report.events;
        }
        units
    }

    fn details(&self, per_unit: &[f64]) -> Vec<Metric> {
        RUNS.iter()
            .zip(self.events.iter().zip(per_unit))
            .map(|((name, ..), (&events, &secs))| {
                Metric::new(format!("{name}_events_per_s"), events as f64 / secs, "1/s")
            })
            .collect()
    }

    fn replay(&mut self, tr: &mut Tracer, gate: &mut Gate) {
        for (name, span, policy, n) in RUNS {
            let report = tr.time(span, &format!("traffic/{name}"), || {
                run(self.seed, policy, n, MESSAGES)
            });
            check(gate, name, &report);
            for (counter, value) in [
                ("events", report.events),
                ("delivered", report.delivered),
                ("steps", report.steps),
                ("dropped", report.dropped),
            ] {
                tr.add(&format!("{span}.{counter}"), value as f64);
            }
        }
    }
}
