//! The per-layer metrics of the traced run and where each comes from.
//!
//! Every workload reports every metric; a layer a workload never calls
//! reads 0 there. `BENCHMARK.json` lists the same names, followed by the
//! tracing summary (`trace.*`) that `main` appends.

use std::collections::BTreeMap;

use crate::stats::Metric;
use crate::trace::Tracer;

enum Source {
    /// Self seconds of every span of a layer.
    Layer(&'static str),
    /// Self seconds of spans with exactly this name.
    Span(&'static str),
    /// A counter recorded during the replay.
    Counter,
    /// A value measured outside the replay (from the untraced calls).
    Gauge,
    /// Exact canonical keys over attempts.
    ExactRatio,
}

use Source::*;

const PER_LAYER: &[(&str, &str, Source)] = &[
    ("build.s", "s", Layer("build")),
    ("build.vertices", "count", Counter),
    ("build.facets", "count", Counter),
    ("prepare.s", "s", Layer("prepare")),
    ("certify.s", "s", Layer("certify")),
    ("certify.kept", "count", Counter),
    ("canon.s", "s", Layer("canon")),
    ("canon.attempts", "count", Counter),
    ("canon.exact_ratio", "ratio", ExactRatio),
    ("search.s", "s", Layer("search")),
    ("search.assignments", "count", Counter),
    ("search.backtracks", "count", Counter),
    ("search.prunings", "count", Counter),
    ("search.backjumps", "count", Counter),
    ("search.orbit_skips", "count", Counter),
    ("search.nogood_hits", "count", Counter),
    ("reduce.s", "s", Layer("reduce")),
    ("reduce.columns", "count", Counter),
    ("reduce.cleared", "count", Counter),
    ("reduce.additions", "count", Counter),
    ("reduce.word_xors", "count", Counter),
    ("store.open_s", "s", Span("store.open")),
    ("store.flush_s", "s", Span("store.flush")),
    ("store.records", "count", Counter),
    ("store.segments", "count", Counter),
    ("serve.session_hits", "count", Counter),
    ("serve.store_hits", "count", Counter),
    ("serve.solver_calls", "count", Counter),
    ("serve.key_computations", "count", Counter),
    ("serve.key_skips", "count", Counter),
    ("serve.prepared_builds", "count", Counter),
    ("serve.persisted", "count", Counter),
    ("serve.store_hit_ms", "ms", Gauge),
    ("serve.solved_ms", "ms", Gauge),
    ("conform.sweep_s", "s", Gauge),
    ("conform.exec_s", "s", Gauge),
    ("conform.executions", "count", Counter),
    ("sched.sync.s", "s", Span("sched.sync")),
    ("sched.sync.events", "count", Counter),
    ("sched.sync.delivered", "count", Counter),
    ("sched.sync.steps", "count", Counter),
    ("sched.sync.dropped", "count", Counter),
    ("sched.semisync.s", "s", Span("sched.semisync")),
    ("sched.semisync.events", "count", Counter),
    ("sched.semisync.delivered", "count", Counter),
    ("sched.semisync.steps", "count", Counter),
    ("sched.semisync.dropped", "count", Counter),
    ("sched.async.s", "s", Span("sched.async")),
    ("sched.async.events", "count", Counter),
    ("sched.async.delivered", "count", Counter),
    ("sched.async.steps", "count", Counter),
    ("sched.async.dropped", "count", Counter),
    ("sched.wide.s", "s", Span("sched.wide")),
    ("sched.wide.events", "count", Counter),
    ("sched.wide.delivered", "count", Counter),
    ("sched.wide.steps", "count", Counter),
    ("sched.wide.dropped", "count", Counter),
    ("parallel.critical_s", "s", Counter),
    ("parallel.sum_s", "s", Counter),
];

/// Per-layer metrics averaged over `replays` replays.
pub fn per_layer(tr: &Tracer, replays: usize, gauges: &[(&'static str, f64)]) -> Vec<Metric> {
    let per_replay = |v: f64| v / replays.max(1) as f64;
    let layers = tr.layer_seconds();
    let spans = tr.self_seconds();
    let gauges: BTreeMap<&str, f64> = gauges.iter().copied().collect();
    PER_LAYER
        .iter()
        .map(|(name, unit, source)| {
            let value = match source {
                Layer(layer) => per_replay(layers.get(layer).copied().unwrap_or(0.0)),
                Span(span) => per_replay(spans.get(span).copied().unwrap_or(0.0)),
                Counter => per_replay(tr.counter(name)),
                Gauge => gauges.get(name).copied().unwrap_or(0.0),
                ExactRatio => {
                    let attempts = tr.counter("canon.attempts");
                    if attempts > 0.0 {
                        tr.counter("canon.exact") / attempts
                    } else {
                        0.0
                    }
                }
            };
            Metric::new(*name, value, unit)
        })
        .collect()
}
