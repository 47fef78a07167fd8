//! `serve`: one closed-loop client sending one query per
//! `QueryEngine::answer_batch` call, in a cold and then a warm session
//! over one store directory.
//!
//! The only workload that loads the session cache, the store's probe,
//! insert and flush, and the size-gated canonicalizer (n+1=3 instances
//! fit under its vertex gate). It builds many small complexes rather than
//! a few big ones, so fixed per-complex build cost shows here and not in
//! `sweep`. The warm session rebuilds every instance just to derive its
//! store key.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ps_agreement::{
    AgreementConstraint, AnswerSource, ExactKey, QueryEngine, ServeMetrics, SolvabilityResult,
    StoreKey, StoredVerdict, SweepOptions, SweepPoint, VerdictStore,
};
use ps_models::GraphFamily;

use crate::pipeline::{self, Instance};
use crate::stats::{median, tail, Gate, Metric};
use crate::trace::Tracer;
use crate::Workload;

/// The query engine attempts an exact canonical key only for instances
/// up to this many vertices (the library's canonicalization gate); the
/// replay applies the same gate.
const CANON_ATTEMPT_MAX_VERTICES: usize = 512;

/// Cheap pool items (n+1=3, r=1) the cold session leaves for the warm
/// one: a third of them, so the warm session's solve-and-write path runs
/// a few times a pass without changing the pass's total solve work (each
/// item is solved once a pass, in one session or the other).
const HELD_OUT: usize = 4;

struct Item {
    point: SweepPoint,
    /// Pinned `SweepPoint::run` result on the point's own domain {0..=k}.
    expected: SolvabilityResult,
}

/// n+1=3 points of all five models at k<=2 and r<=2, plus sync, async and
/// Byzantine n+1=4 at r=1, leaving out the items whose single query
/// costs more than about 0.4 s (the r=2 k=2 async, Byzantine and
/// strongly-connected dynamic points, the canonicalization-heavy
/// semisync r=2 k=1 point, Byzantine n+1=4 k=2, and the rooted dynamic
/// family beyond r=1, whose r=2 k=2 point alone takes about 12 s), so
/// that a pass stays near 2.5 s and a run holds several passes.
fn pool() -> Vec<Item> {
    let item = |point, (solvable, vertices, facets)| Item {
        point,
        expected: SolvabilityResult {
            solvable,
            vertices,
            facets,
        },
    };
    let asynchronous = |k, n_plus_1, rounds| SweepPoint::Async {
        k,
        f: 1,
        n_plus_1,
        rounds,
    };
    let sync = |k, n_plus_1, rounds| SweepPoint::Sync {
        k,
        f: 1,
        n_plus_1,
        k_per_round: 1,
        rounds,
    };
    let semisync = |k, rounds| SweepPoint::SemiSync {
        k,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        microrounds: 2,
        rounds,
    };
    let byzantine = |k, n_plus_1, rounds| SweepPoint::Byzantine {
        k,
        t: 1,
        n_plus_1,
        rounds,
    };
    let dynamic = |k, family, rounds| SweepPoint::Dynamic {
        k,
        n_plus_1: 3,
        family,
        rounds,
    };
    let (strong, rooted) = (GraphFamily::StronglyConnected, GraphFamily::Rooted);
    vec![
        // n+1=3, r=1 (the held-out share is drawn from these)
        item(asynchronous(1, 3, 1), (false, 48, 216)),
        item(asynchronous(2, 3, 1), (true, 135, 729)),
        item(sync(1, 3, 1), (false, 48, 68)),
        item(sync(2, 3, 1), (true, 135, 216)),
        item(semisync(1, 1), (false, 96, 140)),
        item(semisync(2, 1), (true, 297, 459)),
        item(byzantine(1, 3, 1), (false, 48, 92)),
        item(byzantine(2, 3, 1), (true, 135, 360)),
        item(dynamic(1, strong, 1), (false, 48, 144)),
        item(dynamic(2, strong, 1), (true, 135, 486)),
        item(dynamic(1, rooted, 1), (false, 54, 408)),
        item(dynamic(2, rooted, 1), (false, 144, 1377)),
        // n+1=3, r=2
        item(asynchronous(1, 3, 2), (false, 1056, 5832)),
        item(sync(1, 3, 2), (true, 192, 140)),
        item(sync(2, 3, 2), (true, 621, 459)),
        item(semisync(2, 2), (true, 1269, 945)),
        item(byzantine(1, 3, 2), (true, 624, 956)),
        item(dynamic(1, strong, 2), (true, 816, 2592)),
        // n+1=4, r=1
        item(sync(1, 4, 1), (false, 160, 432)),
        item(sync(2, 4, 1), (true, 648, 2133)),
        item(asynchronous(1, 4, 1), (false, 160, 4096)),
        item(asynchronous(2, 4, 1), (true, 648, 20736)),
        item(byzantine(1, 4, 1), (false, 160, 816)),
    ]
}

/// Number of leading pool items eligible for the held-out share.
const CHEAP_ITEMS: usize = 12;

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// the command line.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A session's query stream: every item of `distinct` twice, in seeded
/// order. The smallest stream in which every item meets the session
/// cache: its first query misses, its second hits.
fn stream(rng: &mut Rng, distinct: &[usize]) -> Vec<usize> {
    let mut s: Vec<usize> = distinct.iter().chain(distinct).copied().collect();
    rng.shuffle(&mut s);
    s
}

/// Latency of one answered query, by where the answer came from.
struct Answered {
    source: AnswerSource,
    seconds: f64,
}

pub struct Serve {
    threads: usize,
    seed: u64,
    scratch: PathBuf,
    pool: Vec<Item>,
    cold: Vec<usize>,
    warm: Vec<usize>,
    passes: usize,
    latencies: Vec<Answered>,
    /// Per-query (result, source) and engine metrics of the last pass,
    /// per session.
    last: Vec<(Vec<(SolvabilityResult, AnswerSource)>, ServeMetrics)>,
}

impl Serve {
    pub fn new(threads: usize, seed: u64, scratch: &Path) -> Serve {
        Serve {
            threads,
            seed,
            scratch: scratch.to_path_buf(),
            pool: Vec::new(),
            cold: Vec::new(),
            warm: Vec::new(),
            passes: 0,
            latencies: Vec::new(),
            last: Vec::new(),
        }
    }

    fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// One untraced session; returns the seconds of its store open
    /// followed by those of each query.
    fn session(&mut self, dir: &Path, warm: bool, gate: &mut Gate) -> Vec<f64> {
        let stream = if warm { &self.warm } else { &self.cold };
        let mut units = Vec::with_capacity(stream.len() + 1);
        let t = Instant::now();
        let store = VerdictStore::open(dir);
        units.push(t.elapsed().as_secs_f64());
        let store = match store {
            Ok(s) => s,
            Err(e) => {
                gate.check(false, || format!("store open: {e}"));
                return units;
            }
        };
        let mut engine = QueryEngine::new(self.threads, SweepOptions::default(), Some(store));
        let mut answers = Vec::with_capacity(stream.len());
        for &q in stream {
            let item = &self.pool[q];
            let t = Instant::now();
            let answer = engine.answer_batch(std::slice::from_ref(&item.point));
            let seconds = t.elapsed().as_secs_f64();
            units.push(seconds);
            match answer.as_deref() {
                Ok([a]) => {
                    gate.expect_eq(
                        &format!("serve {:?}", item.point),
                        &a.result,
                        &item.expected,
                    );
                    self.latencies.push(Answered {
                        source: a.source,
                        seconds,
                    });
                    answers.push((a.result.clone(), a.source));
                }
                other => gate.check(false, || format!("serve {:?}: {other:?}", item.point)),
            }
        }
        self.last.push((answers, *engine.metrics()));
        units
    }

    /// The layer-by-layer replay of one session (see `QueryEngine::answer_batch`).
    fn replay_session(
        &self,
        tr: &mut Tracer,
        dir: &Path,
        warm: bool,
        gate: &mut Gate,
    ) -> Vec<(SolvabilityResult, AnswerSource)> {
        let label = if warm { "serve/warm" } else { "serve/cold" };
        let stream = if warm { &self.warm } else { &self.cold };
        let mut store = match tr.time("store.open", label, || VerdictStore::open(dir)) {
            Ok(s) => s,
            Err(e) => {
                gate.check(false, || format!("replay store open: {e}"));
                return Vec::new();
            }
        };
        let mut metrics = ServeMetrics::default();
        let mut session: BTreeMap<usize, SolvabilityResult> = BTreeMap::new();
        let mut out = Vec::with_capacity(stream.len());
        for (qi, &q) in stream.iter().enumerate() {
            let group = format!("{label}/q{qi} {:?}", self.pool[q].point);
            let point = &self.pool[q].point;
            let answer = tr.span("query", &group, |tr| match session.get(&q) {
                Some(r) => (r.clone(), AnswerSource::Session),
                None => replay_query(tr, &group, point, &mut store, &mut metrics),
            });
            if let Err(e) = tr.time("store.flush", &group, || store.flush()) {
                gate.check(false, || format!("replay flush: {e}"));
            }
            match answer.1 {
                AnswerSource::Session => metrics.session_hits += 1,
                AnswerSource::Store => metrics.store_hits += 1,
                AnswerSource::Solved => metrics.solved += 1,
            }
            metrics.queries += 1;
            session.insert(q, answer.0.clone());
            out.push(answer);
        }
        if warm {
            // the store as the pass leaves it
            let report = store.report();
            tr.add("store.records", report.records as f64);
            tr.add("store.segments", report.segments as f64);
        }
        let session_index = usize::from(warm);
        let engine = self
            .last
            .get(session_index)
            .map(|(_, m)| *m)
            .unwrap_or_default();
        gate.expect_eq(
            &format!("{label} replay counters equal the engine's"),
            counters(&metrics),
            counters(&engine),
        );
        for (name, value) in [
            ("serve.session_hits", engine.session_hits),
            ("serve.store_hits", engine.store_hits),
            ("serve.solver_calls", engine.solver_calls),
            ("serve.key_computations", engine.key_computations),
            ("serve.key_skips", engine.key_skips),
            ("serve.prepared_builds", engine.prepared_builds),
            ("serve.persisted", engine.persisted),
        ] {
            tr.add(name, value as f64);
        }
        out
    }
}

fn counters(m: &ServeMetrics) -> [u64; 9] {
    [
        m.queries,
        m.session_hits,
        m.store_hits,
        m.solved,
        m.solver_calls,
        m.key_computations,
        m.key_skips,
        m.prepared_builds,
        m.persisted,
    ]
}

/// The canonical key, attempted at most once per instance and only under
/// the vertex gate, as the engine does.
fn canonical<'a>(
    tr: &mut Tracer,
    group: &str,
    inst: &Instance,
    cached: &'a mut Option<Option<ExactKey>>,
    metrics: &mut ServeMetrics,
) -> Option<&'a ExactKey> {
    if cached.is_none() {
        *cached = Some(if inst.vertex_count() <= CANON_ATTEMPT_MAX_VERTICES {
            metrics.key_computations += 1;
            pipeline::key_traced(tr, group, inst)
        } else {
            None
        });
    }
    cached.as_ref().and_then(Option::as_ref)
}

/// One query that misses the session cache: build, probe the store by
/// structural then (fingerprint-filtered) canonical address, and on a
/// miss solve and persist under both addresses.
fn replay_query(
    tr: &mut Tracer,
    group: &str,
    point: &SweepPoint,
    store: &mut VerdictStore,
    metrics: &mut ServeMetrics,
) -> (SolvabilityResult, AnswerSource) {
    let (key, k) = (point.shared_key(), point.k());
    let inst = pipeline::build_instance(tr, group, &key, &pipeline::domain(k));
    metrics.prepared_builds += 1;
    let constraint = AgreementConstraint::AtMostKDistinct(k);
    let structural = tr.time("canon.structural", group, || inst.structural_key());
    let structural_address = StoreKey::structural(&structural, constraint);
    let mut exact = None;
    let mut hit = tr.time("store.probe", group, || store.get(&structural_address));
    if hit.is_none() {
        let fp = tr.time("canon.fingerprint", group, || inst.fingerprint());
        if !tr.time("store.probe", group, || store.contains_fingerprint(&fp)) {
            metrics.key_skips += 1;
        } else if let Some(key) = canonical(tr, group, &inst, &mut exact, metrics) {
            let address = StoreKey::new(key, constraint);
            hit = tr.time("store.probe", group, || store.get(&address));
        }
    }
    if let Some(v) = hit {
        let result = SolvabilityResult {
            solvable: v.solvable,
            vertices: v.vertices as usize,
            facets: v.facets as usize,
        };
        return (result, AnswerSource::Store);
    }
    let result = pipeline::solve_traced(tr, group, &inst, k);
    metrics.solver_calls += 1;
    let verdict = StoredVerdict {
        solvable: result.solvable,
        vertices: result.vertices as u64,
        facets: result.facets as u64,
    };
    let canonical_address =
        canonical(tr, group, &inst, &mut exact, metrics).map(|key| StoreKey::new(key, constraint));
    let persisted = tr.time("store.insert", group, || {
        let mut persisted = store.insert(&structural_address, verdict);
        if let Some(address) = &canonical_address {
            persisted |= store.insert(address, verdict);
        }
        persisted
    });
    if persisted {
        metrics.persisted += 1;
    }
    (result, AnswerSource::Solved)
}

impl Workload for Serve {
    fn setup(&mut self) {
        self.pool = pool();
        let mut rng = Rng(self.seed);
        let mut cheap: Vec<usize> = (0..CHEAP_ITEMS).collect();
        rng.shuffle(&mut cheap);
        let held_out = &cheap[..HELD_OUT];
        let asked: Vec<usize> = (0..self.pool.len())
            .filter(|i| !held_out.contains(i))
            .collect();
        let all: Vec<usize> = (0..self.pool.len()).collect();
        self.cold = stream(&mut rng, &asked);
        self.warm = stream(&mut rng, &all);
        // warm-up: the first four (n+1=3, r=1) items, one query each,
        // through an engine without a store, so that no disk write or
        // fsync lands in the timed set-up
        let mut engine = QueryEngine::new(self.threads, SweepOptions::default(), None);
        for item in &self.pool[..4] {
            engine
                .answer_batch(std::slice::from_ref(&item.point))
                .expect("warm-up query");
        }
    }

    fn pass(&mut self, gate: &mut Gate) -> Vec<f64> {
        self.passes += 1;
        self.last.clear();
        let dir = self.fresh_dir(&format!("serve-store-{}", self.passes));
        let mut units = self.session(&dir, false, gate);
        units.extend(self.session(&dir, true, gate));
        let _ = std::fs::remove_dir_all(&dir);
        units
    }

    fn details(&self, per_unit: &[f64]) -> Vec<Metric> {
        let (cold, warm) = per_unit.split_at((self.cold.len() + 1).min(per_unit.len()));
        let ms: Vec<f64> = self
            .latencies
            .iter()
            .filter(|a| a.source != AnswerSource::Session)
            .map(|a| a.seconds * 1e3)
            .collect();
        let t = tail(&ms);
        vec![
            Metric::new(
                "serve_cold_qps",
                self.cold.len() as f64 / cold.iter().sum::<f64>(),
                "1/s",
            ),
            Metric::new(
                "serve_warm_qps",
                self.warm.len() as f64 / warm.iter().sum::<f64>(),
                "1/s",
            ),
            Metric::new("serve_p50_ms", median(&ms), "ms"),
            Metric::new("serve_tail_ms", t.value, "ms"),
            Metric::new("serve_tail_percentile", t.percentile, "%"),
            Metric::new("serve_latency_samples", t.samples as f64, "count"),
        ]
    }

    fn replay(&mut self, tr: &mut Tracer, gate: &mut Gate) {
        let dir = self.fresh_dir("serve-replay");
        for warm in [false, true] {
            let label = if warm { "serve/warm" } else { "serve/cold" };
            let replayed = tr.span("session", label, |tr| {
                self.replay_session(tr, &dir, warm, gate)
            });
            let pass = self
                .last
                .get(usize::from(warm))
                .map(|(a, _)| a.clone())
                .unwrap_or_default();
            gate.expect_eq(
                &format!("{label} replay answers equal the pass"),
                &replayed,
                &pass,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn gauges(&self) -> Vec<(&'static str, f64)> {
        let ms = |source: AnswerSource| -> Vec<f64> {
            self.latencies
                .iter()
                .filter(|a| a.source == source)
                .map(|a| a.seconds * 1e3)
                .collect()
        };
        vec![
            ("serve.store_hit_ms", median(&ms(AnswerSource::Store))),
            ("serve.solved_ms", median(&ms(AnswerSource::Solved))),
        ]
    }
}
