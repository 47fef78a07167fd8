//! The query-serving engine behind `psph serve`.
//!
//! A [`QueryEngine`] answers solvability queries ([`SweepPoint`]s) in
//! batches, concurrently over the [`ps_topology::parallel`] pool, with
//! three cache layers in front of the solver:
//!
//! 1. **Session verdicts** — a `(shared key, k)` map of everything
//!    answered since the engine started; repeat queries are O(log n)
//!    lookups touching no topology at all.
//! 2. **Structural store probe** — the instance's verbatim
//!    ([`crate::StructuralKey`]) address, cheap to compute, hits on
//!    any identically rebuilt instance (in particular, every warm
//!    re-run of a previously served query).
//! 3. **Canonical store probe, fingerprint pre-filtered** — before
//!    attempting the expensive exact canonicalization, the instance's
//!    cheap isomorphism-invariant fingerprint is checked against the
//!    store's fingerprint index. An absent fingerprint *proves* the
//!    canonical lookup would miss too, so the canonicalization is
//!    skipped on the probe path (counted in
//!    [`ServeMetrics::key_skips`]; the key may still be computed
//!    later, once, to persist the freshly solved verdict under its
//!    shareable canonical address).
//!
//! Misses are solved on the worker pool against warm
//! [`PreparedInstance`]s cached per `(model, n, f, r, k)` group —
//! building the protocol complex dominates repeat-query latency, so
//! instances outlive their first query. Newly solved verdicts are
//! persisted — always under their structural address, and additionally
//! under the exact canonical address when the size-gated
//! canonicalization succeeds (see [`crate::ExactKey`]) — and flushed
//! once per batch, making every batch boundary a durable checkpoint.
//!
//! [`PreparedInstance`]: crate::PreparedInstance

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::Instant;

use crate::experiments::{
    build_group, PreparedGroup, SolvabilityResult, SweepKey, SweepOptions,
    CANON_ATTEMPT_MAX_VERTICES,
};
use crate::solver::AgreementConstraint;
use crate::store::{StoreKey, StoredVerdict, VerdictStore};
use crate::symmetry::{ExactKey, StructuralKey};
use crate::SweepPoint;

/// Where a query's answer came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AnswerSource {
    /// Answered from the engine's in-memory session cache.
    Session,
    /// Replayed from the persistent verdict store.
    Store,
    /// Solved this batch (then persisted, when a store is attached).
    Solved,
}

impl std::fmt::Display for AnswerSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AnswerSource::Session => "session",
            AnswerSource::Store => "store",
            AnswerSource::Solved => "solved",
        })
    }
}

/// One answered query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryAnswer {
    /// The verdict (and the size of the complex it was decided on).
    pub result: SolvabilityResult,
    /// Which cache layer (or the solver) produced it.
    pub source: AnswerSource,
    /// Wall-clock cost attributed to this query's instance: complex
    /// build time plus solve time of the distinct `(group, k)` work
    /// item it mapped to (0 for session hits).
    pub micros: u128,
}

/// Running counters for a [`QueryEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeMetrics {
    /// Queries answered (including duplicates within a batch).
    pub queries: u64,
    /// Queries answered from the session cache.
    pub session_hits: u64,
    /// Queries answered from the persistent store.
    pub store_hits: u64,
    /// Queries whose work item was solved this session.
    pub solved: u64,
    /// Actual solver invocations (distinct work items solved —
    /// duplicates and cache hits never reach the solver).
    pub solver_calls: u64,
    /// Exact canonicalizations performed (probe or persist path).
    pub key_computations: u64,
    /// Store probes where the fingerprint pre-filter proved a miss,
    /// skipping the exact-key computation on the probe path.
    pub key_skips: u64,
    /// Protocol complexes built and prepared.
    pub prepared_builds: u64,
    /// Work items served by an already-warm prepared instance.
    pub prepared_reuses: u64,
    /// Verdicts newly persisted to the store.
    pub persisted: u64,
    /// Sum of per-query attributed latency.
    pub total_micros: u128,
    /// Largest per-query attributed latency.
    pub max_micros: u128,
}

impl ServeMetrics {
    /// Mean attributed latency per query (0 before any query).
    pub fn mean_micros(&self) -> u128 {
        if self.queries == 0 {
            0
        } else {
            self.total_micros / u128::from(self.queries)
        }
    }
}

/// A warm prepared instance plus its lazily computed store addresses:
/// the cheap structural key, and the canonical key (`None` = not yet
/// attempted; `Some(None)` = attempted and gated off or budget-cut).
struct PreparedEntry {
    group: PreparedGroup,
    structural: Option<StructuralKey>,
    key: Option<Option<ExactKey>>,
    build_micros: u128,
}

impl PreparedEntry {
    fn structural(&mut self) -> &StructuralKey {
        if self.structural.is_none() {
            self.structural = Some(self.group.structural_key());
        }
        self.structural.as_ref().expect("just filled")
    }

    /// The canonical key, attempting the size-gated canonicalization on
    /// first use; bumps `key_computations` when an attempt actually runs.
    fn canonical(&mut self, metrics: &mut ServeMetrics) -> Option<&ExactKey> {
        if self.key.is_none() {
            if self.group.vertex_count() <= CANON_ATTEMPT_MAX_VERTICES {
                metrics.key_computations += 1;
            }
            self.key = Some(self.group.key_gated());
        }
        self.key.as_ref().expect("just filled").as_ref()
    }
}

/// The long-running query engine: session cache, warm instances, and
/// an optional persistent store (module docs for the full pipeline).
pub struct QueryEngine {
    store: Option<VerdictStore>,
    threads: usize,
    opts: SweepOptions,
    session: BTreeMap<(SweepKey, usize), (SolvabilityResult, u128)>,
    prepared: BTreeMap<(SweepKey, usize), PreparedEntry>,
    metrics: ServeMetrics,
}

impl std::fmt::Debug for QueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryEngine")
            .field("threads", &self.threads)
            .field("session", &self.session.len())
            .field("prepared", &self.prepared.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl QueryEngine {
    /// Creates an engine over `threads` workers; `store` attaches a
    /// persistent verdict store (probed before solving, extended and
    /// flushed after every batch).
    pub fn new(threads: usize, opts: SweepOptions, store: Option<VerdictStore>) -> QueryEngine {
        QueryEngine {
            store,
            threads,
            opts,
            session: BTreeMap::new(),
            prepared: BTreeMap::new(),
            metrics: ServeMetrics::default(),
        }
    }

    /// Running counters.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&VerdictStore> {
        self.store.as_ref()
    }

    /// Answers one batch of queries, in input order. Distinct
    /// `(group, k)` work items are resolved once — built and solved
    /// concurrently on the worker pool — and duplicate queries share
    /// the outcome. New verdicts are flushed to the store before the
    /// batch returns, so a served batch is a durable checkpoint.
    pub fn answer_batch(&mut self, queries: &[SweepPoint]) -> io::Result<Vec<QueryAnswer>> {
        // distinct work items, first-appearance order
        let mut order: Vec<(SweepKey, usize)> = Vec::new();
        let mut seen: BTreeSet<(SweepKey, usize)> = BTreeSet::new();
        for q in queries {
            let item = (q.shared_key(), q.k());
            if seen.insert(item.clone()) {
                order.push(item);
            }
        }

        let mut outcomes: BTreeMap<(SweepKey, usize), (SolvabilityResult, AnswerSource, u128)> =
            BTreeMap::new();
        let mut todo: Vec<(SweepKey, usize)> = Vec::new();
        for item in &order {
            match self.session.get(item) {
                Some((r, _)) => {
                    outcomes.insert(item.clone(), (r.clone(), AnswerSource::Session, 0));
                }
                None => todo.push(item.clone()),
            }
        }

        // build missing prepared instances concurrently (each over its
        // point's canonical value domain {0..=k})
        let missing: Vec<(SweepKey, usize)> = todo
            .iter()
            .filter(|it| !self.prepared.contains_key(*it))
            .cloned()
            .collect();
        let symmetry = self.opts.symmetry;
        let built: Vec<(PreparedGroup, u128)> =
            ps_topology::parallel::parallel_map(&missing, self.threads, |_, (key, k)| {
                let t = Instant::now();
                let values: BTreeSet<u64> = (0..=*k as u64).collect();
                let g = build_group(key, &values, symmetry);
                (g, t.elapsed().as_micros())
            });
        self.metrics.prepared_builds += missing.len() as u64;
        self.metrics.prepared_reuses += (todo.len() - missing.len()) as u64;
        for (item, (group, build_micros)) in missing.into_iter().zip(built) {
            self.prepared.insert(
                item,
                PreparedEntry {
                    group,
                    structural: None,
                    key: None,
                    build_micros,
                },
            );
        }

        // store probe: structural address first, then the canonical
        // address behind the fingerprint pre-filter
        let mut solve_items: Vec<(SweepKey, usize)> = Vec::new();
        for item in &todo {
            let entry = self.prepared.get_mut(item).expect("built above");
            let constraint = AgreementConstraint::AtMostKDistinct(item.1);
            let hit = match &self.store {
                None => None,
                Some(store) => store
                    .get(&StoreKey::structural(entry.structural(), constraint))
                    .or_else(|| {
                        if !store.contains_fingerprint(&entry.group.fingerprint()) {
                            self.metrics.key_skips += 1;
                            return None;
                        }
                        let key = entry.canonical(&mut self.metrics)?;
                        store.get(&StoreKey::new(key, constraint))
                    }),
            };
            match hit {
                Some(v) => {
                    outcomes.insert(
                        item.clone(),
                        (
                            SolvabilityResult {
                                solvable: v.solvable,
                                vertices: v.vertices as usize,
                                facets: v.facets as usize,
                            },
                            AnswerSource::Store,
                            entry.build_micros,
                        ),
                    );
                }
                None => solve_items.push(item.clone()),
            }
        }

        // solve the remaining items concurrently against warm instances
        let prepared = &self.prepared;
        let learning = self.opts.learning;
        let solved: Vec<(SolvabilityResult, u128)> =
            ps_topology::parallel::parallel_map(&solve_items, self.threads, |_, item| {
                let t = Instant::now();
                let entry = prepared.get(item).expect("built above");
                let r = entry.group.solve(item.1, learning);
                (r, t.elapsed().as_micros())
            });
        self.metrics.solver_calls += solve_items.len() as u64;

        // persist new verdicts — structural address always, canonical
        // address when available — then checkpoint
        for (item, (r, solve_micros)) in solve_items.iter().zip(solved) {
            let entry = self.prepared.get_mut(item).expect("built above");
            if let Some(store) = self.store.as_mut() {
                let constraint = AgreementConstraint::AtMostKDistinct(item.1);
                let verdict = StoredVerdict {
                    solvable: r.solvable,
                    vertices: r.vertices as u64,
                    facets: r.facets as u64,
                };
                let structural = StoreKey::structural(entry.structural(), constraint);
                let canonical = entry
                    .canonical(&mut self.metrics)
                    .map(|key| StoreKey::new(key, constraint));
                let mut persisted = store.insert(&structural, verdict);
                if let Some(sk) = canonical {
                    persisted |= store.insert(&sk, verdict);
                }
                if persisted {
                    self.metrics.persisted += 1;
                }
            }
            outcomes.insert(
                item.clone(),
                (r, AnswerSource::Solved, entry.build_micros + solve_micros),
            );
        }
        if let Some(store) = &mut self.store {
            store.flush()?;
        }

        // extend the session cache and emit answers in query order
        for item in &todo {
            let (r, _, micros) = &outcomes[item];
            self.session.insert(item.clone(), (r.clone(), *micros));
        }
        let mut answers = Vec::with_capacity(queries.len());
        for q in queries {
            let item = (q.shared_key(), q.k());
            let (r, source, micros) = outcomes[&item].clone();
            self.metrics.queries += 1;
            match source {
                AnswerSource::Session => self.metrics.session_hits += 1,
                AnswerSource::Store => self.metrics.store_hits += 1,
                AnswerSource::Solved => self.metrics.solved += 1,
            }
            self.metrics.total_micros += micros;
            self.metrics.max_micros = self.metrics.max_micros.max(micros);
            answers.push(QueryAnswer {
                result: r,
                source,
                micros,
            });
        }
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psph-serve-unit-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn grid() -> Vec<SweepPoint> {
        vec![
            SweepPoint::Async {
                k: 1,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
            SweepPoint::Async {
                k: 2,
                f: 1,
                n_plus_1: 3,
                rounds: 1,
            },
            SweepPoint::Sync {
                k: 1,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds: 2,
            },
        ]
    }

    #[test]
    fn answers_match_per_point_solves() {
        let points = grid();
        let expected: Vec<SolvabilityResult> = points.iter().map(SweepPoint::run).collect();
        let mut engine = QueryEngine::new(2, SweepOptions::default(), None);
        let answers = engine.answer_batch(&points).unwrap();
        for ((a, e), p) in answers.iter().zip(&expected).zip(&points) {
            assert_eq!(a.result, *e, "{p:?}");
            assert_eq!(a.source, AnswerSource::Solved);
        }
        assert_eq!(engine.metrics().solver_calls, points.len() as u64);
    }

    #[test]
    fn repeat_batches_hit_the_session_cache() {
        let points = grid();
        let mut engine = QueryEngine::new(1, SweepOptions::default(), None);
        let first = engine.answer_batch(&points).unwrap();
        let second = engine.answer_batch(&points).unwrap();
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.result, b.result);
            assert_eq!(b.source, AnswerSource::Session);
        }
        // no new solver work on the repeat batch
        assert_eq!(engine.metrics().solver_calls, points.len() as u64);
        assert_eq!(engine.metrics().session_hits, points.len() as u64);
    }

    #[test]
    fn duplicate_queries_in_one_batch_share_work() {
        let mut points = grid();
        points.extend(grid());
        let mut engine = QueryEngine::new(2, SweepOptions::default(), None);
        let answers = engine.answer_batch(&points).unwrap();
        assert_eq!(answers.len(), 6);
        assert_eq!(answers[0].result, answers[3].result);
        assert_eq!(engine.metrics().solver_calls, 3);
        assert_eq!(engine.metrics().prepared_builds, 3);
    }

    #[test]
    fn store_round_trip_across_engines() {
        let dir = tmp_dir("roundtrip");
        let points = grid();
        let expected: Vec<SolvabilityResult> = points.iter().map(SweepPoint::run).collect();
        {
            let store = VerdictStore::open(&dir).unwrap();
            let mut engine = QueryEngine::new(2, SweepOptions::default(), Some(store));
            let answers = engine.answer_batch(&points).unwrap();
            for (a, e) in answers.iter().zip(&expected) {
                assert_eq!(a.result, *e);
            }
            // cold store: every probe is proven a miss by fingerprint
            assert_eq!(engine.metrics().key_skips, points.len() as u64);
            assert_eq!(engine.metrics().persisted, points.len() as u64);
        }
        // a fresh engine over the same store answers without solving
        let store = VerdictStore::open(&dir).unwrap();
        // every verdict has a structural record; canonicalizable
        // instances carry a canonical record too
        assert!(store.len() >= points.len());
        let mut engine = QueryEngine::new(2, SweepOptions::default(), Some(store));
        let answers = engine.answer_batch(&points).unwrap();
        for ((a, e), p) in answers.iter().zip(&expected).zip(&points) {
            assert_eq!(a.result, *e, "{p:?}");
            assert_eq!(a.source, AnswerSource::Store, "{p:?}");
        }
        assert_eq!(engine.metrics().solver_calls, 0);
        assert_eq!(engine.metrics().store_hits, points.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
