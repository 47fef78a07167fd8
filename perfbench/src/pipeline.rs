//! The shared-sweep pipeline rebuilt from each layer's public functions,
//! so the traced run can time every layer of a call that the library
//! makes in one piece.
//!
//! The replays follow `solvability_sweep_shared_opts` (default options:
//! symmetry and learning on) and `connectivity_sweep_shared` step for
//! step: group the points by shared key, build each group over the value
//! domain `{0..=k_max}`, prepare and certify it, pre-filter by
//! fingerprint, canonicalize only colliding groups, and search each class
//! representative once per `k`, ascending.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use ps_agreement::{
    allowed_values, allowed_values_ss, async_task_parts, byzantine_task_parts, dynamic_task_parts,
    instance_fingerprint, instance_key, semisync_task_parts, sync_task_parts, task_symmetries,
    AgreementConstraint, ConnectivityResult, DecisionMapSolver, ExactKey, InstanceFingerprint,
    PreparedInstance, SolvabilityResult, SolverConfig, SolverStats, StructuralKey, SweepKey,
    SweepPoint,
};
use ps_models::{SsView, View};
use ps_topology::{IdComplex, PreparedBoundary, VertexPool};

use crate::trace::Tracer;

/// A protocol complex as the model's `*_task_parts` entry point returns it.
enum Parts {
    Views(VertexPool<View<u64>>, IdComplex),
    SsViews(VertexPool<SsView<u64>>, IdComplex),
}

/// A prepared solver instance over either view type.
pub enum Instance {
    Views(PreparedInstance<View<u64>>),
    SsViews(PreparedInstance<SsView<u64>>),
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

/// The value domain `{0..=k}`.
pub fn domain(k: usize) -> BTreeSet<u64> {
    (0..=k as u64).collect()
}

/// Build/intern layer: one group's protocol complex over `values`.
fn build(key: &SweepKey, values: &BTreeSet<u64>) -> Parts {
    match *key {
        SweepKey::Async {
            f,
            n_plus_1,
            rounds,
        } => {
            let (pool, complex) = async_task_parts(values, n_plus_1, f, rounds);
            Parts::Views(pool, complex)
        }
        SweepKey::Sync {
            f,
            n_plus_1,
            k_per_round,
            rounds,
        } => {
            let (pool, complex) = sync_task_parts(values, n_plus_1, k_per_round, f, rounds);
            Parts::Views(pool, complex)
        }
        SweepKey::SemiSync {
            f,
            n_plus_1,
            k_per_round,
            microrounds,
            rounds,
        } => {
            let (pool, complex) =
                semisync_task_parts(values, n_plus_1, k_per_round, f, microrounds, rounds);
            Parts::SsViews(pool, complex)
        }
        SweepKey::Byzantine {
            t,
            n_plus_1,
            rounds,
        } => {
            let (pool, complex) = byzantine_task_parts(values, n_plus_1, t, rounds);
            Parts::Views(pool, complex)
        }
        SweepKey::Dynamic {
            n_plus_1,
            family,
            rounds,
        } => {
            let (pool, complex) = dynamic_task_parts(values, n_plus_1, family, rounds);
            Parts::Views(pool, complex)
        }
    }
}

impl Parts {
    fn complex(&self) -> &IdComplex {
        match self {
            Parts::Views(_, c) | Parts::SsViews(_, c) => c,
        }
    }

    /// Prepare layer.
    fn prepare(&self) -> Instance {
        match self {
            Parts::Views(pool, c) => {
                Instance::Views(PreparedInstance::from_interned(pool, c, allowed_values))
            }
            Parts::SsViews(pool, c) => {
                Instance::SsViews(PreparedInstance::from_interned(pool, c, allowed_values_ss))
            }
        }
    }

    /// Certify layer: certifies the task's process/value symmetries and
    /// attaches them; returns how many the instance kept.
    fn certify(&self, inst: &mut Instance, n_plus_1: usize, values: &BTreeSet<u64>) -> usize {
        let gens = ps_models::process_transpositions(n_plus_1);
        match (self, inst) {
            (Parts::Views(pool, c), Instance::Views(i)) => {
                i.attach_symmetries(task_symmetries(pool, c, n_plus_1, &gens, values))
            }
            (Parts::SsViews(pool, c), Instance::SsViews(i)) => {
                i.attach_symmetries(task_symmetries(pool, c, n_plus_1, &gens, values))
            }
            _ => unreachable!("an instance is prepared from parts of its own view type"),
        }
    }
}

impl Instance {
    pub fn vertex_count(&self) -> usize {
        match self {
            Instance::Views(i) => i.vertex_count(),
            Instance::SsViews(i) => i.vertex_count(),
        }
    }

    pub fn facet_count(&self) -> usize {
        match self {
            Instance::Views(i) => i.facet_count(),
            Instance::SsViews(i) => i.facet_count(),
        }
    }

    pub fn fingerprint(&self) -> InstanceFingerprint {
        match self {
            Instance::Views(i) => instance_fingerprint(i),
            Instance::SsViews(i) => instance_fingerprint(i),
        }
    }

    pub fn exact_key(&self) -> Option<ExactKey> {
        match self {
            Instance::Views(i) => instance_key(i),
            Instance::SsViews(i) => instance_key(i),
        }
    }

    pub fn structural_key(&self) -> StructuralKey {
        match self {
            Instance::Views(i) => StructuralKey::of(i),
            Instance::SsViews(i) => StructuralKey::of(i),
        }
    }

    /// Search layer: a fresh solver with the default configuration, as
    /// the sweeps and the query engine use.
    pub fn solve(&self, k: usize) -> (SolvabilityResult, SolverStats) {
        let mut solver = DecisionMapSolver::with_config(SolverConfig::default());
        let constraint = AgreementConstraint::AtMostKDistinct(k);
        let solvable = match self {
            Instance::Views(i) => solver.solve_prepared(i, constraint).is_some(),
            Instance::SsViews(i) => solver.solve_prepared(i, constraint).is_some(),
        };
        let result = SolvabilityResult {
            solvable,
            vertices: self.vertex_count(),
            facets: self.facet_count(),
        };
        (result, solver.stats())
    }
}

/// Points grouped by shared key, in key order, as the shared sweeps do.
fn groups(points: &[SweepPoint]) -> Vec<(SweepKey, Vec<usize>)> {
    let mut groups: BTreeMap<SweepKey, Vec<usize>> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        groups.entry(p.shared_key()).or_default().push(i);
    }
    groups.into_iter().collect()
}

fn k_max(points: &[SweepPoint], idxs: &[usize]) -> usize {
    idxs.iter().map(|&i| points[i].k()).max().unwrap_or(0)
}

/// Builds, prepares and certifies one instance under `tr`'s layer spans.
pub fn build_instance(
    tr: &mut Tracer,
    group: &str,
    key: &SweepKey,
    values: &BTreeSet<u64>,
) -> Instance {
    let parts = tr.time("build", group, || build(key, values));
    tr.add("build.vertices", parts.complex().vertex_count() as f64);
    tr.add("build.facets", parts.complex().facet_count() as f64);
    let mut inst = tr.time("prepare", group, || parts.prepare());
    let kept = tr.time("certify", group, || {
        parts.certify(&mut inst, n_plus_1(key), values)
    });
    tr.add("certify.kept", kept as f64);
    inst
}

pub fn solve_traced(tr: &mut Tracer, group: &str, inst: &Instance, k: usize) -> SolvabilityResult {
    let (result, stats) = tr.time("search", group, || inst.solve(k));
    tr.add("search.assignments", stats.assignments as f64);
    tr.add("search.backtracks", stats.backtracks as f64);
    tr.add("search.prunings", stats.prunings as f64);
    tr.add("search.backjumps", stats.backjumps as f64);
    tr.add("search.orbit_skips", stats.orbit_skips as f64);
    tr.add("search.nogood_hits", stats.nogood_hits as f64);
    result
}

/// Exact-key attempt under a `canon` span, counted for the exact ratio.
pub fn key_traced(tr: &mut Tracer, group: &str, inst: &Instance) -> Option<ExactKey> {
    let key = tr.time("canon.key", group, || inst.exact_key());
    tr.add("canon.attempts", 1.0);
    tr.add("canon.exact", f64::from(u8::from(key.is_some())));
    key
}

/// Critical-path and total seconds of a call made of parallel phases:
/// at enough threads the slowest job of each phase sets its time.
#[derive(Default)]
struct Phases {
    critical: f64,
    sum: f64,
    current_max: f64,
}

impl Phases {
    fn job(&mut self, seconds: f64) {
        self.sum += seconds;
        self.current_max = self.current_max.max(seconds);
    }

    fn end_phase(&mut self) {
        self.critical += self.current_max;
        self.current_max = 0.0;
    }

    fn serial(&mut self, seconds: f64) {
        self.sum += seconds;
        self.critical += seconds;
    }

    fn record(mut self, tr: &mut Tracer) {
        self.end_phase();
        tr.add("parallel.critical_s", self.critical);
        tr.add("parallel.sum_s", self.sum);
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Layer-by-layer replay of `solvability_sweep_shared_opts` with default
/// options; returns the per-point results in input order.
pub fn replay_solvability(
    tr: &mut Tracer,
    label: &str,
    points: &[SweepPoint],
) -> Vec<SolvabilityResult> {
    let groups = groups(points);
    let names: Vec<String> = groups
        .iter()
        .map(|(k, _)| format!("{label}/{k:?}"))
        .collect();
    let mut phases = Phases::default();

    // build every group (one parallel phase in the library)
    let mut built: Vec<Instance> = Vec::with_capacity(groups.len());
    for ((key, idxs), name) in groups.iter().zip(&names) {
        let values = domain(k_max(points, idxs));
        let (inst, secs) =
            timed(|| tr.span("group", name, |tr| build_instance(tr, name, key, &values)));
        phases.job(secs);
        built.push(inst);
    }
    phases.end_phase();

    // fingerprint pre-filter (serial), then canonicalize only the
    // colliding groups (a parallel phase) and merge equal exact keys
    let mut rep_of: Vec<usize> = (0..groups.len()).collect();
    if groups.len() > 1 {
        let (fps, secs) = timed(|| {
            built
                .iter()
                .zip(&names)
                .map(|(inst, name)| tr.time("canon.fingerprint", name, || inst.fingerprint()))
                .collect::<Vec<_>>()
        });
        phases.serial(secs);
        let mut by_fp: BTreeMap<InstanceFingerprint, Vec<usize>> = BTreeMap::new();
        for (j, fp) in fps.into_iter().enumerate() {
            by_fp.entry(fp).or_default().push(j);
        }
        let colliding: Vec<usize> = by_fp
            .into_values()
            .filter(|js| js.len() > 1)
            .flatten()
            .collect();
        let mut by_key: BTreeMap<ExactKey, usize> = BTreeMap::new();
        for j in colliding {
            let (key, secs) = timed(|| {
                tr.span("group", &names[j], |tr| {
                    key_traced(tr, &names[j], &built[j])
                })
            });
            phases.job(secs);
            if let Some(key) = key {
                rep_of[j] = *by_key.entry(key).or_insert(j);
            }
        }
        phases.end_phase();
    }

    // each class representative solves the union of its members' k
    let mut class_ks: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    for (j, (_, idxs)) in groups.iter().enumerate() {
        class_ks
            .entry(rep_of[j])
            .or_default()
            .extend(idxs.iter().map(|&i| points[i].k()));
    }
    let mut verdicts: BTreeMap<(usize, usize), SolvabilityResult> = BTreeMap::new();
    for (rep, ks) in class_ks {
        let name = &names[rep];
        let (results, secs) = timed(|| {
            tr.span("group", name, |tr| {
                ks.iter()
                    .map(|&k| (k, solve_traced(tr, name, &built[rep], k)))
                    .collect::<Vec<_>>()
            })
        });
        phases.job(secs);
        for (k, r) in results {
            verdicts.insert((rep, k), r);
        }
    }
    phases.record(tr);

    let mut out = vec![None; points.len()];
    for (j, (_, idxs)) in groups.iter().enumerate() {
        for &i in idxs {
            out[i] = Some(verdicts[&(rep_of[j], points[i].k())].clone());
        }
    }
    out.into_iter()
        .map(|r| r.expect("every point is in a group"))
        .collect()
}

/// Layer-by-layer replay of `connectivity_sweep_shared`.
pub fn replay_connectivity(
    tr: &mut Tracer,
    label: &str,
    points: &[SweepPoint],
) -> Vec<ConnectivityResult> {
    let mut phases = Phases::default();
    let mut out = vec![None; points.len()];
    for (key, idxs) in groups(points) {
        let name = format!("{label}/{key:?}");
        let values = domain(k_max(points, &idxs));
        let (answers, secs) = timed(|| {
            tr.span("group", &name, |tr| {
                let parts = tr.time("build", &name, || build(&key, &values));
                let complex = parts.complex();
                let (vertices, facets) = (complex.vertex_count(), complex.facet_count());
                tr.add("build.vertices", vertices as f64);
                tr.add("build.facets", facets as f64);
                let mut pb = tr.time("reduce.prepare", &name, || {
                    PreparedBoundary::of_id_complex(complex)
                });
                let mut order = idxs.clone();
                order.sort_by_key(|&i| points[i].k());
                let answers: Vec<(usize, ConnectivityResult)> = order
                    .into_iter()
                    .map(|i| {
                        let q = points[i].k() as i32 - 1;
                        let connected = tr.time("reduce.query", &name, || pb.is_q_connected(q));
                        let result = ConnectivityResult {
                            vertices,
                            facets,
                            q,
                            connected,
                            assembled_columns: pb.assembled_columns(),
                            additions: pb.stats().additions,
                        };
                        (i, result)
                    })
                    .collect();
                let stats = pb.stats();
                tr.add("reduce.columns", stats.columns as f64);
                tr.add("reduce.cleared", stats.cleared as f64);
                tr.add("reduce.additions", stats.additions as f64);
                tr.add("reduce.word_xors", stats.word_xors as f64);
                answers
            })
        });
        phases.job(secs);
        for (i, r) in answers {
            out[i] = Some(r);
        }
    }
    phases.record(tr);
    out.into_iter()
        .map(|r| r.expect("every point is in a group"))
        .collect()
}
