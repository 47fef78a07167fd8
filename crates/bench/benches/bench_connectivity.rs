//! E5/E6 benchmarks: connectivity certification — the Mayer–Vietoris
//! prover vs. brute-force homology. The paper's "succinctness" claim
//! quantified: the symbolic induction is orders of magnitude cheaper
//! than computing Betti numbers of the realized complex, and the gap
//! widens with dimension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ps_core::{process_simplex, MvProver, ProcessId, Pseudosphere, PseudosphereUnion};
use ps_topology::{ConnectivityAnalyzer, Homology};
use std::collections::BTreeSet;
use std::hint::black_box;

fn corollary8_union(n: usize) -> PseudosphereUnion<ProcessId, u8> {
    let base = process_simplex(n);
    [
        Pseudosphere::uniform(base.clone(), [0u8, 1].into_iter().collect()),
        Pseudosphere::uniform(base.clone(), [0u8, 2].into_iter().collect()),
        Pseudosphere::uniform(base, [0u8, 1, 2].into_iter().collect()),
    ]
    .into_iter()
    .collect()
}

fn bench_prover_vs_homology(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity_certification");
    for n in [2usize, 3, 4] {
        let union = corollary8_union(n);
        let k = n as i32 - 2;
        group.bench_with_input(BenchmarkId::new("mv_prover", n), &union, |b, u| {
            b.iter(|| {
                let mut p = MvProver::new();
                black_box(p.prove_k_connected(u, k).is_ok())
            })
        });
        if n <= 3 {
            let realized = union.realize();
            group.bench_with_input(BenchmarkId::new("homology_mod2", n), &realized, |b, r| {
                b.iter(|| black_box(Homology::betti_mod2(r)))
            });
            group.bench_with_input(
                BenchmarkId::new("homology_integral", n),
                &realized,
                |b, r| b.iter(|| black_box(Homology::reduced(r))),
            );
        }
    }
    group.finish();
}

fn bench_analyzer(c: &mut Criterion) {
    let mut group = c.benchmark_group("connectivity_analyzer");
    group.sample_size(20);
    let sphere =
        ps_topology::Complex::simplex(ps_topology::Simplex::from_iter(0u32..5)).skeleton(3);
    group.bench_function("analyzer_S3", |b| {
        b.iter(|| {
            let a = ConnectivityAnalyzer::new(&sphere);
            black_box(a.connectivity())
        })
    });
    let fig1: BTreeSet<u8> = [0, 1].into_iter().collect();
    let oct = Pseudosphere::uniform(process_simplex(3), fig1).realize();
    group.bench_function("analyzer_octahedron", |b| {
        b.iter(|| {
            let a = ConnectivityAnalyzer::new(&oct);
            black_box(a.connectivity())
        })
    });
    group.finish();
}

/// Parallel vs. serial homology on the n = 4, r = 2 synchronous
/// protocol complex (the workhorse instance of the Theorem 18 sweep).
/// Thread counts above the host's core count measure dispatch overhead
/// only; wall-clock gains require real cores.
fn bench_parallel_homology(c: &mut Criterion) {
    use ps_models::{input_simplex, SyncModel};
    let mut group = c.benchmark_group("parallel_homology");
    group.sample_size(10);
    let complex = SyncModel::new(4, 1, 1).protocol_complex(&input_simplex(&[0u8, 1, 2, 3]), 2);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("reduced_sync_n4_r2", threads),
            &threads,
            |b, &t| b.iter(|| black_box(Homology::reduced_with_threads(&complex, t))),
        );
    }
    group.finish();
}

/// Batched model sweep: the (k, r) grid of sync solvability instances
/// dispatched as a job queue on the shared pool.
fn bench_sweep_batch(c: &mut Criterion) {
    use ps_agreement::{solvability_sweep_opts, SweepOptions, SweepPoint};
    let mut group = c.benchmark_group("solvability_sweep");
    group.sample_size(10);
    let points: Vec<SweepPoint> = (1..=2usize)
        .flat_map(|k| {
            (1..=2usize).map(move |rounds| SweepPoint::Sync {
                k,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds,
            })
        })
        .collect();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("sync_n3_grid4", threads),
            &threads,
            |b, &t| {
                b.iter(|| black_box(solvability_sweep_opts(&points, t, SweepOptions::default())))
            },
        );
    }
    group.finish();
}

/// Amortized vs. per-point sweep on the same grid: the shared path
/// builds/interns/indexes each (n, f, r) group's complex once and
/// solves every k against one prepared instance, so the gap between
/// the two groups is the re-preparation cost the amortization removes.
fn bench_sweep_shared(c: &mut Criterion) {
    use ps_agreement::{
        solvability_sweep_opts, solvability_sweep_shared_opts, SweepOptions, SweepPoint,
    };
    let mut group = c.benchmark_group("solvability_sweep_shared");
    group.sample_size(10);
    let points: Vec<SweepPoint> = (1..=3usize)
        .map(|k| SweepPoint::Sync {
            k,
            f: 1,
            n_plus_1: 4,
            k_per_round: 1,
            rounds: 1,
        })
        .collect();
    group.bench_function("sync_n4_ksweep3_per_point", |b| {
        b.iter(|| black_box(solvability_sweep_opts(&points, 1, SweepOptions::default())))
    });
    group.bench_function("sync_n4_ksweep3_shared", |b| {
        b.iter(|| {
            black_box(solvability_sweep_shared_opts(
                &points,
                1,
                SweepOptions::default(),
            ))
        })
    });
    group.finish();
}

/// E20: the sparse word-block engine vs. the dense BitMatrix oracle,
/// and cold vs. warm [`PreparedBoundary`] caches, on the sync n = 4
/// f = 2 protocol complex (756 vertices, 4 779 facets) — the same
/// instance the CI bench-regression smoke times end-to-end.
fn bench_sparse_homology(c: &mut Criterion) {
    use ps_agreement::{connectivity_sweep_shared, sync_task_complex, KSetAgreement, SweepPoint};
    use ps_topology::PreparedBoundary;
    let mut group = c.benchmark_group("sparse_homology");
    group.sample_size(10);
    let complex = sync_task_complex(&KSetAgreement::canonical(2), 4, 2, 2, 1);
    group.bench_function("sync_n4_f2_sparse_cold", |b| {
        b.iter(|| black_box(Homology::betti_mod2(&complex)))
    });
    group.bench_function("sync_n4_f2_dense_oracle", |b| {
        b.iter(|| black_box(Homology::betti_mod2_dense(&complex)))
    });
    group.bench_function("sync_n4_f2_sparse_warm", |b| {
        let mut pb = PreparedBoundary::of_complex(&complex);
        pb.betti_mod2(); // populate every cache level once
        b.iter(|| black_box(pb.betti_mod2()))
    });
    let points: Vec<SweepPoint> = (1..=3usize)
        .map(|k| SweepPoint::Sync {
            k,
            f: 2,
            n_plus_1: 4,
            k_per_round: 2,
            rounds: 1,
        })
        .collect();
    group.bench_function("sync_n4_f2_connectivity_ksweep3", |b| {
        b.iter(|| black_box(connectivity_sweep_shared(&points, 1)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_prover_vs_homology,
    bench_analyzer,
    bench_parallel_homology,
    bench_sweep_batch,
    bench_sweep_shared,
    bench_sparse_homology
);
criterion_main!(benches);
