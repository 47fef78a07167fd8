//! Regenerates the measured numbers behind EXPERIMENTS.md in one run and
//! writes `experiments_report.txt`.
//!
//! ```bash
//! cargo run --release --example generate_report
//! ```

use std::collections::BTreeSet;
use std::fmt::Write as _;

use pseudosphere::agreement::{
    async_approximate_solvable, corollary10_async, stretch_experiment, SweepPoint,
};
use pseudosphere::core::{process_simplex, MvProver, Pseudosphere};
use pseudosphere::models::{input_simplex, AsyncModel, IisModel, SemiSyncModel, SyncModel};
use pseudosphere::runtime::TimedParams;
use pseudosphere::topology::{ConnectivityAnalyzer, Homology};

fn main() {
    let mut r = String::new();
    let _ = writeln!(r, "pseudosphere experiment report");
    let _ = writeln!(r, "==============================\n");

    // E1/E2: figures
    let fig1 = Pseudosphere::uniform(process_simplex(3), [0u8, 1].into_iter().collect());
    let c1 = fig1.realize();
    let h1 = Homology::reduced(&c1);
    let _ = writeln!(
        r,
        "E1 Figure 1: f-vector {:?}, euler {}, homology [{}]",
        c1.f_vector(),
        c1.euler_characteristic(),
        h1
    );
    let fig2b = Pseudosphere::uniform(process_simplex(2), [0u8, 1, 2].into_iter().collect());
    let _ = writeln!(
        r,
        "E2 Figure 2b: f-vector {:?}, wedge size {} (= top Betti {})",
        fig2b.realize().f_vector(),
        fig2b.wedge_size(),
        Homology::reduced(&fig2b.realize()).betti(1)
    );

    // E3: figure 3 + connectivity
    let sync = SyncModel::new(3, 1, 1);
    let input3 = input_simplex(&[0u8, 1, 2]);
    let union3 = sync.one_round_union(&input3);
    let c3 = union3.realize();
    let _ = writeln!(
        r,
        "E3 Figure 3: {} members, f-vector {:?}, H~1 = Z^{}",
        union3.len(),
        c3.f_vector(),
        Homology::reduced(&c3).betti(1)
    );

    // E5: prover vs homology on Figure 3
    let proof = MvProver::new().prove_k_connected(&union3, 0);
    let _ = writeln!(
        r,
        "E5 MV prover certifies S¹(S²) 0-connected: {} ({} nodes); homology agrees: {}",
        proof.is_ok(),
        proof.as_ref().map(|p| p.size()).unwrap_or(0),
        ConnectivityAnalyzer::new(&c3).is_k_connected(0).is_yes()
    );

    // E7: Lemma 11 counts
    let asy = AsyncModel::new(3, 1);
    let _ = writeln!(
        r,
        "E7 Lemma 11: A¹ pseudosphere facets {} == view complex facets {}",
        asy.one_round_pseudosphere(&input3).facet_count(),
        asy.one_round_complex(&input3).facet_count()
    );

    // E8: async impossibility sweep
    let _ = writeln!(r, "\nE8 Corollary 13 (async, 3 processes):");
    for (k, f, rounds) in [
        (1usize, 1usize, 1usize),
        (1, 1, 2),
        (1, 2, 1),
        (2, 2, 1),
        (2, 1, 1),
    ] {
        let res = SweepPoint::Async {
            k,
            f,
            n_plus_1: 3,
            rounds,
        }
        .run();
        let _ = writeln!(
            r,
            "  k={k} f={f} r={rounds}: {} ({} vertices, {} facets)",
            if res.solvable {
                "map exists"
            } else {
                "no map (proof)"
            },
            res.vertices,
            res.facets
        );
    }
    let c10 = corollary10_async(1, 3, 1);
    let _ = writeln!(
        r,
        "  Corollary 10 bridge: hypothesis {}, conclusion {}, consistent {}",
        c10.hypothesis_holds,
        c10.no_decision_map,
        c10.consistent()
    );

    // E10: sync staircase
    let _ = writeln!(r, "\nE10 Theorem 18 staircase (sync):");
    for (n, f, k) in [(3usize, 1usize, 1usize), (4, 1, 1), (3, 1, 2), (3, 2, 2)] {
        let mut row = format!("  n+1={n} f={f} k={k}:");
        for rounds in 0..=(f / k + 1) {
            let res = SweepPoint::Sync {
                k,
                f,
                n_plus_1: n,
                k_per_round: f.min(k.max(1)),
                rounds,
            }
            .run();
            let _ = write!(
                row,
                " r{rounds}={}",
                if res.solvable { "YES" } else { "no" }
            );
        }
        let bound = SyncModel::theorem18_round_bound(n - 1, f, k);
        let _ = writeln!(r, "{row}   (Theorem 18 bound = {bound})");
    }

    // E11: semisync member counts and Lemma 21
    let _ = writeln!(r, "\nE11 semi-sync one-round structure:");
    for p in [1u32, 2, 3] {
        let m = SemiSyncModel::new(3, 1, 1, p);
        let u = m.one_round_union(&input3);
        let ok = MvProver::new().prove_k_connected(&u, 0).is_ok();
        let _ = writeln!(
            r,
            "  p={p}: {} members, prover certifies 0-connected: {ok}",
            u.len()
        );
    }

    // E12: stretch sweep
    let _ = writeln!(r, "\nE12 Corollary 22 stretch (d = 8):");
    for c2 in [1u64, 2, 4, 8, 16] {
        let params = TimedParams::new(1, c2, 8);
        let o = stretch_experiment(3, 1, params);
        let _ = writeln!(
            r,
            "  C={c2}: bound {:.0}, stretched {}, failure-free {}, respected {}",
            o.bound,
            o.decision_time,
            o.failure_free_time,
            o.respects_bound()
        );
    }

    // approximate agreement contrast
    let values: BTreeSet<u64> = (0..=2).collect();
    let exact = async_approximate_solvable(0, &values, 1, 3, 1);
    let coarse = async_approximate_solvable(2, &values, 1, 3, 1);
    let mid = async_approximate_solvable(1, &values, 1, 3, 1);
    let _ = writeln!(
        r,
        "\nApproximate agreement (async, f=1, values 0..=2, 1 round):\n  \
         range 0 (consensus): {}; range 1: {}; range 2: {}",
        if exact.solvable {
            "solvable"
        } else {
            "impossible"
        },
        if mid.solvable {
            "solvable"
        } else {
            "impossible"
        },
        if coarse.solvable {
            "solvable"
        } else {
            "impossible"
        },
    );

    // IIS baseline
    let iis = IisModel::new().one_round_complex(&input3);
    let _ = writeln!(
        r,
        "\nIIS baseline: {} facets (ordered Bell(3) = 13), contractible: {}",
        iis.facet_count(),
        Homology::reduced(&iis).homological_connectivity() == i32::MAX
    );

    print!("{r}");
    std::fs::write("experiments_report.txt", &r).expect("write report");
    println!("\nwrote experiments_report.txt");
}
