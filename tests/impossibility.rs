//! Machine-checked impossibility instances: Corollary 13 (asynchronous
//! k-set agreement, k ≤ f) and Theorem 18 (synchronous round lower
//! bound), via exhaustive decision-map search over the full task
//! complexes.
//!
//! Experiments E8 and E10 of EXPERIMENTS.md.

use pseudosphere::agreement::SweepPoint;

#[test]
fn corollary13_async_consensus_impossible_r1_and_r2() {
    // k = 1 ≤ f = 1, n+1 = 3: no decision map at r = 1 or r = 2.
    let r1 = SweepPoint::Async {
        k: 1,
        f: 1,
        n_plus_1: 3,
        rounds: 1,
    }
    .run();
    assert!(!r1.solvable, "{r1:?}");
    let r2 = SweepPoint::Async {
        k: 1,
        f: 1,
        n_plus_1: 3,
        rounds: 2,
    }
    .run();
    assert!(!r2.solvable, "{r2:?}");
}

#[test]
fn corollary13_async_2set_two_failures_impossible() {
    // k = 2 ≤ f = 2, n+1 = 3: impossible at r = 1.
    let r = SweepPoint::Async {
        k: 2,
        f: 2,
        n_plus_1: 3,
        rounds: 1,
    }
    .run();
    assert!(!r.solvable, "{r:?}");
}

#[test]
fn corollary13_async_consensus_impossible_even_with_more_failures() {
    // k = 1 ≤ f = 2, n+1 = 3
    let r = SweepPoint::Async {
        k: 1,
        f: 2,
        n_plus_1: 3,
        rounds: 1,
    }
    .run();
    assert!(!r.solvable, "{r:?}");
}

#[test]
fn async_threshold_tight_k_above_f_solvable() {
    // k = f + 1: solvable (OwnValue would do it); the solver agrees.
    let r = SweepPoint::Async {
        k: 2,
        f: 1,
        n_plus_1: 3,
        rounds: 1,
    }
    .run();
    assert!(r.solvable, "{r:?}");
    let r2 = SweepPoint::Async {
        k: 3,
        f: 2,
        n_plus_1: 3,
        rounds: 1,
    }
    .run();
    assert!(r2.solvable, "{r2:?}");
}

#[test]
fn theorem18_consensus_three_processes() {
    // n+1 = 3, f = 1, k = 1: r = 1 impossible, r = 2 solvable
    // (FloodSet's ⌊f/k⌋ + 1 = 2 rounds are necessary and sufficient).
    let r0 = SweepPoint::Sync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        rounds: 0,
    }
    .run();
    assert!(!r0.solvable, "{r0:?}");
    let r1 = SweepPoint::Sync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        rounds: 1,
    }
    .run();
    assert!(!r1.solvable, "{r1:?}");
    let r2 = SweepPoint::Sync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        rounds: 2,
    }
    .run();
    assert!(r2.solvable, "{r2:?}");
}

#[test]
fn theorem18_consensus_four_processes_round_one_impossible() {
    // n+1 = 4, f = 1, k = 1 (n > f + k): Theorem 18's bound is
    // ⌊f/k⌋ + 1 = 2 rounds, so r = 1 must be unsolvable.
    let r1 = SweepPoint::Sync {
        k: 1,
        f: 1,
        n_plus_1: 4,
        k_per_round: 1,
        rounds: 1,
    }
    .run();
    assert!(!r1.solvable, "{r1:?}");
}

#[test]
fn theorem18_2set_agreement_one_round_suffices_with_one_failure() {
    // k = 2, f = 1: ⌊f/k⌋ + 1 = 1 round; r = 0 impossible, r = 1 solvable.
    let r0 = SweepPoint::Sync {
        k: 2,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        rounds: 0,
    }
    .run();
    assert!(!r0.solvable, "{r0:?}");
    let r1 = SweepPoint::Sync {
        k: 2,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        rounds: 1,
    }
    .run();
    assert!(r1.solvable, "{r1:?}");
}

#[test]
fn theorem18_2set_agreement_two_failures() {
    // k = 2, f = 2, n+1 = 4, per-round cap 2: bound ⌊2/2⌋ + 1 = 2 when
    // n > f + k (3 > 4 fails), so Theorem 18 only forces ⌊f/k⌋ = 1
    // round; check r = 0 impossible and record r = 1's status.
    let r0 = SweepPoint::Sync {
        k: 2,
        f: 2,
        n_plus_1: 4,
        k_per_round: 2,
        rounds: 0,
    }
    .run();
    assert!(!r0.solvable, "{r0:?}");
    let r1 = SweepPoint::Sync {
        k: 2,
        f: 2,
        n_plus_1: 4,
        k_per_round: 2,
        rounds: 1,
    }
    .run();
    // r = 1 is solvable here: with n ≤ f + k the weaker bound is tight.
    assert!(r1.solvable, "{r1:?}");
}

#[test]
fn input_complex_alone_never_solves() {
    // r = 0 (the bare input complex) cannot solve any nontrivial
    // instance: the input pseudosphere is (n-1)-connected.
    for (k, f, n_plus_1) in [(1usize, 1usize, 3usize), (2, 1, 3), (2, 2, 4)] {
        let r = SweepPoint::Sync {
            k,
            f,
            n_plus_1,
            k_per_round: f,
            rounds: 0,
        }
        .run();
        assert!(!r.solvable, "k={k} f={f} n+1={n_plus_1}");
    }
}
