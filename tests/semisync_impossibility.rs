//! Semi-synchronous round solvability (the combinatorial side of §8):
//! the decision-map staircase for M^r mirrors the synchronous one —
//! as the paper's unification predicts, since the round structures share
//! the same union-of-pseudospheres shape.

use pseudosphere::agreement::SweepPoint;

#[test]
fn semisync_consensus_round_staircase() {
    // 3 processes, f = 1, k = 1, p = 2 microrounds
    let r0 = SweepPoint::SemiSync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        microrounds: 2,
        rounds: 0,
    }
    .run();
    assert!(!r0.solvable, "{r0:?}");
    let r1 = SweepPoint::SemiSync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        microrounds: 2,
        rounds: 1,
    }
    .run();
    assert!(!r1.solvable, "{r1:?}");
    let r2 = SweepPoint::SemiSync {
        k: 1,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        microrounds: 2,
        rounds: 2,
    }
    .run();
    assert!(r2.solvable, "{r2:?}");
}

#[test]
fn semisync_matches_sync_staircase_for_p1() {
    // with a single microround the semi-synchronous round structure
    // degenerates to the synchronous one (μ ∈ {0, 1} = reached or not),
    // so solvability must match round for round.
    for rounds in 0..=2usize {
        let ss = SweepPoint::SemiSync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: 1,
            rounds,
        }
        .run();
        let sy = SweepPoint::Sync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            rounds,
        }
        .run();
        assert_eq!(
            ss.solvable, sy.solvable,
            "r = {rounds}: semisync {ss:?} vs sync {sy:?}"
        );
    }
}

#[test]
fn semisync_2set_one_round_suffices() {
    // k = 2, f = 1: one round is enough, as in the synchronous model
    let r1 = SweepPoint::SemiSync {
        k: 2,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        microrounds: 2,
        rounds: 1,
    }
    .run();
    assert!(r1.solvable, "{r1:?}");
    let r0 = SweepPoint::SemiSync {
        k: 2,
        f: 1,
        n_plus_1: 3,
        k_per_round: 1,
        microrounds: 2,
        rounds: 0,
    }
    .run();
    assert!(!r0.solvable, "{r0:?}");
}

#[test]
fn more_microrounds_do_not_rescue_one_round_consensus() {
    // finer microround structure gives the adversary *more* failure
    // patterns, never fewer: one round stays unsolvable as p grows
    for p in [1u32, 2, 3] {
        let r = SweepPoint::SemiSync {
            k: 1,
            f: 1,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: p,
            rounds: 1,
        }
        .run();
        assert!(!r.solvable, "p = {p}: {r:?}");
    }
}
