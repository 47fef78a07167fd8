//! Differential property tests for the Byzantine and dynamic-network
//! models: the combinatorial recursions of `ps-models` must agree with
//! the independent simulator-side enumerators of `ps-runtime` on every
//! randomly drawn small instance, and the solver's verdicts must be
//! invariant under the sweep path (shared vs independent) and the
//! symmetry toggle.

use proptest::prelude::*;
use pseudosphere::agreement::{
    solvability_sweep_opts, solvability_sweep_shared_opts, SweepOptions, SweepPoint,
};
use pseudosphere::models::{input_simplex, ByzantineModel, DynamicModel, GraphFamily};
use pseudosphere::runtime::{enumerate_byzantine_views, enumerate_dynamic_views};

/// Input assignments for `n + 1 ≤ 3` processes over a tiny alphabet —
/// the regime where the exhaustive enumerators stay fast.
fn arb_inputs() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..3, 1..=3usize)
}

fn family_of(flag: bool) -> GraphFamily {
    if flag {
        GraphFamily::Rooted
    } else {
        GraphFamily::StronglyConnected
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn byzantine_recursion_equals_enumerator(
        inputs in arb_inputs(),
        t in 0usize..=2,
        rounds in 0usize..=2,
    ) {
        // cap the heavy corner: 3 procs × t=2 × r=2 explodes the menu
        // odometer without adding coverage beyond the r=1 cases
        let rounds = if inputs.len() == 3 && t == 2 { rounds.min(1) } else { rounds };
        let model = ByzantineModel::new(inputs.len(), t);
        let input = input_simplex(&inputs);
        let from_model = model.protocol_complex(&input, rounds);
        let from_sim = enumerate_byzantine_views(&inputs, t, rounds);
        prop_assert_eq!(from_model, from_sim);
    }

    #[test]
    fn dynamic_recursion_equals_enumerator(
        inputs in arb_inputs(),
        rooted in 0u8..2,
        rounds in 0usize..=2,
    ) {
        let family = family_of(rooted == 1);
        let model = DynamicModel::new(inputs.len(), family);
        let input = input_simplex(&inputs);
        let from_model = model.protocol_complex(&input, rounds);
        let from_sim = enumerate_dynamic_views(&inputs, family, rounds);
        prop_assert_eq!(from_model, from_sim);
    }

    #[test]
    fn shared_and_independent_sweeps_agree_on_new_models(
        k in 1usize..=2,
        t in 0usize..=1,
        rooted in 0u8..2,
    ) {
        let points = vec![
            SweepPoint::Byzantine { k, t, n_plus_1: 3, rounds: 1 },
            SweepPoint::Dynamic { k, n_plus_1: 2, family: family_of(rooted == 1), rounds: 1 },
        ];
        let independent = solvability_sweep_opts(&points, 1, SweepOptions::default());
        let shared = solvability_sweep_shared_opts(&points, 2, SweepOptions::default());
        for (i, (s, c)) in shared.iter().zip(&independent).enumerate() {
            prop_assert_eq!(s.solvable, c.solvable, "point {}: {:?}", i, points[i]);
        }
    }

    #[test]
    fn symmetry_toggle_preserves_new_model_verdicts(
        k in 1usize..=2,
        t in 0usize..=1,
        rounds in 1usize..=2,
        rooted in 0u8..2,
    ) {
        // byzantine r=2 at n+1=3 is heavy; differential coverage at
        // r=2 comes from the cheaper dynamic model below
        let byz_rounds = rounds.min(1);
        let on = SweepOptions { symmetry: true, ..SweepOptions::default() };
        let off = SweepOptions { symmetry: false, ..SweepOptions::default() };
        prop_assert_eq!(
            SweepPoint::Byzantine { k, t, n_plus_1: 3, rounds: byz_rounds }.run_opts(on),
            SweepPoint::Byzantine { k, t, n_plus_1: 3, rounds: byz_rounds }.run_opts(off),
        );
        let family = family_of(rooted == 1);
        prop_assert_eq!(
            SweepPoint::Dynamic { k, n_plus_1: 2, family, rounds }.run_opts(on),
            SweepPoint::Dynamic { k, n_plus_1: 2, family, rounds }.run_opts(off),
        );
    }
}
