//! Property-based equivalence of the label-typed `Complex` façade and
//! the interned id path (`VertexPool` / `IdSimplex` / `IdComplex`).
//!
//! The interning layer promises *byte-identical* results: a canonical
//! pool assigns ids in ascending label order, so id-lexicographic
//! enumeration must coincide with label-lexicographic enumeration, and
//! every operation routed through ids must resolve back to exactly the
//! complex the label path produces.

use std::collections::BTreeSet;

use proptest::prelude::*;
use pseudosphere::topology::{
    ChainComplex, Complex, Homology, IdComplex, IdSimplex, InternedBuilder, Simplex, VertexPool,
};

/// A random small complex over vertices `0..max_vert`.
fn arb_complex(max_vert: u32, max_facets: usize) -> impl Strategy<Value = Complex<u32>> {
    prop::collection::vec(
        prop::collection::btree_set(0..max_vert, 1..=4usize),
        1..=max_facets,
    )
    .prop_map(|facets| Complex::from_facets(facets.into_iter().map(Simplex::from_iter)))
}

/// A random sorted id set, optionally shifted past 64 to force the
/// wider `IdSimplex` representations.
fn arb_ids(shift: u32) -> impl Strategy<Value = BTreeSet<u32>> {
    prop::collection::btree_set(0u32..80, 1..=6usize)
        .prop_map(move |s| s.into_iter().map(|x| x + shift).collect())
}

/// A random id set drawn across all three `IdSimplex` tiers: ids from
/// `0..160` hit the `Bits` (< 64), `Bits2` (< 128), and `Sorted`
/// (≥ 128) representations, and mixed sets cross both boundaries.
fn arb_tier_ids() -> impl Strategy<Value = BTreeSet<u32>> {
    prop::collection::btree_set(0u32..160, 0..=8usize)
}

/// Interns `c` into a caller-supplied pool (mirroring what the façade
/// does internally via a canonical pool).
fn intern_with(c: &Complex<u32>, pool: &mut VertexPool<u32>) -> IdComplex {
    let mut out = IdComplex::new();
    for f in c.facets() {
        out.add_simplex(pool.intern_simplex(f));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_is_identity_and_order_preserving(c in arb_complex(40, 8)) {
        let (pool, idc) = c.to_interned();
        prop_assert!(pool.is_canonical());
        let back = Complex::from_interned(&pool, &idc);
        prop_assert_eq!(&back, &c);
        // facet enumeration order is byte-identical, not just set-equal
        let orig: Vec<Simplex<u32>> = c.facets().cloned().collect();
        let rt: Vec<Simplex<u32>> = back.facets().cloned().collect();
        prop_assert_eq!(orig, rt);
    }

    #[test]
    fn cached_invariants_match_facade(c in arb_complex(40, 8)) {
        let (_, idc) = c.to_interned();
        prop_assert_eq!(idc.dim(), c.dim());
        prop_assert_eq!(idc.facet_count(), c.facet_count());
        prop_assert_eq!(idc.vertex_count(), c.vertex_set().len());
        prop_assert_eq!(idc.f_vector(), c.f_vector());
        prop_assert_eq!(idc.euler_characteristic(), c.euler_characteristic());
        prop_assert_eq!(idc.is_pure(), c.is_pure());
        prop_assert_eq!(idc.is_connected(), c.is_connected());
    }

    #[test]
    fn binary_ops_agree_under_shared_pool(a in arb_complex(30, 6), b in arb_complex(30, 6)) {
        // a shared (non-canonical) pool: ids reflect insertion order, yet
        // resolving each id-level op must still equal the label-level op
        let mut pool = VertexPool::new();
        let ia = intern_with(&a, &mut pool);
        let ib = intern_with(&b, &mut pool);
        prop_assert_eq!(
            Complex::from_interned(&pool, &ia.union(&ib)),
            a.union(&b)
        );
        prop_assert_eq!(
            Complex::from_interned(&pool, &ia.intersection(&ib)),
            a.intersection(&b)
        );
    }

    #[test]
    fn join_agrees_on_disjoint_shifted_copies(a in arb_complex(20, 4), b in arb_complex(20, 4)) {
        let b_shifted = b.map(|v| *v + 100);
        let mut pool = VertexPool::new();
        let ia = intern_with(&a, &mut pool);
        let ib = intern_with(&b_shifted, &mut pool);
        prop_assert_eq!(
            Complex::from_interned(&pool, &ia.join(&ib)),
            a.join(&b_shifted)
        );
    }

    #[test]
    fn skeleton_star_link_agree(c in arb_complex(30, 8), k in 0usize..3, v in 0u32..30) {
        let (pool, idc) = c.to_interned();
        prop_assert_eq!(
            Complex::from_interned(&pool, &idc.skeleton(k as i32)),
            c.skeleton(k as i32)
        );
        if let Some(id) = pool.id_of(&v) {
            let sv = IdSimplex::vertex(id);
            prop_assert_eq!(
                Complex::from_interned(&pool, &idc.star(&sv)),
                c.star(&Simplex::vertex(v))
            );
            prop_assert_eq!(
                Complex::from_interned(&pool, &idc.link(&sv)),
                c.link(&Simplex::vertex(v))
            );
        } else {
            prop_assert!(c.star(&Simplex::vertex(v)).is_void());
        }
    }

    #[test]
    fn closure_enumeration_agrees(c in arb_complex(30, 6)) {
        let (pool, idc) = c.to_interned();
        for d in -1..=c.dim() {
            let label: Vec<Simplex<u32>> = c.simplices_of_dim(d).into_iter().collect();
            let resolved: Vec<Simplex<u32>> = idc
                .simplices_of_dim(d)
                .iter()
                .map(|s| pool.resolve_simplex(s))
                .collect();
            prop_assert_eq!(label, resolved);
        }
    }

    #[test]
    fn id_simplex_tiers_agree_with_set_model(a in arb_tier_ids(), b in arb_tier_ids()) {
        // every set operation must agree with the generic BTreeSet path
        // regardless of which side of the 64/128 boundaries the ids land
        let ia = IdSimplex::from_ids(a.iter().copied().collect());
        let ib = IdSimplex::from_ids(b.iter().copied().collect());
        let mk = |s: &BTreeSet<u32>| IdSimplex::from_ids(s.iter().copied().collect());
        prop_assert_eq!(ia.len(), a.len());
        prop_assert_eq!(ia.is_empty(), a.is_empty());
        prop_assert_eq!(ia.ids().collect::<Vec<u32>>(), a.iter().copied().collect::<Vec<u32>>());
        prop_assert_eq!(ia.union(&ib), mk(&a.union(&b).copied().collect()));
        prop_assert_eq!(ia.intersection(&ib), mk(&a.intersection(&b).copied().collect()));
        prop_assert_eq!(ia.is_face_of(&ib), a.is_subset(&b));
        prop_assert_eq!(
            ia.cmp(&ib),
            a.iter().copied().collect::<Vec<u32>>().cmp(&b.iter().copied().collect::<Vec<u32>>())
        );
        for probe in [0u32, 63, 64, 127, 128, 159] {
            prop_assert_eq!(ia.contains(probe), a.contains(&probe));
            let mut without = a.clone();
            without.remove(&probe);
            prop_assert_eq!(ia.without(probe), mk(&without));
            let mut with = a.clone();
            with.insert(probe);
            prop_assert_eq!(ia.with(probe), mk(&with));
        }
        // the representation is canonical for the id range
        match a.iter().max() {
            None => prop_assert!(matches!(ia, IdSimplex::Bits(0))),
            Some(&m) if m < 64 => prop_assert!(matches!(ia, IdSimplex::Bits(_))),
            Some(&m) if m < 128 => prop_assert!(matches!(ia, IdSimplex::Bits2(_))),
            Some(_) => prop_assert!(matches!(ia, IdSimplex::Sorted(_))),
        }
    }

    #[test]
    fn id_simplex_order_mirrors_label_order(a in arb_ids(0), b in arb_ids(40)) {
        // 40-shift straddles the 64 boundary: mixes Bits and Bits2 reps
        let ia = IdSimplex::from_ids(a.iter().copied().collect());
        let ib = IdSimplex::from_ids(b.iter().copied().collect());
        let sa = Simplex::from_iter(a);
        let sb = Simplex::from_iter(b);
        prop_assert_eq!(ia.cmp(&ib), sa.cmp(&sb));
        prop_assert_eq!(ib.cmp(&ia), sb.cmp(&sa));
        prop_assert_eq!(ia.is_face_of(&ib), sa.is_face_of(&sb));
    }

    #[test]
    fn homology_unchanged_by_interning_roundtrip(c in arb_complex(8, 6)) {
        // ChainComplex::of internally runs on ids; its public basis must
        // stay the label-lex basis and Betti numbers must match a complex
        // rebuilt through an explicit roundtrip
        let cc = ChainComplex::of(&c);
        prop_assert!(cc.verify_boundary_squared_zero());
        let (pool, idc) = c.to_interned();
        let back = Complex::from_interned(&pool, &idc);
        let h1 = Homology::reduced(&c);
        let h2 = Homology::reduced(&back);
        for d in 0..=c.dim() {
            prop_assert_eq!(h1.betti(d), h2.betti(d));
        }
        for (d, dimension_basis) in cc.basis.iter().enumerate() {
            let expect: Vec<Simplex<u32>> =
                c.simplices_of_dim(d as i32).into_iter().collect();
            prop_assert_eq!(dimension_basis, &expect);
        }
    }

    #[test]
    fn builder_absorption_matches_add_simplex(facets in prop::collection::vec(
        prop::collection::btree_set(0u32..25, 1..=4usize), 1..=8usize)) {
        // checked builder inserts == label-path absorption, including when
        // later facets absorb earlier ones
        let mut builder = InternedBuilder::new();
        let mut label = Complex::new();
        for f in &facets {
            let s = Simplex::from_iter(f.iter().copied());
            builder.add_facet(&s);
            label.add_simplex(s);
        }
        prop_assert_eq!(builder.finish(), label);
    }
}

/// Random id sets for the absorption-index properties: up to 24 sets
/// of one to five ids drawn from a window of twelve, so the sets overlap
/// heavily (faces and cofaces of each other are common).
fn arb_window_sets() -> impl Strategy<Value = Vec<BTreeSet<u32>>> {
    prop::collection::vec(
        prop::collection::btree_set(0u32..12, 1..=5usize),
        1..=24usize,
    )
}

/// A mixed-size insertion sequence: `sets` shifted to the window at `0`,
/// `58` or `122` (the two upper windows straddle the 64 and 128
/// `IdSimplex` tier boundaries) and fed in the given `order`: 0 = as
/// drawn (sizes interleaved), 1 = smallest first (maximal absorption
/// work), 2 = as drawn with its first half repeated at the end
/// (duplicates of stored facets and of absorbed faces).
fn insertion_sequence(sets: Vec<BTreeSet<u32>>, window: usize, order: usize) -> Vec<BTreeSet<u32>> {
    let base = [0u32, 58, 122][window];
    let mut seq: Vec<BTreeSet<u32>> = sets
        .into_iter()
        .map(|s| s.into_iter().map(|x| x + base).collect())
        .collect();
    match order {
        1 => seq.sort_by_key(BTreeSet::len),
        2 => {
            let half: Vec<_> = seq[..seq.len().div_ceil(2)].to_vec();
            seq.extend(half);
        }
        _ => {}
    }
    seq
}

/// The maximal sets of `seq`, in lexicographic order: the facet
/// anti-chain any insertion order must produce.
fn brute_force_antichain(seq: &[BTreeSet<u32>]) -> Vec<Vec<u32>> {
    let distinct: BTreeSet<&BTreeSet<u32>> = seq.iter().collect();
    let mut out: Vec<Vec<u32>> = distinct
        .iter()
        .filter(|s| !distinct.iter().any(|t| t != *s && s.is_subset(t)))
        .map(|s| s.iter().copied().collect())
        .collect();
    out.sort();
    out
}

fn id_simplex(s: &BTreeSet<u32>) -> IdSimplex {
    IdSimplex::from_ids(s.iter().copied().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_absorption_matches_brute_force(
        sets in arb_window_sets(),
        window in 0usize..3,
        order in 0usize..3,
    ) {
        let seq = insertion_sequence(sets, window, order);
        let mut idc = IdComplex::new();
        let mut label = Complex::new();
        for s in &seq {
            idc.add_simplex(id_simplex(s));
            label.add_simplex(Simplex::from_iter(s.iter().copied()));
        }
        let expect = brute_force_antichain(&seq);
        let got: Vec<Vec<u32>> = idc.facets().map(|f| f.ids().collect()).collect();
        prop_assert_eq!(&got, &expect);
        let from_label: Vec<Vec<u32>> = label.facets().map(|f| f.vertices().to_vec()).collect();
        prop_assert_eq!(&from_label, &expect);
        // the size histogram, vertex set and dimension caches
        let mut sizes = std::collections::BTreeMap::new();
        for f in &expect {
            *sizes.entry(f.len()).or_insert(0usize) += 1;
        }
        prop_assert_eq!(idc.facet_size_counts(), &sizes);
        let verts: BTreeSet<u32> = expect.iter().flatten().copied().collect();
        prop_assert_eq!(idc.vertex_set(), &verts);
        let dim = expect.iter().map(|f| f.len() as i32 - 1).max().unwrap_or(-1);
        prop_assert_eq!(idc.dim(), dim);
    }

    #[test]
    fn index_is_invisible_to_equality_clone_and_debug(
        sets in arb_window_sets(),
        window in 0usize..3,
        order in 0usize..3,
        split in 0usize..24,
    ) {
        let seq = insertion_sequence(sets, window, order);
        // `indexed` goes through add_simplex (mixed sizes build the
        // index); `plain` inserts the final anti-chain directly and
        // never needs one
        let mut indexed = IdComplex::new();
        for s in &seq {
            indexed.add_simplex(id_simplex(s));
        }
        let mut plain = IdComplex::new();
        for f in brute_force_antichain(&seq) {
            plain.insert_facet_unchecked(IdSimplex::from_sorted_ids(f));
        }
        prop_assert_eq!(&indexed, &plain);
        prop_assert_eq!(format!("{indexed:?}"), format!("{plain:?}"));
        prop_assert_eq!(&IdComplex::from_facets(seq.iter().map(id_simplex)), &plain);
        // a clone drops the index; growing the original (index kept up
        // to date) and the clone (index rebuilt on demand) by the same
        // suffix must agree with the brute force
        let cut = split.min(seq.len());
        let mut a = IdComplex::new();
        for s in &seq[..cut] {
            a.add_simplex(id_simplex(s));
        }
        let mut b = a.clone();
        prop_assert_eq!(&a, &b);
        for s in &seq[cut..] {
            a.add_simplex(id_simplex(s));
            b.add_simplex(id_simplex(s));
        }
        prop_assert_eq!(&a, &plain);
        prop_assert_eq!(&b, &plain);
    }
}
