//! Group actions on interned complexes through `VertexPool`
//! relabeling.
//!
//! A symmetry of a protocol complex is naturally described at the
//! *label* level — e.g. "swap processes 1 and 2 and swap input values
//! 0 and 1", acting on full-information views. [`pool_permutation`]
//! lifts such a label action to a permutation of dense vertex ids by
//! looking each image up in the pool, and fails (returns `None`) when
//! the action does not map the pool's label set onto itself. Once
//! lifted, checking that the action preserves an [`IdComplex`] is one
//! allocation-free facet-set membership scan
//! ([`AutomorphismValidator`]).

use std::hash::Hasher;

use ps_topology::{IdComplex, IdSimplex, Label, VertexPool, WordHasher};

use crate::perm::Perm;

/// Lifts a label-level action to a vertex-id permutation through a
/// pool.
///
/// Returns `None` when the action is not a bijection of the pool's
/// label set onto itself (some image is not an interned label, or two
/// labels collide). The resulting permutation has degree `pool.len()`.
pub fn pool_permutation<V: Label>(pool: &VertexPool<V>, act: impl Fn(&V) -> V) -> Option<Perm> {
    let mut images = Vec::with_capacity(pool.len());
    for v in pool.labels() {
        images.push(pool.id_of(&act(v))?);
    }
    Perm::from_images(images)
}

/// Applies a vertex-id permutation to a simplex.
///
/// # Panics
/// Panics if the simplex contains an id outside the permutation's
/// degree.
pub fn apply_to_simplex(perm: &Perm, s: &IdSimplex) -> IdSimplex {
    IdSimplex::from_ids(s.ids().map(|id| perm.apply(id)).collect())
}

/// Applies a vertex-id permutation to every facet of a complex.
///
/// Because a permutation is a bijection on vertices, the image of a
/// facet anti-chain is again an anti-chain, so facets are inserted
/// unchecked.
pub fn apply_to_complex(perm: &Perm, c: &IdComplex) -> IdComplex {
    let mut out = IdComplex::new();
    for f in c.facets() {
        out.insert_facet_unchecked(apply_to_simplex(perm, f));
    }
    out
}

/// Decides whether vertex-id permutations preserve a fixed complex.
///
/// An id permutation `σ` is an automorphism of a complex `C` iff it
/// maps the facet set onto itself: a bijective vertex map sends
/// maximal simplexes to maximal simplexes, and injectivity on a
/// finite set makes "into" equal "onto". The validator indexes the
/// facet set once, in an open-addressed table that holds every facet's
/// ascending ids inline (padded to the largest facet size) and is
/// probed with a [`WordHasher`] pass over them. Each check maps every
/// facet into one reused buffer, sorts it and probes the table: no
/// allocation per facet, one representation for every facet size and
/// id range, and a probe compares whole id lists, so the answer is
/// exact. Each check is `O(facets × facet size)`; the table takes
/// `2–4 × facets × largest facet size` ids, compact when facet sizes
/// are close, as in protocol complexes (at most `n + 1` ids each).
pub struct AutomorphismValidator {
    /// Slot `i` is `table[i * width..(i + 1) * width]`: a facet's
    /// ascending ids padded with [`END`], or all [`END`] when empty.
    /// Linear probing over a power-of-two slot count at least twice the
    /// facet count.
    table: Vec<u32>,
    /// The size of the largest facet (at least 1).
    width: usize,
    /// The slot count minus one.
    mask: usize,
    /// The permutation degree the complex was indexed for.
    n: usize,
}

/// Pads the id lists in the table and marks empty slots; never a vertex
/// id, since ids are below the degree `n < u32::MAX`.
const END: u32 = u32::MAX;

impl AutomorphismValidator {
    /// Indexes the facets of `c` for repeated validation. Vertex ids
    /// in `c` must be dense (`< n`), where `n` is the degree of the
    /// permutations to validate.
    pub fn new(c: &IdComplex, n: usize) -> AutomorphismValidator {
        debug_assert!(c.vertex_set().iter().all(|&v| (v as usize) < n));
        assert!(n < END as usize, "degree too large to index");
        let width = c
            .facet_size_counts()
            .keys()
            .max()
            .copied()
            .unwrap_or(0)
            .max(1);
        let slots = (2 * c.facet_count()).next_power_of_two().max(2);
        let mut validator = AutomorphismValidator {
            table: vec![END; slots * width],
            width,
            mask: slots - 1,
            n,
        };
        let mut key = vec![END; width];
        // the empty simplex, a facet only of the complex {∅}, maps to
        // itself under every permutation and needs no slot
        for f in c.facets().filter(|f| !f.is_empty()) {
            key.fill(END);
            for (k, id) in key.iter_mut().zip(f.ids()) {
                *k = id;
            }
            if let Err(at) = validator.probe(&key) {
                validator.table[at * width..(at + 1) * width].copy_from_slice(&key);
            }
        }
        validator
    }

    /// Finds the padded id list `key`: `Ok` with its slot, or `Err` with
    /// the empty slot that ends its probe sequence.
    fn probe(&self, key: &[u32]) -> Result<usize, usize> {
        let mut h = WordHasher::default();
        for &id in key {
            h.add(u64::from(id));
        }
        let mut at = h.finish() as usize & self.mask;
        loop {
            let slot = &self.table[at * self.width..(at + 1) * self.width];
            if slot[0] == END {
                return Err(at);
            }
            if slot.iter().zip(key).all(|(a, b)| a == b) {
                return Ok(at);
            }
            at = (at + 1) & self.mask;
        }
    }

    /// Whether `perm` maps every facet to a facet (hence is an
    /// automorphism of the indexed complex).
    pub fn is_automorphism(&self, perm: &Perm) -> bool {
        if perm.degree() != self.n {
            return false;
        }
        let images = perm.images();
        let mut image = vec![END; self.width];
        for slot in self.table.chunks_exact(self.width) {
            if slot[0] == END {
                continue;
            }
            let mut len = 0;
            for (x, &id) in image.iter_mut().zip(slot) {
                if id == END {
                    break;
                }
                *x = images[id as usize];
                len += 1;
            }
            image[..len].sort_unstable();
            image[len..].fill(END);
            if self.probe(&image).is_err() {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hollow triangle on ids {0,1,2}: facets are the three edges.
    fn hollow_triangle() -> IdComplex {
        IdComplex::from_facets(vec![
            IdSimplex::from_ids(vec![0, 1]),
            IdSimplex::from_ids(vec![0, 2]),
            IdSimplex::from_ids(vec![1, 2]),
        ])
    }

    #[test]
    fn pool_permutation_lifts_label_swap() {
        let mut pool: VertexPool<(u32, u32)> = VertexPool::new();
        // labels (process, value)
        for p in 0..2 {
            for v in 0..2 {
                pool.intern((p, v));
            }
        }
        // swap the two values
        let perm = pool_permutation(&pool, |&(p, v)| (p, 1 - v)).unwrap();
        assert_eq!(perm.degree(), 4);
        let a = pool.id_of(&(0, 0)).unwrap();
        let b = pool.id_of(&(0, 1)).unwrap();
        assert_eq!(perm.apply(a), b);
        assert_eq!(perm.apply(b), a);
        // a non-closed action fails to lift
        assert!(pool_permutation(&pool, |&(p, v)| (p, v + 7)).is_none());
    }

    #[test]
    fn triangle_rotation_is_automorphism() {
        let c = hollow_triangle();
        let validator = AutomorphismValidator::new(&c, 3);
        let rot = Perm::from_images(vec![1, 2, 0]).unwrap();
        assert!(validator.is_automorphism(&rot));
        // the complex is genuinely preserved
        assert_eq!(apply_to_complex(&rot, &c), c);
    }

    #[test]
    fn non_automorphism_is_rejected() {
        // filled triangle plus a pendant edge: swapping 0 and 3 is not
        // an automorphism
        let c = IdComplex::from_facets(vec![
            IdSimplex::from_ids(vec![0, 1, 2]),
            IdSimplex::from_ids(vec![2, 3]),
        ]);
        let validator = AutomorphismValidator::new(&c, 4);
        let bad = Perm::transposition(4, 0, 3);
        assert!(!validator.is_automorphism(&bad));
        // swapping 0 and 1 is one
        let good = Perm::transposition(4, 0, 1);
        assert!(validator.is_automorphism(&good));
    }

    #[test]
    fn wrong_degree_is_rejected() {
        let c = hollow_triangle();
        let validator = AutomorphismValidator::new(&c, 3);
        assert!(!validator.is_automorphism(&Perm::identity(4)));
    }

    #[test]
    fn empty_complex_accepts_every_permutation_of_its_degree() {
        let validator = AutomorphismValidator::new(&IdComplex::new(), 3);
        assert!(validator.is_automorphism(&Perm::from_images(vec![2, 0, 1]).unwrap()));
        assert!(!validator.is_automorphism(&Perm::identity(2)));
    }

    /// Degree of the random permutations: ids span all three
    /// `IdSimplex` tiers (`< 64`, `< 128`, `≥ 128`).
    const DEGREE: usize = 256;

    /// A uniformly shuffled image table on `0..DEGREE` (splitmix64 stream).
    fn shuffled(mut seed: u64) -> Vec<u32> {
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut images: Vec<u32> = (0..DEGREE as u32).collect();
        for i in (1..DEGREE).rev() {
            images.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        images
    }

    /// An involution: `pairs` disjoint transpositions on shuffled points.
    fn involution(seed: u64, pairs: usize) -> Perm {
        let points = shuffled(seed);
        let mut images: Vec<u32> = (0..DEGREE as u32).collect();
        for pair in points.chunks_exact(2).take(pairs) {
            images.swap(pair[0] as usize, pair[1] as usize);
        }
        Perm::from_images(images).unwrap()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]

        /// The validator agrees with applying the permutation and
        /// comparing complexes, on complexes mixing facet sizes and id
        /// tiers, both for random permutations and for involutions the
        /// complex is made invariant under; a wrong degree is rejected.
        #[test]
        fn validator_matches_apply_to_complex(
            raw in proptest::collection::vec(
                proptest::collection::vec(0u32..DEGREE as u32, 1..=5usize), 1..=12usize),
            id_range in 0usize..3,
            perm_seed in 0u64..u64::MAX,
            pairs in 0usize..=8,
        ) {
            // ids below 64, below 128, or anywhere below DEGREE
            let cap = [64, 128, DEGREE as u32][id_range];
            let base: Vec<IdSimplex> = raw
                .iter()
                .map(|f| IdSimplex::from_ids(f.iter().map(|&id| id % cap).collect()))
                .collect();
            let p = involution(perm_seed, pairs);
            let c = IdComplex::from_facets(base.iter().cloned());
            // closed under p: p² = id, so p swaps base and p(base)
            let c_sym = IdComplex::from_facets(
                base.iter().cloned().chain(base.iter().map(|f| apply_to_simplex(&p, f))),
            );
            let random = Perm::from_images(shuffled(perm_seed ^ 0x5555)).unwrap();
            for complex in [&c, &c_sym] {
                let validator = AutomorphismValidator::new(complex, DEGREE);
                for q in [&p, &random, &Perm::identity(DEGREE)] {
                    proptest::prop_assert_eq!(
                        validator.is_automorphism(q),
                        apply_to_complex(q, complex) == *complex
                    );
                }
                proptest::prop_assert!(!validator.is_automorphism(&Perm::identity(DEGREE + 1)));
                proptest::prop_assert!(!validator.is_automorphism(&Perm::identity(DEGREE - 1)));
            }
            proptest::prop_assert!(AutomorphismValidator::new(&c_sym, DEGREE).is_automorphism(&p));
        }
    }
}
