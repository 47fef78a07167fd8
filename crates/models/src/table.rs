//! Per-process view tables: the shared engine of the round operators.
//!
//! One round applied to one state is a pseudosphere: every process of
//! the next state independently picks one view from its own candidate
//! set (Lemmas 11, 14, 19). A [`ViewTable`] holds those candidate sets,
//! one column per process in process order, each sorted by the view's
//! `Ord`. Because every view orders first by its process, the facets —
//! one pick per column — enumerate in lexicographic order exactly when
//! the picks advance like an odometer with the last process fastest, so
//! the table reproduces the facet order of the realized pseudosphere
//! without building it.

use std::collections::{BTreeMap, BTreeSet};

use ps_core::{ProcessId, Pseudosphere};
use ps_topology::{InternedBuilder, Label, Simplex};

/// The candidate views of each process for one round on one state.
#[derive(Debug)]
pub(crate) struct ViewTable<V> {
    processes: Vec<ProcessId>,
    columns: Vec<Vec<V>>,
}

impl<V: Label> ViewTable<V> {
    /// A table from `(process, candidates)` columns given in process
    /// order; candidates are sorted and deduplicated here.
    pub(crate) fn new(columns: impl IntoIterator<Item = (ProcessId, Vec<V>)>) -> Self {
        let (processes, mut columns): (Vec<ProcessId>, Vec<Vec<V>>) = columns.into_iter().unzip();
        debug_assert!(processes.windows(2).all(|w| w[0] < w[1]));
        for c in &mut columns {
            c.sort();
            c.dedup();
        }
        ViewTable { processes, columns }
    }

    /// Calls `f` with one candidate index per column for every facet,
    /// in lexicographic facet order (last column fastest). A table with
    /// no columns, or with an empty column, has no facets.
    fn for_each_pick(&self, mut f: impl FnMut(&[usize])) {
        if self.columns.is_empty() || self.columns.iter().any(Vec::is_empty) {
            return;
        }
        let mut pick = vec![0usize; self.columns.len()];
        loop {
            f(&pick);
            let mut j = pick.len();
            loop {
                if j == 0 {
                    return;
                }
                j -= 1;
                pick[j] += 1;
                if pick[j] < self.columns[j].len() {
                    break;
                }
                pick[j] = 0;
            }
        }
    }

    /// Calls `f` on every facet as a next-round state, in lexicographic
    /// order.
    pub(crate) fn for_each_state(&self, mut f: impl FnMut(&Simplex<V>)) {
        self.for_each_pick(|pick| {
            f(&Simplex::new(
                pick.iter()
                    .zip(&self.columns)
                    .map(|(&i, c)| c[i].clone())
                    .collect(),
            ))
        });
    }

    /// Adds every facet to `out` in lexicographic order, interning each
    /// candidate once, at its first use. That is the order in which
    /// adding the facets as label simplexes would intern them, so the
    /// pool's id order is the same.
    pub(crate) fn add_facets_into(&self, out: &mut InternedBuilder<V>) {
        let mut ids: Vec<Vec<Option<u32>>> =
            self.columns.iter().map(|c| vec![None; c.len()]).collect();
        self.for_each_pick(|pick| {
            let facet = pick
                .iter()
                .enumerate()
                .map(|(j, &i)| {
                    *ids[j][i]
                        .get_or_insert_with(|| out.pool_mut().intern(self.columns[j][i].clone()))
                })
                .collect();
            out.add_facet_ids(facet);
        });
    }

    /// The table as a symbolic pseudosphere over its processes, or
    /// `None` when it has no columns.
    pub(crate) fn pseudosphere(&self) -> Option<Pseudosphere<ProcessId, V>> {
        if self.processes.is_empty() {
            return None;
        }
        let families: BTreeMap<ProcessId, BTreeSet<V>> = self
            .processes
            .iter()
            .zip(&self.columns)
            .map(|(p, c)| (*p, c.iter().cloned().collect()))
            .collect();
        let base = Simplex::new(self.processes.clone());
        Some(Pseudosphere::new(base, families).expect("families cover base"))
    }

    /// The realized table: its facets as a label complex.
    #[cfg(test)]
    pub(crate) fn complex(&self) -> ps_topology::Complex<V> {
        let mut out = InternedBuilder::new();
        self.add_facets_into(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ViewTable<(ProcessId, u8)> {
        let p = ProcessId;
        ViewTable::new([
            (p(0), vec![(p(0), 2), (p(0), 1)]),
            (p(1), vec![(p(1), 5), (p(1), 3), (p(1), 4), (p(1), 3)]),
        ])
    }

    #[test]
    fn states_enumerate_in_lexicographic_order() {
        let mut states = Vec::new();
        table().for_each_state(|s| states.push(s.clone()));
        assert_eq!(states.len(), 6); // duplicate candidate merged
        assert!(states.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn interning_follows_first_use() {
        let mut out = InternedBuilder::new();
        table().add_facets_into(&mut out);
        let p = ProcessId;
        assert_eq!(
            out.pool().labels(),
            &[(p(0), 1), (p(1), 3), (p(1), 4), (p(1), 5), (p(0), 2)]
        );
        assert_eq!(out.complex().facet_count(), 6);
    }

    #[test]
    fn empty_tables_have_no_facets() {
        let none: ViewTable<(ProcessId, u8)> = ViewTable::new([]);
        assert!(none.pseudosphere().is_none());
        assert!(none.complex().is_void());
        let hollow = ViewTable::new([(ProcessId(0), Vec::<(ProcessId, u8)>::new())]);
        assert!(hollow.complex().is_void());
    }
}
