//! Asynchronous k-set agreement impossibility (Corollary 13), checked
//! exhaustively: builds the r-round asynchronous protocol complex over
//! the full input complex and searches for a decision map.
//!
//! ```bash
//! cargo run --release --example consensus_impossibility
//! ```

use pseudosphere::agreement::{allowed_values, async_task_complex, KSetAgreement, SweepPoint};
use pseudosphere::topology::ConnectivityAnalyzer;

fn main() {
    println!("Corollary 13: no asynchronous f-resilient k-set agreement for k ≤ f");
    println!("(exhaustive decision-map search over A^r, 3 processes)\n");
    println!(
        "{:>3} {:>3} {:>3} {:>9} {:>8} {:>10}",
        "k", "f", "r", "vertices", "facets", "solvable?"
    );

    // (k, f, rounds): r = 2 only for f = 1, where A² stays small —
    // with f = 2 the heard-set families explode combinatorially.
    let sweep: [(usize, usize, usize); 5] = [(1, 1, 2), (1, 2, 1), (2, 2, 1), (2, 1, 1), (3, 2, 1)];
    for (k, f, max_r) in sweep {
        for r in 1..=max_r {
            let res = SweepPoint::Async {
                k,
                f,
                n_plus_1: 3,
                rounds: r,
            }
            .run();
            let verdict = if res.solvable { "YES" } else { "no (proof)" };
            let marker = if k <= f {
                "k ≤ f ⇒ expect no"
            } else {
                "k > f ⇒ expect yes"
            };
            println!(
                "{k:>3} {f:>3} {r:>3} {:>9} {:>8} {verdict:>10}   {marker}",
                res.vertices, res.facets
            );
        }
    }

    // the topological reason: the protocol complex stays (k-1)-connected
    println!("\nwhy: connectivity of A¹ over the canonical input complex");
    for f in 1..=2usize {
        let task = KSetAgreement::canonical(f); // k = f
        let complex = async_task_complex(&task, 3, f, 1);
        let an = ConnectivityAnalyzer::new(&complex);
        println!(
            "  f = k = {f}: A¹ is {}-connected (needs to fail ({}−1)-connectivity for a map to exist)",
            an.connectivity(),
            f
        );
        let _ = allowed_values; // (validity domains used inside the solver)
    }
}
