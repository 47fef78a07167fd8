//! Order statistics, the output gate, and the metric records a run prints.

/// Median of `xs` (mean of the middle pair for even lengths); 0 for none.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A tail latency: the highest listed percentile that still has at least
/// ten samples beyond it.
#[derive(Clone, Copy, Debug)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The tail of `xs` by the nearest-rank method. Falls back to the median
/// when fewer than twenty samples leave no percentile with ten beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    const PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return Tail {
                percentile: p,
                value: v[rank - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: median(xs),
        samples: n,
    }
}

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Counts checked outputs and mismatches against the pinned values.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Gate {
    /// Records one checked output; `what` describes it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(what());
        }
    }

    /// [`Gate::check`] of an equality, reporting both sides on mismatch.
    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.check(got == want, || {
            format!("{what}: got {got:?}, expected {want:?}")
        });
    }
}
