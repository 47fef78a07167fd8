//! Reading, writing and checking [`SweepPoint`]s.
//!
//! One grammar and one validator serve every entry point that takes a
//! model from text or flags: `psph serve` parses query lines with
//! [`SweepPoint`]'s `FromStr` and echoes them with its `Display`, and
//! the model-taking `psph` subcommands build their points from flags
//! through [`SweepPoint::new`]. Both paths end in
//! [`SweepPoint::validate`], so an instance one of them rejects the
//! other rejects too. [`check_operator`] is the part of those rules a
//! model's round operator needs on its own.
//!
//! The query grammar, one query per line:
//!
//! ```text
//! async K F N R | sync K F N R KPR | semisync K F N R KPR P
//! | byzantine K T N R | dynamic K N R <rooted|strong>
//! ```

use std::fmt;
use std::str::FromStr;

use ps_core::MAX_SUBSET_ELEMENTS;
use ps_models::GraphFamily;

use crate::experiments::SweepPoint;

/// The query grammar of each model: its name and its fields in order.
/// `<rooted|strong>` is the dynamic model's graph family; every other
/// field is a non-negative integer.
const GRAMMAR: [(&str, &str); 5] = [
    ("async", "K F N R"),
    ("sync", "K F N R KPR"),
    ("semisync", "K F N R KPR P"),
    ("byzantine", "K T N R"),
    ("dynamic", "K N R <rooted|strong>"),
];

/// Every parameter any model reads, by name. A model takes the fields
/// it needs and ignores the rest (see [`SweepPoint::new`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PointParams {
    /// Agreement parameter `k`.
    pub k: usize,
    /// Crash budget `f` (async, sync, semisync).
    pub f: usize,
    /// Byzantine budget `t`.
    pub t: usize,
    /// Number of processes `n + 1`.
    pub n_plus_1: usize,
    /// Crashes allowed per round (sync, semisync).
    pub k_per_round: usize,
    /// Microrounds per round `p` (semisync).
    pub microrounds: u32,
    /// The message adversary's graph family (dynamic).
    pub family: GraphFamily,
    /// Rounds `r`.
    pub rounds: usize,
}

/// Why a point does not name a valid instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PointError {
    /// No model has this name.
    UnknownModel(String),
    /// `n + 1` is 0 or above ps-core's subset-enumeration limit
    /// ([`MAX_SUBSET_ELEMENTS`]).
    Processes(usize),
    /// A crash model's failure budget leaves no process alive.
    NoSurvivor {
        /// Failure budget `f`.
        f: usize,
        /// Number of processes `n + 1`.
        n_plus_1: usize,
    },
    /// `k = 0`: k-set agreement needs `k ≥ 1`.
    Agreement,
    /// `p = 0`: a semi-synchronous round needs a microround.
    Microrounds,
}

impl PointError {
    /// The message, with `procs`, `f`, `k` and `p` naming the
    /// parameters.
    fn render(&self, [procs, f, k, p]: [&str; 4]) -> String {
        match self {
            PointError::UnknownModel(name) => format!(
                "unknown model `{name}` (valid: {})",
                SweepPoint::MODELS.join(", ")
            ),
            PointError::Processes(0) => format!("{procs} must be at least 1"),
            PointError::Processes(n) => {
                format!("{procs} {n} exceeds the limit of {MAX_SUBSET_ELEMENTS} processes")
            }
            PointError::NoSurvivor {
                f: budget,
                n_plus_1,
            } => format!(
                "{f} {budget} must be below {procs} {n_plus_1} \
                 (at most n crashes among n + 1 processes)"
            ),
            PointError::Agreement => format!("{k} must be at least 1"),
            PointError::Microrounds => format!("{p} must be at least 1"),
        }
    }

    /// The message with each parameter named by its `psph` flag
    /// (`--procs`, `--f`, `--k`, `--p`).
    pub fn flag_message(&self) -> String {
        self.render(["--procs", "--f", "--k", "--p"])
    }
}

/// The message with each parameter named by its query-grammar field
/// (`N`, `F`, `K`, `P`).
impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render(["N", "F", "K", "P"]))
    }
}

impl SweepPoint {
    /// The model names, in the order the CLI lists them.
    pub const MODELS: [&'static str; 5] = ["async", "sync", "semisync", "byzantine", "dynamic"];

    /// The point of model `model` (one of [`SweepPoint::MODELS`]) on the
    /// parameters it reads from `p`, checked by
    /// [`SweepPoint::validate`].
    pub fn new(model: &str, p: &PointParams) -> Result<SweepPoint, PointError> {
        let point = match model {
            "async" => SweepPoint::Async {
                k: p.k,
                f: p.f,
                n_plus_1: p.n_plus_1,
                rounds: p.rounds,
            },
            "sync" => SweepPoint::Sync {
                k: p.k,
                f: p.f,
                n_plus_1: p.n_plus_1,
                k_per_round: p.k_per_round,
                rounds: p.rounds,
            },
            "semisync" => SweepPoint::SemiSync {
                k: p.k,
                f: p.f,
                n_plus_1: p.n_plus_1,
                k_per_round: p.k_per_round,
                microrounds: p.microrounds,
                rounds: p.rounds,
            },
            "byzantine" => SweepPoint::Byzantine {
                k: p.k,
                t: p.t,
                n_plus_1: p.n_plus_1,
                rounds: p.rounds,
            },
            "dynamic" => SweepPoint::Dynamic {
                k: p.k,
                n_plus_1: p.n_plus_1,
                family: p.family,
                rounds: p.rounds,
            },
            other => return Err(PointError::UnknownModel(other.to_string())),
        };
        point.validate()?;
        Ok(point)
    }

    /// Checks that the point names an instance every layer can build
    /// and solve:
    ///
    /// * `1 ≤ n + 1 ≤ 20`, ps-core's subset-enumeration limit, and
    ///   `p ≥ 1` for semisync (see [`check_operator`]);
    /// * in the crash models (async, sync, semisync) `f < n + 1`, so a
    ///   process survives;
    /// * `k ≥ 1`.
    pub fn validate(&self) -> Result<(), PointError> {
        let key = self.shared_key();
        let microrounds = match *self {
            SweepPoint::SemiSync { microrounds, .. } => microrounds,
            _ => 1,
        };
        check_operator(key.name(), key.n_plus_1(), microrounds)?;
        if key.is_crash_model() && key.faults() >= key.n_plus_1() {
            return Err(PointError::NoSurvivor {
                f: key.faults(),
                n_plus_1: key.n_plus_1(),
            });
        }
        if self.k() == 0 {
            return Err(PointError::Agreement);
        }
        Ok(())
    }
}

/// The rules of [`SweepPoint::validate`] that a model's round operator
/// itself needs: `1 ≤ n + 1 ≤ 20` and, for semisync, `p ≥ 1`. For the
/// callers that apply `model`'s operator to one input simplex instead
/// of solving a point (`psph complex`, `psph prove`), where the other
/// parameters mean per-simplex budgets.
pub fn check_operator(model: &str, n_plus_1: usize, microrounds: u32) -> Result<(), PointError> {
    if n_plus_1 == 0 || n_plus_1 > MAX_SUBSET_ELEMENTS {
        return Err(PointError::Processes(n_plus_1));
    }
    if model == "semisync" && microrounds == 0 {
        return Err(PointError::Microrounds);
    }
    Ok(())
}

/// Parses one query line of the grammar in the module docs, then
/// validates it. Errors are user-facing messages.
impl FromStr for SweepPoint {
    type Err = String;

    fn from_str(line: &str) -> Result<SweepPoint, String> {
        let mut it = line.split_whitespace();
        let model = it.next().ok_or("empty query")?;
        let mut toks: Vec<&str> = it.collect();
        let fields = GRAMMAR.iter().find(|(name, _)| *name == model).map(|g| g.1);
        let usage = || format!("{model} expects `{model} {}`", fields.unwrap_or_default());
        let mut params = PointParams::default();
        if model == "dynamic" {
            let fam = toks.pop().ok_or_else(usage)?;
            params.family = GraphFamily::from_name(fam)
                .ok_or_else(|| format!("`{fam}` is not a family (rooted | strong)"))?;
        }
        let nums: Vec<usize> = toks
            .iter()
            .map(|t| {
                t.parse::<usize>()
                    .map_err(|_| format!("`{t}` is not a non-negative integer"))
            })
            .collect::<Result<_, _>>()?;
        let fields =
            fields.ok_or_else(|| PointError::UnknownModel(model.to_string()).to_string())?;
        let names: Vec<&str> = fields.split(' ').filter(|f| !f.starts_with('<')).collect();
        if nums.len() != names.len() {
            return Err(usage());
        }
        for (name, v) in names.into_iter().zip(nums) {
            match name {
                "K" => params.k = v,
                "F" => params.f = v,
                "T" => params.t = v,
                "N" => params.n_plus_1 = v,
                "R" => params.rounds = v,
                "KPR" => params.k_per_round = v,
                _ => params.microrounds = v as u32,
            }
        }
        SweepPoint::new(model, &params).map_err(|e| e.to_string())
    }
}

/// The tag `psph serve` echoes with each verdict, e.g.
/// `sync k=1 f=1 n=3 r=2 kpr=1`.
impl fmt::Display for SweepPoint {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SweepPoint::Async {
                k,
                f,
                n_plus_1,
                rounds,
            } => write!(out, "async k={k} f={f} n={n_plus_1} r={rounds}"),
            SweepPoint::Sync {
                k,
                f,
                n_plus_1,
                k_per_round,
                rounds,
            } => write!(
                out,
                "sync k={k} f={f} n={n_plus_1} r={rounds} kpr={k_per_round}"
            ),
            SweepPoint::SemiSync {
                k,
                f,
                n_plus_1,
                k_per_round,
                microrounds,
                rounds,
            } => write!(
                out,
                "semisync k={k} f={f} n={n_plus_1} r={rounds} kpr={k_per_round} p={microrounds}"
            ),
            SweepPoint::Byzantine {
                k,
                t,
                n_plus_1,
                rounds,
            } => write!(out, "byzantine k={k} t={t} n={n_plus_1} r={rounds}"),
            SweepPoint::Dynamic {
                k,
                n_plus_1,
                family,
                rounds,
            } => write!(
                out,
                "dynamic k={k} n={n_plus_1} r={rounds} family={}",
                family.name()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_model_line_parses_and_prints_its_tag() {
        let table = [
            ("async 1 1 3 1", "async k=1 f=1 n=3 r=1"),
            ("sync 2 1 3 2 1", "sync k=2 f=1 n=3 r=2 kpr=1"),
            ("semisync 1 1 3 1 1 2", "semisync k=1 f=1 n=3 r=1 kpr=1 p=2"),
            ("byzantine 2 1 3 1", "byzantine k=2 t=1 n=3 r=1"),
            ("dynamic 1 3 2 strong", "dynamic k=1 n=3 r=2 family=strong"),
            ("dynamic 1 2 1 rooted", "dynamic k=1 n=2 r=1 family=rooted"),
            // extra whitespace is insignificant
            ("  async\t2 2 3 1  ", "async k=2 f=2 n=3 r=1"),
        ];
        for (line, tag) in table {
            let point: SweepPoint = line.parse().unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(point.to_string(), tag, "{line}");
        }
        assert_eq!(
            "sync 2 1 3 2 1".parse::<SweepPoint>(),
            Ok(SweepPoint::Sync {
                k: 2,
                f: 1,
                n_plus_1: 3,
                k_per_round: 1,
                rounds: 2,
            })
        );
    }

    #[test]
    fn malformed_lines_name_the_problem() {
        let table = [
            ("", "empty query"),
            ("async 1 1", "async expects `async K F N R`"),
            ("async 1 1 3 1 1", "async expects `async K F N R`"),
            ("sync 1 1 3 1", "sync expects `sync K F N R KPR`"),
            (
                "semisync 1 1 3 1 1",
                "semisync expects `semisync K F N R KPR P`",
            ),
            ("byzantine 1 1 3", "byzantine expects `byzantine K T N R`"),
            ("dynamic", "dynamic expects `dynamic K N R <rooted|strong>`"),
            (
                "dynamic 1 3 strong",
                "dynamic expects `dynamic K N R <rooted|strong>`",
            ),
            (
                "dynamic 1 2 1 ring",
                "`ring` is not a family (rooted | strong)",
            ),
            ("async 1 x 3 1", "`x` is not a non-negative integer"),
            ("async 1 -1 3 1", "`-1` is not a non-negative integer"),
            (
                "iis 1 1 3 1",
                "unknown model `iis` (valid: async, sync, semisync, byzantine, dynamic)",
            ),
        ];
        for (line, msg) in table {
            assert_eq!(line.parse::<SweepPoint>(), Err(msg.to_string()), "{line:?}");
        }
    }

    #[test]
    fn validate_enforces_every_rule() {
        let table = [
            ("async 1 1 0 1", PointError::Processes(0)),
            ("dynamic 1 0 1 rooted", PointError::Processes(0)),
            ("byzantine 1 1 21 1", PointError::Processes(21)),
            ("sync 1 1 40 1 1", PointError::Processes(40)),
            (
                "async 1 5 3 1",
                PointError::NoSurvivor { f: 5, n_plus_1: 3 },
            ),
            (
                "sync 1 3 3 1 1",
                PointError::NoSurvivor { f: 3, n_plus_1: 3 },
            ),
            (
                "semisync 1 1 1 1 1 2",
                PointError::NoSurvivor { f: 1, n_plus_1: 1 },
            ),
            ("sync 0 1 3 1 1", PointError::Agreement),
            ("byzantine 0 1 3 1", PointError::Agreement),
            ("dynamic 0 2 1 strong", PointError::Agreement),
            ("semisync 1 1 3 1 1 0", PointError::Microrounds),
        ];
        for (line, err) in table {
            assert_eq!(line.parse::<SweepPoint>(), Err(err.to_string()), "{line}");
        }
        // the boundary cases are accepted: n + 1 = 1 and 20, f = n,
        // and a Byzantine or dynamic budget is not a crash budget
        for line in [
            "async 1 0 1 1",
            "dynamic 1 1 1 rooted",
            "byzantine 1 0 20 1",
            "async 2 2 3 1",
            "byzantine 1 5 3 1",
        ] {
            assert!(line.parse::<SweepPoint>().is_ok(), "{line}");
        }
    }

    #[test]
    fn operator_checks_are_the_size_rules_alone() {
        assert_eq!(check_operator("iis", 0, 2), Err(PointError::Processes(0)));
        assert_eq!(
            check_operator("sync", 21, 2),
            Err(PointError::Processes(21))
        );
        assert_eq!(
            check_operator("semisync", 3, 0),
            Err(PointError::Microrounds)
        );
        // only semisync reads p; budgets are not checked here
        assert_eq!(check_operator("async", 3, 0), Ok(()));
        assert_eq!(check_operator("sync", 1, 2), Ok(()));
        assert_eq!(check_operator("dynamic", 20, 2), Ok(()));
    }

    #[test]
    fn errors_name_grammar_fields_or_flags() {
        let cases = [
            (
                PointError::Processes(0),
                "N must be at least 1",
                "--procs must be at least 1",
            ),
            (
                PointError::Processes(40),
                "N 40 exceeds the limit of 20 processes",
                "--procs 40 exceeds the limit of 20 processes",
            ),
            (
                PointError::NoSurvivor { f: 3, n_plus_1: 3 },
                "F 3 must be below N 3 (at most n crashes among n + 1 processes)",
                "--f 3 must be below --procs 3 (at most n crashes among n + 1 processes)",
            ),
            (
                PointError::Agreement,
                "K must be at least 1",
                "--k must be at least 1",
            ),
            (
                PointError::Microrounds,
                "P must be at least 1",
                "--p must be at least 1",
            ),
        ];
        for (err, grammar, flags) in cases {
            assert_eq!(err.to_string(), grammar);
            assert_eq!(err.flag_message(), flags);
        }
    }

    #[test]
    fn new_reads_only_the_model_fields() {
        let params = PointParams {
            k: 2,
            f: 1,
            t: 1,
            n_plus_1: 3,
            k_per_round: 1,
            microrounds: 2,
            family: GraphFamily::StronglyConnected,
            rounds: 1,
        };
        let lines = [
            "async 2 1 3 1",
            "sync 2 1 3 1 1",
            "semisync 2 1 3 1 1 2",
            "byzantine 2 1 3 1",
            "dynamic 2 3 1 strong",
        ];
        for (model, line) in SweepPoint::MODELS.into_iter().zip(lines) {
            let point = SweepPoint::new(model, &params).unwrap();
            assert_eq!(point.shared_key().name(), model);
            assert_eq!(line.parse::<SweepPoint>(), Ok(point), "{model}");
        }
        assert_eq!(
            SweepPoint::new("iis", &params),
            Err(PointError::UnknownModel("iis".into()))
        );
    }
}
