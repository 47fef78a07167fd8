//! # ps-models: protocol complexes for the three timing models
//!
//! Executable forms of §6–§8 of *Unifying Synchronous and Asynchronous
//! Message-Passing Models* (PODC 1998). Each model exposes
//!
//! * the **symbolic** union-of-pseudospheres form of its one-round
//!   complex (Lemmas 11, 14, 19) — input to the `ps-core` Mayer–Vietoris
//!   prover, and
//! * the **explicit** protocol complex with full-information views as
//!   vertex labels (one and `r` rounds) — input to homology, the
//!   decision-map solver, and isomorphism cross-checks against the
//!   `ps-runtime` simulator.
//!
//! | model | round structure | one-round complex |
//! |-------|-----------------|-------------------|
//! | [`AsyncModel`] | everyone hears ≥ n+1−f round messages | single pseudosphere (Lemma 11) |
//! | [`SyncModel`] | ≤ k crash per round, survivors hear survivors + subset of K | union over K (Lemma 14) |
//! | [`SemiSyncModel`] | microrounds, failure patterns, view boxes | union over (K, F) (Lemma 19) |
//! | [`ByzantineModel`] | ≤ t Byzantine, per-recipient equivocation menus | union over B of ψ(correct; menu^B) |
//! | [`DynamicModel`] | per-round directed graph from an oblivious family | one facet per admissible graph |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod table;

pub mod view;
pub use view::{input_simplex, input_views, ss_input_views, InputSimplex, SsView, View};

pub mod asynchronous;
pub use asynchronous::AsyncModel;

pub mod sync;
pub use sync::SyncModel;

pub mod iis;
pub use iis::IisModel;

pub mod semisync;
pub use semisync::{FailurePattern, SemiSyncModel, SemiSyncTiming, ViewVector};

pub mod byzantine;
pub use byzantine::{equivocation_alphabet, ByzantineModel};

pub mod dynamic;
pub use dynamic::{DynamicModel, GraphFamily};

pub mod symmetry;
pub use symmetry::process_transpositions;

pub mod schedules;
pub use schedules::{
    async_heard_schedules, semisync_crash_timings, sync_crash_schedules, AsyncSchedule, CrashPlan,
    HeardPlan, SyncSchedule, TimedCrashes,
};
