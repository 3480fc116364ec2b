//! # keq-core — cut-bisimulation and the KEQ equivalence checker
//!
//! The paper's primary contribution: a formalization of *cut-bisimulation*
//! (Section 7, implemented executably over finite systems in [`concrete`])
//! and the language-parametric equivalence checking algorithm (Algorithm 1,
//! symbolic variant, implemented in [`checker`]).
//!
//! The checker is parameterized by two [`keq_semantics::Language`]
//! implementations and a [`sync::SyncSet`] of synchronization points; it
//! never references any concrete language.

pub mod checker;
pub mod concrete;
pub mod sync;
pub mod verdict;

pub use checker::{Keq, KeqOptions};
pub use concrete::{
    algorithm1, algorithm1_simulation, fig4_example, is_cut_bisimulation, is_cut_simulation,
    is_strong_bisimulation, CutTs,
};
pub use sync::{Relation, Side, SideSpec, SyncPoint, SyncSet, ValueExpr};
pub use verdict::{Failure, FailureClass, FailureReason, KeqReport, KeqStats, Verdict};
