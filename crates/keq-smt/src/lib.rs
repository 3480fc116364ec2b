//! # keq-smt — the SMT substrate of the KEQ reproduction
//!
//! A from-scratch SMT solver for the quantifier-free bitvector + byte-array
//! fragment that translation-validation queries live in, standing in for the
//! Z3 backend of the paper (*Language-Parametric Compiler Validation with
//! Application to LLVM*, ASPLOS 2021).
//!
//! Pipeline: hash-consed terms with normalizing constructors
//! ([`term::TermBank`]) → saturating rewrite normalization ([`rewrite`]) →
//! array elimination + signed-division lowering ([`mod@lower`]) → bit-blasting
//! ([`bitblast`]) → CDCL SAT ([`sat`]), fronted by [`solver::Solver`] which
//! also implements the paper's §3 positive-form query optimization.
//!
//! ```
//! use keq_smt::{Solver, Sort, TermBank};
//!
//! let mut bank = TermBank::new();
//! let x = bank.mk_var("x", Sort::BitVec(32));
//! let y = bank.mk_var("y", Sort::BitVec(32));
//! let sum = bank.mk_bvadd(x, y);
//! let back = bank.mk_bvsub(sum, y);
//! let mut solver = Solver::new();
//! assert!(solver.prove_equiv(&mut bank, &[], back, x).is_proved());
//! ```

pub mod bitblast;
pub mod cancel;
pub mod eval;
pub mod fault;
pub mod fingerprint;
pub mod lower;
pub mod obcache;
pub mod rewrite;
pub mod sat;
pub mod solver;
pub mod sort;
mod stamps;
pub mod term;
pub mod wire;

pub use bitblast::{BitBlaster, BlastCache};
pub use cancel::{stop_requested, CancelToken, StopCause};
pub use eval::{Assignment, MemValue, Value};
pub use fault::{
    mix64, FaultAction, FaultGuard, FaultPlan, FaultSite, FaultyIo, InjectedFault, Rate,
    StorageFault, StoragePlan,
};
pub use fingerprint::{fingerprint_obligation, ObligationFingerprint, ShapeMemo};
pub use lower::{lower, Lowered, Lowerer, TermBudgetExceeded};
pub use obcache::{
    fnv1a32, CachedVerdict, LoadOutcome, PersistOutcome, SharedObligationCache, StdStoreIo,
    StoreIo, SEMANTICS_REVISION,
};
pub use rewrite::{RewriteStats, Rewriter, RuleFamily};
pub use sat::SatBudget;
pub use solver::{
    Budget, BudgetKind, CheckOutcome, Model, ProofOutcome, Session, Solver, SolverStats,
};
pub use sort::Sort;
pub use term::{Op, TermBank, TermId, VarId};
