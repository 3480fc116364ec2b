//! Symbolic configurations and the language interface.
//!
//! A [`SymConfig`] is the language-independent shape of a symbolic program
//! state: a control location, an environment of named registers mapped to
//! SMT terms, a memory term, a path condition, and an execution status.
//! Every language plugged into KEQ (LLVM IR, Virtual x86, IMP, the stack
//! machine, …) represents its states this way; the equivalence checker in
//! `keq-core` never sees anything more specific.

use std::collections::BTreeMap;
use std::fmt;

use keq_smt::{TermBank, TermId};

use crate::loc::CtrlLoc;

/// Kinds of undefined behavior modelled as error states (paper §4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ErrorKind {
    /// Memory access outside any live allocation.
    OutOfBounds,
    /// Signed integer overflow on an operation with UB overflow semantics.
    SignedOverflow,
    /// Division or remainder by zero.
    DivByZero,
    /// Execution reached an `unreachable` marker.
    Unreachable,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::OutOfBounds => "out-of-bounds memory access",
            ErrorKind::SignedOverflow => "signed integer overflow",
            ErrorKind::DivByZero => "division by zero",
            ErrorKind::Unreachable => "unreachable executed",
        };
        write!(f, "{s}")
    }
}

/// Execution status of a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Normal execution at `loc`.
    Running,
    /// The function returned (with an optional value).
    Exited {
        /// Returned value, if the function is non-void.
        ret: Option<TermId>,
    },
    /// Stopped immediately before an external call (calls are cut states and
    /// are never stepped through, per §4.5).
    AtCall {
        /// Callee name.
        callee: String,
        /// Zero-based index of this call site among calls to `callee`.
        nth: usize,
        /// Argument values at the call.
        args: Vec<TermId>,
    },
    /// An undefined-behavior error state.
    Error(ErrorKind),
}

impl Status {
    /// `true` for [`Status::Running`].
    pub fn is_running(&self) -> bool {
        matches!(self, Status::Running)
    }

    /// `true` for [`Status::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Status::Error(_))
    }
}

/// A symbolic program configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymConfig {
    /// Control location (meaningful while `status` is `Running`).
    pub loc: CtrlLoc,
    /// Register/local-variable environment.
    pub regs: BTreeMap<String, TermId>,
    /// The memory, as a term of sort [`keq_smt::Sort::Memory`].
    pub mem: TermId,
    /// Path condition: the conjunction of these terms holds on this path.
    pub path: Vec<TermId>,
    /// Execution status.
    pub status: Status,
}

impl SymConfig {
    /// Creates a running configuration at `loc` with memory `mem`.
    pub fn new(loc: CtrlLoc, mem: TermId) -> Self {
        SymConfig { loc, regs: BTreeMap::new(), mem, path: Vec::new(), status: Status::Running }
    }

    /// Reads a register.
    ///
    /// # Errors
    ///
    /// Returns [`SemanticsError::UnknownRegister`] when absent — a malformed
    /// program or a semantics bug, surfaced rather than defaulted.
    pub fn reg(&self, name: &str) -> Result<TermId, SemanticsError> {
        self.regs
            .get(name)
            .copied()
            .ok_or_else(|| SemanticsError::UnknownRegister { name: name.to_owned() })
    }

    /// Writes a register.
    pub fn set_reg(&mut self, name: impl Into<String>, value: TermId) {
        self.regs.insert(name.into(), value);
    }

    /// Extends the path condition (dropping literal `true`).
    pub fn assume(&mut self, bank: &TermBank, cond: TermId) {
        if bank.as_bool_const(cond) != Some(true) {
            self.path.push(cond);
        }
    }

    /// The path condition as a single conjunction term.
    pub fn path_term(&self, bank: &mut TermBank) -> TermId {
        bank.mk_and(self.path.iter().copied())
    }

    /// Derives an error successor with the given extra path constraint.
    pub fn to_error(&self, bank: &TermBank, kind: ErrorKind, cond: TermId) -> SymConfig {
        let mut e = self.clone();
        e.assume(bank, cond);
        e.status = Status::Error(kind);
        e
    }
}

/// Errors produced by language semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SemanticsError {
    /// A register/local was read before being defined.
    UnknownRegister {
        /// The missing name.
        name: String,
    },
    /// Control transferred to an unknown block.
    UnknownBlock {
        /// The missing block name.
        name: String,
    },
    /// The program uses a feature outside the supported fragment
    /// (the paper's unsupported-function class: floating point, SIMD, …).
    Unsupported {
        /// Human-readable description of the feature.
        what: String,
    },
    /// Internal invariant violation (a bug in a semantics definition).
    Internal {
        /// Description of the violation.
        what: String,
    },
}

impl fmt::Display for SemanticsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemanticsError::UnknownRegister { name } => write!(f, "unknown register {name}"),
            SemanticsError::UnknownBlock { name } => write!(f, "unknown block {name}"),
            SemanticsError::Unsupported { what } => write!(f, "unsupported feature: {what}"),
            SemanticsError::Internal { what } => write!(f, "internal semantics error: {what}"),
        }
    }
}

impl std::error::Error for SemanticsError {}

/// The language interface: everything the equivalence checker knows about a
/// language is its ability to take one symbolic step.
///
/// Implementations hold the program under execution internally; `keq-core`
/// is thereby parametric in the language exactly as KEQ is parametric in the
/// K semantic definitions it is given.
pub trait Language {
    /// Short language name for diagnostics (e.g. `"llvm"`, `"vx86"`).
    fn name(&self) -> &str;

    /// Takes one symbolic step from a `Running` configuration.
    ///
    /// Returns all successors; conditional control flow yields one successor
    /// per branch with the branch condition appended to the path, and
    /// operations with undefined behavior additionally yield `Error`
    /// successors guarded by the UB condition (§4.6). Feasibility pruning is
    /// the caller's job.
    ///
    /// # Errors
    ///
    /// Returns a [`SemanticsError`] on malformed programs or unsupported
    /// features.
    fn step(&self, cfg: &SymConfig, bank: &mut TermBank) -> Result<Vec<SymConfig>, SemanticsError>;

    /// Resumes a configuration stopped at a call ([`Status::AtCall`]) as
    /// if the callee had returned `ret`: writes the result where the
    /// language puts it and moves past the call. Only concrete execution
    /// ([`crate::exec::run`]) calls this; the checker never steps through
    /// a call (§4.5).
    ///
    /// # Errors
    ///
    /// The default returns [`SemanticsError::Unsupported`], for languages
    /// without calls.
    fn return_from_call(
        &self,
        cfg: &mut SymConfig,
        bank: &mut TermBank,
        ret: u128,
    ) -> Result<(), SemanticsError> {
        let _ = (cfg, bank, ret);
        Err(SemanticsError::Unsupported { what: format!("calls in {}", self.name()) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_smt::Sort;

    #[test]
    fn reg_roundtrip_and_missing() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("mem", Sort::Memory);
        let mut cfg = SymConfig::new(CtrlLoc::entry("entry"), mem);
        let v = bank.mk_bv(32, 7);
        cfg.set_reg("%x", v);
        assert_eq!(cfg.reg("%x"), Ok(v));
        assert!(matches!(cfg.reg("%y"), Err(SemanticsError::UnknownRegister { .. })));
    }

    #[test]
    fn assume_drops_trivial_truths() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("mem", Sort::Memory);
        let mut cfg = SymConfig::new(CtrlLoc::entry("entry"), mem);
        let t = bank.mk_true();
        cfg.assume(&bank, t);
        assert!(cfg.path.is_empty());
        let x = bank.mk_var("b", Sort::Bool);
        cfg.assume(&bank, x);
        assert_eq!(cfg.path, vec![x]);
        assert_eq!(cfg.path_term(&mut bank), x);
    }

    #[test]
    fn error_successor_carries_condition() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("mem", Sort::Memory);
        let cfg = SymConfig::new(CtrlLoc::entry("entry"), mem);
        let c = bank.mk_var("oob", Sort::Bool);
        let e = cfg.to_error(&bank, ErrorKind::OutOfBounds, c);
        assert_eq!(e.status, Status::Error(ErrorKind::OutOfBounds));
        assert_eq!(e.path, vec![c]);
    }

    #[test]
    fn status_predicates() {
        assert!(Status::Running.is_running());
        assert!(Status::Error(ErrorKind::DivByZero).is_error());
        assert!(!Status::Exited { ret: None }.is_running());
    }

    #[test]
    fn error_kind_display() {
        assert_eq!(ErrorKind::OutOfBounds.to_string(), "out-of-bounds memory access");
        assert_eq!(ErrorKind::SignedOverflow.to_string(), "signed integer overflow");
    }
}
