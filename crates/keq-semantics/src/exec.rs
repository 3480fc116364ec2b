//! Concrete execution of a [`Language`]: the symbolic semantics run as an
//! interpreter.
//!
//! K derives both execution modes from one definition (paper §4.1); this
//! module does the same for every `Language`. [`run`] steps a start
//! configuration built from constant terms, so the term bank's folding does
//! the arithmetic. Only terms over free variables (reads of the initial
//! memory, say) are evaluated, under an empty assignment: every variable
//! reads as zero, so the initial memory is all zeros. Of the successors of
//! each step, exactly one must have path conjuncts that evaluate true; that
//! is the determinism Algorithm 1's feasibility pruning relies on, and a
//! step that breaks it is reported as [`SemanticsError::Internal`].
//!
//! External calls return [`default_ext_call`] of the callee and its
//! argument values, and [`Language::return_from_call`] resumes the caller.
//!
//! A run ends at an exit, at an error state, when its fuel runs out, or
//! when it revisits a configuration at a block start (Brent's cycle check).
//! A deterministic run that revisits a state never exits, so the last two
//! are one outcome, [`Outcome::OutOfFuel`].

use std::collections::HashMap;

use keq_smt::eval::eval_memo;
use keq_smt::{Assignment, MemValue, TermBank, Value};

use crate::config::{ErrorKind, Language, SemanticsError, Status, SymConfig};

/// How a concrete run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The function returned.
    Returned {
        /// The returned bits (`None` for a void function).
        ret: Option<u128>,
        /// The final memory.
        mem: MemValue,
    },
    /// The run reached an undefined-behaviour error state.
    Error(ErrorKind),
    /// Fuel ran out, or the run revisited a state and so never exits.
    OutOfFuel,
}

/// The result every external call returns: an FNV-style hash of the callee
/// name and the argument values, so that both sides of a validation see
/// the same results for the same calls.
pub fn default_ext_call(callee: &str, args: &[u128]) -> u128 {
    let mut h: u128 = 0xcbf2_9ce4_8422_2325;
    for b in callee.bytes() {
        h = (h ^ u128::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    for a in args {
        h = (h ^ a).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs `lang` from `start` for at most `fuel` steps.
///
/// # Errors
///
/// Returns the [`SemanticsError`] of a step on a malformed program, and
/// [`SemanticsError::Internal`] when a step has no successor, or more than
/// one, whose path conjuncts hold.
pub fn run<L: Language + ?Sized>(
    lang: &L,
    bank: &mut TermBank,
    start: SymConfig,
    fuel: u64,
) -> Result<Outcome, SemanticsError> {
    let asg = Assignment::new();
    let mut memo = HashMap::new();
    let mut eval = |bank: &TermBank, t| eval_memo(bank, t, &asg, &mut memo);
    let mut cfg = start;
    cfg.path.clear();
    // Brent's cycle check over block-start configurations: `saved` is
    // compared with every later one and replaced after `power` of them.
    let (mut saved, mut power, mut since) = (None::<SymConfig>, 1u64, 0u64);
    for _ in 0..fuel {
        let succs = lang.step(&cfg, bank)?;
        let mut holding = succs
            .into_iter()
            .filter(|s| s.path.iter().all(|&c| eval(bank, c) == Value::Bool(true)));
        let (Some(next), None) = (holding.next(), holding.next()) else {
            return Err(SemanticsError::Internal {
                what: format!("not exactly one successor holds at {}", cfg.loc),
            });
        };
        drop(holding);
        cfg = next;
        cfg.path.clear();
        match &cfg.status {
            Status::Running => {}
            Status::Exited { ret } => {
                let ret = ret.map(|r| eval(bank, r).as_bv().1);
                let mem = eval(bank, cfg.mem).as_mem().clone();
                return Ok(Outcome::Returned { ret, mem });
            }
            Status::Error(kind) => return Ok(Outcome::Error(*kind)),
            Status::AtCall { callee, args, .. } => {
                let args: Vec<u128> = args.iter().map(|&a| eval(bank, a).as_bv().1).collect();
                let ret = default_ext_call(callee, &args);
                lang.return_from_call(&mut cfg, bank, ret)?;
            }
        }
        if cfg.loc.at_block_start() {
            if saved.as_ref() == Some(&cfg) {
                return Ok(Outcome::OutOfFuel);
            }
            since += 1;
            if since == power {
                saved = Some(cfg.clone());
                (power, since) = (power * 2, 0);
            }
        }
    }
    Ok(Outcome::OutOfFuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loc::CtrlLoc;
    use keq_smt::Sort;

    /// A one-block machine: `x := x + 1` at width 2, then back to the
    /// block start; or, when `fork` is set, two successors that both hold.
    struct Counter {
        fork: bool,
    }

    impl Language for Counter {
        fn name(&self) -> &str {
            "counter"
        }

        fn step(
            &self,
            cfg: &SymConfig,
            bank: &mut TermBank,
        ) -> Result<Vec<SymConfig>, SemanticsError> {
            let one = bank.mk_bv(2, 1);
            let x = bank.mk_bvadd(cfg.reg("x")?, one);
            let mut next = cfg.clone();
            next.set_reg("x", x);
            Ok(if self.fork { vec![next.clone(), next] } else { vec![next] })
        }
    }

    fn start(bank: &mut TermBank) -> SymConfig {
        let mem = bank.mk_var("mem", Sort::Memory);
        let mut cfg = SymConfig::new(CtrlLoc::entry("b"), mem);
        let zero = bank.mk_bv(2, 0);
        cfg.set_reg("x", zero);
        cfg
    }

    #[test]
    fn a_revisited_state_ends_the_run_before_its_fuel() {
        // Four states repeat forever; the check must notice long before
        // the fuel would run out.
        let mut bank = TermBank::new();
        let cfg = start(&mut bank);
        let out = run(&Counter { fork: false }, &mut bank, cfg, u64::MAX);
        assert_eq!(out, Ok(Outcome::OutOfFuel));
    }

    #[test]
    fn two_holding_successors_are_an_internal_error() {
        let mut bank = TermBank::new();
        let cfg = start(&mut bank);
        let out = run(&Counter { fork: true }, &mut bank, cfg, 10);
        assert!(matches!(out, Err(SemanticsError::Internal { .. })), "{out:?}");
    }

    #[test]
    fn calls_need_a_language_that_returns_from_them() {
        let mut bank = TermBank::new();
        let mut cfg = start(&mut bank);
        let err = Counter { fork: false }.return_from_call(&mut cfg, &mut bank, 0);
        assert!(matches!(err, Err(SemanticsError::Unsupported { .. })));
    }
}
