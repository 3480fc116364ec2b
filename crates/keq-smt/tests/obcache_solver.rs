//! Solver ↔ shared-obligation-cache integration: exactly which outcomes
//! may enter the corpus-wide cache.
//!
//! The cacheability contract (DESIGN.md §Obligation cache): **decided
//! verdicts are stored model-free** — `Unsat` discharges the obligation
//! for every later asker, `Sat` answers model-free feasibility questions
//! only (the counterexample names *this* bank's variables and is never
//! stored; model-needing callers recompute). Budget, fault, and
//! cancellation outcomes describe the attempt, not the obligation — none
//! of them may poison another worker's (or a later run's) lookup.

use std::sync::Arc;

use keq_smt::fault::{self, FaultPlan, Rate};
use keq_smt::{
    Budget, BudgetKind, CheckOutcome, SharedObligationCache, Solver, Sort, TermBank, TermId,
};

/// `v = 3 ∧ v = 5` — unsat, with enough structure to reach the solver.
fn contradiction(bank: &mut TermBank, name: &str) -> Vec<TermId> {
    let v = bank.mk_var(name, Sort::BitVec(32));
    let three = bank.mk_bv(32, 3);
    let five = bank.mk_bv(32, 5);
    let a = bank.mk_eq(v, three);
    let b = bank.mk_eq(v, five);
    vec![a, b]
}

#[test]
fn unsat_verdicts_are_stored_and_shared_across_solvers() {
    let cache = Arc::new(SharedObligationCache::new());

    // Solver A proves the obligation from scratch and stores the verdict.
    let mut bank_a = TermBank::new();
    let parts = contradiction(&mut bank_a, "x");
    let mut a = Solver::new();
    a.set_obligation_cache(Some(Arc::clone(&cache)));
    assert_eq!(a.check_sat(&mut bank_a, &parts), CheckOutcome::Unsat);
    assert_eq!(a.stats().obligation_cache_stores, 1);
    assert_eq!(cache.stats().entries, 1);

    // Solver B — different bank, different variable name — hits.
    let mut bank_b = TermBank::new();
    let parts = contradiction(&mut bank_b, "renamed");
    let mut b = Solver::new();
    b.set_obligation_cache(Some(Arc::clone(&cache)));
    assert_eq!(b.check_sat(&mut bank_b, &parts), CheckOutcome::Unsat);
    assert_eq!(b.stats().obligation_cache_hits, 1, "{:?}", b.stats());
    assert_eq!(b.stats().obligation_cache_stores, 0, "a hit must not re-store");
    assert_eq!(
        b.stats().terms_blasted,
        0,
        "a shared hit must discharge the obligation before bit-blasting"
    );
}

/// `41 <u v` over a fresh 16-bit variable — satisfiable, with enough
/// structure to reach the solver.
fn satisfiable(bank: &mut TermBank, name: &str) -> TermId {
    let v = bank.mk_var(name, Sort::BitVec(16));
    let c = bank.mk_bv(16, 41);
    bank.mk_bvult(c, v)
}

#[test]
fn sat_verdicts_are_stored_model_free() {
    let cache = Arc::new(SharedObligationCache::new());
    let mut bank = TermBank::new();
    let q = satisfiable(&mut bank, "v");
    let mut s = Solver::new();
    s.set_obligation_cache(Some(Arc::clone(&cache)));
    let CheckOutcome::Sat(model) = s.check_sat(&mut bank, &[q]) else {
        panic!("expected sat");
    };
    assert!(model.get("v").is_some(), "a computed Sat carries a real witness");
    assert_eq!(s.stats().obligation_cache_stores, 1);
    assert_eq!(cache.stats().entries, 1, "the verdict is stored, model-free");

    // A model-free asker — different solver, different bank, renamed
    // variable — rides the cached verdict without bit-blasting.
    let mut bank_b = TermBank::new();
    let q = satisfiable(&mut bank_b, "renamed");
    let mut b = Solver::new();
    b.set_obligation_cache(Some(Arc::clone(&cache)));
    assert_eq!(b.feasibility(&mut bank_b, &[q]), Ok(true));
    assert_eq!(b.stats().obligation_cache_hits, 1, "{:?}", b.stats());
    assert_eq!(b.stats().terms_blasted, 0, "a model-free hit skips bit-blasting");
}

#[test]
fn model_needing_callers_do_not_ride_a_cached_sat() {
    let cache = Arc::new(SharedObligationCache::new());
    let mut bank = TermBank::new();
    let q = satisfiable(&mut bank, "v");
    let mut s = Solver::new();
    s.set_obligation_cache(Some(Arc::clone(&cache)));
    assert!(matches!(s.check_sat(&mut bank, &[q]), CheckOutcome::Sat(_)));
    assert_eq!(cache.stats().entries, 1);

    // `check_sat` needs the witness: the cached model-free verdict counts
    // as a miss and the query recomputes a real model.
    let mut bank_c = TermBank::new();
    let q = satisfiable(&mut bank_c, "u");
    let mut c = Solver::new();
    c.set_obligation_cache(Some(Arc::clone(&cache)));
    let CheckOutcome::Sat(model) = c.check_sat(&mut bank_c, &[q]) else {
        panic!("expected sat");
    };
    assert!(model.get("u").is_some(), "model-needing callers get a real witness");
    assert_eq!(c.stats().obligation_cache_hits, 0, "{:?}", c.stats());
    assert_eq!(c.stats().obligation_cache_misses, 1, "{:?}", c.stats());
}

#[test]
fn budgeted_outcomes_are_never_stored() {
    let cache = Arc::new(SharedObligationCache::new());
    // Factoring-flavored query (see solver::tests): a tiny conflict budget
    // exhausts before a verdict.
    let mut bank = TermBank::new();
    let x = bank.mk_var("x", Sort::BitVec(28));
    let y = bank.mk_var("y", Sort::BitVec(28));
    let prod = bank.mk_bvmul(x, y);
    let c = bank.mk_bv(28, 0x0c32_1175);
    let eq = bank.mk_eq(prod, c);
    let one = bank.mk_bv(28, 1);
    let x_big = bank.mk_bvult(one, x);
    let y_big = bank.mk_bvult(one, y);
    let mut s =
        Solver::with_budget(Budget { max_conflicts: 5, max_terms: 1_000_000, max_time: None });
    s.set_obligation_cache(Some(Arc::clone(&cache)));
    match s.check_sat(&mut bank, &[eq, x_big, y_big]) {
        CheckOutcome::Budget(BudgetKind::Conflicts) => {
            assert_eq!(cache.stats().entries, 0, "budget-class outcomes must never be cached");
        }
        // Found fast on some search orderings — a decided verdict, which
        // legitimately stores (model-free).
        CheckOutcome::Sat(_) => assert_eq!(cache.stats().entries, 1),
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn injected_fault_outcomes_are_never_stored() {
    let cache = Arc::new(SharedObligationCache::new());
    // Force the unit's first query to report conflict exhaustion; the
    // obligation itself is provably unsat, which is exactly why caching
    // the faulted outcome would be wrong in both directions.
    let plan = FaultPlan { force_conflicts: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(7) };
    let _guard = fault::install(&plan, 0);
    let mut bank = TermBank::new();
    let parts = contradiction(&mut bank, "f");
    let mut s = Solver::new();
    s.set_obligation_cache(Some(Arc::clone(&cache)));
    assert!(matches!(s.check_sat(&mut bank, &parts), CheckOutcome::Budget(_)));
    assert_eq!(cache.stats().entries, 0, "injected-fault outcomes must never be cached");
    assert_eq!(s.stats().obligation_cache_stores, 0);
}

#[test]
fn detached_solver_never_touches_a_cache() {
    // Default solvers carry no shared cache: no lookups, no fingerprint
    // counters — the attach is strictly opt-in.
    let mut bank = TermBank::new();
    let parts = contradiction(&mut bank, "d");
    let mut s = Solver::new();
    assert_eq!(s.check_sat(&mut bank, &parts), CheckOutcome::Unsat);
    assert_eq!(s.stats().obligation_cache_hits, 0);
    assert_eq!(s.stats().obligation_cache_misses, 0);
    assert_eq!(s.stats().obligation_cache_stores, 0);
}
