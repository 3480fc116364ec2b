//! Differential property test: a [`Session`] must answer every query batch
//! exactly like a fleet of fresh scratch [`Solver`]s.
//!
//! Each seeded trial generates a random prefix and a batch of random delta
//! queries over a shared pool of bitvector/bool/memory variables, then runs
//! the batch twice:
//!
//! * **session**: one `Solver::open_session(prefix)`, every query submits
//!   only its delta (activation literals, persistent lowering/blasting
//!   caches, learnt-clause retention all in play);
//! * **scratch**: a brand-new `Solver` per query, asserting
//!   `prefix ++ delta` from nothing.
//!
//! The Sat/Unsat/Budget *kind* must agree query-by-query, and every Sat
//! model must actually satisfy its own query — checked modulo assignment
//! (different search orders pick different models) by re-asserting the
//! model's `name = value` bindings next to the query in a fresh solver and
//! demanding Sat. A mixed leg interleaves feasibility queries (which a
//! session may answer from an earlier model), model-needing queries and
//! proofs over a byte pinned in memory, and checks each against a scratch
//! `check_sat`. A final leg pins the fault-injection contract: under an
//! installed `ForceBudget` plan (the [`keq_smt::fault::FaultSite::SolverQuery`]
//! site fires at every poll) both paths report the identical `Budget`
//! outcome.

use keq_prng::Prng;
use keq_smt::fault::{self, FaultPlan, Rate};
use keq_smt::{
    BudgetKind, CheckOutcome, Model, ProofOutcome, Solver, Sort, TermBank, TermId, Value,
};

const WIDTH: u32 = 8;
const TRIALS: u64 = 32;
/// The mixed-query campaign runs more trials: a model that breaks a side
/// condition only answers wrongly when the delta pins the new read.
const MIXED_TRIALS: u64 = 128;

/// The shared variable pool of one trial.
struct Pool {
    bvs: Vec<TermId>,
    bools: Vec<TermId>,
    mem: TermId,
}

impl Pool {
    fn new(bank: &mut TermBank) -> Pool {
        let bvs = (0..4).map(|i| bank.mk_var(&format!("x{i}"), Sort::BitVec(WIDTH))).collect();
        let bools = (0..2).map(|i| bank.mk_var(&format!("p{i}"), Sort::Bool)).collect();
        let mem = bank.mk_var("m", Sort::Memory);
        Pool { bvs, bools, mem }
    }
}

/// A random width-8 bitvector term of bounded depth. Memory selects are in
/// the mix so batches exercise the session's *cross-query* incremental
/// Ackermann expansion.
fn gen_bv(rng: &mut Prng, bank: &mut TermBank, pool: &Pool, depth: u32) -> TermId {
    if depth == 0 || rng.random_bool(0.3) {
        return match rng.below(3) {
            0 => pool.bvs[rng.below(pool.bvs.len() as u64) as usize],
            1 => bank.mk_bv(WIDTH, rng.below(1 << WIDTH) as u128),
            _ => {
                let addr = pool.bvs[rng.below(pool.bvs.len() as u64) as usize];
                let addr64 = bank.mk_zext(addr, 64);
                bank.mk_select(pool.mem, addr64)
            }
        };
    }
    let a = gen_bv(rng, bank, pool, depth - 1);
    let b = gen_bv(rng, bank, pool, depth - 1);
    match rng.below(7) {
        0 => bank.mk_bvadd(a, b),
        1 => bank.mk_bvsub(a, b),
        2 => bank.mk_bvand(a, b),
        3 => bank.mk_bvor(a, b),
        4 => bank.mk_bvxor(a, b),
        5 => bank.mk_bvmul(a, b),
        _ => {
            let c = gen_bool(rng, bank, pool, depth - 1);
            bank.mk_ite(c, a, b)
        }
    }
}

/// A random boolean term of bounded depth.
fn gen_bool(rng: &mut Prng, bank: &mut TermBank, pool: &Pool, depth: u32) -> TermId {
    if depth == 0 || rng.random_bool(0.25) {
        return pool.bools[rng.below(pool.bools.len() as u64) as usize];
    }
    match rng.below(6) {
        0 | 1 => {
            let a = gen_bv(rng, bank, pool, depth - 1);
            let b = gen_bv(rng, bank, pool, depth - 1);
            match rng.below(4) {
                0 => bank.mk_eq(a, b),
                1 => bank.mk_bvult(a, b),
                2 => bank.mk_bvule(a, b),
                _ => bank.mk_bvslt(a, b),
            }
        }
        2 => {
            let a = gen_bool(rng, bank, pool, depth - 1);
            let b = gen_bool(rng, bank, pool, depth - 1);
            bank.mk_and([a, b])
        }
        3 => {
            let a = gen_bool(rng, bank, pool, depth - 1);
            let b = gen_bool(rng, bank, pool, depth - 1);
            bank.mk_or([a, b])
        }
        4 => {
            let a = gen_bool(rng, bank, pool, depth - 1);
            bank.mk_not(a)
        }
        _ => {
            let a = gen_bool(rng, bank, pool, depth - 1);
            let b = gen_bool(rng, bank, pool, depth - 1);
            bank.mk_xor(a, b)
        }
    }
}

fn gen_assertions(rng: &mut Prng, bank: &mut TermBank, pool: &Pool, count: u64) -> Vec<TermId> {
    (0..count).map(|_| gen_bool(rng, bank, pool, 3)).collect()
}

/// The comparable shape of an outcome (models compare by satisfiability,
/// not by value).
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Kind {
    Sat,
    Unsat,
    Budget(BudgetKind),
}

fn kind(outcome: &CheckOutcome) -> Kind {
    match outcome {
        CheckOutcome::Sat(_) => Kind::Sat,
        CheckOutcome::Unsat => Kind::Unsat,
        CheckOutcome::Budget(k) => Kind::Budget(*k),
    }
}

/// Checks that `model` satisfies `assertions`, modulo which model the
/// producing solver happened to pick: re-assert the model's named bindings
/// next to the assertions in a fresh solver and demand Sat. Memory
/// variables have no named binding (models only carry bool/bv names), so
/// memory stays free — which only makes the check sound, never vacuous.
fn assert_model_satisfies(bank: &mut TermBank, assertions: &[TermId], model: &Model, who: &str) {
    let mut constrained = assertions.to_vec();
    for (name, value) in &model.entries {
        let binding = match value {
            Value::Bool(b) => {
                let v = bank.mk_var(name, Sort::Bool);
                let c = bank.mk_bool(*b);
                bank.mk_eq(v, c)
            }
            Value::Bv { width, value } => {
                let v = bank.mk_var(name, Sort::BitVec(*width));
                let c = bank.mk_bv(*width, *value);
                bank.mk_eq(v, c)
            }
            Value::Mem(_) => continue,
        };
        constrained.push(binding);
    }
    let mut fresh = Solver::new();
    assert!(
        matches!(fresh.check_sat(bank, &constrained), CheckOutcome::Sat(_)),
        "{who}: claimed model does not satisfy its own query"
    );
}

#[test]
fn session_batches_agree_with_scratch_solvers() {
    for seed in 0..TRIALS {
        let mut rng = Prng::seed_from_u64(0x5e55_1000 ^ seed);
        let mut bank = TermBank::new();
        let pool = Pool::new(&mut bank);

        let prefix_len = rng.below(3);
        let prefix = gen_assertions(&mut rng, &mut bank, &pool, prefix_len);
        let batch_len = 3 + rng.below(3);
        let batch: Vec<Vec<TermId>> = (0..batch_len)
            .map(|_| {
                let delta_len = 1 + rng.below(2);
                gen_assertions(&mut rng, &mut bank, &pool, delta_len)
            })
            .collect();

        let mut session_solver = Solver::new();
        let mut session = session_solver.open_session(&prefix);
        let session_outcomes: Vec<CheckOutcome> =
            batch.iter().map(|delta| session.check_sat(&mut bank, delta)).collect();
        drop(session);

        for (i, (delta, session_outcome)) in batch.iter().zip(&session_outcomes).enumerate() {
            let mut scratch = Solver::new();
            let mut full = prefix.clone();
            full.extend_from_slice(delta);
            let scratch_outcome = scratch.check_sat(&mut bank, &full);
            assert_eq!(
                kind(session_outcome),
                kind(&scratch_outcome),
                "seed {seed} query {i}: session and scratch disagree"
            );
            if let CheckOutcome::Sat(m) = session_outcome {
                assert_model_satisfies(
                    &mut bank,
                    &full,
                    m,
                    &format!("seed {seed} query {i} session"),
                );
            }
            if let CheckOutcome::Sat(m) = &scratch_outcome {
                assert_model_satisfies(
                    &mut bank,
                    &full,
                    m,
                    &format!("seed {seed} query {i} scratch"),
                );
            }
        }
    }
}

/// One query of a mixed session batch.
enum Query {
    /// `is_feasible(delta)`: needs no model, so a session model may answer.
    Feasible(Vec<TermId>),
    /// `check_sat(delta)`: needs a model.
    CheckSat(Vec<TermId>),
    /// `prove_implies(hyps, goal)`: a refutation needs a countermodel.
    Prove(Vec<TermId>, TermId),
}

/// Sessions that interleave feasibility queries, model-needing queries and
/// proofs over memory reads must answer each like a scratch `check_sat`
/// of the whole conjunction, whether the SAT core or one of the session's
/// earlier models answered. The campaign must also take the model path.
#[test]
fn mixed_session_queries_agree_with_scratch_check_sat() {
    let mut model_hits = 0;
    for seed in 0..MIXED_TRIALS {
        let mut rng = Prng::seed_from_u64(0x30de_1000 ^ seed);
        let mut bank = TermBank::new();
        let mut pool = Pool::new(&mut bank);
        let prefix_len = rng.below(3);
        let mut prefix = gen_assertions(&mut rng, &mut bank, &pool, prefix_len);
        // A nonzero byte pinned in memory at `x0 = k`, and `k` in the
        // operand pool: a model that leaves a later read at `k` at its
        // default 0 breaks that read's Ackermann side condition.
        let k = bank.mk_bv(WIDTH, rng.below(1 << WIDTH) as u128);
        pool.bvs.push(k);
        let at_k = bank.mk_eq(pool.bvs[0], k);
        let addr = bank.mk_zext(pool.bvs[0], 64);
        let read = bank.mk_select(pool.mem, addr);
        let byte = bank.mk_bv(WIDTH, 1 + rng.below((1 << WIDTH) - 1) as u128);
        prefix.push(at_k);
        prefix.push(bank.mk_eq(read, byte));
        let batch: Vec<Query> = (0..4 + rng.below(6))
            .map(|_| {
                let delta_len = 1 + rng.below(2);
                let delta = gen_assertions(&mut rng, &mut bank, &pool, delta_len);
                match rng.below(4) {
                    0 => Query::CheckSat(delta),
                    1 => Query::Prove(delta, gen_bool(&mut rng, &mut bank, &pool, 3)),
                    _ => Query::Feasible(delta),
                }
            })
            .collect();

        let mut session_solver = Solver::new();
        let mut session = session_solver.open_session(&prefix);
        for (i, query) in batch.iter().enumerate() {
            let who = format!("seed {seed} query {i}");
            let mut full = prefix.clone();
            let answer = match query {
                Query::Feasible(delta) => {
                    full.extend_from_slice(delta);
                    match session.feasibility(&mut bank, delta) {
                        Ok(true) => Kind::Sat,
                        Ok(false) => Kind::Unsat,
                        Err(k) => Kind::Budget(k),
                    }
                }
                Query::CheckSat(delta) => {
                    full.extend_from_slice(delta);
                    let outcome = session.check_sat(&mut bank, delta);
                    if let CheckOutcome::Sat(m) = &outcome {
                        assert_model_satisfies(&mut bank, &full, m, &who);
                    }
                    kind(&outcome)
                }
                Query::Prove(hyps, goal) => {
                    full.extend_from_slice(hyps);
                    full.push(bank.mk_not(*goal));
                    match session.prove_implies(&mut bank, hyps, *goal) {
                        ProofOutcome::Proved => Kind::Unsat,
                        ProofOutcome::Refuted(m) => {
                            assert_model_satisfies(&mut bank, &full, &m, &who);
                            Kind::Sat
                        }
                        ProofOutcome::Budget(k) => Kind::Budget(k),
                    }
                }
            };
            let scratch = Solver::new().check_sat(&mut bank, &full);
            assert_eq!(answer, kind(&scratch), "{who}: session and scratch disagree");
        }
        drop(session);
        model_hits += session_solver.stats().model_hits;
    }
    eprintln!("feasibility queries answered by a session model: {model_hits}");
    assert!(model_hits > 0, "no feasibility query was answered by a session model");
}

/// The rewriter leg of the differential: the same seeded batches must
/// produce the same Sat/Unsat/Budget kinds with obligation normalization on
/// (the default) and off, on both the session and the scratch path, and
/// every Sat model must satisfy the *original* (pre-rewrite) query. A
/// divergence here means a rewrite rule changed an obligation's meaning.
#[test]
fn rewriter_on_and_off_legs_agree() {
    for seed in 0..TRIALS {
        let mut rng = Prng::seed_from_u64(0x4e_0912 ^ seed);
        let mut bank = TermBank::new();
        let pool = Pool::new(&mut bank);

        let prefix_len = rng.below(3);
        let prefix = gen_assertions(&mut rng, &mut bank, &pool, prefix_len);
        let batch: Vec<Vec<TermId>> = (0..2 + rng.below(3))
            .map(|_| {
                let delta_len = 1 + rng.below(2);
                gen_assertions(&mut rng, &mut bank, &pool, delta_len)
            })
            .collect();

        let mut on_solver = Solver::new();
        let mut off_solver = Solver::new();
        off_solver.set_rewrite_enabled(false);
        let mut on_session = on_solver.open_session(&prefix);
        let on_outcomes: Vec<CheckOutcome> =
            batch.iter().map(|delta| on_session.check_sat(&mut bank, delta)).collect();
        drop(on_session);
        let mut off_session = off_solver.open_session(&prefix);
        let off_outcomes: Vec<CheckOutcome> =
            batch.iter().map(|delta| off_session.check_sat(&mut bank, delta)).collect();
        drop(off_session);

        for (i, delta) in batch.iter().enumerate() {
            let mut full = prefix.clone();
            full.extend_from_slice(delta);
            let mut scratch_on = Solver::new();
            let mut scratch_off = Solver::new();
            scratch_off.set_rewrite_enabled(false);
            let scratch_on_outcome = scratch_on.check_sat(&mut bank, &full);
            let scratch_off_outcome = scratch_off.check_sat(&mut bank, &full);

            let kinds = [
                kind(&on_outcomes[i]),
                kind(&off_outcomes[i]),
                kind(&scratch_on_outcome),
                kind(&scratch_off_outcome),
            ];
            assert!(
                kinds.iter().all(|k| *k == kinds[0]),
                "seed {seed} query {i}: rewriter legs disagree: \
                 session on/off {:?}/{:?}, scratch on/off {:?}/{:?}",
                kinds[0],
                kinds[1],
                kinds[2],
                kinds[3],
            );
            for (outcome, who) in [
                (&on_outcomes[i], "session rewriter-on"),
                (&scratch_on_outcome, "scratch rewriter-on"),
            ] {
                if let CheckOutcome::Sat(m) = outcome {
                    assert_model_satisfies(
                        &mut bank,
                        &full,
                        m,
                        &format!("seed {seed} query {i} {who}"),
                    );
                }
            }
        }
    }
}

#[test]
fn session_and_scratch_report_identical_injected_budget_faults() {
    // ForceBudget at FaultSite::SolverQuery fires at every poll, so *every*
    // query on both paths must surface the same Budget outcome — the
    // session must not mask the fault behind its caches or session state.
    let plan = FaultPlan { force_conflicts: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(7) };
    let _guard = fault::install(&plan, 0);

    for seed in 0..8u64 {
        let mut rng = Prng::seed_from_u64(0xfa_017 ^ seed);
        let mut bank = TermBank::new();
        let pool = Pool::new(&mut bank);
        let prefix = gen_assertions(&mut rng, &mut bank, &pool, 1);
        let batch: Vec<Vec<TermId>> =
            (0..3).map(|_| gen_assertions(&mut rng, &mut bank, &pool, 1)).collect();

        let mut session_solver = Solver::new();
        let mut session = session_solver.open_session(&prefix);
        for (i, delta) in batch.iter().enumerate() {
            let session_outcome = session.check_sat(&mut bank, delta);
            let mut scratch = Solver::new();
            let mut full = prefix.clone();
            full.extend_from_slice(delta);
            let scratch_outcome = scratch.check_sat(&mut bank, &full);
            assert_eq!(
                kind(&session_outcome),
                Kind::Budget(BudgetKind::Conflicts),
                "seed {seed} query {i}: session must surface the injected fault"
            );
            assert_eq!(
                kind(&session_outcome),
                kind(&scratch_outcome),
                "seed {seed} query {i}: fault outcomes must match"
            );
        }
    }
}
