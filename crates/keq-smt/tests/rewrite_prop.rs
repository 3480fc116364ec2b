//! Property tests for the saturating obligation rewriter ([`keq_smt::rewrite`]).
//!
//! The core property is stronger than equisatisfiability: for every seeded
//! random obligation, the rewritten roots must *evaluate identically* to the
//! originals under a battery of random concrete assignments through the
//! reference evaluator (`eval.rs`) — bitvectors, booleans, and memories all
//! assigned. Identical evaluation on every assignment implies the two are
//! equisatisfiable, and catches far more (a rule that flips a single output
//! bit on one input fails here even if both sides stay satisfiable).
//!
//! On top of that: normalization must be idempotent (a second pass over its
//! own output changes nothing), must never grow the reachable DAG, and must
//! not mask injected solver faults when it runs inside the solver pipeline.

use std::collections::HashSet;

use keq_prng::Prng;
use keq_smt::eval::eval;
use keq_smt::fault::{self, FaultPlan, Rate};
use keq_smt::{
    Assignment, BudgetKind, CheckOutcome, MemValue, Rewriter, Solver, Sort, TermBank, TermId, Value,
};

const WIDTH: u32 = 8;
const TRIALS: u64 = 48;
const ASSIGNMENTS_PER_TRIAL: u64 = 16;

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

/// A random memory term: the pool variable under a short random store chain,
/// so store-collapsing and select-forwarding rules have something to chew on.
fn gen_mem(rng: &mut Prng, bank: &mut TermBank, pool: &Pool, depth: u32) -> TermId {
    let mut mem = pool.mem;
    for _ in 0..rng.below(u64::from(depth) + 1) {
        let addr = gen_bv(rng, bank, pool, 1);
        let addr64 = bank.mk_zext(addr, 64);
        let val = gen_bv(rng, bank, pool, 1);
        mem = bank.mk_store(mem, addr64, val);
    }
    mem
}

/// A random width-8 bitvector term. Deliberately redundancy-heavy: shifts by
/// constants, extract-of-extend round trips, concat slicing, and
/// mask-by-constant shapes keep every rule family reachable.
fn gen_bv(rng: &mut Prng, bank: &mut TermBank, pool: &Pool, depth: u32) -> TermId {
    if depth == 0 || rng.random_bool(0.25) {
        return match rng.below(3) {
            0 => pool.bvs[rng.below(pool.bvs.len() as u64) as usize],
            1 => bank.mk_bv(WIDTH, rng.below(1 << WIDTH) as u128),
            _ => {
                let mem = gen_mem(rng, bank, pool, depth.min(1));
                let addr = pool.bvs[rng.below(pool.bvs.len() as u64) as usize];
                let addr64 = bank.mk_zext(addr, 64);
                bank.mk_select(mem, addr64)
            }
        };
    }
    let a = gen_bv(rng, bank, pool, depth - 1);
    match rng.below(12) {
        0 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            bank.mk_bvadd(a, b)
        }
        1 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            bank.mk_bvsub(a, b)
        }
        2 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            bank.mk_bvand(a, b)
        }
        3 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            bank.mk_bvor(a, b)
        }
        4 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            bank.mk_bvxor(a, b)
        }
        5 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            bank.mk_bvmul(a, b)
        }
        6 => bank.mk_bvnot(a),
        7 => {
            let k = bank.mk_bv(WIDTH, rng.below(u64::from(WIDTH) + 2) as u128);
            if rng.random_bool(0.5) {
                bank.mk_bvshl(a, k)
            } else {
                bank.mk_bvlshr(a, k)
            }
        }
        8 => {
            // Extend to 16 and slice back out — width-law fodder.
            let wide = if rng.random_bool(0.5) {
                bank.mk_zext(a, 2 * WIDTH)
            } else {
                bank.mk_sext(a, 2 * WIDTH)
            };
            let lo = rng.below(u64::from(WIDTH) + 1) as u32;
            bank.mk_extract(wide, lo + WIDTH - 1, lo)
        }
        9 => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            let cat = bank.mk_concat(a, b);
            let lo = rng.below(u64::from(WIDTH) + 1) as u32;
            bank.mk_extract(cat, lo + WIDTH - 1, lo)
        }
        10 => {
            let mask = bank.mk_bv(WIDTH, rng.below(1 << WIDTH) as u128);
            bank.mk_bvand(a, mask)
        }
        _ => {
            let b = gen_bv(rng, bank, pool, depth - 1);
            let c = gen_bool(rng, bank, pool, depth - 1);
            bank.mk_ite(c, a, b)
        }
    }
}

fn gen_bool(rng: &mut Prng, bank: &mut TermBank, pool: &Pool, depth: u32) -> TermId {
    if depth == 0 || rng.random_bool(0.25) {
        return pool.bools[rng.below(pool.bools.len() as u64) as usize];
    }
    match rng.below(6) {
        0 | 1 => {
            let a = gen_bv(rng, bank, pool, depth - 1);
            let b = gen_bv(rng, bank, pool, depth - 1);
            match rng.below(5) {
                0 => bank.mk_eq(a, b),
                1 => bank.mk_bvult(a, b),
                2 => bank.mk_bvule(a, b),
                3 => bank.mk_bvslt(a, b),
                _ => bank.mk_bvsle(a, b),
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

/// A full random assignment over the trial pool: every bitvector, every
/// boolean, and the memory (random default byte plus a few explicit writes).
fn random_assignment(rng: &mut Prng, bank: &mut TermBank) -> Assignment {
    let mut asg = Assignment::new();
    for i in 0..4 {
        let v = rng.below(1 << WIDTH) as u128;
        asg.set_named(bank, &format!("x{i}"), Sort::BitVec(WIDTH), Value::bv(WIDTH, v));
    }
    for i in 0..2 {
        asg.set_named(bank, &format!("p{i}"), Sort::Bool, Value::Bool(rng.random_bool(0.5)));
    }
    let mut mem = MemValue { default: rng.below(256) as u8, ..MemValue::default() };
    for _ in 0..rng.below(4) {
        mem = mem.write(rng.below(256), rng.below(256) as u8);
    }
    asg.set_named(bank, "m", Sort::Memory, Value::Mem(mem));
    asg
}

/// Rewritten roots evaluate identically to the originals on random concrete
/// assignments (implies equisatisfiability), never grow the DAG, and a
/// second normalization of the output is the identity (fixpoint reached).
#[test]
fn rewritten_obligations_evaluate_identically() {
    for seed in 0..TRIALS {
        let mut rng = Prng::seed_from_u64(0x9e_0911 ^ seed);
        let mut bank = TermBank::new();
        let pool = Pool::new(&mut bank);
        let roots: Vec<TermId> =
            (0..1 + rng.below(3)).map(|_| gen_bool(&mut rng, &mut bank, &pool, 4)).collect();

        let mut rewriter = Rewriter::default();
        let (rewritten, stats) =
            rewriter.normalize(&mut bank, &roots, None).expect("no cancellation installed");
        assert_eq!(rewritten.len(), roots.len(), "seed {seed}: root arity changed");
        // Width-splitting rules (extract-of-concat across the seam,
        // extract-of-sext) may add a node or two while narrowing blasted
        // widths, so the DAG need not strictly shrink — but saturation must
        // hold: no rule chain may blow the term count up.
        assert!(
            stats.nodes_after <= 2 * stats.nodes_before,
            "seed {seed}: rewriting exploded the DAG ({} -> {})",
            stats.nodes_before,
            stats.nodes_after,
        );

        let (again, _) =
            rewriter.normalize(&mut bank, &rewritten, None).expect("no cancellation installed");
        assert_eq!(again, rewritten, "seed {seed}: normalization is not idempotent");

        for round in 0..ASSIGNMENTS_PER_TRIAL {
            let asg = random_assignment(&mut rng, &mut bank);
            for (i, (&orig, &norm)) in roots.iter().zip(&rewritten).enumerate() {
                assert_eq!(
                    eval(&bank, orig, &asg),
                    eval(&bank, norm, &asg),
                    "seed {seed} root {i} assignment {round}: rewrite changed the denotation",
                );
            }
        }
    }
}

/// Distinct nodes reachable from `roots`, by a plain hash-set walk.
fn reachable(bank: &TermBank, roots: &[TermId]) -> u64 {
    let mut seen = HashSet::new();
    let mut stack = roots.to_vec();
    while let Some(t) = stack.pop() {
        if seen.insert(t) {
            stack.extend(&bank.node(t).args);
        }
    }
    seen.len() as u64
}

/// The same cases through one rewriter and one bank that grows from case
/// to case, as inside a long-lived solver: the node counts behind
/// `rewrite.nodes_saved` equal a plain reachable-node count, and the
/// rewritten roots equal a fresh rewriter's.
#[test]
fn node_counts_match_a_plain_walk_across_one_growing_bank() {
    let mut bank = TermBank::new();
    let pool = Pool::new(&mut bank);
    let mut shared = Rewriter::default();
    let mut saved = 0;
    for seed in 0..TRIALS {
        let mut rng = Prng::seed_from_u64(0x9e_0911 ^ seed);
        let roots: Vec<TermId> =
            (0..1 + rng.below(3)).map(|_| gen_bool(&mut rng, &mut bank, &pool, 4)).collect();
        let (out, stats) =
            shared.normalize(&mut bank, &roots, None).expect("no cancellation installed");
        assert_eq!(stats.nodes_before, reachable(&bank, &roots), "seed {seed}: nodes_before");
        assert_eq!(stats.nodes_after, reachable(&bank, &out), "seed {seed}: nodes_after");
        saved += stats.nodes_saved();
        let (fresh, _) = Rewriter::default()
            .normalize(&mut bank, &roots, None)
            .expect("no cancellation installed");
        assert_eq!(out, fresh, "seed {seed}: a reused rewriter diverged from a fresh one");
    }
    assert!(saved > 0, "the generated cases must exercise rewriting");
}

/// Inside the solver pipeline, normalization must not mask injected faults:
/// with a `ForceBudget` plan installed at the query site, the rewriter-on
/// and rewriter-off solvers report the identical `Budget` outcome.
#[test]
fn rewriter_does_not_mask_injected_faults() {
    let plan = FaultPlan { force_conflicts: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(11) };
    let _guard = fault::install(&plan, 0);

    for seed in 0..8u64 {
        let mut rng = Prng::seed_from_u64(0xfa_0911 ^ seed);
        let mut bank = TermBank::new();
        let pool = Pool::new(&mut bank);
        let assertions: Vec<TermId> =
            (0..2).map(|_| gen_bool(&mut rng, &mut bank, &pool, 3)).collect();

        let mut on = Solver::new();
        let mut off = Solver::new();
        off.set_rewrite_enabled(false);
        let on_outcome = on.check_sat(&mut bank, &assertions);
        let off_outcome = off.check_sat(&mut bank, &assertions);
        assert!(
            matches!(on_outcome, CheckOutcome::Budget(BudgetKind::Conflicts)),
            "seed {seed}: rewriter-on solver must surface the injected fault, got {on_outcome:?}",
        );
        assert!(
            matches!(off_outcome, CheckOutcome::Budget(BudgetKind::Conflicts)),
            "seed {seed}: rewriter-off solver must surface the injected fault, got {off_outcome:?}",
        );
    }
}
