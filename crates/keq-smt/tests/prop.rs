//! Randomized tests for the SMT substrate (seeded keq-prng generators keep
//! the cases deterministic and the build offline):
//!
//! * smart-constructor normalization is sound w.r.t. concrete evaluation;
//! * the full solver pipeline (lower → blast → CDCL) agrees with
//!   brute-force enumeration on small-width formulas, for scratch queries
//!   and for a batch of queries through one session;
//! * memory lowering preserves evaluation.
//!
//! The generator covers every circuit family the bit-blaster builds and
//! shares gates between: adders, multipliers, dividers, shifters,
//! comparison chains and muxes. Every Sat model is evaluated against the
//! query and every Unsat answer is checked by enumeration, so a wrongly
//! shared gate shows on either side.

use keq_prng::Prng;
use keq_smt::eval::{eval, Assignment, Value};
use keq_smt::{CheckOutcome, Solver, Sort, TermBank, TermId};

/// A bitvector comparison (`=` included), shared by `ite` conditions and
/// query goals.
#[derive(Debug, Clone, Copy)]
enum Cmp {
    Ult,
    Ule,
    Slt,
    Sle,
    Eq,
}

const CMPS: [Cmp; 5] = [Cmp::Ult, Cmp::Ule, Cmp::Slt, Cmp::Sle, Cmp::Eq];

impl Cmp {
    fn random(rng: &mut Prng) -> Cmp {
        CMPS[rng.below(CMPS.len() as u64) as usize]
    }

    fn build(self, bank: &mut TermBank, a: TermId, b: TermId) -> TermId {
        match self {
            Cmp::Ult => bank.mk_bvult(a, b),
            Cmp::Ule => bank.mk_bvule(a, b),
            Cmp::Slt => bank.mk_bvslt(a, b),
            Cmp::Sle => bank.mk_bvsle(a, b),
            Cmp::Eq => bank.mk_eq(a, b),
        }
    }

    fn direct(self, x: u8, y: u8) -> bool {
        match self {
            Cmp::Ult => x < y,
            Cmp::Ule => x <= y,
            Cmp::Slt => (x as i8) < (y as i8),
            Cmp::Sle => (x as i8) <= (y as i8),
            Cmp::Eq => x == y,
        }
    }
}

/// A small expression AST we can both build as terms and evaluate directly.
#[derive(Debug, Clone)]
enum E {
    Var(u8),
    Const(u8),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, Box<E>),
    Lshr(Box<E>, Box<E>),
    Udiv(Box<E>, Box<E>),
    Urem(Box<E>, Box<E>),
    Not(Box<E>),
    /// `ite(l ⋈ r, t, e)`, operands in the order `[l, r, t, e]`.
    Ite(Cmp, Box<[E; 4]>),
}

fn random_expr(rng: &mut Prng, depth: u32) -> E {
    if depth == 0 || rng.random_ratio(1, 4) {
        return if rng.random_bool(0.5) {
            E::Var(rng.random_range(0..3u8))
        } else {
            E::Const(rng.random_range(0..=255u8))
        };
    }
    let bin = |rng: &mut Prng, f: fn(Box<E>, Box<E>) -> E| {
        let a = random_expr(rng, depth - 1);
        let b = random_expr(rng, depth - 1);
        f(Box::new(a), Box::new(b))
    };
    match rng.random_range(0..12u32) {
        0 => bin(rng, E::Add),
        1 => bin(rng, E::Sub),
        2 => bin(rng, E::Mul),
        3 => bin(rng, E::And),
        4 => bin(rng, E::Or),
        5 => bin(rng, E::Xor),
        6 => bin(rng, E::Shl),
        7 => bin(rng, E::Lshr),
        8 => bin(rng, E::Udiv),
        9 => bin(rng, E::Urem),
        10 => {
            let op = Cmp::random(rng);
            E::Ite(op, Box::new([(); 4].map(|()| random_expr(rng, depth - 1))))
        }
        _ => E::Not(Box::new(random_expr(rng, depth - 1))),
    }
}

fn build(bank: &mut TermBank, e: &E) -> TermId {
    match e {
        E::Var(i) => bank.mk_var(&format!("v{i}"), Sort::BitVec(8)),
        E::Const(c) => bank.mk_bv(8, u128::from(*c)),
        E::Add(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvadd(a, b)
        }
        E::Sub(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvsub(a, b)
        }
        E::Mul(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvmul(a, b)
        }
        E::And(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvand(a, b)
        }
        E::Or(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvor(a, b)
        }
        E::Xor(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvxor(a, b)
        }
        E::Shl(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvshl(a, b)
        }
        E::Lshr(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvlshr(a, b)
        }
        E::Udiv(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvudiv(a, b)
        }
        E::Urem(a, b) => {
            let (a, b) = (build(bank, a), build(bank, b));
            bank.mk_bvurem(a, b)
        }
        E::Not(a) => {
            let a = build(bank, a);
            bank.mk_bvnot(a)
        }
        E::Ite(op, args) => {
            let [l, r, t, e] = args.as_ref().each_ref().map(|a| build(bank, a));
            let c = op.build(bank, l, r);
            bank.mk_ite(c, t, e)
        }
    }
}

fn direct(e: &E, env: &[u8; 3]) -> u8 {
    match e {
        E::Var(i) => env[*i as usize],
        E::Const(c) => *c,
        E::Add(a, b) => direct(a, env).wrapping_add(direct(b, env)),
        E::Sub(a, b) => direct(a, env).wrapping_sub(direct(b, env)),
        E::Mul(a, b) => direct(a, env).wrapping_mul(direct(b, env)),
        E::And(a, b) => direct(a, env) & direct(b, env),
        E::Or(a, b) => direct(a, env) | direct(b, env),
        E::Xor(a, b) => direct(a, env) ^ direct(b, env),
        E::Shl(a, b) => {
            let k = direct(b, env);
            if k >= 8 {
                0
            } else {
                direct(a, env) << k
            }
        }
        E::Lshr(a, b) => {
            let k = direct(b, env);
            if k >= 8 {
                0
            } else {
                direct(a, env) >> k
            }
        }
        E::Udiv(a, b) => direct(a, env).checked_div(direct(b, env)).unwrap_or(u8::MAX),
        E::Urem(a, b) => {
            let x = direct(a, env);
            x.checked_rem(direct(b, env)).unwrap_or(x)
        }
        E::Not(a) => !direct(a, env),
        E::Ite(op, args) => {
            let [l, r, t, e] = args.as_ref();
            if op.direct(direct(l, env), direct(r, env)) {
                direct(t, env)
            } else {
                direct(e, env)
            }
        }
    }
}

/// A query goal: `lhs ⋈ rhs`, or its negation when `holds` is false.
#[derive(Debug, Clone)]
struct Goal {
    op: Cmp,
    lhs: E,
    rhs: E,
    holds: bool,
}

impl Goal {
    fn build(&self, bank: &mut TermBank) -> TermId {
        let (l, r) = (build(bank, &self.lhs), build(bank, &self.rhs));
        let c = self.op.build(bank, l, r);
        if self.holds {
            c
        } else {
            bank.mk_not(c)
        }
    }

    fn direct(&self, env: &[u8; 3]) -> bool {
        self.op.direct(direct(&self.lhs, env), direct(&self.rhs, env)) == self.holds
    }
}

/// The enumerable domain `v0 <u 8 ∧ v1 <u 8 ∧ v2 = 0` as assertions: the
/// expressions stay 8 bits wide while brute force visits 64 points.
fn domain(bank: &mut TermBank) -> [TermId; 3] {
    let v0 = bank.mk_var("v0", Sort::BitVec(8));
    let v1 = bank.mk_var("v1", Sort::BitVec(8));
    let v2 = bank.mk_var("v2", Sort::BitVec(8));
    let eight = bank.mk_bv(8, 8);
    let zero = bank.mk_bv(8, 0);
    [bank.mk_bvult(v0, eight), bank.mk_bvult(v1, eight), bank.mk_eq(v2, zero)]
}

/// Checks a solver answer for `domain ∧ goal` (the terms `assertions`):
/// a Sat model must make every assertion true under `eval` and the goal
/// true under direct evaluation; Unsat must leave no point of the domain
/// where the goal holds.
fn check_answer(bank: &mut TermBank, outcome: &CheckOutcome, assertions: &[TermId], goal: &Goal) {
    match outcome {
        CheckOutcome::Sat(model) => {
            let mut asg = Assignment::new();
            let mut env = [0u8; 3];
            for (name, value) in &model.entries {
                let (width, bits) = value.as_bv();
                asg.set_named(bank, name, Sort::BitVec(width), value.clone());
                if let Some(i) = name.strip_prefix('v').and_then(|i| i.parse::<usize>().ok()) {
                    env[i] = bits as u8;
                }
            }
            for &a in assertions {
                assert_eq!(
                    eval(bank, a, &asg),
                    Value::Bool(true),
                    "model {model} falsifies {} for {goal:?}",
                    bank.display(a)
                );
            }
            assert!(goal.direct(&env), "model {model} falsifies {goal:?} under direct evaluation");
        }
        CheckOutcome::Unsat => {
            let witness = (0u8..8)
                .flat_map(|a| (0u8..8).map(move |b| [a, b, 0]))
                .find(|env| goal.direct(env));
            assert!(witness.is_none(), "Unsat, but {witness:?} satisfies {goal:?}");
        }
        CheckOutcome::Budget(_) => {} // cannot happen at these sizes, but allowed
    }
}

/// Constructor normalization never changes the value of a term.
#[test]
fn constructors_sound_vs_direct_eval() {
    let mut rng = Prng::seed_from_u64(0x5157_0001);
    for _ in 0..128 {
        let e = random_expr(&mut rng, 4);
        let env: [u8; 3] =
            [rng.random_range(0..=255u8), rng.random_range(0..=255u8), rng.random_range(0..=255u8)];
        let mut bank = TermBank::new();
        let t = build(&mut bank, &e);
        let mut asg = Assignment::new();
        for (i, v) in env.iter().enumerate() {
            asg.set_named(
                &mut bank,
                &format!("v{i}"),
                Sort::BitVec(8),
                Value::bv(8, u128::from(*v)),
            );
        }
        assert_eq!(
            eval(&bank, t, &asg),
            Value::bv(8, u128::from(direct(&e, &env))),
            "normalization changed the value of {e:?} under {env:?}"
        );
    }
}

/// Solves `domain ∧ goal` in a scratch solver and checks the answer.
fn check_scratch(goal: &Goal) {
    let mut bank = TermBank::new();
    let mut assertions = domain(&mut bank).to_vec();
    assertions.push(goal.build(&mut bank));
    let outcome = Solver::new().check_sat(&mut bank, &assertions);
    check_answer(&mut bank, &outcome, &assertions, goal);
}

/// The solver's Sat/Unsat answers on `domain ∧ goal` agree with
/// brute-force enumeration over the domain's 64 points: 128 miters
/// `¬(e1 = e2)`, the shape of a validation obligation, then 128 goals
/// under a random comparison and polarity.
#[test]
fn solver_agrees_with_bruteforce() {
    let mut rng = Prng::seed_from_u64(0x5157_0002);
    for _ in 0..128 {
        let lhs = random_expr(&mut rng, 3);
        let rhs = random_expr(&mut rng, 3);
        check_scratch(&Goal { op: Cmp::Eq, lhs, rhs, holds: false });
    }
    for _ in 0..128 {
        check_scratch(&Goal {
            op: Cmp::random(&mut rng),
            lhs: random_expr(&mut rng, 3),
            rhs: random_expr(&mut rng, 3),
            holds: rng.random_bool(0.5),
        });
    }
}

/// One session answers a batch of goals over a shared expression pool like
/// enumeration does. Later queries compare the same operands under other
/// relations, so their comparison chains and muxes reuse gates the
/// blaster created for earlier queries under other activation literals.
#[test]
fn session_agrees_with_bruteforce() {
    let mut rng = Prng::seed_from_u64(0x5157_0004);
    for _ in 0..24 {
        let pool: Vec<E> = (0..3).map(|_| random_expr(&mut rng, 3)).collect();
        let mut bank = TermBank::new();
        let domain = domain(&mut bank);
        let mut solver = Solver::new();
        let mut session = solver.open_session(&domain);
        for _ in 0..6 {
            let pick = |rng: &mut Prng| pool[rng.below(pool.len() as u64) as usize].clone();
            let goal = Goal {
                op: Cmp::random(&mut rng),
                lhs: pick(&mut rng),
                rhs: pick(&mut rng),
                holds: rng.random_bool(0.5),
            };
            let phi = goal.build(&mut bank);
            let outcome = session.check_sat(&mut bank, &[phi]);
            let mut assertions = domain.to_vec();
            assertions.push(phi);
            check_answer(&mut bank, &outcome, &assertions, &goal);
        }
    }
}

/// Writing then reading memory at symbolic offsets round-trips under the
/// full pipeline.
#[test]
fn memory_roundtrip_proved() {
    let mut rng = Prng::seed_from_u64(0x5157_0003);
    for _ in 0..64 {
        let addr: u32 = rng.random_range(0..=u32::MAX);
        let width_pow: u32 = rng.random_range(0..3u32);
        let nbytes = 1u32 << width_pow;
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let a = bank.mk_bv(64, u128::from(addr));
        let v = bank.mk_var("v", Sort::BitVec(nbytes * 8));
        let m2 = keq_semantics::write_bytes(&mut bank, mem, a, v);
        let r = keq_semantics::read_bytes(&mut bank, m2, a, nbytes);
        let mut solver = Solver::new();
        assert!(solver.prove_equiv(&mut bank, &[], r, v).is_proved());
    }
}
