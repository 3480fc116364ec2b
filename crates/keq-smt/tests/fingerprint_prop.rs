//! Property tests for the canonical obligation fingerprint, seeded through
//! `keq-prng` so every run replays the same cases.
//!
//! Obligations are generated as bank-independent *recipes* (a small
//! expression grammar over a fixed variable alphabet) and then
//! materialized into term banks under varied irrelevant conditions —
//! renamed variables, pre-warmed banks that shuffle `TermId` numbering,
//! shuffled root order, different conjunct splits. The fingerprint must
//! be invariant under all of those, and must *change* whenever the
//! obligation's meaning changes (bit width, comparison signedness, root
//! polarity).

use keq_prng::Prng;
use keq_smt::{fingerprint_obligation, ObligationFingerprint, ShapeMemo, Sort, TermBank, TermId};

/// A bank-independent bitvector expression over variables `0..NVARS`.
#[derive(Debug, Clone)]
enum BvExpr {
    Var(usize),
    Const(u64),
    Add(Box<BvExpr>, Box<BvExpr>),
    Sub(Box<BvExpr>, Box<BvExpr>),
    Mul(Box<BvExpr>, Box<BvExpr>),
}

/// A bank-independent boolean expression (one obligation conjunct).
#[derive(Debug, Clone)]
enum BoolExpr {
    Ult(BvExpr, BvExpr),
    Slt(BvExpr, BvExpr),
    Eq(BvExpr, BvExpr),
    Not(Box<BoolExpr>),
    And(Vec<BoolExpr>),
    Or(Vec<BoolExpr>),
}

const NVARS: usize = 4;

fn gen_bv(rng: &mut Prng, depth: usize) -> BvExpr {
    if depth == 0 || rng.random_ratio(1, 3) {
        return if rng.random_bool(0.7) {
            BvExpr::Var(rng.random_range(0..NVARS))
        } else {
            BvExpr::Const(rng.next_u64() % 1000)
        };
    }
    let a = Box::new(gen_bv(rng, depth - 1));
    let b = Box::new(gen_bv(rng, depth - 1));
    match rng.random_range(0..3u32) {
        0 => BvExpr::Add(a, b),
        1 => BvExpr::Sub(a, b),
        _ => BvExpr::Mul(a, b),
    }
}

fn gen_bool(rng: &mut Prng, depth: usize) -> BoolExpr {
    if depth == 0 || rng.random_ratio(1, 3) {
        let a = gen_bv(rng, 2);
        let b = gen_bv(rng, 2);
        return match rng.random_range(0..3u32) {
            0 => BoolExpr::Ult(a, b),
            1 => BoolExpr::Slt(a, b),
            _ => BoolExpr::Eq(a, b),
        };
    }
    match rng.random_range(0..3u32) {
        0 => BoolExpr::Not(Box::new(gen_bool(rng, depth - 1))),
        1 => BoolExpr::And(
            (0..rng.random_range(2..=3usize)).map(|_| gen_bool(rng, depth - 1)).collect(),
        ),
        _ => BoolExpr::Or(
            (0..rng.random_range(2..=3usize)).map(|_| gen_bool(rng, depth - 1)).collect(),
        ),
    }
}

fn build_bv(bank: &mut TermBank, e: &BvExpr, names: &[String], w: u32) -> TermId {
    match e {
        BvExpr::Var(i) => bank.mk_var(&names[*i], Sort::BitVec(w)),
        BvExpr::Const(c) => bank.mk_bv(w, u128::from(*c)),
        BvExpr::Add(a, b) => {
            let (a, b) = (build_bv(bank, a, names, w), build_bv(bank, b, names, w));
            bank.mk_bvadd(a, b)
        }
        BvExpr::Sub(a, b) => {
            let (a, b) = (build_bv(bank, a, names, w), build_bv(bank, b, names, w));
            bank.mk_bvsub(a, b)
        }
        BvExpr::Mul(a, b) => {
            let (a, b) = (build_bv(bank, a, names, w), build_bv(bank, b, names, w));
            bank.mk_bvmul(a, b)
        }
    }
}

fn build_bool(bank: &mut TermBank, e: &BoolExpr, names: &[String], w: u32) -> TermId {
    match e {
        BoolExpr::Ult(a, b) => {
            let (a, b) = (build_bv(bank, a, names, w), build_bv(bank, b, names, w));
            bank.mk_bvult(a, b)
        }
        BoolExpr::Slt(a, b) => {
            let (a, b) = (build_bv(bank, a, names, w), build_bv(bank, b, names, w));
            bank.mk_bvslt(a, b)
        }
        BoolExpr::Eq(a, b) => {
            let (a, b) = (build_bv(bank, a, names, w), build_bv(bank, b, names, w));
            bank.mk_eq(a, b)
        }
        BoolExpr::Not(a) => {
            let a = build_bool(bank, a, names, w);
            bank.mk_not(a)
        }
        BoolExpr::And(xs) => {
            let xs: Vec<TermId> = xs.iter().map(|x| build_bool(bank, x, names, w)).collect();
            bank.mk_and(xs)
        }
        BoolExpr::Or(xs) => {
            let xs: Vec<TermId> = xs.iter().map(|x| build_bool(bank, x, names, w)).collect();
            bank.mk_or(xs)
        }
    }
}

/// Materializes the conjuncts into a bank and fingerprints them, after
/// optionally pre-warming the bank so `TermId` numbering differs between
/// otherwise-identical builds.
fn fp_of(
    roots: &[BoolExpr],
    names: &[String],
    w: u32,
    order: &[usize],
    warm: Option<&mut Prng>,
) -> ObligationFingerprint {
    let mut bank = TermBank::new();
    if let Some(rng) = warm {
        // Hash-consing means building a random subset of subterms (and a
        // few unrelated terms) first permutes every later TermId without
        // changing any term's identity.
        for _ in 0..rng.random_range(1..=8usize) {
            let e = gen_bv(rng, 2);
            build_bv(&mut bank, &e, names, w);
        }
        for i in (0..roots.len()).rev() {
            if rng.random_bool(0.5) {
                build_bool(&mut bank, &roots[i], names, w);
            }
        }
    }
    let built: Vec<TermId> =
        order.iter().map(|&i| build_bool(&mut bank, &roots[i], names, w)).collect();
    let mut memo = ShapeMemo::default();
    fingerprint_obligation(&bank, &mut memo, &[&built])
}

fn identity_order(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn shuffled(rng: &mut Prng, n: usize) -> Vec<usize> {
    let mut v = identity_order(n);
    for i in (1..n).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
    v
}

fn base_names() -> Vec<String> {
    (0..NVARS).map(|i| format!("v{i}")).collect()
}

fn gen_roots(rng: &mut Prng) -> Vec<BoolExpr> {
    (0..rng.random_range(1..=4usize)).map(|_| gen_bool(rng, 2)).collect()
}

#[test]
fn invariant_under_renaming_and_construction_order() {
    let mut rng = Prng::seed_from_u64(0xF1F1_2021);
    for case in 0..60u64 {
        let roots = gen_roots(&mut rng);
        let n = roots.len();
        let reference = fp_of(&roots, &base_names(), 32, &identity_order(n), None);

        // Renamed free variables (fresh-numbering and human-name changes).
        let renames = [
            (0..NVARS).map(|i| format!("tmp_{}", 90 - i)).collect::<Vec<_>>(),
            (0..NVARS).map(|i| format!("%{}", i + 17)).collect::<Vec<_>>(),
        ];
        for names in &renames {
            assert_eq!(
                fp_of(&roots, names, 32, &identity_order(n), None),
                reference,
                "case {case}: renaming changed the fingerprint: {roots:?}"
            );
        }

        // Pre-warmed bank (different TermId numbering) and shuffled root
        // order, several times over.
        for _ in 0..3 {
            let order = shuffled(&mut rng, n);
            assert_eq!(
                fp_of(&roots, &base_names(), 32, &order, Some(&mut rng)),
                reference,
                "case {case}: construction order changed the fingerprint: {roots:?}"
            );
        }

        // Conjunct split: one part per root versus one flat slice.
        let mut bank = TermBank::new();
        let built: Vec<TermId> =
            roots.iter().map(|r| build_bool(&mut bank, r, &base_names(), 32)).collect();
        let parts: Vec<&[TermId]> = built.chunks(1).collect();
        let mut memo = ShapeMemo::default();
        assert_eq!(
            fingerprint_obligation(&bank, &mut memo, &parts),
            reference,
            "case {case}: conjunct split changed the fingerprint"
        );
    }
}

#[test]
fn distinct_for_width_signedness_and_polarity() {
    let mut rng = Prng::seed_from_u64(0xD157_1AC7);
    for case in 0..60u64 {
        let roots = gen_roots(&mut rng);
        let n = roots.len();
        let names = base_names();
        let reference = fp_of(&roots, &names, 32, &identity_order(n), None);

        // Width change.
        assert_ne!(
            fp_of(&roots, &names, 64, &identity_order(n), None),
            reference,
            "case {case}: width change went unnoticed: {roots:?}"
        );

        // Polarity: negate one root. (Skip roots that are already a
        // negation — un-negating is also a meaning change, but `Not(Not)`
        // may simplify structurally in the bank.)
        let flip = (case as usize) % n;
        let mut negated = roots.clone();
        negated[flip] = BoolExpr::Not(Box::new(negated[flip].clone()));
        if !matches!(roots[flip], BoolExpr::Not(_)) {
            assert_ne!(
                fp_of(&negated, &names, 32, &identity_order(n), None),
                reference,
                "case {case}: negated root went unnoticed: {roots:?}"
            );
        }

        // Signedness: flip the first unsigned comparison to signed (or
        // vice versa) anywhere in the first root.
        let mut signed = roots.clone();
        if flip_signedness(&mut signed[0]) {
            assert_ne!(
                fp_of(&signed, &names, 32, &identity_order(n), None),
                reference,
                "case {case}: signedness flip went unnoticed: {roots:?}"
            );
        }
    }
}

/// Flips the first `Ult`/`Slt` found; returns whether anything changed.
fn flip_signedness(e: &mut BoolExpr) -> bool {
    match e {
        BoolExpr::Ult(a, b) => {
            *e = BoolExpr::Slt(a.clone(), b.clone());
            true
        }
        BoolExpr::Slt(a, b) => {
            *e = BoolExpr::Ult(a.clone(), b.clone());
            true
        }
        BoolExpr::Eq(..) => false,
        BoolExpr::Not(a) => flip_signedness(a),
        BoolExpr::And(xs) | BoolExpr::Or(xs) => xs.iter_mut().any(flip_signedness),
    }
}

#[test]
fn memoized_and_fresh_shape_passes_agree() {
    // One ShapeMemo reused across many obligations in the same bank must
    // produce the same fingerprints as a fresh memo per obligation (the
    // solver holds one memo for its whole life).
    let mut rng = Prng::seed_from_u64(0x5EED_CAFE);
    let mut bank = TermBank::new();
    let names = base_names();
    let obligations: Vec<Vec<TermId>> = (0..20)
        .map(|_| gen_roots(&mut rng).iter().map(|r| build_bool(&mut bank, r, &names, 32)).collect())
        .collect();
    let mut shared_memo = ShapeMemo::default();
    for roots in &obligations {
        let shared = fingerprint_obligation(&bank, &mut shared_memo, &[roots]);
        let mut fresh = ShapeMemo::default();
        assert_eq!(fingerprint_obligation(&bank, &mut fresh, &[roots]), shared);
    }
}
