//! Golden values for the canonical obligation fingerprint.
//!
//! Persisted obligation stores are keyed by these 128-bit values and
//! stamped only with [`keq_smt::SEMANTICS_REVISION`], so the fingerprint of
//! a fixed obligation must never move unless the revision moves with it. A
//! store written by an older binary would otherwise load cleanly and then
//! never hit. Each case below builds one obligation in a fresh bank and
//! pins its exact fingerprint; a failure prints every case that moved.
//!
//! Any intentional change to the fingerprint (new hashing, new operator
//! codes, a different rewrite normal form feeding it) must bump
//! `SEMANTICS_REVISION` and the CI store-cache key together with these
//! values.

use keq_prng::Prng;
use keq_smt::{fingerprint_obligation, ShapeMemo, Sort, TermBank, TermId};

/// Builds an obligation's parts (prefix, delta, ...) in `bank`.
type Build = fn(&mut TermBank) -> Vec<Vec<TermId>>;

fn bv(bank: &mut TermBank, name: &str, width: u32) -> TermId {
    bank.mk_var(name, Sort::BitVec(width))
}

/// `x + y = 0 ∧ x <u 11`: `x` and `y` tie inside the commutative sum and
/// only the second conjunct, through refinement, tells them apart.
fn refinement_breaks_sum_tie(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (x, y) = (bv(bank, "x", 8), bv(bank, "y", 8));
    let (c, z) = (bank.mk_bv(8, 11), bank.mk_bv(8, 0));
    let sum = bank.mk_bvadd(x, y);
    let eq = bank.mk_eq(sum, z);
    let lt = bank.mk_bvult(x, c);
    vec![vec![eq, lt]]
}

/// The same tie with the variables interned in the opposite order.
fn refinement_breaks_sum_tie_flipped(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (y, x) = (bv(bank, "m", 8), bv(bank, "n", 8));
    let (c, z) = (bank.mk_bv(8, 11), bank.mk_bv(8, 0));
    let sum = bank.mk_bvadd(x, y);
    let eq = bank.mk_eq(sum, z);
    let lt = bank.mk_bvult(x, c);
    vec![vec![lt, eq]]
}

/// `(a & b) | (a & c) = k ∧ b <s c`: commutative children whose shapes tie
/// at depth two; refinement round two separates `b` from `c`.
fn refinement_breaks_nested_tie(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (a, b, c) = (bv(bank, "a", 16), bv(bank, "b", 16), bv(bank, "c", 16));
    let k = bank.mk_bv(16, 0x00f0);
    let ab = bank.mk_bvand(a, b);
    let ac = bank.mk_bvand(a, c);
    let or = bank.mk_bvor(ab, ac);
    let eq = bank.mk_eq(or, k);
    let slt = bank.mk_bvslt(b, c);
    vec![vec![eq, slt]]
}

/// `x + y = z + w`: a genuine automorphism refinement cannot break.
fn unbroken_symmetry(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| bv(bank, n, 32));
    let l = bank.mk_bvadd(x, y);
    let r = bank.mk_bvadd(z, w);
    vec![vec![bank.mk_eq(l, r)]]
}

/// `x <u 40` in the prefix and `x * y = 7` in the delta: one variable
/// shared across the split.
fn shared_across_split(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (x, y) = (bv(bank, "x", 32), bv(bank, "y", 32));
    let (c, d) = (bank.mk_bv(32, 40), bank.mk_bv(32, 7));
    let lt = bank.mk_bvult(x, c);
    let mul = bank.mk_bvmul(x, y);
    let eq = bank.mk_eq(mul, d);
    vec![vec![lt], vec![eq]]
}

/// A boolean variable as a root next to a conjunct that mentions it.
fn bare_variable_root(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let p = bank.mk_var("p", Sort::Bool);
    let q = bank.mk_var("q", Sort::Bool);
    let (x, y) = (bv(bank, "x", 8), bv(bank, "y", 8));
    let lt = bank.mk_bvult(x, y);
    let or = bank.mk_or([q, lt]);
    let xor = bank.mk_xor(p, q);
    vec![vec![p, or, xor]]
}

/// Duplicate roots and constant-`true` roots across parts.
fn duplicate_and_true_roots(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (x, y) = (bv(bank, "x", 8), bv(bank, "y", 8));
    let t = bank.mk_true();
    let ule = bank.mk_bvule(x, y);
    let ne = bank.mk_ne(x, y);
    vec![vec![t, ule, ne, ule], vec![ne, t]]
}

/// `x = 2^100 + 3` and `x ⊕ y = 2^127 + 2^64`: constants wider than 64 bits.
fn wide_constants(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (x, y) = (bv(bank, "x", 128), bv(bank, "y", 128));
    let c = bank.mk_bv(128, (1u128 << 100) + 3);
    let d = bank.mk_bv(128, (1u128 << 127) | (1u128 << 64));
    let e1 = bank.mk_eq(x, c);
    let xor = bank.mk_bvxor(x, y);
    let e2 = bank.mk_eq(xor, d);
    vec![vec![e1, e2]]
}

/// `zext(x[15:8], 32) = sext(y, 32)` and `x[3:0] ++ y <u x[19:8]`.
fn extract_and_extensions(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (x, y) = (bv(bank, "x", 32), bv(bank, "y", 8));
    let mid = bank.mk_extract(x, 15, 8);
    let z = bank.mk_zext(mid, 32);
    let s = bank.mk_sext(y, 32);
    let e1 = bank.mk_eq(z, s);
    let low = bank.mk_extract(x, 3, 0);
    let cat = bank.mk_concat(low, y);
    let wide = bank.mk_extract(x, 19, 8);
    let lt = bank.mk_bvult(cat, wide);
    vec![vec![e1, lt]]
}

/// A memory `select` through a two-`store` chain with symbolic addresses.
fn memory_chain(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let m = bank.mk_var("m", Sort::Memory);
    let (a, b, c) = (bv(bank, "a", 64), bv(bank, "b", 64), bv(bank, "c", 64));
    let (u, v) = (bv(bank, "u", 8), bv(bank, "v", 8));
    let s1 = bank.mk_store(m, a, u);
    let s2 = bank.mk_store(s1, b, v);
    let rd = bank.mk_select(s2, c);
    let rd0 = bank.mk_select(m, c);
    let ne = bank.mk_ne(rd, rd0);
    let eq = bank.mk_eq(a, c);
    vec![vec![ne], vec![eq]]
}

/// `ite`, shifts, division and remainder under a negated disjunction.
fn ite_shift_division(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    let (x, y) = (bv(bank, "x", 16), bv(bank, "y", 16));
    let p = bank.mk_var("p", Sort::Bool);
    let three = bank.mk_bv(16, 3);
    let shl = bank.mk_bvshl(x, three);
    let lshr = bank.mk_bvlshr(y, three);
    let ite = bank.mk_ite(p, shl, lshr);
    let q = bank.mk_bvudiv(ite, y);
    let r = bank.mk_bvurem(x, y);
    let sub = bank.mk_bvsub(q, r);
    let ashr = bank.mk_bvashr(sub, x);
    let neg = bank.mk_bvneg(ashr);
    let not = bank.mk_bvnot(x);
    let e = bank.mk_eq(neg, not);
    let sle = bank.mk_bvsle(x, y);
    let or = bank.mk_or([e, sle]);
    vec![vec![bank.mk_not(or)]]
}

/// The empty obligation and a constant-`false` one.
fn empty(_: &mut TermBank) -> Vec<Vec<TermId>> {
    vec![vec![], vec![]]
}

fn constant_false(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    vec![vec![bank.mk_false()]]
}

/// A seeded random conjunction over a pre-warmed bank: 12 conjuncts of
/// nested sums, products and comparisons over five shared variables.
fn seeded_random(bank: &mut TermBank) -> Vec<Vec<TermId>> {
    fn term(rng: &mut Prng, bank: &mut TermBank, vars: &[TermId], depth: u32) -> TermId {
        if depth == 0 || rng.random_ratio(1, 3) {
            return if rng.random_bool(0.75) {
                vars[rng.below(vars.len() as u64) as usize]
            } else {
                bank.mk_bv(32, u128::from(rng.below(1000)))
            };
        }
        let a = term(rng, bank, vars, depth - 1);
        let b = term(rng, bank, vars, depth - 1);
        match rng.below(4) {
            0 => bank.mk_bvadd(a, b),
            1 => bank.mk_bvsub(a, b),
            2 => bank.mk_bvmul(a, b),
            _ => bank.mk_bvand(a, b),
        }
    }
    let mut rng = Prng::seed_from_u64(0x601d_f1a6);
    // Unrelated terms first, so the obligation's TermIds start mid-bank.
    for i in 0..7u128 {
        let _ = bank.mk_bv(32, 5000 + i);
    }
    let vars: Vec<TermId> = (0..5).map(|i| bv(bank, &format!("v{i}"), 32)).collect();
    let roots = (0..12)
        .map(|_| {
            let a = term(&mut rng, bank, &vars, 3);
            let b = term(&mut rng, bank, &vars, 3);
            match rng.below(3) {
                0 => bank.mk_eq(a, b),
                1 => bank.mk_bvult(a, b),
                _ => bank.mk_bvsle(a, b),
            }
        })
        .collect();
    vec![roots]
}

const GOLDEN: &[(&str, Build, u128)] = &[
    ("refinement_breaks_sum_tie", refinement_breaks_sum_tie, 0x1903d1845f4c86019dcf709be3e4acf8),
    (
        "refinement_breaks_sum_tie_flipped",
        refinement_breaks_sum_tie_flipped,
        0x1903d1845f4c86019dcf709be3e4acf8,
    ),
    (
        "refinement_breaks_nested_tie",
        refinement_breaks_nested_tie,
        0x707914d8662b380c46d310bedd665164,
    ),
    ("unbroken_symmetry", unbroken_symmetry, 0x98e7dd666ef29c09287c6a345b1846ac),
    ("shared_across_split", shared_across_split, 0xc295e546ce67b68f1c342b5263a15492),
    ("bare_variable_root", bare_variable_root, 0x51bee251c3c3151e946f8d825fd8f819),
    ("duplicate_and_true_roots", duplicate_and_true_roots, 0x5fc789e9c6bf3eb11ee7c9c47ffd32a2),
    ("wide_constants", wide_constants, 0x9160ce95a10981d1a17fa9bf5a7a1b2a),
    ("extract_and_extensions", extract_and_extensions, 0x0a1355057f688bcc5bb6a7e2d0395be4),
    ("memory_chain", memory_chain, 0xf49cb7cfb887219d13b9f17e17868897),
    ("ite_shift_division", ite_shift_division, 0x7619d1644fcc94fa3bc5ffaaeab73384),
    ("empty", empty, 0xd3c58a5f9e306b9141c64e6d19cf2c53),
    ("constant_false", constant_false, 0x32acbdc296da69d942f7f4b2829baa32),
    ("seeded_random", seeded_random, 0x2e1cb098ce997df76bd077b646c185a0),
];

fn fingerprint(build: Build) -> u128 {
    let mut bank = TermBank::new();
    let parts = build(&mut bank);
    let parts: Vec<&[TermId]> = parts.iter().map(Vec::as_slice).collect();
    fingerprint_obligation(&bank, &mut ShapeMemo::default(), &parts).0
}

#[test]
fn fingerprints_match_the_recorded_values() {
    let moved: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(name, build, want)| {
            let got = fingerprint(build);
            (got != want).then(|| format!("(\"{name}\", {name}, {got:#034x}),"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "{} of {} fingerprints moved (bump SEMANTICS_REVISION if intended):\n{}",
        moved.len(),
        GOLDEN.len(),
        moved.join("\n"),
    );
}

#[test]
fn split_and_flipped_cases_agree_with_their_scratch_forms() {
    // The pinned values are only worth pinning if the invariances they
    // exercise hold: the flipped bank and the scratch form of the split
    // obligation land on the same fingerprint.
    assert_eq!(
        fingerprint(refinement_breaks_sum_tie),
        fingerprint(refinement_breaks_sum_tie_flipped)
    );
    let joined: Build = |bank| vec![shared_across_split(bank).concat()];
    assert_eq!(fingerprint(shared_across_split), fingerprint(joined));
    let dedup: Build = |bank| {
        let parts = duplicate_and_true_roots(bank);
        vec![vec![parts[0][1], parts[0][2]]]
    };
    assert_eq!(fingerprint(duplicate_and_true_roots), fingerprint(dedup));
}
