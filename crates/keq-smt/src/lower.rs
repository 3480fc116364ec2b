//! Lowering pass: array elimination and signed-division expansion.
//!
//! The bit-blaster accepts only pure bitvector/boolean terms, so before
//! blasting we:
//!
//! 1. expand `bvsdiv`/`bvsrem` into sign-corrected unsigned forms (the
//!    standard SMT-LIB-faithful lowering);
//! 2. push `select` through `store` chains, turning each read into a nested
//!    if-then-else over the chain's write indices;
//! 3. replace residual reads on base memory *variables* with fresh byte
//!    variables and emit Ackermann congruence constraints
//!    (`i = j → read_i = read_j`) per base memory.
//!
//! The result is an equisatisfiable pure-bitvector formula. Step 3 is the
//! classical Ackermann reduction, complete here because the memory sort has
//! no extensional equality in queries (memory equality is always stated as
//! per-address footprint obligations upstream; see `keq-semantics`).

use std::collections::HashMap;

use crate::term::{Op, TermBank, TermId, VarId};

/// Result of lowering a set of assertions.
#[derive(Debug, Clone, Default)]
pub struct Lowered {
    /// Rewritten assertions (pure bitvector/boolean).
    pub assertions: Vec<TermId>,
    /// Ackermann congruence side conditions (must be asserted too).
    pub side_conditions: Vec<TermId>,
}

/// Error raised when lowering exceeds the term budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TermBudgetExceeded {
    /// Number of terms in the bank when the budget tripped.
    pub terms: usize,
}

impl std::fmt::Display for TermBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "term budget exceeded during lowering ({} terms)", self.terms)
    }
}

impl std::error::Error for TermBudgetExceeded {}

/// Lowers `assertions` so they can be bit-blasted.
///
/// One-shot wrapper over [`Lowerer`]: every call starts with an empty memo,
/// so shared subterms across *calls* are rewritten again. Sessions keep a
/// [`Lowerer`] alive instead.
///
/// # Errors
///
/// Returns [`TermBudgetExceeded`] if the rewritten formula would exceed
/// `max_terms` interned terms — the analogue of the paper's out-of-memory
/// failure class (Fig. 6).
pub fn lower(
    bank: &mut TermBank,
    assertions: &[TermId],
    max_terms: usize,
) -> Result<Lowered, TermBudgetExceeded> {
    Lowerer::new().lower_incremental(bank, assertions, max_terms)
}

/// Persistent lowering context: per-`TermId` rewrite memo plus Ackermann
/// read bookkeeping that survives across calls.
///
/// A `Lowerer` is tied to one [`TermBank`] for its whole life — the bank is
/// append-only and hash-consed, so cached `TermId`s never dangle, but
/// feeding ids from a *different* bank produces nonsense. Sessions enforce
/// this by owning both.
///
/// Incremental Ackermann soundness: side conditions `i = j → rᵢ = rⱼ` over
/// fresh read variables are emitted cumulatively — each call returns only
/// the pairs involving at least one read introduced since the previous
/// call. The caller must keep *all* previously returned side conditions
/// asserted (sessions hard-assert them), because equisatisfiability of the
/// Ackermann reduction holds for the full pairwise closure over every read
/// introduced so far.
#[derive(Debug, Default)]
pub struct Lowerer {
    cache: HashMap<TermId, TermId>,
    /// (base memory var, rewritten index) → fresh read variable.
    reads: HashMap<(VarId, TermId), TermId>,
    /// base memory var → [(index, read var)] in creation order.
    reads_by_base: HashMap<VarId, Vec<(TermId, TermId)>>,
    /// base memory var → prefix length of `reads_by_base[base]` already
    /// pairwise-covered by previously returned side conditions.
    paired: HashMap<VarId, usize>,
    /// Rewrite-memo hits across the lifetime of this lowerer (stats).
    cache_hits: u64,
    max_terms: usize,
}

impl Lowerer {
    /// Creates an empty lowering context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewrite-memo hits accumulated across all calls.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Lowers `assertions`, reusing the memo from prior calls.
    ///
    /// `side_conditions` in the result contains only the Ackermann pairs
    /// *new* since the previous call; see the type-level docs for why the
    /// caller must keep earlier ones asserted.
    ///
    /// # Errors
    ///
    /// Returns [`TermBudgetExceeded`] if the bank outgrows `max_terms`.
    pub fn lower_incremental(
        &mut self,
        bank: &mut TermBank,
        assertions: &[TermId],
        max_terms: usize,
    ) -> Result<Lowered, TermBudgetExceeded> {
        self.max_terms = max_terms;
        let mut out = Lowered::default();
        for &a in assertions {
            out.assertions.push(self.rewrite(bank, a)?);
        }
        // Ackermann expansion: congruence for reads over the same base
        // memory, restricted to pairs with at least one new read.
        let bases: Vec<VarId> = self.reads_by_base.keys().copied().collect();
        for base in bases {
            let reads = &self.reads_by_base[&base];
            let already = *self.paired.get(&base).unwrap_or(&0);
            if already == reads.len() {
                continue;
            }
            let mut pairs = Vec::new();
            for k2 in already..reads.len() {
                let (i2, r2) = reads[k2];
                for &(i1, r1) in &reads[..k2] {
                    pairs.push((i1, r1, i2, r2));
                }
            }
            self.paired.insert(base, self.reads_by_base[&base].len());
            for (i1, r1, i2, r2) in pairs {
                let idx_eq = bank.mk_eq(i1, i2);
                let val_eq = bank.mk_eq(r1, r2);
                let cond = bank.mk_implies(idx_eq, val_eq);
                if bank.as_bool_const(cond) != Some(true) {
                    out.side_conditions.push(cond);
                }
            }
        }
        Ok(out)
    }

    fn rewrite(&mut self, bank: &mut TermBank, root: TermId) -> Result<TermId, TermBudgetExceeded> {
        let mut stack = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if self.cache.contains_key(&t) {
                if !expanded {
                    self.cache_hits += 1;
                }
                continue;
            }
            if bank.len() > self.max_terms {
                return Err(TermBudgetExceeded { terms: bank.len() });
            }
            if !expanded {
                stack.push((t, true));
                for &a in &bank.node(t).args {
                    stack.push((a, false));
                }
                continue;
            }
            let node = bank.node(t).clone();
            let args: Vec<TermId> = node.args.iter().map(|a| self.cache[a]).collect();
            let rebuilt = match node.op {
                Op::BoolConst(_) | Op::BvConst { .. } | Op::Var(_) => t,
                Op::Not => bank.mk_not(args[0]),
                Op::And => bank.mk_and(args),
                Op::Or => bank.mk_or(args),
                Op::Xor => bank.mk_xor(args[0], args[1]),
                Op::Eq => bank.mk_eq(args[0], args[1]),
                Op::Ite => bank.mk_ite(args[0], args[1], args[2]),
                Op::BvNot => bank.mk_bvnot(args[0]),
                Op::BvNeg => bank.mk_bvneg(args[0]),
                Op::BvAdd => bank.mk_bvadd(args[0], args[1]),
                Op::BvSub => bank.mk_bvsub(args[0], args[1]),
                Op::BvMul => bank.mk_bvmul(args[0], args[1]),
                Op::BvUdiv => bank.mk_bvudiv(args[0], args[1]),
                Op::BvUrem => bank.mk_bvurem(args[0], args[1]),
                Op::BvSdiv => lower_sdiv(bank, args[0], args[1]),
                Op::BvSrem => lower_srem(bank, args[0], args[1]),
                Op::BvAnd => bank.mk_bvand(args[0], args[1]),
                Op::BvOr => bank.mk_bvor(args[0], args[1]),
                Op::BvXor => bank.mk_bvxor(args[0], args[1]),
                Op::BvShl => bank.mk_bvshl(args[0], args[1]),
                Op::BvLshr => bank.mk_bvlshr(args[0], args[1]),
                Op::BvAshr => bank.mk_bvashr(args[0], args[1]),
                Op::BvUlt => bank.mk_bvult(args[0], args[1]),
                Op::BvUle => bank.mk_bvule(args[0], args[1]),
                Op::BvSlt => bank.mk_bvslt(args[0], args[1]),
                Op::BvSle => bank.mk_bvsle(args[0], args[1]),
                Op::ZeroExt(to) => bank.mk_zext(args[0], to),
                Op::SignExt(to) => bank.mk_sext(args[0], to),
                Op::Extract { hi, lo } => bank.mk_extract(args[0], hi, lo),
                Op::Concat => bank.mk_concat(args[0], args[1]),
                Op::Store => bank.mk_store(args[0], args[1], args[2]),
                Op::Select => self.lower_select(bank, args[0], args[1]),
            };
            self.cache.insert(t, rebuilt);
        }
        Ok(self.cache[&root])
    }

    /// Expands a read over a (rewritten) store chain into nested ites and
    /// replaces base reads with Ackermann variables.
    fn lower_select(&mut self, bank: &mut TermBank, mem: TermId, idx: TermId) -> TermId {
        // Collect the chain outermost-first.
        let mut writes: Vec<(TermId, TermId)> = Vec::new();
        let mut cur = mem;
        loop {
            let node = bank.node(cur).clone();
            match node.op {
                Op::Store => {
                    writes.push((node.args[1], node.args[2]));
                    cur = node.args[0];
                }
                Op::Var(base) => {
                    let mut result = self.base_read(bank, base, idx);
                    // Innermost store is applied first, so fold from the end.
                    for &(wi, wv) in writes.iter().rev() {
                        let hit = bank.mk_eq(idx, wi);
                        result = bank.mk_ite(hit, wv, result);
                    }
                    return result;
                }
                Op::Ite => {
                    // Memory-sorted ite: distribute the read over branches.
                    let cond = node.args[0];
                    let a = self.lower_select(bank, node.args[1], idx);
                    let b = self.lower_select(bank, node.args[2], idx);
                    let mut result = bank.mk_ite(cond, a, b);
                    for &(wi, wv) in writes.iter().rev() {
                        let hit = bank.mk_eq(idx, wi);
                        result = bank.mk_ite(hit, wv, result);
                    }
                    return result;
                }
                other => panic!("unexpected memory term in select chain: {other:?}"),
            }
        }
    }

    fn base_read(&mut self, bank: &mut TermBank, base: VarId, idx: TermId) -> TermId {
        if let Some(&r) = self.reads.get(&(base, idx)) {
            return r;
        }
        let name = format!("sel!{}!{}", bank.var(base).0, self.reads.len());
        let r = bank.mk_var(&name, crate::sort::Sort::BitVec(8));
        self.reads.insert((base, idx), r);
        self.reads_by_base.entry(base).or_default().push((idx, r));
        r
    }
}

/// `bvsdiv` in terms of `bvudiv` with sign correction (SMT-LIB faithful,
/// including division by zero).
fn lower_sdiv(bank: &mut TermBank, a: TermId, b: TermId) -> TermId {
    let w = bank.width(a);
    let zero = bank.mk_bv(w, 0);
    let sa = bank.mk_bvslt(a, zero);
    let sb = bank.mk_bvslt(b, zero);
    let na = bank.mk_bvneg(a);
    let nb = bank.mk_bvneg(b);
    let abs_a = bank.mk_ite(sa, na, a);
    let abs_b = bank.mk_ite(sb, nb, b);
    let q = bank.mk_bvudiv(abs_a, abs_b);
    let nq = bank.mk_bvneg(q);
    let flip = bank.mk_xor(sa, sb);
    bank.mk_ite(flip, nq, q)
}

/// `bvsrem` in terms of `bvurem`; the result takes the dividend's sign.
fn lower_srem(bank: &mut TermBank, a: TermId, b: TermId) -> TermId {
    let w = bank.width(a);
    let zero = bank.mk_bv(w, 0);
    let sa = bank.mk_bvslt(a, zero);
    let sb = bank.mk_bvslt(b, zero);
    let na = bank.mk_bvneg(a);
    let nb = bank.mk_bvneg(b);
    let abs_a = bank.mk_ite(sa, na, a);
    let abs_b = bank.mk_ite(sb, nb, b);
    let r = bank.mk_bvurem(abs_a, abs_b);
    let nr = bank.mk_bvneg(r);
    bank.mk_ite(sa, nr, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Assignment, Value};
    use crate::sort::Sort;

    #[test]
    fn sdiv_lowering_agrees_with_eval() {
        let mut bank = TermBank::new();
        for (x, y) in [(7i8, 2i8), (-7, 2), (7, -2), (-7, -2), (5, 0), (-5, 0), (-128, -1)] {
            let a = bank.mk_bv(8, x as u8 as u128);
            let b = bank.mk_bv(8, y as u8 as u128);
            let direct = bank.mk_bvsdiv(a, b); // constant-folded by the bank
            let lowered = lower_sdiv(&mut bank, a, b);
            assert_eq!(
                eval(&bank, direct, &Assignment::new()),
                eval(&bank, lowered, &Assignment::new()),
                "sdiv mismatch at ({x}, {y})"
            );
            let direct_r = bank.mk_bvsrem(a, b);
            let lowered_r = lower_srem(&mut bank, a, b);
            assert_eq!(
                eval(&bank, direct_r, &Assignment::new()),
                eval(&bank, lowered_r, &Assignment::new()),
                "srem mismatch at ({x}, {y})"
            );
        }
    }

    #[test]
    fn select_store_chain_becomes_ites() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let j = bank.mk_var("j", Sort::BitVec(64));
        let v = bank.mk_var("v", Sort::BitVec(8));
        let m2 = bank.mk_store(mem, i, v);
        let read = bank.mk_select(m2, j);
        let goal = bank.mk_eq(read, v);
        let lowered = lower(&mut bank, &[goal], 1_000_000).expect("within budget");
        // The rewritten assertion must not mention Select/Store.
        for &a in &lowered.assertions {
            assert!(!mentions_memory_ops(&bank, a), "{}", bank.display(a));
        }
    }

    fn mentions_memory_ops(bank: &TermBank, root: TermId) -> bool {
        let mut stack = vec![root];
        let mut seen = std::collections::HashSet::new();
        while let Some(t) = stack.pop() {
            if !seen.insert(t) {
                continue;
            }
            match bank.node(t).op {
                Op::Select | Op::Store => return true,
                _ => {}
            }
            stack.extend(bank.node(t).args.iter().copied());
        }
        false
    }

    #[test]
    fn ackermann_constraints_generated_for_shared_base() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let j = bank.mk_var("j", Sort::BitVec(64));
        let ri = bank.mk_select(mem, i);
        let rj = bank.mk_select(mem, j);
        let ne = bank.mk_ne(ri, rj);
        let lowered = lower(&mut bank, &[ne], 1_000_000).expect("within budget");
        assert_eq!(lowered.side_conditions.len(), 1, "one pair of reads, one constraint");
    }

    #[test]
    fn incremental_ackermann_emits_only_new_pairs() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let idx: Vec<TermId> =
            (0..3).map(|k| bank.mk_var(&format!("i{k}"), Sort::BitVec(64))).collect();
        let reads: Vec<TermId> = idx.iter().map(|&i| bank.mk_select(mem, i)).collect();
        let zero = bank.mk_bv(8, 0);

        let mut lw = Lowerer::new();
        let g0 = bank.mk_eq(reads[0], zero);
        let g1 = bank.mk_eq(reads[1], zero);
        let first = lw.lower_incremental(&mut bank, &[g0, g1], 1_000_000).expect("within budget");
        assert_eq!(first.side_conditions.len(), 1, "two reads → one pair");

        // Re-lowering the same assertions introduces no reads and no pairs.
        let again = lw.lower_incremental(&mut bank, &[g0, g1], 1_000_000).expect("within budget");
        assert!(again.side_conditions.is_empty(), "no new reads, no new pairs");
        assert!(lw.cache_hits() > 0, "memo must have been reused");

        // A third read pairs against both existing ones.
        let g2 = bank.mk_eq(reads[2], zero);
        let third = lw.lower_incremental(&mut bank, &[g2], 1_000_000).expect("within budget");
        assert_eq!(third.side_conditions.len(), 2, "new read pairs with both old reads");

        // Cumulative pairs match the one-shot closure over all three goals.
        let oneshot = lower(&mut bank, &[g0, g1, g2], 1_000_000).expect("within budget");
        assert_eq!(
            first.side_conditions.len() + third.side_conditions.len(),
            oneshot.side_conditions.len()
        );
    }

    #[test]
    fn budget_exceeded_reported() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let mut chain = mem;
        for k in 0..100u64 {
            let idx = bank.mk_var(&format!("i{k}"), Sort::BitVec(64));
            let v = bank.mk_bv(8, k as u128);
            chain = bank.mk_store(chain, idx, v);
        }
        let probe = bank.mk_var("p", Sort::BitVec(64));
        let read = bank.mk_select(chain, probe);
        let zero = bank.mk_bv(8, 0);
        let goal = bank.mk_eq(read, zero);
        let err = lower(&mut bank, &[goal], 10).expect_err("tiny budget must trip");
        assert!(err.terms > 10);
    }

    #[test]
    fn lowered_select_evaluates_correctly() {
        // Semantic check: lowering preserves evaluation on a store chain
        // with symbolic indices resolved by the assignment.
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let v = bank.mk_bv(8, 0xaa);
        let m2 = bank.mk_store(mem, i, v);
        let j = bank.mk_var("j", Sort::BitVec(64));
        let read = bank.mk_select(m2, j);
        let expect = bank.mk_eq(read, v);

        let mut asg = Assignment::new();
        asg.set_named(&mut bank, "i", Sort::BitVec(64), Value::bv(64, 5));
        asg.set_named(&mut bank, "j", Sort::BitVec(64), Value::bv(64, 5));
        assert_eq!(eval(&bank, expect, &asg), Value::Bool(true));

        let lowered = lower(&mut bank, &[expect], 1_000_000).expect("within budget");
        // With i = j the ite collapses to the written value under the same
        // assignment (the fresh read var is irrelevant on this path).
        assert_eq!(eval(&bank, lowered.assertions[0], &asg), Value::Bool(true));
    }
}
