//! Saturating rewrite normalization of obligations.
//!
//! The [`TermBank`] constructors already perform *local* peepholes (constant
//! folding, neutral/annihilator elements, canonical commutative order —
//! see [`crate::term`]); this module is the saturating layer above them. A
//! [`Rewriter`] walks an obligation bottom-up over the hash-consed DAG,
//! rebuilds every node through the smart constructors (so the constructor
//! peepholes re-fire whenever rewriting makes children collide), and then
//! applies a table of rule families to each node to a capped fixpoint:
//!
//! * **const-fold** — folding beyond constructor reach: distributing an
//!   all-but-one-constant operator through a constant-branched `ite`, and
//!   narrowing constants under `extract` (shift-by-constant, masked
//!   and/or/xor, complement).
//! * **algebraic** — identity/absorption/annihilator laws the binary
//!   constructors cannot see: `x & ¬x`, `x | (x & y)`, n-ary boolean
//!   absorption, `0 - x`, shifts of zero, unsigned/signed comparison
//!   bounds, multiplication by a power of two.
//! * **cancel** — cancellation through one level of structure:
//!   `a ⊕ (a ⊕ b)`, `(x + y) - x`, `x = x + y`, `a = ¬a`.
//! * **width** — extension/extraction/concatenation collapsing:
//!   `sext∘sext`, `sext∘zext`, extracts spanning an extension or
//!   concatenation boundary, concatenation of adjacent slices.
//! * **memory** — store-chain collapsing beyond the constructor rules:
//!   the redundant store `store(m, a, select(m, a)) → m`.
//! * **ite** — condition/branch simplification on interned (bitvector or
//!   memory sorted) `ite` nodes: same-condition nesting, shared-branch
//!   merging through `∧`/`∨`.
//!
//! Every rule is a pure `fn(&mut TermBank, TermId) -> Option<TermId>`
//! registered in `RULES`; a rule must return a term *equivalent* to its
//! input and should only fire when the result is smaller or strictly more
//! canonical, so the per-node iteration cap is a backstop, not the
//! termination argument. Results are memoized in a dense table indexed by
//! [`TermId`] (sound because banks are append-only, the same contract the
//! fingerprint [`crate::fingerprint::ShapeMemo`] relies on), and the walk
//! polls the supervisor's [`CancelToken`] so a runaway obligation stays
//! responsive to deadlines.
//!
//! Normalization runs on every obligation *before*
//! [`crate::fingerprint`] canonicalization and before lowering and
//! bit-blasting, which is why [`crate::obcache::SEMANTICS_REVISION`] was
//! bumped with its introduction: persisted verdict stores written by a
//! pre-rewrite binary key obligations by un-normalized fingerprints and
//! must be invalidated wholesale, never mixed.

use std::collections::HashSet;

use keq_trace::metrics::{counter_add, CounterId};

use crate::cancel::{stop_requested, CancelToken};
use crate::sort::mask;
use crate::stamps;
use crate::term::{Op, TermBank, TermId};

/// Cap on full top-down passes over one root. Each pass re-walks only what
/// the previous pass changed (everything else memo-hits), so the fixpoint
/// usually lands in one or two passes; the cap bounds pathological inputs.
pub const MAX_PASSES: u32 = 8;

/// Cap on rule applications to a single node between memoizations.
const MAX_RULE_ITERS: u32 = 12;

/// Nodes visited between cancellation polls.
const POLL_INTERVAL: u64 = 1024;

/// The rule families, used to attribute fired-rule counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFamily {
    /// Constant folding beyond constructor reach.
    ConstFold,
    /// Identity/absorption/annihilator laws.
    Algebraic,
    /// Cancellation through one level of structure.
    Cancel,
    /// Extension/extraction/concatenation collapsing.
    Width,
    /// Store-chain collapsing.
    Memory,
    /// `ite` condition/branch simplification.
    Ite,
}

impl RuleFamily {
    /// Every family, in reporting order.
    pub const ALL: [RuleFamily; 6] = [
        RuleFamily::ConstFold,
        RuleFamily::Algebraic,
        RuleFamily::Cancel,
        RuleFamily::Width,
        RuleFamily::Memory,
        RuleFamily::Ite,
    ];

    /// Stable short name for reports and dashboards.
    pub fn name(self) -> &'static str {
        match self {
            RuleFamily::ConstFold => "const_fold",
            RuleFamily::Algebraic => "algebraic",
            RuleFamily::Cancel => "cancel",
            RuleFamily::Width => "width",
            RuleFamily::Memory => "memory",
            RuleFamily::Ite => "ite",
        }
    }

    /// The metrics-registry counter this family reports into.
    fn counter(self) -> CounterId {
        match self {
            RuleFamily::ConstFold => CounterId::RewriteConstFold,
            RuleFamily::Algebraic => CounterId::RewriteAlgebraic,
            RuleFamily::Cancel => CounterId::RewriteCancel,
            RuleFamily::Width => CounterId::RewriteWidth,
            RuleFamily::Memory => CounterId::RewriteMemory,
            RuleFamily::Ite => CounterId::RewriteIte,
        }
    }
}

/// Counters for one normalization (or the running total of a [`Rewriter`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Rules fired, indexed by [`RuleFamily`] discriminant.
    pub fired: [u64; RuleFamily::ALL.len()],
    /// Top-down passes run (per root; memo-hit passes included).
    pub passes: u64,
    /// Reachable DAG nodes over the roots before rewriting.
    pub nodes_before: u64,
    /// Reachable DAG nodes over the rewritten roots.
    pub nodes_after: u64,
}

impl RewriteStats {
    /// Total rules fired across all families.
    pub fn total_fired(&self) -> u64 {
        self.fired.iter().sum()
    }

    /// Node shrinkage. Saturates at zero: width-splitting rules (e.g. an
    /// extract across a concat seam) may add a node or two of DAG while
    /// narrowing the widths the blaster later pays for, so a normalization
    /// can come out slightly larger by node count.
    pub fn nodes_saved(&self) -> u64 {
        self.nodes_before.saturating_sub(self.nodes_after)
    }

    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &RewriteStats) {
        for (mine, theirs) in self.fired.iter_mut().zip(other.fired) {
            *mine += theirs;
        }
        self.passes += other.passes;
        self.nodes_before += other.nodes_before;
        self.nodes_after += other.nodes_after;
    }
}

/// Rewritten form of each bank node the rewriter has finished, indexed by
/// [`TermId`]: one `u32` per bank node instead of a hashed map entry per
/// rewritten node.
#[derive(Debug, Clone, Default)]
struct Memo(Vec<u32>);

impl Memo {
    /// Marks a node with no memoized rewrite.
    const NONE: u32 = u32::MAX;

    fn get(&self, t: TermId) -> Option<TermId> {
        match self.0.get(t.index()) {
            Some(&r) if r != Self::NONE => Some(TermId(r)),
            _ => None,
        }
    }

    fn contains(&self, t: TermId) -> bool {
        self.get(t).is_some()
    }

    /// Sizes the table for a bank of `len` nodes.
    fn grow(&mut self, len: usize) {
        if self.0.len() < len {
            self.0.resize(len, Self::NONE);
        }
    }

    fn insert(&mut self, t: TermId, r: TermId) {
        self.0[t.index()] = r.0;
    }

    fn remove(&mut self, t: TermId) {
        if let Some(r) = self.0.get_mut(t.index()) {
            *r = Self::NONE;
        }
    }
}

/// The saturating normalizer. One lives inside each
/// [`Solver`](crate::solver::Solver); its memo is keyed by [`TermId`] and
/// therefore only valid against one bank at a time, the same per-bank
/// contract the solver's fingerprint memo already imposes.
#[derive(Debug, Clone, Default)]
pub struct Rewriter {
    memo: Memo,
    stats: RewriteStats,
    visited: u64,
    /// The stack of [`dag_size`](Self::dag_size)'s walk.
    count_stack: Vec<TermId>,
}

impl Rewriter {
    /// A fresh rewriter with an empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative statistics across all [`normalize`](Self::normalize) calls.
    pub fn stats(&self) -> RewriteStats {
        self.stats
    }

    /// Drops the memo (required when switching term banks).
    pub fn clear(&mut self) {
        self.memo.0.clear();
    }

    /// Normalizes `roots` to fixpoint, returning the rewritten roots and
    /// this call's counter delta. Returns `None` if the supervisor
    /// cancelled mid-walk (the partial memo stays valid either way).
    pub fn normalize(
        &mut self,
        bank: &mut TermBank,
        roots: &[TermId],
        cancel: Option<&CancelToken>,
    ) -> Option<(Vec<TermId>, RewriteStats)> {
        let mut delta = RewriteStats::default();
        if roots.is_empty() {
            return Some((Vec::new(), delta));
        }
        delta.nodes_before = self.dag_size(bank, roots);
        let mut out = Vec::with_capacity(roots.len());
        let mut changed = false;
        for &root in roots {
            let mut cur = root;
            for _ in 0..MAX_PASSES {
                delta.passes += 1;
                let next = self.rewrite_term(bank, cur, cancel, &mut delta)?;
                if next == cur {
                    break;
                }
                // The pass changed the root: un-memoize it so the next pass
                // descends into freshly built subterms instead of stopping
                // at the stale mapping.
                self.memo.remove(cur);
                cur = next;
            }
            changed |= cur != root;
            out.push(cur);
        }
        delta.nodes_after = if changed { self.dag_size(bank, &out) } else { delta.nodes_before };
        for family in RuleFamily::ALL {
            counter_add(family.counter(), delta.fired[family as usize]);
        }
        counter_add(CounterId::RewritePasses, delta.passes);
        counter_add(CounterId::RewriteNodesSaved, delta.nodes_saved());
        self.stats.merge(&delta);
        Some((out, delta))
    }

    /// One bottom-up pass over `root` (memoized subterms are not
    /// re-visited). Returns `None` on cancellation.
    fn rewrite_term(
        &mut self,
        bank: &mut TermBank,
        root: TermId,
        cancel: Option<&CancelToken>,
        delta: &mut RewriteStats,
    ) -> Option<TermId> {
        enum Frame {
            Enter(TermId),
            Exit(TermId),
        }
        self.memo.grow(bank.len());
        if let Some(r) = self.memo.get(root) {
            return Some(r);
        }
        // Iterative post-order: a store chain or ite ladder can be deep
        // enough to overflow the thread stack under recursion.
        let mut stack = vec![Frame::Enter(root)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(t) => {
                    if self.memo.contains(t) {
                        continue;
                    }
                    self.visited += 1;
                    if self.visited.is_multiple_of(POLL_INTERVAL)
                        && stop_requested(None, cancel).is_some()
                    {
                        return None;
                    }
                    stack.push(Frame::Exit(t));
                    for i in 0..bank.node(t).args.len() {
                        let a = bank.node(t).args[i];
                        if !self.memo.contains(a) {
                            stack.push(Frame::Enter(a));
                        }
                    }
                }
                Frame::Exit(t) => {
                    let mut cur = rebuild(bank, t, &self.memo);
                    for _ in 0..MAX_RULE_ITERS {
                        match apply_rules(bank, cur, delta) {
                            Some(next) if next != cur => cur = next,
                            _ => break,
                        }
                    }
                    self.memo.insert(t, cur);
                }
            }
        }
        Some(self.memo.get(root).expect("the walk memoizes its root"))
    }

    /// Counts the distinct term nodes reachable from `roots`.
    fn dag_size(&mut self, bank: &TermBank, roots: &[TermId]) -> u64 {
        let stack = &mut self.count_stack;
        stack.clear();
        stack.extend_from_slice(roots);
        stamps::walk(bank.len(), |counted| {
            let mut n = 0;
            while let Some(t) = stack.pop() {
                if !counted.insert(t) {
                    continue;
                }
                n += 1;
                for &a in &bank.node(t).args {
                    if !counted.contains(a) {
                        stack.push(a);
                    }
                }
            }
            n
        })
    }
}

/// Re-interns `t` with its arguments replaced by their memoized rewrites,
/// going through the smart constructors so their peepholes re-fire.
fn rebuild(bank: &mut TermBank, t: TermId, memo: &Memo) -> TermId {
    let node = bank.node(t);
    if node.args.iter().all(|&a| memo.get(a).is_none_or(|r| r == a)) {
        return t;
    }
    let op = node.op;
    let args: Vec<TermId> = node.args.iter().map(|&a| memo.get(a).unwrap_or(a)).collect();
    apply_op(bank, op, &args)
}

/// Builds `op(args)` through the corresponding smart constructor.
fn apply_op(bank: &mut TermBank, op: Op, args: &[TermId]) -> TermId {
    match op {
        Op::BoolConst(_) | Op::BvConst { .. } | Op::Var(_) => {
            unreachable!("leaves are never rebuilt")
        }
        Op::Not => bank.mk_not(args[0]),
        Op::And => bank.mk_and(args.iter().copied()),
        Op::Or => bank.mk_or(args.iter().copied()),
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
        Op::BvSdiv => bank.mk_bvsdiv(args[0], args[1]),
        Op::BvSrem => bank.mk_bvsrem(args[0], args[1]),
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
        Op::Select => bank.mk_select(args[0], args[1]),
        Op::Store => bank.mk_store(args[0], args[1], args[2]),
    }
}

/// A rewrite rule: returns a replacement equivalent to the input, or
/// `None` when it does not apply. Rules see nodes whose children are
/// already normalized.
type Rule = fn(&mut TermBank, TermId) -> Option<TermId>;

/// The rule table, applied in order; the first rule that changes the term
/// wins the iteration.
const RULES: &[(RuleFamily, Rule)] = &[
    (RuleFamily::ConstFold, fold_through_ite),
    (RuleFamily::ConstFold, fold_under_extract),
    (RuleFamily::Cancel, cancel_laws),
    (RuleFamily::Algebraic, algebraic_laws),
    (RuleFamily::Width, width_laws),
    (RuleFamily::Memory, memory_laws),
    (RuleFamily::Ite, ite_laws),
];

fn apply_rules(bank: &mut TermBank, t: TermId, delta: &mut RewriteStats) -> Option<TermId> {
    for &(family, rule) in RULES {
        if let Some(next) = rule(bank, t) {
            if next != t {
                delta.fired[family as usize] += 1;
                return Some(next);
            }
        }
    }
    None
}

fn node_op(bank: &TermBank, t: TermId) -> Op {
    bank.node(t).op
}

fn arg(bank: &TermBank, t: TermId, i: usize) -> TermId {
    bank.node(t).args[i]
}

/// `op(…, ite(c, k₁, k₂), …)` with every other operand constant →
/// `ite(c, op(…k₁…), op(…k₂…))`; both branches fold to constants in the
/// constructors, so the operator node disappears entirely. Covers shapes
/// like `ite(c, 3, 7) + 1` and `ite(c, 3, 7) = 3` (the latter collapses to
/// `c` through the boolean `ite` encoding).
fn fold_through_ite(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    let (op, args) = {
        let node = bank.node(t);
        (node.op, node.args.clone())
    };
    let eligible = matches!(
        op,
        Op::BvNot
            | Op::BvNeg
            | Op::BvAdd
            | Op::BvSub
            | Op::BvMul
            | Op::BvUdiv
            | Op::BvUrem
            | Op::BvSdiv
            | Op::BvSrem
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor
            | Op::BvShl
            | Op::BvLshr
            | Op::BvAshr
            | Op::BvUlt
            | Op::BvUle
            | Op::BvSlt
            | Op::BvSle
            | Op::Eq
            | Op::ZeroExt(_)
            | Op::SignExt(_)
            | Op::Extract { .. }
    );
    if !eligible {
        return None;
    }
    let mut ite_pos = None;
    for (i, &a) in args.iter().enumerate() {
        if node_op(bank, a) == Op::Ite
            && bank.as_bv_const(arg(bank, a, 1)).is_some()
            && bank.as_bv_const(arg(bank, a, 2)).is_some()
        {
            if ite_pos.is_some() {
                return None; // two ite operands: distributing would duplicate
            }
            ite_pos = Some(i);
        } else if bank.as_bv_const(a).is_none() {
            return None;
        }
    }
    let i = ite_pos?;
    let ite = args[i];
    let (c, k1, k2) = (arg(bank, ite, 0), arg(bank, ite, 1), arg(bank, ite, 2));
    let mut then_args = args.clone();
    then_args[i] = k1;
    let mut else_args = args;
    else_args[i] = k2;
    let then_v = apply_op(bank, op, &then_args);
    let else_v = apply_op(bank, op, &else_args);
    Some(bank.mk_ite(c, then_v, else_v))
}

/// Narrows constants under an `extract`: shifts by a constant become
/// re-indexed extracts (or vanish), and a slice of a masked/or'd/xor'd
/// constant whose bits are all-zero or all-one folds away; `extract` also
/// commutes with `bvnot` so the complement sinks below the slice.
fn fold_under_extract(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    let Op::Extract { hi, lo } = node_op(bank, t) else {
        return None;
    };
    let a = arg(bank, t, 0);
    let new_w = hi - lo + 1;
    match node_op(bank, a) {
        Op::BvShl => {
            let x = arg(bank, a, 0);
            let (_, k) = bank.as_bv_const(arg(bank, a, 1))?;
            let w = bank.width(a);
            if k >= u128::from(w) || u128::from(hi) < k {
                return Some(bank.mk_bv(new_w, 0));
            }
            let k = k as u32;
            if lo >= k {
                return Some(bank.mk_extract(x, hi - k, lo - k));
            }
            None
        }
        Op::BvLshr => {
            let x = arg(bank, a, 0);
            let (_, k) = bank.as_bv_const(arg(bank, a, 1))?;
            let w = bank.width(a);
            if k >= u128::from(w) || u128::from(lo) + k >= u128::from(w) {
                return Some(bank.mk_bv(new_w, 0));
            }
            let k = k as u32;
            if hi + k < w {
                return Some(bank.mk_extract(x, hi + k, lo + k));
            }
            None
        }
        Op::BvAnd | Op::BvOr | Op::BvXor => {
            let (p, q) = (arg(bank, a, 0), arg(bank, a, 1));
            let (c, x) = match (bank.as_bv_const(p), bank.as_bv_const(q)) {
                (Some((_, c)), None) => (c, q),
                (None, Some((_, c))) => (c, p),
                _ => return None,
            };
            let slice = mask(new_w, c >> lo);
            let ones = mask(new_w, u128::MAX);
            match node_op(bank, a) {
                Op::BvAnd if slice == 0 => Some(bank.mk_bv(new_w, 0)),
                Op::BvAnd if slice == ones => Some(bank.mk_extract(x, hi, lo)),
                Op::BvOr if slice == ones => Some(bank.mk_bv(new_w, ones)),
                Op::BvOr if slice == 0 => Some(bank.mk_extract(x, hi, lo)),
                Op::BvXor if slice == 0 => Some(bank.mk_extract(x, hi, lo)),
                Op::BvXor if slice == ones => {
                    let e = bank.mk_extract(x, hi, lo);
                    Some(bank.mk_bvnot(e))
                }
                _ => None,
            }
        }
        Op::BvNot => {
            let x = arg(bank, a, 0);
            let e = bank.mk_extract(x, hi, lo);
            Some(bank.mk_bvnot(e))
        }
        _ => None,
    }
}

/// Cancellation through one level of structure: xor self-cancellation
/// under nesting, add/sub inverses, and trivially-false equalities.
fn cancel_laws(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    let op = node_op(bank, t);
    match op {
        Op::Xor => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            // a ⊕ (a ⊕ b) → b (either nesting side).
            for (outer, nested) in [(a, b), (b, a)] {
                if node_op(bank, nested) == Op::Xor {
                    let (p, q) = (arg(bank, nested, 0), arg(bank, nested, 1));
                    if p == outer {
                        return Some(q);
                    }
                    if q == outer {
                        return Some(p);
                    }
                }
            }
            // a ⊕ ¬a → true.
            for (x, y) in [(a, b), (b, a)] {
                if node_op(bank, y) == Op::Not && arg(bank, y, 0) == x {
                    return Some(bank.mk_true());
                }
            }
            None
        }
        Op::BvXor => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(t);
            for (outer, nested) in [(a, b), (b, a)] {
                if node_op(bank, nested) == Op::BvXor {
                    let (p, q) = (arg(bank, nested, 0), arg(bank, nested, 1));
                    if p == outer {
                        return Some(q);
                    }
                    if q == outer {
                        return Some(p);
                    }
                }
            }
            for (x, y) in [(a, b), (b, a)] {
                if node_op(bank, y) == Op::BvNot && arg(bank, y, 0) == x {
                    return Some(bank.mk_bv(w, mask(w, u128::MAX)));
                }
            }
            None
        }
        Op::BvSub => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            // (x + y) - x → y.
            if node_op(bank, a) == Op::BvAdd {
                let (p, q) = (arg(bank, a, 0), arg(bank, a, 1));
                if p == b {
                    return Some(q);
                }
                if q == b {
                    return Some(p);
                }
            }
            // x - (x + y) → -y.
            if node_op(bank, b) == Op::BvAdd {
                let (p, q) = (arg(bank, b, 0), arg(bank, b, 1));
                if p == a {
                    return Some(bank.mk_bvneg(q));
                }
                if q == a {
                    return Some(bank.mk_bvneg(p));
                }
            }
            None
        }
        Op::BvAdd => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(t);
            // (x - y) + y → x.
            for (s, other) in [(a, b), (b, a)] {
                if node_op(bank, s) == Op::BvSub && arg(bank, s, 1) == other {
                    return Some(arg(bank, s, 0));
                }
            }
            // x + (-x) → 0.
            for (x, y) in [(a, b), (b, a)] {
                if node_op(bank, y) == Op::BvNeg && arg(bank, y, 0) == x {
                    return Some(bank.mk_bv(w, 0));
                }
            }
            None
        }
        Op::Eq => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            // a = ¬a (bool or bv) → false.
            for (x, y) in [(a, b), (b, a)] {
                let yop = node_op(bank, y);
                if (yop == Op::Not || yop == Op::BvNot) && arg(bank, y, 0) == x {
                    return Some(bank.mk_false());
                }
            }
            // x = x + y ⟺ y = 0; x = x - y ⟺ y = 0.
            for (x, y) in [(a, b), (b, a)] {
                match node_op(bank, y) {
                    Op::BvAdd => {
                        let (p, q) = (arg(bank, y, 0), arg(bank, y, 1));
                        let rest = if p == x {
                            Some(q)
                        } else if q == x {
                            Some(p)
                        } else {
                            None
                        };
                        if let Some(rest) = rest {
                            let w = bank.width(rest);
                            let zero = bank.mk_bv(w, 0);
                            return Some(bank.mk_eq(rest, zero));
                        }
                    }
                    Op::BvSub if arg(bank, y, 0) == x => {
                        let rest = arg(bank, y, 1);
                        let w = bank.width(rest);
                        let zero = bank.mk_bv(w, 0);
                        return Some(bank.mk_eq(rest, zero));
                    }
                    _ => {}
                }
            }
            None
        }
        _ => None,
    }
}

/// Identity/absorption/annihilator laws beyond the binary constructors.
fn algebraic_laws(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    let op = node_op(bank, t);
    match op {
        Op::BvAnd | Op::BvOr => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(t);
            // x & ¬x → 0; x | ¬x → ones.
            for (x, y) in [(a, b), (b, a)] {
                if node_op(bank, y) == Op::BvNot && arg(bank, y, 0) == x {
                    return Some(if op == Op::BvAnd {
                        bank.mk_bv(w, 0)
                    } else {
                        bank.mk_bv(w, mask(w, u128::MAX))
                    });
                }
            }
            // Absorption: x & (x | y) → x; x | (x & y) → x.
            let dual = if op == Op::BvAnd { Op::BvOr } else { Op::BvAnd };
            for (x, y) in [(a, b), (b, a)] {
                if node_op(bank, y) == dual && (arg(bank, y, 0) == x || arg(bank, y, 1) == x) {
                    return Some(x);
                }
            }
            None
        }
        Op::And | Op::Or => {
            // N-ary boolean absorption: drop any dual-operator argument
            // that contains another argument of this node.
            let args = bank.node(t).args.clone();
            let present: HashSet<TermId> = args.iter().copied().collect();
            let dual = if op == Op::And { Op::Or } else { Op::And };
            let retained: Vec<TermId> = args
                .iter()
                .copied()
                .filter(|&a| {
                    !(node_op(bank, a) == dual
                        && bank
                            .node(a)
                            .args
                            .iter()
                            .any(|inner| *inner != a && present.contains(inner)))
                })
                .collect();
            if retained.len() == args.len() {
                return None;
            }
            Some(if op == Op::And {
                bank.mk_and(retained)
            } else {
                bank.mk_or(retained)
            })
        }
        Op::BvSub => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            // 0 - x → -x (folds double negation via the constructor).
            if let Some((_, 0)) = bank.as_bv_const(a) {
                return Some(bank.mk_bvneg(b));
            }
            None
        }
        Op::BvShl | Op::BvLshr | Op::BvAshr => {
            let a = arg(bank, t, 0);
            let w = bank.width(t);
            if let Some((_, 0)) = bank.as_bv_const(a) {
                return Some(bank.mk_bv(w, 0));
            }
            None
        }
        Op::BvUlt => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(a);
            if let Some((_, 0)) = bank.as_bv_const(b) {
                return Some(bank.mk_false()); // x <u 0
            }
            if bank.as_bv_const(a) == Some((w, mask(w, u128::MAX))) {
                return Some(bank.mk_false()); // ones <u x
            }
            None
        }
        Op::BvUle => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(a);
            if let Some((_, 0)) = bank.as_bv_const(a) {
                return Some(bank.mk_true()); // 0 <=u x
            }
            if bank.as_bv_const(b) == Some((w, mask(w, u128::MAX))) {
                return Some(bank.mk_true()); // x <=u ones
            }
            None
        }
        Op::BvSlt => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(a);
            let min_signed = 1u128 << (w - 1);
            let max_signed = mask(w, u128::MAX) >> 1;
            if bank.as_bv_const(b) == Some((w, min_signed)) {
                return Some(bank.mk_false()); // x <s INT_MIN
            }
            if bank.as_bv_const(a) == Some((w, max_signed)) {
                return Some(bank.mk_false()); // INT_MAX <s x
            }
            None
        }
        Op::BvSle => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(a);
            let min_signed = 1u128 << (w - 1);
            let max_signed = mask(w, u128::MAX) >> 1;
            if bank.as_bv_const(a) == Some((w, min_signed)) {
                return Some(bank.mk_true()); // INT_MIN <=s x
            }
            if bank.as_bv_const(b) == Some((w, max_signed)) {
                return Some(bank.mk_true()); // x <=s INT_MAX
            }
            None
        }
        Op::BvMul => {
            let (a, b) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(t);
            // x * 2^k → x << k (strength reduction; k = 0/1 constants are
            // already folded by the constructor).
            for (x, y) in [(a, b), (b, a)] {
                if let Some((_, v)) = bank.as_bv_const(y) {
                    if v.is_power_of_two() {
                        let k = bank.mk_bv(w, u128::from(v.trailing_zeros()));
                        return Some(bank.mk_bvshl(x, k));
                    }
                }
            }
            None
        }
        _ => None,
    }
}

/// Extension/extraction/concatenation collapsing.
fn width_laws(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    match node_op(bank, t) {
        Op::SignExt(to) => {
            let a = arg(bank, t, 0);
            match node_op(bank, a) {
                // sext(sext(x)) → sext(x); sext(zext(x)) → zext(x) — the
                // inner zero-extension pins the intermediate sign bit to 0.
                Op::SignExt(_) => Some(bank.mk_sext(arg(bank, a, 0), to)),
                Op::ZeroExt(_) => Some(bank.mk_zext(arg(bank, a, 0), to)),
                _ => None,
            }
        }
        Op::Extract { hi, lo } => {
            let a = arg(bank, t, 0);
            let new_w = hi - lo + 1;
            match node_op(bank, a) {
                Op::SignExt(_) => {
                    let inner = arg(bank, a, 0);
                    let iw = bank.width(inner);
                    if lo >= iw {
                        // Pure sign-replication range: replicate the top bit.
                        let sign = bank.mk_extract(inner, iw - 1, iw - 1);
                        Some(bank.mk_sext(sign, new_w))
                    } else if hi >= iw {
                        // Spans the boundary: extend the surviving low part.
                        let part = bank.mk_extract(inner, iw - 1, lo);
                        Some(bank.mk_sext(part, new_w))
                    } else {
                        None // entirely inside: constructor already handled
                    }
                }
                Op::ZeroExt(_) => {
                    let inner = arg(bank, a, 0);
                    let iw = bank.width(inner);
                    if lo < iw && hi >= iw {
                        let part = bank.mk_extract(inner, iw - 1, lo);
                        Some(bank.mk_zext(part, new_w))
                    } else {
                        None
                    }
                }
                Op::Concat => {
                    let (hi_part, lo_part) = (arg(bank, a, 0), arg(bank, a, 1));
                    let wl = bank.width(lo_part);
                    if lo < wl && hi >= wl {
                        // Spans the seam: slice each side and re-join.
                        let top = bank.mk_extract(hi_part, hi - wl, 0);
                        let bot = bank.mk_extract(lo_part, wl - 1, lo);
                        Some(bank.mk_concat(top, bot))
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
        Op::Concat => {
            let (h, l) = (arg(bank, t, 0), arg(bank, t, 1));
            let w = bank.width(t);
            // Adjacent slices of one term re-fuse.
            if let (Op::Extract { hi: h1, lo: l1 }, Op::Extract { hi: h2, lo: l2 }) =
                (node_op(bank, h), node_op(bank, l))
            {
                if arg(bank, h, 0) == arg(bank, l, 0) && l1 == h2 + 1 {
                    return Some(bank.mk_extract(arg(bank, h, 0), h1, l2));
                }
            }
            // A zero high half is a zero-extension.
            if let Some((_, 0)) = bank.as_bv_const(h) {
                return Some(bank.mk_zext(l, w));
            }
            None
        }
        _ => None,
    }
}

/// Store-chain collapsing beyond the constructor rules.
fn memory_laws(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    if node_op(bank, t) != Op::Store {
        return None;
    }
    let (m, a, v) = (arg(bank, t, 0), arg(bank, t, 1), arg(bank, t, 2));
    // store(m, a, select(m, a)) → m: writing back what is already there.
    if node_op(bank, v) == Op::Select && arg(bank, v, 0) == m && arg(bank, v, 1) == a {
        return Some(m);
    }
    None
}

/// Condition/branch simplification on interned `ite` nodes (bitvector or
/// memory sorted; boolean ites are encoded through connectives upstream).
fn ite_laws(bank: &mut TermBank, t: TermId) -> Option<TermId> {
    if node_op(bank, t) != Op::Ite {
        return None;
    }
    let (c, tb, eb) = (arg(bank, t, 0), arg(bank, t, 1), arg(bank, t, 2));
    // Same condition nested in a branch: the inner test is decided.
    if node_op(bank, tb) == Op::Ite && arg(bank, tb, 0) == c {
        return Some(bank.mk_ite(c, arg(bank, tb, 1), eb));
    }
    if node_op(bank, eb) == Op::Ite && arg(bank, eb, 0) == c {
        return Some(bank.mk_ite(c, tb, arg(bank, eb, 2)));
    }
    // Shared branch merges through the connectives.
    if node_op(bank, eb) == Op::Ite && arg(bank, eb, 1) == tb {
        // ite(c₁, x, ite(c₂, x, y)) → ite(c₁ ∨ c₂, x, y).
        let cond = bank.mk_or([c, arg(bank, eb, 0)]);
        return Some(bank.mk_ite(cond, tb, arg(bank, eb, 2)));
    }
    if node_op(bank, tb) == Op::Ite && arg(bank, tb, 2) == eb {
        // ite(c₁, ite(c₂, x, y), y) → ite(c₁ ∧ c₂, x, y).
        let cond = bank.mk_and([c, arg(bank, tb, 0)]);
        return Some(bank.mk_ite(cond, arg(bank, tb, 1), eb));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Assignment, Value};
    use crate::sort::Sort;

    fn normalize1(bank: &mut TermBank, t: TermId) -> TermId {
        let mut rw = Rewriter::new();
        let (out, _) = rw.normalize(bank, &[t], None).expect("not cancelled");
        out[0]
    }

    #[test]
    fn node_counts_survive_the_epoch_wrap() {
        // One rewriter across a growing bank while the thread's walk epoch
        // wraps on the first call: the counts must match a fresh
        // rewriter's after the wrap.
        stamps::install(stamps::Stamps::at_epoch(u32::MAX - 1));
        let mut bank = TermBank::new();
        let mut shared = Rewriter::new();
        let (mut calls, mut acc) = (Vec::new(), bank.mk_var("x0", Sort::BitVec(8)));
        for i in 1..5u32 {
            let x = bank.mk_var(&format!("x{i}"), Sort::BitVec(8));
            let c = bank.mk_bv(8, u128::from(i));
            let sum = bank.mk_bvadd(acc, x);
            let back = bank.mk_bvsub(sum, x);
            let roots = [bank.mk_eq(back, c), bank.mk_bvult(sum, c)];
            acc = sum;
            let (_, stats) = shared.normalize(&mut bank, &roots, None).expect("not cancelled");
            assert!(stats.nodes_saved() > 0, "call {i}: (x + y) - y must rewrite");
            calls.push((roots, stats));
        }
        for (i, (roots, stats)) in calls.iter().enumerate() {
            let (_, fresh) =
                Rewriter::new().normalize(&mut bank, roots, None).expect("not cancelled");
            let counts = |s: &RewriteStats| (s.nodes_before, s.nodes_after);
            assert_eq!(counts(stats), counts(&fresh), "call {}", i + 1);
        }
    }

    #[test]
    fn complement_annihilation() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let nx = bank.mk_bvnot(x);
        let and = bank.mk_bvand(x, nx);
        assert_eq!(normalize1(&mut bank, and), bank.mk_bv(8, 0));
        let or = bank.mk_bvor(x, nx);
        assert_eq!(normalize1(&mut bank, or), bank.mk_bv(8, 0xff));
        let xor = bank.mk_bvxor(x, nx);
        assert_eq!(normalize1(&mut bank, xor), bank.mk_bv(8, 0xff));
    }

    #[test]
    fn xor_chain_cancels() {
        let mut bank = TermBank::new();
        let a = bank.mk_var("a", Sort::Bool);
        let b = bank.mk_var("b", Sort::Bool);
        let inner = bank.mk_xor(a, b);
        let outer = bank.mk_xor(a, inner);
        assert_eq!(normalize1(&mut bank, outer), b);
    }

    #[test]
    fn add_sub_cancellation() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(16));
        let y = bank.mk_var("y", Sort::BitVec(16));
        let s = bank.mk_bvadd(x, y);
        let d = bank.mk_bvsub(s, y);
        assert_eq!(normalize1(&mut bank, d), x);
        let d2 = bank.mk_bvsub(s, x);
        assert_eq!(normalize1(&mut bank, d2), y);
        let back = bank.mk_bvsub(x, s);
        let expect = bank.mk_bvneg(y);
        assert_eq!(normalize1(&mut bank, back), expect);
    }

    #[test]
    fn eq_add_shrinks_to_rest_is_zero() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let s = bank.mk_bvadd(x, y);
        let eq = bank.mk_eq(s, x);
        let zero = bank.mk_bv(8, 0);
        let expect = bank.mk_eq(y, zero);
        assert_eq!(normalize1(&mut bank, eq), expect);
    }

    #[test]
    fn fold_through_ite_collapses() {
        let mut bank = TermBank::new();
        let c = bank.mk_var("c", Sort::Bool);
        let k3 = bank.mk_bv(8, 3);
        let k7 = bank.mk_bv(8, 7);
        let ite = bank.mk_ite(c, k3, k7);
        let one = bank.mk_bv(8, 1);
        let sum = bank.mk_bvadd(ite, one);
        let k4 = bank.mk_bv(8, 4);
        let k8 = bank.mk_bv(8, 8);
        let expect = bank.mk_ite(c, k4, k8);
        assert_eq!(normalize1(&mut bank, sum), expect);
        // Comparing against one branch decides by the condition itself.
        let eq = bank.mk_eq(ite, k3);
        assert_eq!(normalize1(&mut bank, eq), c);
    }

    #[test]
    fn extract_through_shift_and_mask() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(32));
        let k8 = bank.mk_bv(32, 8);
        let shifted = bank.mk_bvshl(x, k8);
        let low = bank.mk_extract(shifted, 7, 0);
        assert_eq!(normalize1(&mut bank, low), bank.mk_bv(8, 0));
        let mid = bank.mk_extract(shifted, 15, 8);
        let expect = bank.mk_extract(x, 7, 0);
        assert_eq!(normalize1(&mut bank, mid), expect);
        let mask_c = bank.mk_bv(32, 0x0000_ff00);
        let masked = bank.mk_bvand(x, mask_c);
        let hi = bank.mk_extract(masked, 31, 16);
        assert_eq!(normalize1(&mut bank, hi), bank.mk_bv(16, 0));
        let kept = bank.mk_extract(masked, 15, 8);
        let expect = bank.mk_extract(x, 15, 8);
        assert_eq!(normalize1(&mut bank, kept), expect);
    }

    #[test]
    fn extension_collapsing() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let s16 = bank.mk_sext(x, 16);
        let s32 = bank.mk_sext(s16, 32);
        let expect = bank.mk_sext(x, 32);
        assert_eq!(normalize1(&mut bank, s32), expect);
        let z16 = bank.mk_zext(x, 16);
        let sz = bank.mk_sext(z16, 32);
        let expect = bank.mk_zext(x, 32);
        assert_eq!(normalize1(&mut bank, sz), expect);
    }

    #[test]
    fn concat_of_adjacent_slices_refuses() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(32));
        let top = bank.mk_extract(x, 15, 8);
        let bot = bank.mk_extract(x, 7, 0);
        let joined = bank.mk_concat(top, bot);
        let expect = bank.mk_extract(x, 15, 0);
        assert_eq!(normalize1(&mut bank, joined), expect);
        // Full-width adjacency folds to the term itself.
        let hi = bank.mk_extract(x, 31, 16);
        let lo = bank.mk_extract(x, 15, 0);
        let whole = bank.mk_concat(hi, lo);
        assert_eq!(normalize1(&mut bank, whole), x);
    }

    #[test]
    fn zero_concat_is_zext_and_spanning_extract_splits() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let zero = bank.mk_bv(8, 0);
        let cat = bank.mk_concat(zero, x);
        let expect = bank.mk_zext(x, 16);
        assert_eq!(normalize1(&mut bank, cat), expect);
        // extract spanning a zext boundary narrows to a zext.
        let z = bank.mk_zext(x, 32);
        let span = bank.mk_extract(z, 11, 4);
        let part = bank.mk_extract(x, 7, 4);
        let expect = bank.mk_zext(part, 8);
        assert_eq!(normalize1(&mut bank, span), expect);
    }

    #[test]
    fn redundant_store_vanishes() {
        let mut bank = TermBank::new();
        let m = bank.mk_var("m", Sort::Memory);
        let a = bank.mk_var("a", Sort::BitVec(64));
        let v = bank.mk_select(m, a);
        let st = bank.mk_store(m, a, v);
        assert_eq!(normalize1(&mut bank, st), m);
    }

    #[test]
    fn nested_ite_same_condition_collapses() {
        let mut bank = TermBank::new();
        let c = bank.mk_var("c", Sort::Bool);
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let z = bank.mk_var("z", Sort::BitVec(8));
        let inner = bank.mk_ite(c, x, y);
        let outer = bank.mk_ite(c, inner, z);
        let expect = bank.mk_ite(c, x, z);
        assert_eq!(normalize1(&mut bank, outer), expect);
    }

    #[test]
    fn shared_branch_ites_merge_conditions() {
        let mut bank = TermBank::new();
        let c1 = bank.mk_var("c1", Sort::Bool);
        let c2 = bank.mk_var("c2", Sort::Bool);
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let inner = bank.mk_ite(c2, x, y);
        let outer = bank.mk_ite(c1, x, inner);
        let cond = bank.mk_or([c1, c2]);
        let expect = bank.mk_ite(cond, x, y);
        assert_eq!(normalize1(&mut bank, outer), expect);
    }

    #[test]
    fn mul_by_power_of_two_becomes_shift() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(32));
        let k8 = bank.mk_bv(32, 8);
        let m = bank.mk_bvmul(x, k8);
        let k3 = bank.mk_bv(32, 3);
        let expect = bank.mk_bvshl(x, k3);
        assert_eq!(normalize1(&mut bank, m), expect);
    }

    #[test]
    fn comparison_bounds_decide() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let zero = bank.mk_bv(8, 0);
        let ones = bank.mk_bv(8, 0xff);
        let lt0 = bank.mk_bvult(x, zero);
        assert_eq!(normalize1(&mut bank, lt0), bank.mk_false());
        let ge0 = bank.mk_bvule(zero, x);
        assert_eq!(normalize1(&mut bank, ge0), bank.mk_true());
        let le_ones = bank.mk_bvule(x, ones);
        assert_eq!(normalize1(&mut bank, le_ones), bank.mk_true());
        let min = bank.mk_bv(8, 0x80);
        let slt_min = bank.mk_bvslt(x, min);
        assert_eq!(normalize1(&mut bank, slt_min), bank.mk_false());
    }

    #[test]
    fn bool_absorption_drops_subsumed_disjuncts() {
        let mut bank = TermBank::new();
        let a = bank.mk_var("a", Sort::Bool);
        let b = bank.mk_var("b", Sort::Bool);
        let c = bank.mk_var("c", Sort::Bool);
        let ab = bank.mk_or([a, b]);
        let both = bank.mk_and([a, ab, c]);
        let expect = bank.mk_and([a, c]);
        assert_eq!(normalize1(&mut bank, both), expect);
    }

    #[test]
    fn stats_count_fired_rules_and_shrinkage() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let nx = bank.mk_bvnot(x);
        let and = bank.mk_bvand(x, nx);
        let y = bank.mk_var("y", Sort::BitVec(8));
        let s = bank.mk_bvadd(y, and);
        let mut rw = Rewriter::new();
        let (out, delta) = rw.normalize(&mut bank, &[s], None).expect("not cancelled");
        assert_eq!(out[0], y);
        assert!(delta.total_fired() >= 1, "fired = {:?}", delta.fired);
        assert!(delta.nodes_saved() >= 1, "before {} after {}", delta.nodes_before, delta.nodes_after);
        assert_eq!(rw.stats(), delta);
    }

    #[test]
    fn cancellation_is_observed() {
        let mut bank = TermBank::new();
        // Build a chain long enough to cross at least one poll interval.
        let mut t = bank.mk_var("x", Sort::BitVec(8));
        for i in 0..3000u128 {
            let k = bank.mk_bv(8, i);
            let m = bank.mk_bvmul(t, t);
            t = bank.mk_bvadd(m, k);
        }
        let token = CancelToken::new();
        token.cancel();
        let mut rw = Rewriter::new();
        assert!(rw.normalize(&mut bank, &[t], Some(&token)).is_none());
    }

    #[test]
    fn rewrites_preserve_concrete_evaluation() {
        // A quick spot-check that the rules agree with the evaluator;
        // the seeded property test in tests/rewrite_prop.rs is the real
        // campaign.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let nx = bank.mk_bvnot(x);
        let t1 = bank.mk_bvor(x, nx);
        let s = bank.mk_bvadd(x, y);
        let t2 = bank.mk_bvsub(s, y);
        let t3 = bank.mk_bvand(t2, t1);
        let n = normalize1(&mut bank, t3);
        let mut asg = Assignment::new();
        asg.set_named(&mut bank, "x", Sort::BitVec(8), Value::bv(8, 0xa5));
        asg.set_named(&mut bank, "y", Sort::BitVec(8), Value::bv(8, 0x3c));
        assert_eq!(eval(&bank, t3, &asg), eval(&bank, n, &asg));
    }
}
