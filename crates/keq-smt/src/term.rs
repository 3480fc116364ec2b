//! Hash-consed term DAG with normalizing smart constructors.
//!
//! All terms live in a [`TermBank`]; a [`TermId`] is an index into it.
//! Structurally identical terms always receive the same id, so syntactic
//! equality checks are O(1) and the solver pipeline can memoize per-term
//! work. Constructors perform light normalization on the fly (constant
//! folding, neutral/annihilator elements, canonical argument order for
//! commutative operators, store-chain canonicalization); heavier reasoning is
//! left to the solver (see [`crate::solver`]).
//!
//! The constructor peepholes only see the node being built, on the shape
//! it is built with. The saturating pass in [`crate::rewrite`] extends
//! them to whole obligations: it re-walks the DAG to fixpoint and rebuilds
//! exclusively through these `mk_*` constructors, so every peephole here
//! re-fires on rewritten children and the two layers compound. Keep new
//! peepholes cheap and local; anything needing a fixpoint or cross-node
//! context belongs in the rewrite rule table instead.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hasher};

use crate::sort::{mask, to_signed, Sort, MAX_WIDTH};

/// Identifier of a term inside a [`TermBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of the term in its bank.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of an uninterpreted variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

/// Term operators.
///
/// Argument sorts are validated by the [`TermBank`] constructors; operators
/// carry only the data that is not recoverable from their arguments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Boolean constant.
    BoolConst(bool),
    /// Bitvector constant (value is already masked to the width).
    BvConst { width: u32, value: u128 },
    /// Uninterpreted variable (name and sort live in the bank's var table).
    Var(VarId),

    // -- Boolean connectives ------------------------------------------------
    /// Logical negation.
    Not,
    /// N-ary conjunction (flattened, deduplicated, sorted).
    And,
    /// N-ary disjunction (flattened, deduplicated, sorted).
    Or,
    /// Binary exclusive or on booleans.
    Xor,
    /// Polymorphic equality (bool/bool or bitvec/bitvec).
    Eq,
    /// If-then-else; the condition is boolean, branches share a sort.
    Ite,

    // -- Bitvector arithmetic ----------------------------------------------
    /// Bitwise complement.
    BvNot,
    /// Two's-complement negation.
    BvNeg,
    /// Addition (binary, commutative).
    BvAdd,
    /// Subtraction.
    BvSub,
    /// Multiplication (binary, commutative).
    BvMul,
    /// Unsigned division (SMT-LIB semantics: `x udiv 0 = all-ones`).
    BvUdiv,
    /// Unsigned remainder (SMT-LIB semantics: `x urem 0 = x`).
    BvUrem,
    /// Signed division (SMT-LIB total semantics).
    BvSdiv,
    /// Signed remainder (SMT-LIB total semantics).
    BvSrem,
    /// Bitwise and.
    BvAnd,
    /// Bitwise or.
    BvOr,
    /// Bitwise xor.
    BvXor,
    /// Logical shift left (`x << k = 0` once `k >= width`).
    BvShl,
    /// Logical shift right.
    BvLshr,
    /// Arithmetic shift right.
    BvAshr,

    // -- Bitvector predicates ------------------------------------------------
    /// Unsigned less-than.
    BvUlt,
    /// Unsigned less-or-equal.
    BvUle,
    /// Signed less-than.
    BvSlt,
    /// Signed less-or-equal.
    BvSle,

    // -- Width changes -------------------------------------------------------
    /// Zero-extension to the given (strictly larger) width.
    ZeroExt(u32),
    /// Sign-extension to the given (strictly larger) width.
    SignExt(u32),
    /// Bit extraction: bits `lo..=hi` (inclusive, LSB-numbered).
    Extract {
        /// Highest extracted bit.
        hi: u32,
        /// Lowest extracted bit.
        lo: u32,
    },
    /// Concatenation: `concat(hi, lo)`, result width is the sum.
    Concat,

    // -- Memory (array theory) -----------------------------------------------
    /// `select(mem, addr)` — read one byte; `addr : BitVec 64`.
    Select,
    /// `store(mem, addr, byte)` — write one byte.
    Store,
}

/// An interned term node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Node {
    /// Operator.
    pub op: Op,
    /// Argument terms.
    pub args: Vec<TermId>,
    /// Result sort.
    pub sort: Sort,
}

/// Hasher for keys that already are hashes: passes the `u64` through.
#[derive(Debug, Default, Clone, Copy)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("only u64 keys are hashed");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// No node older than this one shares its hash.
const NO_OLDER: u32 = u32::MAX;

/// A node's structural hash, the interner's key.
fn node_hash(node: &Node) -> u64 {
    BuildHasherDefault::<DefaultHasher>::default().hash_one(node)
}

/// Arena of hash-consed terms plus the variable table.
///
/// The interner stores no second copy of a node: it maps a node's
/// structural hash to the newest node with that hash, and `older` chains
/// each node to the previous one with the same hash, so a lookup compares
/// against the arena itself.
#[derive(Debug, Default, Clone)]
pub struct TermBank {
    nodes: Vec<Node>,
    by_hash: HashMap<u64, TermId, BuildHasherDefault<Prehashed>>,
    older: Vec<u32>,
    vars: Vec<(String, Sort)>,
    var_names: HashMap<String, VarId>,
    fresh_counter: u64,
}

impl TermBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Looks up the node for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different bank.
    pub fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Sort of a term.
    pub fn sort(&self, id: TermId) -> Sort {
        self.nodes[id.index()].sort
    }

    /// Bitvector width of a term.
    ///
    /// # Panics
    ///
    /// Panics if the term is not a bitvector.
    pub fn width(&self, id: TermId) -> u32 {
        self.sort(id).width().expect("term is not a bitvector")
    }

    /// Name and sort of a variable.
    pub fn var(&self, v: VarId) -> (&str, Sort) {
        let (name, sort) = &self.vars[v.0 as usize];
        (name, *sort)
    }

    /// If `id` is a boolean constant, returns its value.
    pub fn as_bool_const(&self, id: TermId) -> Option<bool> {
        match self.node(id).op {
            Op::BoolConst(b) => Some(b),
            _ => None,
        }
    }

    /// If `id` is a bitvector constant, returns `(width, value)`.
    pub fn as_bv_const(&self, id: TermId) -> Option<(u32, u128)> {
        match self.node(id).op {
            Op::BvConst { width, value } => Some((width, value)),
            _ => None,
        }
    }

    fn intern(&mut self, node: Node) -> TermId {
        let hash = node_hash(&node);
        let newest = self.by_hash.get(&hash).map_or(NO_OLDER, |id| id.0);
        let mut cur = newest;
        while cur != NO_OLDER {
            if self.nodes[cur as usize] == node {
                return TermId(cur);
            }
            cur = self.older[cur as usize];
        }
        let id = TermId(u32::try_from(self.nodes.len()).expect("term bank overflow"));
        self.by_hash.insert(hash, id);
        self.older.push(newest);
        self.nodes.push(node);
        id
    }

    // ---------------------------------------------------------------------
    // Leaves
    // ---------------------------------------------------------------------

    /// The boolean constant `true`.
    pub fn mk_true(&mut self) -> TermId {
        self.intern(Node { op: Op::BoolConst(true), args: vec![], sort: Sort::Bool })
    }

    /// The boolean constant `false`.
    pub fn mk_false(&mut self) -> TermId {
        self.intern(Node { op: Op::BoolConst(false), args: vec![], sort: Sort::Bool })
    }

    /// A boolean constant.
    pub fn mk_bool(&mut self, b: bool) -> TermId {
        if b {
            self.mk_true()
        } else {
            self.mk_false()
        }
    }

    /// A bitvector constant of the given width; `value` is masked.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or exceeds [`MAX_WIDTH`].
    pub fn mk_bv(&mut self, width: u32, value: u128) -> TermId {
        assert!((1..=MAX_WIDTH).contains(&width), "invalid width {width}");
        let value = mask(width, value);
        self.intern(Node {
            op: Op::BvConst { width, value },
            args: vec![],
            sort: Sort::BitVec(width),
        })
    }

    /// Interns (or retrieves) a named variable of the given sort.
    ///
    /// # Panics
    ///
    /// Panics if the name was previously interned at a *different* sort.
    pub fn mk_var(&mut self, name: &str, sort: Sort) -> TermId {
        let vid = match self.var_names.get(name) {
            Some(&vid) => {
                let existing = self.vars[vid.0 as usize].1;
                assert_eq!(
                    existing, sort,
                    "variable {name} re-declared at sort {sort} (was {existing})"
                );
                vid
            }
            None => {
                let vid = VarId(u32::try_from(self.vars.len()).expect("var table overflow"));
                self.vars.push((name.to_owned(), sort));
                self.var_names.insert(name.to_owned(), vid);
                vid
            }
        };
        self.intern(Node { op: Op::Var(vid), args: vec![], sort })
    }

    /// Creates a fresh variable whose name starts with `prefix`.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        loop {
            self.fresh_counter += 1;
            let name = format!("{prefix}!{}", self.fresh_counter);
            if !self.var_names.contains_key(&name) {
                return self.mk_var(&name, sort);
            }
        }
    }

    // ---------------------------------------------------------------------
    // Boolean connectives
    // ---------------------------------------------------------------------

    /// Logical negation.
    pub fn mk_not(&mut self, a: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool());
        match self.node(a).op {
            Op::BoolConst(b) => self.mk_bool(!b),
            Op::Not => self.node(a).args[0],
            _ => self.intern(Node { op: Op::Not, args: vec![a], sort: Sort::Bool }),
        }
    }

    /// N-ary conjunction (flattens, deduplicates, folds constants).
    pub fn mk_and(&mut self, args: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat = Vec::new();
        for a in args {
            debug_assert!(self.sort(a).is_bool());
            match self.node(a).op {
                Op::BoolConst(false) => return self.mk_false(),
                Op::BoolConst(true) => {}
                Op::And => flat.extend(self.node(a).args.iter().copied()),
                _ => flat.push(a),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x → false
        for &t in &flat {
            if let Op::Not = self.node(t).op {
                let inner = self.node(t).args[0];
                if flat.binary_search(&inner).is_ok() {
                    return self.mk_false();
                }
            }
        }
        match flat.len() {
            0 => self.mk_true(),
            1 => flat[0],
            _ => self.intern(Node { op: Op::And, args: flat, sort: Sort::Bool }),
        }
    }

    /// N-ary disjunction (flattens, deduplicates, folds constants).
    pub fn mk_or(&mut self, args: impl IntoIterator<Item = TermId>) -> TermId {
        let mut flat = Vec::new();
        for a in args {
            debug_assert!(self.sort(a).is_bool());
            match self.node(a).op {
                Op::BoolConst(true) => return self.mk_true(),
                Op::BoolConst(false) => {}
                Op::Or => flat.extend(self.node(a).args.iter().copied()),
                _ => flat.push(a),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &t in &flat {
            if let Op::Not = self.node(t).op {
                let inner = self.node(t).args[0];
                if flat.binary_search(&inner).is_ok() {
                    return self.mk_true();
                }
            }
        }
        match flat.len() {
            0 => self.mk_false(),
            1 => flat[0],
            _ => self.intern(Node { op: Op::Or, args: flat, sort: Sort::Bool }),
        }
    }

    /// Implication, normalized to `¬a ∨ b`.
    pub fn mk_implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.mk_not(a);
        self.mk_or([na, b])
    }

    /// Boolean exclusive or.
    pub fn mk_xor(&mut self, a: TermId, b: TermId) -> TermId {
        debug_assert!(self.sort(a).is_bool() && self.sort(b).is_bool());
        if a == b {
            return self.mk_false();
        }
        match (self.as_bool_const(a), self.as_bool_const(b)) {
            (Some(x), Some(y)) => self.mk_bool(x ^ y),
            (Some(false), None) => b,
            (None, Some(false)) => a,
            (Some(true), None) => self.mk_not(b),
            (None, Some(true)) => self.mk_not(a),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node { op: Op::Xor, args: vec![a, b], sort: Sort::Bool })
            }
        }
    }

    /// Equality on booleans or bitvectors.
    ///
    /// # Panics
    ///
    /// Panics if the argument sorts differ or are [`Sort::Memory`]; memory
    /// equality must be stated via footprint obligations (see
    /// `keq-semantics`), never as a single opaque atom.
    pub fn mk_eq(&mut self, a: TermId, b: TermId) -> TermId {
        let sa = self.sort(a);
        let sb = self.sort(b);
        assert_eq!(sa, sb, "mk_eq sort mismatch: {sa} vs {sb}");
        assert!(!sa.is_memory(), "memory equality must use footprint obligations");
        if a == b {
            return self.mk_true();
        }
        if sa.is_bool() {
            match (self.as_bool_const(a), self.as_bool_const(b)) {
                (Some(x), Some(y)) => return self.mk_bool(x == y),
                (Some(true), None) => return b,
                (None, Some(true)) => return a,
                (Some(false), None) => return self.mk_not(b),
                (None, Some(false)) => return self.mk_not(a),
                _ => {}
            }
        } else if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.mk_bool(x == y);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(Node { op: Op::Eq, args: vec![a, b], sort: Sort::Bool })
    }

    /// Disequality, `¬(a = b)`.
    pub fn mk_ne(&mut self, a: TermId, b: TermId) -> TermId {
        let eq = self.mk_eq(a, b);
        self.mk_not(eq)
    }

    /// If-then-else on booleans, bitvectors, or memories.
    pub fn mk_ite(&mut self, c: TermId, t: TermId, e: TermId) -> TermId {
        debug_assert!(self.sort(c).is_bool());
        let st = self.sort(t);
        assert_eq!(st, self.sort(e), "mk_ite branch sort mismatch");
        if t == e {
            return t;
        }
        match self.as_bool_const(c) {
            Some(true) => return t,
            Some(false) => return e,
            None => {}
        }
        // ite(¬c, t, e) → ite(c, e, t)
        if let Op::Not = self.node(c).op {
            let inner = self.node(c).args[0];
            return self.mk_ite(inner, e, t);
        }
        if st.is_bool() {
            // Encode boolean ite through the connectives so the Tseitin
            // transform sees a uniform boolean skeleton.
            match (self.as_bool_const(t), self.as_bool_const(e)) {
                (Some(true), Some(false)) => return c,
                (Some(false), Some(true)) => return self.mk_not(c),
                _ => {}
            }
            let ct = self.mk_and([c, t]);
            let nc = self.mk_not(c);
            let ce = self.mk_and([nc, e]);
            return self.mk_or([ct, ce]);
        }
        self.intern(Node { op: Op::Ite, args: vec![c, t, e], sort: st })
    }

    // ---------------------------------------------------------------------
    // Bitvector operations
    // ---------------------------------------------------------------------

    fn bv_binop_widths(&self, op: Op, a: TermId, b: TermId) -> u32 {
        let wa = self.width(a);
        let wb = self.width(b);
        assert_eq!(wa, wb, "{op:?}: width mismatch {wa} vs {wb}");
        wa
    }

    /// Bitwise complement.
    pub fn mk_bvnot(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        match self.node(a).op {
            Op::BvConst { value, .. } => self.mk_bv(w, !value),
            Op::BvNot => self.node(a).args[0],
            _ => self.intern(Node { op: Op::BvNot, args: vec![a], sort: Sort::BitVec(w) }),
        }
    }

    /// Two's-complement negation.
    pub fn mk_bvneg(&mut self, a: TermId) -> TermId {
        let w = self.width(a);
        match self.node(a).op {
            Op::BvConst { value, .. } => self.mk_bv(w, value.wrapping_neg()),
            Op::BvNeg => self.node(a).args[0],
            _ => self.intern(Node { op: Op::BvNeg, args: vec![a], sort: Sort::BitVec(w) }),
        }
    }

    /// Addition.
    pub fn mk_bvadd(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvAdd, a, b);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, y))) => self.mk_bv(w, x.wrapping_add(y)),
            (Some((_, 0)), None) => b,
            (None, Some((_, 0))) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node { op: Op::BvAdd, args: vec![a, b], sort: Sort::BitVec(w) })
            }
        }
    }

    /// Subtraction.
    pub fn mk_bvsub(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvSub, a, b);
        if a == b {
            return self.mk_bv(w, 0);
        }
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, y))) => self.mk_bv(w, x.wrapping_sub(y)),
            (None, Some((_, 0))) => a,
            _ => self.intern(Node { op: Op::BvSub, args: vec![a, b], sort: Sort::BitVec(w) }),
        }
    }

    /// Multiplication.
    pub fn mk_bvmul(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvMul, a, b);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, y))) => self.mk_bv(w, x.wrapping_mul(y)),
            (Some((_, 0)), _) | (_, Some((_, 0))) => self.mk_bv(w, 0),
            (Some((_, 1)), None) => b,
            (None, Some((_, 1))) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node { op: Op::BvMul, args: vec![a, b], sort: Sort::BitVec(w) })
            }
        }
    }

    /// Unsigned division with SMT-LIB total semantics.
    pub fn mk_bvudiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvUdiv, a, b);
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let r = x.checked_div(y).unwrap_or(mask(w, u128::MAX));
            return self.mk_bv(w, r);
        }
        if let Some((_, 1)) = self.as_bv_const(b) {
            return a;
        }
        self.intern(Node { op: Op::BvUdiv, args: vec![a, b], sort: Sort::BitVec(w) })
    }

    /// Unsigned remainder with SMT-LIB total semantics.
    pub fn mk_bvurem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvUrem, a, b);
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let r = if y == 0 { x } else { x % y };
            return self.mk_bv(w, r);
        }
        if let Some((_, 1)) = self.as_bv_const(b) {
            return self.mk_bv(w, 0);
        }
        self.intern(Node { op: Op::BvUrem, args: vec![a, b], sort: Sort::BitVec(w) })
    }

    /// Signed division with SMT-LIB total semantics.
    pub fn mk_bvsdiv(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvSdiv, a, b);
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let xs = to_signed(w, x);
            let ys = to_signed(w, y);
            let r = if ys == 0 {
                if xs < 0 {
                    1
                } else {
                    -1i128
                }
            } else if xs == i128::MIN && ys == -1 {
                xs
            } else {
                xs.wrapping_div(ys)
            };
            return self.mk_bv(w, r as u128);
        }
        self.intern(Node { op: Op::BvSdiv, args: vec![a, b], sort: Sort::BitVec(w) })
    }

    /// Signed remainder with SMT-LIB total semantics.
    pub fn mk_bvsrem(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvSrem, a, b);
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            let xs = to_signed(w, x);
            let ys = to_signed(w, y);
            let r = if ys == 0 {
                xs
            } else if xs == i128::MIN && ys == -1 {
                0
            } else {
                xs.wrapping_rem(ys)
            };
            return self.mk_bv(w, r as u128);
        }
        self.intern(Node { op: Op::BvSrem, args: vec![a, b], sort: Sort::BitVec(w) })
    }

    /// Bitwise and.
    pub fn mk_bvand(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvAnd, a, b);
        if a == b {
            return a;
        }
        let ones = mask(w, u128::MAX);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, y))) => self.mk_bv(w, x & y),
            (Some((_, 0)), _) | (_, Some((_, 0))) => self.mk_bv(w, 0),
            (Some((_, v)), None) if v == ones => b,
            (None, Some((_, v))) if v == ones => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node { op: Op::BvAnd, args: vec![a, b], sort: Sort::BitVec(w) })
            }
        }
    }

    /// Bitwise or.
    pub fn mk_bvor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvOr, a, b);
        if a == b {
            return a;
        }
        let ones = mask(w, u128::MAX);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, y))) => self.mk_bv(w, x | y),
            (Some((_, 0)), None) => b,
            (None, Some((_, 0))) => a,
            (Some((_, v)), _) | (_, Some((_, v))) if v == ones => self.mk_bv(w, ones),
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node { op: Op::BvOr, args: vec![a, b], sort: Sort::BitVec(w) })
            }
        }
    }

    /// Bitwise xor.
    pub fn mk_bvxor(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvXor, a, b);
        if a == b {
            return self.mk_bv(w, 0);
        }
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, y))) => self.mk_bv(w, x ^ y),
            (Some((_, 0)), None) => b,
            (None, Some((_, 0))) => a,
            _ => {
                let (a, b) = if a <= b { (a, b) } else { (b, a) };
                self.intern(Node { op: Op::BvXor, args: vec![a, b], sort: Sort::BitVec(w) })
            }
        }
    }

    /// Logical shift left.
    pub fn mk_bvshl(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvShl, a, b);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, k))) => {
                let r = if k >= u128::from(w) { 0 } else { x << k };
                self.mk_bv(w, r)
            }
            (None, Some((_, 0))) => a,
            _ => self.intern(Node { op: Op::BvShl, args: vec![a, b], sort: Sort::BitVec(w) }),
        }
    }

    /// Logical shift right.
    pub fn mk_bvlshr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvLshr, a, b);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, k))) => {
                let r = if k >= u128::from(w) { 0 } else { x >> k };
                self.mk_bv(w, r)
            }
            (None, Some((_, 0))) => a,
            _ => self.intern(Node { op: Op::BvLshr, args: vec![a, b], sort: Sort::BitVec(w) }),
        }
    }

    /// Arithmetic shift right.
    pub fn mk_bvashr(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvAshr, a, b);
        match (self.as_bv_const(a), self.as_bv_const(b)) {
            (Some((_, x)), Some((_, k))) => {
                let xs = to_signed(w, x);
                let k = k.min(u128::from(w - 1)) as u32;
                self.mk_bv(w, (xs >> k) as u128)
            }
            (None, Some((_, 0))) => a,
            _ => self.intern(Node { op: Op::BvAshr, args: vec![a, b], sort: Sort::BitVec(w) }),
        }
    }

    /// Unsigned less-than.
    pub fn mk_bvult(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop_widths(Op::BvUlt, a, b);
        if a == b {
            return self.mk_false();
        }
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.mk_bool(x < y);
        }
        self.intern(Node { op: Op::BvUlt, args: vec![a, b], sort: Sort::Bool })
    }

    /// Unsigned less-or-equal.
    pub fn mk_bvule(&mut self, a: TermId, b: TermId) -> TermId {
        self.bv_binop_widths(Op::BvUle, a, b);
        if a == b {
            return self.mk_true();
        }
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.mk_bool(x <= y);
        }
        self.intern(Node { op: Op::BvUle, args: vec![a, b], sort: Sort::Bool })
    }

    /// Signed less-than.
    pub fn mk_bvslt(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvSlt, a, b);
        if a == b {
            return self.mk_false();
        }
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.mk_bool(to_signed(w, x) < to_signed(w, y));
        }
        self.intern(Node { op: Op::BvSlt, args: vec![a, b], sort: Sort::Bool })
    }

    /// Signed less-or-equal.
    pub fn mk_bvsle(&mut self, a: TermId, b: TermId) -> TermId {
        let w = self.bv_binop_widths(Op::BvSle, a, b);
        if a == b {
            return self.mk_true();
        }
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.mk_bool(to_signed(w, x) <= to_signed(w, y));
        }
        self.intern(Node { op: Op::BvSle, args: vec![a, b], sort: Sort::Bool })
    }

    /// Unsigned greater-than (`b < a`).
    pub fn mk_bvugt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bvult(b, a)
    }

    /// Signed greater-than (`b <s a`).
    pub fn mk_bvsgt(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bvslt(b, a)
    }

    /// Unsigned greater-or-equal (`b <= a`).
    pub fn mk_bvuge(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bvule(b, a)
    }

    /// Signed greater-or-equal (`b <=s a`).
    pub fn mk_bvsge(&mut self, a: TermId, b: TermId) -> TermId {
        self.mk_bvsle(b, a)
    }

    // ---------------------------------------------------------------------
    // Width changes
    // ---------------------------------------------------------------------

    /// Zero-extension (or identity if `to` equals the current width).
    ///
    /// # Panics
    ///
    /// Panics if `to` is smaller than the current width or exceeds
    /// [`MAX_WIDTH`].
    pub fn mk_zext(&mut self, a: TermId, to: u32) -> TermId {
        let w = self.width(a);
        assert!(to >= w && to <= MAX_WIDTH, "zext {w} -> {to}");
        if to == w {
            return a;
        }
        match self.node(a).op {
            Op::BvConst { value, .. } => self.mk_bv(to, value),
            Op::ZeroExt(_) => {
                let inner = self.node(a).args[0];
                self.mk_zext(inner, to)
            }
            _ => self.intern(Node { op: Op::ZeroExt(to), args: vec![a], sort: Sort::BitVec(to) }),
        }
    }

    /// Sign-extension (or identity if `to` equals the current width).
    ///
    /// # Panics
    ///
    /// Panics if `to` is smaller than the current width or exceeds
    /// [`MAX_WIDTH`].
    pub fn mk_sext(&mut self, a: TermId, to: u32) -> TermId {
        let w = self.width(a);
        assert!(to >= w && to <= MAX_WIDTH, "sext {w} -> {to}");
        if to == w {
            return a;
        }
        if let Op::BvConst { value, .. } = self.node(a).op {
            return self.mk_bv(to, to_signed(w, value) as u128);
        }
        self.intern(Node { op: Op::SignExt(to), args: vec![a], sort: Sort::BitVec(to) })
    }

    /// Extraction of bits `lo..=hi` (truncation is `extract(w', 0)`).
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= hi < width(a)`.
    pub fn mk_extract(&mut self, a: TermId, hi: u32, lo: u32) -> TermId {
        let w = self.width(a);
        assert!(lo <= hi && hi < w, "extract [{hi}:{lo}] of width {w}");
        if lo == 0 && hi == w - 1 {
            return a;
        }
        let new_w = hi - lo + 1;
        match self.node(a).op {
            Op::BvConst { value, .. } => self.mk_bv(new_w, value >> lo),
            Op::Extract { lo: inner_lo, .. } => {
                let inner = self.node(a).args[0];
                self.mk_extract(inner, inner_lo + hi, inner_lo + lo)
            }
            // Slicing inside the original operand of an extension.
            Op::ZeroExt(_) | Op::SignExt(_) => {
                let inner = self.node(a).args[0];
                let iw = self.width(inner);
                if hi < iw {
                    self.mk_extract(inner, hi, lo)
                } else if lo >= iw && matches!(self.node(a).op, Op::ZeroExt(_)) {
                    self.mk_bv(new_w, 0)
                } else {
                    self.intern(Node {
                        op: Op::Extract { hi, lo },
                        args: vec![a],
                        sort: Sort::BitVec(new_w),
                    })
                }
            }
            // Slicing entirely within one side of a concatenation.
            Op::Concat => {
                let hi_part = self.node(a).args[0];
                let lo_part = self.node(a).args[1];
                let wl = self.width(lo_part);
                if hi < wl {
                    self.mk_extract(lo_part, hi, lo)
                } else if lo >= wl {
                    self.mk_extract(hi_part, hi - wl, lo - wl)
                } else {
                    self.intern(Node {
                        op: Op::Extract { hi, lo },
                        args: vec![a],
                        sort: Sort::BitVec(new_w),
                    })
                }
            }
            _ => self.intern(Node {
                op: Op::Extract { hi, lo },
                args: vec![a],
                sort: Sort::BitVec(new_w),
            }),
        }
    }

    /// Truncation to `to` bits (low bits).
    pub fn mk_trunc(&mut self, a: TermId, to: u32) -> TermId {
        assert!(to >= 1, "trunc to zero width");
        self.mk_extract(a, to - 1, 0)
    }

    /// Concatenation: `hi` supplies the high bits.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    pub fn mk_concat(&mut self, hi: TermId, lo: TermId) -> TermId {
        let wh = self.width(hi);
        let wl = self.width(lo);
        let w = wh + wl;
        assert!(w <= MAX_WIDTH, "concat width {w} exceeds {MAX_WIDTH}");
        if let (Some((_, x)), Some((_, y))) = (self.as_bv_const(hi), self.as_bv_const(lo)) {
            return self.mk_bv(w, (x << wl) | y);
        }
        self.intern(Node { op: Op::Concat, args: vec![hi, lo], sort: Sort::BitVec(w) })
    }

    // ---------------------------------------------------------------------
    // Memory (array) operations
    // ---------------------------------------------------------------------

    /// Reads one byte from memory.
    ///
    /// Reduces `select(store(m, i, v), j)` when `i` and `j` are syntactically
    /// equal or provably distinct constants; other cases are left for the
    /// solver's array-elimination pass.
    pub fn mk_select(&mut self, mem: TermId, addr: TermId) -> TermId {
        assert!(self.sort(mem).is_memory(), "select on non-memory");
        assert_eq!(self.sort(addr), Sort::BitVec(64), "select address must be 64-bit");
        if let Op::Store = self.node(mem).op {
            let inner = self.node(mem).args[0];
            let idx = self.node(mem).args[1];
            let val = self.node(mem).args[2];
            if idx == addr {
                return val;
            }
            if let (Some(_), Some(_)) = (self.as_bv_const(idx), self.as_bv_const(addr)) {
                // Distinct constants (equal case handled above via interning).
                return self.mk_select(inner, addr);
            }
        }
        self.intern(Node { op: Op::Select, args: vec![mem, addr], sort: Sort::BitVec(8) })
    }

    /// Writes one byte to memory.
    ///
    /// Store chains with constant addresses are kept sorted (descending
    /// address outermost) and overwritten entries are dropped, so memories
    /// that wrote the same constant bytes in different orders intern to the
    /// same term — the WAW experiment (§5.2) relies on *values*, not order,
    /// mattering.
    pub fn mk_store(&mut self, mem: TermId, addr: TermId, val: TermId) -> TermId {
        assert!(self.sort(mem).is_memory(), "store on non-memory");
        assert_eq!(self.sort(addr), Sort::BitVec(64), "store address must be 64-bit");
        assert_eq!(self.sort(val), Sort::BitVec(8), "store value must be one byte");
        if let Op::Store = self.node(mem).op {
            let inner = self.node(mem).args[0];
            let idx = self.node(mem).args[1];
            let ival = self.node(mem).args[2];
            if idx == addr {
                // Overwrite in place.
                return self.mk_store(inner, addr, val);
            }
            if let (Some((_, i)), Some((_, a))) = (self.as_bv_const(idx), self.as_bv_const(addr)) {
                if a < i {
                    // Bubble the smaller constant address inwards so chains
                    // are canonically ordered.
                    let pushed = self.mk_store(inner, addr, val);
                    return self.intern(Node {
                        op: Op::Store,
                        args: vec![pushed, idx, ival],
                        sort: Sort::Memory,
                    });
                }
            }
        }
        self.intern(Node { op: Op::Store, args: vec![mem, addr, val], sort: Sort::Memory })
    }

    // ---------------------------------------------------------------------
    // Display helpers
    // ---------------------------------------------------------------------

    /// Renders a term in SMT-LIB-like syntax (for diagnostics).
    pub fn display(&self, id: TermId) -> DisplayTerm<'_> {
        DisplayTerm { bank: self, id }
    }
}

/// Helper returned by [`TermBank::display`].
pub struct DisplayTerm<'a> {
    bank: &'a TermBank,
    id: TermId,
}

impl fmt::Display for DisplayTerm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_term(self.bank, self.id, f, 0)
    }
}

fn write_term(bank: &TermBank, id: TermId, f: &mut fmt::Formatter<'_>, depth: u32) -> fmt::Result {
    if depth > 60 {
        return write!(f, "...");
    }
    let node = bank.node(id);
    let head = |op: &Op| -> &'static str {
        match op {
            Op::Not => "not",
            Op::And => "and",
            Op::Or => "or",
            Op::Xor => "xor",
            Op::Eq => "=",
            Op::Ite => "ite",
            Op::BvNot => "bvnot",
            Op::BvNeg => "bvneg",
            Op::BvAdd => "bvadd",
            Op::BvSub => "bvsub",
            Op::BvMul => "bvmul",
            Op::BvUdiv => "bvudiv",
            Op::BvUrem => "bvurem",
            Op::BvSdiv => "bvsdiv",
            Op::BvSrem => "bvsrem",
            Op::BvAnd => "bvand",
            Op::BvOr => "bvor",
            Op::BvXor => "bvxor",
            Op::BvShl => "bvshl",
            Op::BvLshr => "bvlshr",
            Op::BvAshr => "bvashr",
            Op::BvUlt => "bvult",
            Op::BvUle => "bvule",
            Op::BvSlt => "bvslt",
            Op::BvSle => "bvsle",
            Op::Concat => "concat",
            Op::Select => "select",
            Op::Store => "store",
            _ => "?",
        }
    };
    match &node.op {
        Op::BoolConst(b) => write!(f, "{b}"),
        Op::BvConst { width, value } => write!(f, "#x{value:x}:{width}"),
        Op::Var(v) => write!(f, "{}", bank.var(*v).0),
        Op::ZeroExt(to) => {
            write!(f, "((_ zero_extend {to}) ")?;
            write_term(bank, node.args[0], f, depth + 1)?;
            write!(f, ")")
        }
        Op::SignExt(to) => {
            write!(f, "((_ sign_extend {to}) ")?;
            write_term(bank, node.args[0], f, depth + 1)?;
            write!(f, ")")
        }
        Op::Extract { hi, lo } => {
            write!(f, "((_ extract {hi} {lo}) ")?;
            write_term(bank, node.args[0], f, depth + 1)?;
            write!(f, ")")
        }
        op => {
            write!(f, "({}", head(op))?;
            for &a in &node.args {
                write!(f, " ")?;
                write_term(bank, a, f, depth + 1)?;
            }
            write!(f, ")")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> TermBank {
        TermBank::new()
    }

    #[test]
    fn interning_walks_a_hash_collision_chain() {
        // Pretend `y`'s node hashes like `x`'s, then `x`'s like `y`'s: each
        // lookup must compare along the chain, never trust the hash.
        let mut b = bank();
        let x = b.mk_var("x", Sort::BitVec(8));
        let y_node = Node { op: Op::Var(VarId(1)), args: vec![], sort: Sort::BitVec(8) };
        b.vars.push(("y".into(), Sort::BitVec(8)));
        b.by_hash.insert(node_hash(&y_node), x);
        let y = b.intern(y_node.clone());
        assert_ne!(x, y, "a shared hash must not merge distinct nodes");
        let x_node = b.node(x).clone();
        b.by_hash.insert(node_hash(&x_node), y);
        assert_eq!(b.intern(x_node), x, "the lookup walks from y back to x");
        assert_eq!(b.intern(y_node), y);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn hash_consing_dedups() {
        let mut b = bank();
        let x = b.mk_var("x", Sort::BitVec(32));
        let y = b.mk_var("y", Sort::BitVec(32));
        let s1 = b.mk_bvadd(x, y);
        let s2 = b.mk_bvadd(y, x); // commutative normalization
        assert_eq!(s1, s2);
    }

    #[test]
    fn constant_folding_add() {
        let mut b = bank();
        let two = b.mk_bv(8, 2);
        let three = b.mk_bv(8, 3);
        let five = b.mk_bvadd(two, three);
        assert_eq!(b.as_bv_const(five), Some((8, 5)));
    }

    #[test]
    fn add_wraps() {
        let mut b = bank();
        let a = b.mk_bv(8, 200);
        let c = b.mk_bv(8, 100);
        let s = b.mk_bvadd(a, c);
        assert_eq!(b.as_bv_const(s), Some((8, 44)));
    }

    #[test]
    fn and_annihilates_and_flattens() {
        let mut b = bank();
        let x = b.mk_var("p", Sort::Bool);
        let y = b.mk_var("q", Sort::Bool);
        let t = b.mk_true();
        let fa = b.mk_false();
        assert_eq!(b.mk_and([x, t]), x);
        assert_eq!(b.mk_and([x, fa]), b.mk_false());
        let inner = b.mk_and([x, y]);
        let z = b.mk_var("r", Sort::Bool);
        let outer = b.mk_and([inner, z]);
        assert_eq!(b.node(outer).args.len(), 3);
    }

    #[test]
    fn and_with_complement_is_false() {
        let mut b = bank();
        let x = b.mk_var("p", Sort::Bool);
        let nx = b.mk_not(x);
        assert_eq!(b.mk_and([x, nx]), b.mk_false());
        assert_eq!(b.mk_or([x, nx]), b.mk_true());
    }

    #[test]
    fn double_negation_cancels() {
        let mut b = bank();
        let x = b.mk_var("p", Sort::Bool);
        let nx = b.mk_not(x);
        assert_eq!(b.mk_not(nx), x);
    }

    #[test]
    fn eq_reflexive_and_const() {
        let mut b = bank();
        let x = b.mk_var("x", Sort::BitVec(16));
        assert_eq!(b.mk_eq(x, x), b.mk_true());
        let c1 = b.mk_bv(16, 7);
        let c2 = b.mk_bv(16, 8);
        assert_eq!(b.mk_eq(c1, c2), b.mk_false());
    }

    #[test]
    #[should_panic(expected = "sort mismatch")]
    fn eq_rejects_sort_mismatch() {
        let mut b = bank();
        let x = b.mk_var("x", Sort::BitVec(16));
        let y = b.mk_var("y", Sort::BitVec(32));
        b.mk_eq(x, y);
    }

    #[test]
    fn ite_simplifications() {
        let mut b = bank();
        let c = b.mk_var("c", Sort::Bool);
        let x = b.mk_var("x", Sort::BitVec(8));
        let y = b.mk_var("y", Sort::BitVec(8));
        assert_eq!(b.mk_ite(c, x, x), x);
        let t = b.mk_true();
        assert_eq!(b.mk_ite(t, x, y), x);
        let nc = b.mk_not(c);
        let i1 = b.mk_ite(nc, x, y);
        let i2 = b.mk_ite(c, y, x);
        assert_eq!(i1, i2);
    }

    #[test]
    fn bool_ite_becomes_connectives() {
        let mut b = bank();
        let c = b.mk_var("c", Sort::Bool);
        let t = b.mk_true();
        let fa = b.mk_false();
        assert_eq!(b.mk_ite(c, t, fa), c);
        assert_eq!(b.mk_ite(c, fa, t), b.mk_not(c));
    }

    #[test]
    fn shifts_fold() {
        let mut b = bank();
        let x = b.mk_bv(8, 0b1001_0110);
        let k = b.mk_bv(8, 2);
        let shl = b.mk_bvshl(x, k);
        assert_eq!(b.as_bv_const(shl), Some((8, 0b0101_1000)));
        let sh = b.mk_bvlshr(x, k);
        assert_eq!(b.as_bv_const(sh), Some((8, 0b0010_0101)));
        let ash = b.mk_bvashr(x, k);
        assert_eq!(b.as_bv_const(ash), Some((8, 0b1110_0101)));
        let big = b.mk_bv(8, 9);
        let z = b.mk_bvshl(x, big);
        assert_eq!(b.as_bv_const(z), Some((8, 0)));
    }

    #[test]
    fn division_total_semantics() {
        let mut b = bank();
        let x = b.mk_bv(8, 10);
        let zero = b.mk_bv(8, 0);
        let d = b.mk_bvudiv(x, zero);
        assert_eq!(b.as_bv_const(d), Some((8, 0xff)));
        let r = b.mk_bvurem(x, zero);
        assert_eq!(b.as_bv_const(r), Some((8, 10)));
        let m1 = b.mk_bv(8, 0xff); // -1
        let sd = b.mk_bvsdiv(x, m1);
        assert_eq!(b.as_bv_const(sd), Some((8, 0xf6))); // -10
    }

    #[test]
    fn sdiv_min_by_minus_one_wraps() {
        let mut b = bank();
        let min = b.mk_bv(8, 0x80);
        let m1 = b.mk_bv(8, 0xff);
        let d = b.mk_bvsdiv(min, m1);
        assert_eq!(b.as_bv_const(d), Some((8, 0x80)));
        let r = b.mk_bvsrem(min, m1);
        assert_eq!(b.as_bv_const(r), Some((8, 0)));
    }

    #[test]
    fn extensions_and_extract() {
        let mut b = bank();
        let x = b.mk_bv(8, 0x80);
        let z = b.mk_zext(x, 16);
        assert_eq!(b.as_bv_const(z), Some((16, 0x80)));
        let s = b.mk_sext(x, 16);
        assert_eq!(b.as_bv_const(s), Some((16, 0xff80)));
        let e = b.mk_extract(s, 15, 8);
        assert_eq!(b.as_bv_const(e), Some((8, 0xff)));
        let v = b.mk_var("v", Sort::BitVec(32));
        assert_eq!(b.mk_zext(v, 32), v);
        assert_eq!(b.mk_extract(v, 31, 0), v);
    }

    #[test]
    fn nested_extract_composes() {
        let mut b = bank();
        let v = b.mk_var("v", Sort::BitVec(32));
        let outer = b.mk_extract(v, 23, 8); // 16 bits
        let inner = b.mk_extract(outer, 11, 4); // bits 12..=19 of v
        let direct = b.mk_extract(v, 19, 12);
        assert_eq!(inner, direct);
    }

    #[test]
    fn concat_folds() {
        let mut b = bank();
        let hi = b.mk_bv(8, 0xab);
        let lo = b.mk_bv(8, 0xcd);
        let c = b.mk_concat(hi, lo);
        assert_eq!(b.as_bv_const(c), Some((16, 0xabcd)));
    }

    #[test]
    fn select_over_store_same_address() {
        let mut b = bank();
        let m = b.mk_var("mem", Sort::Memory);
        let a = b.mk_var("a", Sort::BitVec(64));
        let v = b.mk_var("v", Sort::BitVec(8));
        let m2 = b.mk_store(m, a, v);
        assert_eq!(b.mk_select(m2, a), v);
    }

    #[test]
    fn select_skips_distinct_constant_store() {
        let mut b = bank();
        let m = b.mk_var("mem", Sort::Memory);
        let a0 = b.mk_bv(64, 0);
        let a1 = b.mk_bv(64, 1);
        let v = b.mk_bv(8, 0x42);
        let m2 = b.mk_store(m, a1, v);
        let r = b.mk_select(m2, a0);
        let direct = b.mk_select(m, a0);
        assert_eq!(r, direct);
    }

    #[test]
    fn store_chains_canonicalize() {
        let mut b = bank();
        let m = b.mk_var("mem", Sort::Memory);
        let a0 = b.mk_bv(64, 0);
        let a1 = b.mk_bv(64, 1);
        let v0 = b.mk_bv(8, 10);
        let v1 = b.mk_bv(8, 11);
        let m_a = {
            let t = b.mk_store(m, a0, v0);
            b.mk_store(t, a1, v1)
        };
        let m_b = {
            let t = b.mk_store(m, a1, v1);
            b.mk_store(t, a0, v0)
        };
        assert_eq!(m_a, m_b, "independent constant stores commute");
    }

    #[test]
    fn store_overwrite_drops_old_value() {
        let mut b = bank();
        let m = b.mk_var("mem", Sort::Memory);
        let a = b.mk_bv(64, 4);
        let v0 = b.mk_bv(8, 1);
        let v1 = b.mk_bv(8, 2);
        let chained = {
            let t = b.mk_store(m, a, v0);
            b.mk_store(t, a, v1)
        };
        let direct = b.mk_store(m, a, v1);
        assert_eq!(chained, direct);
    }

    #[test]
    fn waw_reorder_detected_by_canonical_chains() {
        // The §5.2 WAW bug: writes to overlapping addresses in the wrong
        // order must NOT produce the same canonical memory.
        let mut b = bank();
        let m = b.mk_var("mem", Sort::Memory);
        let a3 = b.mk_bv(64, 3);
        let v_first = b.mk_bv(8, 0);
        let v_second = b.mk_bv(8, 2);
        let good = {
            let t = b.mk_store(m, a3, v_first);
            b.mk_store(t, a3, v_second)
        };
        let bad = {
            let t = b.mk_store(m, a3, v_second);
            b.mk_store(t, a3, v_first)
        };
        assert_ne!(good, bad);
    }

    #[test]
    fn fresh_vars_are_distinct() {
        let mut b = bank();
        let v1 = b.fresh_var("tmp", Sort::Bool);
        let v2 = b.fresh_var("tmp", Sort::Bool);
        assert_ne!(v1, v2);
    }

    #[test]
    #[should_panic(expected = "re-declared")]
    fn var_sort_conflict_panics() {
        let mut b = bank();
        b.mk_var("x", Sort::Bool);
        b.mk_var("x", Sort::BitVec(8));
    }

    #[test]
    fn display_renders_smtlib_like() {
        let mut b = bank();
        let x = b.mk_var("x", Sort::BitVec(8));
        let one = b.mk_bv(8, 1);
        let s = b.mk_bvadd(x, one);
        let rendered = b.display(s).to_string();
        assert!(rendered.contains("bvadd"), "got {rendered}");
        assert!(rendered.contains('x'), "got {rendered}");
    }
}
