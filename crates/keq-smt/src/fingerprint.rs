//! Canonical, bank-independent obligation fingerprints.
//!
//! An obligation is the conjunction of a query's assertions (for session
//! queries: prefix ∧ delta). Structurally identical obligations recur across
//! corpus functions — the same instruction-selection patterns produce the
//! same proof obligations over and over, differing only in fresh-variable
//! numbering and [`TermBank`] interning order. [`fingerprint_obligation`]
//! maps an obligation to a 128-bit value that is
//!
//! - **invariant** under free-variable renaming (names and
//!   [`VarId`](crate::term::VarId)s are never hashed) and under
//!   term-construction order (commutative argument lists and the conjunct
//!   list itself are re-sorted by structure, not by bank-dependent
//!   `TermId`s), and
//! - **discriminating** for anything semantically relevant: operator
//!   structure, bitvector widths, sorts, constants, polarity, and the
//!   *sharing pattern* of variables across conjuncts all feed the hash.
//!
//! # Construction
//!
//! 1. Conjuncts are deduplicated and constant-`true` conjuncts dropped, so
//!    the two ways of posing one conjunction (scratch vs. prefix+delta
//!    split) fingerprint identically.
//! 2. Every reachable node gets a *shape hash*: a structural DAG hash where
//!    variables contribute only their sort. Commutative operators absorb
//!    their children's hashes in sorted order, which removes the
//!    bank-dependent `TermId` argument order the smart constructors use.
//!    Shape hashes are query-independent and memoized per bank
//!    ([`ShapeMemo`]).
//! 3. Variable *colors* are refined Weisfeiler–Leman style for a constant
//!    number of rounds: each round recolors every variable by the sorted
//!    multiset of (position-tagged) hashes of the nodes it occurs in, then
//!    recomputes the node hashes with the new colors. This separates
//!    variables that pure shape cannot (e.g. `x` in `x+y ∧ x<c` vs `y`).
//! 4. A canonical preorder traversal (roots and commutative arguments
//!    ordered by refined hash) assigns each variable an index at first
//!    visit — the alpha-renaming. The final hash re-hashes the DAG with
//!    variables replaced by their indices and combines the (sorted) root
//!    hashes.
//!
//! Equal fingerprints imply (up to 128-bit hash collision) alpha-equivalent
//! conjunctions: the final hash encodes the concrete index pattern, so two
//! obligations can only agree by exhibiting an index-preserving renaming.
//! The converse is *near*-canonical: when the refinement rounds leave a
//! genuine tie (automorphic conjuncts, or structures past the refinement
//! horizon), the traversal falls back to bank order and alpha-equivalent
//! obligations may fingerprint differently. Such ties cost cache **misses**,
//! never wrong hits — which is the only sound failure direction for a
//! verdict cache.
//!
//! # Layout
//!
//! The solver fingerprints every obligation it looks up, hit or miss, so
//! the passes run on dense arrays: each query numbers its DAG into local
//! postorder slots with flattened child lists, through a `TermId` → slot
//! table and epoch stamps that every query on a thread reuses, and the
//! per-bank [`ShapeMemo`] maps `TermId`s to shapes through a `u32` table.
//! A node's head (operator, sort, immediates, arity) is hashed once per
//! query and shared by all four passes. Every pass absorbs
//! the words the construction above names in the order it names them, so
//! the layout decides no bit of a fingerprint; `tests/fingerprint_golden.rs`
//! pins a set of them.
//!
//! Fingerprinting runs *after* the saturating rewrite pass
//! ([`crate::rewrite`]): obligations arrive here already in normal form,
//! so spellings that differ only by rewritable redundancy (xor
//! self-cancellation, add/sub round trips, collapsible extract/extend
//! chains, …) share one fingerprint and one cache entry. Any change to
//! that normal form — new rules, reordered families — shifts which
//! fingerprint an obligation maps to and must bump
//! [`crate::obcache::SEMANTICS_REVISION`], exactly like widening the `Op`
//! vocabulary.

use std::cell::Cell;

use crate::sort::Sort;
use crate::stamps;
use crate::term::{Node, Op, TermBank, TermId};

/// Canonical 128-bit fingerprint of one proof obligation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObligationFingerprint(pub u128);

impl ObligationFingerprint {
    /// Low 64 bits — the compact form carried by trace events.
    pub fn lo64(self) -> u64 {
        self.0 as u64
    }
}

/// An unset slot, variable number or argument position.
const NONE: u32 = u32::MAX;

/// Per-bank memo of the query-independent shape hashes (step 2).
///
/// Valid for the lifetime of one [`TermBank`]: interned nodes are
/// immutable, so a `TermId`'s shape hash never changes. This is the same
/// 1:1 solver↔bank pairing the query cache already relies on. The memo
/// grows with the bank: one `u32` per bank node, and a `u128` only for
/// the shapes actually computed.
#[derive(Debug, Clone, Default)]
pub struct ShapeMemo {
    /// Bank node → `1 +` the index of its shape in `shapes`, 0 if none.
    shape_at: Vec<u32>,
    /// Shape hashes in the order they were computed.
    shapes: Vec<u128>,
}

impl ShapeMemo {
    /// Number of memoized shapes (diagnostics only).
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }
}

/// A query's buffers. They are scratch: one set per thread serves every
/// query on it, whichever solver or bank asks.
#[derive(Debug, Default)]
struct Scratch {
    /// Bank node → its slot in the current query (valid once emitted).
    slot: Vec<u32>,
    query: Query,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// One obligation's DAG in dense local slots, numbered in postorder
/// (children before parents).
#[derive(Debug, Default)]
struct Query {
    /// Deduplicated conjuncts, in `TermId` order.
    roots: Vec<TermId>,
    /// Slot → bank node.
    order: Vec<TermId>,
    /// Slot `s`'s children are `kids[kid_start[s]..kid_start[s + 1]]`.
    kid_start: Vec<u32>,
    kids: Vec<u32>,
    /// Slot → whether its operator is commutative.
    comm: Vec<bool>,
    /// Slot → the hash of its operator, sort and immediates (and, unless
    /// it is a variable, its arity): everything but the variable word and
    /// the children.
    head: Vec<u128>,
    /// Slot → local variable number, or [`NONE`].
    var: Vec<u32>,
    /// Local variable → its sort word.
    var_sort: Vec<u64>,
    /// Variable occurrences as (local variable, parent slot, argument
    /// position, or [`NONE`] under a commutative parent).
    occ: Vec<(u32, u32, u32)>,
    /// Slot → hash of the current pass.
    h: Vec<u128>,
    /// Local variable → the word the current pass hashes it by.
    word: Vec<u64>,
    /// (local variable, occurrence tag) pairs of one refinement round.
    tags: Vec<(u32, u64)>,
    /// Slots of `roots`.
    root_slots: Vec<u32>,
    /// DFS stack of the postorder walk.
    stack: Vec<(TermId, bool)>,
    /// DFS stack of the canonical traversal, and its visited bitmap.
    walk: Vec<u32>,
    visited: Vec<bool>,
    /// Reused child buffers.
    kid_slots: Vec<u32>,
    kid_hashes: Vec<u128>,
}

/// Variable-color refinement rounds (step 3). Two rounds separate
/// variables by their occurrence context up to distance two, which covers
/// the obligation patterns the pipeline emits; deeper symmetric structures
/// degrade to extra misses, never to wrong hits.
const REFINE_ROUNDS: usize = 2;

/// SplitMix64 finalizer (duplicated from `keq-prng`, which is only a
/// dev-dependency of this crate).
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Absorbs one 64-bit word into a 128-bit state (two coupled mix lanes).
fn absorb(h: u128, w: u64) -> u128 {
    let lo = mix64(h as u64 ^ w);
    let hi = mix64((h >> 64) as u64 ^ w.rotate_left(32) ^ lo);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// Absorbs a 128-bit word as two 64-bit halves.
fn absorb128(h: u128, w: u128) -> u128 {
    absorb(absorb(h, w as u64), (w >> 64) as u64)
}

/// Collapses a 128-bit hash to one word (for occurrence tags).
fn fold64(h: u128) -> u64 {
    mix64(h as u64 ^ (h >> 64) as u64)
}

const SEED_NODE: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c834;
const SEED_TOP: u128 = 0x2545_f491_4f6c_dd1d_8917_51aa_e05e_e9d1;
/// Fingerprint of the empty (trivially satisfiable) obligation.
const EMPTY: u128 = 0xd3c5_8a5f_9e30_6b91_41c6_4e6d_19cf_2c53;
/// Occurrence tag of a conjunct that is a bare variable.
const ROOT_TAG: u64 = 0x6a09_e667_f3bc_c908;
/// Marks a variable word as a step-4 alpha-renaming index.
const INDEX_BIT: u64 = 0x8000_0000_0000_0000;

/// Stable operator code — explicit so reordering the `Op` enum can never
/// silently change fingerprints (and thereby invalidate persisted stores
/// without a [`SEMANTICS_REVISION`](crate::obcache::SEMANTICS_REVISION)
/// bump).
fn op_code(op: &Op) -> u64 {
    match op {
        Op::BoolConst(false) => 1,
        Op::BoolConst(true) => 2,
        Op::BvConst { .. } => 3,
        Op::Var(_) => 4,
        Op::Not => 5,
        Op::And => 6,
        Op::Or => 7,
        Op::Xor => 8,
        Op::Eq => 9,
        Op::Ite => 10,
        Op::BvNot => 11,
        Op::BvNeg => 12,
        Op::BvAdd => 13,
        Op::BvSub => 14,
        Op::BvMul => 15,
        Op::BvUdiv => 16,
        Op::BvUrem => 17,
        Op::BvSdiv => 18,
        Op::BvSrem => 19,
        Op::BvAnd => 20,
        Op::BvOr => 21,
        Op::BvXor => 22,
        Op::BvShl => 23,
        Op::BvLshr => 24,
        Op::BvAshr => 25,
        Op::BvUlt => 26,
        Op::BvUle => 27,
        Op::BvSlt => 28,
        Op::BvSle => 29,
        Op::ZeroExt(_) => 30,
        Op::SignExt(_) => 31,
        Op::Extract { .. } => 32,
        Op::Concat => 33,
        Op::Select => 34,
        Op::Store => 35,
    }
}

/// Operators whose smart constructors sort arguments by bank-dependent
/// `TermId` — the fingerprint must re-sort their children structurally.
fn commutative(op: &Op) -> bool {
    matches!(
        op,
        Op::And
            | Op::Or
            | Op::Xor
            | Op::Eq
            | Op::BvAdd
            | Op::BvMul
            | Op::BvAnd
            | Op::BvOr
            | Op::BvXor
    )
}

fn sort_word(s: Sort) -> u64 {
    match s {
        Sort::Bool => 0x51,
        Sort::BitVec(w) => 0x52 | (u64::from(w) << 8),
        Sort::Memory => 0x53,
    }
}

/// The part of a node's hash every pass shares: operator, sort and
/// immediates, then the arity. A variable's head stops before its
/// variable word, which each pass supplies (see [`var_hash`]).
fn head_hash(node: &Node) -> u128 {
    let mut h = absorb(SEED_NODE, op_code(&node.op));
    h = absorb(h, sort_word(node.sort));
    match node.op {
        Op::BvConst { width, value } => {
            h = absorb(h, u64::from(width));
            h = absorb128(h, value);
        }
        Op::Var(_) => return h,
        Op::ZeroExt(w) | Op::SignExt(w) => h = absorb(h, u64::from(w)),
        Op::Extract { hi, lo } => {
            h = absorb(h, u64::from(hi));
            h = absorb(h, u64::from(lo));
        }
        _ => {}
    }
    absorb(h, node.args.len() as u64)
}

/// A variable node's hash under `word`: its head, the word, arity zero.
fn var_hash(head: u128, word: u64) -> u128 {
    absorb(absorb(head, word), 0)
}

/// A non-variable node's hash: its head absorbing the children's hashes,
/// sorted first under a commutative operator.
fn kids_hash(head: u128, kids: &[u32], h: &[u128], comm: bool, buf: &mut Vec<u128>) -> u128 {
    let mut acc = head;
    if comm {
        buf.clear();
        buf.extend(kids.iter().map(|&k| h[k as usize]));
        buf.sort_unstable();
        for &k in buf.iter() {
            acc = absorb128(acc, k);
        }
    } else {
        for &k in kids {
            acc = absorb128(acc, h[k as usize]);
        }
    }
    acc
}

impl Query {
    /// Rehashes every slot bottom-up, each variable by its entry in `word`.
    fn hash_pass(&mut self) {
        for s in 0..self.order.len() {
            let lv = self.var[s];
            self.h[s] = if lv == NONE {
                let kids = &self.kids[self.kid_start[s] as usize..self.kid_start[s + 1] as usize];
                kids_hash(self.head[s], kids, &self.h, self.comm[s], &mut self.kid_hashes)
            } else {
                var_hash(self.head[s], self.word[lv as usize])
            };
        }
    }

    /// One Weisfeiler–Leman round: recolors every variable by the sorted
    /// multiset of its occurrence tags (current hash of the occurrence's
    /// parent, position-tagged for non-commutative parents; roots that are
    /// bare variables get a distinguished root tag).
    fn refine_colors(&mut self) {
        self.tags.clear();
        for &(lv, parent, pos) in &self.occ {
            let pw = fold64(self.h[parent as usize]);
            let tag = if pos == NONE {
                pw
            } else {
                mix64(pw ^ u64::from(pos).wrapping_mul(0xff51_afd7_ed55_8ccd))
            };
            self.tags.push((lv, tag));
        }
        for &r in &self.root_slots {
            let lv = self.var[r as usize];
            if lv != NONE {
                self.tags.push((lv, ROOT_TAG));
            }
        }
        self.tags.sort_unstable();
        self.word.clone_from(&self.var_sort);
        for group in self.tags.chunk_by(|a, b| a.0 == b.0) {
            let lv = group[0].0 as usize;
            let mut c = mix64(self.var_sort[lv] ^ 0xc2b2_ae3d_27d4_eb4f);
            for &(_, t) in group {
                c = mix64(c ^ t);
            }
            self.word[lv] = c;
        }
    }

    /// Step 4a: a canonical preorder traversal (roots and commutative
    /// arguments ordered by refined hash, ties by bank order) gives each
    /// variable its alpha-renaming index at first visit, written into
    /// `word` for the final pass.
    fn assign_indices(&mut self) {
        let h = &self.h;
        self.root_slots.sort_by_key(|&s| h[s as usize]);
        self.visited.clear();
        self.visited.resize(self.order.len(), false);
        self.walk.clear();
        self.walk.extend(self.root_slots.iter().rev());
        let mut next_index = 0;
        while let Some(s) = self.walk.pop() {
            let s = s as usize;
            if self.visited[s] {
                continue;
            }
            self.visited[s] = true;
            let lv = self.var[s];
            if lv != NONE {
                self.word[lv as usize] = INDEX_BIT | next_index;
                next_index += 1;
            }
            let kids = &self.kids[self.kid_start[s] as usize..self.kid_start[s + 1] as usize];
            let kids: &[u32] = if self.comm[s] {
                self.kid_slots.clear();
                self.kid_slots.extend_from_slice(kids);
                self.kid_slots.sort_by_key(|&k| self.h[k as usize]);
                &self.kid_slots
            } else {
                kids
            };
            for &k in kids.iter().rev() {
                if !self.visited[k as usize] {
                    self.walk.push(k);
                }
            }
        }
    }
}

/// Fingerprints the conjunction of all assertions in `parts` (the parts are
/// concatenated — a session passes `[prefix, delta]`, a scratch query
/// `[assertions]`). See the module docs for the algorithm and the soundness
/// argument.
pub fn fingerprint_obligation(
    bank: &TermBank,
    memo: &mut ShapeMemo,
    parts: &[&[TermId]],
) -> ObligationFingerprint {
    let mut scratch = SCRATCH.take();
    let fp = fingerprint_with(&mut scratch, bank, memo, parts);
    SCRATCH.set(scratch);
    fp
}

/// [`fingerprint_obligation`] over this thread's `scratch`.
fn fingerprint_with(
    scratch: &mut Scratch,
    bank: &TermBank,
    memo: &mut ShapeMemo,
    parts: &[&[TermId]],
) -> ObligationFingerprint {
    let (q, slot) = (&mut scratch.query, &mut scratch.slot);
    // Step 1: deduplicate conjuncts, drop constant-true ones.
    q.roots.clear();
    q.roots.extend(parts.iter().flat_map(|p| p.iter().copied()));
    q.roots.sort_unstable();
    q.roots.dedup();
    q.roots.retain(|&r| bank.as_bool_const(r) != Some(true));
    if q.roots.is_empty() {
        return ObligationFingerprint(EMPTY);
    }

    // Postorder into local slots, flattening children and hashing heads.
    if slot.len() < bank.len() {
        slot.resize(bank.len(), NONE);
    }
    if memo.shape_at.len() < bank.len() {
        memo.shape_at.resize(bank.len(), 0);
    }
    q.order.clear();
    q.kid_start.clear();
    q.kid_start.push(0);
    q.kids.clear();
    q.comm.clear();
    q.head.clear();
    q.var.clear();
    q.var_sort.clear();
    q.occ.clear();
    q.stack.clear();
    q.stack.extend(q.roots.iter().rev().map(|&r| (r, false)));
    stamps::walk(bank.len(), |seen| {
        while let Some((id, expanded)) = q.stack.pop() {
            let node = bank.node(id);
            if expanded {
                let s = q.order.len() as u32;
                slot[id.index()] = s;
                q.order.push(id);
                let comm = commutative(&node.op);
                for (pos, &a) in node.args.iter().enumerate() {
                    let k = slot[a.index()];
                    q.kids.push(k);
                    let lv = q.var[k as usize];
                    if lv != NONE {
                        q.occ.push((lv, s, if comm { NONE } else { pos as u32 }));
                    }
                }
                q.kid_start.push(q.kids.len() as u32);
                q.comm.push(comm);
                q.head.push(head_hash(node));
                if let Op::Var(_) = node.op {
                    q.var.push(q.var_sort.len() as u32);
                    q.var_sort.push(sort_word(node.sort));
                } else {
                    q.var.push(NONE);
                }
                continue;
            }
            if !seen.insert(id) {
                continue;
            }
            q.stack.push((id, true));
            for &a in node.args.iter().rev() {
                if !seen.contains(a) {
                    q.stack.push((a, false));
                }
            }
        }
    });
    q.root_slots.clear();
    q.root_slots.extend(q.roots.iter().map(|r| slot[r.index()]));

    // Step 2: query-independent shape hashes, memoized per bank.
    q.h.clear();
    q.h.resize(q.order.len(), 0);
    for s in 0..q.order.len() {
        let at = &mut memo.shape_at[q.order[s].index()];
        q.h[s] = if *at != 0 {
            memo.shapes[*at as usize - 1]
        } else {
            let lv = q.var[s];
            let h = if lv == NONE {
                let kids = &q.kids[q.kid_start[s] as usize..q.kid_start[s + 1] as usize];
                kids_hash(q.head[s], kids, &q.h, q.comm[s], &mut q.kid_hashes)
            } else {
                var_hash(q.head[s], q.var_sort[lv as usize])
            };
            memo.shapes.push(h);
            *at = u32::try_from(memo.shapes.len()).expect("shape table overflow");
            h
        };
    }

    // Step 3: refine variable colors and per-query node hashes.
    for _ in 0..REFINE_ROUNDS {
        q.refine_colors();
        q.hash_pass();
    }

    // Step 4: canonical alpha-renaming, then the final index-labelled
    // hash; the conjunct multiset is order-insensitive (sorted), variable
    // linkage across conjuncts is preserved by the shared index space.
    q.assign_indices();
    q.hash_pass();
    // The child-hash buffer is free again; it collects the root hashes.
    q.kid_hashes.clear();
    q.kid_hashes.extend(q.root_slots.iter().map(|&s| q.h[s as usize]));
    q.kid_hashes.sort_unstable();
    let mut h = absorb(SEED_TOP, q.kid_hashes.len() as u64);
    for &r in &q.kid_hashes {
        h = absorb128(h, r);
    }
    ObligationFingerprint(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stamps::Stamps;

    fn fp(bank: &TermBank, roots: &[TermId]) -> ObligationFingerprint {
        let mut memo = ShapeMemo::default();
        fingerprint_obligation(bank, &mut memo, &[roots])
    }

    #[test]
    fn renaming_and_split_invariance() {
        let mut b1 = TermBank::new();
        let x = b1.mk_var("x", Sort::BitVec(32));
        let y = b1.mk_var("y", Sort::BitVec(32));
        let c = b1.mk_bv(32, 7);
        let s1 = b1.mk_bvadd(x, y);
        let a1 = b1.mk_eq(s1, c);
        let a2 = b1.mk_bvult(x, y);

        let mut b2 = TermBank::new();
        let u = b2.mk_var("fresh!91", Sort::BitVec(32));
        let w = b2.mk_var("fresh!17", Sort::BitVec(32));
        let c2 = b2.mk_bv(32, 7);
        let s2 = b2.mk_bvadd(u, w);
        let b_a1 = b2.mk_eq(s2, c2);
        let b_a2 = b2.mk_bvult(u, w);

        assert_eq!(fp(&b1, &[a1, a2]), fp(&b2, &[b_a1, b_a2]));
        // Split into prefix+delta and reordered conjuncts: same obligation.
        let mut memo = ShapeMemo::default();
        assert_eq!(fingerprint_obligation(&b1, &mut memo, &[&[a2], &[a1]]), fp(&b1, &[a1, a2]));
    }

    #[test]
    fn construction_order_invariance() {
        // Same conjunction, conjuncts (and therefore TermIds) built in the
        // opposite order in a second bank.
        let mut b1 = TermBank::new();
        let x = b1.mk_var("a", Sort::BitVec(8));
        let y = b1.mk_var("b", Sort::BitVec(8));
        let k1 = b1.mk_bv(8, 3);
        let k2 = b1.mk_bv(8, 9);
        let s1 = b1.mk_bvadd(x, y);
        let p = b1.mk_eq(s1, k1);
        let q = b1.mk_bvult(x, k2);

        let mut b2 = TermBank::new();
        let y2 = b2.mk_var("q", Sort::BitVec(8));
        let k2b = b2.mk_bv(8, 9);
        let x2 = b2.mk_var("p", Sort::BitVec(8));
        let qq = b2.mk_bvult(x2, k2b);
        let k1b = b2.mk_bv(8, 3);
        let s2 = b2.mk_bvadd(x2, y2);
        let pp = b2.mk_eq(s2, k1b);

        assert_eq!(fp(&b1, &[p, q]), fp(&b2, &[qq, pp]));
    }

    #[test]
    fn width_sort_and_polarity_are_distinguished() {
        let mut b = TermBank::new();
        let x32 = b.mk_var("x32", Sort::BitVec(32));
        let y32 = b.mk_var("y32", Sort::BitVec(32));
        let x16 = b.mk_var("x16", Sort::BitVec(16));
        let y16 = b.mk_var("y16", Sort::BitVec(16));
        let ult32 = b.mk_bvult(x32, y32);
        let ult16 = b.mk_bvult(x16, y16);
        let not32 = b.mk_not(ult32);
        let slt32 = b.mk_bvslt(x32, y32);
        assert_ne!(fp(&b, &[ult32]), fp(&b, &[ult16]), "width must matter");
        assert_ne!(fp(&b, &[ult32]), fp(&b, &[not32]), "polarity must matter");
        assert_ne!(fp(&b, &[ult32]), fp(&b, &[slt32]), "signedness must matter");
        let p = b.mk_var("p", Sort::Bool);
        let q = b.mk_var("q", Sort::Bool);
        let and_pq = b.mk_and([p, q]);
        let or_pq = b.mk_or([p, q]);
        assert_ne!(fp(&b, &[and_pq]), fp(&b, &[or_pq]), "connective must matter");
    }

    #[test]
    fn variable_linkage_is_distinguished() {
        // x<c ∧ y<c vs x<c ∧ x<d: same shapes per conjunct, different
        // sharing pattern across conjuncts.
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(8));
        let y = b.mk_var("y", Sort::BitVec(8));
        let c = b.mk_bv(8, 4);
        let d = b.mk_bv(8, 5);
        let xc = b.mk_bvult(x, c);
        let yd = b.mk_bvult(y, d);
        let xd = b.mk_bvult(x, d);
        assert_ne!(fp(&b, &[xc, yd]), fp(&b, &[xc, xd]));
    }

    #[test]
    fn refinement_separates_symmetric_commutative_arguments() {
        // x+y ∧ x<c: x and y have tied shapes inside the commutative sum,
        // but the second conjunct breaks the symmetry. The refined traversal
        // must pick the same orientation whichever TermId order the bank
        // happened to intern.
        let mut b1 = TermBank::new();
        let x = b1.mk_var("x", Sort::BitVec(8));
        let y = b1.mk_var("y", Sort::BitVec(8));
        let c = b1.mk_bv(8, 11);
        let z = b1.mk_bv(8, 0);
        let add1 = b1.mk_bvadd(x, y);
        let sum1 = b1.mk_eq(add1, z);
        let lt1 = b1.mk_bvult(x, c);

        let mut b2 = TermBank::new();
        // Interning order flipped: "y" first.
        let y2 = b2.mk_var("m", Sort::BitVec(8));
        let x2 = b2.mk_var("n", Sort::BitVec(8));
        let c2 = b2.mk_bv(8, 11);
        let z2 = b2.mk_bv(8, 0);
        let add2 = b2.mk_bvadd(x2, y2);
        let sum2 = b2.mk_eq(add2, z2);
        let lt2 = b2.mk_bvult(x2, c2);

        assert_eq!(fp(&b1, &[sum1, lt1]), fp(&b2, &[sum2, lt2]));
    }

    #[test]
    fn a_reused_memo_survives_the_epoch_wrap() {
        // One memo across a growing bank while the thread's walk epoch
        // wraps on the third query: a stale stamp would drop nodes from
        // the walk. Fresh memos recompute each query after the wrap.
        stamps::install(Stamps::at_epoch(u32::MAX - 2));
        let mut bank = TermBank::new();
        let mut memo = ShapeMemo::default();
        let (mut conj, mut reused) = (Vec::new(), Vec::new());
        let mut acc = bank.mk_var("x0", Sort::BitVec(16));
        for i in 1..6u32 {
            let x = bank.mk_var(&format!("x{i}"), Sort::BitVec(16));
            acc = bank.mk_bvmul(x, acc);
            let c = bank.mk_bv(16, u128::from(i));
            conj.push(bank.mk_bvult(acc, c));
            reused.push(fingerprint_obligation(&bank, &mut memo, &[&conj]));
        }
        for (n, &got) in reused.iter().enumerate() {
            assert_eq!(got, fp(&bank, &conj[..=n]), "query {}", n + 1);
        }
    }

    #[test]
    fn empty_and_trivial_conjunctions() {
        let mut b = TermBank::new();
        let t = b.mk_true();
        assert_eq!(fp(&b, &[]), fp(&b, &[t]), "true conjuncts are dropped");
        let f = b.mk_false();
        assert_ne!(fp(&b, &[]), fp(&b, &[f]));
    }
}
