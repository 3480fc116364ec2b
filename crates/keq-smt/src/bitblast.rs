//! Bit-blasting: lowering bitvector terms to CNF over a [`SatSolver`].
//!
//! Preconditions: the input term DAG contains no memory-sorted subterms
//! (array elimination, [`crate::lower()`], runs first) and no signed
//! division/remainder (lowered to unsigned forms first). Every other
//! operator is translated structurally: ripple-carry adders, shift-add
//! multipliers, restoring dividers, barrel shifters, and comparison chains.
//!
//! Terms are processed in iterative post-order so deeply nested formulas
//! (long store chains, big-block straight-line code) cannot overflow the
//! stack.
//!
//! Two-input gates are structurally hashed: each AND, XOR and MUX over the
//! same normalized operands exists once per [`BlastCache`], so two terms
//! spelled differently but equal bit for bit (`a <s b` and
//! `a ⊕ 0x80 <u b ⊕ 0x80`, say) blast to one literal instead of two
//! circuits the SAT search would have to prove equal.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::sat::{Lit, SatSolver};
use crate::term::{Op, TermBank, TermId, VarId};

/// Multiply-fold hasher for the blaster's integer keys: term ids and packed
/// literal codes. SipHash costs a measurable share of blast time on these
/// one- and two-word keys.
#[derive(Debug, Default, Clone, Copy)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        // `n ^ n >> 32` is a bijection that lets both packed operands reach
        // the low bits the multiply spreads upwards.
        self.0 = (self.0 ^ n ^ (n >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write_u128(&mut self, n: u128) {
        self.write_u64(n as u64);
        self.write_u64((n >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        // The table indexes by the low bits; fold the well-mixed high half in.
        self.0 ^ (self.0 >> 32)
    }
}

/// A map over integer keys, hashed with [`IntHasher`].
type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// One structural gate table: normalized operand codes → output literal.
type GateMap<K> = IntMap<K, Lit>;

/// Persistent bit-blasting state: per-`TermId` CNF memo, the structural
/// gate tables, and the variable encoding tables, decoupled from the
/// [`BitBlaster`] that fills it.
///
/// A cache is tied to one ([`TermBank`], [`SatSolver`]) pair for its whole
/// life — the memoized literals name variables of that solver and the keys
/// are ids of that bank. Sessions keep one `BlastCache` alive across
/// queries so shared subterms and gates are blasted once; the scratch path
/// builds a fresh one per query.
#[derive(Debug, Default)]
pub struct BlastCache {
    bool_cache: IntMap<TermId, Lit>,
    bv_cache: IntMap<TermId, Vec<Lit>>,
    var_bits: HashMap<VarId, Vec<Lit>>,
    bool_vars: HashMap<VarId, Lit>,
    /// `a ∧ b` keyed by the sorted operand codes.
    and_gates: GateMap<u64>,
    /// `x ⊕ y` over positive operands, keyed by their sorted codes; the
    /// operand signs' parity is carried on the output literal instead.
    xor_gates: GateMap<u64>,
    /// `ite(c, a, b)` with a positive select, keyed by the three codes.
    mux_gates: GateMap<u128>,
    lit_true: Option<Lit>,
    terms_blasted: u64,
    terms_reused: u64,
    gates_reused: u64,
}

impl BlastCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Bit literals allocated for each bitvector variable (LSB first).
    #[must_use]
    pub fn var_bits(&self) -> &HashMap<VarId, Vec<Lit>> {
        &self.var_bits
    }

    /// Literal allocated for each boolean variable.
    #[must_use]
    pub fn bool_vars(&self) -> &HashMap<VarId, Lit> {
        &self.bool_vars
    }

    /// Number of term nodes translated to CNF via this cache (each node
    /// counted once at translation time).
    #[must_use]
    pub fn terms_blasted(&self) -> u64 {
        self.terms_blasted
    }

    /// Number of times a requested node was already memoized (shared
    /// subterm hits, within and across queries).
    #[must_use]
    pub fn terms_reused(&self) -> u64 {
        self.terms_reused
    }

    /// Number of two-input gate requests answered by an existing gate
    /// instead of a fresh variable and its clauses.
    #[must_use]
    pub fn gates_reused(&self) -> u64 {
        self.gates_reused
    }
}

/// The output of the gate named `key` in `table`. On the first request a
/// fresh variable is allocated and `define` emits its Tseitin clauses;
/// later requests count a reuse and emit nothing.
fn hashed_gate<K: Eq + Hash>(
    table: &mut GateMap<K>,
    reused: &mut u64,
    sat: &mut SatSolver,
    key: K,
    define: impl FnOnce(&mut SatSolver, Lit),
) -> Lit {
    match table.entry(key) {
        Entry::Occupied(e) => {
            *reused += 1;
            *e.get()
        }
        Entry::Vacant(e) => {
            let g = Lit::pos(sat.new_var());
            define(sat, g);
            *e.insert(g)
        }
    }
}

/// Packs two literal codes, smaller first, into one key.
fn pair_key(a: Lit, b: Lit) -> u64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    u64::from(lo.code()) << 32 | u64::from(hi.code())
}

/// Incremental bit-blaster over a shared SAT solver.
///
/// The blaster itself is a transient view: it borrows the bank, the solver
/// and a [`BlastCache`] and can be reconstructed at will — all state lives
/// in the cache and the solver.
#[derive(Debug)]
pub struct BitBlaster<'a> {
    bank: &'a TermBank,
    sat: &'a mut SatSolver,
    cache: &'a mut BlastCache,
}

impl<'a> BitBlaster<'a> {
    /// Creates a blaster over `bank`, emitting clauses into `sat` and
    /// memoizing into `cache`.
    pub fn new(bank: &'a TermBank, sat: &'a mut SatSolver, cache: &'a mut BlastCache) -> Self {
        if cache.lit_true.is_none() {
            let v = sat.new_var();
            let lit_true = Lit::pos(v);
            sat.add_clause(&[lit_true]);
            cache.lit_true = Some(lit_true);
        }
        BitBlaster { bank, sat, cache }
    }

    /// The always-true literal.
    pub fn lit_true(&self) -> Lit {
        self.cache.lit_true.expect("allocated in BitBlaster::new")
    }

    /// The always-false literal.
    pub fn lit_false(&self) -> Lit {
        self.lit_true().negate()
    }

    /// Bit literals allocated for each bitvector variable (LSB first).
    pub fn var_bits(&self) -> &HashMap<VarId, Vec<Lit>> {
        &self.cache.var_bits
    }

    /// Literal allocated for each boolean variable.
    pub fn bool_vars(&self) -> &HashMap<VarId, Lit> {
        &self.cache.bool_vars
    }

    /// Asserts that the boolean term `t` holds.
    pub fn assert_term(&mut self, t: TermId) {
        let l = self.lit(t);
        self.sat.add_clause(&[l]);
    }

    /// Returns the CNF literal equivalent to the boolean term `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not boolean or mentions memory operations.
    pub fn lit(&mut self, t: TermId) -> Lit {
        self.process(t);
        self.cache.bool_cache[&t]
    }

    /// Returns the bit literals (LSB first) of the bitvector term `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not a bitvector or mentions memory operations.
    pub fn bits(&mut self, t: TermId) -> Vec<Lit> {
        self.process(t);
        self.cache.bv_cache[&t].clone()
    }

    /// Processes `t` and all its subterms in post-order.
    fn process(&mut self, root: TermId) {
        let mut stack = vec![(root, false)];
        while let Some((t, expanded)) = stack.pop() {
            if self.cache.bool_cache.contains_key(&t) || self.cache.bv_cache.contains_key(&t) {
                if !expanded {
                    self.cache.terms_reused += 1;
                }
                continue;
            }
            if expanded {
                self.cache.terms_blasted += 1;
                self.blast_node(t);
            } else {
                stack.push((t, true));
                for &a in &self.bank.node(t).args {
                    stack.push((a, false));
                }
            }
        }
    }

    fn cached_lit(&self, t: TermId) -> Lit {
        self.cache.bool_cache[&t]
    }

    /// Blasts one node whose operands are already memoized. The bitvector
    /// memo is taken out of the cache while the node is built, so operand
    /// bits are read in place instead of copied; no gate method touches it.
    fn blast_node(&mut self, t: TermId) {
        let node = self.bank.node(t);
        let a = node.args.as_slice();
        let mut bv = std::mem::take(&mut self.cache.bv_cache);
        let bits = |t: TermId| bv[&t].as_slice();
        match node.op {
            Op::BoolConst(b) => {
                let l = if b { self.lit_true() } else { self.lit_false() };
                self.cache.bool_cache.insert(t, l);
            }
            Op::BvConst { width, value } => {
                let out: Vec<Lit> = (0..width)
                    .map(|i| {
                        if (value >> i) & 1 == 1 {
                            self.lit_true()
                        } else {
                            self.lit_false()
                        }
                    })
                    .collect();
                bv.insert(t, out);
            }
            Op::Var(v) => match node.sort {
                crate::sort::Sort::Bool => {
                    let l = Lit::pos(self.sat.new_var());
                    self.cache.bool_vars.insert(v, l);
                    self.cache.bool_cache.insert(t, l);
                }
                crate::sort::Sort::BitVec(w) => {
                    let out: Vec<Lit> = (0..w).map(|_| Lit::pos(self.sat.new_var())).collect();
                    self.cache.var_bits.insert(v, out.clone());
                    bv.insert(t, out);
                }
                crate::sort::Sort::Memory => {
                    panic!("memory variable reached the bit-blaster; run array elimination first")
                }
            },
            Op::Not => {
                let l = self.cached_lit(a[0]);
                self.cache.bool_cache.insert(t, l.negate());
            }
            Op::And => {
                let lits: Vec<Lit> = a.iter().map(|&x| self.cached_lit(x)).collect();
                let g = self.gate_and(&lits);
                self.cache.bool_cache.insert(t, g);
            }
            Op::Or => {
                let neg: Vec<Lit> = a.iter().map(|&x| self.cached_lit(x).negate()).collect();
                let g = self.gate_and(&neg).negate();
                self.cache.bool_cache.insert(t, g);
            }
            Op::Xor => {
                let g = self.gate_xor(self.cached_lit(a[0]), self.cached_lit(a[1]));
                self.cache.bool_cache.insert(t, g);
            }
            Op::Eq => {
                let g = if self.bank.sort(a[0]).is_bool() {
                    self.gate_xor(self.cached_lit(a[0]), self.cached_lit(a[1])).negate()
                } else {
                    self.gate_bv_eq(bits(a[0]), bits(a[1]))
                };
                self.cache.bool_cache.insert(t, g);
            }
            Op::Ite => {
                let out = self.gate_mux_vec(self.cached_lit(a[0]), bits(a[1]), bits(a[2]));
                bv.insert(t, out);
            }
            Op::BvNot => {
                let out: Vec<Lit> = bits(a[0]).iter().map(|l| l.negate()).collect();
                bv.insert(t, out);
            }
            Op::BvNeg => {
                let neg: Vec<Lit> = bits(a[0]).iter().map(|l| l.negate()).collect();
                let one = self.lit_true();
                let out = self.gate_add(&neg, None, one);
                bv.insert(t, out);
            }
            Op::BvAdd => {
                let f = self.lit_false();
                let out = self.gate_add(bits(a[0]), Some(bits(a[1])), f);
                bv.insert(t, out);
            }
            Op::BvSub => {
                let nb: Vec<Lit> = bits(a[1]).iter().map(|l| l.negate()).collect();
                let one = self.lit_true();
                let out = self.gate_add(bits(a[0]), Some(&nb), one);
                bv.insert(t, out);
            }
            Op::BvMul => {
                let out = self.gate_mul(bits(a[0]), bits(a[1]));
                bv.insert(t, out);
            }
            Op::BvUdiv => {
                let (q, _) = self.gate_divrem(bits(a[0]), bits(a[1]));
                bv.insert(t, q);
            }
            Op::BvUrem => {
                let (_, r) = self.gate_divrem(bits(a[0]), bits(a[1]));
                bv.insert(t, r);
            }
            Op::BvSdiv | Op::BvSrem => {
                panic!("signed division must be lowered before bit-blasting")
            }
            Op::BvAnd => {
                let pairs = bits(a[0]).iter().zip(bits(a[1]));
                let out: Vec<Lit> = pairs.map(|(&x, &y)| self.gate_and2(x, y)).collect();
                bv.insert(t, out);
            }
            Op::BvOr => {
                let pairs = bits(a[0]).iter().zip(bits(a[1]));
                let out: Vec<Lit> = pairs.map(|(&x, &y)| self.gate_or2(x, y)).collect();
                bv.insert(t, out);
            }
            Op::BvXor => {
                let pairs = bits(a[0]).iter().zip(bits(a[1]));
                let out: Vec<Lit> = pairs.map(|(&x, &y)| self.gate_xor(x, y)).collect();
                bv.insert(t, out);
            }
            Op::BvShl => {
                let out = self.gate_shift(bits(a[0]), bits(a[1]), ShiftKind::Left);
                bv.insert(t, out);
            }
            Op::BvLshr => {
                let out = self.gate_shift(bits(a[0]), bits(a[1]), ShiftKind::LogicalRight);
                bv.insert(t, out);
            }
            Op::BvAshr => {
                let out = self.gate_shift(bits(a[0]), bits(a[1]), ShiftKind::ArithRight);
                bv.insert(t, out);
            }
            Op::BvUlt => {
                let g = self.gate_lt(bits(a[0]), bits(a[1]), false);
                self.cache.bool_cache.insert(t, g);
            }
            Op::BvUle => {
                let g = self.gate_lt(bits(a[1]), bits(a[0]), false).negate();
                self.cache.bool_cache.insert(t, g);
            }
            Op::BvSlt => {
                let g = self.gate_lt(bits(a[0]), bits(a[1]), true);
                self.cache.bool_cache.insert(t, g);
            }
            Op::BvSle => {
                let g = self.gate_lt(bits(a[1]), bits(a[0]), true).negate();
                self.cache.bool_cache.insert(t, g);
            }
            Op::ZeroExt(to) => {
                let mut out = bits(a[0]).to_vec();
                out.resize(to as usize, self.lit_false());
                bv.insert(t, out);
            }
            Op::SignExt(to) => {
                let mut out = bits(a[0]).to_vec();
                let msb = *out.last().expect("nonempty bitvector");
                out.resize(to as usize, msb);
                bv.insert(t, out);
            }
            Op::Extract { hi, lo } => {
                let out = bits(a[0])[lo as usize..=hi as usize].to_vec();
                bv.insert(t, out);
            }
            Op::Concat => {
                let mut out = bits(a[1]).to_vec();
                out.extend_from_slice(bits(a[0]));
                bv.insert(t, out);
            }
            Op::Select | Op::Store => {
                panic!("array operation reached the bit-blaster; run array elimination first")
            }
        }
        self.cache.bv_cache = bv;
    }

    // -- gates ------------------------------------------------------------

    /// `g ↔ ⋀ lits` (with short-circuits for empty/unit/constant inputs).
    /// Two live inputs go to the hashed [`Self::gate_and2`]; wider
    /// conjunctions get a fresh gate.
    fn gate_and(&mut self, lits: &[Lit]) -> Lit {
        let mut essential = Vec::with_capacity(lits.len());
        for &l in lits {
            if l == self.lit_false() {
                return self.lit_false();
            }
            if l != self.lit_true() {
                essential.push(l);
            }
        }
        essential.sort_unstable();
        essential.dedup();
        match essential.len() {
            0 => self.lit_true(),
            1 => essential[0],
            2 => self.gate_and2(essential[0], essential[1]),
            _ => {
                let g = Lit::pos(self.sat.new_var());
                let mut long = Vec::with_capacity(essential.len() + 1);
                long.push(g);
                for &l in &essential {
                    self.sat.add_clause(&[g.negate(), l]);
                    long.push(l.negate());
                }
                self.sat.add_clause(&long);
                g
            }
        }
    }

    /// `g ↔ a ∧ b`, hashed on the unordered operand pair.
    fn gate_and2(&mut self, a: Lit, b: Lit) -> Lit {
        let (t, f) = (self.lit_true(), self.lit_false());
        if a == f || b == f || a == b.negate() {
            return f;
        }
        if a == t || a == b {
            return b;
        }
        if b == t {
            return a;
        }
        let key = pair_key(a, b);
        let cache = &mut *self.cache;
        hashed_gate(&mut cache.and_gates, &mut cache.gates_reused, self.sat, key, |sat, g| {
            sat.add_clause(&[g.negate(), a]);
            sat.add_clause(&[g.negate(), b]);
            sat.add_clause(&[g, a.negate(), b.negate()]);
        })
    }

    /// `g ↔ a ∨ b`, as the hashed `¬(¬a ∧ ¬b)`.
    fn gate_or2(&mut self, a: Lit, b: Lit) -> Lit {
        self.gate_and2(a.negate(), b.negate()).negate()
    }

    /// `g ↔ a ⊕ b`. The gate is over the positive operands: `¬x ⊕ y` is
    /// `¬(x ⊕ y)`, so every sign combination shares one variable.
    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.lit_false() {
            return b;
        }
        if b == self.lit_false() {
            return a;
        }
        if a == self.lit_true() {
            return b.negate();
        }
        if b == self.lit_true() {
            return a.negate();
        }
        if a == b {
            return self.lit_false();
        }
        if a == b.negate() {
            return self.lit_true();
        }
        let (x, y) = (Lit::pos(a.var()), Lit::pos(b.var()));
        let key = pair_key(x, y);
        let cache = &mut *self.cache;
        let g = hashed_gate(&mut cache.xor_gates, &mut cache.gates_reused, self.sat, key, |sat, g| {
            sat.add_clause(&[g.negate(), x, y]);
            sat.add_clause(&[g.negate(), x.negate(), y.negate()]);
            sat.add_clause(&[g, x.negate(), y]);
            sat.add_clause(&[g, x, y.negate()]);
        });
        if a.is_pos() == b.is_pos() {
            g
        } else {
            g.negate()
        }
    }

    /// `g ↔ ite(c, a, b)`, hashed with the select made positive:
    /// `ite(¬c, a, b)` is `ite(c, b, a)`.
    fn gate_mux(&mut self, c: Lit, a: Lit, b: Lit) -> Lit {
        if c == self.lit_true() {
            return a;
        }
        if c == self.lit_false() {
            return b;
        }
        if a == b {
            return a;
        }
        let (c, a, b) = if c.is_pos() { (c, a, b) } else { (c.negate(), b, a) };
        let key = u128::from(c.code()) << 64 | u128::from(a.code()) << 32 | u128::from(b.code());
        let cache = &mut *self.cache;
        hashed_gate(&mut cache.mux_gates, &mut cache.gates_reused, self.sat, key, |sat, g| {
            sat.add_clause(&[c.negate(), a.negate(), g]);
            sat.add_clause(&[c.negate(), a, g.negate()]);
            sat.add_clause(&[c, b.negate(), g]);
            sat.add_clause(&[c, b, g.negate()]);
        })
    }

    fn gate_mux_vec(&mut self, c: Lit, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        a.iter().zip(b).map(|(&x, &y)| self.gate_mux(c, x, y)).collect()
    }

    /// Ripple-carry addition; `b = None` means adding zero (used by neg).
    fn gate_add(&mut self, a: &[Lit], b: Option<&[Lit]>, carry_in: Lit) -> Vec<Lit> {
        let mut carry = carry_in;
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let x = a[i];
            let y = b.map_or(self.lit_false(), |b| b[i]);
            let xy = self.gate_xor(x, y);
            let sum = self.gate_xor(xy, carry);
            // carry-out = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            let and1 = self.gate_and2(x, y);
            let and2 = self.gate_and2(carry, xy);
            carry = self.gate_or2(and1, and2);
            out.push(sum);
        }
        out
    }

    /// Shift-and-add multiplier truncated to the operand width.
    fn gate_mul(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let n = a.len();
        let mut acc: Vec<Lit> = vec![self.lit_false(); n];
        for i in 0..n {
            // partial = (a << i) & replicate(b[i])
            let mut partial = vec![self.lit_false(); n];
            for j in 0..(n - i) {
                partial[i + j] = self.gate_and2(a[j], b[i]);
            }
            let f = self.lit_false();
            acc = self.gate_add(&acc, Some(&partial), f);
        }
        acc
    }

    /// Restoring division producing `(quotient, remainder)` with SMT-LIB
    /// semantics for division by zero.
    fn gate_divrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let n = a.len();
        let f = self.lit_false();
        // Work with (n+1)-bit partial remainders so `2r + bit` cannot wrap.
        let mut r: Vec<Lit> = vec![f; n + 1];
        let bext: Vec<Lit> = b.iter().copied().chain([f]).collect();
        let mut q = vec![f; n];
        for i in (0..n).rev() {
            // r = (r << 1) | a[i]
            let mut shifted = Vec::with_capacity(n + 1);
            shifted.push(a[i]);
            shifted.extend(r[..n].iter().copied());
            // ge = shifted >= bext  ⇔  ¬(shifted < bext)
            let ge = self.gate_lt(&shifted, &bext, false).negate();
            // diff = shifted - bext
            let nb: Vec<Lit> = bext.iter().map(|l| l.negate()).collect();
            let one = self.lit_true();
            let diff = self.gate_add(&shifted, Some(&nb), one);
            r = self.gate_mux_vec(ge, &diff, &shifted);
            q[i] = ge;
        }
        let rem: Vec<Lit> = r[..n].to_vec();
        // Division by zero: quotient = all ones, remainder = a.
        let nonzero: Vec<Lit> = b.to_vec();
        let b_is_zero = self.gate_and(&nonzero.iter().map(|l| l.negate()).collect::<Vec<_>>());
        let ones = vec![self.lit_true(); n];
        let q_final = self.gate_mux_vec(b_is_zero, &ones, &q);
        let r_final = self.gate_mux_vec(b_is_zero, a, &rem);
        (q_final, r_final)
    }

    /// Barrel shifter with explicit overflow handling (`k >= n` gives the
    /// fill value on every bit, matching SMT-LIB shift semantics).
    fn gate_shift(&mut self, a: &[Lit], k: &[Lit], kind: ShiftKind) -> Vec<Lit> {
        let n = a.len();
        let fill = match kind {
            ShiftKind::ArithRight => *a.last().expect("nonempty"),
            _ => self.lit_false(),
        };
        let mut cur = a.to_vec();
        let mut stage = 0u32;
        while (1usize << stage) < n {
            let amount = 1usize << stage;
            let ctrl = k[stage as usize];
            let mut shifted = vec![fill; n];
            match kind {
                ShiftKind::Left => {
                    let zero = self.lit_false();
                    for s in shifted.iter_mut().take(amount) {
                        *s = zero;
                    }
                    shifted[amount..n].copy_from_slice(&cur[..n - amount]);
                }
                ShiftKind::LogicalRight | ShiftKind::ArithRight => {
                    shifted[..n - amount].copy_from_slice(&cur[amount..n]);
                }
            }
            cur = self.gate_mux_vec(ctrl, &shifted, &cur);
            stage += 1;
        }
        // Overflow: a shift amount >= n yields the fill value everywhere.
        // A plain high-bit check is wrong for non-power-of-two widths (e.g.
        // k = 96 at width 96 has no bit of weight >= 2^7), so compare
        // against the constant n directly.
        let n_bits: Vec<Lit> = (0..n)
            .map(|i| {
                if (n as u128 >> i) & 1 == 1 {
                    self.lit_true()
                } else {
                    self.lit_false()
                }
            })
            .collect();
        let in_range = self.gate_lt(k, &n_bits, false);
        let fill_vec = vec![fill; n];
        self.gate_mux_vec(in_range, &cur, &fill_vec)
    }

    /// `g ↔ a <u b`, or `a <s b` when `signed`: flipping both sign bits
    /// maps the signed order onto the unsigned one.
    fn gate_lt(&mut self, a: &[Lit], b: &[Lit], signed: bool) -> Lit {
        let mut lt = self.lit_false();
        let msb = a.len() - 1;
        for i in 0..a.len() {
            let (x, y) =
                if signed && i == msb { (a[i].negate(), b[i].negate()) } else { (a[i], b[i]) };
            // from LSB to MSB: lt = (¬x_i ∧ y_i) ∨ ((x_i ↔ y_i) ∧ lt)
            let strictly = self.gate_and2(x.negate(), y);
            let eq = self.gate_xor(x, y).negate();
            let carry = self.gate_and2(eq, lt);
            lt = self.gate_or2(strictly, carry);
        }
        lt
    }

    /// `g ↔ (a = b)` for bitvectors.
    fn gate_bv_eq(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let xnors: Vec<Lit> = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| self.gate_xor(x, y).negate())
            .collect();
        self.gate_and(&xnors)
    }
}

/// Kinds of shift, selecting fill and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShiftKind {
    Left,
    LogicalRight,
    ArithRight,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::Sort;

    /// Allocates a probe variable and returns its index: two probes one
    /// apart mean nothing else allocated a variable between them.
    fn probe(sat: &mut SatSolver) -> u32 {
        sat.new_var().0
    }

    #[test]
    fn signed_compare_reuses_the_sign_flipped_unsigned_circuit() {
        let mut bank = TermBank::new();
        let a = bank.mk_var("a", Sort::BitVec(8));
        let b = bank.mk_var("b", Sort::BitVec(8));
        let sign = bank.mk_bv(8, 0x80);
        let slt = bank.mk_bvslt(a, b);
        let (fa, fb) = (bank.mk_bvxor(a, sign), bank.mk_bvxor(b, sign));
        let ult = bank.mk_bvult(fa, fb);
        assert_ne!(slt, ult, "the term bank must not already unify the two");
        let (mut sat, mut cache) = (SatSolver::new(), BlastCache::new());
        let mut blaster = BitBlaster::new(&bank, &mut sat, &mut cache);
        let signed = blaster.lit(slt);
        let (before, reused) = (probe(blaster.sat), blaster.cache.gates_reused());
        let unsigned = blaster.lit(ult);
        assert_eq!(signed, unsigned);
        assert_eq!(probe(blaster.sat), before + 1, "the unsigned chain allocated a variable");
        assert!(blaster.cache.gates_reused() > reused);
    }

    #[test]
    fn xor_carries_operand_signs_on_one_shared_variable() {
        let bank = TermBank::new();
        let (mut sat, mut cache) = (SatSolver::new(), BlastCache::new());
        let (x, y) = (Lit::pos(sat.new_var()), Lit::pos(sat.new_var()));
        let mut blaster = BitBlaster::new(&bank, &mut sat, &mut cache);
        let g = blaster.gate_xor(x, y);
        let before = probe(blaster.sat);
        assert_eq!(blaster.gate_xor(x.negate(), y), g.negate());
        assert_eq!(blaster.gate_xor(y, x.negate()), g.negate());
        assert_eq!(blaster.gate_xor(x.negate(), y.negate()), g);
        assert_eq!(probe(blaster.sat), before + 1);
        assert_eq!(blaster.cache.gates_reused(), 3);
    }

    #[test]
    fn mux_with_negated_select_reuses_the_swapped_mux() {
        let bank = TermBank::new();
        let (mut sat, mut cache) = (SatSolver::new(), BlastCache::new());
        let [c, a, b] = [(); 3].map(|()| Lit::pos(sat.new_var()));
        let mut blaster = BitBlaster::new(&bank, &mut sat, &mut cache);
        let g = blaster.gate_mux(c, b, a);
        let before = probe(blaster.sat);
        assert_eq!(blaster.gate_mux(c.negate(), a, b), g);
        assert_ne!(blaster.gate_mux(c, a, b), g, "ite(c, a, b) is a different gate");
        assert_eq!(probe(blaster.sat), before + 2);
        assert_eq!(blaster.cache.gates_reused(), 1);
    }

    #[test]
    fn and_of_a_literal_and_its_complement_is_false() {
        let bank = TermBank::new();
        let (mut sat, mut cache) = (SatSolver::new(), BlastCache::new());
        let l = Lit::pos(sat.new_var());
        let mut blaster = BitBlaster::new(&bank, &mut sat, &mut cache);
        let before = probe(blaster.sat);
        let f = blaster.lit_false();
        assert_eq!(blaster.gate_and2(l, l.negate()), f);
        assert_eq!(blaster.gate_and2(l.negate(), l), f);
        assert_eq!(blaster.gate_and(&[l.negate(), l]), f);
        assert_eq!(blaster.gate_or2(l, l.negate()), f.negate());
        assert_eq!(probe(blaster.sat), before + 1);
    }
}
