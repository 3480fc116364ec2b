//! A CDCL SAT solver.
//!
//! This is the decision engine at the bottom of the solver pipeline,
//! standing in for Z3's boolean core: conflict-driven clause learning with
//! two-watched-literal propagation, 1UIP conflict analysis with recursive
//! clause minimization, VSIDS-style variable activity, phase saving, Luby
//! restarts, and learnt-clause database reduction.
//!
//! The layout is flat for memory locality. Every clause lives in one
//! `Vec<u32>` arena: a [`HEADER`] (length, `lbd << 1 | learnt`, and the
//! activity `f64` as two words) followed by its literals, and a clause is
//! named by its arena offset. Assignments are indexed by literal, so reading
//! a literal's value is one load, and conflict analysis, minimization and
//! clause addition work in buffers the solver owns, so a conflict allocates
//! nothing. Database reduction compacts the arena in clause order.
//!
//! The solver is deterministic: identical inputs produce identical
//! search behavior, which keeps the experiment harnesses reproducible. The
//! search itself is part of the contract, because which queries exhaust a
//! conflict budget decides verdicts downstream: the order of watcher visits
//! and literal swaps, of analysis and minimization, of the activity sort in
//! reduction, and the phase, VSIDS and restart policies are pinned by the
//! `search_is_pinned` test.

use std::fmt;

use crate::cancel::{stop_requested, CancelToken};

/// A boolean variable (0-based index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BVar(pub u32);

/// A literal: a variable together with a polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Positive literal of `v`.
    pub fn pos(v: BVar) -> Lit {
        Lit(v.0 << 1)
    }

    /// Negative literal of `v`.
    pub fn neg(v: BVar) -> Lit {
        Lit((v.0 << 1) | 1)
    }

    /// Literal of `v` with the given sign (`true` = positive).
    pub fn new(v: BVar, positive: bool) -> Lit {
        if positive {
            Lit::pos(v)
        } else {
            Lit::neg(v)
        }
    }

    /// The underlying variable.
    pub fn var(self) -> BVar {
        BVar(self.0 >> 1)
    }

    /// `true` if the literal is positive.
    pub fn is_pos(self) -> bool {
        self.0 & 1 == 0
    }

    /// The complementary literal.
    pub fn negate(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// The raw code `2·var + sign`: distinct literals have distinct codes,
    /// and a literal and its complement differ only in the low bit.
    pub fn code(self) -> u32 {
        self.0
    }

    fn index(self) -> usize {
        self.0 as usize
    }

    fn var_index(self) -> usize {
        (self.0 >> 1) as usize
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_pos() {
            write!(f, "x{}", self.var().0)
        } else {
            write!(f, "-x{}", self.var().0)
        }
    }
}

/// Tri-state assignment value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Outcome of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable; the vector gives one value per variable.
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// A resource limit was hit before a verdict.
    Budget(SatBudget),
}

/// Which limit stopped the search. Conflict exhaustion and wall-clock
/// expiry are *different* failure classes downstream (the paper's timeout
/// rows distinguish them), so the solver must not conflate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SatBudget {
    /// The per-call conflict budget ran out.
    Conflicts,
    /// The wall-clock deadline elapsed or cancellation was requested.
    Deadline,
}

/// Words of a clause header in the arena: the literal count, then
/// `lbd << 1 | learnt`, then the activity `f64` as low and high words.
///
/// The LBD (literal-block distance) is the number of distinct decision
/// levels in a learnt clause when it was derived. Glue clauses (LBD ≤ 2)
/// chain propagations between exactly two levels and are exempt from
/// database reduction. It is zero for problem clauses.
const HEADER: usize = 4;

/// A clause's offset in the arena.
type ClauseRef = u32;

/// `reason` of a variable that is unassigned, decided, assumed, or a unit
/// fact; no clause starts at this offset.
const NO_REASON: ClauseRef = ClauseRef::MAX;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Heap position of a variable that is not in the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// Max-heap over variables ordered by activity, with position index for
/// O(log n) updates.
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<BVar>,
    position: Vec<u32>,
}

impl VarOrder {
    fn grow(&mut self, nvars: usize) {
        self.position.resize(nvars, NOT_IN_HEAP);
    }

    fn contains(&self, v: BVar) -> bool {
        self.position[v.0 as usize] != NOT_IN_HEAP
    }

    fn push(&mut self, v: BVar, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.position[v.0 as usize] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    fn pop(&mut self, activity: &[f64]) -> Option<BVar> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("nonempty");
        self.position[top.0 as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.position[last.0 as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    fn bump(&mut self, v: BVar, activity: &[f64]) {
        if self.contains(v) {
            self.sift_up(self.position[v.0 as usize] as usize, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i].0 as usize] <= activity[self.heap[parent].0 as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l].0 as usize] > activity[self.heap[best].0 as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r].0 as usize] > activity[self.heap[best].0 as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.position[self.heap[i].0 as usize] = i as u32;
        self.position[self.heap[j].0 as usize] = j as u32;
    }
}

/// The CDCL solver.
#[derive(Debug)]
pub struct SatSolver {
    /// Every clause, problem and learnt, as a [`HEADER`] and its literals.
    arena: Vec<u32>,
    num_clauses: usize,
    watches: Vec<Vec<Watcher>>,
    /// Value of each literal, indexed by [`Lit::index`].
    values: Vec<LBool>,
    phase: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    propagate_head: usize,
    activity: Vec<f64>,
    var_inc: f64,
    clause_inc: f64,
    order: VarOrder,
    seen: Vec<bool>,
    /// Per-decision-level mark of the last LBD count that met the level.
    level_stamp: Vec<u64>,
    stamp: u64,
    /// Reused buffers: the clause being learnt, the clause being added,
    /// and the minimization walk's stack and marked variables.
    learnt: Vec<Lit>,
    adding: Vec<Lit>,
    redundant_stack: Vec<(ClauseRef, usize)>,
    redundant_touched: Vec<BVar>,
    ok: bool,
    num_learnt: usize,
    conflicts: u64,
    restarts: u64,
    lbd_kept: u64,
}

impl Default for SatSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl SatSolver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        SatSolver {
            arena: Vec::new(),
            num_clauses: 0,
            watches: Vec::new(),
            values: Vec::new(),
            phase: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            propagate_head: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            clause_inc: 1.0,
            order: VarOrder::default(),
            seen: Vec::new(),
            level_stamp: Vec::new(),
            stamp: 0,
            learnt: Vec::new(),
            adding: Vec::new(),
            redundant_stack: Vec::new(),
            redundant_touched: Vec::new(),
            ok: true,
            num_learnt: 0,
            conflicts: 0,
            restarts: 0,
            lbd_kept: 0,
        }
    }

    /// Total conflicts encountered over the solver's lifetime.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Total restarts taken over the solver's lifetime.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Cumulative count of glue clauses (learn-time LBD ≤ 2) that database
    /// reductions exempted from deletion.
    pub fn lbd_kept(&self) -> u64 {
        self.lbd_kept
    }

    /// Number of learnt clauses currently retained in the database.
    ///
    /// Incremental sessions use this to report how much derived knowledge
    /// survives between queries (the paper's Z3 backend gets the same
    /// effect from `push`/`pop`-free assumption solving).
    pub fn learnt_clauses(&self) -> usize {
        self.num_learnt
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> BVar {
        let v = BVar(u32::try_from(self.phase.len()).expect("too many SAT vars"));
        self.values.push(LBool::Undef);
        self.values.push(LBool::Undef);
        self.phase.push(false);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order.grow(self.phase.len());
        self.order.push(v, &self.activity);
        v
    }

    fn value_lit(&self, l: Lit) -> LBool {
        self.values[l.index()]
    }

    fn clause_len(&self, cref: ClauseRef) -> usize {
        self.arena[cref as usize] as usize
    }

    fn clause_lit(&self, cref: ClauseRef, k: usize) -> Lit {
        Lit(self.arena[cref as usize + HEADER + k])
    }

    fn is_learnt(&self, cref: ClauseRef) -> bool {
        self.arena[cref as usize + 1] & 1 == 1
    }

    fn lbd(&self, cref: ClauseRef) -> u32 {
        self.arena[cref as usize + 1] >> 1
    }

    fn activity(&self, cref: ClauseRef) -> f64 {
        let c = cref as usize;
        f64::from_bits(u64::from(self.arena[c + 2]) | u64::from(self.arena[c + 3]) << 32)
    }

    fn set_activity(&mut self, cref: ClauseRef, a: f64) {
        let c = cref as usize;
        let bits = a.to_bits();
        self.arena[c + 2] = bits as u32;
        self.arena[c + 3] = (bits >> 32) as u32;
    }

    /// Offsets of every clause in the arena, in clause order.
    fn clause_refs(&self) -> impl Iterator<Item = ClauseRef> + '_ {
        let mut c = 0;
        std::iter::from_fn(move || {
            let cref = c;
            (cref < self.arena.len()).then(|| {
                c += HEADER + self.arena[cref] as usize;
                cref as ClauseRef
            })
        })
    }

    /// Adds a clause; returns `false` if the formula became trivially unsat.
    ///
    /// Clauses may be added only at decision level zero (i.e., before
    /// [`SatSolver::solve_under_assumptions`] or between calls).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        debug_assert!(self.trail_lim.is_empty(), "add_clause above level 0");
        if !self.ok {
            return false;
        }
        let mut c = std::mem::take(&mut self.adding);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        // Tautology or satisfied/falsified literal handling at level 0:
        // the unassigned literals are compacted to the front.
        let mut live = 0;
        let mut satisfied = false;
        for i in 0..c.len() {
            let l = c[i];
            // A tautology (l ∨ ¬l) sorts its two literals side by side.
            if (i + 1 < c.len() && c[i + 1] == l.negate()) || self.value_lit(l) == LBool::True {
                satisfied = true;
                break;
            }
            if self.value_lit(l) == LBool::Undef {
                c[live] = l;
                live += 1;
            }
        }
        let ok = match live {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&c[..live], false, 0);
                true
            }
        };
        self.adding = c;
        ok
    }

    fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = ClauseRef::try_from(self.arena.len())
            .ok()
            .filter(|&c| c != NO_REASON)
            .expect("clause arena exceeds u32 offsets");
        self.watches[lits[0].negate().index()].push(Watcher { cref, blocker: lits[1] });
        self.watches[lits[1].negate().index()].push(Watcher { cref, blocker: lits[0] });
        if learnt {
            self.num_learnt += 1;
        }
        self.num_clauses += 1;
        self.arena.extend([lits.len() as u32, lbd << 1 | u32::from(learnt), 0, 0]);
        self.arena.extend(lits.iter().map(|l| l.0));
        cref
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.value_lit(l), LBool::Undef);
        let v = l.var_index();
        self.values[l.index()] = LBool::True;
        self.values[l.negate().index()] = LBool::False;
        self.phase[v] = l.is_pos();
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Two-watched-literal unit propagation; returns a conflicting clause.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.propagate_head < self.trail.len() {
            let p = self.trail[self.propagate_head];
            self.propagate_head += 1;
            let false_lit = p.negate();
            let mut i = 0;
            let mut j = 0;
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                if self.values[w.blocker.index()] == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                let start = cref as usize + HEADER;
                let len = self.arena[cref as usize] as usize;
                let lits = &mut self.arena[start..start + len];
                // Make sure the false literal is at position 1.
                if lits[0] == false_lit.0 {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit.0);
                let first = Lit(lits[0]);
                if first != w.blocker && self.values[first.index()] == LBool::True {
                    ws[j] = Watcher { cref, blocker: first };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in 2..len {
                    let lk = Lit(self.arena[start + k]);
                    if self.values[lk.index()] != LBool::False {
                        self.arena.swap(start + 1, start + k);
                        self.watches[lk.negate().index()].push(Watcher { cref, blocker: first });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = Watcher { cref, blocker: first };
                j += 1;
                if self.values[first.index()] == LBool::False {
                    // Conflict: copy remaining watchers back and bail.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: BVar) {
        self.activity[v.0 as usize] += self.var_inc;
        if self.activity[v.0 as usize] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order.bump(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let a = self.activity(cref) + self.clause_inc;
        self.set_activity(cref, a);
        if a > 1e20 {
            let mut c = 0;
            while c < self.arena.len() {
                let cref = c as ClauseRef;
                self.set_activity(cref, self.activity(cref) * 1e-20);
                c += HEADER + self.arena[c] as usize;
            }
            self.clause_inc *= 1e-20;
        }
    }

    /// 1UIP conflict analysis into `learnt` (asserting literal first);
    /// returns (backtrack level, learn-time LBD). The LBD must be computed
    /// here — after backtracking the `level` array no longer reflects the
    /// levels the clause was derived under.
    fn analyze(&mut self, conflict: ClauseRef, learnt: &mut Vec<Lit>) -> (u32, u32) {
        learnt.clear();
        learnt.push(Lit(0)); // placeholder for asserting literal
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cref = conflict;
        loop {
            self.bump_clause(cref);
            let start = usize::from(p.is_some());
            for k in start..self.clause_len(cref) {
                let q = self.clause_lit(cref, k);
                let v = q.var_index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select next literal to expand from the trail.
            loop {
                index -= 1;
                let l = self.trail[index];
                if self.seen[l.var_index()] {
                    p = Some(l);
                    break;
                }
            }
            let pv = p.expect("found literal").var_index();
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = p.expect("asserting literal").negate();
                break;
            }
            cref = self.reason[pv];
            debug_assert_ne!(cref, NO_REASON, "non-decision literal has a reason");
        }
        // Recursive minimization: drop literals implied by the rest. The
        // kept literals move to the front in order; the dropped ones stay
        // behind them until every literal's mark is cleared.
        let mut kept = 1;
        for i in 1..learnt.len() {
            if !self.literal_redundant(learnt[i]) {
                learnt.swap(kept, i);
                kept += 1;
            }
        }
        for &l in &learnt[1..] {
            self.seen[l.var_index()] = false;
        }
        learnt.truncate(kept);
        // Backtrack level: second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var_index()] > self.level[learnt[max_i].var_index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var_index()]
        };
        // LBD: count the distinct levels, marking each level with this
        // conflict's stamp the first time a literal meets it.
        self.stamp += 1;
        let top = self.decision_level() as usize;
        if self.level_stamp.len() <= top {
            self.level_stamp.resize(top + 1, 0);
        }
        let mut lbd = 0;
        for l in learnt.iter() {
            let lv = self.level[l.var_index()] as usize;
            if self.level_stamp[lv] != self.stamp {
                self.level_stamp[lv] = self.stamp;
                lbd += 1;
            }
        }
        (bt, lbd)
    }

    /// Checks whether `l` is implied by the other seen literals (bounded
    /// non-recursive DFS over reasons).
    fn literal_redundant(&mut self, l: Lit) -> bool {
        let reason = self.reason[l.var_index()];
        if reason == NO_REASON {
            return false;
        }
        let mut stack = std::mem::take(&mut self.redundant_stack);
        let mut touched = std::mem::take(&mut self.redundant_touched);
        stack.clear();
        touched.clear();
        stack.push((reason, 1));
        let mut depth_guard = 0;
        let mut redundant = true;
        'walk: while let Some((cref, mut k)) = stack.pop() {
            depth_guard += 1;
            if depth_guard > 10_000 {
                redundant = false;
                break;
            }
            while k < self.clause_len(cref) {
                let q = self.clause_lit(cref, k);
                k += 1;
                let vi = q.var_index();
                if self.seen[vi] || self.level[vi] == 0 {
                    continue;
                }
                let r = self.reason[vi];
                if r == NO_REASON {
                    // Reached a decision not in the learnt clause: keep l.
                    redundant = false;
                    break 'walk;
                }
                self.seen[vi] = true;
                touched.push(q.var());
                stack.push((cref, k));
                stack.push((r, 1));
                break;
            }
        }
        // Clear the marks this walk set: the touched variables are not in
        // the learnt clause, and `analyze` unmarks only the clause's own
        // literals.
        for v in &touched {
            self.seen[v.0 as usize] = false;
        }
        self.redundant_stack = stack;
        self.redundant_touched = touched;
        redundant
    }

    fn backtrack(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let bound = self.trail_lim[level as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            self.values[l.index()] = LBool::Undef;
            self.values[l.negate().index()] = LBool::Undef;
            self.reason[l.var_index()] = NO_REASON;
            self.order.push(l.var(), &self.activity);
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(level as usize);
        self.propagate_head = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        while let Some(v) = self.order.pop(&self.activity) {
            let l = Lit::new(v, self.phase[v.0 as usize]);
            if self.value_lit(l) == LBool::Undef {
                return Some(l);
            }
        }
        None
    }

    fn reduce_db(&mut self) {
        // Remove the less active half of learnt clauses that are not
        // reasons. Glue clauses (learn-time LBD ≤ 2) are kept
        // unconditionally: they bridge exactly two decision levels and are
        // the clauses most likely to propagate again; among the rest the
        // tie-break stays activity, as before.
        let mut learnt: Vec<(f64, ClauseRef)> = Vec::new();
        let mut glue = 0;
        for cref in self.clause_refs() {
            if self.is_learnt(cref) && self.clause_len(cref) > 2 {
                if self.lbd(cref) <= 2 {
                    glue += 1;
                } else {
                    learnt.push((self.activity(cref), cref));
                }
            }
        }
        self.lbd_kept += glue;
        if learnt.len() < 2 {
            return;
        }
        learnt.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        // A reason clause keeps its implied literal at position 0, so it is
        // locked exactly when it is the reason of that literal's variable.
        let mut removed: Vec<ClauseRef> = learnt[..learnt.len() / 2]
            .iter()
            .map(|&(_, cref)| cref)
            .filter(|&cref| self.reason[self.clause_lit(cref, 0).var_index()] != cref)
            .collect();
        if removed.is_empty() {
            return;
        }
        removed.sort_unstable();
        // Compact the arena in clause order and remap references.
        let mut remap = vec![NO_REASON; self.arena.len()];
        let mut removed_iter = removed.iter().peekable();
        let mut write = 0;
        let mut read = 0;
        while read < self.arena.len() {
            let size = HEADER + self.arena[read] as usize;
            if removed_iter.next_if_eq(&&(read as ClauseRef)).is_none() {
                remap[read] = write as ClauseRef;
                self.arena.copy_within(read..read + size, write);
                write += size;
            }
            read += size;
        }
        self.arena.truncate(write);
        self.num_learnt -= removed.len();
        self.num_clauses -= removed.len();
        for ws in &mut self.watches {
            ws.retain_mut(|w| {
                w.cref = remap[w.cref as usize];
                w.cref != NO_REASON
            });
        }
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = remap[*r as usize];
            }
        }
    }

    /// Whether the current assignment satisfies every problem clause and
    /// every assumption. Learnt clauses are implied by the problem clauses.
    /// Unit clauses, and clauses satisfied when added, never enter the
    /// arena; the level-0 assignments that made them so never change.
    fn model_satisfies(&self, assumptions: &[Lit]) -> bool {
        assumptions.iter().all(|&a| self.value_lit(a) == LBool::True)
            && self.clause_refs().filter(|&c| !self.is_learnt(c)).all(|c| {
                (0..self.clause_len(c))
                    .any(|k| self.value_lit(self.clause_lit(c, k)) == LBool::True)
            })
    }

    /// Solves the formula under a set of *assumption literals* (MiniSat
    /// style): each assumption is decided on its own decision level before
    /// any free decision, so an `Unsat` answer means "unsatisfiable
    /// together with the assumptions" and does **not** poison the solver —
    /// the clause database, including everything learnt during the call,
    /// is retained and the next call may assume a different set. With no
    /// assumptions this solves the formula itself.
    ///
    /// This is the engine under [`crate::solver::Session`]: a session
    /// asserts its shared prefix as hard clauses once, guards each query's
    /// delta behind a fresh activation literal, and solves assuming the
    /// activation literals of the current query only. Learnt clauses are
    /// sound to keep across calls because conflict analysis only resolves
    /// over database clauses — assumptions enter as decisions, never as
    /// reasons.
    ///
    /// The search stops with [`SatBudget::Conflicts`] after `max_conflicts`
    /// conflicts in this call. The deadline/cancellation pair is polled on
    /// *both* kinds of search progress: every [`CONFLICT_POLL_INTERVAL`]
    /// conflicts and every [`DECISION_POLL_INTERVAL`] decisions. Polling
    /// decisions matters on near-satisfiable instances that propagate for a
    /// long time without ever conflicting — with conflict-only polling
    /// those would sail past any deadline. An already-expired deadline is
    /// reported before the search takes a single decision.
    ///
    /// # Panics
    ///
    /// Panics if an assumption literal names a variable that was never
    /// allocated with [`SatSolver::new_var`].
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        max_conflicts: Option<u64>,
        deadline: Option<std::time::Instant>,
        cancel: Option<&CancelToken>,
    ) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SatOutcome::Unsat;
        }
        if stop_requested(deadline, cancel).is_some() {
            return SatOutcome::Budget(SatBudget::Deadline);
        }
        let mut luby_index = 0u32;
        let mut conflicts_until_restart = 100 * luby(luby_index);
        let mut conflicts_this_call = 0u64;
        let mut decisions_this_call = 0u64;
        let mut max_learnt = (self.num_clauses as f64 * 0.3).max(1000.0);
        loop {
            if let Some(conflict) = self.propagate() {
                self.conflicts += 1;
                conflicts_this_call += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                let mut learnt = std::mem::take(&mut self.learnt);
                let (bt, lbd) = self.analyze(conflict, &mut learnt);
                self.backtrack(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], NO_REASON);
                } else {
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(learnt[0], cref);
                }
                self.learnt = learnt;
                self.var_inc /= 0.95;
                self.clause_inc /= 0.999;
                if let Some(budget) = max_conflicts {
                    if conflicts_this_call >= budget {
                        self.backtrack(0);
                        return SatOutcome::Budget(SatBudget::Conflicts);
                    }
                }
                if conflicts_this_call.is_multiple_of(CONFLICT_POLL_INTERVAL)
                    && stop_requested(deadline, cancel).is_some()
                {
                    self.backtrack(0);
                    return SatOutcome::Budget(SatBudget::Deadline);
                }
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    luby_index += 1;
                    conflicts_until_restart = 100 * luby(luby_index);
                    self.restarts += 1;
                    self.backtrack(0);
                }
                if self.num_learnt as f64 > max_learnt {
                    self.reduce_db();
                    max_learnt *= 1.1;
                }
                decisions_this_call += 1;
                if decisions_this_call.is_multiple_of(DECISION_POLL_INTERVAL)
                    && stop_requested(deadline, cancel).is_some()
                {
                    self.backtrack(0);
                    return SatOutcome::Budget(SatBudget::Deadline);
                }
                // Assumptions are decided before any free decision, one
                // decision level each (level i+1 hosts assumptions[i]), so
                // restarts — which backtrack to level 0 — transparently
                // re-establish them on the next decision step.
                let mut enqueued_assumption = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value_lit(p) {
                        // Already implied: keep the level accounting with
                        // an empty decision level.
                        LBool::True => self.trail_lim.push(self.trail.len()),
                        // Falsified by the formula (plus earlier
                        // assumptions): unsat *under the assumptions* —
                        // the solver itself stays usable.
                        LBool::False => {
                            self.backtrack(0);
                            return SatOutcome::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(p, NO_REASON);
                            enqueued_assumption = true;
                            break;
                        }
                    }
                }
                if enqueued_assumption {
                    continue; // propagate the assumption before deciding
                }
                match self.pick_branch() {
                    None => {
                        debug_assert!(
                            self.model_satisfies(assumptions),
                            "Sat model falsifies a problem clause or an assumption"
                        );
                        let model =
                            self.values.iter().step_by(2).map(|&v| v == LBool::True).collect();
                        self.backtrack(0);
                        return SatOutcome::Sat(model);
                    }
                    Some(l) => {
                        self.trail_lim.push(self.trail.len());
                        self.unchecked_enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }
}

/// Deadline/cancellation poll cadence on the conflict path. `Instant::now`
/// is a vDSO call but still too costly to issue per conflict.
const CONFLICT_POLL_INTERVAL: u64 = 64;

/// Poll cadence on the decision path (covers conflict-free propagation).
const DECISION_POLL_INTERVAL: u64 = 64;

/// The Luby restart sequence: 1 1 2 1 1 2 4 ...
fn luby(i: u32) -> u64 {
    let mut x = u64::from(i);
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(s: &mut SatSolver, n: usize) -> Vec<BVar> {
        (0..n).map(|_| s.new_var()).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        match s.solve_under_assumptions(&[], None, None, None) {
            SatOutcome::Sat(m) => assert!(m[0]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        s.add_clause(&[Lit::neg(v[0])]);
        assert_eq!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = SatSolver::new();
        vars(&mut s, 1);
        assert!(!s.add_clause(&[]));
        assert_eq!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Unsat);
    }

    #[test]
    fn tautologies_are_dropped() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause(&[Lit::pos(v[0]), Lit::neg(v[0])]));
        assert!(matches!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Sat(_)));
    }

    #[test]
    fn chained_implications_propagate() {
        // x0 ∧ (x0 → x1) ∧ ... ∧ (x8 → x9)
        let mut s = SatSolver::new();
        let v = vars(&mut s, 10);
        s.add_clause(&[Lit::pos(v[0])]);
        for i in 0..9 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        match s.solve_under_assumptions(&[], None, None, None) {
            SatOutcome::Sat(m) => assert!(m.iter().all(|&b| b)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // 3 pigeons, 2 holes: p[i][j] means pigeon i in hole j.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 6);
        let p = |i: usize, j: usize| v[i * 2 + j];
        for i in 0..3 {
            s.add_clause(&[Lit::pos(p(i, 0)), Lit::pos(p(i, 1))]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_5_into_4_unsat() {
        let n = 5usize;
        let h = 4usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h);
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Unsat);
    }

    #[test]
    fn budget_terminates_hard_instance() {
        // Pigeonhole 8 into 7 is hard for CDCL; a tiny budget must bail.
        let n = 9usize;
        let h = 8usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h);
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j))]);
                }
            }
        }
        assert_eq!(
            s.solve_under_assumptions(&[], Some(10), None, None),
            SatOutcome::Budget(SatBudget::Conflicts)
        );
    }

    #[test]
    fn expired_deadline_reported_before_any_decision() {
        // A conflict-free instance: without decision-path polling the old
        // solver would happily return Sat even with an expired deadline.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 200);
        for i in 0..199 {
            s.add_clause(&[Lit::neg(v[i]), Lit::pos(v[i + 1])]);
        }
        let past = std::time::Instant::now() - std::time::Duration::from_millis(10);
        assert_eq!(
            s.solve_under_assumptions(&[], None, Some(past), None),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn conflict_free_search_polls_deadline_between_decisions() {
        // No clauses at all: the search is pure decisions. With enough
        // variables to cross the poll interval, a deadline that expires
        // mid-search must stop it.
        let mut s = SatSolver::new();
        vars(&mut s, 4 * DECISION_POLL_INTERVAL as usize);
        // Entry check passes (deadline in the future), then expires before
        // the decision counter reaches the first poll.
        let deadline = std::time::Instant::now() + std::time::Duration::from_micros(1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert_eq!(
            s.solve_under_assumptions(&[], None, Some(deadline), None),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn cancellation_token_stops_the_search() {
        let mut s = SatSolver::new();
        vars(&mut s, 4 * DECISION_POLL_INTERVAL as usize);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            s.solve_under_assumptions(&[], None, None, Some(&token)),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn unset_token_does_not_interfere() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        s.add_clause(&[Lit::pos(v[0])]);
        let token = CancelToken::new();
        assert!(matches!(
            s.solve_under_assumptions(&[], None, None, Some(&token)),
            SatOutcome::Sat(_)
        ));
    }

    #[test]
    fn model_satisfies_all_clauses() {
        // Random-ish 3-SAT instance, deterministic seed via LCG.
        let mut s = SatSolver::new();
        let n = 30usize;
        let v = vars(&mut s, n);
        let mut state = 0x12345678u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut clauses = Vec::new();
        for _ in 0..80 {
            let mut c = Vec::new();
            for _ in 0..3 {
                let var = v[rnd() % n];
                c.push(Lit::new(var, rnd() % 2 == 0));
            }
            clauses.push(c);
        }
        for c in &clauses {
            s.add_clause(c);
        }
        match s.solve_under_assumptions(&[], None, None, None) {
            SatOutcome::Sat(m) => {
                for c in &clauses {
                    assert!(
                        c.iter().any(|l| m[l.var().0 as usize] == l.is_pos()),
                        "model violates clause {c:?}"
                    );
                }
            }
            SatOutcome::Unsat => {} // possible but unlikely; still a valid outcome
            SatOutcome::Budget(k) => panic!("no budget was set, got {k:?}"),
        }
    }

    /// One call's observable result: outcome kind (0 sat, 1 unsat, 2
    /// conflict budget, 3 deadline), FNV-1a hash of the model (0 if none),
    /// then the solver's lifetime `conflicts`, `restarts`, `lbd_kept` and
    /// current `learnt_clauses` after the call.
    type CallRecord = [u64; 6];

    fn record(s: &SatSolver, outcome: &SatOutcome) -> CallRecord {
        let (kind, hash) = match outcome {
            SatOutcome::Sat(m) => {
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &b in m {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
                (0, h)
            }
            SatOutcome::Unsat => (1, 0),
            SatOutcome::Budget(SatBudget::Conflicts) => (2, 0),
            SatOutcome::Budget(SatBudget::Deadline) => (3, 0),
        };
        [kind, hash, s.conflicts(), s.restarts(), s.lbd_kept(), s.learnt_clauses() as u64]
    }

    /// The pinned call sequence: activation groups assumed, conflict budget.
    const CALLS: [(&[usize], Option<u64>); 6] = [
        (&[], None),
        (&[0], Some(40)),
        (&[1, 0], None),
        (&[2], None),
        (&[0, 1, 2], Some(700)),
        (&[2, 1], None),
    ];

    /// Runs the pinned workload: seeded random 3-SAT instances, each with
    /// three clause groups guarded by activation variables, solved under a
    /// fixed sequence of assumption sets, some with a conflict budget.
    fn pinned_runs() -> Vec<CallRecord> {
        let mut records = Vec::new();
        for (seed, n) in [(1u64, 100usize), (2, 140), (3, 180), (4, 160)] {
            let mut state = 0x12345678u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut rnd = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 33) as usize
            };
            let mut s = SatSolver::new();
            let v = vars(&mut s, n);
            let groups = vars(&mut s, 3);
            let mut clause = |s: &mut SatSolver, guard: Option<BVar>| {
                let mut c: Vec<Lit> =
                    (0..3).map(|_| Lit::new(v[rnd() % n], rnd() % 2 == 0)).collect();
                c.extend(guard.map(Lit::neg));
                s.add_clause(&c);
            };
            for _ in 0..(n * 39 / 10) {
                clause(&mut s, None);
            }
            for &g in &groups {
                for _ in 0..(n * 15 / 100) {
                    clause(&mut s, Some(g));
                }
            }
            for (assumed, budget) in CALLS {
                let assumptions: Vec<Lit> = assumed.iter().map(|&k| Lit::pos(groups[k])).collect();
                let outcome = s.solve_under_assumptions(&assumptions, budget, None, None);
                records.push(record(&s, &outcome));
            }
        }
        records
    }

    /// The search itself is pinned: every decision, propagation order,
    /// learnt clause, restart and database reduction shows up in these
    /// records, so any change to the solver's internals that alters the
    /// search (and with it which queries exhaust the harness's conflict
    /// budgets) fails here.
    #[test]
    fn search_is_pinned() {
        const EXPECTED: &[CallRecord] = &[
            [0, 12493072349086734957, 123, 1, 0, 123],
            [0, 2308798124647751086, 123, 1, 0, 123],
            [0, 1284725624061665553, 485, 3, 0, 485],
            [0, 13811789601569854647, 488, 3, 0, 488],
            [0, 13811789601569854647, 488, 3, 0, 488],
            [0, 13811789601569854647, 488, 3, 0, 488],
            [0, 4052631513440676855, 745, 5, 0, 745],
            [2, 0, 785, 5, 0, 785],
            [1, 0, 1497, 10, 15, 1005],
            [0, 10849497439592148547, 1716, 12, 36, 733],
            [1, 0, 1716, 12, 36, 733],
            [1, 0, 2095, 14, 59, 627],
            [0, 15985603005283735580, 492, 3, 0, 492],
            [2, 0, 532, 3, 0, 532],
            [0, 8437317907292006441, 3537, 17, 45, 1250],
            [0, 12728687706382649089, 3941, 20, 63, 1038],
            [2, 0, 4641, 25, 102, 691],
            [0, 13937712373034494642, 5551, 31, 156, 586],
            [0, 12420440089334660529, 825, 6, 0, 825],
            [2, 0, 865, 6, 0, 865],
            [1, 0, 2730, 18, 51, 1117],
            [0, 6638155525098798384, 3111, 20, 74, 952],
            [1, 0, 3111, 20, 74, 952],
            [1, 0, 3582, 23, 101, 940],
        ];
        let got = pinned_runs();
        // The workload must reach database reduction: one call runs more
        // than 1000 conflicts and glue clauses get counted as kept.
        let longest_call = got
            .chunks(CALLS.len())
            .flat_map(|instance| {
                instance.iter().scan(0, |prev, r| Some(r[2] - std::mem::replace(prev, r[2])))
            })
            .max();
        assert!(longest_call > Some(1000), "no call crossed 1000 conflicts");
        assert!(got.iter().any(|r| r[4] > 0), "reduce_db never ran");
        for (i, (g, e)) in got.iter().zip(EXPECTED).enumerate() {
            assert_eq!(g, e, "call {i} diverged from the pinned search");
        }
        assert_eq!(got.len(), EXPECTED.len());
    }

    #[test]
    fn assumptions_select_between_branches() {
        // (a → x) ∧ (b → ¬x): assuming a forces x, assuming b forces ¬x,
        // assuming both is unsat — all on the SAME solver instance.
        let mut s = SatSolver::new();
        let v = vars(&mut s, 3);
        let (a, b, x) = (v[0], v[1], v[2]);
        s.add_clause(&[Lit::neg(a), Lit::pos(x)]);
        s.add_clause(&[Lit::neg(b), Lit::neg(x)]);
        match s.solve_under_assumptions(&[Lit::pos(a)], None, None, None) {
            SatOutcome::Sat(m) => assert!(m[x.0 as usize]),
            other => panic!("expected sat, got {other:?}"),
        }
        match s.solve_under_assumptions(&[Lit::pos(b)], None, None, None) {
            SatOutcome::Sat(m) => assert!(!m[x.0 as usize]),
            other => panic!("expected sat, got {other:?}"),
        }
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(a), Lit::pos(b)], None, None, None),
            SatOutcome::Unsat
        );
        // Unsat under assumptions must not poison the solver.
        assert!(matches!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Sat(_)));
    }

    #[test]
    fn contradictory_assumptions_are_unsat_without_poisoning() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 1);
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(v[0]), Lit::neg(v[0])], None, None, None),
            SatOutcome::Unsat
        );
        assert!(matches!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Sat(_)));
    }

    #[test]
    fn activation_literal_guards_clause_group() {
        // The Session pattern: pigeonhole clauses guarded behind ¬g.
        // Assuming g activates the group (unsat); not assuming leaves the
        // formula satisfiable via g = false.
        let n = 4usize;
        let h = 3usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h + 1);
        let g = v[n * h];
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let mut c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            c.push(Lit::neg(g));
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j)), Lit::neg(g)]);
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
        assert!(matches!(s.solve_under_assumptions(&[], None, None, None), SatOutcome::Sat(_)));
        // Learnt clauses from the unsat call are retained for later calls.
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
    }

    #[test]
    fn assumptions_survive_restarts_and_retain_learnts() {
        // A hard-ish instance under an activation literal: enough conflicts
        // to cross restart boundaries, exercising assumption re-decision.
        let n = 7usize;
        let h = 6usize;
        let mut s = SatSolver::new();
        let v = vars(&mut s, n * h + 1);
        let g = v[n * h];
        let p = |i: usize, j: usize| v[i * h + j];
        for i in 0..n {
            let mut c: Vec<Lit> = (0..h).map(|j| Lit::pos(p(i, j))).collect();
            c.push(Lit::neg(g));
            s.add_clause(&c);
        }
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[Lit::neg(p(i1, j)), Lit::neg(p(i2, j)), Lit::neg(g)]);
                }
            }
        }
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
        let learnt_after_first = s.learnt_clauses();
        let conflicts_first = s.conflicts();
        assert!(conflicts_first > 100, "instance should be nontrivial");
        assert!(learnt_after_first > 0, "learnt clauses must be retained");
        // The second identical call reuses the learnt clauses; it must not
        // need more conflicts than the first call took from scratch.
        assert_eq!(s.solve_under_assumptions(&[Lit::pos(g)], None, None, None), SatOutcome::Unsat);
        let conflicts_second = s.conflicts() - conflicts_first;
        assert!(
            conflicts_second <= conflicts_first,
            "retained clauses made the repeat harder: {conflicts_second} > {conflicts_first}"
        );
    }

    #[test]
    fn assumption_budget_and_cancel_polls_still_fire() {
        let mut s = SatSolver::new();
        let v = vars(&mut s, 4 * DECISION_POLL_INTERVAL as usize + 1);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(v[0])], None, None, Some(&token)),
            SatOutcome::Budget(SatBudget::Deadline)
        );
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn lit_roundtrip() {
        let v = BVar(5);
        assert_eq!(Lit::pos(v).var(), v);
        assert!(Lit::pos(v).is_pos());
        assert!(!Lit::neg(v).is_pos());
        assert_eq!(Lit::pos(v).negate(), Lit::neg(v));
        assert_eq!(Lit::pos(v).to_string(), "x5");
        assert_eq!(Lit::neg(v).to_string(), "-x5");
    }
}
