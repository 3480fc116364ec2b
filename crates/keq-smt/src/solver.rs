//! The solver facade: simplification → lowering → bit-blasting → CDCL.
//!
//! This module plays the role Z3 plays in the paper's KEQ: it discharges
//! path-condition implications and sync-point equality obligations. It also
//! implements the §3 *positive-form* query optimization: to prove
//! `φ₁ ⇒ φ₂` when `φ₂ ∨ φ₂' ∨ …` is a tautology over a deterministic
//! system, ask for unsatisfiability of `φ₁ ∧ (φ₂' ∨ …)` instead of
//! `φ₁ ∧ ¬φ₂`.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::bitblast::{BitBlaster, BlastCache};
use crate::cancel::{stop_requested, CancelToken};
use crate::eval::{eval_memo, Assignment, Value};
use crate::fault::{self, FaultAction, FaultSite};
use crate::fingerprint::{fingerprint_obligation, ObligationFingerprint, ShapeMemo};
use crate::lower::Lowerer;
use crate::obcache::{CachedVerdict, SharedObligationCache};
use crate::rewrite::Rewriter;
use crate::sat::{Lit, SatBudget, SatOutcome, SatSolver};
use crate::term::{Op, TermBank, TermId};

/// Resource budget for a single query.
///
/// Exhausting `max_conflicts` models the paper's *timeout* failure class;
/// exhausting `max_terms` models the *out-of-memory* class (Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum CDCL conflicts per query.
    pub max_conflicts: u64,
    /// Maximum interned terms during lowering.
    pub max_terms: usize,
    /// Wall-clock limit per query (`None` = unlimited).
    pub max_time: Option<Duration>,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { max_conflicts: 2_000_000, max_terms: 4_000_000, max_time: None }
    }
}

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// Satisfiable, with a model for the named bool/bitvector variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted (conflicts or terms).
    Budget(BudgetKind),
}

/// Which budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BudgetKind {
    /// CDCL conflict limit — the paper's "timeout" class.
    Conflicts,
    /// Term limit during lowering — the paper's "out of memory" class.
    Terms,
    /// Wall-clock deadline expiry or supervisor cancellation — also the
    /// timeout class, but distinct from conflict exhaustion so retry
    /// policies and the Fig. 6 harness can tell them apart.
    WallClock,
}

/// Outcome of a validity (proof) query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofOutcome {
    /// The implication/equivalence is valid.
    Proved,
    /// A countermodel exists.
    Refuted(Model),
    /// Budget exhausted before a verdict.
    Budget(BudgetKind),
}

impl ProofOutcome {
    /// `true` when the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, ProofOutcome::Proved)
    }
}

/// A model: named values for boolean and bitvector variables.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Model {
    /// `(name, value)` pairs, sorted by name.
    pub entries: Vec<(String, Value)>,
}

impl Model {
    /// Looks up a variable by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.entries
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }
}

impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, value) in &self.entries {
            match value {
                Value::Bool(b) => writeln!(f, "  {name} = {b}")?,
                Value::Bv { width, value } => writeln!(f, "  {name} = #x{value:x} ({width} bits)")?,
                Value::Mem(_) => writeln!(f, "  {name} = <memory>")?,
            }
        }
        Ok(())
    }
}

/// Cumulative solver statistics, declared once in the counter table of
/// [`keq_trace::SolverCounters`].
pub use keq_trace::SolverCounters as SolverStats;

/// Cache key for a closed query: the session prefix (the whole conjunction
/// for a scratch query) plus the query's own delta, both sorted and
/// deduplicated.
///
/// `prefix ∧ delta` is the query whichever way it is split, so an outcome
/// cached under one split is sound to reuse for the identical split. (Two
/// splits of one conjunction could in principle share answers, but
/// detecting that would cost a normalization pass per lookup.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueryKey {
    prefix: Vec<TermId>,
    delta: Vec<TermId>,
}

impl QueryKey {
    fn new(prefix: &[TermId], delta: &[TermId]) -> Self {
        let mut delta = delta.to_vec();
        delta.sort_unstable();
        delta.dedup();
        QueryKey { prefix: prefix.to_vec(), delta }
    }

    /// Approximate heap footprint of the key, for byte-bounded eviction.
    fn approx_bytes(&self) -> usize {
        (self.prefix.len() + self.delta.len()) * std::mem::size_of::<TermId>()
    }
}

fn approx_outcome_bytes(outcome: &CheckOutcome) -> usize {
    match outcome {
        CheckOutcome::Sat(m) => {
            m.entries.iter().map(|(n, _)| n.len() + std::mem::size_of::<(String, Value)>()).sum()
        }
        CheckOutcome::Unsat | CheckOutcome::Budget(_) => 0,
    }
}

/// Bounded FIFO memo of closed queries. Identical assertion sets recur
/// frequently across successor pairs and synchronization points, but a
/// multi-hour corpus function must not grow the memo without bound — the
/// cache evicts oldest-first once either the entry or the (approximate)
/// byte limit is exceeded, counting evictions into
/// [`SolverStats::cache_evictions`].
#[derive(Debug, Clone)]
struct QueryCache {
    map: HashMap<QueryKey, CheckOutcome>,
    order: VecDeque<QueryKey>,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
}

/// Default cap on cached query outcomes.
const CACHE_MAX_ENTRIES: usize = 1 << 14;
/// Default cap on the cache's approximate heap footprint (16 MiB).
const CACHE_MAX_BYTES: usize = 16 << 20;

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            max_entries: CACHE_MAX_ENTRIES,
            max_bytes: CACHE_MAX_BYTES,
        }
    }
}

impl QueryCache {
    fn get(&self, key: &QueryKey) -> Option<&CheckOutcome> {
        self.map.get(key)
    }

    fn insert(&mut self, key: QueryKey, outcome: CheckOutcome, evictions: &mut u64) {
        let added = key.approx_bytes() + approx_outcome_bytes(&outcome);
        if let Some(old) = self.map.insert(key.clone(), outcome) {
            // Same key re-inserted (e.g. a budgeted retry that now closed):
            // adjust bytes, keep the original FIFO position.
            self.bytes = self.bytes.saturating_sub(key.approx_bytes() + approx_outcome_bytes(&old));
        } else {
            self.order.push_back(key);
        }
        self.bytes += added;
        while (self.map.len() > self.max_entries || self.bytes > self.max_bytes)
            && !self.order.is_empty()
        {
            let victim = self.order.pop_front().expect("nonempty");
            if let Some(out) = self.map.remove(&victim) {
                self.bytes =
                    self.bytes.saturating_sub(victim.approx_bytes() + approx_outcome_bytes(&out));
                *evictions += 1;
            }
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The SMT solver facade.
#[derive(Debug, Clone, Default)]
pub struct Solver {
    budget: Budget,
    stats: SolverStats,
    cancel: Option<CancelToken>,
    /// Bounded memo of closed queries, keyed by prefix+delta.
    cache: QueryCache,
    /// Optional corpus-wide obligation cache, shared across solvers (and
    /// runs, when persisted). `None` — the default — skips fingerprinting
    /// entirely.
    shared: Option<Arc<SharedObligationCache>>,
    /// Per-bank memo for the query-independent fingerprint layer.
    fp_memo: ShapeMemo,
    /// Saturating obligation normalizer (see [`crate::rewrite`]); its
    /// memo shares the per-bank contract of `fp_memo`.
    rewriter: Rewriter,
    /// `true` disables obligation normalization — the measurement/off leg
    /// for benches and differential tests. Inverted so the zero-value
    /// default keeps rewriting on.
    rewrite_disabled: bool,
}

/// The query helpers of [`Solver`] and [`Session`], written once over each
/// type's `ask`: a scratch query for the solver, a `prefix ∧ delta` query
/// for a session.
macro_rules! query_helpers {
    () => {
        /// Checks satisfiability of the conjunction of `assertions` (for a
        /// session, together with its prefix).
        pub fn check_sat(&mut self, bank: &mut TermBank, assertions: &[TermId]) -> CheckOutcome {
            self.ask(bank, assertions, true)
        }

        /// Proves `⋀ hyps ⇒ goal` by refuting `⋀ hyps ∧ ¬goal`.
        ///
        /// Equality goals over expensive operators (division, remainder,
        /// multiplication) first try a *congruence decomposition* fast
        /// path: `f(a…) = f(b…)` follows from the argument equalities,
        /// sparing the SAT core from proving two division circuits
        /// equivalent — the "dedicated lemmas" the paper wishes Z3 had for
        /// ISel's strength reductions (§4.7). The decomposition is sound but
        /// incomplete, so a failed fast path falls back to the monolithic
        /// query.
        pub fn prove_implies(
            &mut self,
            bank: &mut TermBank,
            hyps: &[TermId],
            goal: TermId,
        ) -> ProofOutcome {
            if self.prove_eq_by_congruence(bank, hyps, goal, 4) {
                return ProofOutcome::Proved;
            }
            let neg = bank.mk_not(goal);
            self.refute(bank, hyps, neg)
        }

        /// Proves `a ⇔ b` under shared hypotheses.
        pub fn prove_equiv(
            &mut self,
            bank: &mut TermBank,
            hyps: &[TermId],
            a: TermId,
            b: TermId,
        ) -> ProofOutcome {
            let goal = bank.mk_eq(a, b);
            self.prove_implies(bank, hyps, goal)
        }

        /// The §3 positive-form implication: prove `hyp ⇒ target` given that
        /// `target ∨ ⋁ siblings` is a tautology and `target` is disjoint from
        /// each sibling (both hold for path conditions of a deterministic
        /// transition system). Then `hyp ∧ ¬target` is equisatisfiable with
        /// `hyp ∧ ⋁ siblings`, which avoids negating `target`.
        pub fn prove_implies_positive(
            &mut self,
            bank: &mut TermBank,
            hyp: &[TermId],
            siblings: &[TermId],
        ) -> ProofOutcome {
            let disj = bank.mk_or(siblings.iter().copied());
            self.refute(bank, hyp, disj)
        }

        /// Is the conjunction of `assertions` satisfiable at all? Used to
        /// prune infeasible symbolic branches. Budget exhaustion is
        /// collapsed to `None`; callers that must classify the exhaustion
        /// (e.g. the Fig. 6 failure rows) use `feasibility`.
        pub fn is_feasible(&mut self, bank: &mut TermBank, assertions: &[TermId]) -> Option<bool> {
            self.feasibility(bank, assertions).ok()
        }

        /// `is_feasible` preserving the budget kind on exhaustion, so a
        /// term-limit hit inside a feasibility query still classifies as
        /// the out-of-memory row rather than a conflict timeout.
        ///
        /// # Errors
        ///
        /// Returns the exhausted [`BudgetKind`] when the query ran out of
        /// budget before deciding satisfiability.
        pub fn feasibility(
            &mut self,
            bank: &mut TermBank,
            assertions: &[TermId],
        ) -> Result<bool, BudgetKind> {
            // The model is discarded: a cached model-free `Sat` may answer.
            match self.ask(bank, assertions, false) {
                CheckOutcome::Sat(_) => Ok(true),
                CheckOutcome::Unsat => Ok(false),
                CheckOutcome::Budget(k) => Err(k),
            }
        }

        /// `Proved` when `⋀ hyps ∧ extra` is unsatisfiable.
        fn refute(&mut self, bank: &mut TermBank, hyps: &[TermId], extra: TermId) -> ProofOutcome {
            let mut assertions = hyps.to_vec();
            assertions.push(extra);
            match self.check_sat(bank, &assertions) {
                CheckOutcome::Unsat => ProofOutcome::Proved,
                CheckOutcome::Sat(m) => ProofOutcome::Refuted(m),
                CheckOutcome::Budget(k) => ProofOutcome::Budget(k),
            }
        }

        /// The congruence fast path of `prove_implies`: `f(a…) = f(b…)`
        /// follows from the argument equalities, each refuted on its own.
        /// Sound but incomplete, so `false` only means "fall back to the
        /// monolithic query".
        fn prove_eq_by_congruence(
            &mut self,
            bank: &mut TermBank,
            hyps: &[TermId],
            goal: TermId,
            depth: u32,
        ) -> bool {
            if depth == 0 {
                return false;
            }
            let node = bank.node(goal).clone();
            if node.op != Op::Eq {
                return false;
            }
            let (a, b) = (node.args[0], node.args[1]);
            if a == b {
                return true;
            }
            let na = bank.node(a).clone();
            let nb = bank.node(b).clone();
            // Only worth decomposing when an expensive circuit lurks inside;
            // otherwise the monolithic query is cheap and more complete.
            if na.op != nb.op
                || na.args.len() != nb.args.len()
                || na.args.is_empty()
                || matches!(na.op, Op::Select | Op::Store | Op::Ite)
                || !contains_expensive(bank, a)
            {
                return false;
            }
            for (&x, &y) in na.args.iter().zip(&nb.args) {
                // Width-parameterised ops (extract, extensions) can share an
                // op while taking differently-sorted arguments; positional
                // pairing is meaningless there, so leave it to the
                // monolithic query.
                if bank.sort(x) != bank.sort(y) {
                    return false;
                }
                let eq = bank.mk_eq(x, y);
                if bank.as_bool_const(eq) == Some(true) {
                    continue;
                }
                let sub_ok = self.prove_eq_by_congruence(bank, hyps, eq, depth - 1) || {
                    // Refutation probes only ask "unsat?": a cached
                    // model-free `Sat` answer is as good as a computed one.
                    let neg = bank.mk_not(eq);
                    let mut assertions = hyps.to_vec();
                    assertions.push(neg);
                    matches!(self.ask(bank, &assertions, false), CheckOutcome::Unsat)
                };
                if !sub_ok {
                    return false;
                }
            }
            true
        }
    };
}

impl Solver {
    /// Creates a solver with the default budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a solver with an explicit budget.
    pub fn with_budget(budget: Budget) -> Self {
        Solver { budget, ..Self::default() }
    }

    /// Attaches a cooperative cancellation token; the CDCL core polls it
    /// and reports [`BudgetKind::WallClock`] when it is raised.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The active budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Replaces the budget in place — the warm-start path: an escalating
    /// retry raises the budget on the *same* solver so the query cache and
    /// any session state built under the old budget stay valid (budgeted
    /// outcomes are never cached, so nothing stale can leak).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Replaces (or clears) the cancellation token in place; the warm-start
    /// analogue of [`Solver::with_cancel`].
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Enables or disables saturating obligation normalization (on by
    /// default). The off position exists for measurement: benches and the
    /// differential property tests run a rewriter-off leg against the same
    /// workload.
    pub fn set_rewrite_enabled(&mut self, on: bool) {
        self.rewrite_disabled = !on;
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Number of closed queries currently memoized.
    pub fn cached_queries(&self) -> usize {
        self.cache.len()
    }

    /// Attaches (or detaches) a shared obligation cache. While attached,
    /// every query that misses the local memo is fingerprinted and checked
    /// against the shared cache before lowering/bit-blasting, and every
    /// `Unsat` verdict is recorded back. Detached solvers pay zero
    /// fingerprinting overhead.
    pub fn set_obligation_cache(&mut self, cache: Option<Arc<SharedObligationCache>>) {
        self.shared = cache;
    }

    /// Consults the shared cache for the obligation `parts` (a conjunction,
    /// possibly split into prefix/delta). Returns the fingerprint (for the
    /// later store) and a hit verdict, counting hit/miss stats and emitting
    /// the cache trace events.
    ///
    /// A cached `Sat` is model-free: it can answer a caller that only asks
    /// *whether* the conjunction is satisfiable (feasibility pruning), but
    /// a caller that `needs_model` must recompute — the lookup counts as a
    /// miss so the solver's cache ratios stay honest.
    fn shared_lookup(
        &mut self,
        bank: &TermBank,
        parts: &[&[TermId]],
        needs_model: bool,
    ) -> (Option<ObligationFingerprint>, Option<CachedVerdict>) {
        let Some(shared) = self.shared.clone() else {
            return (None, None);
        };
        let fp = fingerprint_obligation(bank, &mut self.fp_memo, parts);
        match shared.lookup(fp) {
            Some(CachedVerdict::Sat) if needs_model => {
                self.stats.obligation_cache_misses += 1;
                keq_trace::emit(keq_trace::Event::CacheMiss { fp: fp.lo64() });
                (Some(fp), None)
            }
            Some(verdict) => {
                self.stats.obligation_cache_hits += 1;
                keq_trace::emit(keq_trace::Event::CacheHit { fp: fp.lo64() });
                (Some(fp), Some(verdict))
            }
            None => {
                self.stats.obligation_cache_misses += 1;
                keq_trace::emit(keq_trace::Event::CacheMiss { fp: fp.lo64() });
                (Some(fp), None)
            }
        }
    }

    /// Records a decided outcome into the shared cache, model-free: `Unsat`
    /// discharges the obligation for every later asker, `Sat` answers later
    /// model-free feasibility questions. Budget/fault outcomes describe the
    /// attempt, not the obligation, and are never stored.
    fn shared_store(&mut self, fp: Option<ObligationFingerprint>, outcome: &CheckOutcome) {
        let (Some(fp), Some(shared)) = (fp, self.shared.as_ref()) else { return };
        let verdict = match outcome {
            CheckOutcome::Unsat => CachedVerdict::Unsat,
            CheckOutcome::Sat(_) => CachedVerdict::Sat,
            CheckOutcome::Budget(_) => return,
        };
        shared.insert(fp, verdict);
        self.stats.obligation_cache_stores += 1;
        keq_trace::emit(keq_trace::Event::CacheStore { fp: fp.lo64() });
    }

    /// The per-query entry guard: fault-injection poll first, then
    /// cooperative cancellation. Returns `Some` with the forced outcome
    /// when the query must not run.
    fn query_guard(&mut self) -> Option<CheckOutcome> {
        if let FaultAction::ForceBudget(kind) = fault::poll(FaultSite::SolverQuery) {
            return Some(CheckOutcome::Budget(kind));
        }
        if stop_requested(None, self.cancel.as_ref()).is_some() {
            return Some(CheckOutcome::Budget(BudgetKind::WallClock));
        }
        None
    }

    /// Runs the saturating rewriter over one obligation's roots (returning
    /// them unchanged while normalization is disabled), folding the rewrite
    /// deltas into [`SolverStats`]. `None` means the rewrite pass observed
    /// cooperative cancellation mid-obligation.
    fn normalize_obligation(
        &mut self,
        bank: &mut TermBank,
        terms: Vec<TermId>,
    ) -> Option<Vec<TermId>> {
        if self.rewrite_disabled {
            return Some(terms);
        }
        let (out, delta) = self.rewriter.normalize(bank, &terms, self.cancel.as_ref())?;
        self.stats.rewrite_rules_fired += delta.total_fired();
        self.stats.rewrite_passes += delta.passes;
        self.stats.rewrite_nodes_saved += delta.nodes_saved();
        Some(out)
    }

    /// A scratch query: the empty-delta case of a one-shot session whose
    /// prefix is the whole conjunction.
    fn ask(
        &mut self,
        bank: &mut TermBank,
        assertions: &[TermId],
        needs_model: bool,
    ) -> CheckOutcome {
        Session::new(self, assertions.to_vec(), "scratch").ask(bank, &[], needs_model)
    }

    query_helpers!();

    /// Opens an incremental session: every query through it is answered
    /// under `prefix ∧ delta`, with the prefix lowered, bit-blasted, and
    /// asserted **once**. This is the paper's use of Z3's incremental
    /// interface: all of a sync point's obligations share
    /// `assumptions ∧ path(n1) ∧ path(n2)` prefixes, so re-asserting them
    /// per query wastes O(queries × prefix) work.
    ///
    /// The session borrows the solver exclusively (stats, budget, cache and
    /// cancellation are shared). Every query must pass the *same* bank: the
    /// session's memos key on its `TermId`s.
    pub fn open_session(&mut self, prefix: &[TermId]) -> Session<'_> {
        self.stats.sessions_opened += 1;
        keq_trace::emit(keq_trace::Event::SessionOpened { prefix_len: prefix.len() as u64 });
        Session::new(self, prefix.to_vec(), "session")
    }
}

/// How far a session got asserting its prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum SessionState {
    /// Prefix asserted; queries run incrementally.
    #[default]
    Live,
    /// The prefix alone is constant-false: every query answers `Unsat`
    /// without touching the SAT core.
    Unsat,
    /// Prefix lowering blew a budget; every query reports it.
    Poisoned(BudgetKind),
}

/// An incremental solving session: a shared prefix asserted once and
/// per-query deltas guarded behind activation literals. A scratch
/// [`Solver::check_sat`] is the one-shot case: a session whose prefix is
/// the whole conjunction, asked once with an empty delta.
///
/// The prefix is normalized by the first query, and lowered, bit-blasted
/// and asserted by the first query that misses both the local memo and
/// the shared obligation cache. A session answered entirely from the
/// caches never builds its SAT state. After lowering, a feasibility query
/// (one that needs no model) first tries the session's 8 most recent Sat
/// models: one that satisfies the lowered delta and every hard assertion
/// made since it was found answers `Sat` without bit-blasting the delta or
/// running CDCL.
///
/// Invariants (violating any is a logic error, not UB):
///
/// - one bank: every call must pass the same [`TermBank`] — the memos key
///   on its `TermId`s;
/// - activation literals are 1:1 with unique *lowered* delta assertions:
///   delta `d` gets a fresh SAT variable `a_d` and the hard clause
///   `¬a_d ∨ lit(d)`, and a query assumes exactly the `a_d` of its own
///   deltas. Unassumed activation variables are free, so stale deltas stay
///   sound (their clauses are satisfiable by `a_d = false`) but not free:
///   their gates stay in the database, propagation walks them, and a Sat
///   answer assigns them. On the ISel corpus, sessions spend about 1,045
///   propagations per conflict against 530 with a fresh solver per query,
///   though the fresh solvers need 3.5× the conflicts;
/// - Ackermann side conditions from incremental lowering are hard-asserted
///   cumulatively (sound: the reduction stays equisatisfiable for any
///   superset of read pairs);
/// - learnt clauses persist across queries (sound: conflict analysis only
///   resolves over database clauses — assumptions are decisions, never
///   reasons — so every learnt clause is implied by the database alone).
#[derive(Debug)]
pub struct Session<'s> {
    solver: &'s mut Solver,
    /// The `SolverQuery` trace mode: `"scratch"` or `"session"`.
    mode: &'static str,
    /// The prefix in assertion order; normalized by the first query.
    prefix: Vec<TermId>,
    /// Whether `prefix` and `key_prefix` are normalized yet.
    normalized: bool,
    /// The normalized prefix, sorted and deduplicated — the memo-key
    /// component.
    key_prefix: Vec<TermId>,
    /// The SAT side, built by the first query that reaches the SAT core.
    engine: Option<Engine>,
}

/// The SAT side of a session: persistent lowering/bit-blasting memos
/// ([`Lowerer`], [`BlastCache`]) plus one [`SatSolver`] that retains its
/// learnt clauses across queries.
#[derive(Debug, Default)]
struct Engine {
    sat: SatSolver,
    lowerer: Lowerer,
    blast: BlastCache,
    /// Unique lowered delta assertion → its activation literal.
    activation: HashMap<TermId, Lit>,
    /// Everything hard-asserted so far (lowered prefix + side conditions),
    /// which a reused model must satisfy and debug builds validate every
    /// SAT model against.
    hard_asserts: Vec<TermId>,
    /// The most recent Sat models, most recent first.
    models: VecDeque<SessionModel>,
    state: SessionState,
}

/// How many of its most recent Sat models a session keeps for answering
/// feasibility queries.
const SESSION_MODELS: usize = 8;

/// A Sat model a session keeps for answering later feasibility queries.
#[derive(Debug)]
struct SessionModel {
    /// The assignment; variables it does not name take their defaults.
    asg: Assignment,
    /// The values of every term evaluated under `asg` so far.
    memo: HashMap<TermId, Value>,
    /// How many of the engine's hard assertions `asg` is known to satisfy.
    checked: usize,
}

impl SessionModel {
    /// Whether every term of `terms` evaluates to `true` under the model.
    fn satisfies(&mut self, bank: &TermBank, terms: &[TermId]) -> bool {
        terms.iter().all(|&t| eval_memo(bank, t, &self.asg, &mut self.memo) == Value::Bool(true))
    }
}

impl<'s> Session<'s> {
    fn new(solver: &'s mut Solver, prefix: Vec<TermId>, mode: &'static str) -> Self {
        Session { solver, mode, prefix, normalized: false, key_prefix: Vec::new(), engine: None }
    }

    query_helpers!();

    /// The one query path, for scratch and session queries alike: the
    /// fault/cancel guard, normalization, the local memo, the shared
    /// obligation cache, and only then the SAT core. Every call is one
    /// counted query: it counts its outcome, adds its wall time to
    /// [`SolverStats::time`], and emits exactly one `SolverQuery` event.
    fn ask(&mut self, bank: &mut TermBank, delta: &[TermId], needs_model: bool) -> CheckOutcome {
        let start = Instant::now();
        let before = self.solver.stats;
        let (outcome, cache_hit) = self.answer(bank, delta, needs_model);
        let stats = &mut self.solver.stats;
        stats.queries += 1;
        match &outcome {
            CheckOutcome::Sat(_) => stats.sat += 1,
            CheckOutcome::Unsat => stats.unsat += 1,
            CheckOutcome::Budget(_) => stats.budget += 1,
        }
        let dur = start.elapsed();
        stats.time += dur;
        trace_query(self.mode, &outcome, cache_hit, dur, stats, &before);
        outcome
    }

    /// [`Session::ask`] without the accounting; the flag says whether the
    /// local memo or the shared cache answered.
    fn answer(
        &mut self,
        bank: &mut TermBank,
        delta: &[TermId],
        needs_model: bool,
    ) -> (CheckOutcome, bool) {
        if let Some(forced) = self.solver.query_guard() {
            return (forced, false);
        }
        // Normalize before key construction so the memo, the shared
        // fingerprint, and the SAT core all see the same terms. The first
        // query normalizes the prefix together with its own delta.
        let roots =
            if self.normalized { delta.to_vec() } else { [self.prefix.as_slice(), delta].concat() };
        let Some(mut delta) = self.solver.normalize_obligation(bank, roots) else {
            return (CheckOutcome::Budget(BudgetKind::WallClock), false);
        };
        if !self.normalized {
            let own = delta.split_off(self.prefix.len());
            self.prefix = std::mem::replace(&mut delta, own);
            self.key_prefix = self.prefix.clone();
            self.key_prefix.sort_unstable();
            self.key_prefix.dedup();
            self.normalized = true;
        }
        let key = QueryKey::new(&self.key_prefix, &delta);
        if let Some(hit) = self.solver.cache.get(&key) {
            self.solver.stats.cache_hits += 1;
            return (hit.clone(), true);
        }
        // Shared obligation cache: consulted only on a memo miss and
        // strictly before lowering/bit-blasting. The fingerprint covers
        // prefix ∧ delta, so a hit matches any way of posing the same
        // conjunction, by this or any other function.
        let (fp, shared_hit) =
            self.solver.shared_lookup(bank, &[&self.key_prefix, &delta], needs_model);
        let outcome = match shared_hit {
            // The empty model must not enter the memo: a later
            // model-needing pose of the same key would be served a
            // witness-free counterexample.
            Some(CachedVerdict::Sat) => return (CheckOutcome::Sat(Model::default()), true),
            Some(CachedVerdict::Unsat) => CheckOutcome::Unsat,
            None => {
                let outcome = self.solve(bank, &delta, needs_model);
                self.solver.shared_store(fp, &outcome);
                outcome
            }
        };
        if !matches!(outcome, CheckOutcome::Budget(_)) {
            self.solver.cache.insert(key, outcome.clone(), &mut self.solver.stats.cache_evictions);
        }
        (outcome, shared_hit.is_some())
    }

    /// Answers `prefix ∧ delta` from the session's models or in the SAT
    /// core. The first call builds the session's SAT state and asserts the
    /// prefix.
    fn solve(&mut self, bank: &mut TermBank, delta: &[TermId], needs_model: bool) -> CheckOutcome {
        let mut live = Vec::with_capacity(delta.len());
        for &a in delta {
            debug_assert!(bank.sort(a).is_bool(), "assertion must be boolean");
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => return CheckOutcome::Unsat,
                None => live.push(a),
            }
        }
        let solver = &mut *self.solver;
        let prefix_reused = self.engine.is_some();
        let engine = self.engine.get_or_insert_with(Engine::default);
        let blasted = engine.blast.terms_blasted();
        let blast_reused = engine.blast.terms_reused();
        if !prefix_reused {
            engine.assert_prefix(bank, &self.prefix, solver.budget.max_terms);
        }
        let outcome = match engine.state {
            SessionState::Live => engine.check(bank, &live, prefix_reused, needs_model, solver),
            SessionState::Unsat => CheckOutcome::Unsat,
            SessionState::Poisoned(kind) => CheckOutcome::Budget(kind),
        };
        solver.stats.terms_blasted += engine.blast.terms_blasted() - blasted;
        solver.stats.terms_blast_reused += engine.blast.terms_reused() - blast_reused;
        outcome
    }
}

impl Engine {
    /// Lowers, bit-blasts, and hard-asserts the prefix, recording in
    /// `state` a prefix that is constant-false or blows the term budget.
    fn assert_prefix(&mut self, bank: &mut TermBank, prefix: &[TermId], max_terms: usize) {
        let mut live = Vec::with_capacity(prefix.len());
        for &a in prefix {
            debug_assert!(bank.sort(a).is_bool(), "prefix assertion must be boolean");
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => {
                    self.state = SessionState::Unsat;
                    return;
                }
                None => live.push(a),
            }
        }
        let lowered = {
            let _s = keq_trace::span(keq_trace::Phase::Lower);
            match self.lowerer.lower_incremental(bank, &live, max_terms) {
                Ok(l) => l,
                Err(_) => {
                    self.state = SessionState::Poisoned(BudgetKind::Terms);
                    return;
                }
            }
        };
        let _s = keq_trace::span(keq_trace::Phase::Blast);
        let mut blaster = BitBlaster::new(bank, &mut self.sat, &mut self.blast);
        for &a in lowered.assertions.iter().chain(&lowered.side_conditions) {
            match bank.as_bool_const(a) {
                Some(true) => {}
                Some(false) => {
                    self.state = SessionState::Unsat;
                    return;
                }
                None => {
                    blaster.assert_term(a);
                    self.hard_asserts.push(a);
                }
            }
        }
    }

    /// Checks the asserted prefix together with the non-constant delta
    /// assertions `live`, assuming the activation literals of this query
    /// alone. `prefix_reused` says whether an earlier query asserted the
    /// prefix. A query that does not need a model is first tried against
    /// the session's models.
    fn check(
        &mut self,
        bank: &mut TermBank,
        live: &[TermId],
        prefix_reused: bool,
        needs_model: bool,
        solver: &mut Solver,
    ) -> CheckOutcome {
        let lowered = {
            let _s = keq_trace::span(keq_trace::Phase::Lower);
            match self.lowerer.lower_incremental(bank, live, solver.budget.max_terms) {
                Ok(l) => l,
                Err(_) => return CheckOutcome::Budget(BudgetKind::Terms),
            }
        };
        // New Ackermann side conditions are facts about the session's fresh
        // read variables, valid for every query, and lowering emits each
        // once: hard-assert them whoever answers this query.
        if !lowered.side_conditions.is_empty() {
            let _s = keq_trace::span(keq_trace::Phase::Blast);
            let mut blaster = BitBlaster::new(bank, &mut self.sat, &mut self.blast);
            for &sc in &lowered.side_conditions {
                debug_assert_ne!(bank.as_bool_const(sc), Some(false));
                if bank.as_bool_const(sc).is_none() {
                    blaster.assert_term(sc);
                    self.hard_asserts.push(sc);
                }
            }
        }
        let mut delta = Vec::with_capacity(lowered.assertions.len());
        for &d in &lowered.assertions {
            match bank.as_bool_const(d) {
                Some(true) => {}
                Some(false) => return CheckOutcome::Unsat,
                None if !delta.contains(&d) => delta.push(d),
                None => {}
            }
        }
        if !needs_model {
            if let Some(model) = self.reuse_model(bank, &delta) {
                solver.stats.model_hits += 1;
                return CheckOutcome::Sat(model);
            }
        }
        solver.stats.prefix_hits += u64::from(prefix_reused);
        solver.stats.clauses_retained += self.sat.learnt_clauses() as u64;
        let delta_lits: Vec<Lit> = {
            let _s = keq_trace::span(keq_trace::Phase::Blast);
            let mut blaster = BitBlaster::new(bank, &mut self.sat, &mut self.blast);
            delta.iter().map(|&d| blaster.lit(d)).collect()
        };
        let mut assumptions: Vec<Lit> = Vec::with_capacity(delta.len());
        for (&d, l) in delta.iter().zip(delta_lits) {
            let act = match self.activation.get(&d) {
                Some(&a) => a,
                None => {
                    let a = Lit::pos(self.sat.new_var());
                    self.sat.add_clause(&[a.negate(), l]);
                    self.activation.insert(d, a);
                    a
                }
            };
            assumptions.push(act);
        }
        let deadline = solver.budget.max_time.map(|d| Instant::now() + d);
        let conflicts_before = self.sat.conflicts();
        let restarts_before = self.sat.restarts();
        let lbd_kept_before = self.sat.lbd_kept();
        let cdcl_span = keq_trace::span(keq_trace::Phase::Cdcl);
        let outcome = self.sat.solve_under_assumptions(
            &assumptions,
            Some(solver.budget.max_conflicts),
            deadline,
            solver.cancel.as_ref(),
        );
        cdcl_span.done();
        let conflicts = self.sat.conflicts() - conflicts_before;
        solver.stats.conflicts += conflicts;
        solver.stats.restarts += self.sat.restarts() - restarts_before;
        solver.stats.lbd_kept += self.sat.lbd_kept() - lbd_kept_before;
        match outcome {
            SatOutcome::Unsat => CheckOutcome::Unsat,
            SatOutcome::Budget(kind) => {
                solver.stats.budget_conflicts += conflicts;
                CheckOutcome::Budget(match kind {
                    SatBudget::Conflicts => BudgetKind::Conflicts,
                    SatBudget::Deadline => BudgetKind::WallClock,
                })
            }
            SatOutcome::Sat(bits) => {
                let asg =
                    extract_assignment(bank, self.blast.var_bits(), self.blast.bool_vars(), &bits);
                let model = decode_model(bank, &asg);
                let mut found =
                    SessionModel { asg, memo: HashMap::new(), checked: self.hard_asserts.len() };
                // Validate against everything hard-asserted plus this
                // query's active deltas. Inactive deltas from earlier
                // queries are excluded by construction: their activation
                // variables were not assumed, so the model need not (and
                // may not) satisfy them. A failure here indicates a
                // bit-blasting bug and must be loud.
                for &a in self.hard_asserts.iter().chain(&delta) {
                    debug_assert!(
                        found.satisfies(bank, &[a]),
                        "model does not satisfy asserted term {}",
                        bank.display(a)
                    );
                }
                self.models.truncate(SESSION_MODELS - 1);
                self.models.push_front(found);
                CheckOutcome::Sat(model)
            }
        }
    }

    /// Answers the lowered delta `live` from the session's models, most
    /// recent first: the first that satisfies `live` and every hard
    /// assertion made since it was found moves to the front and answers.
    /// A model that violates a hard assertion can never answer again and
    /// is dropped.
    fn reuse_model(&mut self, bank: &TermBank, live: &[TermId]) -> Option<Model> {
        let mut i = 0;
        while i < self.models.len() {
            let m = &mut self.models[i];
            if !m.satisfies(bank, &self.hard_asserts[m.checked..]) {
                self.models.remove(i);
                continue;
            }
            m.checked = self.hard_asserts.len();
            if m.satisfies(bank, live) {
                let model = decode_model(bank, &m.asg);
                let m = self.models.remove(i).expect("index in range");
                self.models.push_front(m);
                return Some(model);
            }
            i += 1;
        }
        None
    }
}

/// Emits one [`keq_trace::Event::SolverQuery`] for a completed query, with
/// the counter deltas `stats - before` attributable to it alone. One
/// branch and no allocation when tracing is disabled.
fn trace_query(
    mode: &'static str,
    outcome: &CheckOutcome,
    cache_hit: bool,
    dur: Duration,
    stats: &SolverStats,
    before: &SolverStats,
) {
    if !keq_trace::enabled() {
        return;
    }
    let delta = stats.since(before);
    keq_trace::emit(keq_trace::Event::SolverQuery {
        mode,
        outcome: match outcome {
            CheckOutcome::Sat(_) => "sat",
            CheckOutcome::Unsat => "unsat",
            CheckOutcome::Budget(_) => "budget",
        },
        cache_hit,
        dur_us: u64::try_from(dur.as_micros()).unwrap_or(u64::MAX),
        conflicts: delta.conflicts,
        terms_blasted: delta.terms_blasted,
        terms_blast_reused: delta.terms_blast_reused,
        prefix_hits: delta.prefix_hits,
        clauses_retained: delta.clauses_retained,
        cache_evictions: delta.cache_evictions,
    });
}

/// Reads a SAT model's values of the blasted variables into an
/// [`Assignment`].
fn extract_assignment(
    bank: &TermBank,
    var_bits: &HashMap<crate::term::VarId, Vec<Lit>>,
    bool_vars: &HashMap<crate::term::VarId, Lit>,
    bits: &[bool],
) -> Assignment {
    let mut asg = Assignment::new();
    for (&v, lits) in var_bits {
        let mut value = 0u128;
        for (i, l) in lits.iter().enumerate() {
            if bits[l.var().0 as usize] == l.is_pos() {
                value |= 1 << i;
            }
        }
        let width = bank.var(v).1.width().expect("bitvector var");
        asg.set(v, Value::bv(width, value));
    }
    for (&v, l) in bool_vars {
        asg.set(v, Value::Bool(bits[l.var().0 as usize] == l.is_pos()));
    }
    asg
}

/// Decodes an assignment into the named values callers see. Internal
/// variable names (containing `!`) are dropped.
fn decode_model(bank: &TermBank, asg: &Assignment) -> Model {
    let mut entries: Vec<(String, Value)> = asg
        .iter()
        .map(|(v, value)| (bank.var(v).0, value))
        .filter(|(name, _)| !name.contains('!'))
        .map(|(name, value)| (name.to_owned(), value.clone()))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Model { entries }
}

/// Returns `true` if `t` contains a multiplication/division subterm (the
/// operators whose circuit-equivalence queries are hard for the SAT core).
fn contains_expensive(bank: &TermBank, root: TermId) -> bool {
    let mut stack = vec![root];
    let mut seen = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !seen.insert(t) {
            continue;
        }
        let node = bank.node(t);
        match node.op {
            Op::BvUdiv | Op::BvUrem | Op::BvSdiv | Op::BvSrem => return true,
            // A multiplication by a constant bit-blasts to cheap shift-adds.
            Op::BvMul
                if bank.as_bv_const(node.args[0]).is_none()
                    && bank.as_bv_const(node.args[1]).is_none() =>
            {
                return true
            }
            _ => {}
        }
        stack.extend(node.args.iter().copied());
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, Rate};
    use crate::sort::Sort;

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn prove_simple_arith_identity() {
        // x + y = y + x (trivially true by normalization, but go via SAT too)
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let l = bank.mk_bvadd(x, y);
        let r = bank.mk_bvadd(y, x);
        assert!(solver().prove_equiv(&mut bank, &[], l, r).is_proved());
    }

    #[test]
    fn prove_sub_self_is_zero() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(16));
        let y = bank.mk_var("y", Sort::BitVec(16));
        // (x + y) - y = x — requires real bit-level reasoning.
        let s = bank.mk_bvadd(x, y);
        let d = bank.mk_bvsub(s, y);
        assert!(solver().prove_equiv(&mut bank, &[], d, x).is_proved());
    }

    #[test]
    fn refute_wrong_identity() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let one = bank.mk_bv(8, 1);
        let xp1 = bank.mk_bvadd(x, one);
        match solver().prove_equiv(&mut bank, &[], xp1, x) {
            ProofOutcome::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn counterexample_model_is_meaningful() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c = bank.mk_bv(8, 42);
        let claim = bank.mk_ne(x, c); // not valid: x = 42 refutes
        match solver().prove_implies(&mut bank, &[], claim) {
            ProofOutcome::Refuted(m) => {
                assert_eq!(m.get("x"), Some(&Value::bv(8, 42)));
            }
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn mul_by_power_of_two_is_shift() {
        // The paper's "challenging validations" §4.7: strength reductions.
        // x * 8 = x << 3 must be provable.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(32));
        let eight = bank.mk_bv(32, 8);
        let three = bank.mk_bv(32, 3);
        let m = bank.mk_bvmul(x, eight);
        let s = bank.mk_bvshl(x, three);
        assert!(solver().prove_equiv(&mut bank, &[], m, s).is_proved());
    }

    #[test]
    fn signed_comparison_vs_subtraction_flags() {
        // The running example's path-condition equivalence (paper §3):
        // i < n  ⇔  i - n <s 0 is NOT valid (overflow), but
        // i <u n ⇔ (i - n) produces borrow — check a valid variant:
        // (i <s n) ⇔ (i - n <s 0) given no signed overflow in i - n.
        let mut bank = TermBank::new();
        let i = bank.mk_var("i", Sort::BitVec(32));
        let n = bank.mk_var("n", Sort::BitVec(32));
        let lt = bank.mk_bvslt(i, n);
        let diff = bank.mk_bvsub(i, n);
        let zero = bank.mk_bv(32, 0);
        let diff_neg = bank.mk_bvslt(diff, zero);
        // Without the no-overflow hypothesis this is refutable:
        match solver().prove_equiv(&mut bank, &[], lt, diff_neg) {
            ProofOutcome::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
        // With both operands' sign bits equal (no overflow possible), valid:
        let sign_i = bank.mk_bvslt(i, zero);
        let sign_n = bank.mk_bvslt(n, zero);
        let same_sign = bank.mk_eq(sign_i, sign_n);
        assert!(solver().prove_equiv(&mut bank, &[same_sign], lt, diff_neg).is_proved());
    }

    #[test]
    fn unsigned_compare_matches_sub_borrow() {
        // i <u n ⇔ i - n wraps (i.e. i - n >u i when n != 0)... use the
        // simpler, actually-used form: i <u n ⇔ ¬(n <=u i).
        let mut bank = TermBank::new();
        let i = bank.mk_var("i", Sort::BitVec(16));
        let n = bank.mk_var("n", Sort::BitVec(16));
        let a = bank.mk_bvult(i, n);
        let le = bank.mk_bvule(n, i);
        let b = bank.mk_not(le);
        assert!(solver().prove_equiv(&mut bank, &[], a, b).is_proved());
    }

    #[test]
    fn memory_writes_commute_iff_disjoint() {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let j = bank.mk_var("j", Sort::BitVec(64));
        let v1 = bank.mk_bv(8, 1);
        let v2 = bank.mk_bv(8, 2);
        let m_ij = {
            let t = bank.mk_store(mem, i, v1);
            bank.mk_store(t, j, v2)
        };
        let m_ji = {
            let t = bank.mk_store(mem, j, v2);
            bank.mk_store(t, i, v1)
        };
        let probe = bank.mk_var("p", Sort::BitVec(64));
        let r1 = bank.mk_select(m_ij, probe);
        let r2 = bank.mk_select(m_ji, probe);
        let distinct = bank.mk_ne(i, j);
        // Disjoint writes commute:
        assert!(solver().prove_equiv(&mut bank, &[distinct], r1, r2).is_proved());
        // Overlapping writes do not:
        match solver().prove_equiv(&mut bank, &[], r1, r2) {
            ProofOutcome::Refuted(_) => {}
            other => panic!("expected refutation, got {other:?}"),
        }
    }

    #[test]
    fn positive_form_query_proves_branch_implication() {
        // Deterministic branch: target φ₂ = (x < 10), sibling φ₂' = ¬(x < 10).
        // To prove φ₁ ⇒ φ₂ with φ₁ = (x < 5): check unsat(φ₁ ∧ φ₂').
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let five = bank.mk_bv(8, 5);
        let ten = bank.mk_bv(8, 10);
        let phi1 = bank.mk_bvult(x, five);
        let phi2 = bank.mk_bvult(x, ten);
        let sibling = bank.mk_not(phi2);
        assert!(solver().prove_implies_positive(&mut bank, &[phi1], &[sibling]).is_proved());
    }

    #[test]
    fn budget_trips_on_hard_multiplication() {
        // Factoring-flavored query: x * y = C for 24-bit x, y with tiny
        // conflict budget should exhaust.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(28));
        let y = bank.mk_var("y", Sort::BitVec(28));
        let prod = bank.mk_bvmul(x, y);
        let c = bank.mk_bv(28, 0x0c32_1175); // product of two large primes
        let eq = bank.mk_eq(prod, c);
        let one = bank.mk_bv(28, 1);
        let x_big = bank.mk_bvult(one, x);
        let y_big = bank.mk_bvult(one, y);
        let mut s =
            Solver::with_budget(Budget { max_conflicts: 5, max_terms: 1_000_000, max_time: None });
        match s.check_sat(&mut bank, &[eq, x_big, y_big]) {
            CheckOutcome::Budget(BudgetKind::Conflicts) => {}
            CheckOutcome::Sat(_) => {} // found fast — acceptable on some orderings
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut bank = TermBank::new();
        let mut s = solver();
        let t = bank.mk_true();
        let f = bank.mk_false();
        assert_eq!(s.check_sat(&mut bank, &[t]), CheckOutcome::Sat(Model::default()));
        assert_eq!(s.check_sat(&mut bank, &[f]), CheckOutcome::Unsat);
        assert_eq!(s.stats().queries, 2);
        assert_eq!(s.stats().sat, 1);
        assert_eq!(s.stats().unsat, 1);
    }

    #[test]
    fn division_circuit_correct_on_samples() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        // Validity: y != 0 ⇒ (x / y) * y + (x % y) = x
        let zero = bank.mk_bv(8, 0);
        let nz = bank.mk_ne(y, zero);
        let q = bank.mk_bvudiv(x, y);
        let r = bank.mk_bvurem(x, y);
        let qy = bank.mk_bvmul(q, y);
        let sum = bank.mk_bvadd(qy, r);
        let goal = bank.mk_eq(sum, x);
        assert!(solver().prove_implies(&mut bank, &[nz], goal).is_proved());
    }

    #[test]
    fn sdiv_lowered_and_proved() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        // x sdiv 1 = x
        let one = bank.mk_bv(8, 1);
        let d = bank.mk_bvsdiv(x, one);
        assert!(solver().prove_equiv(&mut bank, &[], d, x).is_proved());
    }

    #[test]
    fn session_queries_agree_with_scratch() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let ten = bank.mk_bv(8, 10);
        let five = bank.mk_bv(8, 5);
        let prefix = vec![bank.mk_bvult(x, ten), bank.mk_bvult(y, x)];

        // Deltas: feasible, infeasible, and a proof obligation.
        let d_feasible = bank.mk_bvult(y, five);
        let big = bank.mk_bv(8, 200);
        let d_infeasible = bank.mk_bvult(big, y);
        let goal = bank.mk_bvult(y, ten); // prefix ⇒ y < 10

        let mut s = solver();
        let mut session = s.open_session(&prefix);
        assert_eq!(session.is_feasible(&mut bank, &[d_feasible]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[d_infeasible]), Some(false));
        assert!(session.prove_implies(&mut bank, &[], goal).is_proved());
        drop(session);

        let mut scratch = solver();
        let mut conj = prefix.clone();
        conj.push(d_feasible);
        assert_eq!(scratch.is_feasible(&mut bank, &conj), Some(true));
        let mut conj = prefix.clone();
        conj.push(d_infeasible);
        assert_eq!(scratch.is_feasible(&mut bank, &conj), Some(false));
        let hyps = prefix.clone();
        assert!(scratch.prove_implies(&mut bank, &hyps, goal).is_proved());

        // The session must have reused the prefix and blasted fewer terms.
        let st = s.stats();
        assert_eq!(st.sessions_opened, 1);
        assert!(st.prefix_hits >= 2, "prefix_hits = {}", st.prefix_hits);
        assert!(
            st.terms_blasted < scratch.stats().terms_blasted,
            "session blasted {} >= scratch {}",
            st.terms_blasted,
            scratch.stats().terms_blasted
        );
    }

    #[test]
    fn session_repeated_delta_hits_cache() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c = bank.mk_bv(8, 3);
        let prefix = vec![bank.mk_bvult(c, x)];
        let c200 = bank.mk_bv(8, 200);
        let delta = bank.mk_bvult(x, c200);
        let mut s = solver();
        let mut session = s.open_session(&prefix);
        assert_eq!(session.is_feasible(&mut bank, &[delta]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[delta]), Some(true));
        drop(session);
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn session_with_unsat_prefix_answers_unsat() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let zero = bank.mk_bv(8, 0);
        let prefix = vec![bank.mk_bvult(x, zero)]; // x <u 0: unsatisfiable
        let anything = bank.mk_eq(x, zero);
        let mut s = solver();
        let mut session = s.open_session(&prefix);
        assert_eq!(session.check_sat(&mut bank, &[anything]), CheckOutcome::Unsat);
        assert_eq!(session.check_sat(&mut bank, &[]), CheckOutcome::Unsat);
    }

    #[test]
    fn session_memory_reads_accumulate_ackermann_soundly() {
        // Two queries over the same base memory, each introducing a read;
        // the cross-query congruence pair must still be in force.
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let j = bank.mk_var("j", Sort::BitVec(64));
        let ri = bank.mk_select(mem, i);
        let rj = bank.mk_select(mem, j);
        let idx_eq = bank.mk_eq(i, j);
        let val_ne = bank.mk_ne(ri, rj);
        let mut s = solver();
        let mut session = s.open_session(&[idx_eq]);
        // First query introduces read(m, i) only.
        let zero8 = bank.mk_bv(8, 0);
        let ri_zero = bank.mk_eq(ri, zero8);
        assert_eq!(session.is_feasible(&mut bank, &[ri_zero]), Some(true));
        // Second query introduces read(m, j); with i = j in the prefix the
        // Ackermann pair forces r_i = r_j, so r_i ≠ r_j must be infeasible.
        assert_eq!(session.is_feasible(&mut bank, &[val_ne]), Some(false));
    }

    /// `(x, y, prefix, first)` of the model tests: the prefix `x <u 100`,
    /// and `y <u 50`, the first feasibility query, whose model the
    /// session keeps.
    fn model_test_terms(bank: &mut TermBank) -> (TermId, TermId, Vec<TermId>, TermId) {
        let x = bank.mk_var("x", Sort::BitVec(8));
        let y = bank.mk_var("y", Sort::BitVec(8));
        let (c100, c50) = (bank.mk_bv(8, 100), bank.mk_bv(8, 50));
        let prefix = vec![bank.mk_bvult(x, c100)];
        let first = bank.mk_bvult(y, c50);
        (x, y, prefix, first)
    }

    #[test]
    fn a_model_hit_blasts_nothing_and_adds_no_conflicts() {
        let mut bank = TermBank::new();
        let (_, y, prefix, first) = model_test_terms(&mut bank);
        let c60 = bank.mk_bv(8, 60);
        let implied = bank.mk_bvult(y, c60); // every model of the first query satisfies it
        let mut s = solver();
        let mut session = s.open_session(&prefix);
        assert_eq!(session.is_feasible(&mut bank, &[first]), Some(true));
        let before = session.solver.stats();
        let CheckOutcome::Sat(model) = session.ask(&mut bank, &[implied], false) else {
            panic!("a feasible query must answer Sat");
        };
        let st = session.solver.stats().since(&before);
        assert_eq!((st.model_hits, st.sat, st.queries), (1, 1, 1), "{st:?}");
        assert_eq!((st.terms_blasted, st.conflicts, st.prefix_hits), (0, 0, 0), "{st:?}");
        // The answer carries the witness, decoded from the reused model.
        let Some(&Value::Bv { value, .. }) = model.get("y") else { panic!("{model}") };
        assert!(value < 50, "{model}");
    }

    #[test]
    fn a_query_the_models_falsify_reaches_cdcl() {
        let mut bank = TermBank::new();
        let (x, y, prefix, first) = model_test_terms(&mut bank);
        let (c200, c150) = (bank.mk_bv(8, 200), bank.mk_bv(8, 150));
        let y_big = bank.mk_bvult(c200, y);
        let x_big = bank.mk_bvult(c150, x);
        let mut s = solver();
        let mut session = s.open_session(&prefix);
        assert_eq!(session.is_feasible(&mut bank, &[first]), Some(true));
        // No model of `y <u 50` has `y >u 200`: CDCL finds one.
        assert_eq!(session.is_feasible(&mut bank, &[y_big]), Some(true));
        // `x >u 150` contradicts the prefix: no model can answer it.
        assert_eq!(session.is_feasible(&mut bank, &[x_big]), Some(false));
        drop(session);
        let st = s.stats();
        assert_eq!((st.model_hits, st.prefix_hits), (0, 2), "{st:?}");
    }

    #[test]
    fn a_model_violating_a_new_side_condition_is_not_used() {
        // The prefix pins `i = 7` and `read(m, i) = 5`, so the first
        // query's model has both. The second query reads `m` at the constant 7,
        // a fresh read the model leaves at 0, which satisfies the delta
        // `read(m, 7) = 0` but not the new Ackermann side condition
        // `i = 7 → read(m, i) = read(m, 7)`. So the model must not answer,
        // and the query is infeasible.
        let mut bank = TermBank::new();
        let mem = bank.mk_var("m", Sort::Memory);
        let i = bank.mk_var("i", Sort::BitVec(64));
        let seven = bank.mk_bv(64, 7);
        let (five, zero) = (bank.mk_bv(8, 5), bank.mk_bv(8, 0));
        let pin = bank.mk_eq(i, seven);
        let read_i = bank.mk_select(mem, i);
        let read_7 = bank.mk_select(mem, seven);
        let five_at_i = bank.mk_eq(read_i, five);
        let c9 = bank.mk_bv(64, 9);
        let first = bank.mk_bvult(i, c9);
        let second = bank.mk_eq(read_7, zero);
        let mut s = solver();
        let mut session = s.open_session(&[pin, five_at_i]);
        assert_eq!(session.is_feasible(&mut bank, &[first]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[second]), Some(false));
        drop(session);
        assert_eq!(s.stats().model_hits, 0);
    }

    #[test]
    fn a_model_needing_query_never_reuses_a_model() {
        let mut bank = TermBank::new();
        let (_, y, prefix, first) = model_test_terms(&mut bank);
        let c60 = bank.mk_bv(8, 60);
        let implied = bank.mk_bvult(y, c60);
        let mut s = solver();
        let mut session = s.open_session(&prefix);
        assert_eq!(session.is_feasible(&mut bank, &[first]), Some(true));
        assert!(matches!(session.check_sat(&mut bank, &[implied]), CheckOutcome::Sat(_)));
        let c40 = bank.mk_bv(8, 40);
        let goal = bank.mk_bvult(y, c40);
        assert!(matches!(session.prove_implies(&mut bank, &[], goal), ProofOutcome::Refuted(_)));
        drop(session);
        let st = s.stats();
        assert_eq!((st.model_hits, st.prefix_hits), (0, 2), "{st:?}");
    }

    #[test]
    fn session_budget_outcomes_not_cached_and_warm_start_recovers() {
        // A hard query under a tiny conflict budget, then the same query
        // after raising the budget on the same solver: the budgeted outcome
        // must not be cached, and the retry must succeed warm.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(28));
        let y = bank.mk_var("y", Sort::BitVec(28));
        let prod = bank.mk_bvmul(x, y);
        let c = bank.mk_bv(28, 0x0c32_1175);
        let eq = bank.mk_eq(prod, c);
        let one = bank.mk_bv(28, 1);
        let x_big = bank.mk_bvult(one, x);
        let y_big = bank.mk_bvult(one, y);
        let mut s =
            Solver::with_budget(Budget { max_conflicts: 5, max_terms: 1_000_000, max_time: None });
        let mut session = s.open_session(&[x_big, y_big]);
        let first = session.check_sat(&mut bank, &[eq]);
        drop(session);
        if matches!(first, CheckOutcome::Budget(_)) {
            s.set_budget(Budget::default());
            let mut session = s.open_session(&[x_big, y_big]);
            match session.check_sat(&mut bank, &[eq]) {
                CheckOutcome::Sat(_) | CheckOutcome::Unsat => {}
                other => panic!("retry under full budget still budgeted: {other:?}"),
            }
        }
    }

    #[test]
    fn query_cache_eviction_is_bounded_and_counted() {
        let mut bank = TermBank::new();
        let mut s = solver();
        s.cache.max_entries = 8;
        let x = bank.mk_var("x", Sort::BitVec(8));
        for k in 0..32u128 {
            let c = bank.mk_bv(8, k);
            let a = bank.mk_bvult(c, x);
            let _ = s.check_sat(&mut bank, &[a]);
        }
        assert!(s.cached_queries() <= 8, "cache grew to {}", s.cached_queries());
        assert!(s.stats().cache_evictions >= 24 - 8, "evictions = {}", s.stats().cache_evictions);
    }

    #[test]
    fn scratch_and_session_caches_are_keyed_apart() {
        // prefix=[p], delta=[d] and prefix=[], delta=[p, d] are the same
        // conjunction but different keys; both must answer identically.
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c10 = bank.mk_bv(8, 10);
        let c3 = bank.mk_bv(8, 3);
        let p = bank.mk_bvult(x, c10);
        let d = bank.mk_bvult(c3, x);
        let mut s = solver();
        let mut session = s.open_session(&[p]);
        let via_session = session.check_sat(&mut bank, &[d]);
        drop(session);
        let via_scratch = s.check_sat(&mut bank, &[p, d]);
        assert!(matches!(via_session, CheckOutcome::Sat(_)));
        assert!(matches!(via_scratch, CheckOutcome::Sat(_)));
        assert_eq!(s.stats().cache_hits, 0, "distinct keys must not collide");
    }

    /// The `SolverQuery` events recorded in `ring`.
    fn solver_query_events(ring: &keq_trace::EventRing) -> u64 {
        let events = ring.snapshot();
        events.iter().filter(|e| matches!(e.event, keq_trace::Event::SolverQuery { .. })).count()
            as u64
    }

    #[test]
    fn every_counted_query_is_traced() {
        let ring = Arc::new(keq_trace::EventRing::new(1 << 10));
        let _trace = keq_trace::install(&keq_trace::TraceSink::from(Arc::clone(&ring)));
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c = bank.mk_bv(8, 3);
        let a = bank.mk_bvult(c, x);

        // Repeated queries: every repeat is a memo hit.
        let mut s = solver();
        for _ in 0..3 {
            assert!(matches!(s.check_sat(&mut bank, &[a]), CheckOutcome::Sat(_)));
        }
        let mut session = s.open_session(&[a]);
        for _ in 0..3 {
            assert_eq!(session.is_feasible(&mut bank, &[]), Some(true));
        }
        drop(session);
        let st = s.stats();
        assert_eq!(st.cache_hits, 5, "{st:?}");
        assert_eq!(solver_query_events(&ring), st.queries);
        assert_eq!(st.sat, st.queries);

        // Guard-forced outcomes: the fault fires at every query.
        let plan = FaultPlan { force_conflicts: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(7) };
        let _faults = fault::install(&plan, 0);
        let mut s = solver();
        let traced_before = solver_query_events(&ring);
        assert_eq!(s.check_sat(&mut bank, &[a]), CheckOutcome::Budget(BudgetKind::Conflicts));
        let mut session = s.open_session(&[a]);
        assert_eq!(session.feasibility(&mut bank, &[]), Err(BudgetKind::Conflicts));
        drop(session);
        let st = s.stats();
        assert_eq!(st.queries, 2);
        assert_eq!(st.budget, 2);
        assert_eq!(solver_query_events(&ring) - traced_before, st.queries);
    }

    #[test]
    fn cache_answered_queries_never_blast_the_prefix() {
        let mut bank = TermBank::new();
        let x = bank.mk_var("x", Sort::BitVec(8));
        let c3 = bank.mk_bv(8, 3);
        let c2 = bank.mk_bv(8, 2);
        let c200 = bank.mk_bv(8, 200);
        let p = bank.mk_bvult(c3, x);
        let sat_delta = bank.mk_bvult(x, c200);
        let unsat_delta = bank.mk_bvult(x, c2);
        let shared = Arc::new(SharedObligationCache::new());
        let mut a = solver();
        a.set_obligation_cache(Some(Arc::clone(&shared)));

        // A repeated scratch query is a memo hit: nothing is blasted again.
        assert!(matches!(a.check_sat(&mut bank, &[p, sat_delta]), CheckOutcome::Sat(_)));
        let blasted = a.stats().terms_blasted;
        assert!(blasted > 0);
        assert!(matches!(a.check_sat(&mut bank, &[p, sat_delta]), CheckOutcome::Sat(_)));
        assert_eq!(a.stats().terms_blasted, blasted);

        // The first session solves; a second one over the same prefix is
        // answered from the memo and never blasts its prefix.
        let mut session = a.open_session(&[p]);
        assert_eq!(session.is_feasible(&mut bank, &[sat_delta]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[unsat_delta]), Some(false));
        drop(session);
        let cache_answers = |st: SolverStats| st.cache_hits + st.obligation_cache_hits;
        let (blasted, answered) = (a.stats().terms_blasted, cache_answers(a.stats()));
        let mut session = a.open_session(&[p]);
        assert_eq!(session.is_feasible(&mut bank, &[sat_delta]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[unsat_delta]), Some(false));
        drop(session);
        assert_eq!(cache_answers(a.stats()), answered + 2);
        assert_eq!(a.stats().terms_blasted, blasted);

        // A second solver answers the same session from the shared cache.
        let mut b = solver();
        b.set_obligation_cache(Some(shared));
        let mut session = b.open_session(&[p]);
        assert_eq!(session.is_feasible(&mut bank, &[sat_delta]), Some(true));
        assert_eq!(session.is_feasible(&mut bank, &[unsat_delta]), Some(false));
        drop(session);
        assert_eq!(b.stats().obligation_cache_hits, 2);
        assert_eq!(b.stats().terms_blasted, 0);
    }
}
