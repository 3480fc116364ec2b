//! The symbolic equivalence checker — Algorithm 1, symbolic variant.
//!
//! [`Keq::check`] takes two [`Language`] implementations (the operational
//! semantics parameters of the paper) and a [`SyncSet`] (the verification
//! condition) and decides whether the synchronization relation is a
//! cut-bisimulation:
//!
//! 1. every *startable* point is instantiated with fresh shared symbolic
//!    inputs (its equality constraints become assumptions);
//! 2. both sides are symbolically executed to their cut frontiers
//!    (`next_i` of Algorithm 1: run until a state matches some sync-point
//!    pattern, never stopping before one step);
//! 3. every successor pair `(n1, n2)` is discharged: either its path
//!    intersection is infeasible, or acceptability's error rules apply
//!    (§4.6), or some sync point matches both locations and its equality
//!    and memory constraints are proved under
//!    `assumptions ∧ path(n1) ∧ path(n2)`.
//!
//! Because both language semantics are deterministic, the per-valuation
//! successor pairing is exactly the set-inclusion check
//! `[[(n1, n2)]] ⊆ [[P]]` of the paper's symbolic Algorithm 1.

use keq_semantics::{
    memory_equal_obligations_masked, read_bytes, CtrlLoc, ErrorRelation, Language, LocPattern,
    Status, SymConfig,
};
use keq_smt::fault::{self, FaultAction, FaultSite};
use keq_smt::{
    stop_requested, Budget, CancelToken, ProofOutcome, Session, Solver, Sort, StopCause, TermBank,
    TermId,
};

use crate::sync::{Side, SideSpec, SyncPoint, SyncSet, ValueExpr};
use crate::verdict::{Failure, FailureReason, KeqReport, KeqStats, Verdict};

/// Tuning knobs for a check.
#[derive(Debug, Clone, Copy)]
pub struct KeqOptions {
    /// Maximum symbolic steps per cut-frontier exploration; exhaustion is
    /// reported as the timeout failure class.
    pub max_steps: u64,
    /// Wall-clock limit for the whole check (the analogue of the paper's
    /// 3-hour per-function timeout); `None` disables it.
    pub time_limit: Option<std::time::Duration>,
    /// SMT budget per query.
    pub solver_budget: Budget,
}

impl Default for KeqOptions {
    fn default() -> Self {
        KeqOptions { max_steps: 4_000, time_limit: None, solver_budget: Budget::default() }
    }
}

/// The language-parametric equivalence checker.
pub struct Keq<'a> {
    left: &'a dyn Language,
    right: &'a dyn Language,
    opts: KeqOptions,
    cancel: Option<CancelToken>,
}

impl<'a> Keq<'a> {
    /// Creates a checker for the given language pair under the paper's
    /// acceptability policy (§4.6).
    pub fn new(left: &'a dyn Language, right: &'a dyn Language) -> Self {
        Keq { left, right, opts: KeqOptions::default(), cancel: None }
    }

    /// Overrides the options.
    pub fn with_options(mut self, opts: KeqOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Attaches a supervisor cancellation token, polled between symbolic
    /// steps, between pair discharges, and inside the SMT solver's CDCL
    /// loop. Cancellation surfaces as [`FailureReason::Cancelled`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Runs the check with a fresh solver.
    pub fn check(&self, bank: &mut TermBank, sync: &SyncSet) -> KeqReport {
        let mut solver = Solver::new();
        self.check_with_solver(bank, sync, &mut solver)
    }

    /// Runs the check against a caller-supplied solver, so escalating-budget
    /// retries can warm-start: the solver's query cache (and any closed
    /// sub-obligations in it) carries over between attempts. The checker's
    /// budget and cancellation token are installed onto the solver; its
    /// statistics are reported as the *delta* accumulated by this run, so
    /// reuse across runs does not inflate per-run reports.
    pub fn check_with_solver(
        &self,
        bank: &mut TermBank,
        sync: &SyncSet,
        solver: &mut Solver,
    ) -> KeqReport {
        let _ = fault::poll(FaultSite::CheckerEntry);
        let deadline = self.opts.time_limit.map(|d| std::time::Instant::now() + d);
        solver.set_budget(self.opts.solver_budget);
        solver.set_cancel(self.cancel.clone());
        let stats_before = solver.stats();
        let mut stats = KeqStats::default();
        let startable: Vec<&SyncPoint> = sync.iter().filter(|p| p.is_startable()).collect();
        if startable.is_empty() {
            return KeqReport {
                verdict: Verdict::NotValidated(Failure {
                    point: "<none>".into(),
                    reason: FailureReason::NoStartablePoints,
                }),
                stats,
            };
        }
        for point in startable {
            stats.start_points += 1;
            if let Err(reason) = self.check_point(bank, solver, sync, point, deadline, &mut stats) {
                stats.solver = solver.stats().since(&stats_before);
                trace_check_counters(&stats);
                return KeqReport {
                    verdict: Verdict::NotValidated(Failure { point: point.name.clone(), reason }),
                    stats,
                };
            }
        }
        stats.solver = solver.stats().since(&stats_before);
        trace_check_counters(&stats);
        let verdict = if stats.absorbed_ub { Verdict::Refines } else { Verdict::Equivalent };
        KeqReport { verdict, stats }
    }

    /// The `check(p1, p2)` of Algorithm 1 for one start point.
    ///
    /// Opens one incremental [`Session`] whose prefix is the point's
    /// instantiation assumptions: every feasibility prune, error-rule
    /// check, and target-constraint proof for this point shares that
    /// prefix, so each query lowers and bit-blasts only its own path
    /// delta (the paper's use of Z3's incremental interface).
    fn check_point(
        &self,
        bank: &mut TermBank,
        solver: &mut Solver,
        sync: &SyncSet,
        point: &SyncPoint,
        deadline: Option<std::time::Instant>,
        stats: &mut KeqStats,
    ) -> Result<(), FailureReason> {
        let _span = keq_trace::span(keq_trace::Phase::SyncPoint);
        let (c1, c2, assumptions) = instantiate(bank, point)?;
        let mut session = solver.open_session(&assumptions);
        let n1 = self.frontier(bank, &mut session, sync, Side::Left, c1, deadline, stats)?;
        let n2 = self.frontier(bank, &mut session, sync, Side::Right, c2, deadline, stats)?;
        for s1 in &n1 {
            for s2 in &n2 {
                check_stop(deadline, self.cancel.as_ref())?;
                stats.pairs_checked += 1;
                self.discharge_pair(bank, &mut session, sync, s1, s2, stats)?;
            }
        }
        Ok(())
    }

    /// Symbolically executes `cfg` to its cut frontier (`next_i`). The
    /// session's prefix supplies the start point's assumptions, so each
    /// feasibility prune submits only the successor's path delta.
    #[allow(clippy::too_many_arguments)]
    fn frontier(
        &self,
        bank: &mut TermBank,
        session: &mut Session<'_>,
        sync: &SyncSet,
        side: Side,
        cfg: SymConfig,
        deadline: Option<std::time::Instant>,
        stats: &mut KeqStats,
    ) -> Result<Vec<SymConfig>, FailureReason> {
        let lang: &dyn Language = match side {
            Side::Left => self.left,
            Side::Right => self.right,
        };
        let mut out = Vec::new();
        // The start state must take at least one step (Def. 7.3: k > 0),
        // so we unconditionally step it before classification.
        let mut work: Vec<SymConfig> = vec![cfg];
        let mut first = true;
        let mut fuel = self.opts.max_steps;
        while let Some(c) = work.pop() {
            if !first && self.is_cut_state(sync, side, &c) {
                out.push(c);
                continue;
            }
            match &c.status {
                Status::Running => {}
                // Terminal but not matching any cut pattern: keep it so the
                // pair discharge reports the mismatch instead of silently
                // dropping the behavior.
                _ => {
                    out.push(c);
                    continue;
                }
            }
            if fuel == 0 {
                return Err(FailureReason::FuelExhausted { side });
            }
            check_stop(deadline, self.cancel.as_ref())?;
            if let FaultAction::ForceBudget(kind) = fault::poll(FaultSite::CheckerStep) {
                return Err(FailureReason::SolverBudget(kind));
            }
            fuel -= 1;
            stats.steps += 1;
            let succs =
                lang.step(&c, bank).map_err(|error| FailureReason::Semantics { side, error })?;
            if succs.is_empty() {
                return Err(FailureReason::Semantics {
                    side,
                    error: keq_semantics::SemanticsError::Internal {
                        what: format!("stuck state at {}", c.loc),
                    },
                });
            }
            let branching = succs.len() > 1;
            for s in succs {
                // Cheap syntactic pruning: a literal-false path is dead.
                if s.path.iter().any(|&t| bank.as_bool_const(t) == Some(false)) {
                    continue;
                }
                // Solver pruning for real branches only.
                if branching {
                    let span = keq_trace::span(keq_trace::Phase::Feasibility);
                    let feasible = session.is_feasible(bank, &s.path);
                    span.done();
                    if feasible == Some(false) {
                        continue;
                    }
                }
                work.push(s);
            }
            first = false;
        }
        Ok(out)
    }

    fn is_cut_state(&self, sync: &SyncSet, side: Side, cfg: &SymConfig) -> bool {
        match &cfg.status {
            Status::Running => {
                cfg.loc.at_block_start()
                    && sync.iter().any(|p| pattern_matches(side_spec(p, side), cfg))
            }
            // Final states are always cut states (Def. 2.1 / §7).
            _ => true,
        }
    }

    /// Discharges one successor pair: the symbolic inclusion check of
    /// Algorithm 1 line 9.
    fn discharge_pair(
        &self,
        bank: &mut TermBank,
        session: &mut Session<'_>,
        sync: &SyncSet,
        s1: &SymConfig,
        s2: &SymConfig,
        stats: &mut KeqStats,
    ) -> Result<(), FailureReason> {
        match keq_semantics::accept::relate(&s1.status, &s2.status) {
            ErrorRelation::LeftErrorAbsorbs => {
                let _span = keq_trace::span(keq_trace::Phase::ErrorRule);
                // Source-program UB: anything on the right is acceptable,
                // but only on paths where the UB actually occurs together
                // with the right behavior; if the intersection is
                // infeasible this is vacuous either way.
                if self.intersection_feasible(bank, session, s1, s2)? {
                    stats.absorbed_ub = true;
                }
                Ok(())
            }
            ErrorRelation::MatchedErrors => Ok(()),
            ErrorRelation::Unrelated => {
                let _span = keq_trace::span(keq_trace::Phase::ErrorRule);
                if self.intersection_feasible(bank, session, s1, s2)? {
                    Err(FailureReason::UnmatchedPair { left: describe(s1), right: describe(s2) })
                } else {
                    Ok(())
                }
            }
            ErrorRelation::NotErrors => {
                let Some(target) = sync
                    .iter()
                    .find(|p| pattern_matches(&p.left, s1) && pattern_matches(&p.right, s2))
                else {
                    return if self.intersection_feasible(bank, session, s1, s2)? {
                        Err(FailureReason::UnmatchedPair {
                            left: describe(s1),
                            right: describe(s2),
                        })
                    } else {
                        Ok(())
                    };
                };
                self.prove_target_constraints(bank, session, sync, target, s1, s2, stats)
            }
        }
    }

    /// Is `prefix ∧ path(s1) ∧ path(s2)` satisfiable? Only the two path
    /// deltas are submitted; the session prefix carries the assumptions.
    fn intersection_feasible(
        &self,
        bank: &mut TermBank,
        session: &mut Session<'_>,
        s1: &SymConfig,
        s2: &SymConfig,
    ) -> Result<bool, FailureReason> {
        let _span = keq_trace::span(keq_trace::Phase::Feasibility);
        let mut conj = s1.path.clone();
        conj.extend(s2.path.iter().copied());
        session.feasibility(bank, &conj).map_err(FailureReason::SolverBudget)
    }

    /// Proves the equality and memory constraints of `target` for the pair.
    #[allow(clippy::too_many_arguments)]
    fn prove_target_constraints(
        &self,
        bank: &mut TermBank,
        session: &mut Session<'_>,
        sync: &SyncSet,
        target: &SyncPoint,
        s1: &SymConfig,
        s2: &SymConfig,
        stats: &mut KeqStats,
    ) -> Result<(), FailureReason> {
        let _span = keq_trace::span(keq_trace::Phase::TargetConstraint);
        let mut hyps = s1.path.clone();
        hyps.extend(s2.path.iter().copied());
        let mut obligations: Vec<(String, TermId)> = Vec::new();
        for (e1, e2) in &target.equalities {
            let t1 =
                resolve(bank, e1, s1).map_err(|constraint| FailureReason::ConstraintUnproved {
                    target: target.name.clone(),
                    constraint,
                    countermodel: None,
                })?;
            let t2 =
                resolve(bank, e2, s2).map_err(|constraint| FailureReason::ConstraintUnproved {
                    target: target.name.clone(),
                    constraint,
                    countermodel: None,
                })?;
            let (t1, t2) = unify_widths(bank, t1, t2);
            let eq = bank.mk_eq(t1, t2);
            obligations.push((format!("{e1:?} = {e2:?}"), eq));
        }
        if target.mem_equal {
            match memory_equal_obligations_masked(bank, s1.mem, s2.mem, &sync.right_private) {
                Some(obs) => {
                    for (i, ob) in obs.into_iter().enumerate() {
                        obligations.push((format!("memory[{i}]"), ob));
                    }
                }
                None => {
                    return Err(FailureReason::MemoryBasesDiffer { target: target.name.clone() })
                }
            }
        }
        for (desc, ob) in obligations {
            stats.obligations_proved += 1;
            match session.prove_implies(bank, &hyps, ob) {
                ProofOutcome::Proved => {}
                ProofOutcome::Refuted(model) => {
                    return Err(FailureReason::ConstraintUnproved {
                        target: target.name.clone(),
                        constraint: desc,
                        countermodel: Some(model.to_string()),
                    })
                }
                ProofOutcome::Budget(k) => return Err(FailureReason::SolverBudget(k)),
            }
        }
        Ok(())
    }
}

/// Reports the check's headline counters to the trace journal and the
/// metrics registry (one flag branch each when both are disabled).
fn trace_check_counters(stats: &KeqStats) {
    keq_trace::metrics::counter_add(keq_trace::CounterId::SyncPoints, stats.start_points);
    keq_trace::metrics::counter_add(keq_trace::CounterId::Obligations, stats.obligations_proved);
    if !keq_trace::enabled() {
        return;
    }
    keq_trace::emit(keq_trace::Event::Counter {
        name: "check.start_points",
        delta: stats.start_points,
    });
    keq_trace::emit(keq_trace::Event::Counter {
        name: "check.pairs_checked",
        delta: stats.pairs_checked,
    });
    keq_trace::emit(keq_trace::Event::Counter {
        name: "check.obligations_proved",
        delta: stats.obligations_proved,
    });
    keq_trace::emit(keq_trace::Event::Counter { name: "check.steps", delta: stats.steps });
    keq_trace::emit(keq_trace::Event::Counter {
        name: "check.obligation_cache_hits",
        delta: stats.solver.obligation_cache_hits,
    });
}

/// Polls the deadline and the supervisor's cancellation flag at a safe
/// point, mapping each stop cause onto its failure reason.
fn check_stop(
    deadline: Option<std::time::Instant>,
    cancel: Option<&CancelToken>,
) -> Result<(), FailureReason> {
    match stop_requested(deadline, cancel) {
        None => Ok(()),
        Some(StopCause::Cancelled) => Err(FailureReason::Cancelled),
        Some(StopCause::DeadlineElapsed) => Err(FailureReason::TimeLimit),
    }
}

fn side_spec(point: &SyncPoint, side: Side) -> &SideSpec {
    match side {
        Side::Left => &point.left,
        Side::Right => &point.right,
    }
}

/// Whether a configuration matches a side pattern.
fn pattern_matches(spec: &SideSpec, cfg: &SymConfig) -> bool {
    match (&spec.pattern, &cfg.status) {
        (LocPattern::BlockEntry { block, prev }, Status::Running) => {
            cfg.loc.at_block_start()
                && cfg.loc.block == *block
                && match prev {
                    None => true,
                    Some(p) => cfg.loc.prev.as_deref() == Some(p.as_str()),
                }
        }
        (LocPattern::Exit, Status::Exited { .. }) => true,
        (LocPattern::BeforeCall { callee, nth }, Status::AtCall { callee: c, nth: n, .. }) => {
            callee == c && nth == n
        }
        // Entry and AfterCall patterns are start-only.
        _ => false,
    }
}

/// Instantiates a startable sync point: builds the pair of start
/// configurations over fresh shared symbolic inputs and returns the
/// residual equality constraints as assumptions.
///
/// Where an equality's right-hand side names a fresh havoc register, the
/// equality is applied as a *substitution* instead of an assumption — the
/// two sides then literally share symbolic variables, exactly like the
/// paper's `p0` whose constraint `a0 = a0'` lets both states use one
/// symbol. Shared leaves make most downstream proof obligations fold away
/// syntactically via hash-consing.
fn instantiate(
    bank: &mut TermBank,
    point: &SyncPoint,
) -> Result<(SymConfig, SymConfig, Vec<TermId>), FailureReason> {
    let mem = bank.fresh_var(&format!("mem@{}", point.name), Sort::Memory);
    let mem2 = if point.mem_equal {
        mem
    } else {
        bank.fresh_var(&format!("memR@{}", point.name), Sort::Memory)
    };
    let start1 = point.left.start.clone().expect("startable point");
    let start2 = point.right.start.clone().expect("startable point");
    let c1 = havoc_side(bank, &point.left, &point.name, Side::Left, start1, mem);
    let mut c2 = havoc_side(bank, &point.right, &point.name, Side::Right, start2, mem2);
    let mut assumptions = Vec::new();
    let mut substituted: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (e1, e2) in &point.equalities {
        let t1 = resolve(bank, e1, &c1).map_err(|c| internal(point, &c))?;
        // Substitution fast path: tie the right register directly to the
        // left value.
        let applied = match e2 {
            ValueExpr::Reg(name) if !substituted.contains(name) && c2.reg(name).is_ok() => {
                let w2 = bank.sort(c2.reg(name).expect("present")).width();
                let w1 = bank.sort(t1).width();
                match (w1, w2) {
                    (Some(w1), Some(w2)) if w1 <= w2 => {
                        let v = bank.mk_zext(t1, w2);
                        c2.set_reg(name.clone(), v);
                        substituted.insert(name.clone());
                        true
                    }
                    _ => false,
                }
            }
            ValueExpr::RegSlice { name, hi, lo: 0 }
                if !substituted.contains(name) && c2.reg(name).is_ok() =>
            {
                let w2 = bank.sort(c2.reg(name).expect("present")).width();
                let w1 = bank.sort(t1).width();
                match (w1, w2) {
                    (Some(w1), Some(w2)) if w1 == hi + 1 && w1 < w2 => {
                        // reg = concat(fresh upper bits, left value): the
                        // exact set of states satisfying the slice equality.
                        let upper = bank.fresh_var(
                            &format!("{}.hi.{}", point.name, name),
                            Sort::BitVec(w2 - w1),
                        );
                        let v = bank.mk_concat(upper, t1);
                        c2.set_reg(name.clone(), v);
                        substituted.insert(name.clone());
                        true
                    }
                    _ => false,
                }
            }
            _ => false,
        };
        if applied {
            continue;
        }
        let t2 = resolve(bank, e2, &c2).map_err(|c| internal(point, &c))?;
        let (t1, t2) = unify_widths(bank, t1, t2);
        let eq = bank.mk_eq(t1, t2);
        if bank.as_bool_const(eq) != Some(true) {
            assumptions.push(eq);
        }
    }
    Ok((c1, c2, assumptions))
}

fn internal(point: &SyncPoint, what: &str) -> FailureReason {
    FailureReason::Semantics {
        side: Side::Left,
        error: keq_semantics::SemanticsError::Internal {
            what: format!("bad value expression at start point {}: {what}", point.name),
        },
    }
}

fn havoc_side(
    bank: &mut TermBank,
    spec: &SideSpec,
    point: &str,
    side: Side,
    start: CtrlLoc,
    mem: TermId,
) -> SymConfig {
    let mut cfg = SymConfig::new(start, mem);
    for (reg, width) in &spec.havoc_regs {
        let sort = if *width == 0 { Sort::Bool } else { Sort::BitVec(*width) };
        let v = bank.fresh_var(&format!("{}.{}.{}", point, side.label(), reg), sort);
        cfg.set_reg(reg.clone(), v);
    }
    cfg
}

/// Resolves a [`ValueExpr`] against a configuration.
fn resolve(bank: &mut TermBank, expr: &ValueExpr, cfg: &SymConfig) -> Result<TermId, String> {
    match expr {
        ValueExpr::Reg(name) => cfg.reg(name).map_err(|e| e.to_string()),
        ValueExpr::RegSlice { name, hi, lo } => {
            let full = cfg.reg(name).map_err(|e| e.to_string())?;
            Ok(bank.mk_extract(full, *hi, *lo))
        }
        ValueExpr::Const { value, width } => Ok(bank.mk_bv(*width, *value)),
        ValueExpr::Ret => match &cfg.status {
            Status::Exited { ret: Some(r) } => Ok(*r),
            Status::Exited { ret: None } => Err("Ret used on a void exit".into()),
            _ => Err("Ret used on a non-exited state".into()),
        },
        ValueExpr::Arg(i) => match &cfg.status {
            Status::AtCall { args, .. } => {
                args.get(*i).copied().ok_or_else(|| format!("call has no argument {i}"))
            }
            _ => Err("Arg used on a non-call state".into()),
        },
        ValueExpr::Slot { addr, width } => {
            if *width == 0 || width % 8 != 0 {
                return Err(format!("slot width {width} is not a byte multiple"));
            }
            let a = bank.mk_bv(64, u128::from(*addr));
            Ok(read_bytes(bank, cfg.mem, a, width / 8))
        }
    }
}

/// Zero-extends the narrower operand so cross-language widths (e.g. an i1
/// against a 32-bit flag materialization) can be compared.
fn unify_widths(bank: &mut TermBank, t1: TermId, t2: TermId) -> (TermId, TermId) {
    let (s1, s2) = (bank.sort(t1), bank.sort(t2));
    match (s1.width(), s2.width()) {
        (Some(w1), Some(w2)) if w1 < w2 => (bank.mk_zext(t1, w2), t2),
        (Some(w1), Some(w2)) if w2 < w1 => (t1, bank.mk_zext(t2, w1)),
        _ => (t1, t2),
    }
}

fn describe(cfg: &SymConfig) -> String {
    match &cfg.status {
        Status::Running => format!("running at {}", cfg.loc),
        Status::Exited { ret } => {
            format!("exited ({})", if ret.is_some() { "value" } else { "void" })
        }
        Status::AtCall { callee, nth, .. } => format!("at call {callee}#{nth}"),
        Status::Error(k) => format!("error: {k}"),
    }
}
