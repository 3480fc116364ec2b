//! The batch front end: one corpus in, one classified row per function
//! out.
//!
//! [`run_module`] is a thin wrapper over the [`crate::scheduler`] core: it
//! loads the persistent stores (obligation cache, write-ahead verdict
//! journal) in the fixed storage order crash-safety depends on, starts a
//! [`Scheduler`], submits every not-yet-decided function, awaits every
//! verdict, drains, and assembles the [`CorpusSummary`]. All supervision —
//! panic isolation, watchdog deadlines, abandon-and-replace, the
//! escalating-budget retry ladder, warm starts, incremental store flushes
//! — lives in the scheduler and is shared with the long-lived
//! `keq-server` front end.
//!
//! The guarantees (one row per function, no matter how an individual
//! validation misbehaves) are documented on [`crate`]; results are
//! deterministic in content: rows are ordered by function index and,
//! faults and deadlines aside, classification does not depend on worker
//! count or scheduling.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use keq_core::KeqOptions;
use keq_isel::PassId;
use keq_llvm::ast::Module;
use keq_smt::fault::FaultPlan;
use keq_smt::Budget;
use keq_trace::ResumeSection;

use crate::journal::{self, JournalRecord};
use crate::panic_capture;
use crate::result::{AttemptRecord, CorpusResult, CorpusRow, CorpusSummary};
use crate::scheduler::{ClientQuota, MetricsConfig, Request, Scheduler, SchedulerConfig, Storage};

/// Escalating-budget retry policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum attempts per function (1 = never retry).
    pub max_attempts: u32,
    /// Budget multiplier between consecutive attempts: attempt `k`
    /// (1-based) runs with all resource budgets scaled by
    /// `factor^(k-1)`.
    pub factor: u64,
    /// Whether crash-class outcomes (caught panics) are re-queued like
    /// budget-class ones. A function still crashing on its final attempt is
    /// classified [`CorpusResult::Quarantined`] rather than `Crashed`: the
    /// crash survived retries, so it is reproducible, not transient.
    pub retry_crashes: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            factor: 4,
            retry_crashes: false,
        }
    }
}

impl RetryPolicy {
    /// The budget multiplier of a 1-based attempt number.
    pub fn scale(&self, attempt: u32) -> u64 {
        self.factor.saturating_pow(attempt.saturating_sub(1))
    }

    /// The checker options of a 1-based attempt: every resource budget
    /// (step fuel, conflict, term, and wall-clock limits) multiplied by
    /// [`RetryPolicy::scale`].
    pub fn options_for_attempt(&self, base: KeqOptions, attempt: u32) -> KeqOptions {
        let scale = self.scale(attempt);
        let scale32 = u32::try_from(scale).unwrap_or(u32::MAX);
        KeqOptions {
            max_steps: base.max_steps.saturating_mul(scale),
            time_limit: base.time_limit.map(|d| d.saturating_mul(scale32)),
            solver_budget: Budget {
                max_conflicts: base.solver_budget.max_conflicts.saturating_mul(scale),
                max_terms: base
                    .solver_budget
                    .max_terms
                    .saturating_mul(usize::try_from(scale).unwrap_or(usize::MAX)),
                max_time: base.solver_budget.max_time.map(|d| d.saturating_mul(scale32)),
            },
            ..base
        }
    }
}

/// Configuration of a supervised corpus run.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Base checker options of attempt 1 (later attempts scale them by
    /// [`RetryPolicy`]).
    pub keq: KeqOptions,
    /// Which validated passes to run. Every function is validated under
    /// every listed pass — the corpus fans out to `functions × passes`
    /// units, each classified into its own [`CorpusRow`]. Empty is treated
    /// as the classic single-pass ISel run.
    pub passes: Vec<PassId>,
    /// Worker threads; 0 picks the available parallelism.
    pub workers: usize,
    /// Hard per-attempt wall-clock deadline, enforced by cancellation
    /// (`None` disables the watchdog's deadline duty).
    pub deadline: Option<Duration>,
    /// How long past a cancellation a worker may keep running before the
    /// watchdog abandons it.
    pub grace: Duration,
    /// Watchdog sweep interval.
    pub watchdog_tick: Duration,
    /// Retry policy for budget-class failures.
    pub retry: RetryPolicy,
    /// Deterministic fault plan (use [`FaultPlan::quiet`] for none).
    pub fault_plan: FaultPlan,
    /// Carry a validation context (term bank + solver query cache)
    /// across retries of the same function, so an escalated-budget attempt
    /// warm-starts from the sub-obligations its predecessors already
    /// closed. Budgeted outcomes are never cached, so a starved attempt
    /// cannot poison a richer one; a panicking attempt discards its
    /// context entirely.
    pub warm_start: bool,
    /// Shared trace sink, installed on the supervisor thread and on every
    /// worker so one journal collects a coherent, epoch-aligned event
    /// stream (`None` disables tracing: probe sites cost one flag read).
    pub trace: Option<keq_trace::TraceSink>,
    /// On-disk obligation store for persistent warm starts: loaded into
    /// the run's [`keq_smt::SharedObligationCache`] before the first attempt and
    /// written back (append-only for a store of the current semantics
    /// revision) incrementally during the run and once more at the end.
    /// `None` keeps the cache purely in-memory — it is still shared across
    /// workers within the run.
    pub cache_path: Option<std::path::PathBuf>,
    /// Write-ahead verdict journal: every finalized `(function, verdict)`
    /// is appended (checksummed) as it is decided, so a killed run loses at
    /// most the in-flight functions. `None` disables journaling.
    pub journal_path: Option<std::path::PathBuf>,
    /// Recover finalized verdicts from `journal_path` before scheduling:
    /// functions already decided by a previous (killed) run are skipped and
    /// their journal rows merged into the summary as recovered rows.
    pub resume: bool,
    /// Flush the obligation store to `cache_path` every this many function
    /// finalizations (`0` = only the final shutdown flush). Incremental
    /// flushes are what make a kill lose batches, not the whole store.
    pub store_flush_every: u32,
    /// Circuit breaker: after this many *consecutive* storage-write
    /// failures (store flushes, journal appends — each breaker is
    /// per-target) the target degrades to memory-only for the rest of the
    /// run, with a `StoreDegraded` trace event, instead of hammering a sick
    /// disk once per finalization.
    pub store_breaker_threshold: u32,
    /// Live-telemetry configuration: the metrics registry, time-series
    /// collector, and slow-obligation profiler (disabled by default —
    /// probe sites then cost one thread-local flag read).
    pub metrics: MetricsConfig,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            keq: KeqOptions::default(),
            passes: vec![PassId::Isel],
            workers: 0,
            deadline: None,
            grace: Duration::from_millis(500),
            watchdog_tick: Duration::from_millis(10),
            retry: RetryPolicy::default(),
            fault_plan: FaultPlan::quiet(0),
            warm_start: true,
            trace: None,
            cache_path: None,
            journal_path: None,
            resume: false,
            store_flush_every: 8,
            store_breaker_threshold: 3,
            metrics: MetricsConfig::default(),
        }
    }
}

impl HarnessOptions {
    /// `workers`, with 0 resolved to the available parallelism, capped at
    /// `units`.
    pub(crate) fn workers_for(&self, units: usize) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism().map_or(4, usize::from).min(units).max(1)
        } else {
            self.workers
        }
    }
}

/// Validates every function of `module` under the harness — once per
/// configured pass — returning one classified row per (function, pass)
/// unit, ordered by function index and then pass order. See the crate
/// docs for the guarantees.
pub fn run_module(module: &Module, opts: &HarnessOptions) -> CorpusSummary {
    panic_capture::install_hook();
    // The caller's thread traces too: resume-skip decisions and the
    // journal open happen here, not on a scheduler thread.
    let _trace_guard = opts.trace.as_ref().map(keq_trace::install);
    let n = module.functions.len();
    let passes: Vec<PassId> =
        if opts.passes.is_empty() { vec![PassId::Isel] } else { opts.passes.clone() };
    let np = passes.len();
    // Total scheduled units: each function under each pass.
    let units = n * np;
    if n == 0 {
        return CorpusSummary::default();
    }
    let module = Arc::new(module.clone());

    // Resume matches a record by function index *and* per-function
    // fingerprint (and the whole journal by corpus fingerprint), so a
    // changed corpus can never inherit stale verdicts.
    let func_fps: Vec<u64> =
        module.functions.iter().map(journal::function_fingerprint).collect();
    let (storage, load) = Storage::open(opts, journal::fingerprint_of(&func_fps));
    let mut resume = ResumeSection {
        enabled: opts.resume && opts.journal_path.is_some(),
        recovered: load.records.len() as u64,
        corrupt: load.corrupt,
        ..ResumeSection::default()
    };
    let mut recovered: Vec<Option<JournalRecord>> = vec![None; units];
    for rec in load.records {
        let idx = rec.func as usize;
        // A record only matches a unit of this run if this run validates
        // that pass too (a changed pass set, like a changed corpus,
        // re-validates rather than inheriting).
        let Some(pi) = passes.iter().position(|&p| p == rec.pass) else { continue };
        if idx < n && func_fps[idx] == rec.func_fp {
            recovered[idx * np + pi] = Some(rec);
        }
    }

    let sched = Scheduler::start(SchedulerConfig {
        harness: HarnessOptions { workers: opts.workers_for(units), ..opts.clone() },
        // The batch front end is its own only client: no backpressure, no
        // quota — it submits the whole corpus at once and awaits all.
        queue_depth: 0,
        quota: ClientQuota::default(),
        request_events: false,
        storage,
    });

    // Pre-finalize recovered units — they are never submitted.
    let mut finals: Vec<Option<CorpusResult>> = vec![None; units];
    let mut attempts: Vec<Vec<AttemptRecord>> = vec![Vec::new(); units];
    for (unit, rec) in recovered.iter().enumerate() {
        if let Some(rec) = rec {
            finals[unit] = Some(rec.result.clone());
            resume.skipped += 1;
            keq_trace::emit(keq_trace::Event::ResumeSkipped { func: rec.func });
        }
    }

    // Submit corpus, await all, drain: the whole batch protocol. Unit
    // numbering is `func * passes + pass_position`, and the unit index is
    // the fault-plan unit, the trace id, and the completion tag alike.
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut pending = 0usize;
    for (func, &func_fp) in func_fps.iter().enumerate() {
        for (pi, &pass) in passes.iter().enumerate() {
            let unit = func * np + pi;
            if recovered[unit].is_some() {
                continue;
            }
            sched
                .submit(
                    Request {
                        module: Arc::clone(&module),
                        func,
                        pass,
                        func_fp,
                        unit: unit as u64,
                        trace_id: unit as u32,
                        client: 0,
                        tag: unit as u64,
                        deadline: None,
                        max_attempts: None,
                    },
                    reply_tx.clone(),
                )
                .expect("batch scheduler is unbounded and never rejects");
            pending += 1;
        }
    }
    for _ in 0..pending {
        let done = reply_rx.recv().expect("scheduler delivers every verdict");
        let unit = done.tag as usize;
        attempts[unit] = done.attempts;
        finals[unit] = Some(done.result);
    }
    let fin = sched.drain();

    let mut summary = CorpusSummary {
        solver: fin.solver,
        cache: fin.cache,
        resume,
        telemetry: fin.telemetry,
        ..CorpusSummary::default()
    };
    for (index, f) in module.functions.iter().enumerate() {
        let size: usize = f.blocks.iter().map(|b| b.instrs.len() + 1).sum();
        for (pi, &pass) in passes.iter().enumerate() {
            let unit = index * np + pi;
            let rows_attempts = std::mem::take(&mut attempts[unit]);
            let (time, is_recovered) = match &recovered[unit] {
                // A recovered row carries the killed run's journal-recorded
                // wall time; its per-attempt observations died with the
                // killed process, so `attempts` stays empty.
                Some(rec) => (rec.time(), true),
                None => (rows_attempts.iter().map(|a| a.time).sum(), false),
            };
            summary.rows.push(CorpusRow {
                name: f.name.clone(),
                index,
                pass,
                size,
                time,
                result: finals[unit].take().expect("every unit finalized"),
                recovered: is_recovered,
                attempts: rows_attempts,
            });
        }
    }
    summary
}
