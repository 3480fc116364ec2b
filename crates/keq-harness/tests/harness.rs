//! End-to-end tests of the fault-isolated corpus harness: every row of the
//! ISSUE's robustness contract — deadlines classify as Timeout without
//! work, injected panics are isolated into `Crashed` rows, term exhaustion
//! lands in the out-of-memory row, escalating retries rescue
//! budget-limited functions, a seeded fault plan's predictions match the
//! result table exactly, and wedged workers are abandoned by the watchdog
//! while slow-but-cooperative ones are not.

use std::time::Duration;

use keq_core::{FailureClass, KeqOptions, Verdict};
use keq_harness::{run_module, CorpusResult, HarnessOptions, ResultKind, RetryPolicy};
use keq_llvm::ast::Module;
use keq_smt::fault::{FaultPlan, InjectedFault, Rate};
use keq_smt::{Budget, BudgetKind};
use keq_workload::{generate_corpus, GenConfig};

/// A two-armed diamond: enough frontier steps (> 20) that every
/// cancellation/deadline poll budget in these tests is comfortably
/// exceeded, yet cheap to validate.
const BRANCHY: &str = r#"
define i32 @f(i32 %x, i32 %y) {
entry:
  %c = icmp slt i32 %x, %y
  br i1 %c, label %a, label %b
a:
  %s = add i32 %x, %y
  br label %j
b:
  %d = mul i32 %x, 3
  br label %j
j:
  %p = phi i32 [ %s, %a ], [ %d, %b ]
  ret i32 %p
}
"#;

/// Division forces a real solver query (the congruence fast path cannot
/// discharge a division circuit against a term budget of one), so a
/// term-cap run deterministically exhausts the memory-class budget.
const DIVIDES: &str = r#"
define i32 @h(i32 %x, i32 %y) {
entry:
  %d = sdiv i32 %x, %y
  ret i32 %d
}
"#;

fn parse(src: &str) -> Module {
    keq_llvm::parse_module(src).expect("test module parses")
}

fn validate(src: &str, keq: KeqOptions) -> keq_isel::ValidationOutcome {
    let m = parse(src);
    keq_isel::validate_function(
        &m,
        &m.functions[0],
        keq_isel::IselOptions::default(),
        keq_isel::VcOptions::default(),
        keq,
    )
    .expect("test module is supported")
}

/// Small all-supported corpus (no loops/calls/memory keeps validation
/// cheap and every baseline row `Succeeded`).
fn small_corpus(n: usize) -> Module {
    generate_corpus(
        GenConfig {
            seed: 1,
            loops: false,
            calls: false,
            memory: false,
            division: false,
            ..GenConfig::default()
        },
        n,
    )
}

#[test]
fn expired_deadline_times_out_without_stepping() {
    // Direct pipeline: an already-expired wall clock is noticed before the
    // first symbolic step.
    let out =
        validate(BRANCHY, KeqOptions { time_limit: Some(Duration::ZERO), ..KeqOptions::default() });
    let Verdict::NotValidated(fail) = &out.report.verdict else {
        panic!("expected a timeout, got {:?}", out.report.verdict);
    };
    assert_eq!(fail.reason.failure_class(), FailureClass::Timeout);
    assert_eq!(out.report.stats.steps, 0, "no work under an expired deadline");

    // Through the harness the same run lands in the Timeout row, and the
    // escalating retry fires (4x a zero time limit is still zero) before
    // the classification is finalized.
    let m = parse(BRANCHY);
    let opts = HarnessOptions {
        keq: KeqOptions { time_limit: Some(Duration::ZERO), ..KeqOptions::default() },
        workers: 1,
        retry: RetryPolicy { max_attempts: 2, factor: 4, ..RetryPolicy::default() },
        ..HarnessOptions::default()
    };
    let summary = run_module(&m, &opts);
    assert_eq!(summary.rows.len(), 1);
    let row = &summary.rows[0];
    assert_eq!(row.result, CorpusResult::Timeout);
    assert_eq!(row.attempts.len(), 2, "timeout is retryable, so both attempts ran");
    assert!(row.attempts.iter().all(|a| a.result == CorpusResult::Timeout && !a.abandoned));
    assert_eq!(row.attempts[1].budget_scale, 4);
}

#[test]
fn injected_panic_is_isolated_into_crashed_rows() {
    let module = small_corpus(4);
    let opts = HarnessOptions {
        fault_plan: FaultPlan { panic: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(3) },
        workers: 2,
        ..HarnessOptions::default()
    };
    let summary = run_module(&module, &opts);
    assert_eq!(summary.rows.len(), 4, "a panicking corpus still yields every row");
    for row in &summary.rows {
        let CorpusResult::Crashed { message, location } = &row.result else {
            panic!("{}: expected Crashed, got {:?}", row.name, row.result);
        };
        assert!(
            message.contains("injected fault"),
            "{}: captured message should carry the panic text, got {message:?}",
            row.name
        );
        assert!(
            location.as_deref().is_some_and(|l| l.contains("fault.rs")),
            "{}: panic source location should be captured separately, got {location:?}",
            row.name
        );
        assert_eq!(row.attempts.len(), 1, "panics are not retryable");
        assert!(!row.attempts[0].abandoned);
    }
}

#[test]
fn crash_retries_end_in_quarantine_not_crashed() {
    // With `retry_crashes` on, a deterministically re-firing panic is
    // retried and then *quarantined*: the summary separates "crashed once"
    // (possibly transient) from "still crashing after every allowed
    // attempt" (reproducible).
    let module = small_corpus(2);
    let opts = HarnessOptions {
        fault_plan: FaultPlan { panic: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(3) },
        workers: 2,
        retry: RetryPolicy { max_attempts: 2, factor: 4, retry_crashes: true },
        ..HarnessOptions::default()
    };
    let summary = run_module(&module, &opts);
    assert_eq!(summary.count(ResultKind::Quarantined), 2);
    assert_eq!(summary.count(ResultKind::Crashed), 0);
    for row in &summary.rows {
        let CorpusResult::Quarantined { message, location } = &row.result else {
            panic!("{}: expected Quarantined, got {:?}", row.name, row.result);
        };
        assert!(message.contains("injected fault"), "got {message:?}");
        assert!(location.as_deref().is_some_and(|l| l.contains("fault.rs")), "got {location:?}");
        assert_eq!(row.attempts.len(), 2, "the crash was retried before quarantining");
        assert!(
            row.attempts.iter().all(|a| matches!(a.result, CorpusResult::Crashed { .. })),
            "attempt records keep the raw crash classification"
        );
    }
    assert!(summary.summary_line().contains("quarantined 2"), "{}", summary.summary_line());
}

#[test]
fn term_cap_classifies_as_out_of_memory() {
    let keq = KeqOptions {
        solver_budget: Budget { max_terms: 1, ..Budget::default() },
        ..KeqOptions::default()
    };
    // Direct pipeline: the exhaustion keeps its memory-class identity.
    let out = validate(DIVIDES, keq);
    let Verdict::NotValidated(fail) = &out.report.verdict else {
        panic!("expected budget exhaustion, got {:?}", out.report.verdict);
    };
    assert_eq!(fail.reason.failure_class(), FailureClass::OutOfMemory);

    // And the harness files it in the Fig. 6 out-of-memory row.
    let m = parse(DIVIDES);
    let opts = HarnessOptions { keq, workers: 1, ..HarnessOptions::default() };
    let summary = run_module(&m, &opts);
    assert_eq!(summary.rows[0].result, CorpusResult::OutOfMemory);
}

#[test]
fn retry_escalation_rescues_a_fuel_limited_function() {
    // Self-calibrating: find the minimal per-frontier fuel that still
    // validates, then run the harness one step below it.
    let succeeds = |max_steps: u64| {
        matches!(
            validate(BRANCHY, KeqOptions { max_steps, ..KeqOptions::default() }).report.verdict,
            Verdict::Equivalent | Verdict::Refines
        )
    };
    let (mut lo, mut hi) = (1u64, KeqOptions::default().max_steps);
    assert!(succeeds(hi), "sanity: the probe function validates at default fuel");
    while lo < hi {
        let mid = (lo + hi) / 2;
        if succeeds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let minimal = lo;
    assert!(minimal > 1, "probe function needs real fuel for the test to bite");

    let m = parse(BRANCHY);
    let opts = HarnessOptions {
        keq: KeqOptions { max_steps: minimal - 1, ..KeqOptions::default() },
        workers: 1,
        retry: RetryPolicy { max_attempts: 2, factor: 4, ..RetryPolicy::default() },
        ..HarnessOptions::default()
    };
    let summary = run_module(&m, &opts);
    let row = &summary.rows[0];
    assert_eq!(row.result, CorpusResult::Succeeded, "4x fuel must rescue the run");
    assert_eq!(row.attempts.len(), 2);
    assert_eq!(row.attempts[0].result, CorpusResult::Timeout, "attempt 1 exhausts fuel");
    assert_eq!(row.attempts[0].budget_scale, 1);
    assert_eq!(row.attempts[1].result, CorpusResult::Succeeded);
    assert_eq!(row.attempts[1].budget_scale, 4);
    assert_eq!(summary.total_attempts(), 2);
}

#[test]
fn fault_plan_predictions_match_the_result_table() {
    // Plan seed 22 over 8 units covers all three query-site faults and
    // leaves some units unfaulted; `fault_for` lets the test predict every
    // row before the run.
    let module = small_corpus(8);
    let plan = FaultPlan {
        panic: Rate { num: 1, den: 4 },
        force_conflicts: Rate { num: 1, den: 4 },
        force_terms: Rate { num: 1, den: 4 },
        ..FaultPlan::quiet(22)
    };
    let faults: Vec<_> = (0..8).map(|i| plan.fault_for(i)).collect();
    assert!(faults.contains(&Some(InjectedFault::Panic)));
    assert!(faults.contains(&Some(InjectedFault::ForceBudget(BudgetKind::Conflicts))));
    assert!(faults.contains(&Some(InjectedFault::ForceBudget(BudgetKind::Terms))));
    assert!(faults.contains(&None));

    // Baseline: the unfaulted corpus validates clean, so `Succeeded` is
    // the right prediction for unfaulted units.
    let baseline = run_module(&module, &HarnessOptions::default());
    assert!(baseline.rows.iter().all(|r| r.result == CorpusResult::Succeeded));

    let opts = HarnessOptions { fault_plan: plan, workers: 4, ..HarnessOptions::default() };
    let summary = run_module(&module, &opts);
    assert_eq!(summary.rows.len(), 8, "no row may be lost to a fault");
    for (i, row) in summary.rows.iter().enumerate() {
        assert_eq!(row.index, i, "rows stay ordered by function index");
        let expected = match faults[i] {
            Some(InjectedFault::Panic) => ResultKind::Crashed,
            Some(InjectedFault::ForceBudget(BudgetKind::Conflicts)) => ResultKind::Timeout,
            Some(InjectedFault::ForceBudget(BudgetKind::Terms)) => ResultKind::OutOfMemory,
            _ => ResultKind::Succeeded,
        };
        assert_eq!(row.result.kind(), expected, "{}: plan assigned {:?}", row.name, faults[i]);
    }
}

#[test]
fn hung_worker_is_abandoned_by_the_watchdog() {
    // The hang fault parks the worker at the first checker step and eats
    // every cancellation observation; only the watchdog's
    // abandon-and-replace path can classify this function.
    let m = parse(BRANCHY);
    let opts = HarnessOptions {
        fault_plan: FaultPlan { hang: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(0) },
        workers: 1,
        deadline: Some(Duration::from_millis(30)),
        grace: Duration::from_millis(60),
        watchdog_tick: Duration::from_millis(5),
        ..HarnessOptions::default()
    };
    let start = std::time::Instant::now();
    let summary = run_module(&m, &opts);
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "the supervisor must not wait for the parked thread"
    );
    let row = &summary.rows[0];
    assert_eq!(row.result, CorpusResult::Timeout);
    assert_eq!(row.attempts.len(), 1);
    assert!(row.attempts[0].abandoned, "the watchdog had to abandon the worker");
}

#[test]
fn slow_cancel_still_times_out_without_abandonment() {
    // A slow-but-cooperative worker swallows three deadline observations
    // and then acknowledges; it self-reports a timeout well inside the
    // generous grace period, so the watchdog never abandons it.
    let m = parse(BRANCHY);
    let opts = HarnessOptions {
        keq: KeqOptions { time_limit: Some(Duration::ZERO), ..KeqOptions::default() },
        fault_plan: FaultPlan {
            slow_cancel: Rate { num: 1, den: 1 },
            slow_cancel_polls: 3,
            ..FaultPlan::quiet(0)
        },
        workers: 1,
        grace: Duration::from_secs(30),
        ..HarnessOptions::default()
    };
    let summary = run_module(&m, &opts);
    let row = &summary.rows[0];
    assert_eq!(row.result, CorpusResult::Timeout);
    assert_eq!(row.attempts.len(), 1);
    assert!(!row.attempts[0].abandoned, "cooperative workers are never abandoned");
}

#[test]
fn warm_start_retries_classify_like_cold_ones() {
    // A step-starved first attempt plus an escalated retry, run twice:
    // once warm-starting the retry from the first attempt's
    // ValidationContext (the default) and once from scratch. Budgeted
    // outcomes are never cached, so the warm retry must reach the very
    // same verdicts — and, carrying its predecessor's query memo, answer
    // more queries from it than the cold retry can.
    let module = small_corpus(8);
    let run = |warm_start: bool| {
        let opts = HarnessOptions {
            keq: KeqOptions { max_steps: 8, ..KeqOptions::default() },
            workers: 1,
            retry: RetryPolicy { max_attempts: 3, factor: 8, ..RetryPolicy::default() },
            warm_start,
            ..HarnessOptions::default()
        };
        let summary = run_module(&module, &opts);
        let rows: Vec<_> =
            summary.rows.iter().map(|r| (r.result.kind(), r.attempts.len())).collect();
        (rows, summary.solver.cache_hits)
    };
    let (warm, warm_hits) = run(true);
    let (cold, cold_hits) = run(false);
    assert!(warm.iter().all(|&(_, attempts)| attempts > 1), "every row must retry: {warm:?}");
    assert_eq!(warm, cold, "warm-started retries must not change classification");
    assert!(
        warm_hits > cold_hits,
        "warm retries must reuse their predecessor's memo: warm {warm_hits}, cold {cold_hits}"
    );
}

#[test]
fn classification_does_not_depend_on_worker_count() {
    let module = small_corpus(6);
    let kinds = |workers: usize| -> Vec<ResultKind> {
        let opts = HarnessOptions { workers, ..HarnessOptions::default() };
        run_module(&module, &opts).rows.iter().map(|r| r.result.kind()).collect()
    };
    assert_eq!(kinds(1), kinds(4));
}

/// Runs one single-pass corpus sweep under work budgets only (no wall
/// clock anywhere, so the outcome does not depend on the machine) and
/// requires every row to validate.
fn sweep_all_succeeded(cfg: GenConfig, n: usize, pass: keq_isel::PassId) -> Module {
    let module = generate_corpus(cfg, n);
    let opts = HarnessOptions {
        keq: KeqOptions {
            solver_budget: Budget { max_conflicts: 500_000, max_terms: 2_000_000, max_time: None },
            ..KeqOptions::default()
        },
        passes: vec![pass],
        ..HarnessOptions::default()
    };
    for row in &run_module(&module, &opts).rows {
        let (name, pass) = (&row.name, row.pass.name());
        assert_eq!(row.result.kind(), ResultKind::Succeeded, "{name} [{pass}]: {:?}", row.result);
    }
    module
}

#[test]
fn pressure_corpus_spills_and_validates_and_gvn_eliminates() {
    // Regalloc: the high-pressure profile must force every function onto
    // the spill path, counted by re-running selection + allocation outside
    // the harness.
    let cfg = GenConfig { seed: 2021, pressure: 10, ..GenConfig::default() };
    let module = sweep_all_succeeded(cfg, 6, keq_isel::PassId::Regalloc);
    for f in &module.functions {
        let layout = keq_llvm::Layout::of(&module, f);
        let pre = keq_isel::select(&module, f, &layout, keq_isel::IselOptions::default())
            .expect("corpus functions select")
            .func;
        let (_, map) = keq_isel::allocate_with_options(&pre, keq_isel::RaOptions::default(), None)
            .expect("uncancelled");
        assert!(!map.spills.is_empty(), "{}: the pressure profile must force a spill", f.name);
    }

    // GVN: the default corpus validates, and the pass is not a corpus-wide
    // no-op.
    let cfg = GenConfig { seed: 2021, ..GenConfig::default() };
    let module = sweep_all_succeeded(cfg, 6, keq_isel::PassId::Gvn);
    let eliminated: usize = module
        .functions
        .iter()
        .map(|f| keq_llvm::run_gvn(f, keq_llvm::GvnOptions::default()).eliminated.len())
        .sum();
    assert!(eliminated > 0, "GVN must eliminate something somewhere in the corpus");
}
