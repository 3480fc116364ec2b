//! Ring-level assertions of the harness's typed trace events: seeded
//! fault injections appear as [`Event::FaultInjected`] with the attempt
//! context of the attempt they fired in (including escalated retries),
//! supervisor decisions (deadline cancellation, watchdog abandonment)
//! appear as their own typed events, and isolated panics carry message and
//! source location as separate fields.

use std::sync::Arc;
use std::time::Duration;

use keq_harness::{build_report, run_module, HarnessOptions, ResultKind, RetryPolicy};
use keq_smt::fault::{FaultPlan, Rate};
use keq_trace::{Event, EventRing, Json, TraceSink};
use keq_workload::{generate_corpus, GenConfig};

/// Small all-supported corpus (no loops/calls/memory keeps validation
/// cheap and every unfaulted row `Succeeded`).
fn small_corpus(n: usize) -> keq_llvm::ast::Module {
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

/// Enough frontier steps that the checker polls its fault/cancellation
/// sites many times before finishing.
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

#[test]
fn injected_budget_faults_are_typed_events_with_the_right_attempt() {
    let module = small_corpus(2);
    let ring = Arc::new(EventRing::new(1 << 16));
    let opts = HarnessOptions {
        fault_plan: FaultPlan { force_conflicts: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(5) },
        retry: RetryPolicy { max_attempts: 2, factor: 4, ..RetryPolicy::default() },
        workers: 2,
        trace: Some(TraceSink::from(Arc::clone(&ring))),
        ..HarnessOptions::default()
    };
    let summary = run_module(&module, &opts);
    assert!(
        summary.rows.iter().all(|r| r.result.kind() == ResultKind::Timeout),
        "forced conflict exhaustion lands every row in the timeout class"
    );
    assert!(
        summary.rows.iter().all(|r| r.attempts.len() == 2),
        "budget faults are retryable, so the escalated attempt also runs"
    );

    let events = ring.snapshot();
    for func in 0..2u32 {
        for attempt in [1u32, 2] {
            assert!(
                events.iter().any(|ev| ev.func == Some(func)
                    && ev.attempt == Some(attempt)
                    && matches!(
                        ev.event,
                        Event::FaultInjected {
                            site: "solver_query",
                            fault: "force_budget_conflicts"
                        }
                    )),
                "func {func} attempt {attempt}: typed fault event missing"
            );
            let scale = if attempt == 1 { 1 } else { 4 };
            assert!(
                events.iter().any(|ev| matches!(
                    ev.event,
                    Event::AttemptStart { func: f, attempt: a, budget_scale }
                        if f == func && a == attempt && budget_scale == scale
                )),
                "func {func} attempt {attempt}: AttemptStart (scale {scale}) missing"
            );
            assert!(
                events.iter().any(|ev| matches!(
                    ev.event,
                    Event::AttemptEnd { func: f, attempt: a, result: "timeout", .. }
                        if f == func && a == attempt
                )),
                "func {func} attempt {attempt}: AttemptEnd missing"
            );
        }
    }

    // The per-attempt fault markers also surface in the report rows.
    let report = build_report(&summary, Some(&ring), 5);
    for f in &report.functions {
        for a in &f.attempts {
            assert!(
                a.faults.iter().any(|x| x == "force_budget_conflicts"),
                "{} attempt {}: faults = {:?}",
                f.name,
                a.attempt,
                a.faults
            );
        }
    }
}

#[test]
fn deadline_cancellation_and_abandonment_are_typed_events() {
    let m = keq_llvm::parse_module(BRANCHY).expect("parses");
    let ring = Arc::new(EventRing::new(1 << 16));
    let opts = HarnessOptions {
        fault_plan: FaultPlan { hang: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(0) },
        workers: 1,
        deadline: Some(Duration::from_millis(30)),
        grace: Duration::from_millis(60),
        watchdog_tick: Duration::from_millis(5),
        trace: Some(TraceSink::from(Arc::clone(&ring))),
        ..HarnessOptions::default()
    };
    let summary = run_module(&m, &opts);
    assert!(summary.rows[0].attempts[0].abandoned);

    let events = ring.snapshot();
    assert!(
        events.iter().any(|ev| ev.attempt == Some(1)
            && matches!(ev.event, Event::FaultInjected { site: "checker_step", fault: "hang" })),
        "the hang fault must be a typed trace event"
    );
    assert!(
        events
            .iter()
            .any(|ev| matches!(ev.event, Event::DeadlineCancelled { func: 0, attempt: 1 })),
        "the supervisor's deadline cancellation must be a typed trace event"
    );
    assert!(
        events
            .iter()
            .any(|ev| matches!(ev.event, Event::WatchdogAbandoned { func: 0, attempt: 1 })),
        "the watchdog abandonment must be a typed trace event"
    );

    // An abandoned attempt has no end marker, yet the report stays
    // schema-valid (its window is closed from the supervisor wall time).
    let report = build_report(&summary, Some(&ring), 0);
    assert!(report.functions[0].attempts[0].abandoned);
    let doc = Json::parse(&report.to_json()).expect("parses");
    keq_trace::validate(&doc).expect("abandoned-run report validates");
}

#[test]
fn isolated_panics_keep_message_and_location_as_separate_fields() {
    let module = small_corpus(1);
    let ring = Arc::new(EventRing::new(1 << 16));
    let opts = HarnessOptions {
        fault_plan: FaultPlan { panic: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(3) },
        workers: 1,
        trace: Some(TraceSink::from(Arc::clone(&ring))),
        ..HarnessOptions::default()
    };
    let summary = run_module(&module, &opts);
    assert_eq!(summary.rows[0].result.kind(), ResultKind::Crashed);

    let events = ring.snapshot();
    let (func, attempt, message, location) = events
        .iter()
        .find_map(|ev| match &ev.event {
            Event::PanicCaptured { func, attempt, message, location } => {
                Some((*func, *attempt, message.clone(), location.clone()))
            }
            _ => None,
        })
        .expect("panic capture must be a typed trace event");
    assert_eq!((func, attempt), (0, 1));
    assert!(message.contains("injected fault"), "message: {message}");
    assert!(location.as_deref().is_some_and(|l| l.contains("fault.rs")), "location: {location:?}");

    // The same split fields reach the report row.
    let report = build_report(&summary, Some(&ring), 3);
    let a = &report.functions[0].attempts[0];
    assert_eq!(a.result, "crashed");
    assert!(a.panic_message.as_deref().is_some_and(|m| m.contains("injected fault")));
    assert!(a.panic_location.as_deref().is_some_and(|l| l.contains("fault.rs")));
}
