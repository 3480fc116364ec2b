//! Building the machine-readable `RUN_REPORT.json` from a corpus run.
//!
//! [`build_report`] joins the supervisor's [`CorpusSummary`] (the
//! authoritative outcome of every function) with the trace ring's event
//! stream (phase spans, injected faults, attempt windows) into one
//! [`RunReport`]. The summary side never depends on
//! the trace: a run without tracing still yields a schema-valid report,
//! just with empty phase sections and `trace_enabled: false`.

use std::collections::HashMap;
use std::time::Duration;

use keq_trace::{
    AttemptReport, Event, EventRing, FunctionReport, OutcomeTable, PassSection, Phase, RunReport,
    TraceEvent,
};

use crate::result::{CorpusResult, CorpusRow, CorpusSummary, ResultKind};

/// Everything the trace knows about one `(func, attempt)` pair.
#[derive(Default)]
struct AttemptTrace {
    start_us: Option<u64>,
    end_us: Option<u64>,
    phase_us: HashMap<Phase, u64>,
    faults: Vec<String>,
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Indexes the trace snapshot by `(func, attempt)`.
///
/// Attempt boundaries come from the worker-emitted
/// [`Event::AttemptStart`]/[`Event::AttemptEnd`] payloads; spans and fault
/// markers carry no function payload of their own, so they are matched by
/// the thread-context stamp every worker event gets from
/// [`keq_trace::with_attempt`].
fn index_attempts(events: &[TraceEvent]) -> HashMap<(u32, u32), AttemptTrace> {
    let mut map: HashMap<(u32, u32), AttemptTrace> = HashMap::new();
    for ev in events {
        match &ev.event {
            Event::AttemptStart { func, attempt, .. } => {
                map.entry((*func, *attempt)).or_default().start_us = Some(ev.t_us);
            }
            Event::AttemptEnd { func, attempt, .. } => {
                map.entry((*func, *attempt)).or_default().end_us = Some(ev.t_us);
            }
            Event::Span { phase, dur_us, .. } => {
                if let (Some(f), Some(a)) = (ev.func, ev.attempt) {
                    *map.entry((f, a)).or_default().phase_us.entry(*phase).or_insert(0) += dur_us;
                }
            }
            Event::FaultInjected { fault, .. } => {
                if let (Some(f), Some(a)) = (ev.func, ev.attempt) {
                    map.entry((f, a)).or_default().faults.push((*fault).to_string());
                }
            }
            _ => {}
        }
    }
    map
}

/// Adds one row to an outcome table.
fn tally(t: &mut OutcomeTable, row: &CorpusRow) {
    match row.result.kind() {
        ResultKind::Succeeded => t.succeeded += 1,
        ResultKind::Timeout => t.timeout += 1,
        ResultKind::OutOfMemory => t.out_of_memory += 1,
        ResultKind::Crashed => t.crashed += 1,
        ResultKind::Quarantined => t.quarantined += 1,
        ResultKind::Other => t.other += 1,
    }
    t.total += 1;
    t.attempts += row.attempts.len() as u64;
}

/// The Fig. 6 outcome table of a summary, in the shared report type (the
/// form the bench targets embed in their JSON output).
pub fn outcome_table(summary: &CorpusSummary) -> OutcomeTable {
    let mut t = OutcomeTable::default();
    for row in &summary.rows {
        tally(&mut t, row);
    }
    t
}

/// The per-pass outcome tables of a summary (the v7 `passes` sections),
/// in first-appearance order. A classic single-pass run yields exactly
/// one section whose table equals the merged one.
pub fn pass_sections(summary: &CorpusSummary) -> Vec<PassSection> {
    let mut sections: Vec<(keq_isel::PassId, PassSection)> = Vec::new();
    for row in &summary.rows {
        let entry = match sections.iter_mut().find(|(p, _)| *p == row.pass) {
            Some((_, s)) => s,
            None => {
                sections.push((
                    row.pass,
                    PassSection { pass: row.pass.name().to_string(), ..Default::default() },
                ));
                &mut sections.last_mut().expect("just pushed").1
            }
        };
        tally(&mut entry.outcome, row);
    }
    sections.into_iter().map(|(_, s)| s).collect()
}

/// Builds the aggregated run report. `ring` is the ring the harness's
/// [`TraceSink`](keq_trace::TraceSink) recorded into, or `None` for an
/// untraced run (the report is then outcome-only, with
/// `trace_enabled: false`).
pub fn build_report(summary: &CorpusSummary, ring: Option<&EventRing>, seed: u64) -> RunReport {
    let events = ring.map(EventRing::snapshot).unwrap_or_default();
    let traced = index_attempts(&events);
    let mut functions = Vec::with_capacity(summary.rows.len());
    for (unit, row) in summary.rows.iter().enumerate() {
        let mut attempts = Vec::with_capacity(row.attempts.len());
        for rec in &row.attempts {
            let wall_us = duration_us(rec.time);
            // Worker events are stamped with the scheduling *unit* (which
            // is the row position: function-major, pass-minor), not the
            // function index — a multi-pass run has several units per
            // function.
            let trace = traced.get(&(unit as u32, rec.attempt));
            let start_us = trace.and_then(|t| t.start_us).unwrap_or(0);
            // Abandoned attempts never emit an end marker; close their
            // window from the supervisor-observed wall time.
            let end_us = trace.and_then(|t| t.end_us).unwrap_or(start_us.saturating_add(wall_us));
            let (panic_message, panic_location) = match &rec.result {
                CorpusResult::Crashed { message, location }
                | CorpusResult::Quarantined { message, location } => {
                    (Some(message.clone()), location.clone())
                }
                _ => (None, None),
            };
            let mut phase_us: Vec<(Phase, u64)> = Vec::new();
            if let Some(t) = trace {
                for phase in Phase::ALL {
                    if let Some(&us) = t.phase_us.get(&phase) {
                        phase_us.push((phase, us));
                    }
                }
            }
            attempts.push(AttemptReport {
                attempt: rec.attempt,
                budget_scale: rec.budget_scale,
                wall_us,
                start_us,
                end_us,
                result: rec.result.kind().name().to_string(),
                abandoned: rec.abandoned,
                panic_message,
                panic_location,
                faults: trace.map(|t| t.faults.clone()).unwrap_or_default(),
                phase_us,
            });
        }
        functions.push(FunctionReport {
            name: row.name.clone(),
            index: row.index as u64,
            pass: row.pass.name().to_string(),
            size: row.size as u64,
            wall_us: duration_us(row.time),
            result: row.result.kind().name().to_string(),
            recovered: row.recovered,
            attempts,
        });
    }
    RunReport {
        seed,
        n_functions: summary.total() as u64,
        trace_enabled: ring.is_some(),
        outcome: outcome_table(summary),
        passes: pass_sections(summary),
        solver: summary.solver,
        cache: summary.cache,
        resume: summary.resume,
        telemetry: summary.telemetry.clone(),
        phases: keq_trace::phase_summaries(&events),
        functions,
        events_recorded: ring.map_or(0, EventRing::recorded),
        events_dropped: ring.map_or(0, EventRing::dropped),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_module, HarnessOptions};
    use keq_llvm::parser::parse_module;
    use keq_trace::{Json, TraceSink};
    use std::sync::Arc;

    const TWO_FUNCS: &str = "define i32 @f(i32 %x, i32 %y) {\n %s = add i32 %x, %y\n ret i32 \
                             %s\n}\ndefine i32 @g() {\n ret i32 7\n}";

    #[test]
    fn traced_run_builds_a_schema_valid_report() {
        let m = parse_module(TWO_FUNCS).expect("parses");
        let ring = Arc::new(EventRing::new(1 << 14));
        let opts = HarnessOptions {
            workers: 1,
            trace: Some(TraceSink::from(Arc::clone(&ring))),
            ..HarnessOptions::default()
        };
        let summary = run_module(&m, &opts);
        assert_eq!(summary.count(ResultKind::Succeeded), 2);
        // The instrumented solver fed the run-level counters.
        assert!(summary.solver.queries > 0, "{:?}", summary.solver);

        let report = build_report(&summary, Some(&ring), 42);
        assert!(report.trace_enabled);
        assert_eq!(report.seed, 42);
        assert_eq!(report.n_functions, 2);
        assert!(!report.phases.is_empty(), "spans must aggregate into phases");
        let doc = Json::parse(&report.to_json()).expect("report JSON parses");
        keq_trace::validate(&doc).expect("report validates");

        // Every attempt of every function was fully observed.
        for f in &report.functions {
            for a in &f.attempts {
                assert!(a.end_us >= a.start_us, "{}: inverted window", f.name);
                assert!(
                    a.phase_us.iter().any(|(p, _)| *p == Phase::Check),
                    "{}: missing Check span",
                    f.name
                );
            }
        }
    }

    #[test]
    fn untraced_run_still_builds_a_schema_valid_report() {
        let m = parse_module(TWO_FUNCS).expect("parses");
        let summary = run_module(&m, &HarnessOptions { workers: 1, ..Default::default() });
        let report = build_report(&summary, None, 7);
        assert!(!report.trace_enabled);
        assert!(report.phases.is_empty());
        assert_eq!(report.events_recorded, 0);
        let doc = Json::parse(&report.to_json()).expect("parses");
        keq_trace::validate(&doc).expect("still schema-valid");
    }
}
