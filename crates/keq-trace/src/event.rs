//! The typed event vocabulary of the validation pipeline.
//!
//! Every pipeline layer reports through this one enum, so the event ring, the
//! JSONL stream, and the aggregated run report all share a single schema.
//! Hot-path variants are `Copy`-cheap (no heap payloads); only events that
//! fire at most once per attempt (panic capture) carry strings.

use std::fmt::Write as _;

use crate::json;

/// A pipeline phase a span can cover.
///
/// *Top-level* phases partition an attempt's wall clock (no two top-level
/// spans overlap on one thread); the rest nest inside [`Phase::Check`] and
/// attribute where the checker spends its budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// LLVM IR parsing (`keq_llvm::parse_module`).
    Parse,
    /// Instruction selection.
    Isel,
    /// Register allocation.
    Regalloc,
    /// The GVN mid-end pass.
    Gvn,
    /// Synchronization-point generation.
    Vcgen,
    /// The whole KEQ check of one translation.
    Check,
    /// One startable synchronization point (nested in `Check`).
    SyncPoint,
    /// A feasibility-pruning query (nested in `SyncPoint`).
    Feasibility,
    /// An error-rule discharge of a successor pair (nested in `SyncPoint`).
    ErrorRule,
    /// A target-constraint proof batch (nested in `SyncPoint`).
    TargetConstraint,
    /// Term lowering inside one solver query (nested in the solver).
    Lower,
    /// Bit-blasting lowered terms to CNF (nested in the solver).
    Blast,
    /// The CDCL search itself (nested in the solver).
    Cdcl,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 13] = [
        Phase::Parse,
        Phase::Isel,
        Phase::Regalloc,
        Phase::Gvn,
        Phase::Vcgen,
        Phase::Check,
        Phase::SyncPoint,
        Phase::Feasibility,
        Phase::ErrorRule,
        Phase::TargetConstraint,
        Phase::Lower,
        Phase::Blast,
        Phase::Cdcl,
    ];

    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Isel => "isel",
            Phase::Regalloc => "regalloc",
            Phase::Gvn => "gvn",
            Phase::Vcgen => "vcgen",
            Phase::Check => "check",
            Phase::SyncPoint => "sync_point",
            Phase::Feasibility => "feasibility",
            Phase::ErrorRule => "error_rule",
            Phase::TargetConstraint => "target_constraint",
            Phase::Lower => "lower",
            Phase::Blast => "blast",
            Phase::Cdcl => "cdcl",
        }
    }

    /// Whether spans of this phase partition an attempt's wall clock
    /// (used by the report coverage check: top-level spans of one attempt
    /// must sum to its wall time).
    pub fn is_top_level(self) -> bool {
        matches!(
            self,
            Phase::Parse | Phase::Isel | Phase::Regalloc | Phase::Gvn | Phase::Vcgen | Phase::Check
        )
    }

    /// Inverse of [`Phase::name`].
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A completed span: `phase` ran from `start_us` for `dur_us`
    /// (microseconds since the recorder epoch).
    Span {
        /// Which phase.
        phase: Phase,
        /// Start offset from the recorder epoch, µs.
        start_us: u64,
        /// Duration, µs.
        dur_us: u64,
    },
    /// A named monotonic counter increment.
    Counter {
        /// Stable counter name.
        name: &'static str,
        /// Amount added.
        delta: u64,
    },
    /// A worker began one validation attempt.
    AttemptStart {
        /// Function index in the module.
        func: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// The escalating-retry budget multiplier of this attempt.
        budget_scale: u64,
    },
    /// A worker finished one validation attempt.
    AttemptEnd {
        /// Function index in the module.
        func: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// Result category (stable wire name, e.g. `"succeeded"`).
        result: &'static str,
        /// Attempt wall-clock duration, µs.
        dur_us: u64,
    },
    /// The supervisor isolated a panic from this attempt.
    PanicCaptured {
        /// Function index.
        func: u32,
        /// 1-based attempt number.
        attempt: u32,
        /// The panic message (without the location).
        message: String,
        /// Source location `file:line:col`, when the hook saw it.
        location: Option<String>,
    },
    /// The supervisor raised the attempt's cancellation token at its hard
    /// deadline.
    DeadlineCancelled {
        /// Function index.
        func: u32,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The watchdog abandoned a worker that ignored cancellation past the
    /// grace period.
    WatchdogAbandoned {
        /// Function index.
        func: u32,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The solver opened an incremental session.
    SessionOpened {
        /// Number of prefix assertions.
        prefix_len: u64,
    },
    /// One solver query completed; counter fields are the
    /// `SolverStats::since` delta attributable to this query alone.
    SolverQuery {
        /// `"scratch"` or `"session"`.
        mode: &'static str,
        /// `"sat"`, `"unsat"`, or `"budget"`.
        outcome: &'static str,
        /// Whether the memo cache answered it.
        cache_hit: bool,
        /// Wall-clock duration, µs.
        dur_us: u64,
        /// CDCL conflicts spent.
        conflicts: u64,
        /// Term nodes bit-blasted.
        terms_blasted: u64,
        /// Term nodes served from the blast memo.
        terms_blast_reused: u64,
        /// Session queries that reused an asserted prefix (0 or 1 here).
        prefix_hits: u64,
        /// Learnt clauses already present when the query started.
        clauses_retained: u64,
        /// Query-cache entries evicted while caching this outcome.
        cache_evictions: u64,
    },
    /// A seeded fault-injection site fired.
    FaultInjected {
        /// Poll site (stable wire name, e.g. `"solver_query"`).
        site: &'static str,
        /// Fault kind (stable wire name, e.g. `"force_budget_conflicts"`).
        fault: &'static str,
    },
    /// The shared obligation cache answered a query (low 64 fingerprint
    /// bits identify the obligation across workers and runs).
    CacheHit {
        /// Low 64 bits of the canonical obligation fingerprint.
        fp: u64,
    },
    /// A query consulted the shared obligation cache and missed.
    CacheMiss {
        /// Low 64 bits of the canonical obligation fingerprint.
        fp: u64,
    },
    /// A proven verdict was recorded into the shared obligation cache.
    CacheStore {
        /// Low 64 bits of the canonical obligation fingerprint.
        fp: u64,
    },
    /// A persistent-storage operation (obligation store flush, journal
    /// append) failed; the run continues.
    StoreError {
        /// Which artifact (`"store"` or `"journal"`).
        target: &'static str,
        /// Operation (`"flush"`, `"append"`, `"open"`, …).
        op: &'static str,
        /// The I/O error, rendered.
        detail: String,
    },
    /// K consecutive storage failures tripped the circuit breaker: the
    /// artifact degrades to memory-only for the rest of the run.
    StoreDegraded {
        /// Which artifact (`"store"` or `"journal"`).
        target: &'static str,
        /// Consecutive failures that tripped the breaker.
        failures: u32,
    },
    /// Resume skipped a function whose verdict was recovered from the
    /// write-ahead journal.
    ResumeSkipped {
        /// Function index in the module.
        func: u32,
    },
    /// The server front end accepted one request frame from a client
    /// (request-level events are server-mode only: batch runs never emit
    /// them, so their event stream is unchanged).
    RequestReceived {
        /// Server-assigned client connection id.
        client: u64,
        /// Client-chosen request tag, echoed back in the response.
        tag: u64,
    },
    /// The scheduler refused a submission at the admission gate
    /// (backpressure or quota) — the request never entered the queue.
    RequestRejected {
        /// Client connection id.
        client: u64,
        /// Client request tag.
        tag: u64,
        /// Stable reason name: `"queue_full"`, `"quota"`, or `"draining"`.
        reason: &'static str,
    },
    /// One scheduled request finalized and its completion was delivered
    /// (or dropped, if the client had disconnected).
    RequestCompleted {
        /// Client connection id.
        client: u64,
        /// Client request tag.
        tag: u64,
        /// Result category (stable wire name, e.g. `"succeeded"`).
        result: &'static str,
        /// Time spent queued before the first attempt started, µs.
        queue_us: u64,
        /// Submission-to-finalize wall clock, µs.
        wall_us: u64,
    },
}

impl Event {
    /// Stable wire name of the variant (the JSONL `"ev"` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::Span { .. } => "span",
            Event::Counter { .. } => "counter",
            Event::AttemptStart { .. } => "attempt_start",
            Event::AttemptEnd { .. } => "attempt_end",
            Event::PanicCaptured { .. } => "panic",
            Event::DeadlineCancelled { .. } => "deadline_cancelled",
            Event::WatchdogAbandoned { .. } => "watchdog_abandoned",
            Event::SessionOpened { .. } => "session_opened",
            Event::SolverQuery { .. } => "solver_query",
            Event::FaultInjected { .. } => "fault",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CacheStore { .. } => "cache_store",
            Event::StoreError { .. } => "store_error",
            Event::StoreDegraded { .. } => "store_degraded",
            Event::ResumeSkipped { .. } => "resume_skipped",
            Event::RequestReceived { .. } => "request_received",
            Event::RequestRejected { .. } => "request_rejected",
            Event::RequestCompleted { .. } => "request_completed",
        }
    }
}

/// An [`Event`] stamped with its emit time and the attempt context of the
/// emitting thread — what a [`Recorder`](crate::Recorder) receives.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the recorder epoch, stamped at emit time on a
    /// monotonic clock.
    pub t_us: u64,
    /// Function index of the attempt context, if one was installed.
    pub func: Option<u32>,
    /// 1-based attempt number of the attempt context.
    pub attempt: Option<u32>,
    /// The event payload.
    pub event: Event,
}

impl TraceEvent {
    /// Serializes the event as one JSONL line (no trailing newline).
    ///
    /// Events whose payload names an attempt (`AttemptStart`, panic
    /// capture, …) win over the thread's attempt-context stamp, so each
    /// line carries `func`/`attempt` exactly once.
    pub fn write_jsonl(&self, out: &mut String) {
        let _ = write!(out, "{{\"t_us\":{}", self.t_us);
        let (func, attempt) = match self.event {
            Event::AttemptStart { func, attempt, .. }
            | Event::AttemptEnd { func, attempt, .. }
            | Event::PanicCaptured { func, attempt, .. }
            | Event::DeadlineCancelled { func, attempt }
            | Event::WatchdogAbandoned { func, attempt } => (Some(func), Some(attempt)),
            Event::ResumeSkipped { func } => (Some(func), None),
            _ => (self.func, self.attempt),
        };
        if let Some(f) = func {
            let _ = write!(out, ",\"func\":{f}");
        }
        if let Some(a) = attempt {
            let _ = write!(out, ",\"attempt\":{a}");
        }
        let _ = write!(out, ",\"ev\":\"{}\"", self.event.kind());
        match &self.event {
            Event::Span { phase, start_us, dur_us } => {
                let _ = write!(
                    out,
                    ",\"phase\":\"{}\",\"start_us\":{start_us},\"dur_us\":{dur_us}",
                    phase.name()
                );
            }
            Event::Counter { name, delta } => {
                let _ = write!(out, ",\"name\":\"{name}\",\"delta\":{delta}");
            }
            Event::AttemptStart { budget_scale, .. } => {
                let _ = write!(out, ",\"budget_scale\":{budget_scale}");
            }
            Event::AttemptEnd { result, dur_us, .. } => {
                let _ = write!(out, ",\"result\":\"{result}\",\"dur_us\":{dur_us}");
            }
            Event::PanicCaptured { message, location, .. } => {
                out.push_str(",\"message\":");
                json::write_str(message, out);
                out.push_str(",\"location\":");
                match location {
                    Some(loc) => json::write_str(loc, out),
                    None => out.push_str("null"),
                }
            }
            Event::DeadlineCancelled { .. } | Event::WatchdogAbandoned { .. } => {}
            Event::SessionOpened { prefix_len } => {
                let _ = write!(out, ",\"prefix_len\":{prefix_len}");
            }
            Event::SolverQuery {
                mode,
                outcome,
                cache_hit,
                dur_us,
                conflicts,
                terms_blasted,
                terms_blast_reused,
                prefix_hits,
                clauses_retained,
                cache_evictions,
            } => {
                let _ = write!(
                    out,
                    ",\"mode\":\"{mode}\",\"outcome\":\"{outcome}\",\"cache_hit\":{cache_hit},\
                     \"dur_us\":{dur_us},\"conflicts\":{conflicts},\
                     \"terms_blasted\":{terms_blasted},\"terms_blast_reused\":{terms_blast_reused},\
                     \"prefix_hits\":{prefix_hits},\"clauses_retained\":{clauses_retained},\
                     \"cache_evictions\":{cache_evictions}"
                );
            }
            Event::FaultInjected { site, fault } => {
                let _ = write!(out, ",\"site\":\"{site}\",\"fault\":\"{fault}\"");
            }
            Event::CacheHit { fp } | Event::CacheMiss { fp } | Event::CacheStore { fp } => {
                let _ = write!(out, ",\"fp\":{fp}");
            }
            Event::StoreError { target, op, detail } => {
                let _ = write!(out, ",\"target\":\"{target}\",\"op\":\"{op}\",\"detail\":");
                json::write_str(detail, out);
            }
            Event::StoreDegraded { target, failures } => {
                let _ = write!(out, ",\"target\":\"{target}\",\"failures\":{failures}");
            }
            Event::ResumeSkipped { .. } => {}
            Event::RequestReceived { client, tag } => {
                let _ = write!(out, ",\"client\":{client},\"tag\":{tag}");
            }
            Event::RequestRejected { client, tag, reason } => {
                let _ = write!(out, ",\"client\":{client},\"tag\":{tag},\"reason\":\"{reason}\"");
            }
            Event::RequestCompleted { client, tag, result, queue_us, wall_us } => {
                let _ = write!(
                    out,
                    ",\"client\":{client},\"tag\":{tag},\"result\":\"{result}\",\
                     \"queue_us\":{queue_us},\"wall_us\":{wall_us}"
                );
            }
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn jsonl_lines_are_valid_json() {
        let events = vec![
            Event::Span { phase: Phase::Isel, start_us: 10, dur_us: 5 },
            Event::Counter { name: "steps", delta: 3 },
            Event::AttemptStart { func: 1, attempt: 2, budget_scale: 4 },
            Event::AttemptEnd { func: 1, attempt: 2, result: "succeeded", dur_us: 99 },
            Event::PanicCaptured {
                func: 0,
                attempt: 1,
                message: "boom \"quoted\"\nline2".into(),
                location: Some("src/x.rs:3:5".into()),
            },
            Event::DeadlineCancelled { func: 7, attempt: 1 },
            Event::WatchdogAbandoned { func: 7, attempt: 1 },
            Event::SessionOpened { prefix_len: 4 },
            Event::SolverQuery {
                mode: "session",
                outcome: "unsat",
                cache_hit: false,
                dur_us: 12,
                conflicts: 2,
                terms_blasted: 30,
                terms_blast_reused: 4,
                prefix_hits: 1,
                clauses_retained: 5,
                cache_evictions: 0,
            },
            Event::FaultInjected { site: "solver_query", fault: "force_budget_terms" },
            Event::CacheHit { fp: 0xdead_beef },
            Event::CacheMiss { fp: 7 },
            Event::CacheStore { fp: 0x7fff_ffff },
            Event::StoreError {
                target: "journal",
                op: "append",
                detail: "injected \"quoted\" failure".into(),
            },
            Event::StoreDegraded { target: "store", failures: 3 },
            Event::ResumeSkipped { func: 9 },
            Event::RequestReceived { client: 2, tag: 40 },
            Event::RequestRejected { client: 2, tag: 41, reason: "queue_full" },
            Event::RequestCompleted {
                client: 2,
                tag: 40,
                result: "succeeded",
                queue_us: 15,
                wall_us: 1200,
            },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let te = TraceEvent { t_us: 100 + i as u64, func: Some(3), attempt: Some(1), event };
            let mut line = String::new();
            te.write_jsonl(&mut line);
            let v = Json::parse(&line).unwrap_or_else(|e| panic!("line {i} invalid: {e}\n{line}"));
            assert_eq!(v.get("t_us").and_then(Json::as_u64), Some(100 + i as u64));
            assert!(v.get("ev").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn panic_event_preserves_message_and_location_fields() {
        let te = TraceEvent {
            t_us: 1,
            func: None,
            attempt: None,
            event: Event::PanicCaptured {
                func: 2,
                attempt: 1,
                message: "msg with \"quotes\" and\nnewline".into(),
                location: None,
            },
        };
        let mut line = String::new();
        te.write_jsonl(&mut line);
        let v = Json::parse(&line).expect("valid");
        assert_eq!(
            v.get("message").and_then(Json::as_str),
            Some("msg with \"quotes\" and\nnewline")
        );
        assert_eq!(v.get("location"), Some(&Json::Null));
    }
}
