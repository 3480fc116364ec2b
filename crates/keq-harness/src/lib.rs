//! # keq-harness — the fault-isolated corpus validation harness
//!
//! The paper's §5.1 experiment validates thousands of functions in one
//! campaign; a single misbehaving function must not take the campaign
//! down with it. This crate supervises per-function validation so that a
//! corpus run **always** produces one classified row per function:
//!
//! * **Panic isolation** — each function runs on a worker thread under
//!   `catch_unwind`; a panic becomes [`CorpusResult::Crashed`] with the
//!   captured message and location ([`panic_capture`]).
//! * **Watchdog deadlines** — a hard per-attempt wall-clock deadline is
//!   enforced by raising the function's shared
//!   [`CancelToken`](keq_smt::CancelToken), which the checker's frontier
//!   loop, the CDCL search, and the register allocator's liveness fixpoint
//!   all poll. Workers that ignore the cancellation past a grace period
//!   are abandoned and replaced; their function is classified
//!   [`CorpusResult::Timeout`].
//! * **Escalating-budget retry** — budget-class failures are re-queued
//!   with deterministically multiplied budgets ([`RetryPolicy`]), every
//!   attempt recorded in the row.
//! * **Fault injection** — a seeded
//!   [`FaultPlan`](keq_smt::fault::FaultPlan) can inject synthetic panics,
//!   spurious budget exhaustion, and cancellation-ignoring hangs inside
//!   the pipeline, so the guarantees above are tested against real
//!   in-pipeline misbehavior rather than simulated wrappers. Storage
//!   faults (short reads, torn writes, ENOSPC) extend the plan to the
//!   persistence layer.
//! * **Crash safety** — an optional write-ahead verdict journal
//!   ([`journal`]) records every finalized function so a killed run can
//!   resume where it left off; store and journal writers degrade to
//!   memory-only behind a circuit breaker instead of failing the run;
//!   functions that crash through the whole retry ladder are
//!   [`CorpusResult::Quarantined`] rather than retried forever.
//!
//! Entry point: [`run_module`].

pub mod journal;
pub mod panic_capture;
pub mod protocol;
pub mod report;
pub mod result;
pub mod run;
pub mod scheduler;
pub mod server;

pub use journal::{
    corpus_fingerprint, function_fingerprint, JournalLoad, JournalRecord, JournalWriter,
};
pub use panic_capture::PanicInfo;
pub use report::{build_report, outcome_table, pass_sections};
pub use result::{
    AttemptRecord, CacheSummary, CorpusResult, CorpusRow, CorpusSummary, ResultKind,
};
pub use run::{run_module, HarnessOptions, RetryPolicy};
pub use protocol::{
    read_frame, write_frame, ClientRequest, FunctionVerdict, MetricsReport, ServerResponse,
    StatsSnapshot,
};
pub use scheduler::{
    ClientQuota, Completion, JournalConfig, MetricsConfig, Rejected, Request, Scheduler,
    SchedulerConfig, SchedulerFinal, ServerCounters, Storage, Telemetry,
};
pub use server::{connect, ClientConn, Server, ServerOptions, ServerSummary};
