//! Probe points and per-thread recorder installation.
//!
//! Mirrors the fault-injection design in `keq-smt::fault`: a sink is
//! *installed per thread* via [`install`] (returning a guard that restores
//! the previous sink on drop, including across panics), and every probe
//! site funnels through [`emit`]/[`span`]. When nothing is installed the
//! probes cost one thread-local flag read and a branch — no allocation, no
//! lock, no clock read — so instrumented hot paths are essentially free in
//! production runs.
//!
//! The harness installs the *same* shared sink on the supervisor thread
//! and on every worker, so one [`EventRing`](crate::EventRing) collects a
//! coherent, epoch-aligned event stream for the whole corpus run.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, Phase, TraceEvent};

/// A sink for stamped trace events. Implementations must be cheap to call
/// from many threads (the built-in sinks take a short internal lock).
pub trait Recorder: Send + Sync {
    /// Receives one stamped event.
    fn record(&self, ev: TraceEvent);
    /// The instant timestamps are measured from. All sinks installed
    /// during one run must share an epoch for their timestamps to align.
    fn epoch(&self) -> Instant;
    /// Pushes buffered output to its destination. A no-op for in-memory
    /// sinks; streaming sinks (the JSONL file stream) override it so a
    /// guard drop, a store degradation, or a drain leaves no buffered
    /// tail behind.
    fn flush(&self) {}
}

/// A cloneable handle to a shared [`Recorder`], carried in options structs
/// (e.g. the harness's) and installed per thread.
#[derive(Clone)]
pub struct TraceSink {
    rec: Arc<dyn Recorder>,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TraceSink")
    }
}

impl TraceSink {
    /// Wraps a recorder.
    pub fn new(rec: Arc<dyn Recorder>) -> Self {
        TraceSink { rec }
    }

    /// The underlying recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.rec
    }

    /// Flushes the underlying recorder's buffered output.
    pub fn flush(&self) {
        self.rec.flush();
    }
}

impl<R: Recorder + 'static> From<Arc<R>> for TraceSink {
    fn from(rec: Arc<R>) -> Self {
        TraceSink { rec }
    }
}

/// Duplicates every event to each inner sink (e.g. an event ring plus a
/// JSONL stream). Epochs are taken from the first sink.
pub struct Fanout {
    sinks: Vec<TraceSink>,
    epoch: Instant,
}

impl Fanout {
    /// Builds a fanout over `sinks` (panics when empty).
    pub fn new(sinks: Vec<TraceSink>) -> Self {
        assert!(!sinks.is_empty(), "Fanout needs at least one sink");
        let epoch = sinks[0].recorder().epoch();
        Fanout { sinks, epoch }
    }
}

impl Recorder for Fanout {
    fn record(&self, ev: TraceEvent) {
        for s in &self.sinks {
            s.recorder().record(ev.clone());
        }
    }

    fn epoch(&self) -> Instant {
        self.epoch
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.recorder().flush();
        }
    }
}

struct Active {
    rec: Arc<dyn Recorder>,
    epoch: Instant,
}

thread_local! {
    /// Fast-path flag mirroring `ACTIVE.is_some()`; the only thing probe
    /// sites touch when tracing is disabled.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
    /// `(func, attempt)` of the validation attempt running on this thread;
    /// `u32::MAX` encodes "none" so the hot path stays a plain Cell.
    static CTX: Cell<(u32, u32)> = const { Cell::new((u32::MAX, u32::MAX)) };
}

/// Installs `sink` as this thread's recorder, returning a guard that
/// restores the previous state (usually "nothing") on drop — including
/// during a panic unwind, so a crashed worker attempt cannot leak its sink
/// into the next job on the same thread.
#[must_use]
pub fn install(sink: &TraceSink) -> TraceGuard {
    let epoch = sink.recorder().epoch();
    let prev =
        ACTIVE.with(|a| a.borrow_mut().replace(Active { rec: Arc::clone(sink.recorder()), epoch }));
    let prev_enabled = ENABLED.with(|e| e.replace(true));
    TraceGuard { prev, prev_enabled }
}

/// Restores the previous recorder on drop.
pub struct TraceGuard {
    prev: Option<Active>,
    prev_enabled: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ACTIVE.with(|a| {
            let mut active = a.borrow_mut();
            // Flush the sink being uninstalled so a thread that stops
            // tracing leaves no buffered tail (the crash-safety torn-line
            // test pins this).
            if let Some(cur) = active.as_ref() {
                cur.rec.flush();
            }
            *active = prev;
        });
        ENABLED.with(|e| e.set(self.prev_enabled));
    }
}

/// Whether a recorder is installed on this thread. This is the ~1-branch
/// disabled-path check every probe site performs first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Flushes this thread's installed recorder (a no-op when none is). Called
/// at durability edges — store degradation, journal degradation — so a
/// buffered JSONL stream leaves no torn tail behind the moment the run
/// starts losing its storage.
pub fn flush_sink() {
    if !enabled() {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(active) = a.borrow().as_ref() {
            active.rec.flush();
        }
    });
}

/// Sets this thread's attempt context; every event emitted while the guard
/// lives is stamped with `(func, attempt)`. Restores the previous context
/// on drop.
#[must_use]
pub fn with_attempt(func: u32, attempt: u32) -> CtxGuard {
    let prev = CTX.with(|c| c.replace((func, attempt)));
    CtxGuard { prev }
}

/// Restores the previous attempt context on drop.
pub struct CtxGuard {
    prev: (u32, u32),
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CTX.with(|c| c.set(self.prev));
    }
}

/// The current attempt context, if any.
pub fn current_attempt() -> Option<(u32, u32)> {
    let (f, a) = CTX.with(Cell::get);
    if f == u32::MAX {
        None
    } else {
        Some((f, a))
    }
}

/// Emits one event through this thread's recorder; a no-op (one flag read)
/// when tracing is disabled.
///
/// Variants with heap payloads (e.g. [`Event::PanicCaptured`]) should be
/// constructed behind an [`enabled`] check at the call site so the
/// disabled path allocates nothing.
#[inline]
pub fn emit(event: Event) {
    if !enabled() {
        return;
    }
    emit_slow(event);
}

#[cold]
fn emit_slow(event: Event) {
    ACTIVE.with(|a| {
        let borrow = a.borrow();
        let Some(active) = borrow.as_ref() else { return };
        let t_us = duration_us(active.epoch.elapsed());
        let (func, attempt) = match CTX.with(Cell::get) {
            (u32::MAX, _) => (None, None),
            (f, at) => (Some(f), Some(at)),
        };
        active.rec.record(TraceEvent { t_us, func, attempt, event });
    });
}

/// Starts a span for `phase`. When both tracing and metrics are disabled
/// this reads two flags and touches no clock; when enabled, dropping the
/// returned guard emits an [`Event::Span`] (tracing) and/or adds the
/// duration to the per-thread phase accumulator (metrics — see
/// [`crate::metrics::take_phase_totals`]).
#[inline]
#[must_use]
pub fn span(phase: Phase) -> Span {
    if !enabled() && !crate::metrics::phase_timing_enabled() {
        return Span { live: None };
    }
    Span { live: Some((phase, Instant::now())) }
}

/// An in-flight span; emits its [`Event::Span`] on drop (also during
/// panic unwinds, so a crashed attempt still reports where it was).
pub struct Span {
    live: Option<(Phase, Instant)>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((phase, start)) = self.live.take() else { return };
        let dur_us = duration_us(start.elapsed());
        if crate::metrics::phase_timing_enabled() {
            crate::metrics::record_phase(phase, dur_us);
        }
        if !enabled() {
            return;
        }
        ACTIVE.with(|a| {
            let borrow = a.borrow();
            let Some(active) = borrow.as_ref() else { return };
            let start_us = duration_us(start.duration_since(active.epoch));
            let t_us = duration_us(active.epoch.elapsed());
            let (func, attempt) = match CTX.with(Cell::get) {
                (u32::MAX, _) => (None, None),
                (f, at) => (Some(f), Some(at)),
            };
            active.rec.record(TraceEvent {
                t_us,
                func,
                attempt,
                event: Event::Span { phase, start_us, dur_us },
            });
        });
    }
}

fn duration_us(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::EventRing;

    #[test]
    fn disabled_probes_do_nothing() {
        assert!(!enabled());
        emit(Event::Counter { name: "x", delta: 1 });
        let s = span(Phase::Check);
        drop(s);
        assert!(current_attempt().is_none());
    }

    #[test]
    fn install_records_and_guard_restores() {
        let ring = Arc::new(EventRing::new(128));
        {
            let sink = TraceSink::from(Arc::clone(&ring));
            let _g = install(&sink);
            assert!(enabled());
            let _ctx = with_attempt(3, 2);
            emit(Event::Counter { name: "steps", delta: 7 });
            let s = span(Phase::Isel);
            s.done();
        }
        assert!(!enabled(), "guard must disable tracing again");
        let events = ring.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].func, Some(3));
        assert_eq!(events[0].attempt, Some(2));
        assert!(matches!(events[1].event, Event::Span { phase: Phase::Isel, .. }));
        // Ring stamps are monotone in append order.
        assert!(events[0].t_us <= events[1].t_us);
    }

    #[test]
    fn nested_install_restores_outer_sink() {
        let outer = Arc::new(EventRing::new(16));
        let inner = Arc::new(EventRing::new(16));
        let _go = install(&TraceSink::from(Arc::clone(&outer)));
        {
            let _gi = install(&TraceSink::from(Arc::clone(&inner)));
            emit(Event::Counter { name: "inner", delta: 1 });
        }
        emit(Event::Counter { name: "outer", delta: 1 });
        assert_eq!(inner.snapshot().len(), 1);
        assert_eq!(outer.snapshot().len(), 1);
    }

    #[test]
    fn ctx_guard_restores_previous_context() {
        let ring = Arc::new(EventRing::new(16));
        let _g = install(&TraceSink::from(Arc::clone(&ring)));
        let _outer = with_attempt(1, 1);
        {
            let _inner = with_attempt(2, 3);
            assert_eq!(current_attempt(), Some((2, 3)));
        }
        assert_eq!(current_attempt(), Some((1, 1)));
    }

    #[test]
    fn fanout_duplicates_events() {
        let a = Arc::new(EventRing::new(16));
        let b = Arc::new(EventRing::new(16));
        let fan = Arc::new(Fanout::new(vec![
            TraceSink::from(Arc::clone(&a)),
            TraceSink::from(Arc::clone(&b)),
        ]));
        let _g = install(&TraceSink::from(fan));
        emit(Event::SessionOpened { prefix_len: 2 });
        assert_eq!(a.snapshot().len(), 1);
        assert_eq!(b.snapshot().len(), 1);
    }
}
