//! Event sinks: the in-memory event ring and the JSONL stream.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

use crate::event::TraceEvent;
use crate::recorder::Recorder;

/// Default ring capacity (events). Generous for corpus runs at smoke
/// and bench scale; older events are dropped (and counted) beyond it.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

struct RingInner {
    events: VecDeque<TraceEvent>,
    recorded: u64,
    dropped: u64,
}

/// A bounded in-memory ring of trace events, shared by every thread of a
/// run. Oldest events are dropped once the capacity is exceeded; the drop
/// count is reported so consumers (e.g. the report coverage check) can
/// tell a complete ring from a truncated one.
pub struct EventRing {
    epoch: Instant,
    cap: usize,
    inner: Mutex<RingInner>,
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing").field("cap", &self.cap).finish_non_exhaustive()
    }
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events. The ring's
    /// epoch is the creation instant; all event timestamps are offsets
    /// from it.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            epoch: Instant::now(),
            cap: capacity.max(1),
            inner: Mutex::new(RingInner { events: VecDeque::new(), recorded: 0, dropped: 0 }),
        }
    }

    /// A ring with [`DEFAULT_RING_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        EventRing::new(DEFAULT_RING_CAPACITY)
    }

    /// Copies out the retained events, in record order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("event ring poisoned");
        inner.events.iter().cloned().collect()
    }

    /// Total events ever recorded (including later-dropped ones).
    pub fn recorded(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").recorded
    }

    /// Events dropped to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("event ring poisoned").dropped
    }

    /// Renders the retained events as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let inner = self.inner.lock().expect("event ring poisoned");
        let mut out = String::new();
        for ev in &inner.events {
            ev.write_jsonl(&mut out);
            out.push('\n');
        }
        out
    }
}

impl Recorder for EventRing {
    fn record(&self, ev: TraceEvent) {
        let mut inner = self.inner.lock().expect("event ring poisoned");
        inner.recorded += 1;
        if inner.events.len() == self.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(ev);
    }

    fn epoch(&self) -> Instant {
        self.epoch
    }
}

/// A streaming sink serializing every event as one JSONL line into a
/// writer (a file, a pipe, a `Vec<u8>` in tests). Lines are written under
/// an internal lock, so concurrent workers never interleave mid-line.
pub struct JsonlSink<W: Write + Send> {
    epoch: Instant,
    out: Mutex<W>,
}

impl<W: Write + Send> std::fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer. The sink's epoch is its creation instant.
    pub fn new(out: W) -> Self {
        JsonlSink { epoch: Instant::now(), out: Mutex::new(out) }
    }

    /// Flushes and returns the writer.
    pub fn into_inner(self) -> W {
        let mut w = self.out.into_inner().expect("jsonl sink poisoned");
        let _ = w.flush();
        w
    }
}

impl<W: Write + Send> Recorder for JsonlSink<W> {
    fn record(&self, ev: TraceEvent) {
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        line.push('\n');
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // One write per complete line (never split across calls), so a
        // kill between records can lose whole lines but not tear one. A
        // full disk mid-trace must not take the validation run down.
        let _ = out.write_all(line.as_bytes());
    }

    fn epoch(&self) -> Instant {
        self.epoch
    }

    fn flush(&self) {
        // Same fail-soft rule as `record`: flush failure must not take
        // the run down. Guard drops, store degradation, and drains all
        // route here so buffered writers leave no torn tail behind.
        let _ = self.out.lock().expect("jsonl sink poisoned").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Phase};
    use crate::json::Json;

    fn ev(n: u64) -> TraceEvent {
        TraceEvent {
            t_us: n,
            func: None,
            attempt: None,
            event: Event::Counter { name: "n", delta: n },
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let j = EventRing::new(3);
        for i in 0..5 {
            j.record(ev(i));
        }
        assert_eq!(j.recorded(), 5);
        assert_eq!(j.dropped(), 2);
        let kept: Vec<u64> = j.snapshot().iter().map(|e| e.t_us).collect();
        assert_eq!(kept, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        sink.record(TraceEvent {
            t_us: 9,
            func: Some(0),
            attempt: Some(1),
            event: Event::Span { phase: Phase::Check, start_us: 1, dur_us: 8 },
        });
        sink.record(ev(10));
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            Json::parse(line).expect("each line is a JSON document");
        }
    }

    #[test]
    fn ring_jsonl_matches_event_count() {
        let j = EventRing::new(16);
        for i in 0..4 {
            j.record(ev(i));
        }
        assert_eq!(j.to_jsonl().lines().count(), 4);
    }

    /// A writer whose visible contents only advance on `flush`, modelling
    /// a buffered stream whose tail a kill would lose.
    #[derive(Clone, Default)]
    struct SharedBuf {
        pending: Vec<u8>,
        flushed: std::sync::Arc<Mutex<Vec<u8>>>,
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.pending.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.flushed.lock().unwrap().extend_from_slice(&self.pending);
            self.pending.clear();
            Ok(())
        }
    }

    #[test]
    fn guard_drop_flushes_buffered_trace_output() {
        let buf = SharedBuf::default();
        let flushed = std::sync::Arc::clone(&buf.flushed);
        let sink = crate::TraceSink::from(std::sync::Arc::new(JsonlSink::new(buf)));
        {
            let _g = crate::install(&sink);
            crate::emit(Event::Counter { name: "n", delta: 1 });
            assert!(
                flushed.lock().unwrap().is_empty(),
                "the buffered line must still be pending before the guard drops"
            );
        }
        let text = String::from_utf8(flushed.lock().unwrap().clone()).expect("utf8");
        assert_eq!(text.lines().count(), 1);
        Json::parse(text.lines().next().unwrap()).expect("flushed line is complete JSON");
    }

    #[test]
    fn explicit_sink_flush_pushes_the_tail() {
        let buf = SharedBuf::default();
        let flushed = std::sync::Arc::clone(&buf.flushed);
        let sink = JsonlSink::new(buf);
        sink.record(ev(1));
        Recorder::flush(&sink);
        assert_eq!(String::from_utf8(flushed.lock().unwrap().clone()).unwrap().lines().count(), 1);
    }
}
