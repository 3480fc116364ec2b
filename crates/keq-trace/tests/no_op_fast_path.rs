//! The disabled-path contract: with no recorder installed, probe sites
//! perform **zero heap allocations** and record **zero events** — the cost
//! is one thread-local flag read and a branch, so production runs can keep
//! the instrumentation compiled in.
//!
//! A counting global allocator observes every allocation in the process;
//! the test is the only one in this binary so no concurrent test can
//! perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use keq_trace::{emit, enabled, span, Event, EventRing, Phase, TraceSink};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_probes_allocate_nothing_and_record_nothing() {
    // A ring that must stay empty: it exists, but is never installed.
    let ring = Arc::new(EventRing::new(64));
    let sink = TraceSink::from(Arc::clone(&ring));

    // Warm up: touch every thread-local once (first access may lazily
    // initialize) and exercise the enabled path so its allocations are
    // out of the way.
    {
        let _g = keq_trace::install(&sink);
        let _ctx = keq_trace::with_attempt(0, 1);
        emit(Event::Counter { name: "warmup", delta: 1 });
        span(Phase::Check).done();
    }
    let recorded_after_warmup = ring.recorded();
    assert!(!enabled(), "guard dropped, tracing disabled again");

    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..10_000u64 {
        emit(Event::Counter { name: "steps", delta: i });
        let s = span(Phase::SyncPoint);
        s.done();
        let _ = keq_trace::current_attempt();
        emit(Event::SolverQuery {
            mode: "session",
            outcome: "unsat",
            cache_hit: false,
            dur_us: i,
            conflicts: 0,
            terms_blasted: 0,
            terms_blast_reused: 0,
            prefix_hits: 0,
            clauses_retained: 0,
            cache_evictions: 0,
        });
    }
    let after = ALLOCS.load(Ordering::Relaxed);

    assert_eq!(after - before, 0, "disabled probe sites must not allocate");
    assert_eq!(
        ring.recorded(),
        recorded_after_warmup,
        "disabled probe sites must not record events"
    );
}
