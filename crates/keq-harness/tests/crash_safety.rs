//! Crash-safety integration tests: the write-ahead verdict journal, resume
//! after a simulated kill, and graceful storage degradation.
//!
//! The contract under test, end to end:
//!
//! * a resumed run over a *truncated* journal (the shape a `kill -9` mid-
//!   append leaves behind) skips the decided functions, replays the rest,
//!   and produces a verdict table identical to one uninterrupted run —
//!   with the torn tail counted fail-soft, never panicking;
//! * storage faults trip the store's circuit breaker into memory-only
//!   operation without touching a single verdict;
//! * a persist failure is *surfaced* (summary flag, `summary_line` warning,
//!   `StoreError` trace event), not silently swallowed;
//! * resume composes with the watchdog: a function the killed run had
//!   abandoned (and whose record died with it) replays from a fresh
//!   warm-start generation instead of inheriting stale state.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use keq_harness::{
    corpus_fingerprint, journal, run_module, CorpusResult, HarnessOptions, JournalWriter,
    ResultKind, RetryPolicy,
};
use keq_smt::fault::{FaultPlan, Rate};
use keq_smt::obcache::StdStoreIo;
use keq_trace::{Event, EventRing, Json, JsonlSink, TraceSink};
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

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("keq-crash-safety-{tag}-{}", std::process::id()));
    p
}

/// The comparison key of determinism assertions: one classification per
/// function, in index order.
fn kinds(summary: &keq_harness::CorpusSummary) -> Vec<ResultKind> {
    summary.rows.iter().map(|r| r.result.kind()).collect()
}

#[test]
fn truncated_journal_resume_is_verdict_identical_to_a_clean_run() {
    // Mixed deterministic outcomes: plan seed 22 over 8 functions yields
    // panics (quarantined under retry_crashes), forced budget exhaustion
    // (timeout/OOM), and clean successes. No wall-clock deadline anywhere,
    // so classifications are reproducible bit-for-bit.
    let module = small_corpus(8);
    let journal_path = temp_path("truncated");
    let _ = std::fs::remove_file(&journal_path);
    let opts = |resume: bool| HarnessOptions {
        fault_plan: FaultPlan {
            panic: Rate { num: 1, den: 4 },
            force_conflicts: Rate { num: 1, den: 4 },
            force_terms: Rate { num: 1, den: 4 },
            ..FaultPlan::quiet(22)
        },
        retry: RetryPolicy {
            max_attempts: 2,
            factor: 4,
            retry_crashes: true,
            ..RetryPolicy::default()
        },
        workers: 2,
        journal_path: Some(journal_path.clone()),
        resume,
        ..HarnessOptions::default()
    };

    // The uninterrupted reference run, journaling as it goes.
    let start = Instant::now();
    let clean = run_module(&module, &opts(false));
    let clean_wall = start.elapsed();
    assert_eq!(clean.rows.len(), 8);
    assert!(!clean.resume.enabled);
    assert!(clean.rows.iter().all(|r| !r.recovered));
    let reference = kinds(&clean);
    assert!(
        reference.contains(&ResultKind::Quarantined),
        "plan seed must cover the quarantine path, got {reference:?}"
    );

    // Simulate a mid-append kill: keep the header and roughly two thirds
    // of the journal bytes, tearing whatever record spans the cut.
    let whole = std::fs::read(&journal_path).expect("journal was written");
    std::fs::write(&journal_path, &whole[..whole.len() * 2 / 3]).expect("truncate");

    // The resumed run: recovered functions are skipped, the rest replay
    // under the same fault plan, and the merged table matches exactly.
    let start = Instant::now();
    let resumed = run_module(&module, &opts(true));
    let resumed_wall = start.elapsed();
    assert_eq!(kinds(&resumed), reference, "resume must not change a single verdict");
    // The deterministic work bar: the fault plan is keyed by unit, so each
    // replayed row makes exactly its clean-run attempts, and the skipped
    // rows' attempts are the work resume saved.
    let mut skipped_attempts = 0;
    for (row, clean_row) in resumed.rows.iter().zip(&clean.rows) {
        if row.recovered {
            skipped_attempts += clean_row.attempts.len();
        } else {
            assert_eq!(
                row.attempts.len(),
                clean_row.attempts.len(),
                "{}: a replayed row repeats its clean-run attempts",
                row.name
            );
        }
    }
    assert_eq!(resumed.total_attempts(), clean.total_attempts() - skipped_attempts);
    assert!(
        resumed.total_attempts() < clean.total_attempts(),
        "resume must skip work: {} of {} attempts replayed",
        resumed.total_attempts(),
        clean.total_attempts()
    );
    assert!(resumed.resume.enabled);
    assert!(resumed.resume.skipped >= 1, "two thirds of the journal recovers something");
    assert!(resumed.resume.skipped < 8, "the cut must have left work to replay");
    assert_eq!(resumed.resume.recovered, resumed.resume.skipped);
    assert!(resumed.resume.corrupt <= 1, "at most the torn tail, counted fail-soft");
    for row in &resumed.rows {
        if row.recovered {
            assert!(row.attempts.is_empty(), "{}: recovered rows carry no attempts", row.name);
        } else {
            assert!(!row.attempts.is_empty(), "{}: replayed rows ran for real", row.name);
        }
    }
    assert_eq!(
        resumed.rows.iter().filter(|r| r.recovered).count() as u64,
        resumed.resume.skipped
    );
    let line = resumed.summary_line();
    assert!(line.contains("resume:"), "summary line must surface the recovery: {line}");
    // Skipping the recovered functions must pay off in wall time (absolute
    // slack for scheduling jitter on a run this small).
    assert!(
        resumed_wall <= clean_wall.mul_f64(0.70) + Duration::from_millis(250),
        "resume must finish in <=70% of the clean wall \
         (clean {clean_wall:?}, resumed {resumed_wall:?})"
    );

    // A third run resumes from the now-complete journal: everything is
    // recovered, nothing executes.
    let replayed = run_module(&module, &opts(true));
    assert_eq!(kinds(&replayed), reference);
    assert_eq!(replayed.resume.skipped, 8);
    assert!(replayed.rows.iter().all(|r| r.recovered && r.attempts.is_empty()));

    let _ = std::fs::remove_file(&journal_path);
}

#[test]
fn storage_faults_trip_the_breaker_and_degrade_to_memory_only() {
    // Every write hits injected ENOSPC; with a flush per finalization the
    // breaker trips mid-run. Verdicts must be untouched, and the summary
    // must say what happened.
    let module = small_corpus(5);
    let cache_path = temp_path("degraded-store");
    let _ = std::fs::remove_file(&cache_path);
    let trace = Arc::new(EventRing::new(1 << 14));
    let opts = HarnessOptions {
        fault_plan: FaultPlan { enospc: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(7) },
        workers: 2,
        cache_path: Some(cache_path.clone()),
        store_flush_every: 1,
        store_breaker_threshold: 3,
        trace: Some(TraceSink::from(Arc::clone(&trace))),
        ..HarnessOptions::default()
    };
    let summary = run_module(&module, &opts);
    assert!(
        summary.rows.iter().all(|r| r.result == CorpusResult::Succeeded),
        "a sick disk must never change verdicts: {:?}",
        kinds(&summary)
    );
    assert!(summary.cache.degraded, "the breaker must have tripped");
    assert!(summary.cache.persist_failed);
    assert_eq!(summary.cache.flushes, 0, "no write ever succeeded");
    assert_eq!(summary.cache.flush_failures, 3, "breaker stops the hammering at the threshold");
    assert_eq!(summary.cache.disk_persisted, 0);
    let line = summary.summary_line();
    assert!(line.contains("degraded to memory-only"), "{line}");

    let events = trace.snapshot();
    assert!(
        events.iter().any(|ev| matches!(
            &ev.event,
            Event::StoreError { target: "store", .. }
        )),
        "each failed flush traces a StoreError"
    );
    assert!(
        events.iter().any(|ev| matches!(
            &ev.event,
            Event::StoreDegraded { target: "store", failures: 3 }
        )),
        "tripping traces a StoreDegraded"
    );
    assert!(!cache_path.exists(), "nothing may have reached the faulted path");
}

#[test]
fn final_persist_failure_is_surfaced_not_swallowed() {
    // A cache path that is a *directory* makes the one shutdown persist
    // fail. The old harness swallowed this silently; now it must land in
    // the summary, the summary line, and the trace.
    let module = small_corpus(2);
    let cache_dir = temp_path("persist-dir");
    let _ = std::fs::remove_dir(&cache_dir);
    std::fs::create_dir(&cache_dir).expect("create blocking directory");
    let trace = Arc::new(EventRing::new(1 << 12));
    let opts = HarnessOptions {
        workers: 1,
        cache_path: Some(cache_dir.clone()),
        store_flush_every: 0, // only the final persist
        trace: Some(TraceSink::from(Arc::clone(&trace))),
        ..HarnessOptions::default()
    };
    let summary = run_module(&module, &opts);
    assert!(summary.rows.iter().all(|r| r.result == CorpusResult::Succeeded));
    assert!(summary.cache.persist_failed);
    assert!(!summary.cache.degraded, "one failure is not a tripped breaker");
    assert_eq!(summary.cache.flush_failures, 1);
    let line = summary.summary_line();
    assert!(line.contains("persist failed"), "{line}");
    assert!(
        trace.snapshot().iter().any(|ev| matches!(
            &ev.event,
            Event::StoreError { target: "store", op: "persist", .. }
        )),
        "the failure must be traced, not swallowed"
    );
    let _ = std::fs::remove_dir(&cache_dir);
}

#[test]
fn resume_replays_a_function_the_killed_run_abandoned() {
    // Run 1: a hang fault wedges every worker on function 1; the watchdog
    // abandons it and journals a Timeout. To model the nastier schedule —
    // the process dies *while* the function is wedged, before its record
    // lands — the journal is rewritten without that record. The resumed
    // run (fault gone, as after a toolchain fix) must then replay function
    // 1 from a *fresh* warm-start generation and validate it cleanly,
    // while still recovering function 0 from the journal.
    let module = small_corpus(2);
    let journal_path = temp_path("abandoned");
    let _ = std::fs::remove_file(&journal_path);

    let wedged = run_module(
        &module,
        &HarnessOptions {
            fault_plan: FaultPlan {
                hang: Rate { num: 1, den: 2 }, // seeded: fires on exactly one of the two
                ..FaultPlan::quiet(0)
            },
            workers: 1,
            deadline: Some(Duration::from_millis(30)),
            grace: Duration::from_millis(60),
            watchdog_tick: Duration::from_millis(5),
            journal_path: Some(journal_path.clone()),
            ..HarnessOptions::default()
        },
    );
    let abandoned: Vec<usize> = wedged
        .rows
        .iter()
        .filter(|r| r.attempts.iter().any(|a| a.abandoned))
        .map(|r| r.index)
        .collect();
    assert_eq!(abandoned.len(), 1, "the 1/2 hang rate must wedge exactly one function");
    let hung = abandoned[0];

    // Drop the abandoned function's record, as if the kill beat the
    // journal append: rewrite the journal with only the other records.
    let corpus_fp = corpus_fingerprint(&module);
    let loaded = journal::load(&journal_path, corpus_fp, &StdStoreIo);
    assert!(!loaded.reset);
    assert_eq!(loaded.records.len(), 2, "both finalizations were journaled");
    let io: Arc<dyn keq_smt::obcache::StoreIo> = Arc::new(StdStoreIo);
    let mut rewriter = JournalWriter::start(&journal_path, corpus_fp, None, io, 3);
    for rec in loaded.records.iter().filter(|r| r.func as usize != hung) {
        rewriter.append(rec);
    }
    assert!(!rewriter.degraded);

    // Resume with the fault gone: the survivor is recovered, the formerly
    // wedged function replays and succeeds — proof the generation guard
    // handed it a fresh context rather than resurrecting abandoned state.
    let resumed = run_module(
        &module,
        &HarnessOptions {
            workers: 1,
            journal_path: Some(journal_path.clone()),
            resume: true,
            ..HarnessOptions::default()
        },
    );
    assert_eq!(resumed.resume.skipped, 1);
    for row in &resumed.rows {
        if row.index == hung {
            assert!(!row.recovered, "the dropped record must not be recovered");
            assert_eq!(
                row.result,
                CorpusResult::Succeeded,
                "the replay must validate cleanly, not inherit the stale Timeout"
            );
            assert!(!row.attempts.is_empty());
        } else {
            assert!(row.recovered);
            assert_eq!(row.result.kind(), wedged.rows[row.index].result.kind());
        }
    }

    let _ = std::fs::remove_file(&journal_path);
}

/// The shared configuration of the in-test chaos campaign: deterministic
/// pipeline faults (a panic that quarantines under retry, forced budget
/// exhaustion) plus torn journal writes, no wall-clock deadline anywhere.
fn chaos_opts(journal: Option<PathBuf>, resume: bool) -> HarnessOptions {
    HarnessOptions {
        fault_plan: FaultPlan {
            panic: Rate { num: 1, den: 6 },
            force_conflicts: Rate { num: 1, den: 6 },
            torn_write: Rate { num: 1, den: 16 },
            ..FaultPlan::quiet(11)
        },
        retry: RetryPolicy {
            max_attempts: 2,
            factor: 4,
            retry_crashes: true,
            ..RetryPolicy::default()
        },
        workers: 2,
        journal_path: journal,
        resume,
        ..HarnessOptions::default()
    }
}

/// Not a test of its own: the chaos campaign's child process. The parent
/// ([`abort_resume_loop_is_verdict_identical_to_one_clean_run`]) re-execs
/// this test binary filtered to exactly this "test" with the journal path
/// and an abort offset in the environment; without them it is a no-op.
#[test]
fn chaos_child_process() {
    let Ok(journal_path) = std::env::var("KEQ_CHAOS_JOURNAL") else { return };
    let kill_ms: u64 = std::env::var("KEQ_CHAOS_KILL_MS")
        .expect("parent always sets the kill offset")
        .parse()
        .expect("kill offset parses");
    // Abort, not panic: the campaign models a process that never got to
    // say goodbye (OOM-killer, power cut), so no unwinding, no flushing.
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(kill_ms));
        std::process::abort();
    });
    let module = small_corpus(6);
    let _ = run_module(&module, &chaos_opts(Some(journal_path.into()), true));
}

#[test]
fn abort_resume_loop_is_verdict_identical_to_one_clean_run() {
    let journal_path = temp_path("abort-loop");
    let _ = std::fs::remove_file(&journal_path);
    let module = small_corpus(6);

    // The uninterrupted reference run; its wall time calibrates the kill
    // offsets so aborts land mid-run, not before the first finalization.
    let started = std::time::Instant::now();
    let clean = run_module(&module, &chaos_opts(None, false));
    let ref_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX).max(20);
    let reference = kinds(&clean);

    // Kill/resume loop: each child resumes the journal its predecessor
    // left and dies at a different seeded offset, until one survives (or
    // the cap is hit — the merge run below completes the remainder).
    let exe = std::env::current_exe().expect("current_exe");
    let mut kills = 0u32;
    for cycle in 1..=4u64 {
        let frac = 10 + keq_smt::mix64(11 ^ cycle) % 80;
        let kill_ms = (ref_ms * frac / 100).max(5);
        let status = std::process::Command::new(&exe)
            .args(["chaos_child_process", "--exact", "--test-threads=1"])
            .env("KEQ_CHAOS_JOURNAL", &journal_path)
            .env("KEQ_CHAOS_KILL_MS", kill_ms.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn chaos child");
        if status.success() {
            break;
        }
        kills += 1;
    }

    // The merge run: recover whatever the children decided, replay the
    // rest, and the table must match the clean run record for record.
    let merged = run_module(&module, &chaos_opts(Some(journal_path.clone()), true));
    assert_eq!(
        kinds(&merged),
        reference,
        "verdicts diverged after {kills} mid-run aborts"
    );
    assert!(merged.resume.enabled);
    let _ = std::fs::remove_file(&journal_path);
}

/// Not a test of its own: the torn-line campaign's child process. Runs the
/// chaos pipeline with a *buffered* JSONL trace stream to a file and dies
/// by `abort` at the offset in the environment; without the env vars it is
/// a no-op. The buffering is the point — it is what an abort would tear if
/// the sink ever split a line across writes.
#[test]
fn torn_trace_chaos_child() {
    let Ok(trace_path) = std::env::var("KEQ_TORN_TRACE") else { return };
    let kill_ms: u64 = std::env::var("KEQ_TORN_KILL_MS")
        .expect("parent always sets the kill offset")
        .parse()
        .expect("kill offset parses");
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(kill_ms));
        std::process::abort();
    });
    let file = std::fs::File::create(&trace_path).expect("create trace file");
    let sink = JsonlSink::new(std::io::BufWriter::new(file));
    let module = small_corpus(6);
    let _ = run_module(
        &module,
        &HarnessOptions {
            trace: Some(TraceSink::from(Arc::new(sink))),
            ..chaos_opts(None, false)
        },
    );
}

#[test]
fn aborted_trace_stream_never_tears_a_line() {
    // The JSONL trace durability contract under process death: the sink
    // writes each event as one complete line, so an abort may lose whole
    // buffered lines but every line that *reached the file* must parse as
    // a JSON document. (A surviving child's guard-drop flush additionally
    // leaves the file newline-terminated and complete.)
    let trace_path = temp_path("torn-trace");
    let module = small_corpus(6);

    // Calibrate kill offsets from one clean run of the same pipeline.
    let started = std::time::Instant::now();
    let _ = run_module(&module, &chaos_opts(None, false));
    let ref_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX).max(20);

    let exe = std::env::current_exe().expect("current_exe");
    let mut parsed_lines = 0u64;
    for cycle in 1..=4u64 {
        let _ = std::fs::remove_file(&trace_path);
        let frac = 10 + keq_smt::mix64(29 ^ cycle) % 80;
        let kill_ms = (ref_ms * frac / 100).max(5);
        let status = std::process::Command::new(&exe)
            .args(["torn_trace_chaos_child", "--exact", "--test-threads=1"])
            .env("KEQ_TORN_TRACE", &trace_path)
            .env("KEQ_TORN_KILL_MS", kill_ms.to_string())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("spawn torn-trace child");
        let bytes = std::fs::read(&trace_path).unwrap_or_default();
        let text = String::from_utf8(bytes).expect("trace stream stays UTF-8");
        if status.success() {
            assert!(
                text.is_empty() || text.ends_with('\n'),
                "cycle {cycle}: a clean exit must flush a newline-terminated stream"
            );
        }
        // Every newline-terminated line is a complete JSON document. Only
        // an abort that lands *inside* the final write may leave an
        // unterminated fragment, and a fragment is exactly what a reader
        // discards — it must never be followed by more data.
        let complete = match text.rfind('\n') {
            Some(end) => &text[..=end],
            None => "",
        };
        for line in complete.lines() {
            Json::parse(line).unwrap_or_else(|e| {
                panic!("cycle {cycle}: torn trace line {line:?}: {e:?}")
            });
            parsed_lines += 1;
        }
    }
    assert!(
        parsed_lines > 0,
        "the campaign must observe real trace traffic to prove anything"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn journaling_a_clean_run_leaves_rows_and_counters_unaffected() {
    // The journal is pure overhead on the happy path: same verdicts, same
    // attempt counts, resume section all-default when not resuming.
    let module = small_corpus(4);
    let journal_path = temp_path("overhead");
    let _ = std::fs::remove_file(&journal_path);
    let start = Instant::now();
    let bare = run_module(&module, &HarnessOptions { workers: 2, ..HarnessOptions::default() });
    let bare_wall = start.elapsed();
    let start = Instant::now();
    let journaled = run_module(
        &module,
        &HarnessOptions {
            workers: 2,
            journal_path: Some(journal_path.clone()),
            ..HarnessOptions::default()
        },
    );
    let journaled_wall = start.elapsed();
    assert_eq!(kinds(&bare), kinds(&journaled));
    // Absolute slack: a run this small finishes in milliseconds, where
    // scheduling jitter dwarfs journal I/O.
    assert!(
        journaled_wall <= bare_wall.mul_f64(1.10) + Duration::from_millis(250),
        "journaling must cost <=10% wall (bare {bare_wall:?}, journaled {journaled_wall:?})"
    );
    assert_eq!(journaled.resume, keq_trace::ResumeSection::default());
    assert!(journal_path.exists());

    // And the journal on disk decides every function.
    let loaded =
        journal::load(&journal_path, corpus_fingerprint(&module), &StdStoreIo);
    assert_eq!(loaded.records.len(), 4);
    assert_eq!(loaded.corrupt, 0);
    let _ = std::fs::remove_file(&journal_path);
}
