//! **BENCH_PR2** — machine-readable incremental-session benchmark.
//!
//! Emits `BENCH_PR2.json` (hand-rolled writer; the workspace is
//! dependency-free) with two sections:
//!
//! * `session_reuse` — the multi-obligation sync-point batch of
//!   [`keq_bench::sync_point_workload`] in scratch mode versus session
//!   mode: wall time plus the solver's reuse counters (`terms_blasted`,
//!   `terms_blast_reused`, `prefix_hits`, `clauses_retained`) and the
//!   headline blast-reduction ratio;
//! * `fig6` — the corpus validation table (paper Fig. 6, scaled down)
//!   timed twice: `cold` with retry warm-starting disabled and `warm`
//!   with the default carried [`ValidationContext`].
//!
//! Environment knobs:
//!
//! * `KEQ_PR2_OBLIGATIONS` — obligations in the session batch (default 16)
//! * `KEQ_PR2_N`           — corpus functions (default 24)
//! * `KEQ_PR2_SECS`        — per-function wall-clock limit (default 10)
//! * `KEQ_PR2_SEED`        — corpus seed (default 2021)
//! * `KEQ_PR2_OUT`         — output path (default `BENCH_PR2.json`)
//!
//! `scripts/bench.sh` drives this target; CI runs it smoke-sized.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use keq_bench::{outcome_table, run_corpus_with, HarnessOptions, RetryPolicy};
use keq_core::KeqOptions;
use keq_smt::{Budget, CheckOutcome, Solver, SolverStats, TermBank};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// One mode's measurement of the session-reuse batch.
struct ReuseRun {
    wall: Duration,
    stats: SolverStats,
}

fn json_reuse_run(r: &ReuseRun) -> String {
    format!(
        "{{\"wall_us\": {}, \"queries\": {}, \"terms_blasted\": {}, \
         \"terms_blast_reused\": {}, \"prefix_hits\": {}, \
         \"clauses_retained\": {}, \"conflicts\": {}}}",
        r.wall.as_micros(),
        r.stats.queries,
        r.stats.terms_blasted,
        r.stats.terms_blast_reused,
        r.stats.prefix_hits,
        r.stats.clauses_retained,
        r.stats.conflicts
    )
}

/// Runs the sync-point batch in both modes and returns (scratch, session).
fn measure_session_reuse(obligations: usize) -> (ReuseRun, ReuseRun) {
    let mut bank = TermBank::new();
    let wl = keq_bench::sync_point_workload(&mut bank, 32, obligations);

    let mut scratch = Solver::new();
    let before = scratch.stats();
    let start = Instant::now();
    for (delta, expect_sat) in &wl.obligations {
        let mut full = wl.prefix.clone();
        full.extend_from_slice(delta);
        let outcome = scratch.check_sat(&mut bank, &full);
        assert_eq!(matches!(outcome, CheckOutcome::Sat(_)), *expect_sat);
    }
    let scratch_run = ReuseRun { wall: start.elapsed(), stats: scratch.stats().since(&before) };

    let mut warm = Solver::new();
    let before = warm.stats();
    let start = Instant::now();
    let mut session = warm.open_session(&wl.prefix);
    for (delta, expect_sat) in &wl.obligations {
        let outcome = session.check_sat(&mut bank, delta);
        assert_eq!(matches!(outcome, CheckOutcome::Sat(_)), *expect_sat);
    }
    drop(session);
    let session_run = ReuseRun { wall: start.elapsed(), stats: warm.stats().since(&before) };
    (scratch_run, session_run)
}

/// One Fig. 6 corpus sweep; `warm_start` toggles retry context carrying.
fn measure_fig6(seed: u64, n: usize, secs: u64, warm_start: bool) -> String {
    let opts = HarnessOptions {
        keq: KeqOptions {
            time_limit: Some(Duration::from_secs(secs)),
            solver_budget: Budget {
                max_conflicts: 500_000,
                max_terms: 2_000_000,
                max_time: Some(Duration::from_secs(secs / 4 + 1)),
            },
            ..KeqOptions::default()
        },
        retry: RetryPolicy { max_attempts: 2, factor: 4, ..RetryPolicy::default() },
        warm_start,
        ..HarnessOptions::default()
    };
    let start = Instant::now();
    let (_m, summary) = run_corpus_with(seed, n, &opts);
    let wall = start.elapsed();
    // The outcome table is the shared `keq-trace` report type, so this
    // section's keys match `RUN_REPORT.json`'s `outcome` object exactly.
    format!(
        "{{\"wall_ms\": {}, \"outcome\": {}}}",
        wall.as_millis(),
        outcome_table(&summary).to_json_string()
    )
}

fn main() {
    let obligations = env_u64("KEQ_PR2_OBLIGATIONS", 16) as usize;
    let n = env_u64("KEQ_PR2_N", 24) as usize;
    let secs = env_u64("KEQ_PR2_SECS", 10);
    let seed = env_u64("KEQ_PR2_SEED", 2021);
    let out = std::env::var("KEQ_PR2_OUT").unwrap_or_else(|_| "BENCH_PR2.json".to_string());

    eprintln!("session_reuse: {obligations}-obligation sync-point batch...");
    let (scratch, session) = measure_session_reuse(obligations);
    let blast_reduction =
        scratch.stats.terms_blasted as f64 / session.stats.terms_blasted.max(1) as f64;
    assert!(
        session.stats.terms_blasted * 2 <= scratch.stats.terms_blasted,
        "acceptance bar: session must bit-blast >=2x fewer nodes \
         (session {}, scratch {})",
        session.stats.terms_blasted,
        scratch.stats.terms_blasted
    );

    eprintln!("fig6: {n} corpus functions (seed {seed}, {secs}s/function), cold then warm...");
    let fig6_cold = measure_fig6(seed, n, secs, false);
    let fig6_warm = measure_fig6(seed, n, secs, true);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"BENCH_PR2\",");
    let _ = writeln!(json, "  \"seed\": {seed},");
    let _ = writeln!(json, "  \"session_reuse\": {{");
    let _ = writeln!(json, "    \"obligations\": {obligations},");
    let _ = writeln!(json, "    \"scratch\": {},", json_reuse_run(&scratch));
    let _ = writeln!(json, "    \"session\": {},", json_reuse_run(&session));
    let _ = writeln!(json, "    \"blast_reduction\": {blast_reduction:.2}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fig6\": {{");
    let _ = writeln!(json, "    \"n_functions\": {n},");
    let _ = writeln!(json, "    \"per_function_secs\": {secs},");
    let _ = writeln!(json, "    \"cold\": {fig6_cold},");
    let _ = writeln!(json, "    \"warm\": {fig6_warm}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out, &json).expect("write BENCH_PR2 json");
    print!("{json}");
    eprintln!("wrote {out} (blast reduction {blast_reduction:.2}x)");
}
