//! CI schema gate: point `KEQ_RUN_REPORT` at a `RUN_REPORT.json` produced
//! by a real run (e.g. `scripts/report.sh --smoke`) and this test fails the
//! build if the report is missing required keys, its outcome counts don't
//! sum, attempt timestamps are non-monotonic, a span window is inverted, or
//! per-phase span time doesn't account for each function's wall time
//! within tolerance. With the variable unset the test is a no-op so plain
//! `cargo test` stays hermetic.

use keq_trace::{check_phase_coverage, validate, Json};

/// Fraction of a function's wall time its top-level phase spans may
/// under-account for (harness overhead: spawn, channel, warm-start map).
const PHASE_SLACK_FRAC: f64 = 0.10;
/// Absolute per-function slack in µs, so scheduler jitter on very short
/// functions doesn't fail the relative check.
const PHASE_SLACK_US: u64 = 2_000;
/// Functions faster than this are dominated by fixed overhead; skip them.
const MIN_WALL_US: u64 = 5_000;

#[test]
fn run_report_is_schema_valid() {
    let path = match std::env::var("KEQ_RUN_REPORT") {
        Ok(p) => p,
        Err(_) => {
            eprintln!("KEQ_RUN_REPORT not set; skipping schema check");
            return;
        }
    };
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let doc = Json::parse(&raw).unwrap_or_else(|e| panic!("{path}: not valid JSON: {e}"));

    if let Err(violations) = validate(&doc) {
        panic!(
            "{path}: schema violations:\n  {}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n  ")
        );
    }
    if let Err(violations) =
        check_phase_coverage(&doc, PHASE_SLACK_FRAC, PHASE_SLACK_US, MIN_WALL_US)
    {
        panic!(
            "{path}: phase coverage violations:\n  {}",
            violations.iter().map(|v| v.to_string()).collect::<Vec<_>>().join("\n  ")
        );
    }
    eprintln!("{path}: schema and phase coverage OK");
}
