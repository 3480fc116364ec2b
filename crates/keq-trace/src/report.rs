//! The aggregated machine-readable run report (`RUN_REPORT.json`).
//!
//! One [`RunReport`] summarizes a corpus run: the Fig. 6 outcome table,
//! per-phase span-time histograms, the merged solver counters, and one row
//! per function with per-attempt timing, phase attribution, structured
//! panic capture, and injected-fault markers. The same type backs the
//! `--report` harness option and the bench targets, so bench JSON and
//! harness telemetry share one schema.
//!
//! [`validate`] is the schema checker CI runs against an emitted report:
//! it rejects missing keys, malformed tables, and non-monotonic span
//! timestamps. [`check_phase_coverage`] is the accounting bar: top-level
//! phase spans of each fully-observed function must sum to (almost) its
//! recorded wall time, or the instrumentation has a blind spot.

use crate::counters::{CacheCounters, OutcomeTable, ResumeSection, SolverCounters};
use crate::event::{Event, Phase, TraceEvent};
use crate::histogram::Histogram;
use crate::json::{self, Json};

/// Schema identifier of the current report format.
///
/// v2 added the `cache` section (shared obligation-cache counters); v3
/// added the `resume` section (write-ahead journal recovery), the
/// `quarantined` outcome category, per-function `recovered` flags, and
/// the incremental-flush / circuit-breaker cache counters; v4 added a
/// `server` section and v5 gave it `p90_us`, the solver `restarts`
/// counter, and the `telemetry` section (metrics sampling plus the
/// slow-obligation table); v6 added the obligation-normalization counters
/// (`rewrite_rules_fired`, `rewrite_passes`, `rewrite_nodes_saved`) and
/// the CDCL glue-retention counter (`lbd_kept`) to the solver section; v7
/// made the report pass-aware: every function row carries the validated
/// pass's stable name (`pass`), and the new top-level `passes` array holds
/// one outcome table per validated pass, so a run that validates the same
/// corpus under ISel, regalloc, and GVN reports each pass's Fig. 6 row
/// separately; v8 dropped the `server` section, which no run ever filled:
/// a report describes a batch run, and a server's request counters travel
/// live in the `stats` and `metrics` ops and its drain line; v9 added the
/// solver counters `model_hits` (feasibility queries answered by a
/// session's earlier model) and `budget_conflicts` (conflicts spent in
/// calls that ended in a budget outcome).
pub const REPORT_SCHEMA: &str = "keq-run-report/v9";

impl OutcomeTable {
    /// Serializes the table as one compact JSON object (the form the bench
    /// targets embed).
    pub fn to_json_string(self) -> String {
        let mut s = String::new();
        self.to_json().write_compact(&mut s);
        s
    }
}

/// One validated pass's section of the v7 schema: the pass's stable wire
/// name and its own Fig. 6 outcome table, aggregated over the rows that
/// validated under it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PassSection {
    /// Stable pass name (`"isel"`, `"regalloc"`, `"gvn"`).
    pub pass: String,
    /// The pass's outcome table.
    pub outcome: OutcomeTable,
}

impl PassSection {
    fn to_json(&self) -> Json {
        json::obj(vec![("pass", Json::Str(self.pass.clone())), ("outcome", self.outcome.to_json())])
    }
}

/// One row of the slow-obligation table: a validation unit whose total
/// wall time made the bounded top-K, with enough attached context —
/// canonical fingerprint, per-phase time split, and the solver-counter
/// delta it alone accrued — to profile the tail without re-running it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SlowObligation {
    /// PR 4 canonical obligation fingerprint, rendered as a hex string
    /// (u64 fingerprints can exceed 2^53, the JSON integer precision
    /// bound, so they never travel as numbers).
    pub fingerprint: String,
    /// Function name or client-supplied request tag.
    pub label: String,
    /// Total wall-clock across attempts, µs.
    pub wall_us: u64,
    /// Final result category (stable wire name).
    pub result: String,
    /// Attempts run.
    pub attempts: u64,
    /// Retries after the first attempt (`attempts - 1`, floored at 0).
    pub retries: u64,
    /// Summed span time per phase across attempts, µs (pipeline order;
    /// phases with no spans omitted).
    pub phase_us: Vec<(Phase, u64)>,
    /// Solver counters accrued by this obligation alone.
    pub solver: SolverCounters,
}

impl SlowObligation {
    /// Serializes one slow-table row (shared by `RUN_REPORT.json` and the
    /// server protocol's `metrics` op).
    pub fn to_json(&self) -> Json {
        json::obj(vec![
            ("fingerprint", Json::Str(self.fingerprint.clone())),
            ("label", Json::Str(self.label.clone())),
            ("wall_us", json::num(self.wall_us)),
            ("result", Json::Str(self.result.clone())),
            ("attempts", json::num(self.attempts)),
            ("retries", json::num(self.retries)),
            (
                "phase_us",
                Json::Obj(
                    self.phase_us
                        .iter()
                        .map(|(p, us)| (p.name().to_string(), json::num(*us)))
                        .collect(),
                ),
            ),
            ("solver", self.solver.to_json()),
        ])
    }

    /// Parses the [`SlowObligation::to_json`] shape; `None` on a row that
    /// is not an object or lacks the string identity fields. Phase keys
    /// that name no known [`Phase`] are skipped (forward compatibility).
    pub fn from_json(doc: &Json) -> Option<SlowObligation> {
        let fingerprint = doc.get("fingerprint")?.as_str()?.to_string();
        let label = doc.get("label")?.as_str()?.to_string();
        let result = doc.get("result")?.as_str()?.to_string();
        let num = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
        let mut phase_us = Vec::new();
        if let Some(Json::Obj(pairs)) = doc.get("phase_us") {
            for (name, v) in pairs {
                if let (Some(phase), Some(us)) =
                    (Phase::ALL.iter().find(|p| p.name() == name), v.as_u64())
                {
                    phase_us.push((*phase, us));
                }
            }
        }
        Some(SlowObligation {
            fingerprint,
            label,
            wall_us: num("wall_us"),
            result,
            attempts: num("attempts"),
            retries: num("retries"),
            phase_us,
            solver: doc.get("solver").and_then(SolverCounters::from_json).unwrap_or_default(),
        })
    }
}

/// The live-telemetry section of the v5 schema: whether the metrics
/// registry was on, how many collector samples were taken, and the
/// slow-obligation table (descending wall time). All-default when the run
/// had metrics disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySection {
    /// Whether the metrics registry was enabled for the run.
    pub enabled: bool,
    /// Time-series samples the collector took.
    pub samples: u64,
    /// Top-K slowest obligations, descending wall time.
    pub slow: Vec<SlowObligation>,
}

impl TelemetrySection {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("enabled", Json::Bool(self.enabled)),
            ("samples", json::num(self.samples)),
            ("slow", Json::Arr(self.slow.iter().map(SlowObligation::to_json).collect())),
        ])
    }
}

/// Aggregated span times of one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSummary {
    /// The phase.
    pub phase: Phase,
    /// Completed spans.
    pub count: u64,
    /// Summed span durations, µs.
    pub total_us: u64,
    /// Log-bucketed span-duration distribution (µs).
    pub histogram: Histogram,
}

impl PhaseSummary {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("phase", Json::Str(self.phase.name().to_string())),
            ("count", json::num(self.count)),
            ("total_us", json::num(self.total_us)),
            (
                "histogram",
                json::obj(vec![
                    (
                        "bounds_us",
                        Json::Arr(self.histogram.bounds.iter().map(|&b| Json::Num(b)).collect()),
                    ),
                    (
                        "counts",
                        Json::Arr(
                            self.histogram.counts.iter().map(|&c| json::num(c as u64)).collect(),
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// One attempt of one function.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptReport {
    /// 1-based attempt number.
    pub attempt: u32,
    /// Escalating-retry budget multiplier.
    pub budget_scale: u64,
    /// Attempt wall-clock, µs.
    pub wall_us: u64,
    /// Trace offset when the attempt started, µs (0 without a trace).
    pub start_us: u64,
    /// Trace offset when the attempt ended, µs.
    pub end_us: u64,
    /// Result category (stable wire name).
    pub result: String,
    /// Whether the watchdog abandoned the worker.
    pub abandoned: bool,
    /// Captured panic message, for crashed attempts.
    pub panic_message: Option<String>,
    /// Captured panic source location (`file:line:col`), when available.
    pub panic_location: Option<String>,
    /// Injected faults observed during the attempt (stable wire names).
    pub faults: Vec<String>,
    /// Summed span time per phase, µs (pipeline order).
    pub phase_us: Vec<(Phase, u64)>,
}

impl AttemptReport {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("attempt", json::num(u64::from(self.attempt))),
            ("budget_scale", json::num(self.budget_scale)),
            ("wall_us", json::num(self.wall_us)),
            ("start_us", json::num(self.start_us)),
            ("end_us", json::num(self.end_us)),
            ("result", Json::Str(self.result.clone())),
            ("abandoned", Json::Bool(self.abandoned)),
            ("panic_message", json::opt_str(&self.panic_message)),
            ("panic_location", json::opt_str(&self.panic_location)),
            ("faults", Json::Arr(self.faults.iter().map(|f| Json::Str(f.clone())).collect())),
            (
                "phase_us",
                Json::Obj(
                    self.phase_us
                        .iter()
                        .map(|(p, us)| (p.name().to_string(), json::num(*us)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One corpus function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionReport {
    /// Function name.
    pub name: String,
    /// Index in the validated module.
    pub index: u64,
    /// Stable name of the validated pass this row's verdict is about.
    pub pass: String,
    /// Instruction count.
    pub size: u64,
    /// Total wall-clock across attempts, µs.
    pub wall_us: u64,
    /// Final result category (stable wire name).
    pub result: String,
    /// Whether the verdict was recovered from the write-ahead journal by a
    /// resumed run (such rows have no observed attempts).
    pub recovered: bool,
    /// Every attempt, in order.
    pub attempts: Vec<AttemptReport>,
}

impl FunctionReport {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("index", json::num(self.index)),
            ("pass", Json::Str(self.pass.clone())),
            ("size", json::num(self.size)),
            ("wall_us", json::num(self.wall_us)),
            ("result", Json::Str(self.result.clone())),
            ("recovered", Json::Bool(self.recovered)),
            ("attempts", Json::Arr(self.attempts.iter().map(AttemptReport::to_json).collect())),
        ])
    }
}

/// The aggregated report of one corpus run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Corpus seed.
    pub seed: u64,
    /// Functions in the run.
    pub n_functions: u64,
    /// Whether a trace ring backed the phase/fault sections.
    pub trace_enabled: bool,
    /// The outcome table (all passes merged).
    pub outcome: OutcomeTable,
    /// Per-pass outcome tables, in validation order.
    pub passes: Vec<PassSection>,
    /// Merged solver counters.
    pub solver: SolverCounters,
    /// The shared obligation cache's own counters; its lookup traffic is
    /// in `solver`.
    pub cache: CacheCounters,
    /// Write-ahead journal recovery.
    pub resume: ResumeSection,
    /// Live telemetry (metrics sampling and the slow-obligation table;
    /// all-default when metrics were disabled).
    pub telemetry: TelemetrySection,
    /// Per-phase span aggregates (phases with no spans are omitted).
    pub phases: Vec<PhaseSummary>,
    /// Per-function rows, ordered by index.
    pub functions: Vec<FunctionReport>,
    /// Events recorded into the trace ring.
    pub events_recorded: u64,
    /// Events the trace ring dropped to its capacity bound.
    pub events_dropped: u64,
}

impl RunReport {
    /// Serializes the report as pretty-printed JSON (the `RUN_REPORT.json`
    /// payload).
    pub fn to_json(&self) -> String {
        let doc = json::obj(vec![
            ("schema", Json::Str(REPORT_SCHEMA.to_string())),
            ("seed", json::num(self.seed)),
            ("n_functions", json::num(self.n_functions)),
            ("trace_enabled", Json::Bool(self.trace_enabled)),
            ("outcome", self.outcome.to_json()),
            ("passes", Json::Arr(self.passes.iter().map(PassSection::to_json).collect())),
            ("solver", self.solver.to_json()),
            ("cache", self.cache_json()),
            ("resume", self.resume.to_json()),
            ("telemetry", self.telemetry.to_json()),
            ("phases", Json::Arr(self.phases.iter().map(PhaseSummary::to_json).collect())),
            ("functions", Json::Arr(self.functions.iter().map(FunctionReport::to_json).collect())),
            ("events_recorded", json::num(self.events_recorded)),
            ("events_dropped", json::num(self.events_dropped)),
        ]);
        let mut out = String::new();
        doc.write_pretty(&mut out);
        out
    }

    /// The `cache` section: the lookup traffic the solver counted, so
    /// `hits + misses == obligations` holds by construction, then the
    /// cache's own rows.
    fn cache_json(&self) -> Json {
        let s = &self.solver;
        let mut fields = vec![
            ("obligations", json::num(s.obligation_cache_hits + s.obligation_cache_misses)),
            ("hits", json::num(s.obligation_cache_hits)),
            ("misses", json::num(s.obligation_cache_misses)),
            ("stores", json::num(s.obligation_cache_stores)),
        ];
        fields.extend(self.cache.json_fields());
        json::obj(fields)
    }
}

/// Aggregates [`Event::Span`] events into per-phase summaries with
/// log-bucketed latency histograms. Phases with no spans are omitted.
pub fn phase_summaries(events: &[TraceEvent]) -> Vec<PhaseSummary> {
    let mut out: Vec<PhaseSummary> = Vec::new();
    for phase in Phase::ALL {
        let mut summary = PhaseSummary {
            phase,
            count: 0,
            total_us: 0,
            histogram: Histogram::log_us(format!("{} span time (µs)", phase.name())),
        };
        for ev in events {
            if let Event::Span { phase: p, dur_us, .. } = ev.event {
                if p == phase {
                    summary.count += 1;
                    summary.total_us += dur_us;
                    summary.histogram.add(dur_us as f64);
                }
            }
        }
        if summary.count > 0 {
            out.push(summary);
        }
    }
    out
}

/// A schema violation found by [`validate`].
pub type Violation = String;

fn require<'a>(doc: &'a Json, path: &str, key: &str, out: &mut Vec<Violation>) -> Option<&'a Json> {
    let v = doc.get(key);
    if v.is_none() {
        out.push(format!("{path}: missing key \"{key}\""));
    }
    v
}

fn require_u64(doc: &Json, path: &str, key: &str, out: &mut Vec<Violation>) -> Option<u64> {
    let v = require(doc, path, key, out)?;
    let n = v.as_u64();
    if n.is_none() {
        out.push(format!("{path}.{key}: expected a non-negative integer"));
    }
    n
}

fn require_str<'a>(
    doc: &'a Json,
    path: &str,
    key: &str,
    out: &mut Vec<Violation>,
) -> Option<&'a str> {
    let v = require(doc, path, key, out)?;
    let s = v.as_str();
    if s.is_none() {
        out.push(format!("{path}.{key}: expected a string"));
    }
    s
}

/// Validates a parsed `RUN_REPORT.json` document against the v1 schema:
/// every required key present and well-typed, the outcome table internally
/// consistent, and span timestamps monotonic (attempt windows ordered and
/// non-inverted within every function).
///
/// # Errors
///
/// Returns the full list of violations (never just the first).
pub fn validate(doc: &Json) -> Result<(), Vec<Violation>> {
    let mut v: Vec<Violation> = Vec::new();
    match require_str(doc, "$", "schema", &mut v) {
        Some(s) if s == REPORT_SCHEMA => {}
        Some(s) => v.push(format!("$.schema: unknown schema \"{s}\" (expected {REPORT_SCHEMA})")),
        None => {}
    }
    require_u64(doc, "$", "seed", &mut v);
    require_u64(doc, "$", "n_functions", &mut v);
    require(doc, "$", "trace_enabled", &mut v);
    require_u64(doc, "$", "events_recorded", &mut v);
    require_u64(doc, "$", "events_dropped", &mut v);

    if let Some(outcome) = require(doc, "$", "outcome", &mut v) {
        validate_outcome_table(outcome, "$.outcome", &mut v);
    }

    if let Some(passes) = require(doc, "$", "passes", &mut v) {
        match passes.as_arr() {
            None => v.push("$.passes: expected an array".into()),
            Some(items) => {
                let mut pass_total = 0u64;
                for (i, p) in items.iter().enumerate() {
                    let path = format!("$.passes[{i}]");
                    require_str(p, &path, "pass", &mut v);
                    if let Some(outcome) = require(p, &path, "outcome", &mut v) {
                        validate_outcome_table(outcome, &format!("{path}.outcome"), &mut v);
                        pass_total += outcome.get("total").and_then(Json::as_u64).unwrap_or(0);
                    }
                }
                // Per-pass tables must partition the merged one.
                if let Some(t) =
                    doc.get("outcome").and_then(|o| o.get("total")).and_then(Json::as_u64)
                {
                    if !items.is_empty() && pass_total != t {
                        v.push(format!(
                            "$.passes: per-pass totals sum to {pass_total} but \
                             $.outcome.total is {t}"
                        ));
                    }
                }
            }
        }
    }

    if let Some(solver) = require(doc, "$", "solver", &mut v) {
        SolverCounters::check_json(solver, "$.solver", &mut v);
    }

    if let Some(cache) = require(doc, "$", "cache", &mut v) {
        for key in ["obligations", "hits", "misses", "stores"] {
            require_u64(cache, "$.cache", key, &mut v);
        }
        CacheCounters::check_json(cache, "$.cache", &mut v);
        let hits = cache.get("hits").and_then(Json::as_u64);
        let misses = cache.get("misses").and_then(Json::as_u64);
        let obligations = cache.get("obligations").and_then(Json::as_u64);
        if let (Some(h), Some(m), Some(o)) = (hits, misses, obligations) {
            if h + m != o {
                v.push(format!(
                    "$.cache: hits ({h}) + misses ({m}) disagree with obligations ({o})"
                ));
            }
        }
    }

    if let Some(phases) = require(doc, "$", "phases", &mut v) {
        match phases.as_arr() {
            None => v.push("$.phases: expected an array".into()),
            Some(items) => {
                for (i, p) in items.iter().enumerate() {
                    let path = format!("$.phases[{i}]");
                    if let Some(name) = require_str(p, &path, "phase", &mut v) {
                        if Phase::from_name(name).is_none() {
                            v.push(format!("{path}.phase: unknown phase \"{name}\""));
                        }
                    }
                    require_u64(p, &path, "count", &mut v);
                    require_u64(p, &path, "total_us", &mut v);
                    if let Some(h) = require(p, &path, "histogram", &mut v) {
                        let bounds = h.get("bounds_us").and_then(Json::as_arr);
                        let counts = h.get("counts").and_then(Json::as_arr);
                        match (bounds, counts) {
                            (Some(b), Some(c)) if c.len() == b.len() + 1 => {}
                            (Some(_), Some(_)) => v.push(format!(
                                "{path}.histogram: counts must have bounds_us+1 entries"
                            )),
                            _ => {
                                v.push(format!("{path}.histogram: missing bounds_us/counts arrays"))
                            }
                        }
                    }
                }
            }
        }
    }

    if let Some(resume) = require(doc, "$", "resume", &mut v) {
        ResumeSection::check_json(resume, "$.resume", &mut v);
    }

    if let Some(telemetry) = require(doc, "$", "telemetry", &mut v) {
        if require(telemetry, "$.telemetry", "enabled", &mut v)
            .is_some_and(|d| d.as_bool().is_none())
        {
            v.push("$.telemetry.enabled: expected a boolean".into());
        }
        require_u64(telemetry, "$.telemetry", "samples", &mut v);
        match require(telemetry, "$.telemetry", "slow", &mut v).map(Json::as_arr) {
            Some(None) => v.push("$.telemetry.slow: expected an array".into()),
            Some(Some(rows)) => {
                let mut prev_wall = u64::MAX;
                for (i, row) in rows.iter().enumerate() {
                    let path = format!("$.telemetry.slow[{i}]");
                    require_str(row, &path, "fingerprint", &mut v);
                    require_str(row, &path, "label", &mut v);
                    require_str(row, &path, "result", &mut v);
                    let wall = require_u64(row, &path, "wall_us", &mut v);
                    require_u64(row, &path, "attempts", &mut v);
                    require_u64(row, &path, "retries", &mut v);
                    require(row, &path, "phase_us", &mut v);
                    if let Some(solver) = require(row, &path, "solver", &mut v) {
                        SolverCounters::check_json(solver, &format!("{path}.solver"), &mut v);
                    }
                    if let Some(w) = wall {
                        if w > prev_wall {
                            v.push(format!(
                                "{path}: slow table must be sorted by descending wall_us"
                            ));
                        }
                        prev_wall = w;
                    }
                }
            }
            None => {}
        }
    }

    if let Some(functions) = require(doc, "$", "functions", &mut v) {
        match functions.as_arr() {
            None => v.push("$.functions: expected an array".into()),
            Some(items) => {
                for (i, f) in items.iter().enumerate() {
                    validate_function(f, i, &mut v);
                }
            }
        }
    }

    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

fn validate_outcome_table(outcome: &Json, path: &str, v: &mut Vec<Violation>) {
    let before = v.len();
    OutcomeTable::check_json(outcome, path, v);
    let Some(t) = OutcomeTable::from_json(outcome).filter(|_| v.len() == before) else { return };
    let parts = t.succeeded + t.timeout + t.out_of_memory + t.crashed + t.quarantined + t.other;
    if t.total != parts {
        v.push(format!("{path}: categories sum to {parts} but total is {}", t.total));
    }
}

fn validate_function(f: &Json, i: usize, v: &mut Vec<Violation>) {
    let path = format!("$.functions[{i}]");
    require_str(f, &path, "name", v);
    require_u64(f, &path, "index", v);
    require_str(f, &path, "pass", v);
    require_u64(f, &path, "size", v);
    require_u64(f, &path, "wall_us", v);
    require_str(f, &path, "result", v);
    if require(f, &path, "recovered", v).is_some_and(|d| d.as_bool().is_none()) {
        v.push(format!("{path}.recovered: expected a boolean"));
    }
    let Some(attempts) = require(f, &path, "attempts", v) else { return };
    let Some(items) = attempts.as_arr() else {
        v.push(format!("{path}.attempts: expected an array"));
        return;
    };
    let mut prev_attempt = 0u64;
    let mut prev_start = 0u64;
    for (j, a) in items.iter().enumerate() {
        let apath = format!("{path}.attempts[{j}]");
        let n = require_u64(a, &apath, "attempt", v);
        require_u64(a, &apath, "budget_scale", v);
        require_u64(a, &apath, "wall_us", v);
        let start = require_u64(a, &apath, "start_us", v);
        let end = require_u64(a, &apath, "end_us", v);
        require_str(a, &apath, "result", v);
        require(a, &apath, "abandoned", v);
        require(a, &apath, "panic_message", v);
        require(a, &apath, "panic_location", v);
        require(a, &apath, "faults", v);
        require(a, &apath, "phase_us", v);
        if let Some(n) = n {
            if n <= prev_attempt {
                v.push(format!(
                    "{apath}: attempt numbers must increase (got {n} after {prev_attempt})"
                ));
            }
            prev_attempt = n;
        }
        if let (Some(s), Some(e)) = (start, end) {
            if e < s {
                v.push(format!("{apath}: span inverted (end_us {e} < start_us {s})"));
            }
            if s < prev_start {
                v.push(format!(
                    "{apath}: non-monotonic span timestamps (start_us {s} before previous attempt's start {prev_start})"
                ));
            }
            prev_start = s;
        }
    }
}

/// Checks the span-accounting bar: for every function whose attempts all
/// completed under observation (no watchdog abandonment, trace ring not
/// truncated), the top-level phase spans must sum to the function's
/// recorded wall time within `slack_frac` (plus `slack_us` absolute noise
/// floor). Functions shorter than `min_wall_us` are skipped — at that
/// scale scheduler noise dominates any phase accounting.
///
/// # Errors
///
/// Returns one violation per function outside the tolerance.
pub fn check_phase_coverage(
    doc: &Json,
    slack_frac: f64,
    slack_us: u64,
    min_wall_us: u64,
) -> Result<(), Vec<Violation>> {
    let mut v = Vec::new();
    if doc.get("events_dropped").and_then(Json::as_u64).unwrap_or(0) > 0 {
        // A truncated ring under-reports spans by construction.
        return Ok(());
    }
    if doc.get("trace_enabled").and_then(Json::as_bool) != Some(true) {
        return Ok(());
    }
    let functions = doc.get("functions").and_then(Json::as_arr).unwrap_or(&[]);
    for f in functions {
        let name = f.get("name").and_then(Json::as_str).unwrap_or("?");
        let wall = f.get("wall_us").and_then(Json::as_u64).unwrap_or(0);
        let attempts = f.get("attempts").and_then(Json::as_arr).unwrap_or(&[]);
        let abandoned =
            attempts.iter().any(|a| a.get("abandoned").and_then(Json::as_bool).unwrap_or(false));
        // Recovered rows carry journal-recorded wall time but no observed
        // attempts (their spans happened in the killed run), so they have
        // nothing to account for.
        if abandoned || attempts.is_empty() || wall < min_wall_us {
            continue;
        }
        let mut phase_sum = 0u64;
        for a in attempts {
            if let Some(Json::Obj(fields)) = a.get("phase_us") {
                for (key, val) in fields {
                    if Phase::from_name(key).is_some_and(Phase::is_top_level) {
                        phase_sum += val.as_u64().unwrap_or(0);
                    }
                }
            }
        }
        let tolerance = (wall as f64 * slack_frac) as u64 + slack_us;
        if phase_sum.abs_diff(wall) > tolerance {
            v.push(format!(
                "function {name}: top-level phase spans sum to {phase_sum} µs but wall time is \
                 {wall} µs (tolerance {tolerance} µs)"
            ));
        }
    }
    if v.is_empty() {
        Ok(())
    } else {
        Err(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A small but fully-populated report used across the tests.
    pub(crate) fn sample_report() -> RunReport {
        let mut hist = Histogram::log_us("check span time (µs)");
        hist.add(120.0);
        hist.add(80_000.0);
        RunReport {
            seed: 2021,
            n_functions: 2,
            trace_enabled: true,
            outcome: OutcomeTable {
                succeeded: 1,
                timeout: 0,
                out_of_memory: 0,
                crashed: 1,
                quarantined: 0,
                other: 0,
                total: 2,
                attempts: 3,
            },
            passes: vec![PassSection {
                pass: "isel".into(),
                outcome: OutcomeTable {
                    succeeded: 1,
                    crashed: 1,
                    total: 2,
                    attempts: 3,
                    ..OutcomeTable::default()
                },
            }],
            solver: SolverCounters {
                queries: 40,
                sat: 22,
                unsat: 17,
                budget: 1,
                model_hits: 8,
                conflicts: 90,
                budget_conflicts: 40,
                restarts: 3,
                cache_hits: 6,
                cache_evictions: 2,
                sessions_opened: 4,
                prefix_hits: 30,
                clauses_retained: 55,
                terms_blasted: 1000,
                terms_blast_reused: 400,
                rewrite_rules_fired: 120,
                rewrite_passes: 48,
                rewrite_nodes_saved: 310,
                lbd_kept: 11,
                obligation_cache_hits: 9,
                obligation_cache_misses: 25,
                obligation_cache_stores: 14,
                time: Duration::from_micros(80_120),
            },
            cache: CacheCounters {
                evictions: 1,
                entries: 13,
                disk_loaded: 5,
                disk_rejected: 1,
                disk_persisted: 14,
                disk_bytes: 370,
                flushes: 2,
                flush_failures: 0,
                degraded: false,
                persist_failed: false,
            },
            resume: ResumeSection { enabled: false, skipped: 0, recovered: 0, corrupt: 0 },
            telemetry: TelemetrySection {
                enabled: true,
                samples: 12,
                slow: vec![SlowObligation {
                    fingerprint: "00000000000000000000ffee00c0ffee".into(),
                    label: "f0".into(),
                    wall_us: 90_000,
                    result: "succeeded".into(),
                    attempts: 2,
                    retries: 1,
                    phase_us: vec![
                        (Phase::Check, 83_000),
                        (Phase::Lower, 9_000),
                        (Phase::Blast, 14_000),
                        (Phase::Cdcl, 31_000),
                    ],
                    solver: SolverCounters {
                        queries: 25,
                        sat: 14,
                        unsat: 10,
                        budget: 1,
                        conflicts: 80,
                        restarts: 3,
                        cache_hits: 2,
                        cache_evictions: 0,
                        sessions_opened: 2,
                        prefix_hits: 18,
                        clauses_retained: 40,
                        terms_blasted: 700,
                        terms_blast_reused: 250,
                        rewrite_rules_fired: 70,
                        rewrite_passes: 25,
                        rewrite_nodes_saved: 180,
                        lbd_kept: 6,
                        time: Duration::from_micros(61_000),
                        ..SolverCounters::default()
                    },
                }],
            },
            phases: vec![PhaseSummary {
                phase: Phase::Check,
                count: 2,
                total_us: 80_120,
                histogram: hist,
            }],
            functions: vec![
                FunctionReport {
                    name: "f0".into(),
                    index: 0,
                    pass: "isel".into(),
                    size: 12,
                    wall_us: 90_000,
                    result: "succeeded".into(),
                    recovered: false,
                    attempts: vec![
                        AttemptReport {
                            attempt: 1,
                            budget_scale: 1,
                            wall_us: 30_000,
                            start_us: 100,
                            end_us: 30_100,
                            result: "timeout".into(),
                            abandoned: false,
                            panic_message: None,
                            panic_location: None,
                            faults: vec!["force_budget_conflicts".into()],
                            phase_us: vec![(Phase::Isel, 2_000), (Phase::Check, 27_000)],
                        },
                        AttemptReport {
                            attempt: 2,
                            budget_scale: 4,
                            wall_us: 60_000,
                            start_us: 30_200,
                            end_us: 90_200,
                            result: "succeeded".into(),
                            abandoned: false,
                            panic_message: None,
                            panic_location: None,
                            faults: vec![],
                            phase_us: vec![(Phase::Isel, 2_000), (Phase::Check, 56_000)],
                        },
                    ],
                },
                FunctionReport {
                    name: "f1".into(),
                    index: 1,
                    pass: "isel".into(),
                    size: 7,
                    wall_us: 1_500,
                    result: "crashed".into(),
                    recovered: false,
                    attempts: vec![AttemptReport {
                        attempt: 1,
                        budget_scale: 1,
                        wall_us: 1_500,
                        start_us: 95_000,
                        end_us: 96_500,
                        result: "crashed".into(),
                        abandoned: false,
                        panic_message: Some("boom \"quoted\"\nwith newline \\ and π".into()),
                        panic_location: Some("crates/keq-smt/src/fault.rs:222:17".into()),
                        faults: vec!["panic".into()],
                        phase_us: vec![(Phase::Isel, 300), (Phase::Check, 1_100)],
                    }],
                },
            ],
            events_recorded: 123,
            events_dropped: 0,
        }
    }

    #[test]
    fn sample_report_serializes_and_validates() {
        let text = sample_report().to_json();
        let doc = Json::parse(&text).expect("report JSON parses");
        validate(&doc).expect("report validates");
        check_phase_coverage(&doc, 0.10, 2_000, 5_000).expect("coverage holds");
    }

    #[test]
    fn missing_keys_are_reported() {
        let text = sample_report().to_json();
        let mut doc = Json::parse(&text).expect("parses");
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "solver");
        }
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("missing key \"solver\"")), "{errs:?}");
    }

    #[test]
    fn non_monotonic_attempts_are_reported() {
        let mut report = sample_report();
        report.functions[0].attempts[1].start_us = 50; // before attempt 1
        let doc = Json::parse(&report.to_json()).expect("parses");
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("non-monotonic span timestamps")), "{errs:?}");
    }

    #[test]
    fn inverted_span_is_reported() {
        let mut report = sample_report();
        report.functions[1].attempts[0].end_us = 10;
        let doc = Json::parse(&report.to_json()).expect("parses");
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("span inverted")), "{errs:?}");
    }

    #[test]
    fn cache_hit_miss_sum_must_match_obligations() {
        // The report derives `obligations` from the solver's lookups, so
        // only an edited document can disagree.
        let mut doc = Json::parse(&sample_report().to_json()).expect("parses");
        let Json::Obj(fields) = &mut doc else { panic!("an object") };
        let (_, Json::Obj(cache)) =
            fields.iter_mut().find(|(k, _)| k == "cache").expect("a cache section")
        else {
            panic!("an object")
        };
        cache.iter_mut().find(|(k, _)| k == "obligations").expect("obligations").1 = json::num(35);
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("disagree with obligations")), "{errs:?}");
    }

    #[test]
    fn missing_cache_section_is_reported() {
        let text = sample_report().to_json();
        let mut doc = Json::parse(&text).expect("parses");
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "cache");
        }
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("missing key \"cache\"")), "{errs:?}");
    }

    #[test]
    fn inconsistent_outcome_total_is_reported() {
        let mut report = sample_report();
        report.outcome.total = 99;
        let doc = Json::parse(&report.to_json()).expect("parses");
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("categories sum to")), "{errs:?}");
    }

    #[test]
    fn coverage_gap_is_reported() {
        let mut report = sample_report();
        report.functions[0].attempts[1].phase_us = vec![(Phase::Isel, 10)];
        let doc = Json::parse(&report.to_json()).expect("parses");
        let errs = check_phase_coverage(&doc, 0.10, 2_000, 5_000).expect_err("must fail");
        assert!(errs[0].contains("f0"), "{errs:?}");
    }

    #[test]
    fn abandoned_and_tiny_functions_are_exempt_from_coverage() {
        let mut report = sample_report();
        // Huge gap, but the attempt was abandoned: exempt.
        report.functions[0].attempts[1].phase_us.clear();
        report.functions[0].attempts[1].abandoned = true;
        let doc = Json::parse(&report.to_json()).expect("parses");
        check_phase_coverage(&doc, 0.10, 2_000, 5_000).expect("abandoned rows are skipped");
    }

    #[test]
    fn missing_resume_section_is_reported() {
        let text = sample_report().to_json();
        let mut doc = Json::parse(&text).expect("parses");
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "resume");
        }
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("missing key \"resume\"")), "{errs:?}");
    }

    #[test]
    fn missing_telemetry_section_is_reported() {
        let text = sample_report().to_json();
        let mut doc = Json::parse(&text).expect("parses");
        if let Json::Obj(fields) = &mut doc {
            fields.retain(|(k, _)| k != "telemetry");
        }
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("missing key \"telemetry\"")), "{errs:?}");
    }

    #[test]
    fn unsorted_slow_table_is_reported() {
        let mut report = sample_report();
        let mut second = report.telemetry.slow[0].clone();
        second.wall_us = report.telemetry.slow[0].wall_us + 1;
        report.telemetry.slow.push(second);
        let doc = Json::parse(&report.to_json()).expect("parses");
        let errs = validate(&doc).expect_err("must fail");
        assert!(errs.iter().any(|e| e.contains("sorted by descending wall_us")), "{errs:?}");
    }

    #[test]
    fn metrics_disabled_reports_carry_the_zero_telemetry_section() {
        let mut report = sample_report();
        report.telemetry = TelemetrySection::default();
        let doc = Json::parse(&report.to_json()).expect("parses");
        validate(&doc).expect("all-default telemetry section validates");
        assert_eq!(
            doc.get("telemetry").and_then(|t| t.get("enabled")).and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn quarantined_counts_toward_outcome_total() {
        let mut report = sample_report();
        report.outcome.crashed = 0;
        report.outcome.quarantined = 1;
        let doc = Json::parse(&report.to_json()).expect("parses");
        validate(&doc).expect("quarantined is a first-class category");
    }

    #[test]
    fn recovered_functions_are_exempt_from_coverage() {
        let mut report = sample_report();
        // A resumed row: journal-recorded wall time, no observed attempts.
        report.functions[0].recovered = true;
        report.functions[0].attempts.clear();
        report.resume = ResumeSection { enabled: true, skipped: 1, recovered: 1, corrupt: 0 };
        let doc = Json::parse(&report.to_json()).expect("parses");
        validate(&doc).expect("validates");
        check_phase_coverage(&doc, 0.10, 2_000, 5_000).expect("recovered rows are skipped");
    }

    #[test]
    fn phase_summaries_aggregate_spans() {
        let events = vec![
            TraceEvent {
                t_us: 10,
                func: Some(0),
                attempt: Some(1),
                event: Event::Span { phase: Phase::Isel, start_us: 0, dur_us: 10 },
            },
            TraceEvent {
                t_us: 30,
                func: Some(0),
                attempt: Some(1),
                event: Event::Span { phase: Phase::Isel, start_us: 15, dur_us: 15 },
            },
            TraceEvent {
                t_us: 60,
                func: Some(0),
                attempt: Some(1),
                event: Event::Span { phase: Phase::Check, start_us: 30, dur_us: 30 },
            },
        ];
        let phases = phase_summaries(&events);
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0].phase, Phase::Isel);
        assert_eq!(phases[0].count, 2);
        assert_eq!(phases[0].total_us, 25);
        assert_eq!(phases[1].phase, Phase::Check);
        assert_eq!(phases[1].total_us, 30);
    }
}
