//! Live fleet telemetry: a metrics registry, a time-series collector, and
//! a Prometheus-text renderer.
//!
//! Three layers, mirroring the recorder design one module over:
//!
//! 1. **Registry** — a fixed vocabulary of counters, gauges, and
//!    log-bucketed histograms ([`CounterId`] / [`GaugeId`] / [`HistId`]),
//!    all plain `AtomicU64`s, so the enabled hot path is one relaxed
//!    atomic RMW with no lock and no allocation. Like tracing, a registry
//!    is *installed per thread* ([`install_metrics`]) and every probe
//!    funnels through [`counter_add`] / [`observe_us`]; when nothing is
//!    installed the probes cost one thread-local flag read and a branch —
//!    the same 0-allocation disabled-path contract the counting-allocator
//!    test pins for tracing, pinned for metrics by its own test binary.
//! 2. **Collector** — samples a registry into fixed-capacity per-metric
//!    ring buffers ([`Series`]), turning lifetime totals into
//!    rate-over-time and percentile-over-time data. Histogram quantiles
//!    are *windowed*: each sample diffs the cumulative buckets against the
//!    previous sample and computes p50/p90/p99 of just that window. The
//!    scheduler hosts one collector and samples it on its watchdog tick.
//! 3. **Exposition** — [`render_prometheus`] renders [`PromMetric`] rows
//!    as Prometheus text (`# HELP` / `# TYPE` plus samples, label values
//!    escaped per the exposition format), hand-rolled in the same
//!    std-only spirit as the JSON module; [`prom_from_registry`] covers
//!    the whole registry, and callers append extra rows (per-shard cache
//!    occupancy, the slow-obligation table) before rendering.
//!
//! Phase timing rides the existing [`span`](crate::span) probes: when
//! metrics are installed, every completed span also adds its duration to a
//! per-thread per-[`Phase`] accumulator, which the harness drains once per
//! attempt ([`take_phase_totals`]) to build the slow-obligation profile —
//! so the Lower/Blast/CDCL breakdown needs no second set of probes.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Phase;
use crate::histogram::Histogram;
use crate::json::{self, Json};

// ---------------------------------------------------------------------------
// Metric vocabulary
// ---------------------------------------------------------------------------

/// Declares one metric vocabulary from a single list: the enum (each
/// variant documented by its HELP text), `ALL` in exposition order, and the
/// `name`/`help` lookups.
macro_rules! metric_ids {
    ($(#[$meta:meta])* $ty:ident { $($variant:ident $name:literal $help:literal,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty {
            $(#[doc = $help] $variant,)*
        }

        impl $ty {
            /// Every id, in exposition order.
            pub const ALL: [$ty; [$(stringify!($variant)),*].len()] = [$($ty::$variant),*];

            /// Stable exposition name.
            pub fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => $name,)*
                }
            }

            /// One-line `# HELP` text.
            pub fn help(self) -> &'static str {
                match self {
                    $($ty::$variant => $help,)*
                }
            }
        }
    };
}

metric_ids! {
    /// Monotonic counters. Names follow the Prometheus `*_total` convention.
    CounterId {
        Requests "keq_requests_total" "Validation submissions admitted by the scheduler",
        Completed "keq_requests_completed_total" "Submissions finalized",
        RejectedQueueFull "keq_rejected_queue_full_total" "Submissions rejected: queue full",
        RejectedQuota "keq_rejected_quota_total" "Submissions rejected: client quota",
        RejectedDraining "keq_rejected_draining_total" "Submissions rejected: draining",
        Disconnects "keq_disconnects_total" "Finalized submissions whose reply channel was gone",
        Attempts "keq_attempts_total" "Validation attempts started (retries included)",
        Retries "keq_retries_total" "Attempts beyond the first for their submission",
        CdclConflicts "keq_cdcl_conflicts_total" "CDCL conflicts",
        CdclRestarts "keq_cdcl_restarts_total" "CDCL restarts",
        SolverQueries "keq_solver_queries_total" "Solver queries issued",
        ObligationCacheHits "keq_obcache_hits_total" "Shared obligation-cache hits",
        ObligationCacheMisses "keq_obcache_misses_total" "Shared obligation-cache misses",
        ObligationCacheStores "keq_obcache_stores_total"
            "Verdicts stored into the obligation cache",
        JournalAppends "keq_journal_appends_total" "Verdict-journal records appended",
        JournalAppendFailures "keq_journal_append_failures_total"
            "Verdict-journal appends that failed",
        StoreFlushes "keq_store_flushes_total" "Obligation-store flushes that succeeded",
        StoreFlushFailures "keq_store_flush_failures_total" "Obligation-store flushes that failed",
        SyncPoints "keq_check_sync_points_total" "Startable synchronization points checked",
        Obligations "keq_check_obligations_total" "Proof obligations discharged or refuted",
        RewriteConstFold "keq_rewrite_const_fold_total" "Rewrite rules fired: constant folding",
        RewriteAlgebraic "keq_rewrite_algebraic_total" "Rewrite rules fired: algebraic laws",
        RewriteCancel "keq_rewrite_cancel_total" "Rewrite rules fired: cancellation",
        RewriteWidth "keq_rewrite_width_total" "Rewrite rules fired: width collapsing",
        RewriteMemory "keq_rewrite_memory_total" "Rewrite rules fired: store collapsing",
        RewriteIte "keq_rewrite_ite_total" "Rewrite rules fired: ite simplification",
        RewritePasses "keq_rewrite_passes_total" "Obligation normalization passes run",
        RewriteNodesSaved "keq_rewrite_nodes_saved_total"
            "Term-DAG nodes eliminated by normalization",
        LbdKept "keq_sat_lbd_kept_total" "Learnt clauses kept through DB reduction for glue",
    }
}

metric_ids! {
    /// Point-in-time gauges.
    GaugeId {
        QueueDepth "keq_queue_depth" "Admitted-but-unfinished submissions",
        WorkersBusy "keq_workers_busy" "Workers currently running an attempt",
        WorkersIdle "keq_workers_idle" "Workers currently idle",
        StoreDegraded "keq_store_degraded" "1 when store persistence degraded to memory-only",
        ObcacheEntries "keq_obcache_entries" "Live shared obligation-cache entries",
        ObcacheBytes "keq_obcache_bytes" "Approximate shared obligation-cache bytes",
    }
}

metric_ids! {
    /// Log-bucketed histograms (same powers-of-4 µs buckets as
    /// [`Histogram::log_us`], so registry snapshots merge with the rest of the
    /// pipeline's latency accounting).
    HistId {
        RequestLatencyUs "keq_request_latency_us" "End-to-end request latency in microseconds",
        AttemptWallUs "keq_attempt_wall_us" "Validation attempt wall time in microseconds",
    }
}

// ---------------------------------------------------------------------------
// Atomic histogram
// ---------------------------------------------------------------------------

/// Powers-of-4 µs bucket upper bounds, matching [`Histogram::log_us`].
const BOUNDS: [u64; 13] =
    [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216];
/// Bucket count including the overflow bucket.
const BUCKETS: usize = BOUNDS.len() + 1;

/// A histogram whose buckets are independent atomics, so concurrent
/// workers record without a lock. Bucket shape matches
/// [`Histogram::log_us`] exactly; [`AtomicHistogram::snapshot`] converts
/// back for quantile math and merging.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: [AtomicU64; BUCKETS],
}

impl AtomicHistogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        AtomicHistogram { counts: [const { AtomicU64::new(0) }; BUCKETS] }
    }

    /// Records one observation of `us` microseconds.
    pub fn observe_us(&self, us: u64) {
        let idx = BOUNDS.iter().position(|&b| us <= b).unwrap_or(BUCKETS - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy as the shared [`Histogram`] type.
    pub fn snapshot(&self, label: &'static str) -> Histogram {
        let mut h = Histogram::log_us(label);
        for (i, c) in self.counts.iter().enumerate() {
            h.counts[i] = usize::try_from(c.load(Ordering::Relaxed)).unwrap_or(usize::MAX);
        }
        h
    }

    fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram::new()
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The metric registry: one atomic slot per [`CounterId`] / [`GaugeId`] /
/// [`HistId`]. One registry belongs to one scheduler (never a process
/// global, so parallel tests and back-to-back benches cannot bleed into
/// each other); worker threads reach it through [`install_metrics`], the
/// supervisor and server front end through their `Arc`.
#[derive(Debug)]
pub struct Registry {
    counters: [AtomicU64; CounterId::ALL.len()],
    gauges: [AtomicU64; GaugeId::ALL.len()],
    hists: [AtomicHistogram; HistId::ALL.len()],
}

impl Registry {
    /// A zeroed registry.
    pub fn new() -> Self {
        Registry {
            counters: [const { AtomicU64::new(0) }; CounterId::ALL.len()],
            gauges: [const { AtomicU64::new(0) }; GaugeId::ALL.len()],
            hists: [const { AtomicHistogram::new() }; HistId::ALL.len()],
        }
    }

    /// Adds `n` to a counter.
    pub fn counter_add(&self, id: CounterId, n: u64) {
        if n > 0 {
            self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current counter value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Sets a gauge.
    pub fn gauge_set(&self, id: GaugeId, v: u64) {
        self.gauges[id as usize].store(v, Ordering::Relaxed);
    }

    /// Current gauge value.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Records one histogram observation.
    pub fn observe_us(&self, id: HistId, us: u64) {
        self.hists[id as usize].observe_us(us);
    }

    /// A point-in-time [`Histogram`] copy (labelled with the metric name).
    pub fn histogram(&self, id: HistId) -> Histogram {
        self.hists[id as usize].snapshot(id.name())
    }

    /// Zeroes every metric (a fresh scheduler lifetime).
    pub fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for h in &self.hists {
            h.reset();
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

// ---------------------------------------------------------------------------
// Per-thread installation (mirrors the recorder)
// ---------------------------------------------------------------------------

thread_local! {
    /// Fast-path flag mirroring `M_ACTIVE.is_some()`; the only thing probe
    /// sites touch when metrics are disabled.
    static M_ENABLED: Cell<bool> = const { Cell::new(false) };
    static M_ACTIVE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    /// Per-phase µs accumulated by completed spans since the last
    /// [`take_phase_totals`]; drained once per validation attempt.
    static PHASE_ACC: Cell<[u64; Phase::ALL.len()]> =
        const { Cell::new([0; Phase::ALL.len()]) };
}

/// Installs `registry` as this thread's metric sink, returning a guard
/// that restores the previous state on drop (including across panics, so
/// a crashed worker attempt cannot leak its registry onto the next job).
#[must_use]
pub fn install_metrics(registry: &Arc<Registry>) -> MetricsGuard {
    let prev = M_ACTIVE.with(|a| a.borrow_mut().replace(Arc::clone(registry)));
    let prev_enabled = M_ENABLED.with(|e| e.replace(true));
    MetricsGuard { prev, prev_enabled }
}

/// Restores the previous metric sink on drop.
pub struct MetricsGuard {
    prev: Option<Arc<Registry>>,
    prev_enabled: bool,
}

impl Drop for MetricsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        M_ACTIVE.with(|a| *a.borrow_mut() = prev);
        M_ENABLED.with(|e| e.set(self.prev_enabled));
    }
}

/// Whether a registry is installed on this thread — the ~1-branch
/// disabled-path check every metric probe performs first.
#[inline]
pub fn metrics_enabled() -> bool {
    M_ENABLED.with(Cell::get)
}

/// Adds `n` to `id` on this thread's registry; one flag read when metrics
/// are disabled.
#[inline]
pub fn counter_add(id: CounterId, n: u64) {
    if !metrics_enabled() {
        return;
    }
    counter_add_slow(id, n);
}

#[cold]
fn counter_add_slow(id: CounterId, n: u64) {
    M_ACTIVE.with(|a| {
        if let Some(reg) = a.borrow().as_ref() {
            reg.counter_add(id, n);
        }
    });
}

/// Records a histogram observation on this thread's registry; one flag
/// read when metrics are disabled.
#[inline]
pub fn observe_us(id: HistId, us: u64) {
    if !metrics_enabled() {
        return;
    }
    observe_us_slow(id, us);
}

#[cold]
fn observe_us_slow(id: HistId, us: u64) {
    M_ACTIVE.with(|a| {
        if let Some(reg) = a.borrow().as_ref() {
            reg.observe_us(id, us);
        }
    });
}

/// Whether spans should read the clock for the per-phase accumulator even
/// without a trace recorder installed.
#[inline]
pub(crate) fn phase_timing_enabled() -> bool {
    metrics_enabled()
}

/// Adds a completed span's duration to this thread's per-phase
/// accumulator. Called by the span guard, never directly.
pub(crate) fn record_phase(phase: Phase, dur_us: u64) {
    PHASE_ACC.with(|c| {
        let mut acc = c.get();
        acc[phase as usize] = acc[phase as usize].saturating_add(dur_us);
        c.set(acc);
    });
}

/// Drains this thread's per-phase µs accumulator (one slot per
/// [`Phase::ALL`] entry, indexed by discriminant). The harness calls this
/// around each validation attempt to attribute phase time to it.
pub fn take_phase_totals() -> [u64; Phase::ALL.len()] {
    PHASE_ACC.with(|c| c.replace([0; Phase::ALL.len()]))
}

// ---------------------------------------------------------------------------
// Time-series collector
// ---------------------------------------------------------------------------

/// A fixed-capacity time series: `(t_ms, value)` points, oldest dropped
/// beyond capacity.
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    cap: usize,
    points: VecDeque<(u64, f64)>,
}

impl Series {
    /// An empty series holding at most `cap` points.
    pub fn new(name: impl Into<String>, cap: usize) -> Self {
        Series { name: name.into(), cap: cap.max(2), points: VecDeque::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point, dropping the oldest beyond capacity.
    pub fn push(&mut self, t_ms: u64, value: f64) {
        if self.points.len() == self.cap {
            self.points.pop_front();
        }
        self.points.push_back((t_ms, value));
    }

    /// The retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.points.iter().copied()
    }

    /// The most recent point.
    pub fn latest(&self) -> Option<(u64, f64)> {
        self.points.back().copied()
    }

    /// `{"name": ..., "points": [[t_ms, v], ...]}`.
    pub fn to_json(&self) -> Json {
        json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            (
                "points",
                Json::Arr(
                    self.points
                        .iter()
                        .map(|&(t, v)| Json::Arr(vec![json::num(t), Json::Num(v)]))
                        .collect(),
                ),
            ),
        ])
    }

    /// Average per-second rate of a cumulative series over the trailing
    /// `window_ms` (clamped to the points actually retained).
    pub fn rate_per_sec(&self, window_ms: u64) -> f64 {
        let Some(&(t1, v1)) = self.points.back() else { return 0.0 };
        let cutoff = t1.saturating_sub(window_ms);
        let Some(&(t0, v0)) =
            self.points.iter().find(|&&(t, _)| t >= cutoff).filter(|&&(t, _)| t < t1)
        else {
            return 0.0;
        };
        (v1 - v0).max(0.0) * 1000.0 / (t1 - t0) as f64
    }
}

/// Samples a [`Registry`] into per-metric ring buffers: cumulative series
/// for counters, instantaneous for gauges, and *windowed* p50/p90/p99
/// series per histogram (quantiles of the observations between two
/// consecutive samples; an empty window carries the previous value
/// forward so the series never gaps).
#[derive(Debug)]
pub struct Collector {
    samples: u64,
    counter_series: Vec<Series>,
    gauge_series: Vec<Series>,
    quantile_series: Vec<[Series; 3]>,
    last_hist: Vec<Histogram>,
    last_quantiles: Vec<[f64; 3]>,
}

/// The quantile suffixes of a histogram's derived series, in
/// [`Collector::quantiles`] order.
pub const QUANTILE_SUFFIXES: [&str; 3] = ["p50", "p90", "p99"];

impl Collector {
    /// A collector retaining `cap` points per series.
    pub fn new(cap: usize) -> Self {
        Collector {
            samples: 0,
            counter_series: CounterId::ALL.iter().map(|c| Series::new(c.name(), cap)).collect(),
            gauge_series: GaugeId::ALL.iter().map(|g| Series::new(g.name(), cap)).collect(),
            quantile_series: HistId::ALL
                .iter()
                .map(|h| QUANTILE_SUFFIXES.map(|q| Series::new(format!("{}_{q}", h.name()), cap)))
                .collect(),
            last_hist: HistId::ALL.iter().map(|h| Histogram::log_us(h.name())).collect(),
            last_quantiles: vec![[0.0; 3]; HistId::ALL.len()],
        }
    }

    /// Takes one sample of `reg` at `t_ms` (milliseconds since the
    /// collector's owner started).
    pub fn sample(&mut self, reg: &Registry, t_ms: u64) {
        self.samples += 1;
        for (i, id) in CounterId::ALL.iter().enumerate() {
            self.counter_series[i].push(t_ms, reg.counter(*id) as f64);
        }
        for (i, id) in GaugeId::ALL.iter().enumerate() {
            self.gauge_series[i].push(t_ms, reg.gauge(*id) as f64);
        }
        for (i, id) in HistId::ALL.iter().enumerate() {
            let cur = reg.histogram(*id);
            let mut window = cur.clone();
            for (w, prev) in window.counts.iter_mut().zip(&self.last_hist[i].counts) {
                *w = w.saturating_sub(*prev);
            }
            if window.total() > 0 {
                self.last_quantiles[i] = [
                    window.p50().unwrap_or(0.0),
                    window.p90().unwrap_or(0.0),
                    window.p99().unwrap_or(0.0),
                ];
            }
            let qs = self.last_quantiles[i];
            for (s, q) in self.quantile_series[i].iter_mut().zip(qs) {
                s.push(t_ms, q);
            }
            self.last_hist[i] = cur;
        }
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The cumulative series of one counter.
    pub fn counter(&self, id: CounterId) -> &Series {
        &self.counter_series[id as usize]
    }

    /// The series of one gauge.
    pub fn gauge(&self, id: GaugeId) -> &Series {
        &self.gauge_series[id as usize]
    }

    /// The windowed `[p50, p90, p99]` series of one histogram.
    pub fn quantiles(&self, id: HistId) -> &[Series; 3] {
        &self.quantile_series[id as usize]
    }

    /// Every series, for exposition.
    pub fn all_series(&self) -> impl Iterator<Item = &Series> {
        self.counter_series
            .iter()
            .chain(&self.gauge_series)
            .chain(self.quantile_series.iter().flatten())
    }

    /// The full series set as a JSON array.
    pub fn to_json(&self) -> Json {
        Json::Arr(self.all_series().map(Series::to_json).collect())
    }
}

// ---------------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------------

/// Prometheus metric type for the `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromKind {
    /// Monotonic counter.
    Counter,
    /// Point-in-time gauge.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

impl PromKind {
    fn name(self) -> &'static str {
        match self {
            PromKind::Counter => "counter",
            PromKind::Gauge => "gauge",
            PromKind::Histogram => "histogram",
        }
    }
}

/// One sample line of a [`PromMetric`]: rendered as
/// `name<suffix>{labels} value`.
#[derive(Debug, Clone)]
pub struct PromSample {
    /// Appended to the metric name (`"_bucket"`, `"_count"`, or `""`).
    pub suffix: &'static str,
    /// Label pairs; values are escaped by the renderer.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl PromSample {
    /// An unlabelled plain sample.
    pub fn plain(value: f64) -> Self {
        PromSample { suffix: "", labels: Vec::new(), value }
    }
}

/// One metric family: a `# HELP` line, a `# TYPE` line, and its samples.
#[derive(Debug, Clone)]
pub struct PromMetric {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Help text; the renderer escapes backslashes and newlines.
    pub help: String,
    /// Metric type.
    pub kind: PromKind,
    /// Sample lines.
    pub samples: Vec<PromSample>,
}

/// Escapes a `# HELP` payload (`\` and newline, per the exposition
/// format).
fn escape_help(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes a label value (`\`, `"`, and newline).
fn escape_label_value(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn write_prom_value(v: f64, out: &mut String) {
    if v.is_infinite() {
        out.push_str(if v > 0.0 { "+Inf" } else { "-Inf" });
    } else if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders metric families as Prometheus text exposition format. Output is
/// deterministic in the input order, so the golden test can pin it byte
/// for byte.
pub fn render_prometheus(metrics: &[PromMetric]) -> String {
    let mut out = String::new();
    for m in metrics {
        out.push_str("# HELP ");
        out.push_str(&m.name);
        out.push(' ');
        escape_help(&m.help, &mut out);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&m.name);
        out.push(' ');
        out.push_str(m.kind.name());
        out.push('\n');
        for s in &m.samples {
            out.push_str(&m.name);
            out.push_str(s.suffix);
            if !s.labels.is_empty() {
                out.push('{');
                for (i, (k, v)) in s.labels.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(k);
                    out.push_str("=\"");
                    escape_label_value(v, &mut out);
                    out.push('"');
                }
                out.push('}');
            }
            out.push(' ');
            write_prom_value(s.value, &mut out);
            out.push('\n');
        }
    }
    out
}

/// A histogram as one Prometheus family: cumulative `_bucket{le=...}`
/// samples (including `le="+Inf"`) plus `_count`.
pub fn prom_histogram(name: &str, help: &str, hist: &Histogram) -> PromMetric {
    let mut samples = Vec::with_capacity(hist.bounds.len() + 2);
    let mut running = 0u64;
    for (i, bound) in hist.bounds.iter().enumerate() {
        running += hist.counts.get(i).copied().unwrap_or(0) as u64;
        let mut le = String::new();
        write_prom_value(*bound, &mut le);
        samples.push(PromSample {
            suffix: "_bucket",
            labels: vec![("le".to_string(), le)],
            value: running as f64,
        });
    }
    let total = hist.total() as u64;
    samples.push(PromSample {
        suffix: "_bucket",
        labels: vec![("le".to_string(), "+Inf".to_string())],
        value: total as f64,
    });
    samples.push(PromSample { suffix: "_count", labels: Vec::new(), value: total as f64 });
    PromMetric {
        name: name.to_string(),
        help: help.to_string(),
        kind: PromKind::Histogram,
        samples,
    }
}

/// The whole registry as Prometheus families, in vocabulary order.
pub fn prom_from_registry(reg: &Registry) -> Vec<PromMetric> {
    let mut out = Vec::with_capacity(CounterId::ALL.len() + GaugeId::ALL.len() + 2);
    for id in CounterId::ALL {
        out.push(PromMetric {
            name: id.name().to_string(),
            help: id.help().to_string(),
            kind: PromKind::Counter,
            samples: vec![PromSample::plain(reg.counter(id) as f64)],
        });
    }
    for id in GaugeId::ALL {
        out.push(PromMetric {
            name: id.name().to_string(),
            help: id.help().to_string(),
            kind: PromKind::Gauge,
            samples: vec![PromSample::plain(reg.gauge(id) as f64)],
        });
    }
    for id in HistId::ALL {
        out.push(prom_histogram(id.name(), id.help(), &reg.histogram(id)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_buckets_match_histogram_add() {
        let ah = AtomicHistogram::new();
        let mut h = Histogram::log_us("ref");
        for us in [0u64, 1, 2, 4, 5, 100, 1_000, 70_000, 20_000_000] {
            ah.observe_us(us);
            h.add(us as f64);
        }
        let snap = ah.snapshot("snap");
        assert_eq!(snap.counts, h.counts, "atomic buckets must mirror Histogram::add");
        assert_eq!(snap.p50(), h.p50());
        assert_eq!(snap.p99(), h.p99());
    }

    #[test]
    fn registry_counts_and_resets() {
        let reg = Registry::new();
        reg.counter_add(CounterId::Requests, 3);
        reg.counter_add(CounterId::Requests, 2);
        reg.gauge_set(GaugeId::QueueDepth, 7);
        reg.observe_us(HistId::RequestLatencyUs, 500);
        assert_eq!(reg.counter(CounterId::Requests), 5);
        assert_eq!(reg.gauge(GaugeId::QueueDepth), 7);
        assert_eq!(reg.histogram(HistId::RequestLatencyUs).total(), 1);
        reg.reset();
        assert_eq!(reg.counter(CounterId::Requests), 0);
        assert_eq!(reg.gauge(GaugeId::QueueDepth), 0);
        assert_eq!(reg.histogram(HistId::RequestLatencyUs).total(), 0);
    }

    #[test]
    fn disabled_probes_do_nothing_and_guard_restores() {
        assert!(!metrics_enabled());
        counter_add(CounterId::Requests, 1);
        observe_us(HistId::RequestLatencyUs, 10);
        let reg = Arc::new(Registry::new());
        {
            let _g = install_metrics(&reg);
            assert!(metrics_enabled());
            counter_add(CounterId::Requests, 2);
            observe_us(HistId::RequestLatencyUs, 10);
        }
        assert!(!metrics_enabled(), "guard must disable metrics again");
        counter_add(CounterId::Requests, 100);
        assert_eq!(reg.counter(CounterId::Requests), 2);
        assert_eq!(reg.histogram(HistId::RequestLatencyUs).total(), 1);
    }

    #[test]
    fn phase_accumulator_drains_per_attempt() {
        let reg = Arc::new(Registry::new());
        let _g = install_metrics(&reg);
        let _ = take_phase_totals();
        record_phase(Phase::Cdcl, 40);
        record_phase(Phase::Cdcl, 2);
        record_phase(Phase::Lower, 7);
        let totals = take_phase_totals();
        assert_eq!(totals[Phase::Cdcl as usize], 42);
        assert_eq!(totals[Phase::Lower as usize], 7);
        assert!(take_phase_totals().iter().all(|&v| v == 0), "drained");
    }

    #[test]
    fn series_ring_drops_oldest_and_rates() {
        let mut s = Series::new("keq_requests_total", 3);
        for (t, v) in [(0u64, 0.0), (1000, 10.0), (2000, 20.0), (3000, 40.0)] {
            s.push(t, v);
        }
        let pts: Vec<_> = s.points().collect();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0], (1000, 10.0));
        // 30 requests over the 2 retained seconds.
        assert!((s.rate_per_sec(10_000) - 15.0).abs() < 1e-9);
        // Trailing 1s window: 20 req/s.
        assert!((s.rate_per_sec(1_000) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn collector_windows_quantiles_and_carries_empty_windows() {
        let reg = Registry::new();
        let mut col = Collector::new(16);
        for _ in 0..100 {
            reg.observe_us(HistId::RequestLatencyUs, 100);
        }
        col.sample(&reg, 0);
        let p50 = col.quantiles(HistId::RequestLatencyUs)[0].latest().unwrap().1;
        assert!(p50 > 0.0, "first window has observations");
        // Second window: much slower observations dominate the *window*
        // quantile even though the lifetime histogram is mostly fast.
        for _ in 0..10 {
            reg.observe_us(HistId::RequestLatencyUs, 1_000_000);
        }
        col.sample(&reg, 250);
        let p50_slow = col.quantiles(HistId::RequestLatencyUs)[0].latest().unwrap().1;
        assert!(
            p50_slow > 100_000.0,
            "windowed p50 must reflect only the new observations, got {p50_slow}"
        );
        // Empty window: carry the previous value, never gap to zero.
        col.sample(&reg, 500);
        let p50_carry = col.quantiles(HistId::RequestLatencyUs)[0].latest().unwrap().1;
        assert_eq!(p50_carry, p50_slow);
        assert_eq!(col.samples(), 3);
    }

    #[test]
    fn prometheus_rendering_escapes_and_shapes() {
        let mut h = Histogram::log_us("lat");
        h.add(3.0);
        h.add(1e9);
        let metrics = vec![
            PromMetric {
                name: "keq_requests_total".to_string(),
                help: "Back\\slash and\nnewline".to_string(),
                kind: PromKind::Counter,
                samples: vec![PromSample::plain(42.0)],
            },
            PromMetric {
                name: "keq_slow_obligation_wall_us".to_string(),
                help: "slow table".to_string(),
                kind: PromKind::Gauge,
                samples: vec![PromSample {
                    suffix: "",
                    labels: vec![
                        ("fp".to_string(), "0xdead".to_string()),
                        ("result".to_string(), "quote\" back\\ nl\n".to_string()),
                    ],
                    value: 1.5,
                }],
            },
            prom_histogram("keq_request_latency_us", "lat", &h),
        ];
        let text = render_prometheus(&metrics);
        assert!(text.contains("# HELP keq_requests_total Back\\\\slash and\\nnewline\n"));
        assert!(text.contains("# TYPE keq_requests_total counter\n"));
        assert!(text.contains("keq_requests_total 42\n"));
        assert!(text.contains(
            "keq_slow_obligation_wall_us{fp=\"0xdead\",result=\"quote\\\" back\\\\ nl\\n\"} 1.5\n"
        ));
        assert!(text.contains("keq_request_latency_us_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("keq_request_latency_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("keq_request_latency_us_count 2\n"));
        // Every non-comment line is `name{...} value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!name.is_empty());
            assert!(value == "+Inf" || value.parse::<f64>().is_ok(), "bad value {value:?}");
        }
    }

    #[test]
    fn registry_exposition_covers_the_whole_vocabulary() {
        let reg = Registry::new();
        reg.counter_add(CounterId::CdclRestarts, 9);
        let text = render_prometheus(&prom_from_registry(&reg));
        for id in CounterId::ALL {
            assert!(text.contains(id.name()), "missing counter {}", id.name());
        }
        for id in GaugeId::ALL {
            assert!(text.contains(id.name()), "missing gauge {}", id.name());
        }
        for id in HistId::ALL {
            assert!(text.contains(&format!("{}_count", id.name())), "missing {}", id.name());
        }
        assert!(text.contains("keq_cdcl_restarts_total 9\n"));
    }
}
