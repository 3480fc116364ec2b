//! The `keq-server` daemon: a long-lived validation service over one
//! resident scheduler, so the shared obligation cache, warm-start
//! contexts, and write-ahead journal amortize across requests instead of
//! being rebuilt per corpus.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example keq_serve -- [--addr 127.0.0.1:7411] \
//!     [--workers N] [--deadline-ms MS] [--queue-depth N] [--max-inflight N] \
//!     [--cache obligations.keqcache] [--journal server.keqwal] [--resume] \
//!     [--trace-jsonl trace.jsonl] [--metrics] [--metrics-interval-ms MS]
//! ```
//!
//! `--addr` also accepts `unix:/path/to.sock` on Unix. Port 0 picks a free
//! port; the daemon always prints one `listening on ADDR` line first, so a
//! wrapper script can discover the resolved address. `--queue-depth`
//! bounds the whole daemon's accepted-but-unfinished submissions (excess
//! requests are rejected with `queue_full`, never queued without bound);
//! `--max-inflight` bounds one connection. Stop it by sending the
//! `shutdown` op (`keq_client --shutdown`): the daemon drains every
//! admitted submission, flushes the store, and prints its lifetime
//! summary. The wire protocol is length-framed JSON — see
//! `keq_harness::protocol` and DESIGN.md.
//!
//! The daemon is pass-parametric per request: each `validate` op names
//! the validated pass (`"pass": "isel" | "regalloc" | "gvn"`, absent →
//! `isel`), so one resident scheduler serves all three instantiations —
//! `keq_client --pass gvn` drives it from the bundled load generator.
//!
//! `--metrics` turns on the live telemetry registry: the `metrics` op then
//! serves sampled time series, the slow-obligation table, and a Prometheus
//! rendering (watch it live with the `keq_top` example).

use std::sync::Arc;
use std::time::Duration;

use keq_repro::harness::{
    ClientQuota, HarnessOptions, MetricsConfig, RetryPolicy, Server, ServerOptions,
};
use keq_repro::smt::Budget;
use keq_repro::trace::{JsonlSink, TraceSink};

struct Cli {
    addr: String,
    workers: usize,
    deadline_ms: Option<u64>,
    queue_depth: usize,
    max_inflight: usize,
    cache: Option<String>,
    journal: Option<String>,
    resume: bool,
    trace_jsonl: Option<String>,
    metrics: bool,
    metrics_interval_ms: Option<u64>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        addr: "127.0.0.1:7411".to_string(),
        workers: 0,
        deadline_ms: None,
        queue_depth: 0,
        max_inflight: 0,
        cache: None,
        journal: None,
        resume: false,
        trace_jsonl: None,
        metrics: false,
        metrics_interval_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cli.addr = args.next().expect("--addr <addr>"),
            "--workers" => {
                cli.workers = args.next().and_then(|s| s.parse().ok()).expect("--workers <n>");
            }
            "--deadline-ms" => {
                cli.deadline_ms =
                    Some(args.next().and_then(|s| s.parse().ok()).expect("--deadline-ms <ms>"));
            }
            "--queue-depth" => {
                cli.queue_depth =
                    args.next().and_then(|s| s.parse().ok()).expect("--queue-depth <n>");
            }
            "--max-inflight" => {
                cli.max_inflight =
                    args.next().and_then(|s| s.parse().ok()).expect("--max-inflight <n>");
            }
            "--cache" => cli.cache = Some(args.next().expect("--cache <path>")),
            "--journal" => cli.journal = Some(args.next().expect("--journal <path>")),
            "--resume" => cli.resume = true,
            "--trace-jsonl" => {
                cli.trace_jsonl = Some(args.next().expect("--trace-jsonl <path>"));
            }
            "--metrics" => cli.metrics = true,
            "--metrics-interval-ms" => {
                cli.metrics_interval_ms = Some(
                    args.next().and_then(|s| s.parse().ok()).expect("--metrics-interval-ms <ms>"),
                );
            }
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: keq_serve [--addr A] [--workers N] \
                     [--deadline-ms MS] [--queue-depth N] [--max-inflight N] [--cache PATH] \
                     [--journal PATH] [--resume] [--trace-jsonl PATH] [--metrics] \
                     [--metrics-interval-ms MS]"
                );
                std::process::exit(2);
            }
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let trace = cli.trace_jsonl.as_ref().map(|path| {
        let file = std::fs::File::create(path).expect("create --trace-jsonl file");
        TraceSink::from(Arc::new(JsonlSink::new(file)))
    });
    let opts = ServerOptions {
        harness: HarnessOptions {
            keq: keq_repro::core::KeqOptions {
                time_limit: Some(Duration::from_secs(20)),
                solver_budget: Budget {
                    max_conflicts: 500_000,
                    max_terms: 2_000_000,
                    max_time: Some(Duration::from_secs(5)),
                },
                ..keq_repro::core::KeqOptions::default()
            },
            workers: cli.workers,
            deadline: cli.deadline_ms.map(Duration::from_millis),
            retry: RetryPolicy { max_attempts: 2, ..RetryPolicy::default() },
            trace,
            cache_path: cli.cache.as_ref().map(std::path::PathBuf::from),
            journal_path: cli.journal.as_ref().map(std::path::PathBuf::from),
            resume: cli.resume,
            metrics: {
                let mut m = MetricsConfig { enabled: cli.metrics, ..MetricsConfig::default() };
                if let Some(ms) = cli.metrics_interval_ms {
                    m.sample_interval = Duration::from_millis(ms.max(1));
                }
                m
            },
            ..HarnessOptions::default()
        },
        queue_depth: cli.queue_depth,
        quota: ClientQuota {
            max_inflight: cli.max_inflight,
            max_deadline: Some(Duration::from_secs(60)),
        },
    };

    let server = Server::bind(&cli.addr, &opts).expect("bind server address");
    println!("listening on {}", server.local_addr());
    let summary = server.run();

    let s = &summary.fin.server;
    println!(
        "keq-server drained: {} connections, {} requests ({} completed, {} disconnected), \
         rejected {} queue-full / {} quota / {} draining",
        summary.connections,
        s.requests,
        s.completed,
        s.disconnects,
        s.rejected_queue_full,
        s.rejected_quota,
        s.rejected_draining,
    );
    let p50 = summary.fin.latency.p50().unwrap_or(0.0);
    let p90 = summary.fin.latency.p90().unwrap_or(0.0);
    let p99 = summary.fin.latency.p99().unwrap_or(0.0);
    println!("request latency: p50 {:.0}µs p90 {:.0}µs p99 {:.0}µs", p50, p90, p99);
    let c = &summary.fin.cache;
    println!(
        "obligation store: {} entries, loaded {}, persisted {} ({} flushes{})",
        c.entries,
        c.disk_loaded,
        c.disk_persisted,
        c.flushes,
        if c.degraded { ", DEGRADED" } else { "" },
    );
}
