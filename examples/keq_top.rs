//! `keq_top`: a live terminal dashboard for a running `keq_serve` daemon.
//!
//! Polls the server's `metrics` op and renders one frame per interval:
//! throughput and queue depth, request-latency quantiles, worker states,
//! obligation-cache hit ratio and shard occupancy, a queue-depth
//! sparkline from the sampled time series, and the slow-obligation table
//! with per-phase breakdowns.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example keq_serve -- --metrics &
//! cargo run --release --example keq_top -- [--addr 127.0.0.1:7411] \
//!     [--interval-ms 1000] [--once]
//! ```
//!
//! `--once` prints a single frame without clearing the screen and exits —
//! what the CI smoke leg and scripts use. `--prom` instead dumps the raw
//! Prometheus text exposition from the same `metrics` op and exits, which
//! is how a scrape collector (or the CI assertion) gets at the wire-format
//! payload without speaking the framed protocol itself. Start the daemon
//! with `--metrics`; without it the dashboard still shows live queue depth
//! and latency quantiles but the series, worker gauges, and slow table
//! stay empty.

use std::time::Duration;

use keq_repro::harness::connect;
use keq_repro::harness::protocol::{ClientRequest, MetricsReport, ServerResponse};
use keq_repro::trace::Json;

struct Cli {
    addr: String,
    interval_ms: u64,
    once: bool,
    prom: bool,
}

fn parse_cli() -> Cli {
    let mut cli =
        Cli { addr: "127.0.0.1:7411".to_string(), interval_ms: 1000, once: false, prom: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cli.addr = args.next().expect("--addr <addr>"),
            "--interval-ms" => {
                cli.interval_ms =
                    args.next().and_then(|s| s.parse().ok()).expect("--interval-ms <ms>");
            }
            "--once" => cli.once = true,
            "--prom" => cli.prom = true,
            other => {
                eprintln!(
                    "unknown flag {other}\nusage: keq_top [--addr A] [--interval-ms MS] \
                     [--once] [--prom]"
                );
                std::process::exit(2);
            }
        }
    }
    cli
}

/// The values of the named time series, oldest first.
fn series_values(series: &Json, name: &str) -> Vec<f64> {
    let Json::Arr(entries) = series else { return Vec::new() };
    for entry in entries {
        if entry.get("name").and_then(Json::as_str) == Some(name) {
            let Some(points) = entry.get("points").and_then(Json::as_arr) else { break };
            return points.iter().filter_map(|p| p.as_arr()?.get(1)?.as_f64()).collect();
        }
    }
    Vec::new()
}

/// A unicode block-character sparkline of the last `width` values.
fn sparkline(values: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let tail = &values[values.len().saturating_sub(width)..];
    if tail.is_empty() {
        return "(no samples yet)".to_string();
    }
    let max = tail.iter().cloned().fold(0.0f64, f64::max);
    tail.iter()
        .map(|&v| {
            if max <= 0.0 {
                BLOCKS[0]
            } else {
                let idx = ((v / max) * (BLOCKS.len() - 1) as f64).round() as usize;
                BLOCKS[idx.min(BLOCKS.len() - 1)]
            }
        })
        .collect()
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn render(addr: &str, m: &MetricsReport) -> String {
    let mut out = String::new();
    let s = &m.stats;
    let (hits, misses) = (s.solver.obligation_cache_hits, s.solver.obligation_cache_misses);
    let lookups = hits + misses;
    let hit_ratio = if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    out.push_str(&format!(
        "keq_top — {addr} — uptime {:.1}s — metrics {} — {} samples\n",
        m.uptime_ms as f64 / 1e3,
        if m.enabled { "ON" } else { "OFF" },
        m.samples,
    ));
    out.push_str(&format!(
        "requests {} ({} done, {} in flight) | {:.1} done/s | workers {} busy / {} idle\n",
        s.server.requests,
        s.server.completed,
        s.depth,
        m.rate_per_sec,
        m.workers_busy,
        m.workers_idle,
    ));
    out.push_str(&format!(
        "latency  p50 {}  p90 {}  p99 {}\n",
        fmt_us(s.p50_us),
        fmt_us(s.p90_us),
        fmt_us(s.p99_us),
    ));
    let occupied = m.shard_entries.iter().filter(|&&e| e > 0).count();
    out.push_str(&format!(
        "obcache  {} lookups, hit ratio {:.2}, {} entries over {}/{} shards\n",
        lookups,
        hit_ratio,
        s.cache.entries,
        occupied,
        m.shard_entries.len(),
    ));
    out.push_str(&format!(
        "queue    {}\n",
        sparkline(&series_values(&m.series, "keq_queue_depth"), 60),
    ));
    out.push('\n');
    if m.slow.is_empty() {
        out.push_str("slowest obligations: (none yet)\n");
        return out;
    }
    out.push_str("slowest obligations (by wall time)\n");
    out.push_str(&format!(
        "  {:<16} {:<20} {:<11} {:>9} {:>4}  phases\n",
        "FINGERPRINT", "LABEL", "RESULT", "WALL", "ATT"
    ));
    for row in &m.slow {
        let mut phases: Vec<_> = row.phase_us.clone();
        phases.sort_by_key(|&(_, us)| std::cmp::Reverse(us));
        let breakdown = phases
            .iter()
            .take(3)
            .map(|(p, us)| format!("{} {}", p.name(), fmt_us(*us)))
            .collect::<Vec<_>>()
            .join(", ");
        let mut label = row.label.clone();
        if label.len() > 20 {
            label.truncate(19);
            label.push('…');
        }
        out.push_str(&format!(
            "  {:<16} {:<20} {:<11} {:>9} {:>4}  {}\n",
            row.fingerprint,
            label,
            row.result,
            fmt_us(row.wall_us),
            row.attempts,
            breakdown,
        ));
    }
    out
}

fn main() {
    let cli = parse_cli();
    let mut conn = connect(&cli.addr).expect("connect to keq-server");
    loop {
        let report = match conn.roundtrip(&ClientRequest::Metrics) {
            Ok(ServerResponse::Metrics(m)) => m,
            Ok(ServerResponse::ShuttingDown) => {
                println!("server draining; exiting");
                return;
            }
            Ok(other) => {
                eprintln!("unexpected response: {other:?}");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("metrics round trip failed: {e}");
                std::process::exit(1);
            }
        };
        if cli.prom {
            print!("{}", report.prometheus);
            return;
        }
        if cli.once {
            print!("{}", render(&cli.addr, &report));
            return;
        }
        // Clear and home between frames, like top(1).
        print!("\x1b[2J\x1b[H{}", render(&cli.addr, &report));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(cli.interval_ms.max(50)));
    }
}
