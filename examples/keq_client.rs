//! Load-generating client for the `keq_serve` daemon: generates the same
//! seeded corpus the batch harness validates, streams each function to the
//! server as one `validate` request, and tallies the verdicts.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example keq_client -- [N] [--addr 127.0.0.1:7411] \
//!     [--seed S] [--pass isel|regalloc|gvn] [--repeat R] [--conns C] \
//!     [--stats] [--shutdown]
//! ```
//!
//! Each request wraps one corpus function in a module that carries the
//! corpus globals and external declarations, with `unit` set to the
//! function's corpus index — so the server's fault plan lands
//! on the same logical units a batch run of the same seed would hit, and a
//! batch-vs-server differential comparison is meaningful. `--repeat`
//! streams the corpus again (the second pass should ride the server's
//! resident obligation cache), `--conns` splits the stream over parallel
//! connections, `--stats` prints the server's live counters afterwards,
//! and `--shutdown` asks the daemon to drain and exit.

use keq_repro::harness::protocol::{ClientRequest, ServerResponse};
use keq_repro::harness::{connect, ClientConn};
use keq_repro::llvm::ast::Module;
use keq_repro::workload::{generate_corpus, GenConfig};

use keq_repro::isel::PassId;

struct Cli {
    addr: String,
    n: usize,
    seed: u64,
    pass: PassId,
    repeat: usize,
    conns: usize,
    stats: bool,
    shutdown: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        addr: "127.0.0.1:7411".to_string(),
        n: 20,
        seed: 2021,
        pass: PassId::Isel,
        repeat: 1,
        conns: 1,
        stats: false,
        shutdown: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cli.addr = args.next().expect("--addr <addr>"),
            "--seed" => {
                cli.seed = args.next().and_then(|s| s.parse().ok()).expect("--seed <u64>");
            }
            "--pass" => {
                cli.pass = args
                    .next()
                    .as_deref()
                    .and_then(PassId::parse)
                    .expect("--pass isel|regalloc|gvn");
            }
            "--repeat" => {
                cli.repeat = args.next().and_then(|s| s.parse().ok()).expect("--repeat <n>");
            }
            "--conns" => {
                cli.conns = args.next().and_then(|s| s.parse().ok()).expect("--conns <n>");
            }
            "--stats" => cli.stats = true,
            "--shutdown" => cli.shutdown = true,
            other => match other.parse() {
                Ok(n) => cli.n = n,
                Err(_) => {
                    eprintln!(
                        "usage: keq_client [N] [--addr A] [--seed S] [--pass P] [--repeat R] \
                         [--conns C] [--stats] [--shutdown]"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    cli
}

/// Corpus function `i` as a self-contained request payload: the function
/// plus the corpus globals/declarations it may reference.
fn request_ir(corpus: &Module, i: usize) -> String {
    Module {
        globals: corpus.globals.clone(),
        functions: vec![corpus.functions[i].clone()],
        declarations: corpus.declarations.clone(),
    }
    .to_string()
}

struct Tally {
    results: std::collections::BTreeMap<String, u64>,
    rejected: u64,
    errors: u64,
    latency: keq_repro::trace::Histogram,
}

fn stream_requests(
    addr: &str,
    corpus: &Module,
    units: &[usize],
    pass: PassId,
    repeat: usize,
) -> Tally {
    let mut conn = connect(addr).expect("connect to keq-server");
    let mut tally = Tally {
        results: std::collections::BTreeMap::new(),
        rejected: 0,
        errors: 0,
        latency: keq_repro::trace::Histogram::log_us("request wall time (µs)"),
    };
    for round in 0..repeat {
        for &i in units {
            let req = ClientRequest::Validate {
                tag: (round * corpus.functions.len() + i) as u64,
                unit: i as u64,
                pass,
                ir: request_ir(corpus, i),
                deadline_ms: None,
                max_attempts: None,
            };
            match conn.roundtrip(&req).expect("validate round trip") {
                ServerResponse::Validated { results, .. } => {
                    for v in results {
                        *tally.results.entry(v.result).or_insert(0) += 1;
                        tally.latency.add(v.wall_us as f64);
                    }
                }
                ServerResponse::RejectedRequest { .. } => tally.rejected += 1,
                ServerResponse::Error { detail } => {
                    eprintln!("server error: {detail}");
                    tally.errors += 1;
                }
                other => {
                    eprintln!("unexpected response: {other:?}");
                    tally.errors += 1;
                }
            }
        }
    }
    tally
}

fn main() {
    let cli = parse_cli();
    let corpus = generate_corpus(GenConfig { seed: cli.seed, ..GenConfig::default() }, cli.n);

    println!(
        "streaming {} functions x{} (pass {}) to {} over {} connection(s) (seed {})...",
        cli.n, cli.repeat, cli.pass, cli.addr, cli.conns, cli.seed
    );
    let conns = cli.conns.max(1).min(cli.n.max(1));
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let corpus = &corpus;
        let addr = cli.addr.as_str();
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                // Round-robin split keeps every connection's unit stream
                // deterministic in (seed, conns).
                let units: Vec<usize> = (0..cli.n).filter(|i| i % conns == c).collect();
                scope.spawn(move || stream_requests(addr, corpus, &units, cli.pass, cli.repeat))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client connection thread")).collect()
    });

    let mut results: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut rejected = 0u64;
    let mut errors = 0u64;
    let mut latency = keq_repro::trace::Histogram::log_us("request wall time (µs)");
    for t in tallies {
        for (k, v) in t.results {
            *results.entry(k).or_insert(0) += v;
        }
        rejected += t.rejected;
        errors += t.errors;
        latency.merge(&t.latency);
    }
    for (kind, count) in &results {
        println!("  {kind:<12} {count}");
    }
    println!(
        "done: {} verdicts, {} rejected, {} errors; client wall p50 {:.0}µs p90 {:.0}µs \
         p99 {:.0}µs",
        results.values().sum::<u64>(),
        rejected,
        errors,
        latency.p50().unwrap_or(0.0),
        latency.p90().unwrap_or(0.0),
        latency.p99().unwrap_or(0.0),
    );

    let mut conn: ClientConn = connect(&cli.addr).expect("connect to keq-server");
    // The server-observed view of the same load, printed beside the
    // client-observed line above: submit→verdict latency excludes the
    // network/framing overhead the client tally includes, and the hit
    // ratio shows how much of the stream rode the resident cache.
    match conn.roundtrip(&ClientRequest::Metrics).expect("metrics round trip") {
        ServerResponse::Metrics(m) => {
            let s = &m.stats;
            let (hits, misses) = (s.solver.obligation_cache_hits, s.solver.obligation_cache_misses);
            let hit_ratio =
                if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
            println!(
                "server wall p50 {}µs p90 {}µs p99 {}µs; obligation-cache hit ratio {:.2} \
                 ({} entries)",
                s.p50_us, s.p90_us, s.p99_us, hit_ratio, s.cache.entries,
            );
        }
        other => eprintln!("unexpected metrics response: {other:?}"),
    }
    if cli.stats {
        match conn.roundtrip(&ClientRequest::Stats).expect("stats round trip") {
            ServerResponse::Stats(s) => {
                println!(
                    "server: {} requests ({} completed, depth {}), rejected {} queue-full / \
                     {} quota / {} draining; cache {} hits / {} misses ({} entries)",
                    s.server.requests,
                    s.server.completed,
                    s.depth,
                    s.server.rejected_queue_full,
                    s.server.rejected_quota,
                    s.server.rejected_draining,
                    s.solver.obligation_cache_hits,
                    s.solver.obligation_cache_misses,
                    s.cache.entries,
                );
            }
            other => eprintln!("unexpected stats response: {other:?}"),
        }
    }
    if cli.shutdown {
        match conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown round trip") {
            ServerResponse::ShuttingDown => println!("server draining"),
            other => eprintln!("unexpected shutdown response: {other:?}"),
        }
    }
}
