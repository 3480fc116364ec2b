//! Mini version of the paper's §5.1 experiment: generate a corpus of
//! structured functions, compile each with ISel, and validate every
//! translation, printing per-function results and the Fig. 6-style summary.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example validate_corpus -- [N] [--seed S] \
//!     [--pass isel,regalloc,gvn] [--pressure K] \
//!     [--report RUN_REPORT.json] [--trace-jsonl trace.jsonl] \
//!     [--cache obligations.keqcache] [--journal run.keqwal] [--resume] \
//!     [--chaos CYCLES] [--metrics]
//! ```
//!
//! `--pass` selects which validated passes run over the corpus (default
//! `isel`); a comma list fans every function out across all of them, and
//! each printed row names its pass. `--pressure K` switches the generator
//! to its high-register-pressure profile (K extra whole-body-live
//! temporaries), which forces the spilling register allocator onto its
//! spill path when combined with `--pass regalloc`.
//!
//! `--report` turns on tracing, collects the run's event ring, and
//! writes the aggregated machine-readable report (schema
//! `keq-run-report/v3`; see DESIGN.md §Observability). `--trace-jsonl`
//! additionally streams every raw event as one JSON line. `--cache`
//! persists the shared obligation cache across runs: proved obligations
//! are flushed incrementally and warm-start the next invocation.
//!
//! `--metrics` turns on the live telemetry registry: the run then prints
//! its slowest obligations with per-phase breakdowns, and the telemetry
//! section (collector samples + slow table) lands in `--report` output.
//!
//! `--journal` appends every finalized verdict to a write-ahead journal;
//! `--resume` recovers a killed run from it, skipping already-decided
//! functions. `--chaos CYCLES` runs the crash-safety campaign: one clean
//! in-process reference run, then up to CYCLES re-executions of this
//! binary that are killed (`abort`) at seeded offsets mid-run and resumed,
//! then a final resumed run — asserting the merged verdict table is
//! identical to the uninterrupted one (exit 1 on divergence). The chaos
//! runs inject deterministic pipeline faults (panics, forced budget
//! exhaustion) plus storage faults (torn journal writes, short reads), so
//! the campaign exercises recovery, not just the happy path.

use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use keq_repro::core::KeqOptions;
use keq_repro::harness::{build_report, HarnessOptions, RetryPolicy};
use keq_repro::isel::PassId;
use keq_repro::smt::{mix64, Budget, FaultPlan, Rate};
use keq_repro::trace::{EventRing, Fanout, JsonlSink, TraceSink};

struct Cli {
    n: usize,
    seed: u64,
    passes: Vec<PassId>,
    pressure: usize,
    report: Option<String>,
    trace_jsonl: Option<String>,
    cache: Option<String>,
    journal: Option<String>,
    resume: bool,
    metrics: bool,
    chaos: Option<u32>,
    /// Internal (chaos children): arm an abort timer this many ms in.
    kill_after_ms: Option<u64>,
    /// Internal (chaos children + reference): install the chaos fault plan.
    chaos_run: bool,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        n: 20,
        seed: 2021,
        passes: Vec::new(),
        pressure: 0,
        report: None,
        trace_jsonl: None,
        cache: None,
        journal: None,
        resume: false,
        metrics: false,
        chaos: None,
        kill_after_ms: None,
        chaos_run: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                cli.seed = args.next().and_then(|s| s.parse().ok()).expect("--seed <u64>");
            }
            "--pass" => {
                let spec = args.next().expect("--pass isel|regalloc|gvn[,...]");
                for name in spec.split(',') {
                    match PassId::parse(name) {
                        Some(p) => cli.passes.push(p),
                        None => {
                            eprintln!("--pass: unknown pass \"{name}\" (isel|regalloc|gvn)");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--pressure" => {
                cli.pressure =
                    args.next().and_then(|s| s.parse().ok()).expect("--pressure <count>");
            }
            "--report" => cli.report = Some(args.next().expect("--report <path>")),
            "--trace-jsonl" => {
                cli.trace_jsonl = Some(args.next().expect("--trace-jsonl <path>"));
            }
            "--cache" => cli.cache = Some(args.next().expect("--cache <path>")),
            "--journal" => cli.journal = Some(args.next().expect("--journal <path>")),
            "--resume" => cli.resume = true,
            "--metrics" => cli.metrics = true,
            "--chaos" => {
                cli.chaos =
                    Some(args.next().and_then(|s| s.parse().ok()).expect("--chaos <cycles>"));
            }
            "--kill-after-ms" => {
                cli.kill_after_ms =
                    Some(args.next().and_then(|s| s.parse().ok()).expect("--kill-after-ms <ms>"));
            }
            "--chaos-run" => cli.chaos_run = true,
            other => match other.parse() {
                Ok(n) => cli.n = n,
                Err(_) => {
                    eprintln!(
                        "usage: validate_corpus [N] [--seed S] [--pass isel,regalloc,gvn] \
                         [--pressure K] [--report PATH] [--trace-jsonl PATH] [--cache PATH] \
                         [--journal PATH] [--resume] [--chaos CYCLES] [--metrics]"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    cli
}

fn base_keq_options() -> KeqOptions {
    KeqOptions {
        time_limit: Some(Duration::from_secs(20)),
        solver_budget: Budget {
            max_conflicts: 500_000,
            max_terms: 2_000_000,
            max_time: Some(Duration::from_secs(5)),
        },
        ..KeqOptions::default()
    }
}

/// The chaos campaign's deterministic fault surface: pipeline faults that
/// classify reproducibly per function (no wall-clock deadlines anywhere),
/// plus storage faults that stress the journal's torn-write/short-read
/// recovery without being able to change any verdict.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        panic: Rate { num: 1, den: 8 },
        force_conflicts: Rate { num: 1, den: 8 },
        force_terms: Rate { num: 1, den: 8 },
        torn_write: Rate { num: 1, den: 16 },
        short_read: Rate { num: 1, den: 16 },
        ..FaultPlan::quiet(seed)
    }
}

fn chaos_retry() -> RetryPolicy {
    RetryPolicy { max_attempts: 2, factor: 4, retry_crashes: true }
}

fn kinds(summary: &keq_bench::CorpusSummary) -> Vec<&'static str> {
    summary.rows.iter().map(|r| r.result.kind().name()).collect()
}

fn gen_config(cli: &Cli) -> keq_bench::GenConfig {
    keq_bench::GenConfig { seed: cli.seed, pressure: cli.pressure, ..Default::default() }
}

fn pass_list(cli: &Cli) -> String {
    cli.passes.iter().map(|p| p.name()).collect::<Vec<_>>().join(",")
}

/// The chaos campaign driver. Exits 1 on verdict divergence or store
/// impurity, 0 on success.
fn run_chaos(cli: &Cli, cycles: u32) {
    let journal_path = cli.journal.clone().unwrap_or_else(|| "chaos.keqwal".to_string());
    let base = HarnessOptions {
        keq: base_keq_options(),
        fault_plan: chaos_plan(cli.seed),
        retry: chaos_retry(),
        passes: cli.passes.clone(),
        ..HarnessOptions::default()
    };

    // 1. The uninterrupted reference run, in-process, no journal. Its wall
    //    time calibrates the kill offsets: a kill is only interesting when
    //    it lands after some verdicts are journaled and before the rest.
    println!("chaos: reference run ({} functions, seed {})...", cli.n, cli.seed);
    let ref_start = std::time::Instant::now();
    let (_m, reference) = keq_bench::run_corpus_cfg(gen_config(cli), cli.n, &base);
    let ref_ms = u64::try_from(ref_start.elapsed().as_millis()).unwrap_or(u64::MAX).max(20);
    let want = kinds(&reference);

    // 2. The kill/resume loop: re-exec this binary with an armed abort
    //    timer; each child resumes the journal the previous one left and
    //    dies at a different seeded offset, until one survives to the end
    //    (or the cycle cap is hit — the final run below completes the rest).
    let _ = std::fs::remove_file(&journal_path);
    let exe = std::env::current_exe().expect("current_exe");
    let mut kills = 0u32;
    for cycle in 1..=cycles {
        // Seeded kill offset in [10%, 90%) of the reference wall time.
        let frac = 10 + mix64(cli.seed ^ u64::from(cycle)) % 80;
        let kill_ms = (ref_ms * frac / 100).max(5);
        let mut cmd = Command::new(&exe);
        cmd.arg(cli.n.to_string())
            .args(["--seed", &cli.seed.to_string()])
            .args(["--journal", &journal_path])
            .arg("--resume")
            .arg("--chaos-run")
            .args(["--kill-after-ms", &kill_ms.to_string()])
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        if let Some(cache) = &cli.cache {
            cmd.args(["--cache", cache]);
        }
        if !cli.passes.is_empty() {
            cmd.args(["--pass", &pass_list(cli)]);
        }
        if cli.pressure > 0 {
            cmd.args(["--pressure", &cli.pressure.to_string()]);
        }
        let status = cmd.status().expect("spawn chaos child");
        if status.success() {
            println!("chaos: cycle {cycle} survived its {kill_ms}ms timer, run complete");
            break;
        }
        kills += 1;
        println!("chaos: cycle {cycle} killed at {kill_ms}ms, resuming...");
    }

    // 3. The final resumed run, in-process, merging whatever the children
    //    decided with a replay of the rest.
    let merged_opts = HarnessOptions {
        journal_path: Some(journal_path.clone().into()),
        resume: true,
        cache_path: cli.cache.as_ref().map(std::path::PathBuf::from),
        ..base
    };
    let (_m, merged) = keq_bench::run_corpus_cfg(gen_config(cli), cli.n, &merged_opts);
    println!("{}", merged.summary_line());

    let got = kinds(&merged);
    if got != want {
        eprintln!("chaos: VERDICT DIVERGENCE after {kills} kills");
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            if w != g {
                eprintln!("  f{i}: clean run says {w}, resumed run says {g}");
            }
        }
        std::process::exit(1);
    }

    // 4. Store purity: a crash-interrupted store may only ever contain
    //    decided verdicts (`Unsat` = byte 1, model-free `Sat` = byte 2 in
    //    the store's wire format) — budget/fault attempt outcomes must
    //    never be persisted, and whatever was torn mid-write must have
    //    been skipped, never reinterpreted.
    if let Some(cache) = &cli.cache {
        if let Ok(bytes) = std::fs::read(cache) {
            let mut at = 20; // header: magic + version + semantics revision
            while at + 4 <= bytes.len() {
                let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
                if len != 17 || at + 4 + len + 4 > bytes.len() {
                    break; // torn tail: the loader skips it too
                }
                let verdict_byte = bytes[at + 4 + 16];
                if verdict_byte != 1 && verdict_byte != 2 {
                    eprintln!("chaos: STORE IMPURITY: persisted verdict byte {verdict_byte}");
                    std::process::exit(1);
                }
                at += 4 + len + 4;
            }
        }
    }

    println!(
        "chaos: OK — {} kills, verdict tables identical ({} units), resume skipped {} \
         recovered {} corrupt {}",
        kills,
        want.len(),
        merged.resume.skipped,
        merged.resume.recovered,
        merged.resume.corrupt
    );
}

fn main() {
    let cli = parse_cli();
    if let Some(cycles) = cli.chaos {
        run_chaos(&cli, cycles);
        return;
    }

    // Chaos children: die unceremoniously (abort, not panic — the point is
    // a process that never got to say goodbye) once the timer fires.
    if let Some(ms) = cli.kill_after_ms {
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(ms));
            std::process::abort();
        });
    }

    // Tracing is opt-in: without --report/--trace-jsonl every probe site
    // in the pipeline stays on its one-branch disabled path.
    let tracing = cli.report.is_some() || cli.trace_jsonl.is_some();
    let ring = Arc::new(EventRing::with_default_capacity());
    let trace = if tracing {
        let mut sinks = vec![TraceSink::from(Arc::clone(&ring))];
        if let Some(path) = &cli.trace_jsonl {
            let file = std::fs::File::create(path).expect("create --trace-jsonl file");
            sinks.push(TraceSink::from(Arc::new(JsonlSink::new(file))));
        }
        Some(TraceSink::from(Arc::new(Fanout::new(sinks))))
    } else {
        None
    };
    let opts = HarnessOptions {
        keq: base_keq_options(),
        trace,
        cache_path: cli.cache.as_ref().map(std::path::PathBuf::from),
        journal_path: cli.journal.as_ref().map(std::path::PathBuf::from),
        resume: cli.resume,
        fault_plan: if cli.chaos_run { chaos_plan(cli.seed) } else { FaultPlan::quiet(0) },
        retry: if cli.chaos_run { chaos_retry() } else { RetryPolicy::default() },
        metrics: keq_repro::harness::MetricsConfig {
            enabled: cli.metrics,
            ..keq_repro::harness::MetricsConfig::default()
        },
        passes: cli.passes.clone(),
        ..HarnessOptions::default()
    };

    let pass_names = if cli.passes.is_empty() { "isel".to_string() } else { pass_list(&cli) };
    println!(
        "validating {} generated functions (seed {}, passes: {pass_names})...",
        cli.n, cli.seed
    );
    let (_module, summary) = keq_bench::run_corpus_cfg(gen_config(&cli), cli.n, &opts);
    for row in &summary.rows {
        let recovered = if row.recovered { "  [recovered]" } else { "" };
        println!(
            "  {:<8} {:<8} {:>4} instrs  {:>9.2?}  {:?}{recovered}",
            row.name,
            row.pass.name(),
            row.size,
            row.time,
            row.result
        );
    }
    println!(
        "\nvalidated {}/{} ({:.1}%) — the paper reports 4331/4732 (91.52%)",
        summary.count(keq_bench::ResultKind::Succeeded),
        summary.total(),
        summary.success_rate() * 100.0
    );
    println!("{}", summary.summary_line());
    if let Some(path) = &cli.cache {
        println!(
            "obligation store {path}: loaded {} rejected {} persisted {} ({} bytes, {} flushes)",
            summary.cache.disk_loaded,
            summary.cache.disk_rejected,
            summary.cache.disk_persisted,
            summary.cache.disk_bytes,
            summary.cache.flushes,
        );
    }

    if cli.metrics && !summary.telemetry.slow.is_empty() {
        println!("\nslowest obligations (top {} by wall time):", summary.telemetry.slow.len());
        for row in &summary.telemetry.slow {
            let mut phases: Vec<_> = row.phase_us.clone();
            phases.sort_by_key(|&(_, us)| std::cmp::Reverse(us));
            let breakdown = phases
                .iter()
                .take(3)
                .map(|(p, us)| format!("{} {}µs", p.name(), us))
                .collect::<Vec<_>>()
                .join(", ");
            println!(
                "  {:<16} {:<12} {:>9}µs  {} attempts  [{}]",
                row.label, row.result, row.wall_us, row.attempts, breakdown
            );
        }
    }

    if let Some(path) = &cli.report {
        let report = build_report(&summary, Some(&ring), cli.seed);
        std::fs::write(path, report.to_json()).expect("write --report file");
        eprintln!("wrote {path}");
    }
}
