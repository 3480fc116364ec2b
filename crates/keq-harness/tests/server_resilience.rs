//! Resilience regressions for the scheduler's server-facing edges:
//! backpressure rejections and mid-request client disconnects must leave
//! the shared obligation cache, warm-start generation tracking, and the
//! write-ahead journal consistent — subsequent requests run normally and
//! the drain accounts for everything.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use keq_harness::protocol::{ClientRequest, ServerResponse};
use keq_harness::{
    connect, journal, ClientQuota, HarnessOptions, Rejected, Request, Scheduler, SchedulerConfig,
    Server, ServerOptions, Storage,
};
use keq_llvm::ast::Module;
use keq_smt::fault::{FaultPlan, Rate};
use keq_smt::obcache::{StdStoreIo, StoreIo};
use keq_smt::SharedObligationCache;
use keq_workload::{generate_corpus, GenConfig};

fn unique_path(name: &str) -> PathBuf {
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "keq-resilience-{}-{}-{name}",
        std::process::id(),
        SERIAL.fetch_add(1, Ordering::Relaxed),
    ))
}

fn harness() -> HarnessOptions {
    HarnessOptions {
        workers: 1,
        grace: Duration::from_millis(60),
        watchdog_tick: Duration::from_millis(5),
        store_flush_every: 0,
        ..HarnessOptions::default()
    }
}

fn config(journal_path: Option<PathBuf>, fp: u64) -> SchedulerConfig {
    SchedulerConfig {
        harness: harness(),
        queue_depth: 0,
        quota: ClientQuota::default(),
        request_events: false,
        storage: Storage {
            io: Arc::new(StdStoreIo) as Arc<dyn StoreIo>,
            shared: Arc::new(SharedObligationCache::new()),
            disk_loaded: 0,
            disk_rejected: 0,
            journal: journal_path.map(|path| keq_harness::JournalConfig {
                path,
                corpus_fp: fp,
                valid_prefix: None,
            }),
        },
    }
}

fn request(corpus: &Module, func: usize, client: u64) -> Request {
    Request {
        module: Arc::new(corpus.clone()),
        func,
        pass: keq_isel::PassId::Isel,
        func_fp: journal::function_fingerprint(&corpus.functions[func]),
        unit: func as u64,
        trace_id: func as u32,
        client,
        tag: func as u64,
        deadline: None,
        max_attempts: None,
    }
}

/// Queue-full backpressure against a deliberately wedged scheduler: the
/// rejection leaves no state behind, the wedged submission is abandoned by
/// the watchdog, and the *next* submission (same client, same unit class)
/// runs to a verdict — with the journal recording exactly the finalized
/// submissions, in order.
#[test]
fn queue_full_rejection_then_abandonment_leaves_a_usable_scheduler() {
    let corpus = generate_corpus(GenConfig { seed: 31, ..GenConfig::default() }, 3);
    let journal_path = unique_path("backpressure.keqwal");
    let fp = 0x5eed;
    let sched = Scheduler::start(SchedulerConfig {
        harness: HarnessOptions {
            // Every unit hangs; only the watchdog can finalize it.
            fault_plan: FaultPlan { hang: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(0) },
            deadline: Some(Duration::from_millis(30)),
            ..harness()
        },
        queue_depth: 1,
        ..config(Some(journal_path.clone()), fp)
    });

    let (tx, rx) = mpsc::channel();
    sched.submit(request(&corpus, 0, 7), tx.clone()).expect("first submission fits");
    // The gate counts accepted-but-unfinalized synchronously: the second
    // submission is over the depth bound *now*, deterministically.
    let rej = sched.submit(request(&corpus, 1, 7), tx.clone());
    assert!(matches!(rej, Err(Rejected::QueueFull { depth: 1 })), "{rej:?}");

    // The wedged submission still finalizes (watchdog abandon), and the
    // freed slot admits new work that completes normally.
    let done = rx.recv().expect("abandoned submission still yields a verdict");
    assert_eq!(done.tag, 0);
    assert_eq!(done.result.kind().name(), "timeout");
    sched.submit(request(&corpus, 2, 7), tx).expect("slot freed after finalization");
    let done = rx.recv().expect("post-rejection submission completes");
    assert_eq!(done.tag, 2);

    let fin = sched.drain();
    assert_eq!(fin.server.requests, 2, "two admitted");
    assert_eq!(fin.server.completed, 2, "both admitted submissions finalized");
    assert_eq!(fin.server.rejected_queue_full, 1);
    assert_eq!(fin.server.disconnects, 0);

    // The journal saw exactly the finalized submissions — the rejected one
    // never touched it.
    let load = journal::load(&journal_path, fp, &StdStoreIo);
    assert!(!load.reset, "journal header survives");
    assert_eq!(load.corrupt, 0);
    let funcs: Vec<u32> = load.records.iter().map(|r| r.func).collect();
    assert_eq!(funcs, vec![0, 2], "journal records the finalized functions in order");
    let _ = std::fs::remove_file(&journal_path);
}

/// A client that vanishes mid-request (dropped reply receiver) costs
/// nothing but a `disconnects` tick: its submissions finalize, journal,
/// and release their quota, and the shared cache keeps serving later
/// requests — which hit the obligations the vanished client proved.
#[test]
fn mid_request_disconnect_preserves_cache_journal_and_quota() {
    let corpus = generate_corpus(GenConfig { seed: 32, ..GenConfig::default() }, 2);
    let journal_path = unique_path("disconnect.keqwal");
    let fp = 0xd15c;
    let config = config(Some(journal_path.clone()), fp);
    let shared = Arc::clone(&config.storage.shared);
    let sched = Scheduler::start(SchedulerConfig {
        quota: ClientQuota { max_inflight: 1, ..ClientQuota::default() },
        ..config
    });

    // Client 1 submits and immediately vanishes.
    let (tx, rx) = mpsc::channel();
    sched.submit(request(&corpus, 0, 1), tx).expect("admitted");
    drop(rx);

    // Its quota slot frees once the orphaned submission finalizes; poll
    // until the same client fits again (bounded by the test harness
    // timeout, normally instant).
    let (tx2, rx2) = mpsc::channel();
    let mut req = Some(request(&corpus, 0, 1));
    loop {
        match sched.submit(req.take().expect("request"), tx2.clone()) {
            Ok(_) => break,
            Err(Rejected::QuotaExceeded { .. }) => {
                req = Some(request(&corpus, 0, 1));
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(other) => panic!("unexpected rejection {other:?}"),
        }
    }
    let done = rx2.recv().expect("revalidation completes");
    assert_eq!(done.result.kind().name(), "succeeded");
    let hits_after_revalidation = shared.stats().hits;
    assert!(
        hits_after_revalidation > 0,
        "revalidating the vanished client's function rides the cache it warmed"
    );

    // The disconnect is visible live, before the drain: once nothing is in
    // flight, the supervisor has counted the dead reply channel.
    while sched.depth() > 0 {
        std::thread::yield_now();
    }
    let live = sched.admission();
    assert_eq!(live.disconnects, 1, "the live counters see the disconnect");

    let fin = sched.drain();
    assert_eq!(fin.server.requests, 2);
    assert_eq!(fin.server.completed, 2, "the orphaned submission still finalized");
    assert_eq!(fin.server.disconnects, 1, "the dead reply channel was counted");
    assert_eq!(fin.server.disconnects, live.disconnects, "the drain reads the live counter");

    // Both finalizations were journaled — the disconnect lost the reply,
    // not the write-ahead record.
    let load = journal::load(&journal_path, fp, &StdStoreIo);
    assert_eq!(load.records.len(), 2);
    assert!(load.records.iter().all(|r| r.func == 0));
    let _ = std::fs::remove_file(&journal_path);
}

/// The same property end-to-end over the wire: a TCP client that sends a
/// validate request and slams the connection shut does not disturb the
/// server — a later connection validates the same module and rides the
/// shared cache the vanished client warmed.
#[test]
fn tcp_client_vanishing_mid_request_leaves_the_server_serving() {
    let corpus = generate_corpus(GenConfig { seed: 33, ..GenConfig::default() }, 2);
    let ir = corpus.to_string();
    let server = Server::bind(
        "127.0.0.1:0",
        &ServerOptions {
            harness: HarnessOptions { workers: 2, ..HarnessOptions::default() },
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let run = std::thread::spawn(move || server.run());

    // Fire-and-vanish: send the frame, never read the response.
    {
        let mut conn = connect(&addr).expect("connect");
        keq_harness::write_frame(
            &mut conn,
            &ClientRequest::Validate {
                tag: 1,
                unit: 0,
                pass: keq_isel::PassId::Isel,
                ir: ir.clone(),
                deadline_ms: None,
                max_attempts: None,
            }
            .to_json_string(),
        )
        .expect("send");
        // Dropping the stream here closes the socket mid-request.
    }

    // A fresh connection gets served; poll stats until the orphaned
    // request's functions finalize, then revalidate and expect cache hits.
    let mut conn = connect(&addr).expect("reconnect");
    loop {
        let ServerResponse::Stats(stats) =
            conn.roundtrip(&ClientRequest::Stats).expect("stats")
        else {
            panic!("expected stats");
        };
        if stats.completed >= 2 && stats.depth == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let resp = conn
        .roundtrip(&ClientRequest::Validate {
            tag: 2,
            unit: 0,
            pass: keq_isel::PassId::Isel,
            ir,
            deadline_ms: None,
            max_attempts: None,
        })
        .expect("revalidate");
    let ServerResponse::Validated { results, .. } = resp else {
        panic!("expected verdicts, got {resp:?}");
    };
    assert_eq!(results.len(), 2);
    let ServerResponse::Stats(stats) = conn.roundtrip(&ClientRequest::Stats).expect("stats")
    else {
        panic!("expected stats");
    };
    assert_eq!(stats.requests, 4, "both requests' functions were admitted");
    assert!(
        stats.cache_hits > 0,
        "the revalidation rides the cache the vanished client warmed"
    );

    conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown");
    let summary = run.join().expect("server thread");
    assert_eq!(summary.fin.server.requests, 4);
    assert_eq!(summary.fin.server.completed, 4, "nothing was lost to the disconnect");
}
