//! A live `keq-server` on a loopback port, driven the way `keq_client`
//! drives it: one corpus function per request. Shared by the
//! batch-vs-server differential, the telemetry-cost test and the
//! wire-overhead test.

use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use keq_harness::protocol::{ClientRequest, ServerResponse};
use keq_harness::{connect, ClientConn, Server, ServerOptions, ServerSummary};
use keq_llvm::ast::Module;

/// (result kind, attempts) of one function.
pub type Verdict = (String, u64);

/// Corpus function `i` as a self-contained request module, carrying the
/// corpus globals and external declarations it may reference — what
/// `keq_client` sends.
pub fn request_ir(corpus: &Module, i: usize) -> String {
    Module {
        globals: corpus.globals.clone(),
        functions: vec![corpus.functions[i].clone()],
        declarations: corpus.declarations.clone(),
    }
    .to_string()
}

/// Validates corpus functions `units` over `conn`, one function per
/// request tagged `tag_base + i`; returns their verdicts in `units` order,
/// each with its round trip and its wire overhead: the round trip less the
/// scheduler's submit-to-verdict `wall_us`.
fn stream(
    conn: &mut ClientConn,
    corpus: &Module,
    units: &[usize],
    tag_base: u64,
) -> Vec<(Verdict, Duration, Duration)> {
    let mut out = Vec::with_capacity(units.len());
    for &i in units {
        let sent = Instant::now();
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                tag: tag_base + i as u64,
                unit: i as u64,
                pass: keq_isel::PassId::Isel,
                ir: request_ir(corpus, i),
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("validate round trip");
        let round_trip = sent.elapsed();
        let ServerResponse::Validated { tag, results } = resp else {
            panic!("expected a verdict table for f{i}, got {resp:?}");
        };
        assert_eq!(tag, tag_base + i as u64);
        assert_eq!(results.len(), 1, "one function per request module");
        let overhead = round_trip.saturating_sub(Duration::from_micros(results[0].wall_us));
        out.push(((results[0].result.clone(), results[0].attempts), round_trip, overhead));
    }
    out
}

/// Obligation-cache (hits, misses) so far, from the `stats` op.
fn cache_counters(conn: &mut ClientConn) -> (u64, u64) {
    match conn.roundtrip(&ClientRequest::Stats).expect("stats round trip") {
        ServerResponse::Stats(s) => {
            (s.solver.obligation_cache_hits, s.solver.obligation_cache_misses)
        }
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A live server on a loopback port that has answered one corpus pass.
pub struct Live {
    addr: String,
    pub ctl: ClientConn,
    run: JoinHandle<ServerSummary>,
    /// The verdict table of the first pass.
    pub first: Vec<Verdict>,
    /// Corpus passes streamed so far.
    passes: usize,
}

impl Live {
    /// Boots a server and streams the corpus through it once, one function
    /// per request.
    pub fn boot(corpus: &Module, opts: &ServerOptions) -> Live {
        let server = Server::bind("127.0.0.1:0", opts).expect("bind server");
        let addr = server.local_addr();
        let run = std::thread::spawn(move || server.run());
        let mut ctl = connect(&addr).expect("connect");
        let all: Vec<usize> = (0..corpus.functions.len()).collect();
        let first = stream(&mut ctl, corpus, &all, 0).into_iter().map(|(v, ..)| v).collect();
        Live { addr, ctl, run, first, passes: 1 }
    }

    /// Streams one more corpus pass over the control connection, one
    /// request at a time, and returns each request's wire overhead. The
    /// verdicts must match the first pass.
    #[allow(dead_code)] // only `wire_overhead.rs` of the binaries sharing this module calls it
    pub fn overheads(&mut self, corpus: &Module) -> Vec<Duration> {
        let n = corpus.functions.len();
        let all: Vec<usize> = (0..n).collect();
        let rows = stream(&mut self.ctl, corpus, &all, (self.passes * n) as u64);
        self.passes += 1;
        rows.into_iter()
            .enumerate()
            .map(|(i, (v, _, overhead))| {
                assert_eq!(v, self.first[i], "f{i} drifted from the first pass");
                overhead
            })
            .collect()
    }

    /// Streams `rounds` more corpus passes, split round-robin over `conns`
    /// parallel connections, and returns their wall time. Residency must be
    /// invisible in verdicts, and the passes must discharge at least 74% of
    /// their obligation lookups from the resident cache.
    #[allow(dead_code)] // `metrics_rate.rs` of the binaries sharing this module does not call it
    pub fn repeat(&mut self, corpus: &Module, rounds: usize, conns: usize) -> Duration {
        let n = corpus.functions.len();
        let (hits_before, misses_before) = cache_counters(&mut self.ctl);
        let start = Instant::now();
        std::thread::scope(|scope| {
            for c in 0..conns {
                let units: Vec<usize> = (0..n).filter(|i| i % conns == c).collect();
                let (addr, first, passes) = (self.addr.as_str(), &self.first, self.passes);
                scope.spawn(move || {
                    let mut conn = connect(addr).expect("connect");
                    for r in 0..rounds {
                        let verdicts = stream(&mut conn, corpus, &units, ((passes + r) * n) as u64);
                        for (&i, (v, ..)) in units.iter().zip(verdicts) {
                            assert_eq!(v, first[i], "f{i} drifted from the first pass");
                        }
                    }
                });
            }
        });
        let wall = start.elapsed();
        let (hits_after, misses_after) = cache_counters(&mut self.ctl);
        self.passes += rounds;

        let (hits, misses) = (hits_after - hits_before, misses_after - misses_before);
        assert!(
            hits + misses > 0 && hits as f64 >= 0.74 * (hits + misses) as f64,
            "repeat passes must discharge >=74% of obligation lookups from the resident cache \
             (hits {hits}, misses {misses})"
        );
        wall
    }

    /// Streams one more corpus pass through each of two servers over their
    /// control connections, request by request: function `i` goes to `a`
    /// first when `i + flip` is even and to `b` first otherwise, so each
    /// pair of round trips sees the same machine. Returns each function's
    /// `(a, b)` round trips; the verdicts must match each server's first
    /// pass.
    #[allow(dead_code)] // only `metrics_rate.rs` of the binaries sharing this module calls it
    pub fn paired_pass(
        a: &mut Live,
        b: &mut Live,
        corpus: &Module,
        flip: bool,
    ) -> Vec<(Duration, Duration)> {
        let n = corpus.functions.len();
        let trip = |live: &mut Live, i: usize| {
            let rows = stream(&mut live.ctl, corpus, &[i], (live.passes * n) as u64);
            let (verdict, round_trip, _) = &rows[0];
            assert_eq!(*verdict, live.first[i], "f{i} drifted from the first pass");
            *round_trip
        };
        let pairs = (0..n)
            .map(|i| {
                if (i + usize::from(flip)) % 2 == 0 {
                    let ta = trip(a, i);
                    (ta, trip(b, i))
                } else {
                    let tb = trip(b, i);
                    (trip(a, i), tb)
                }
            })
            .collect();
        a.passes += 1;
        b.passes += 1;
        pairs
    }

    /// Shuts the server down, which must account for every submission, and
    /// returns the first pass's verdict table.
    pub fn drain(mut self, corpus: &Module) -> Vec<Verdict> {
        let resp = self.ctl.roundtrip(&ClientRequest::Shutdown).expect("shutdown round trip");
        assert_eq!(resp, ServerResponse::ShuttingDown);
        let summary = self.run.join().expect("server thread");
        let (fin, latency) = (&summary.fin.server, &summary.fin.latency);
        let submitted = (self.passes * corpus.functions.len()) as u64;
        assert_eq!(fin.requests, submitted, "every submission was admitted");
        assert_eq!(fin.completed, fin.requests, "every admitted submission finalized");
        assert_eq!(fin.disconnects, 0, "no reply channel died");
        assert_eq!(latency.total() as u64, fin.completed, "every finalization was timed");
        self.first
    }
}
