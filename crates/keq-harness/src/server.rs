//! The `keq-server` front end: a long-lived validation daemon over one
//! resident [`Scheduler`].
//!
//! A batch run pays the warm-up cost — loading the obligation store,
//! opening the journal, spinning up workers — once per corpus. The server
//! pays it once per *process*: the shared obligation cache, warm-start
//! contexts, and write-ahead journal stay resident across requests, so a
//! stream of small validation requests (editor integration, CI shards,
//! fuzzing loops) amortizes them the way the paper's §5.1 campaign does
//! within one run.
//!
//! Transport is a plain std listener — TCP (`127.0.0.1:7411`) or, on Unix,
//! a Unix-domain socket (`unix:/path/to.sock`) — speaking the
//! length-framed JSON protocol of [`crate::protocol`]. One thread per
//! connection; each connection is one scheduler *client*, so
//! [`ClientQuota::max_inflight`] bounds what a single connection can have
//! in flight while [`SchedulerConfig::queue_depth`] bounds the whole
//! daemon (excess requests are *rejected* with a reason, never queued
//! without bound).
//!
//! Shutdown is graceful by construction: the `shutdown` op stops the
//! accept loop, every connection thread finishes the request it is
//! serving, and only then does [`Scheduler::drain`] run — so every
//! admitted submission gets its verdict (the watchdog still bounds wedged
//! ones) and the store flushes before [`Server::run`] returns.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use keq_llvm::parser::parse_module;
use keq_smt::SharedObligationCache;

use crate::journal;
use crate::protocol::{
    read_frame, write_frame, ClientRequest, FunctionVerdict, MetricsReport, ServerResponse,
    StatsSnapshot,
};
use crate::run::HarnessOptions;
use crate::scheduler::{
    ClientQuota, Completion, Request, Scheduler, SchedulerConfig, SchedulerFinal, Storage,
};

/// How often an idle connection read wakes up to check the shutdown flag.
const IDLE_TICK: Duration = Duration::from_millis(250);

/// Corpus-fingerprint namespace stamped into a server journal's header. A
/// server journal spans many unrelated requests, so there is no corpus to
/// fingerprint; the constant keeps batch journals and server journals from
/// resuming into each other.
const SERVER_JOURNAL_FP: u64 = 0x6b65_715f_7372_7631; // "keq_srv1"

/// Configuration of a [`Server`].
#[derive(Clone, Default)]
pub struct ServerOptions {
    /// The validation pipeline and supervision policies, shared verbatim
    /// with the batch front end — the same [`HarnessOptions`] validate the
    /// same corpus to the same verdicts on either side.
    pub harness: HarnessOptions,
    /// Maximum accepted-but-unfinalized submissions before the gate
    /// rejects with `queue_full` (0 = unbounded).
    pub queue_depth: usize,
    /// Per-connection admission quota.
    pub quota: ClientQuota,
}

/// What [`Server::run`] returns after a graceful drain.
pub struct ServerSummary {
    /// The scheduler's lifetime counters, cache summary, and latency
    /// distribution.
    pub fin: SchedulerFinal,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// How a connection thread pokes the accept loop awake after setting the
/// shutdown flag.
#[derive(Clone)]
enum WakeAddr {
    Tcp(std::net::SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

fn wake(addr: &WakeAddr) {
    match addr {
        WakeAddr::Tcp(a) => drop(TcpStream::connect(a)),
        #[cfg(unix)]
        WakeAddr::Unix(p) => drop(UnixStream::connect(p)),
    }
}

/// Shared state every connection thread works against.
struct ConnCtx {
    scheduler: Scheduler,
    shared: Arc<SharedObligationCache>,
    shutdown: AtomicBool,
    wake: WakeAddr,
    /// The telemetry collector's sampling interval, milliseconds (sizes
    /// the `metrics` op's rate window).
    sample_interval_ms: u64,
}

impl ConnCtx {
    fn stats(&self) -> StatsSnapshot {
        let adm = self.scheduler.admission();
        let depth = self.scheduler.depth() as u64;
        let cache = self.shared.stats();
        let (p50_us, p90_us, p99_us) = self.scheduler.telemetry().latency_quantiles_us();
        StatsSnapshot {
            requests: adm.requests,
            completed: adm.completed,
            rejected_queue_full: adm.rejected_queue_full,
            rejected_quota: adm.rejected_quota,
            disconnects: adm.disconnects,
            depth,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries,
            p50_us,
            p90_us,
            p99_us,
        }
    }

    /// Serves the `metrics` op: one coherent telemetry snapshot. The
    /// headline gauges come from the live scheduler (meaningful with the
    /// registry off); the series, worker-state gauges, and Prometheus text
    /// come from the telemetry registry and read zero when `--metrics`
    /// is off.
    fn metrics(&self) -> MetricsReport {
        let stats = self.stats();
        let telemetry = self.scheduler.telemetry();
        let registry = telemetry.registry();
        let sample_ms = self.sample_interval_ms;
        MetricsReport {
            enabled: telemetry.enabled(),
            uptime_ms: telemetry.uptime_ms(),
            queue_depth: stats.depth,
            workers_busy: registry.gauge(keq_trace::GaugeId::WorkersBusy),
            workers_idle: registry.gauge(keq_trace::GaugeId::WorkersIdle),
            requests: stats.requests,
            completed: stats.completed,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            cache_entries: stats.cache_entries,
            // Rate over the last ~4 sample windows: long enough to smooth
            // tick jitter, short enough to track load changes.
            rate_per_sec: telemetry.rate_per_sec(sample_ms.saturating_mul(4)),
            p50_us: stats.p50_us,
            p90_us: stats.p90_us,
            p99_us: stats.p99_us,
            samples: telemetry.samples(),
            shard_entries: self.shared.shard_entries(),
            series: telemetry.series_json(),
            slow: telemetry.slow_rows(),
            prometheus: telemetry.prometheus(),
        }
    }
}

/// A bound, not-yet-running validation daemon.
pub struct Server {
    listener: Listener,
    ctx: Arc<ConnCtx>,
}

impl Server {
    /// Binds the listener and starts the resident scheduler.
    ///
    /// `addr` is either a TCP address (`127.0.0.1:7411`; port 0 picks a
    /// free port, see [`Server::local_addr`]) or, on Unix, `unix:` followed
    /// by a socket path (a stale socket file is replaced).
    ///
    /// Storage warm-up runs here, on the caller's thread, in the same
    /// order as a batch run: obligation store load, journal recovery,
    /// journal header write — so a storage fault plan observes the
    /// identical operation sequence on both front ends.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn bind(addr: &str, opts: &ServerOptions) -> io::Result<Server> {
        let (listener, wake_addr) = match addr.strip_prefix("unix:") {
            None => {
                let l = TcpListener::bind(addr)?;
                let wake_addr = WakeAddr::Tcp(l.local_addr()?);
                (Listener::Tcp(l), wake_addr)
            }
            #[cfg(unix)]
            Some(path) => {
                let path = PathBuf::from(path);
                match std::fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
                let l = UnixListener::bind(&path)?;
                (Listener::Unix(l, path.clone()), WakeAddr::Unix(path))
            }
            #[cfg(not(unix))]
            Some(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix: addresses need a Unix platform",
                ))
            }
        };

        // A server journal is never replayed into requests: resuming only
        // keeps its valid prefix, so the recovered records go unused.
        let (storage, _) = Storage::open(&opts.harness, SERVER_JOURNAL_FP);
        let shared = Arc::clone(&storage.shared);
        let scheduler = Scheduler::start(SchedulerConfig {
            harness: opts.harness.clone(),
            queue_depth: opts.queue_depth,
            quota: opts.quota,
            request_events: true,
            storage,
        });

        Ok(Server {
            listener,
            ctx: Arc::new(ConnCtx {
                scheduler,
                shared,
                shutdown: AtomicBool::new(false),
                wake: wake_addr,
                sample_interval_ms: u64::try_from(
                    opts.harness.metrics.sample_interval.as_millis(),
                )
                .unwrap_or(u64::MAX),
            }),
        })
    }

    /// The address clients should connect to, in the same syntax
    /// [`Server::bind`] accepts (resolves a port-0 TCP bind).
    pub fn local_addr(&self) -> String {
        match &self.listener {
            Listener::Tcp(l) => l
                .local_addr()
                .map_or_else(|_| "<unknown>".to_string(), |a| a.to_string()),
            #[cfg(unix)]
            Listener::Unix(_, path) => format!("unix:{}", path.display()),
        }
    }

    /// Serves connections until a client sends the `shutdown` op, then
    /// joins every connection thread, drains the scheduler (every admitted
    /// submission gets its verdict; the store flushes), and returns the
    /// lifetime summary.
    pub fn run(self) -> ServerSummary {
        let mut threads = Vec::new();
        let mut connections: u64 = 0;
        loop {
            let accepted: io::Result<Box<dyn Conn>> = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_read_timeout(Some(IDLE_TICK));
                    Box::new(s) as Box<dyn Conn>
                }),
                #[cfg(unix)]
                Listener::Unix(l, _) => l.accept().map(|(s, _)| {
                    let _ = s.set_read_timeout(Some(IDLE_TICK));
                    Box::new(s) as Box<dyn Conn>
                }),
            };
            if self.ctx.shutdown.load(Ordering::Acquire) {
                // The accept that woke us is the shutdown waker (or a
                // too-late client); either way it is dropped unserved.
                break;
            }
            let stream = match accepted {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            connections += 1;
            let client = connections;
            let ctx = Arc::clone(&self.ctx);
            let handle = std::thread::Builder::new()
                .name("keq-server-conn".into())
                .spawn(move || {
                    let _ = handle_connection(stream, &ctx, client);
                })
                .expect("spawn connection thread");
            threads.push(handle);
        }
        // Connection threads need the live scheduler to finish the
        // requests they are serving: join them all *before* draining.
        for t in threads {
            let _ = t.join();
        }
        let fin = self.ctx.scheduler.drain();
        #[cfg(unix)]
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        ServerSummary { fin, connections }
    }
}

/// The server side of one connection, both transports look alike.
trait Conn: Read + Write + Send {}
impl Conn for TcpStream {}
#[cfg(unix)]
impl Conn for UnixStream {}

/// What one interruptible frame read produced.
enum FrameRead {
    Frame(String),
    Eof,
    Shutdown,
}

/// [`read_frame`], but the blocking read wakes up every [`IDLE_TICK`]
/// (via the stream's read timeout) to check the shutdown flag, and
/// partial bytes accumulate across those wake-ups instead of tearing the
/// frame.
fn read_frame_interruptible(
    r: &mut impl Read,
    shutdown: &AtomicBool,
) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    read_exact_interruptible(r, &mut len_buf, shutdown, true)?.map_or(
        Ok(FrameRead::Shutdown),
        |eof| {
            if eof {
                return Ok(FrameRead::Eof);
            }
            let len = u32::from_le_bytes(len_buf);
            if len > crate::protocol::MAX_FRAME_LEN {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length over bound"));
            }
            let mut buf = vec![0u8; len as usize];
            match read_exact_interruptible(r, &mut buf, shutdown, false)? {
                None => Ok(FrameRead::Shutdown),
                Some(true) => {
                    Err(io::Error::new(io::ErrorKind::InvalidData, "EOF mid frame"))
                }
                Some(false) => String::from_utf8(buf).map(FrameRead::Frame).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8")
                }),
            }
        },
    )
}

/// Fills `buf`, tolerating read-timeout wake-ups. Returns `None` when the
/// shutdown flag interrupted the read (the connection is being torn down —
/// any partial frame is abandoned with it), `Some(true)` on EOF before the
/// first byte (only accepted when `clean_eof_ok` — mid-frame EOF is an
/// error), `Some(false)` when `buf` is full.
fn read_exact_interruptible(
    r: &mut impl Read,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    clean_eof_ok: bool,
) -> io::Result<Option<bool>> {
    let mut at = 0;
    while at < buf.len() {
        match r.read(&mut buf[at..]) {
            Ok(0) if at == 0 && clean_eof_ok => return Ok(Some(true)),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::InvalidData, "EOF mid frame")),
            Ok(k) => at += k,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(false))
}

fn handle_connection(mut stream: Box<dyn Conn>, ctx: &ConnCtx, client: u64) -> io::Result<()> {
    loop {
        let text = match read_frame_interruptible(&mut stream, &ctx.shutdown)? {
            FrameRead::Eof | FrameRead::Shutdown => return Ok(()),
            FrameRead::Frame(text) => text,
        };
        let resp = match ClientRequest::parse(&text) {
            Err(detail) => ServerResponse::Error { detail },
            Ok(ClientRequest::Stats) => ServerResponse::Stats(ctx.stats()),
            Ok(ClientRequest::Metrics) => ServerResponse::Metrics(Box::new(ctx.metrics())),
            Ok(ClientRequest::Shutdown) => {
                write_frame(&mut stream, &ServerResponse::ShuttingDown.to_json_string())?;
                ctx.shutdown.store(true, Ordering::Release);
                wake(&ctx.wake);
                return Ok(());
            }
            Ok(ClientRequest::Validate { tag, unit, pass, ir, deadline_ms, max_attempts }) => {
                handle_validate(ctx, client, tag, unit, pass, &ir, deadline_ms, max_attempts)
            }
        };
        write_frame(&mut stream, &resp.to_json_string())?;
    }
}

/// Serves one `validate` op: parse the IR, submit every function under
/// the requested pass, await every verdict, assemble the response.
#[allow(clippy::too_many_arguments)]
fn handle_validate(
    ctx: &ConnCtx,
    client: u64,
    tag: u64,
    unit: u64,
    pass: keq_isel::PassId,
    ir: &str,
    deadline_ms: Option<u64>,
    max_attempts: Option<u32>,
) -> ServerResponse {
    let module = match parse_module(ir) {
        Ok(m) => Arc::new(m),
        Err(e) => return ServerResponse::Error { detail: e.to_string() },
    };
    let n = module.functions.len();
    let (reply_tx, reply_rx) = mpsc::channel();
    let mut submitted = 0usize;
    let mut rejection = None;
    for func in 0..n {
        let req_unit = unit + func as u64;
        let req = Request {
            module: Arc::clone(&module),
            func,
            pass,
            func_fp: journal::function_fingerprint(&module.functions[func]),
            // The fault/backoff unit and trace id key off the *request's*
            // unit, so an injected fault lands on the same logical unit a
            // batch run of the same corpus would hit.
            unit: req_unit,
            trace_id: req_unit as u32,
            client,
            tag: func as u64,
            deadline: deadline_ms.map(Duration::from_millis),
            max_attempts,
        };
        match ctx.scheduler.submit(req, reply_tx.clone()) {
            Ok(_) => submitted += 1,
            Err(rej) => {
                rejection = Some(rej);
                break;
            }
        }
    }
    // Await what *was* admitted even when the tail was rejected: the
    // admitted functions finalize normally (journal, cache, counters), the
    // client just learns the request as a whole did not fit.
    let mut slots: Vec<Option<Completion>> = (0..n).map(|_| None).collect();
    for _ in 0..submitted {
        let done = reply_rx.recv().expect("scheduler delivers every admitted verdict");
        let idx = done.tag as usize;
        slots[idx] = Some(done);
    }
    if let Some(rej) = rejection {
        return ServerResponse::RejectedRequest { tag, reason: rej.reason().to_string() };
    }
    let results = slots
        .into_iter()
        .enumerate()
        .map(|(index, c)| {
            let c = c.expect("every function finalized");
            FunctionVerdict {
                name: module.functions[index].name.clone(),
                index: index as u64,
                pass: pass.name().to_string(),
                result: c.result.kind().name().to_string(),
                attempts: c.attempts.len() as u64,
                queue_us: c.queue_us,
                wall_us: c.wall_us,
            }
        })
        .collect();
    ServerResponse::Validated { tag, results }
}

/// The client side of one connection, both transports look alike.
pub enum ClientConn {
    /// TCP transport.
    Tcp(TcpStream),
    /// Unix-domain-socket transport.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// Connects to a server address in [`Server::bind`] syntax.
///
/// # Errors
///
/// Propagates connect failures.
pub fn connect(addr: &str) -> io::Result<ClientConn> {
    match addr.strip_prefix("unix:") {
        None => TcpStream::connect(addr).map(ClientConn::Tcp),
        #[cfg(unix)]
        Some(path) => UnixStream::connect(path).map(ClientConn::Unix),
        #[cfg(not(unix))]
        Some(_) => Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "unix: addresses need a Unix platform",
        )),
    }
}

impl ClientConn {
    /// Sends one request and awaits its response.
    ///
    /// # Errors
    ///
    /// Stream errors, or `InvalidData` on a malformed response or a server
    /// that hung up mid-exchange.
    pub fn roundtrip(&mut self, req: &ClientRequest) -> io::Result<ServerResponse> {
        write_frame(self, &req.to_json_string())?;
        let payload = read_frame(self)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "server hung up"))?;
        ServerResponse::parse(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

impl Read for ClientConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientConn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientConn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientConn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientConn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientConn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientConn::Unix(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_workload::{generate_corpus, GenConfig};

    fn small_options() -> ServerOptions {
        ServerOptions {
            harness: HarnessOptions { workers: 2, ..HarnessOptions::default() },
            ..ServerOptions::default()
        }
    }

    fn corpus_ir(n: usize) -> String {
        generate_corpus(GenConfig { seed: 11, calls: false, ..GenConfig::default() }, n)
            .to_string()
    }

    #[test]
    fn tcp_validate_stats_shutdown_round_trip() {
        let server = Server::bind("127.0.0.1:0", &small_options()).expect("bind");
        let addr = server.local_addr();
        let run = std::thread::spawn(move || server.run());

        let mut conn = connect(&addr).expect("connect");
        let ir = corpus_ir(3);
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                pass: keq_isel::PassId::Isel,
                tag: 42,
                unit: 0,
                ir,
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("validate round trip");
        let ServerResponse::Validated { tag, results } = resp else {
            panic!("expected a verdict table, got {resp:?}");
        };
        assert_eq!(tag, 42);
        assert_eq!(results.len(), 3, "one verdict per function");
        for (i, v) in results.iter().enumerate() {
            assert_eq!(v.index, i as u64, "verdicts ordered by function index");
            assert!(v.attempts >= 1);
        }

        let resp = conn.roundtrip(&ClientRequest::Stats).expect("stats round trip");
        let ServerResponse::Stats(stats) = resp else {
            panic!("expected stats, got {resp:?}");
        };
        assert_eq!(stats.requests, 3, "three functions admitted");
        assert_eq!(stats.completed, 3);
        assert_eq!(stats.depth, 0);

        let resp = conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown round trip");
        assert_eq!(resp, ServerResponse::ShuttingDown);
        let summary = run.join().expect("server thread");
        assert_eq!(summary.fin.server.requests, 3);
        assert_eq!(summary.fin.server.completed, 3);
        assert_eq!(summary.connections, 1);
    }

    #[test]
    fn metrics_op_serves_the_full_telemetry_snapshot() {
        let mut opts = small_options();
        opts.harness.metrics =
            crate::scheduler::MetricsConfig { enabled: true, ..Default::default() };
        let server = Server::bind("127.0.0.1:0", &opts).expect("bind");
        let addr = server.local_addr();
        let run = std::thread::spawn(move || server.run());

        let mut conn = connect(&addr).expect("connect");
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                pass: keq_isel::PassId::Isel,
                tag: 1,
                unit: 0,
                ir: corpus_ir(4),
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("validate round trip");
        assert!(matches!(resp, ServerResponse::Validated { .. }), "{resp:?}");

        let resp = conn.roundtrip(&ClientRequest::Metrics).expect("metrics round trip");
        let ServerResponse::Metrics(m) = resp else {
            panic!("expected metrics, got {resp:?}");
        };
        assert!(m.enabled);
        assert_eq!(m.requests, 4, "one admitted submission per function");
        assert_eq!(m.completed, 4);
        assert!(m.p99_us >= m.p50_us, "{m:?}");
        assert!(m.p50_us > 0, "quantiles live after finalizations");
        assert!(!m.slow.is_empty(), "slow table populated");
        assert!(
            m.slow.windows(2).all(|w| w[0].wall_us >= w[1].wall_us),
            "slow table sorted by descending wall time"
        );
        for row in &m.slow {
            assert_eq!(row.fingerprint.len(), 16, "zero-padded hex fingerprint");
            assert!(row.attempts >= 1);
        }
        assert!(!m.shard_entries.is_empty(), "shard occupancy reported");
        assert!(
            m.prometheus.contains("# TYPE keq_requests_total counter"),
            "{}",
            m.prometheus
        );
        assert!(
            m.prometheus.contains("keq_slow_obligation_wall_us{fingerprint="),
            "{}",
            m.prometheus
        );

        // The stats op carries the same live quantiles.
        let resp = conn.roundtrip(&ClientRequest::Stats).expect("stats round trip");
        let ServerResponse::Stats(stats) = resp else {
            panic!("expected stats, got {resp:?}");
        };
        assert_eq!(stats.p50_us, m.p50_us);
        assert_eq!(stats.p99_us, m.p99_us);

        conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown");
        run.join().expect("server thread");
    }

    #[test]
    fn metrics_op_answers_with_registry_disabled() {
        let server = Server::bind("127.0.0.1:0", &small_options()).expect("bind");
        let addr = server.local_addr();
        let run = std::thread::spawn(move || server.run());

        let mut conn = connect(&addr).expect("connect");
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                pass: keq_isel::PassId::Isel,
                tag: 1,
                unit: 0,
                ir: corpus_ir(1),
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("validate round trip");
        assert!(matches!(resp, ServerResponse::Validated { .. }), "{resp:?}");
        let resp = conn.roundtrip(&ClientRequest::Metrics).expect("metrics round trip");
        let ServerResponse::Metrics(m) = resp else {
            panic!("expected metrics, got {resp:?}");
        };
        assert!(!m.enabled);
        // Live scheduler state is still meaningful with the registry off...
        assert_eq!(m.requests, 1);
        assert_eq!(m.completed, 1);
        assert!(m.p50_us > 0, "stats-grade quantiles survive the off switch");
        // ...while registry-backed surfaces read empty, not stale.
        assert_eq!(m.samples, 0);
        assert!(m.slow.is_empty(), "profiler off with the registry");

        conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown");
        run.join().expect("server thread");
    }

    #[test]
    fn malformed_frames_get_error_responses_and_the_connection_survives() {
        let server = Server::bind("127.0.0.1:0", &small_options()).expect("bind");
        let addr = server.local_addr();
        let run = std::thread::spawn(move || server.run());

        let mut conn = connect(&addr).expect("connect");
        // Bad JSON.
        write_frame(&mut conn, "this is not json").expect("send");
        let payload = read_frame(&mut conn).expect("read").expect("response");
        let resp = ServerResponse::parse(&payload).expect("parses");
        assert!(matches!(resp, ServerResponse::Error { .. }), "{resp:?}");
        // Bad IR.
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                pass: keq_isel::PassId::Isel,
                tag: 1,
                unit: 0,
                ir: "define nonsense".into(),
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("round trip");
        let ServerResponse::Error { detail } = resp else {
            panic!("expected a parse error, got {resp:?}");
        };
        assert!(detail.contains("parse error"), "{detail}");
        // The connection still serves real work afterwards.
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                pass: keq_isel::PassId::Isel,
                tag: 2,
                unit: 0,
                ir: corpus_ir(1),
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("round trip");
        assert!(matches!(resp, ServerResponse::Validated { .. }), "{resp:?}");

        conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown");
        run.join().expect("server thread");
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_transport_serves_and_cleans_up() {
        let path = std::env::temp_dir()
            .join(format!("keq-server-test-{}.sock", std::process::id()));
        let addr = format!("unix:{}", path.display());
        let server = Server::bind(&addr, &small_options()).expect("bind");
        assert_eq!(server.local_addr(), addr);
        let run = std::thread::spawn(move || server.run());

        let mut conn = connect(&addr).expect("connect");
        let resp = conn
            .roundtrip(&ClientRequest::Validate {
                pass: keq_isel::PassId::Isel,
                tag: 7,
                unit: 0,
                ir: corpus_ir(1),
                deadline_ms: None,
                max_attempts: None,
            })
            .expect("round trip");
        assert!(matches!(resp, ServerResponse::Validated { .. }), "{resp:?}");
        conn.roundtrip(&ClientRequest::Shutdown).expect("shutdown");
        let summary = run.join().expect("server thread");
        assert_eq!(summary.fin.server.requests, 1);
        assert!(!path.exists(), "socket file removed on shutdown");
    }
}
