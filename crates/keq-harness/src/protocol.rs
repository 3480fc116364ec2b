//! The `keq-server` wire protocol: length-framed JSON over a byte stream.
//!
//! Framing is four bytes of little-endian payload length followed by that
//! many bytes of UTF-8 JSON (one request or response per frame). JSON is
//! produced and parsed with [`keq_trace::Json`] — the same hermetic,
//! hand-rolled writer/parser the run reports use, so the daemon adds no
//! dependency and speaks the repo's one JSON idiom.
//!
//! Requests (client → server):
//!
//! ```json
//! {"op":"validate","tag":7,"unit":3,"deadline_ms":2000,"max_attempts":2,"ir":"define ..."}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `ir` is the textual LLVM fragment ([`keq_llvm::parser::parse_module`]
//! round-trips with the printer). `unit` keys the server's deterministic
//! fault plan exactly like a batch corpus index does, so a fault campaign
//! lands on the same units regardless of front end; function `i` of the
//! module gets `unit + i`. `deadline_ms`/`max_attempts` are optional
//! per-request overrides, clamped by the server's quota and retry policy.
//!
//! Responses (server → client):
//!
//! ```json
//! {"ok":true,"tag":7,"results":[{"name":"f0","index":0,"result":"succeeded",
//!   "attempts":1,"queue_us":120,"wall_us":5150}]}
//! {"ok":false,"tag":7,"rejected":"queue_full"}
//! {"ok":false,"error":"parse: ..."}
//! {"ok":true,"stats":{...}}
//! {"ok":true,"metrics":{...}}
//! {"ok":true,"draining":true}
//! ```
//!
//! The `metrics` response carries the full telemetry snapshot: live
//! gauges and counters, the sampled time series (the `keq_top` dashboard
//! plots these), the slow-obligation table, and the same registry rendered
//! as Prometheus text exposition (`prometheus` field) so a scrape bridge
//! is one field access away.

use std::io::{self, Read, Write};

use keq_trace::json::{self, Json};
use keq_trace::{CacheCounters, RequestCounters, SolverCounters};

/// Upper bound on one frame's payload (anything larger is treated as a
/// corrupt or hostile stream, not buffered).
pub const MAX_FRAME_LEN: u32 = 16 << 20;

/// Writes one frame: `u32` little-endian length, then the payload.
///
/// The length and the payload go out in one `write_all`. Over TCP two
/// writes would be two segments: Nagle's algorithm holds the second until
/// the peer ACKs the first, and the peer delays that ACK, so every request
/// and every response would wait tens of milliseconds for nothing.
///
/// # Errors
///
/// Propagates stream errors; rejects payloads over [`MAX_FRAME_LEN`] with
/// [`io::ErrorKind::InvalidInput`] before writing anything.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
///
/// Propagates stream errors; an EOF mid-frame, an oversized length, or
/// non-UTF-8 payload is [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut at = 0;
    while at < len_buf.len() {
        match r.read(&mut len_buf[at..]) {
            Ok(0) if at == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "EOF mid frame header"))
            }
            Ok(k) => at += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length over bound"));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientRequest {
    /// Validate every function of a textual IR module.
    Validate {
        /// Opaque tag echoed in the response.
        tag: u64,
        /// Fault unit of the module's first function (function `i`
        /// gets `unit + i`).
        unit: u64,
        /// Which validated pass to run (wire field `pass`, optional — a
        /// request without one gets the classic ISel validation, so v6
        /// clients keep working unchanged).
        pass: keq_isel::PassId,
        /// Textual IR module.
        ir: String,
        /// Optional per-request deadline override, milliseconds.
        deadline_ms: Option<u64>,
        /// Optional per-request retry-ladder cap.
        max_attempts: Option<u32>,
    },
    /// Fetch live server counters.
    Stats,
    /// Fetch the full telemetry snapshot: registry values, sampled time
    /// series, the slow-obligation table, and a Prometheus rendering.
    Metrics,
    /// Drain and exit.
    Shutdown,
}

impl ClientRequest {
    /// Serializes the request as one compact JSON payload.
    pub fn to_json_string(&self) -> String {
        let doc = match self {
            ClientRequest::Validate { tag, unit, pass, ir, deadline_ms, max_attempts } => {
                let mut fields = vec![
                    ("op", Json::Str("validate".into())),
                    ("tag", json::num(*tag)),
                    ("unit", json::num(*unit)),
                    ("pass", Json::Str(pass.name().into())),
                ];
                if let Some(ms) = deadline_ms {
                    fields.push(("deadline_ms", json::num(*ms)));
                }
                if let Some(n) = max_attempts {
                    fields.push(("max_attempts", json::num(u64::from(*n))));
                }
                fields.push(("ir", Json::Str(ir.clone())));
                json::obj(fields)
            }
            ClientRequest::Stats => json::obj(vec![("op", Json::Str("stats".into()))]),
            ClientRequest::Metrics => json::obj(vec![("op", Json::Str("metrics".into()))]),
            ClientRequest::Shutdown => json::obj(vec![("op", Json::Str("shutdown".into()))]),
        };
        let mut out = String::new();
        doc.write_compact(&mut out);
        out
    }

    /// Parses one request payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed (sent back to the
    /// client as an error response).
    pub fn parse(text: &str) -> Result<ClientRequest, String> {
        let doc = Json::parse(text).map_err(|e| format!("json: {e:?}"))?;
        let op = doc.get("op").and_then(Json::as_str).ok_or("missing \"op\"")?;
        match op {
            "validate" => {
                let tag = doc.get("tag").and_then(Json::as_u64).ok_or("validate: missing tag")?;
                let unit = doc.get("unit").and_then(Json::as_u64).unwrap_or(0);
                let ir =
                    doc.get("ir").and_then(Json::as_str).ok_or("validate: missing ir")?.to_string();
                let pass = match doc.get("pass").and_then(Json::as_str) {
                    None => keq_isel::PassId::Isel,
                    Some(name) => keq_isel::PassId::parse(name)
                        .ok_or_else(|| format!("validate: unknown pass \"{name}\""))?,
                };
                let deadline_ms = doc.get("deadline_ms").and_then(Json::as_u64);
                let max_attempts = doc
                    .get("max_attempts")
                    .and_then(Json::as_u64)
                    .map(|n| u32::try_from(n).unwrap_or(u32::MAX));
                Ok(ClientRequest::Validate { tag, unit, pass, ir, deadline_ms, max_attempts })
            }
            "stats" => Ok(ClientRequest::Stats),
            "metrics" => Ok(ClientRequest::Metrics),
            "shutdown" => Ok(ClientRequest::Shutdown),
            other => Err(format!("unknown op \"{other}\"")),
        }
    }
}

/// One per-function verdict inside a validate response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionVerdict {
    /// Function name.
    pub name: String,
    /// Index within the submitted module.
    pub index: u64,
    /// Validated pass (stable wire name, e.g. `"isel"`).
    pub pass: String,
    /// Final result category (stable wire name).
    pub result: String,
    /// Attempts consumed.
    pub attempts: u64,
    /// Submit → first worker pickup, µs.
    pub queue_us: u64,
    /// Submit → verdict, µs.
    pub wall_us: u64,
}

impl FunctionVerdict {
    fn to_json(&self) -> Json {
        json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("index", json::num(self.index)),
            ("pass", Json::Str(self.pass.clone())),
            ("result", Json::Str(self.result.clone())),
            ("attempts", json::num(self.attempts)),
            ("queue_us", json::num(self.queue_us)),
            ("wall_us", json::num(self.wall_us)),
        ])
    }

    fn from_json(doc: &Json) -> Option<FunctionVerdict> {
        Some(FunctionVerdict {
            name: doc.get("name")?.as_str()?.to_string(),
            index: doc.get("index")?.as_u64()?,
            // Absent on v6 wires: those rows are ISel verdicts.
            pass: doc
                .get("pass")
                .and_then(Json::as_str)
                .unwrap_or(keq_isel::PassId::Isel.name())
                .to_string(),
            result: doc.get("result")?.as_str()?.to_string(),
            attempts: doc.get("attempts")?.as_u64()?,
            queue_us: doc.get("queue_us")?.as_u64()?,
            wall_us: doc.get("wall_us")?.as_u64()?,
        })
    }
}

/// The live view the `stats` op returns, and the headline of the
/// `metrics` op.
///
/// Its counters are the counter tables' own types
/// ([`keq_trace::counters`]); only the gauges are declared here. On the
/// wire it is flat: the request counters' keys, `depth`, the solver's
/// obligation-cache lookups as `cache_hits` and `cache_misses`, the cache's
/// `entries` as `cache_entries`, and the latency quantiles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request counters since boot.
    pub server: RequestCounters,
    /// Solver counters of every attempt finished since boot (the wire
    /// carries its obligation-cache lookups).
    pub solver: SolverCounters,
    /// The obligation cache right now (the wire carries `entries`).
    pub cache: CacheCounters,
    /// Accepted-but-unfinalized submissions right now.
    pub depth: u64,
    /// Median request latency (submit → verdict), µs. Maintained live by
    /// the scheduler even with the metrics registry off.
    pub p50_us: u64,
    /// 90th-percentile request latency, µs.
    pub p90_us: u64,
    /// 99th-percentile request latency, µs.
    pub p99_us: u64,
}

impl StatsSnapshot {
    /// The flat wire pairs; `depth_key` names the depth gauge (`depth` in
    /// `stats`, `queue_depth` in `metrics`).
    fn json_fields(&self, depth_key: &'static str) -> Vec<(&'static str, Json)> {
        let mut fields = self.server.json_fields();
        fields.extend([
            (depth_key, json::num(self.depth)),
            ("cache_hits", json::num(self.solver.obligation_cache_hits)),
            ("cache_misses", json::num(self.solver.obligation_cache_misses)),
            ("cache_entries", json::num(self.cache.entries)),
            ("p50_us", json::num(self.p50_us)),
            ("p90_us", json::num(self.p90_us)),
            ("p99_us", json::num(self.p99_us)),
        ]);
        fields
    }

    fn from_json(doc: &Json, depth_key: &str) -> Option<StatsSnapshot> {
        let num = |k: &str| doc.get(k).and_then(Json::as_u64);
        Some(StatsSnapshot {
            server: RequestCounters::from_json(doc)?,
            solver: SolverCounters {
                obligation_cache_hits: num("cache_hits")?,
                obligation_cache_misses: num("cache_misses")?,
                ..SolverCounters::default()
            },
            cache: CacheCounters { entries: num("cache_entries")?, ..CacheCounters::default() },
            depth: num(depth_key)?,
            p50_us: num("p50_us")?,
            p90_us: num("p90_us")?,
            p99_us: num("p99_us")?,
        })
    }
}

/// The full telemetry snapshot returned by the `metrics` op.
///
/// Everything the `keq_top` dashboard renders in one frame: the `stats`
/// view, worker gauges, completion rate, the sampled time series (shape of
/// [`keq_trace::metrics::Collector::to_json`]), obligation-cache shard
/// occupancy, the slow-obligation table, and the same registry rendered as
/// Prometheus text exposition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Whether the server's metrics registry is live (`--metrics`). The
    /// `stats` view is maintained either way; the series, registry
    /// counters, and Prometheus text are all-zero when off.
    pub enabled: bool,
    /// Milliseconds since the scheduler started.
    pub uptime_ms: u64,
    /// The `stats` op's view, flat on the wire (its depth as
    /// `queue_depth`).
    pub stats: StatsSnapshot,
    /// Workers running an attempt right now.
    pub workers_busy: u64,
    /// Workers waiting for work right now.
    pub workers_idle: u64,
    /// Completions per second over the most recent sample window.
    pub rate_per_sec: f64,
    /// Collector samples taken so far.
    pub samples: u64,
    /// Live entry count of each obligation-cache shard, in shard order.
    pub shard_entries: Vec<u64>,
    /// The sampled time series:
    /// `[{"name":..., "points":[[t_ms, v], ...]}, ...]`.
    pub series: Json,
    /// Top-K slowest obligations, descending wall time.
    pub slow: Vec<keq_trace::SlowObligation>,
    /// The registry plus the slow table in Prometheus text exposition.
    pub prometheus: String,
}

impl Default for MetricsReport {
    fn default() -> Self {
        MetricsReport {
            enabled: false,
            uptime_ms: 0,
            stats: StatsSnapshot::default(),
            workers_busy: 0,
            workers_idle: 0,
            rate_per_sec: 0.0,
            samples: 0,
            shard_entries: Vec::new(),
            series: Json::Arr(Vec::new()),
            slow: Vec::new(),
            prometheus: String::new(),
        }
    }
}

impl MetricsReport {
    fn to_json(&self) -> Json {
        let mut fields =
            vec![("enabled", Json::Bool(self.enabled)), ("uptime_ms", json::num(self.uptime_ms))];
        fields.extend(self.stats.json_fields("queue_depth"));
        fields.extend([
            ("workers_busy", json::num(self.workers_busy)),
            ("workers_idle", json::num(self.workers_idle)),
            ("rate_per_sec", Json::Num(self.rate_per_sec)),
            ("samples", json::num(self.samples)),
            (
                "shard_entries",
                Json::Arr(self.shard_entries.iter().map(|&v| json::num(v)).collect()),
            ),
            ("series", self.series.clone()),
            ("slow", Json::Arr(self.slow.iter().map(keq_trace::SlowObligation::to_json).collect())),
            ("prometheus", Json::Str(self.prometheus.clone())),
        ]);
        json::obj(fields)
    }

    fn from_json(doc: &Json) -> Option<MetricsReport> {
        let num = |k: &str| doc.get(k).and_then(Json::as_u64);
        Some(MetricsReport {
            enabled: doc.get("enabled").and_then(Json::as_bool)?,
            uptime_ms: num("uptime_ms")?,
            stats: StatsSnapshot::from_json(doc, "queue_depth")?,
            workers_busy: num("workers_busy")?,
            workers_idle: num("workers_idle")?,
            rate_per_sec: doc.get("rate_per_sec").and_then(Json::as_f64)?,
            samples: num("samples")?,
            shard_entries: doc
                .get("shard_entries")?
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<Vec<_>>>()?,
            series: doc.get("series")?.clone(),
            slow: doc
                .get("slow")?
                .as_arr()?
                .iter()
                .map(keq_trace::SlowObligation::from_json)
                .collect::<Option<Vec<_>>>()?,
            prometheus: doc.get("prometheus")?.as_str()?.to_string(),
        })
    }
}

/// One parsed server response.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerResponse {
    /// Every function of the request validated to a verdict.
    Validated {
        /// The request's tag.
        tag: u64,
        /// Per-function verdicts, ordered by index.
        results: Vec<FunctionVerdict>,
    },
    /// The scheduler's gate bounced the request.
    RejectedRequest {
        /// The request's tag.
        tag: u64,
        /// Stable rejection reason (`queue_full` / `quota` / `draining`).
        reason: String,
    },
    /// The request itself was malformed (bad JSON, bad IR).
    Error {
        /// Human-readable description.
        detail: String,
    },
    /// Live counters.
    Stats(Box<StatsSnapshot>),
    /// The full telemetry snapshot.
    Metrics(Box<MetricsReport>),
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
}

impl ServerResponse {
    /// Serializes the response as one compact JSON payload.
    pub fn to_json_string(&self) -> String {
        let doc = match self {
            ServerResponse::Validated { tag, results } => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("tag", json::num(*tag)),
                ("results", Json::Arr(results.iter().map(FunctionVerdict::to_json).collect())),
            ]),
            ServerResponse::RejectedRequest { tag, reason } => json::obj(vec![
                ("ok", Json::Bool(false)),
                ("tag", json::num(*tag)),
                ("rejected", Json::Str(reason.clone())),
            ]),
            ServerResponse::Error { detail } => {
                json::obj(vec![("ok", Json::Bool(false)), ("error", Json::Str(detail.clone()))])
            }
            ServerResponse::Stats(stats) => json::obj(vec![
                ("ok", Json::Bool(true)),
                ("stats", json::obj(stats.json_fields("depth"))),
            ]),
            ServerResponse::Metrics(report) => {
                json::obj(vec![("ok", Json::Bool(true)), ("metrics", report.to_json())])
            }
            ServerResponse::ShuttingDown => {
                json::obj(vec![("ok", Json::Bool(true)), ("draining", Json::Bool(true))])
            }
        };
        let mut out = String::new();
        doc.write_compact(&mut out);
        out
    }

    /// Parses one response payload.
    ///
    /// # Errors
    ///
    /// A human-readable description of what is malformed.
    pub fn parse(text: &str) -> Result<ServerResponse, String> {
        let doc = Json::parse(text).map_err(|e| format!("json: {e:?}"))?;
        let ok = doc.get("ok").and_then(Json::as_bool).ok_or("missing \"ok\"")?;
        if !ok {
            if let Some(detail) = doc.get("error").and_then(Json::as_str) {
                return Ok(ServerResponse::Error { detail: detail.to_string() });
            }
            let tag = doc.get("tag").and_then(Json::as_u64).ok_or("rejection: missing tag")?;
            let reason = doc
                .get("rejected")
                .and_then(Json::as_str)
                .ok_or("rejection: missing reason")?
                .to_string();
            return Ok(ServerResponse::RejectedRequest { tag, reason });
        }
        if doc.get("draining").and_then(Json::as_bool) == Some(true) {
            return Ok(ServerResponse::ShuttingDown);
        }
        if let Some(metrics) = doc.get("metrics") {
            let report = MetricsReport::from_json(metrics).ok_or("metrics: malformed report")?;
            return Ok(ServerResponse::Metrics(Box::new(report)));
        }
        if let Some(stats) = doc.get("stats") {
            let snapshot =
                StatsSnapshot::from_json(stats, "depth").ok_or("stats: malformed counters")?;
            return Ok(ServerResponse::Stats(Box::new(snapshot)));
        }
        let tag = doc.get("tag").and_then(Json::as_u64).ok_or("validated: missing tag")?;
        let results = doc
            .get("results")
            .and_then(Json::as_arr)
            .ok_or("validated: missing results")?
            .iter()
            .map(FunctionVerdict::from_json)
            .collect::<Option<Vec<_>>>()
            .ok_or("validated: malformed result row")?;
        Ok(ServerResponse::Validated { tag, results })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "{\"op\":\"stats\"}").expect("write");
        write_frame(&mut wire, "second ☃ frame").expect("write");
        let mut r = &wire[..];
        assert_eq!(read_frame(&mut r).expect("frame 1").as_deref(), Some("{\"op\":\"stats\"}"));
        assert_eq!(read_frame(&mut r).expect("frame 2").as_deref(), Some("second ☃ frame"));
        assert_eq!(read_frame(&mut r).expect("clean EOF"), None);
    }

    #[test]
    fn torn_and_oversized_frames_are_errors() {
        let mut wire = Vec::new();
        write_frame(&mut wire, "hello").expect("write");
        wire.truncate(wire.len() - 2); // tear the payload
        let mut r = &wire[..];
        assert!(read_frame(&mut r).is_err(), "torn payload is an error, not a short frame");

        let mut oversized = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        oversized.extend_from_slice(b"xx");
        let mut r = &oversized[..];
        assert!(read_frame(&mut r).is_err(), "oversized length bound rejected");

        let mut header_torn = vec![3u8, 0];
        let mut r = &header_torn[..];
        assert!(read_frame(&mut r).is_err(), "EOF mid header is an error");
        header_torn.clear();
        let mut r = &header_torn[..];
        assert_eq!(read_frame(&mut r).expect("empty stream"), None);
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [String::new(), "x".to_string(), "{\"k\":7}".repeat(1024)] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, &payload).expect("write");
            let len = payload.len();
            assert_eq!(w.writes, 1, "{len}-byte payload: length and payload in one write");
            let mut r = &w.bytes[..];
            assert_eq!(read_frame(&mut r).expect("frame").as_deref(), Some(payload.as_str()));
        }
    }

    #[test]
    fn an_oversized_frame_writes_nothing() {
        let payload = "x".repeat(MAX_FRAME_LEN as usize + 1);
        let mut w = CountingWriter::default();
        let err = write_frame(&mut w, &payload).expect_err("over the bound");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!((w.writes, w.bytes.len()), (0, 0), "nothing reaches the stream");
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = vec![
            ClientRequest::Validate {
                tag: 9,
                unit: 4,
                pass: keq_isel::PassId::Regalloc,
                ir: "define i32 @f() {\nentry:\n  ret i32 0\n}\n".into(),
                deadline_ms: Some(1500),
                max_attempts: Some(2),
            },
            ClientRequest::Validate {
                tag: 0,
                unit: 0,
                pass: keq_isel::PassId::Isel,
                ir: String::new(),
                deadline_ms: None,
                max_attempts: None,
            },
            ClientRequest::Stats,
            ClientRequest::Metrics,
            ClientRequest::Shutdown,
        ];
        for req in reqs {
            let text = req.to_json_string();
            assert_eq!(ClientRequest::parse(&text).expect("parses"), req, "{text}");
        }
        assert!(ClientRequest::parse("{\"op\":\"nope\"}").is_err());
        assert!(ClientRequest::parse("{}").is_err());
        assert!(ClientRequest::parse("not json").is_err());
    }

    #[test]
    fn passless_validate_requests_default_to_isel() {
        // A v6 client that never heard of passes still validates ISel.
        let req =
            ClientRequest::parse("{\"op\":\"validate\",\"tag\":1,\"ir\":\"\"}").expect("parses");
        assert!(matches!(req, ClientRequest::Validate { pass: keq_isel::PassId::Isel, .. }));
        assert_eq!(
            ClientRequest::parse("{\"op\":\"validate\",\"tag\":1,\"ir\":\"\",\"pass\":\"warp\"}")
                .unwrap_err(),
            "validate: unknown pass \"warp\""
        );
    }

    #[test]
    fn passless_verdict_rows_decode_as_isel() {
        let resp = ServerResponse::parse(
            "{\"ok\":true,\"tag\":1,\"results\":[{\"name\":\"f\",\"index\":0,\
\"result\":\"succeeded\",\"attempts\":1,\"queue_us\":0,\"wall_us\":5}]}",
        )
        .expect("parses");
        let ServerResponse::Validated { results, .. } = resp else { panic!("wrong variant") };
        assert_eq!(results[0].pass, "isel");
    }

    #[test]
    fn responses_round_trip_through_json() {
        let resps = vec![
            ServerResponse::Validated {
                tag: 3,
                results: vec![FunctionVerdict {
                    name: "f0".into(),
                    index: 0,
                    pass: "gvn".into(),
                    result: "succeeded".into(),
                    attempts: 2,
                    queue_us: 40,
                    wall_us: 9000,
                }],
            },
            ServerResponse::Validated { tag: 8, results: vec![] },
            ServerResponse::RejectedRequest { tag: 5, reason: "queue_full".into() },
            ServerResponse::Error { detail: "parse: bad ir \"x\"".into() },
            ServerResponse::Stats(Box::new(StatsSnapshot {
                server: RequestCounters {
                    requests: 10,
                    completed: 8,
                    rejected_queue_full: 1,
                    rejected_quota: 1,
                    rejected_draining: 3,
                    disconnects: 0,
                },
                solver: SolverCounters {
                    obligation_cache_hits: 30,
                    obligation_cache_misses: 12,
                    ..SolverCounters::default()
                },
                cache: CacheCounters { entries: 12, ..CacheCounters::default() },
                depth: 2,
                p50_us: 900,
                p90_us: 4_000,
                p99_us: 15_000,
            })),
            ServerResponse::Metrics(Box::new(MetricsReport {
                enabled: true,
                uptime_ms: 12_500,
                stats: StatsSnapshot {
                    server: RequestCounters {
                        requests: 40,
                        completed: 37,
                        ..RequestCounters::default()
                    },
                    solver: SolverCounters {
                        obligation_cache_hits: 100,
                        obligation_cache_misses: 25,
                        ..SolverCounters::default()
                    },
                    cache: CacheCounters { entries: 25, ..CacheCounters::default() },
                    depth: 3,
                    p50_us: 800,
                    p90_us: 3_500,
                    p99_us: 12_000,
                },
                workers_busy: 2,
                workers_idle: 2,
                rate_per_sec: 3.5,
                samples: 50,
                shard_entries: vec![3, 0, 7, 1],
                series: Json::Arr(vec![json::obj(vec![
                    ("name", Json::Str("keq_queue_depth".into())),
                    ("points", Json::Arr(vec![Json::Arr(vec![json::num(250), json::num(3)])])),
                ])]),
                slow: vec![keq_trace::SlowObligation {
                    fingerprint: "00000000deadbeef".into(),
                    label: "@hot_loop".into(),
                    wall_us: 1_900_000,
                    result: "succeeded".into(),
                    attempts: 2,
                    retries: 1,
                    phase_us: vec![
                        (keq_trace::Phase::Lower, 200_000),
                        (keq_trace::Phase::Cdcl, 1_500_000),
                    ],
                    solver: Default::default(),
                }],
                prometheus: "# HELP keq_requests_total Submissions accepted since boot.\n".into(),
            })),
            ServerResponse::Metrics(Box::default()),
            ServerResponse::ShuttingDown,
        ];
        for resp in resps {
            let text = resp.to_json_string();
            assert_eq!(ServerResponse::parse(&text).expect("parses"), resp, "{text}");
        }
    }
}
