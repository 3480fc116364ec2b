//! Write-ahead verdict journal: crash-safe corpus runs.
//!
//! A killed corpus run used to lose every completed verdict. The journal
//! makes finalized verdicts durable as they happen: the supervisor appends
//! one checksummed record per finalized function (write-ahead with respect
//! to the summary, not to the validation itself — a record exists only for
//! *decided* functions), and a restarted run with `resume: true` recovers
//! those records, skips the decided functions, and merges their rows into
//! the summary as if the run had never died.
//!
//! # On-disk format (hermetic, hand-rolled — the `obcache` idiom)
//!
//! ```text
//! header:  magic "KEQWAL01" (8 bytes)
//!          journal format version  u32 LE
//!          corpus fingerprint      u64 LE
//! record:  payload length          u32 LE
//!          function index          u32 LE
//!          function fingerprint    u64 LE
//!          attempts                u32 LE
//!          wall time               u64 LE (µs)
//!          pass id                 u8 ([`PassId::code`])
//!          result tag              u8
//!          message length          u32 LE + bytes   (crash-class tags)
//!          location flag           u8
//!          location length         u32 LE + bytes   (when flag = 1)
//!          FNV-1a-32 checksum of the payload  u32 LE
//! ```
//!
//! Loading is fail-soft and record-by-record, exactly like the obligation
//! store: a header mismatch (foreign file, stale version, *different
//! corpus*) discards the whole journal; a record with a bad checksum or
//! malformed payload is skipped and counted; a torn tail (the record a
//! kill interrupted) ends the scan, keeping everything before it. Nothing
//! panics — a corrupted journal only means some functions are re-validated.
//!
//! A resumed writer first rewrites the journal to its valid prefix
//! (dropping the torn tail) so appended records always follow well-formed
//! framing. Appends are one `write` call per record: a mid-append kill
//! tears at most the final record.
//!
//! # Fsync policy
//!
//! Appends are buffered (`flush`, no fsync). Replay is idempotent — a tail
//! record lost to a power failure is simply re-validated by the next
//! resume — so per-record fsync latency buys nothing but wall time.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use keq_isel::PassId;
use keq_llvm::ast::{Function, Module};
use keq_smt::obcache::StoreIo;
use keq_smt::wire::{self, fnv1a64};

use crate::result::CorpusResult;

/// Journal file magic.
pub const JOURNAL_MAGIC: &[u8; 8] = b"KEQWAL01";
/// On-disk journal format version. Version 2 added the pass byte — which
/// [`PassId`] the verdict belongs to — so one journal can interleave
/// verdicts of several validated passes over the same corpus. A v1 journal
/// fails the header check and is discarded wholesale (its functions are
/// simply re-validated), matching the usual stale-version policy.
pub const JOURNAL_VERSION: u32 = 2;

const HEADER_LEN: usize = wire::HEADER_LEN;
/// Panic messages/locations are clamped to this many bytes when encoding.
const MAX_STR_LEN: usize = 4 << 10;
/// Upper bound accepted for one record payload when reading.
const MAX_PAYLOAD_LEN: u32 = 16 << 10;

/// The identity of one function for resume matching: FNV-1a-64 over its
/// printed IR. Resume accepts a journal record only when both the function
/// index *and* this fingerprint match, so a reordered or regenerated
/// corpus can never inherit a stale verdict.
pub fn function_fingerprint(func: &Function) -> u64 {
    fnv1a64(func.to_string().as_bytes())
}

/// The identity of a whole corpus: the fold of its function fingerprints
/// (order-sensitive). A journal whose header names a different corpus is
/// discarded wholesale at load.
pub fn corpus_fingerprint(module: &Module) -> u64 {
    fingerprint_of(&module.functions.iter().map(function_fingerprint).collect::<Vec<_>>())
}

/// [`corpus_fingerprint`] from precomputed per-function fingerprints.
pub fn fingerprint_of(func_fps: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(func_fps.len() * 8);
    for fp in func_fps {
        bytes.extend_from_slice(&fp.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// One journaled verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Function index in the corpus.
    pub func: u32,
    /// [`function_fingerprint`] of the function.
    pub func_fp: u64,
    /// Attempts the function took before finalizing.
    pub attempts: u32,
    /// Total validation wall time across those attempts, µs.
    pub time_us: u64,
    /// Which pass the verdict validates.
    pub pass: PassId,
    /// The final verdict.
    pub result: CorpusResult,
}

fn result_tag(result: &CorpusResult) -> u8 {
    match result {
        CorpusResult::Succeeded => 0,
        CorpusResult::Timeout => 1,
        CorpusResult::OutOfMemory => 2,
        CorpusResult::Crashed { .. } => 3,
        CorpusResult::Other => 4,
        CorpusResult::Quarantined { .. } => 5,
    }
}

fn clamp_str(s: &str) -> &str {
    if s.len() <= MAX_STR_LEN {
        return s;
    }
    let mut end = MAX_STR_LEN;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

impl JournalRecord {
    /// The journaled wall time as a [`Duration`].
    pub fn time(&self) -> Duration {
        Duration::from_micros(self.time_us)
    }

    fn encode_payload(&self) -> Vec<u8> {
        let (message, location) = match &self.result {
            CorpusResult::Crashed { message, location }
            | CorpusResult::Quarantined { message, location } => {
                (clamp_str(message), location.as_deref().map(clamp_str))
            }
            _ => ("", None),
        };
        let mut p = Vec::with_capacity(30 + message.len() + location.map_or(0, str::len));
        p.extend_from_slice(&self.func.to_le_bytes());
        p.extend_from_slice(&self.func_fp.to_le_bytes());
        p.extend_from_slice(&self.attempts.to_le_bytes());
        p.extend_from_slice(&self.time_us.to_le_bytes());
        p.push(self.pass.code());
        p.push(result_tag(&self.result));
        p.extend_from_slice(&(message.len() as u32).to_le_bytes());
        p.extend_from_slice(message.as_bytes());
        match location {
            Some(loc) => {
                p.push(1);
                p.extend_from_slice(&(loc.len() as u32).to_le_bytes());
                p.extend_from_slice(loc.as_bytes());
            }
            None => p.push(0),
        }
        p
    }

    /// One framed record: length, payload, checksum.
    fn encode(&self) -> Vec<u8> {
        wire::frame_record(&self.encode_payload())
    }

    fn decode_payload(p: &[u8]) -> Option<JournalRecord> {
        // Fixed head: func(4) fp(8) attempts(4) time(8) pass(1) tag(1)
        // msg_len(4).
        if p.len() < 30 {
            return None;
        }
        let func = u32::from_le_bytes(p[0..4].try_into().ok()?);
        let func_fp = u64::from_le_bytes(p[4..12].try_into().ok()?);
        let attempts = u32::from_le_bytes(p[12..16].try_into().ok()?);
        let time_us = u64::from_le_bytes(p[16..24].try_into().ok()?);
        let pass = PassId::from_code(p[24])?;
        let tag = p[25];
        let msg_len = u32::from_le_bytes(p[26..30].try_into().ok()?) as usize;
        let mut at = 30;
        let message = String::from_utf8_lossy(p.get(at..at + msg_len)?).into_owned();
        at += msg_len;
        let location = match *p.get(at)? {
            0 => {
                at += 1;
                None
            }
            1 => {
                at += 1;
                let loc_len = u32::from_le_bytes(p.get(at..at + 4)?.try_into().ok()?) as usize;
                at += 4;
                let loc = String::from_utf8_lossy(p.get(at..at + loc_len)?).into_owned();
                at += loc_len;
                Some(loc)
            }
            _ => return None,
        };
        if at != p.len() {
            return None;
        }
        let result = match tag {
            0 => CorpusResult::Succeeded,
            1 => CorpusResult::Timeout,
            2 => CorpusResult::OutOfMemory,
            3 => CorpusResult::Crashed { message, location },
            4 => CorpusResult::Other,
            5 => CorpusResult::Quarantined { message, location },
            _ => return None,
        };
        Some(JournalRecord { func, func_fp, attempts, time_us, pass, result })
    }
}

/// What [`load`] recovered.
#[derive(Debug, Clone, Default)]
pub struct JournalLoad {
    /// Well-formed records, in append order.
    pub records: Vec<JournalRecord>,
    /// Corrupt records skipped fail-soft (bad checksum, malformed payload,
    /// torn tail).
    pub corrupt: u64,
    /// The whole journal was discarded: missing file, foreign magic, stale
    /// version, or a different corpus fingerprint. The writer starts from a
    /// fresh header.
    pub reset: bool,
    /// The journal bytes up to where the scan stopped cleanly (header plus
    /// every structurally-framed record). A resumed writer rewrites the
    /// file to exactly this prefix before appending, so a torn tail can
    /// never swallow records appended after it.
    pub valid_prefix: Vec<u8>,
}

/// Loads a journal. Fail-soft: any corruption is tolerated record-by-record
/// and an unusable journal simply recovers nothing (see the module docs).
pub fn load(path: &Path, corpus_fp: u64, io: &dyn StoreIo) -> JournalLoad {
    let mut out = JournalLoad::default();
    let mut buf = match io.read(path) {
        Ok(buf) => buf,
        Err(_) => {
            out.reset = true;
            return out;
        }
    };
    if wire::decode_header(&buf, JOURNAL_MAGIC, JOURNAL_VERSION) != Some(corpus_fp) {
        out.reset = true;
        return out;
    }
    let mut valid_end = HEADER_LEN;
    let mut scan = wire::RecordScanner::new(&buf, MAX_PAYLOAD_LEN);
    for rec in scan.by_ref() {
        // The framing was intact, so appends after this record are safe
        // even when the record itself is rejected.
        valid_end = rec.end;
        if !rec.crc_ok {
            out.corrupt += 1;
            continue;
        }
        match JournalRecord::decode_payload(rec.payload) {
            Some(rec) => out.records.push(rec),
            None => out.corrupt += 1,
        }
    }
    if scan.torn() {
        // Torn tail (or a corrupted length that frames past the end): the
        // scan cannot resynchronize, so it stopped there.
        out.corrupt += 1;
    }
    buf.truncate(valid_end);
    out.valid_prefix = buf;
    out
}

/// Consecutive storage-write failures after which a target degrades to
/// memory-only for the rest of the run.
pub(crate) const STORE_BREAKER_THRESHOLD: u32 = 3;

/// The circuit breaker of one storage target (the journal or the
/// obligation store): every failed write emits a
/// [`keq_trace::Event::StoreError`], and the [`STORE_BREAKER_THRESHOLD`]-th
/// consecutive one trips it with a [`keq_trace::Event::StoreDegraded`],
/// instead of hammering a sick disk once per finalization.
#[derive(Debug)]
pub(crate) struct Breaker {
    target: &'static str,
    consecutive: u32,
}

impl Breaker {
    pub(crate) fn new(target: &'static str) -> Breaker {
        Breaker { target, consecutive: 0 }
    }

    pub(crate) fn success(&mut self) {
        self.consecutive = 0;
    }

    /// Counts one failed `op`; returns whether this failure tripped the
    /// breaker.
    pub(crate) fn failure(&mut self, op: &'static str, err: &std::io::Error) -> bool {
        self.consecutive += 1;
        if keq_trace::enabled() {
            keq_trace::emit(keq_trace::Event::StoreError {
                target: self.target,
                op,
                detail: err.to_string(),
            });
        }
        let tripped = self.consecutive >= STORE_BREAKER_THRESHOLD;
        if tripped {
            self.trip();
        }
        tripped
    }

    /// Degrades the target now. Losing storage is exactly when buffered
    /// trace lines must reach disk, so this flushes the sink.
    pub(crate) fn trip(&self) {
        keq_trace::emit(keq_trace::Event::StoreDegraded {
            target: self.target,
            failures: self.consecutive,
        });
        keq_trace::flush_sink();
    }
}

/// The append half of the journal, behind its own circuit breaker: once it
/// trips the writer degrades to a no-op (the run continues memory-only;
/// only crash-recovery coverage is lost).
#[derive(Debug)]
pub struct JournalWriter {
    path: std::path::PathBuf,
    io: Arc<dyn StoreIo>,
    breaker: Breaker,
    /// Whether the breaker has tripped.
    pub degraded: bool,
    /// Records successfully appended by this writer.
    pub appended: u64,
    /// Failed journal writes (header or record).
    pub failures: u64,
}

impl JournalWriter {
    /// Opens the journal for appending. With a `valid_prefix` from a
    /// resumed [`load`], the file is first rewritten to that prefix
    /// (dropping any torn tail); otherwise a fresh header is written,
    /// truncating whatever was there. A failed open degrades the writer
    /// immediately — appending after an unknown tail would corrupt the
    /// journal it is supposed to protect.
    pub fn start(
        path: &Path,
        corpus_fp: u64,
        valid_prefix: Option<&[u8]>,
        io: Arc<dyn StoreIo>,
    ) -> JournalWriter {
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            io,
            breaker: Breaker::new("journal"),
            degraded: false,
            appended: 0,
            failures: 0,
        };
        let opening = match valid_prefix {
            Some(prefix) => writer.io.write(path, prefix, false),
            None => {
                let header = wire::encode_header(JOURNAL_MAGIC, JOURNAL_VERSION, corpus_fp);
                writer.io.write(path, &header, false)
            }
        };
        if let Err(err) = opening {
            writer.failures += 1;
            writer.degraded = true;
            keq_trace::metrics::counter_add(keq_trace::CounterId::JournalAppendFailures, 1);
            writer.breaker.failure("open", &err);
            writer.breaker.trip();
        }
        writer
    }

    /// Appends one finalized verdict (one `write` call, so a kill tears at
    /// most this record). Failures count toward the breaker; a degraded
    /// writer is a no-op.
    pub fn append(&mut self, record: &JournalRecord) {
        if self.degraded {
            return;
        }
        match self.io.write(&self.path, &record.encode(), true) {
            Ok(()) => {
                self.breaker.success();
                self.appended += 1;
                keq_trace::metrics::counter_add(keq_trace::CounterId::JournalAppends, 1);
            }
            Err(err) => {
                self.failures += 1;
                keq_trace::metrics::counter_add(keq_trace::CounterId::JournalAppendFailures, 1);
                self.degraded = self.breaker.failure("append", &err);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_smt::obcache::StdStoreIo;
    use keq_smt::{FaultyIo, Rate, StoragePlan};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("keq-journal-test-{tag}-{}", std::process::id()));
        p
    }

    fn rec(func: u32, result: CorpusResult) -> JournalRecord {
        JournalRecord {
            func,
            func_fp: 0x1000 + u64::from(func),
            attempts: 1,
            time_us: 42,
            pass: PassId::Isel,
            result,
        }
    }

    fn write_all(path: &Path, corpus_fp: u64, records: &[JournalRecord]) {
        let mut w = JournalWriter::start(path, corpus_fp, None, Arc::new(StdStoreIo));
        for r in records {
            w.append(r);
        }
        assert!(!w.degraded);
        assert_eq!(w.appended, records.len() as u64);
    }

    #[test]
    fn round_trips_every_result_shape() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            rec(0, CorpusResult::Succeeded),
            rec(1, CorpusResult::Timeout),
            rec(2, CorpusResult::OutOfMemory),
            rec(
                3,
                CorpusResult::Crashed {
                    message: "boom \"quoted\"\nπ line".into(),
                    location: Some("crates/x/src/lib.rs:7:3".into()),
                },
            ),
            rec(4, CorpusResult::Other),
            rec(5, CorpusResult::Quarantined { message: "still boom".into(), location: None }),
        ];
        write_all(&path, 77, &records);
        let load = load(&path, 77, &StdStoreIo);
        assert!(!load.reset);
        assert_eq!(load.corrupt, 0);
        assert_eq!(load.records, records);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_corpus_fingerprint_resets_wholesale() {
        let path = temp_path("foreign");
        let _ = std::fs::remove_file(&path);
        write_all(&path, 77, &[rec(0, CorpusResult::Succeeded)]);
        let other = load(&path, 78, &StdStoreIo);
        assert!(other.reset, "{other:?}");
        assert!(other.records.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_earlier_records_and_valid_prefix_drops_it() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let records = vec![rec(0, CorpusResult::Succeeded), rec(1, CorpusResult::Timeout)];
        write_all(&path, 9, &records);
        let whole = std::fs::read(&path).expect("read back");
        // Kill mid-append: tear the final record.
        std::fs::write(&path, &whole[..whole.len() - 5]).expect("tear");
        let torn = load(&path, 9, &StdStoreIo);
        assert_eq!(torn.records, records[..1]);
        assert_eq!(torn.corrupt, 1);
        assert!(torn.valid_prefix.len() < whole.len() - 5, "prefix excludes the torn bytes");

        // Resume: rewrite to the valid prefix, then append; everything
        // re-loads cleanly.
        let mut w = JournalWriter::start(&path, 9, Some(&torn.valid_prefix), Arc::new(StdStoreIo));
        w.append(&rec(1, CorpusResult::Timeout));
        let healed = load(&path, 9, &StdStoreIo);
        assert_eq!(healed.records, records);
        assert_eq!(healed.corrupt, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_flip_skips_one_record_and_keeps_appending_safe() {
        let path = temp_path("crc");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            rec(0, CorpusResult::Succeeded),
            rec(1, CorpusResult::Succeeded),
            rec(2, CorpusResult::Succeeded),
        ];
        write_all(&path, 5, &records);
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip a bit inside the first record's payload.
        bytes[HEADER_LEN + 6] ^= 0x10;
        std::fs::write(&path, &bytes).expect("corrupt");
        let out = load(&path, 5, &StdStoreIo);
        assert_eq!(out.corrupt, 1, "{out:?}");
        assert_eq!(out.records, records[1..], "later records survive");
        assert_eq!(out.valid_prefix.len(), bytes.len(), "framing-intact prefix keeps them");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn writer_breaker_trips_after_consecutive_failures() {
        let path = temp_path("breaker");
        let _ = std::fs::remove_file(&path);
        // Header write succeeds (first op), every following write fails.
        let io = Arc::new(FaultyIo::new(StoragePlan {
            seed: 3,
            short_read: Rate::ZERO,
            torn_write: Rate::ZERO,
            enospc: Rate { num: 1, den: 1 },
        }));
        let w = JournalWriter::start(&path, 1, None, io.clone());
        assert!(w.degraded, "header write already fails under always-ENOSPC");

        // Now a writer whose header lands but appends fail.
        let mut w = JournalWriter::start(&path, 1, None, Arc::new(StdStoreIo));
        assert!(!w.degraded);
        w.io = io;
        for func in 1..STORE_BREAKER_THRESHOLD {
            w.append(&rec(func, CorpusResult::Succeeded));
            assert!(!w.degraded, "{func} failures stay under the threshold");
        }
        w.append(&rec(0, CorpusResult::Succeeded));
        assert!(w.degraded, "the threshold-th consecutive failure trips the breaker");
        let threshold = u64::from(STORE_BREAKER_THRESHOLD);
        assert_eq!(w.failures, threshold);
        w.append(&rec(0, CorpusResult::Succeeded));
        assert_eq!(w.failures, threshold, "degraded writer is a no-op");
        let _ = std::fs::remove_file(&path);
    }

    /// Byte-compat fixture: a journal laid out entirely by hand in the
    /// exact pre-`wire` format. Loading must recover it unchanged, and a
    /// fresh writer given the same record must reproduce the same bytes.
    #[test]
    fn hand_built_journal_fixture_round_trips_byte_compatibly() {
        let path = temp_path("fixture");
        let _ = std::fs::remove_file(&path);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        bytes.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        bytes.extend_from_slice(&11u64.to_le_bytes());
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_le_bytes()); // func
        payload.extend_from_slice(&0x1003u64.to_le_bytes()); // func_fp
        payload.extend_from_slice(&1u32.to_le_bytes()); // attempts
        payload.extend_from_slice(&42u64.to_le_bytes()); // time_us
        payload.push(0); // pass: isel
        payload.push(0); // Succeeded
        payload.extend_from_slice(&0u32.to_le_bytes()); // empty message
        payload.push(0); // no location
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&keq_smt::wire::fnv1a32(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write fixture");

        let out = load(&path, 11, &StdStoreIo);
        assert!(!out.reset);
        assert_eq!(out.corrupt, 0);
        assert_eq!(out.records, vec![rec(3, CorpusResult::Succeeded)]);
        assert_eq!(out.valid_prefix, bytes);

        // A fresh writer emitting the same record reproduces the fixture.
        let rewrite = temp_path("fixture-rewrite");
        let _ = std::fs::remove_file(&rewrite);
        write_all(&rewrite, 11, &[rec(3, CorpusResult::Succeeded)]);
        assert_eq!(std::fs::read(&rewrite).expect("read back"), bytes);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rewrite);
    }

    #[test]
    fn fingerprints_are_stable_and_corpus_sensitive() {
        assert_eq!(fingerprint_of(&[1, 2, 3]), fingerprint_of(&[1, 2, 3]));
        assert_ne!(fingerprint_of(&[1, 2, 3]), fingerprint_of(&[3, 2, 1]), "order-sensitive");
        assert_ne!(fingerprint_of(&[1, 2]), fingerprint_of(&[1, 2, 3]));
    }

    #[test]
    fn oversized_panic_message_is_clamped_not_rejected() {
        let path = temp_path("clamp");
        let _ = std::fs::remove_file(&path);
        let big = "x".repeat(3 * MAX_STR_LEN);
        let r = rec(0, CorpusResult::Crashed { message: big, location: None });
        write_all(&path, 4, &[r]);
        let out = load(&path, 4, &StdStoreIo);
        assert_eq!(out.corrupt, 0);
        match &out.records[0].result {
            CorpusResult::Crashed { message, .. } => assert_eq!(message.len(), MAX_STR_LEN),
            other => panic!("wrong result: {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
