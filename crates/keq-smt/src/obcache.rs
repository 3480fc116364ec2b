//! Corpus-wide shared obligation cache with an append-only on-disk store.
//!
//! The [`SharedObligationCache`] is the cross-function / cross-run reuse
//! layer on top of the per-solver query memo: it maps canonical
//! [`ObligationFingerprint`]s to *model-free* verdicts, shared by every
//! worker thread of a corpus run (mutex-striped shards, so worker A's
//! closed obligations prune worker B's queries in-flight) and optionally
//! persisted between runs.
//!
//! # Cacheability
//!
//! Decided verdicts — [`CachedVerdict::Unsat`] ("obligation discharged")
//! and [`CachedVerdict::Sat`] ("obligation refutable") — are stored
//! *model-free*: satisfiability is a property of the canonical
//! fingerprint, so both transfer across banks, workers, and runs. The
//! counterexample model itself is bank-specific and never stored; a
//! caller that needs one treats a cached `Sat` as a miss and recomputes
//! (the solver integration handles this). Budget/deadline/fault outcomes
//! describe the attempt, not the obligation; callers must never insert
//! them (the solver integration filters them, and a harness test asserts
//! a faulted run leaves no trace in the persisted store).
//!
//! # On-disk format (hermetic, hand-rolled)
//!
//! ```text
//! header:  magic "KEQOBCH1" (8 bytes)
//!          store format version  u32 LE
//!          semantics revision    u64 LE
//! record:  payload length        u32 LE   (currently 17)
//!          fingerprint lo        u64 LE
//!          fingerprint hi        u64 LE
//!          verdict               u8       (1 = Unsat, 2 = Sat)
//!          FNV-1a-32 checksum of the payload  u32 LE
//! ```
//!
//! Loading is fail-soft and record-by-record: a header mismatch (foreign
//! file, stale [`SEMANTICS_REVISION`]) discards the whole store; a record
//! with a bad checksum or unknown verdict is skipped; a torn tail
//! (truncated final record) keeps every record before it. Nothing panics —
//! a corrupted store only makes the next run cold.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use keq_trace::CacheCounters;

use crate::fingerprint::ObligationFingerprint;
use crate::wire;

/// FNV-1a, 32-bit — the per-record checksum shared by the store and the
/// harness's verdict journal (re-exported from [`crate::wire`], where the
/// shared append-only store idiom now lives).
pub use crate::wire::fnv1a32;

/// Injectable storage backend for the persisted store (and the harness's
/// verdict journal, which reuses the same wire idiom). Production code uses
/// [`StdStoreIo`]; robustness tests swap in a deterministic fault wrapper
/// (see `fault::FaultyIo`) that injects short reads, torn writes, and
/// ENOSPC without touching the fail-soft parsing underneath.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Reads the whole file.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Writes `bytes`, either appending to the file (creating it if
    /// missing) or truncating and rewriting it. One logical write is one
    /// call, so an injected torn write can cut any single record.
    fn write(&self, path: &Path, bytes: &[u8], append: bool) -> std::io::Result<()>;
    /// Current file size in bytes.
    fn file_len(&self, path: &Path) -> std::io::Result<u64>;
}

/// The real filesystem. Appends are buffered (`flush`, no fsync): the store
/// and journal are both idempotent write-ahead logs whose tail records are
/// simply re-proven/replayed after a crash, so durability of the last few
/// bytes is deliberately traded for not paying an fsync per record.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdStoreIo;

impl StoreIo for StdStoreIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn write(&self, path: &Path, bytes: &[u8], append: bool) -> std::io::Result<()> {
        let mut file = if append {
            OpenOptions::new().append(true).create(true).open(path)?
        } else {
            File::create(path)?
        };
        file.write_all(bytes)?;
        file.flush()
    }

    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
}

/// Bump when term semantics, normalization, or the fingerprint algorithm
/// change in any way that could alter what a fingerprint means. A persisted
/// store with a different revision is discarded wholesale at load.
///
/// Revision history:
/// - 1: constructor-time peepholes only.
/// - 2: saturating obligation normalization ([`crate::rewrite`]) runs before
///   fingerprinting, so revision-1 fingerprints name pre-rewrite shapes and
///   must not be mixed with post-rewrite ones.
/// - 3: the rewriter turns the signed-add overflow check
///   `sext(x) = sext(x + y) - sext(y)` into `(x + y <s y) = (x <s 0)`, so
///   obligations containing it normalize, and fingerprint, differently.
pub const SEMANTICS_REVISION: u64 = 3;

/// On-disk container format version (layout of header/records, not the
/// meaning of fingerprints — that is [`SEMANTICS_REVISION`]).
pub const STORE_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"KEQOBCH1";
/// Payload bytes of the one record shape we write today.
const PAYLOAD_LEN: u32 = 8 + 8 + 1;
/// Upper bound accepted when reading (forward-compat headroom; anything
/// larger is treated as corruption).
const MAX_PAYLOAD_LEN: u32 = 64;

/// A cacheable, model-free verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The obligation's negation is unsatisfiable — the proof obligation is
    /// discharged, independent of which bank or run asked.
    Unsat,
    /// The obligation is satisfiable. The witnessing model is *not* cached
    /// (it names one bank's variables); this verdict answers model-free
    /// questions (feasibility pruning) only — model-needing callers must
    /// recompute.
    Sat,
}

impl CachedVerdict {
    fn to_byte(self) -> u8 {
        match self {
            CachedVerdict::Unsat => 1,
            CachedVerdict::Sat => 2,
        }
    }

    fn from_byte(b: u8) -> Option<CachedVerdict> {
        match b {
            1 => Some(CachedVerdict::Unsat),
            2 => Some(CachedVerdict::Sat),
            _ => None,
        }
    }
}

/// Approximate in-memory footprint of one entry (map slot + FIFO slot).
pub const ENTRY_BYTES: usize = 48;
/// Shard count: enough stripes that 8–16 workers rarely collide.
const SHARDS: usize = 16;
/// Default byte bound across all shards (FIFO eviction past this).
const DEFAULT_MAX_BYTES: usize = 64 << 20;

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, CachedVerdict>,
    order: VecDeque<u128>,
    /// Entries proven this run and not yet persisted.
    dirty: Vec<(u128, CachedVerdict)>,
}

/// Result of loading a persisted store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Records accepted.
    pub loaded: u64,
    /// Records rejected (bad checksum, unknown verdict, torn tail).
    pub rejected: u64,
    /// The whole store was discarded (missing/foreign/stale header); the
    /// next persist rewrites the file from scratch.
    pub reset: bool,
}

/// Result of persisting the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistOutcome {
    /// Records written in this persist.
    pub written: u64,
    /// File size after persisting, bytes.
    pub file_bytes: u64,
}

/// Mutex-striped fingerprint → verdict cache shared by all workers.
#[derive(Debug)]
pub struct SharedObligationCache {
    shards: Vec<Mutex<Shard>>,
    evictions: AtomicU64,
    /// Set when a load found no usable store, so persist must rewrite the
    /// file (fresh header + full contents) instead of appending.
    needs_rewrite: AtomicBool,
    max_bytes_per_shard: usize,
}

impl Default for SharedObligationCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedObligationCache {
    /// A cache with the default byte bound.
    pub fn new() -> Self {
        Self::with_max_bytes(DEFAULT_MAX_BYTES)
    }

    /// A cache bounded at roughly `max_bytes` across all shards.
    pub fn with_max_bytes(max_bytes: usize) -> Self {
        SharedObligationCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            evictions: AtomicU64::new(0),
            needs_rewrite: AtomicBool::new(false),
            max_bytes_per_shard: (max_bytes / SHARDS).max(ENTRY_BYTES),
        }
    }

    fn shard(&self, fp: ObligationFingerprint) -> &Mutex<Shard> {
        // High bits: the low 64 feed trace events, keep the stripe choice
        // independent of them.
        let i = ((fp.0 >> 64) as usize) % SHARDS;
        &self.shards[i]
    }

    /// Looks up a verdict. The solver counts the hit or miss
    /// (`obligation_cache_*`), because only it knows whether a cached
    /// `Sat` answers its question.
    pub fn lookup(&self, fp: ObligationFingerprint) -> Option<CachedVerdict> {
        let shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        shard.map.get(&fp.0).copied()
    }

    /// Records a verdict, marking it dirty for the next persist and
    /// evicting oldest-first past the byte bound.
    pub fn insert(&self, fp: ObligationFingerprint, verdict: CachedVerdict) {
        let mut shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        self.insert_into(&mut shard, fp.0, verdict, true);
    }

    fn insert_into(&self, shard: &mut Shard, fp: u128, verdict: CachedVerdict, dirty: bool) {
        if shard.map.insert(fp, verdict).is_none() {
            shard.order.push_back(fp);
        }
        if dirty {
            shard.dirty.push((fp, verdict));
        }
        while shard.map.len() * ENTRY_BYTES > self.max_bytes_per_shard {
            let Some(victim) = shard.order.pop_front() else { break };
            if shard.map.remove(&victim).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The cache's in-memory counters now: `evictions` and `entries`
    /// (the entry count takes each shard lock briefly; approximate bytes
    /// are `entries * ENTRY_BYTES`).
    pub fn stats(&self) -> CacheCounters {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
            .sum();
        CacheCounters {
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            ..CacheCounters::default()
        }
    }

    /// Per-shard entry counts, in shard order. Feeds the telemetry
    /// collector's occupancy gauges; skew across shards would flag a bad
    /// fingerprint distribution.
    pub fn shard_entries(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
            .collect()
    }

    /// Loads a persisted store through an injectable [`StoreIo`] backend.
    /// Fail-soft: any corruption is tolerated record-by-record and an
    /// unusable store simply leaves the cache cold (see the module docs for
    /// the exact rules). An injected short read surfaces as a torn tail; a
    /// failed read leaves the cache cold. Loaded entries are not dirty —
    /// persisting appends only verdicts proven this run.
    pub fn load_with(&self, path: &Path, io: &dyn StoreIo) -> LoadOutcome {
        let mut out = LoadOutcome::default();
        let buf = match io.read(path) {
            Ok(buf) => buf,
            Err(_) => {
                out.reset = true;
                self.needs_rewrite.store(true, Ordering::Relaxed);
                return out;
            }
        };
        let revision = wire::decode_header(&buf, MAGIC, STORE_VERSION);
        if revision != Some(SEMANTICS_REVISION) {
            out.reset = true;
            self.needs_rewrite.store(true, Ordering::Relaxed);
            return out;
        }
        let mut scan = wire::RecordScanner::new(&buf, MAX_PAYLOAD_LEN);
        for rec in scan.by_ref() {
            // Record-by-record fail-soft: a bad checksum or a payload of
            // the wrong shape skips that record and keeps scanning.
            if !rec.crc_ok || rec.payload.len() != PAYLOAD_LEN as usize {
                out.rejected += 1;
                continue;
            }
            let payload = rec.payload;
            let lo = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
            let hi = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
            let Some(verdict) = CachedVerdict::from_byte(payload[16]) else {
                out.rejected += 1;
                continue;
            };
            let fp = (u128::from(hi) << 64) | u128::from(lo);
            let mut shard =
                self.shard(ObligationFingerprint(fp)).lock().unwrap_or_else(|e| e.into_inner());
            self.insert_into(&mut shard, fp, verdict, false);
            out.loaded += 1;
        }
        if scan.torn() {
            // Torn tail: earlier records stay loaded, the tail counts as
            // one rejected record.
            out.rejected += 1;
        }
        out
    }

    /// Persists the store through an injectable [`StoreIo`] backend:
    /// appends this run's dirty verdicts to a valid existing file, or
    /// rewrites the file (header + every live entry) when the load found
    /// nothing usable. Clears the dirty sets on success. The body is
    /// written in one `write` call, so an injected torn write can cut at
    /// most one batch — which the next load skips as a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the in-memory cache is unaffected either way
    /// (dirty entries are retained on failure so a retry can persist them).
    pub fn persist_with(&self, path: &Path, io: &dyn StoreIo) -> std::io::Result<PersistOutcome> {
        let rewrite = self.needs_rewrite.load(Ordering::Relaxed) || !path.exists();
        let mut records: Vec<(u128, CachedVerdict)> = Vec::new();
        if rewrite {
            for s in &self.shards {
                let shard = s.lock().unwrap_or_else(|e| e.into_inner());
                records.extend(shard.map.iter().map(|(&fp, &v)| (fp, v)));
            }
            records.sort_unstable_by_key(|&(fp, _)| fp);
        } else {
            for s in &self.shards {
                let shard = s.lock().unwrap_or_else(|e| e.into_inner());
                records.extend(shard.dirty.iter().copied());
            }
        }
        let mut body =
            Vec::with_capacity(records.len() * (PAYLOAD_LEN as usize + wire::RECORD_OVERHEAD));
        for (fp, verdict) in &records {
            let mut payload = [0u8; PAYLOAD_LEN as usize];
            payload[0..8].copy_from_slice(&((*fp as u64).to_le_bytes()));
            payload[8..16].copy_from_slice(&(((*fp >> 64) as u64).to_le_bytes()));
            payload[16] = verdict.to_byte();
            wire::append_record(&mut body, &payload);
        }
        if rewrite {
            let mut out = wire::encode_header(MAGIC, STORE_VERSION, SEMANTICS_REVISION);
            out.extend_from_slice(&body);
            io.write(path, &out, false)?;
        } else {
            io.write(path, &body, true)?;
        }
        let file_bytes = io.file_len(path).unwrap_or(0);
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).dirty.clear();
        }
        self.needs_rewrite.store(false, Ordering::Relaxed);
        Ok(PersistOutcome { written: records.len() as u64, file_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u128) -> ObligationFingerprint {
        ObligationFingerprint(n)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("keq-obcache-test-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn lookup_insert_and_counters() {
        let cache = SharedObligationCache::new();
        assert_eq!(cache.lookup(fp(7)), None);
        cache.insert(fp(7), CachedVerdict::Unsat);
        assert_eq!(cache.lookup(fp(7)), Some(CachedVerdict::Unsat));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn eviction_is_bounded_and_counted() {
        // Small bound: a few entries per shard.
        let cache = SharedObligationCache::with_max_bytes(SHARDS * ENTRY_BYTES * 4);
        for i in 0..(SHARDS as u128 * 64) {
            cache.insert(fp(i << 64 | i), CachedVerdict::Unsat);
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(stats.entries <= (SHARDS * 4) as u64, "{stats:?}");
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let cache = SharedObligationCache::new();
        assert!(cache.load_with(&path, &StdStoreIo).reset, "missing file loads cold");
        for i in 0..100u128 {
            cache.insert(fp(((i * 0x1_0001) << 32) | i), CachedVerdict::Unsat);
        }
        let persisted = cache.persist_with(&path, &StdStoreIo).expect("persist");
        assert_eq!(persisted.written, 100);

        let warm = SharedObligationCache::new();
        let loaded = warm.load_with(&path, &StdStoreIo);
        assert_eq!((loaded.loaded, loaded.rejected, loaded.reset), (100, 0, false));
        assert_eq!(warm.lookup(fp(0)), Some(CachedVerdict::Unsat));

        // Second run proves one more; persist appends exactly one record.
        warm.insert(fp(0xdead), CachedVerdict::Unsat);
        let p2 = warm.persist_with(&path, &StdStoreIo).expect("append");
        assert_eq!(p2.written, 1);
        let warm2 = SharedObligationCache::new();
        assert_eq!(warm2.load_with(&path, &StdStoreIo).loaded, 101);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sat_verdicts_round_trip_through_disk() {
        let path = temp_path("sat");
        let _ = std::fs::remove_file(&path);
        let cache = SharedObligationCache::new();
        cache.insert(fp(1), CachedVerdict::Unsat);
        cache.insert(fp(2), CachedVerdict::Sat);
        cache.persist_with(&path, &StdStoreIo).expect("persist");

        let warm = SharedObligationCache::new();
        let loaded = warm.load_with(&path, &StdStoreIo);
        assert_eq!((loaded.loaded, loaded.rejected, loaded.reset), (2, 0, false));
        assert_eq!(warm.lookup(fp(1)), Some(CachedVerdict::Unsat));
        assert_eq!(warm.lookup(fp(2)), Some(CachedVerdict::Sat));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_checksum_rejects_one_record_only() {
        let path = temp_path("checksum");
        let _ = std::fs::remove_file(&path);
        let cache = SharedObligationCache::new();
        for i in 1..=10u128 {
            cache.insert(fp(i), CachedVerdict::Unsat);
        }
        cache.persist_with(&path, &StdStoreIo).expect("persist");
        let mut bytes = std::fs::read(&path).expect("read back");
        // Flip one bit inside the first record's checksum.
        let first_crc = wire::HEADER_LEN + 4 + PAYLOAD_LEN as usize;
        bytes[first_crc] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted");

        let warm = SharedObligationCache::new();
        let loaded = warm.load_with(&path, &StdStoreIo);
        assert_eq!(loaded.rejected, 1, "{loaded:?}");
        assert_eq!(loaded.loaded, 9, "{loaded:?}");
        assert!(!loaded.reset);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_record_keeps_earlier_records() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let cache = SharedObligationCache::new();
        for i in 1..=5u128 {
            cache.insert(fp(i), CachedVerdict::Unsat);
        }
        cache.persist_with(&path, &StdStoreIo).expect("persist");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::write(&path, &bytes[..bytes.len() - 7]).expect("tear tail");

        let warm = SharedObligationCache::new();
        let loaded = warm.load_with(&path, &StdStoreIo);
        assert_eq!((loaded.loaded, loaded.rejected), (4, 1), "{loaded:?}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_revision_discards_wholesale_and_rewrites() {
        let path = temp_path("stale");
        let _ = std::fs::remove_file(&path);
        // Hand-write a store with a future semantics revision.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(SEMANTICS_REVISION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write stale store");

        let cache = SharedObligationCache::new();
        let loaded = cache.load_with(&path, &StdStoreIo);
        assert!(loaded.reset, "{loaded:?}");
        assert_eq!(loaded.loaded, 0);
        cache.insert(fp(42), CachedVerdict::Unsat);
        cache.persist_with(&path, &StdStoreIo).expect("rewrite");

        let warm = SharedObligationCache::new();
        let reloaded = warm.load_with(&path, &StdStoreIo);
        assert_eq!((reloaded.loaded, reloaded.reset), (1, false), "{reloaded:?}");
        let _ = std::fs::remove_file(&path);
    }

    /// Regression: a store persisted before saturating rewrite normalization
    /// (semantics revision 1) names pre-rewrite fingerprints and must be
    /// rejected wholesale, not silently mixed with post-rewrite verdicts.
    #[test]
    fn pre_rewrite_store_is_rejected_wholesale() {
        const { assert!(SEMANTICS_REVISION >= 2, "revision must stay bumped past the pre-rewrite era") };
        let path = temp_path("prerewrite");
        let _ = std::fs::remove_file(&path);
        // Hand-write a revision-1 store carrying a verdict record.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        let mut payload = [0u8; PAYLOAD_LEN as usize];
        payload[0..8].copy_from_slice(&77u64.to_le_bytes());
        payload[16] = 1; // Unsat
        bytes.extend_from_slice(&PAYLOAD_LEN.to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        std::fs::write(&path, &bytes).expect("write revision-1 store");

        let cache = SharedObligationCache::new();
        let loaded = cache.load_with(&path, &StdStoreIo);
        assert!(loaded.reset, "{loaded:?}");
        assert_eq!(loaded.loaded, 0, "no revision-1 verdict may survive");
        assert_eq!(cache.lookup(fp(77)), None);
        let _ = std::fs::remove_file(&path);
    }

    /// Byte-compat fixture: a store file laid out entirely by hand, in the
    /// exact format the pre-`wire` inline writer produced. It must load
    /// unchanged, and persisting the same entries must reproduce the exact
    /// bytes — proof that extracting the wire idiom kept existing on-disk
    /// stores readable.
    #[test]
    fn hand_built_store_fixture_round_trips_byte_compatibly() {
        let path = temp_path("fixture");
        let _ = std::fs::remove_file(&path);
        let entries: [u128; 3] = [5, (7 << 64) | 9, u128::MAX - 1];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&STORE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&SEMANTICS_REVISION.to_le_bytes());
        for e in entries {
            let mut payload = [0u8; PAYLOAD_LEN as usize];
            payload[0..8].copy_from_slice(&(e as u64).to_le_bytes());
            payload[8..16].copy_from_slice(&((e >> 64) as u64).to_le_bytes());
            payload[16] = 1; // Unsat
            bytes.extend_from_slice(&PAYLOAD_LEN.to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&fnv1a32(&payload).to_le_bytes());
        }
        std::fs::write(&path, &bytes).expect("write fixture");

        let cache = SharedObligationCache::new();
        let loaded = cache.load_with(&path, &StdStoreIo);
        assert_eq!((loaded.loaded, loaded.rejected, loaded.reset), (3, 0, false), "{loaded:?}");
        for e in entries {
            assert_eq!(cache.lookup(fp(e)), Some(CachedVerdict::Unsat));
        }

        // Rewriting the same entries reproduces the fixture byte-for-byte
        // (rewrite sorts by fingerprint; the fixture is already sorted).
        let rewrite_path = temp_path("fixture-rewrite");
        let _ = std::fs::remove_file(&rewrite_path);
        let fresh = SharedObligationCache::new();
        for e in entries {
            fresh.insert(fp(e), CachedVerdict::Unsat);
        }
        fresh.persist_with(&rewrite_path, &StdStoreIo).expect("persist");
        assert_eq!(std::fs::read(&rewrite_path).expect("read back"), bytes);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rewrite_path);
    }

    #[test]
    fn garbage_file_loads_cold_without_panicking() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"definitely not a cache store").expect("write garbage");
        let cache = SharedObligationCache::new();
        let loaded = cache.load_with(&path, &StdStoreIo);
        assert!(loaded.reset);
        assert_eq!(cache.stats().entries, 0);
        let _ = std::fs::remove_file(&path);
    }
}
