//! The counter tables: every solver, request and cache counter, and every
//! count of the report's outcome and resume sections, is declared once,
//! here.
//!
//! One row per counter gives its field name, its wire key (if it has one),
//! the registry [`CounterId`] it feeds (if any), and its doc text; a row
//! that is not a plain count names its type (`bool` for a flag,
//! `Duration` for a time). One macro derives everything else from a
//! table: the snapshot struct, `merge`/`since`, the wire form and its
//! schema check, the registry feed, and, for a table declared `live`, the
//! atomics and the one `bump` that also feeds the registry. Adding a
//! counter means adding a row here and counting it where it happens,
//! nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::json::{self, Json};
use crate::metrics::{CounterId, Registry};

/// What a table row can hold: a count, a flag, or a time.
trait Value: Copy {
    /// What a schema check says a mistyped value should have been.
    const EXPECTED: &'static str;
    /// The value as a count (`None` for a flag or a time).
    fn count(self) -> Option<u64>;
    fn to_json(self) -> Json;
    fn from_json(doc: &Json) -> Option<Self>;
    fn merge(&mut self, other: Self);
    fn since(self, earlier: Self) -> Self;
}

impl Value for u64 {
    const EXPECTED: &'static str = "a non-negative integer";
    fn count(self) -> Option<u64> {
        Some(self)
    }
    fn to_json(self) -> Json {
        json::num(self)
    }
    fn from_json(doc: &Json) -> Option<u64> {
        doc.as_u64()
    }
    fn merge(&mut self, other: u64) {
        *self += other;
    }
    fn since(self, earlier: u64) -> u64 {
        self.saturating_sub(earlier)
    }
}

impl Value for bool {
    const EXPECTED: &'static str = "a boolean";
    fn count(self) -> Option<u64> {
        None
    }
    fn to_json(self) -> Json {
        Json::Bool(self)
    }
    fn from_json(doc: &Json) -> Option<bool> {
        doc.as_bool()
    }
    fn merge(&mut self, other: bool) {
        *self |= other;
    }
    fn since(self, _earlier: bool) -> bool {
        self
    }
}

/// Times travel as whole microseconds.
impl Value for Duration {
    const EXPECTED: &'static str = "a non-negative integer";
    fn count(self) -> Option<u64> {
        None
    }
    fn to_json(self) -> Json {
        json::num(u64::try_from(self.as_micros()).unwrap_or(u64::MAX))
    }
    fn from_json(doc: &Json) -> Option<Duration> {
        doc.as_u64().map(Duration::from_micros)
    }
    fn merge(&mut self, other: Duration) {
        *self += other;
    }
    fn since(self, earlier: Duration) -> Duration {
        self.saturating_sub(earlier)
    }
}

/// One key of a table's schema check; `_probe` only names the row's type.
fn check_value<T: Value>(_probe: &T, doc: &Json, path: &str, key: &str, out: &mut Vec<String>) {
    match doc.get(key) {
        None => out.push(format!("{path}: missing key \"{key}\"")),
        Some(v) if T::from_json(v).is_none() => {
            out.push(format!("{path}.{key}: expected {}", T::EXPECTED));
        }
        Some(_) => {}
    }
}

macro_rules! counter_table {
    // A live table: every row is a count that feeds the registry, and the
    // row's `CounterId` is the key `bump` takes.
    ($(#[$meta:meta])* $name:ident, live $live:ident {
        $($field:ident $wire:literal [$feed:ident] $doc:literal,)*
    }) => {
        counter_table! { $(#[$meta])* $name { $($field $wire [$feed] $doc,)* } }

        #[doc = concat!("The live form of [`", stringify!($name), "`]: one relaxed atomic")]
        #[doc = "per row, bumped from any thread and read at any time."]
        #[derive(Debug, Default)]
        pub struct $live {
            $(#[doc = $doc] $field: AtomicU64,)*
            registry: Option<Arc<Registry>>,
        }

        impl $live {
            /// Zeroed counters; `registry` (metrics on) also receives every
            /// bump.
            pub fn new(registry: Option<Arc<Registry>>) -> $live {
                $live { registry, ..$live::default() }
            }

            /// Adds one to the row `id` feeds, and to `id` in the registry
            /// when metrics are on.
            ///
            /// # Panics
            ///
            #[doc = concat!("When no row of [`", stringify!($name), "`] feeds `id`.")]
            pub fn bump(&self, id: CounterId) {
                let cell = match id {
                    $(CounterId::$feed => &self.$field,)*
                    other => panic!("{other:?} is not a row of {}", stringify!($name)),
                };
                cell.fetch_add(1, Ordering::Relaxed);
                if let Some(registry) = &self.registry {
                    registry.counter_add(id, 1);
                }
            }

            /// A point-in-time copy.
            pub fn snapshot(&self) -> $name {
                $name { $($field: self.$field.load(Ordering::Relaxed),)* }
            }
        }
    };

    (@ty) => { u64 };
    (@ty $ty:ident) => { $ty };

    ($(#[$meta:meta])* $name:ident {
        $($field:ident $(: $ty:ident)? $($wire:literal)? [$($feed:ident)?] $doc:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $(#[doc = $doc] pub $field: counter_table!(@ty $($ty)?),)*
        }

        impl $name {
            /// The keys of the wire form, in order.
            pub const FIELDS: &'static [&'static str] = &[$($($wire,)?)*];

            /// Field-wise accumulation `self + other` (flags: `or`).
            pub fn merge(&mut self, other: &$name) {
                $(Value::merge(&mut self.$field, other.$field);)*
            }

            /// Field-wise difference `self - earlier`, saturating at zero
            /// so a mismatched pair cannot panic (flags: `self`).
            #[must_use]
            pub fn since(&self, earlier: &$name) -> $name {
                $name { $($field: Value::since(self.$field, earlier.$field),)* }
            }

            /// Every count as `(field name, value)`, in table order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), Value::count(self.$field)),)*]
                    .into_iter()
                    .filter_map(|(name, n)| Some((name, n?)))
            }

            /// The registry counters these counters feed, as `(id, value)`.
            pub fn registry_feed(&self) -> impl Iterator<Item = (CounterId, u64)> {
                [$($((CounterId::$feed, self.$field),)?)*].into_iter()
            }

            /// The wire form's `(key, value)` pairs, in table order, for
            /// embedding in a larger object.
            pub fn json_fields(&self) -> Vec<(&'static str, Json)> {
                vec![$($(($wire, Value::to_json(self.$field)),)?)*]
            }

            /// Serializes to the stable wire shape.
            pub fn to_json(self) -> Json {
                json::obj(self.json_fields())
            }

            /// Parses the wire shape, or the same keys inside a larger
            /// object. Missing keys read zero (forward compatibility on
            /// the wire); a non-object is `None`.
            pub fn from_json(doc: &Json) -> Option<$name> {
                let Json::Obj(_) = doc else { return None };
                let mut c = $name::default();
                $($(if let Some(v) = doc.get($wire).and_then(Value::from_json) {
                    c.$field = v;
                })?)*
                Some(c)
            }

            /// Schema check of the wire keys in `doc`: each must be present
            /// and well-typed. Violations are pushed to `out`, prefixed
            /// with `path`.
            pub fn check_json(doc: &Json, path: &str, out: &mut Vec<String>) {
                let probe = $name::default();
                $($(check_value(&probe.$field, doc, path, $wire, out);)?)*
            }
        }
    };
}

// Rows without a wire name stay out of the report's `solver` object: the
// obligation-cache traffic is reported in its `cache` section instead.
counter_table! {
    /// Cumulative solver statistics, and the report's `solver` section.
    ///
    /// Every counted query adds one to `queries` and one to exactly one
    /// of `sat`, `unsat` and `budget`.
    SolverCounters {
        queries "queries" [SolverQueries] "Total queries issued.",
        sat "sat" [] "Queries answered `Sat`.",
        unsat "unsat" [] "Queries answered `Unsat`.",
        budget "budget" [] "Queries that exhausted a budget, were cancelled, or were faulted.",
        model_hits "model_hits" []
            "Feasibility queries answered `Sat` by one of their session's earlier models, \
             without bit-blasting the delta or running CDCL (also counted in `sat`).",
        conflicts "conflicts" [CdclConflicts] "Total CDCL conflicts.",
        budget_conflicts "budget_conflicts" []
            "CDCL conflicts spent in calls that ended in a budget outcome (also counted in \
             `conflicts`).",
        restarts "restarts" [CdclRestarts] "Total CDCL restarts.",
        cache_hits "cache_hits" [] "Queries answered from the solver's local memo.",
        cache_evictions "cache_evictions" [] "Entries evicted from the bounded local memo.",
        sessions_opened "sessions_opened" [] "Incremental sessions opened.",
        prefix_hits "prefix_hits" []
            "Queries that reached the SAT core with their prefix already asserted by an \
             earlier query of the same session.",
        clauses_retained "clauses_retained" []
            "Sum over queries of the learnt clauses already in the session's database when \
             the query reached the SAT core.",
        terms_blasted "terms_blasted" [] "Term nodes translated to CNF.",
        terms_blast_reused "terms_blast_reused" []
            "Term nodes whose CNF translation was served from a blast memo.",
        rewrite_rules_fired "rewrite_rules_fired" []
            "Rewrite rules fired by obligation normalization.",
        rewrite_passes "rewrite_passes" [] "Normalization passes run over obligation roots.",
        rewrite_nodes_saved "rewrite_nodes_saved" []
            "Term-DAG nodes eliminated by obligation normalization.",
        lbd_kept "lbd_kept" [LbdKept]
            "Learnt clauses exempted from CDCL database reduction for glue (LBD <= 2).",
        obligation_cache_hits [ObligationCacheHits]
            "Queries answered by the shared obligation cache.",
        obligation_cache_misses [ObligationCacheMisses]
            "Queries that consulted the shared obligation cache and missed.",
        obligation_cache_stores [ObligationCacheStores]
            "Verdicts recorded into the shared obligation cache.",
        time: Duration "time_us" [] "Total wall-clock time in the solver.",
    }
}

counter_table! {
    /// The request counters of a scheduler's lifetime: the `stats` op's
    /// first six keys, the drain line, and six registry counters.
    RequestCounters, live LiveRequests {
        requests "requests" [Requests] "Submissions accepted past the gate.",
        completed "completed" [Completed] "Submissions finalized with a verdict.",
        rejected_queue_full "rejected_queue_full" [RejectedQueueFull]
            "Rejections by queue-depth backpressure.",
        rejected_quota "rejected_quota" [RejectedQuota] "Rejections by per-client quota.",
        rejected_draining "rejected_draining" [RejectedDraining] "Rejections while draining.",
        disconnects "disconnects" [Disconnects]
            "Verdicts whose reply channel was gone (client disconnected).",
    }
}

// The obligation cache's lookup traffic is counted by the solver (the
// `obligation_cache_*` rows above); the report's `cache` section writes
// it ahead of these rows.
counter_table! {
    /// The shared obligation cache's own counters of a run: its in-memory
    /// shape at the end and its on-disk store traffic.
    CacheCounters {
        evictions "evictions" [] "Entries evicted by the byte bound.",
        entries "entries" [] "Entries resident when the run finished.",
        disk_loaded "disk_loaded" [] "Records accepted from the on-disk store at startup.",
        disk_rejected "disk_rejected" []
            "Records rejected at startup (bad checksum, torn tail, stale revision), each \
             skipped on its own, never fatal.",
        disk_persisted "disk_persisted" []
            "Records written back across all flushes of the run (incremental batches plus \
             the final shutdown flush).",
        disk_bytes "disk_bytes" []
            "Size of the on-disk store after the last successful flush, bytes.",
        flushes "flushes" [] "Successful store flushes.",
        flush_failures "flush_failures" []
            "Failed flush attempts (each emitted a `StoreError` event).",
        degraded: bool "degraded" []
            "Whether consecutive flush failures tripped the circuit breaker and the store \
             degraded to memory-only for the rest of the run.",
        persist_failed: bool []
            "Whether the final persist failed (or was skipped because the breaker had \
             tripped): this run's remaining proved verdicts never reached disk, so the next \
             run starts colder than the in-memory counters suggest.",
    }
}

counter_table! {
    /// The Fig. 6 outcome table.
    OutcomeTable {
        succeeded "succeeded" [] "Validated (equivalent or refines).",
        timeout "timeout" [] "Timeout-class resource exhaustion.",
        out_of_memory "out_of_memory" [] "Memory-class resource exhaustion.",
        crashed "crashed" [] "Isolated panics.",
        quarantined "quarantined" [] "Still crashing after exhausting every retry attempt.",
        other "other" [] "Everything else.",
        total "total" [] "Total functions.",
        attempts "attempts" []
            "Total attempts across all functions (≥ total when retries fired).",
    }
}

counter_table! {
    /// The report's journal-recovery section (schema v3): what resume
    /// recovered from the write-ahead verdict journal before scheduling
    /// any work.
    ResumeSection {
        enabled: bool "enabled" [] "Whether this run resumed from a journal.",
        skipped "skipped" [] "Functions skipped because a journal record decided them.",
        recovered "recovered" [] "Valid records recovered from the journal.",
        corrupt "corrupt" [] "Corrupt records skipped fail-soft while loading the journal.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_form_round_trips_and_leaves_out_cache_traffic() {
        let c = SolverCounters {
            queries: 7,
            lbd_kept: 2,
            obligation_cache_hits: 5,
            time: Duration::from_micros(1_234),
            ..SolverCounters::default()
        };
        let doc = c.to_json();
        assert!(doc.get("obligation_cache_hits").is_none());
        let back = SolverCounters::from_json(&doc).expect("an object");
        assert_eq!(back, SolverCounters { obligation_cache_hits: 0, ..c });
        let Json::Obj(fields) = doc else { panic!("an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, SolverCounters::FIELDS);
    }

    #[test]
    fn since_undoes_merge_and_saturates() {
        let base = SolverCounters {
            queries: 3,
            obligation_cache_stores: 1,
            time: Duration::from_micros(10),
            ..SolverCounters::default()
        };
        let delta = SolverCounters {
            queries: 2,
            lbd_kept: 4,
            time: Duration::from_micros(5),
            ..SolverCounters::default()
        };
        let mut total = base;
        total.merge(&delta);
        assert_eq!(total.since(&base), delta);
        assert_eq!(base.since(&total), SolverCounters::default());
        let feed: Vec<(CounterId, u64)> = total.registry_feed().filter(|&(_, n)| n > 0).collect();
        assert_eq!(
            feed,
            [
                (CounterId::SolverQueries, 5),
                (CounterId::LbdKept, 4),
                (CounterId::ObligationCacheStores, 1)
            ]
        );
    }

    #[test]
    fn a_live_bump_feeds_the_snapshot_and_the_registry() {
        let registry = Arc::new(Registry::new());
        let live = LiveRequests::new(Some(Arc::clone(&registry)));
        live.bump(CounterId::Requests);
        live.bump(CounterId::Requests);
        live.bump(CounterId::RejectedDraining);
        let snap = live.snapshot();
        assert_eq!(
            snap,
            RequestCounters { requests: 2, rejected_draining: 1, ..RequestCounters::default() }
        );
        for (id, n) in snap.registry_feed() {
            assert_eq!(registry.counter(id), n, "{id:?}");
        }
        let off = LiveRequests::new(None);
        off.bump(CounterId::Completed);
        assert_eq!(off.snapshot().completed, 1);
    }

    #[test]
    fn flags_travel_as_booleans_and_unwired_rows_stay_off_the_wire() {
        let c = CacheCounters {
            flushes: 2,
            degraded: true,
            persist_failed: true,
            ..CacheCounters::default()
        };
        let doc = c.to_json();
        assert_eq!(doc.get("degraded").and_then(Json::as_bool), Some(true));
        assert!(doc.get("persist_failed").is_none());
        let back = CacheCounters::from_json(&doc).expect("an object");
        assert_eq!(back, CacheCounters { persist_failed: false, ..c });

        let mut errs = Vec::new();
        CacheCounters::check_json(&doc, "$.cache", &mut errs);
        assert!(errs.is_empty(), "{errs:?}");
        let Json::Obj(mut fields) = doc else { panic!("an object") };
        fields.retain(|(k, _)| k != "flushes");
        fields.iter_mut().find(|(k, _)| k == "degraded").expect("degraded").1 = json::num(1);
        CacheCounters::check_json(&Json::Obj(fields), "$.cache", &mut errs);
        assert_eq!(
            errs,
            ["$.cache: missing key \"flushes\"", "$.cache.degraded: expected a boolean"]
        );
    }
}
