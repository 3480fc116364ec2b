//! The solver counter table: every solver counter is declared once, here.
//!
//! One row per counter gives its field name, its key in the report's
//! `solver` object, the registry [`CounterId`] it feeds (if any), and its
//! doc text. The macro derives everything else from the table: the
//! [`SolverCounters`] struct (which `keq_smt` re-exports as `SolverStats`),
//! `merge`/`since`, the wire form, and the iterators the summary line and
//! the scheduler's Prometheus feed walk. Adding a counter means adding a
//! row here and incrementing it where it happens, nothing else.

use std::time::Duration;

use crate::json::{self, Json};
use crate::metrics::CounterId;

macro_rules! solver_counters {
    ($($field:ident $($wire:literal)? [$($feed:ident)?] $doc:literal,)*) => {
        /// Cumulative solver statistics, and the report's `solver` section.
        ///
        /// Every counted query adds one to `queries` and one to exactly one
        /// of `sat`, `unsat` and `budget`.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct SolverCounters {
            $(#[doc = $doc] pub $field: u64,)*
            /// Total wall-clock time in the solver (`time_us` on the wire).
            pub time: Duration,
        }

        impl SolverCounters {
            /// The keys of the wire form, in order.
            pub const FIELDS: &'static [&'static str] = &[$($($wire,)?)* "time_us"];

            /// Field-wise accumulation `self + other`, for merging the
            /// per-run deltas of many corpus functions into one total.
            pub fn merge(&mut self, other: &SolverCounters) {
                $(self.$field += other.$field;)*
                self.time += other.time;
            }

            /// Field-wise difference `self - earlier`, for reporting the
            /// cost of one run of a reused (warm-started) solver. Saturates
            /// at zero so a mismatched pair cannot panic.
            #[must_use]
            pub fn since(&self, earlier: &SolverCounters) -> SolverCounters {
                SolverCounters {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                    time: self.time.saturating_sub(earlier.time),
                }
            }

            /// Every counter as `(field name, value)`, in table order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field),)*].into_iter()
            }

            /// The registry counters these counters feed, as `(id, value)`.
            pub fn registry_feed(&self) -> impl Iterator<Item = (CounterId, u64)> {
                [$($((CounterId::$feed, self.$field),)?)*].into_iter()
            }

            /// Serializes to the stable wire shape (shared by
            /// `RUN_REPORT.json` and the server protocol's slow-obligation
            /// rows).
            pub fn to_json(self) -> Json {
                let time_us = u64::try_from(self.time.as_micros()).unwrap_or(u64::MAX);
                json::obj(vec![
                    $($(($wire, json::num(self.$field)),)?)*
                    ("time_us", json::num(time_us)),
                ])
            }

            /// Parses the [`SolverCounters::to_json`] shape. Missing fields
            /// read zero (forward compatibility on the wire); a non-object
            /// is `None`.
            pub fn from_json(doc: &Json) -> Option<SolverCounters> {
                let Json::Obj(_) = doc else { return None };
                let f = |k: &str| doc.get(k).and_then(Json::as_u64).unwrap_or(0);
                let mut c = SolverCounters {
                    time: Duration::from_micros(f("time_us")),
                    ..SolverCounters::default()
                };
                $($(c.$field = f($wire);)?)*
                Some(c)
            }
        }
    };
}

// Rows without a wire name stay out of the report's `solver` object: the
// obligation-cache traffic is reported in its `cache` section instead.
solver_counters! {
    queries "queries" [SolverQueries] "Total queries issued.",
    sat "sat" [] "Queries answered `Sat`.",
    unsat "unsat" [] "Queries answered `Unsat`.",
    budget "budget" [] "Queries that exhausted a budget, were cancelled, or were faulted.",
    conflicts "conflicts" [CdclConflicts] "Total CDCL conflicts.",
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
    rewrite_rules_fired "rewrite_rules_fired" [] "Rewrite rules fired by obligation normalization.",
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
}
