//! # keq-bench — experiment harnesses
//!
//! Bench targets regenerating every table and figure of the paper's
//! evaluation; see EXPERIMENTS.md at the repository root for the index.

pub mod corpus_run;
pub mod normalization_workload;
pub mod session_workload;

pub use corpus_run::{
    outcome_table, run_corpus, run_corpus_cfg, CorpusResult, CorpusSummary, ResultKind,
};
/// The shared histogram type (lives in `keq-trace` so the run report's
/// latency distributions and the Fig. 7 plots use the same buckets).
pub use keq_trace::Histogram;
pub use keq_workload::GenConfig;
pub use normalization_workload::normalization_workload;
pub use session_workload::{sync_point_workload, SessionWorkload};
