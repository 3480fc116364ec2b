//! Batch-vs-server differential: the same seeded corpus, validated once
//! through the batch front end (`run_module`) and once streamed through a
//! live `keq-server`, must produce the identical verdict table — including
//! under an injected-fault campaign, because faults key off the submission
//! *unit*, which both front ends derive from the corpus function index.
//!
//! The clean-corpus leg also streams the corpus again through the same
//! server: residency must be invisible in verdicts, and the repeat must
//! ride the resident obligation cache.

mod common;

use common::{request_ir, Live, Verdict};
use keq_harness::{run_module, HarnessOptions, RetryPolicy, ServerOptions};
use keq_llvm::ast::Module;
use keq_smt::fault::{FaultPlan, Rate};
use keq_workload::{generate_corpus, GenConfig};

/// (result kind, attempts) per corpus function, via the batch front end.
fn batch_verdicts(corpus: &Module, opts: &HarnessOptions) -> Vec<Verdict> {
    run_module(corpus, opts)
        .rows
        .iter()
        .map(|r| (r.result.kind().name().to_string(), r.attempts.len() as u64))
        .collect()
}

#[test]
fn clean_corpus_validates_identically_through_both_front_ends() {
    let corpus = generate_corpus(GenConfig { seed: 71, ..GenConfig::default() }, 10);
    let opts = HarnessOptions { workers: 2, ..HarnessOptions::default() };
    let batch = batch_verdicts(&corpus, &opts);
    let mut live = Live::boot(&corpus, &ServerOptions { harness: opts, ..Default::default() });
    assert_eq!(batch, live.first, "batch and server verdict tables differ");
    live.repeat(&corpus, 1, 1);
    live.drain(&corpus);
}

#[test]
fn injected_fault_campaign_classifies_identically_through_both_front_ends() {
    let corpus = generate_corpus(GenConfig { seed: 72, ..GenConfig::default() }, 12);
    // Deterministic pipeline faults only (no wall-clock deadlines): panics
    // and forced budget exhaustion land on seed-selected *units*, and both
    // front ends key the unit off the corpus function index — so the same
    // functions crash, retry, and quarantine on both paths.
    let opts = HarnessOptions {
        workers: 2,
        fault_plan: FaultPlan {
            panic: Rate { num: 1, den: 4 },
            force_conflicts: Rate { num: 1, den: 4 },
            force_terms: Rate { num: 1, den: 4 },
            ..FaultPlan::quiet(9)
        },
        retry: RetryPolicy { max_attempts: 2, factor: 4, retry_crashes: true },
        ..HarnessOptions::default()
    };
    let batch = batch_verdicts(&corpus, &opts);
    assert!(
        batch.iter().any(|(kind, _)| kind != "succeeded"),
        "the fault leg must actually inject: {batch:?}"
    );
    assert!(
        batch.iter().any(|(_, attempts)| *attempts > 1),
        "the fault leg must exercise the retry ladder: {batch:?}"
    );
    let live = Live::boot(&corpus, &ServerOptions { harness: opts, ..Default::default() });
    assert_eq!(batch, live.drain(&corpus), "batch and server verdict tables differ");
}

/// The wire protocol round-trips the printed IR: parsing the module the
/// client prints reproduces the AST, so the server validates exactly what
/// the batch run saw (this is what makes the differential meaningful).
#[test]
fn printed_request_modules_reparse_to_the_same_ast() {
    let corpus = generate_corpus(GenConfig { seed: 73, ..GenConfig::default() }, 8);
    for i in 0..corpus.functions.len() {
        let ir = request_ir(&corpus, i);
        let reparsed = keq_llvm::parser::parse_module(&ir).expect("request IR parses");
        assert_eq!(reparsed.functions.len(), 1);
        assert_eq!(
            reparsed.functions[0], corpus.functions[i],
            "f{i} survives the print/parse round trip"
        );
    }
}
