//! A warm request costs what the scheduler costs: over real TCP, a
//! request's client round trip less its verdict's submit-to-verdict
//! `wall_us` stays far below one delayed ACK, which costs at least 40 ms
//! on Linux. A frame split over two writes, or Nagle's algorithm left on,
//! makes every request wait one out. The bar compares wall times, so this
//! test has a binary of its own.

mod common;

use std::time::Duration;

use common::Live;
use keq_core::KeqOptions;
use keq_harness::{HarnessOptions, ServerOptions};
use keq_smt::Budget;
use keq_workload::{generate_corpus, GenConfig};

#[test]
fn a_warm_request_waits_out_no_delayed_ack() {
    let corpus = generate_corpus(GenConfig { seed: 2021, ..GenConfig::default() }, 4);
    let solver_budget = Budget { max_conflicts: 500_000, max_terms: 2_000_000, max_time: None };
    let harness = HarnessOptions {
        keq: KeqOptions { solver_budget, ..KeqOptions::default() },
        ..HarnessOptions::default()
    };
    // The boot pass fills the resident cache and a repeat pass checks that
    // it answers; six more passes over one connection then make 24
    // sequential warm requests.
    let mut live = Live::boot(&corpus, &ServerOptions { harness, ..Default::default() });
    live.repeat(&corpus, 1, 1);
    let mut overheads: Vec<Duration> = (0..6).flat_map(|_| live.overheads(&corpus)).collect();
    live.drain(&corpus);

    overheads.sort();
    let median = overheads[overheads.len() / 2];
    eprintln!("wire overhead over {} requests: median {median:?}", overheads.len());
    assert!(
        median < Duration::from_millis(20),
        "a warm request's round trip must exceed its verdict's wall time by under 20 ms \
         in the median (median {median:?}; sorted {overheads:?})"
    );
}
