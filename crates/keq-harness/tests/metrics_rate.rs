//! Live telemetry must be cheap enough to leave on: a metrics-enabled
//! `keq-server` sustains at least 95% of a disabled one's resident request
//! rate, read as the median ratio of one request's round trips through
//! the two servers, sent back to back. The bar compares wall times, so
//! this test has a binary of its own: cargo runs test binaries one at a
//! time, and no other test of the crate competes with it for the CPU.

mod common;

use std::time::Duration;

use common::Live;
use keq_core::KeqOptions;
use keq_harness::protocol::{ClientRequest, ServerResponse};
use keq_harness::{HarnessOptions, MetricsConfig, ServerOptions};
use keq_smt::Budget;
use keq_workload::{generate_corpus, GenConfig};

#[test]
fn metrics_keep_95_percent_of_the_resident_request_rate() {
    let corpus = generate_corpus(GenConfig { seed: 2021, ..GenConfig::default() }, 8);
    let solver_budget = Budget { max_conflicts: 500_000, max_terms: 2_000_000, max_time: None };
    let boot = |enabled: bool| {
        let harness = HarnessOptions {
            keq: KeqOptions { solver_budget, ..KeqOptions::default() },
            metrics: MetricsConfig {
                enabled,
                // Fast sampling, so even short windows land collector
                // samples.
                sample_interval: Duration::from_millis(50),
            },
            ..HarnessOptions::default()
        };
        Live::boot(&corpus, &ServerOptions { harness, ..Default::default() })
    };
    let (mut off, mut on) = (boot(false), boot(true));

    // One window's summed wall swings by about as much as the bar from
    // machine noise alone, and a slow spell can cover several windows, so
    // the rate pairs single requests instead: each pass sends every
    // function to both servers back to back, alternating which goes
    // first, and the rate is the median of the per-request ratios. A burst
    // of noise moves a few pairs, not the median.
    const PASSES: usize = 24;
    let mut ratios: Vec<f64> = (0..PASSES)
        .flat_map(|k| Live::paired_pass(&mut off, &mut on, &corpus, k % 2 == 1))
        .map(|(off_trip, on_trip)| off_trip.as_secs_f64() / on_trip.as_secs_f64())
        .collect();
    ratios.sort_by(f64::total_cmp);

    match on.ctl.roundtrip(&ClientRequest::Metrics).expect("metrics round trip") {
        ServerResponse::Metrics(m) => {
            assert!(m.enabled, "the instrumented server must report metrics enabled");
            assert!(m.samples > 0, "the collector must have sampled the windows");
            assert!(!m.slow.is_empty(), "the slow-obligation table must be populated");
        }
        other => panic!("expected metrics, got {other:?}"),
    }
    off.drain(&corpus);
    on.drain(&corpus);

    let mid = ratios.len() / 2;
    let rate = (ratios[mid - 1] + ratios[mid]) / 2.0;
    let (low, high) = (ratios[ratios.len() / 4], ratios[3 * ratios.len() / 4]);
    eprintln!(
        "metrics-on / metrics-off request rate: {rate:.3} (median of {} pairs, quartiles \
         {low:.3}-{high:.3})",
        ratios.len()
    );
    assert!(
        rate >= 0.95,
        "the metrics-enabled server must sustain >=95% of the disabled server's request rate \
         (median per-request ratio {rate:.3} over {} pairs, quartiles {low:.3}-{high:.3})",
        ratios.len()
    );
}
