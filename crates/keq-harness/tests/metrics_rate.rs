//! Live telemetry must be cheap enough to leave on: a metrics-enabled
//! `keq-server` sustains at least 95% of a disabled one's resident request
//! rate. The bar compares wall times, so this test has a binary of its
//! own: cargo runs test binaries one at a time, and no other test of the
//! crate competes with it for the CPU.

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

    // Each window is 2 rounds over 2 connections. One window's wall swings
    // by about as much as the bar from machine noise alone, so each server
    // streams six, in alternating order (off-on, on-off, ...) so both see
    // the same load, and the rate compares the summed walls.
    let (mut off_wall, mut on_wall) = (Duration::ZERO, Duration::ZERO);
    for k in 0..6 {
        let mut pair = [(&mut off, &mut off_wall), (&mut on, &mut on_wall)];
        if k % 2 == 1 {
            pair.reverse();
        }
        for (live, wall) in pair {
            *wall += live.repeat(&corpus, 2, 2);
        }
    }

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

    let rate = off_wall.as_secs_f64() / on_wall.as_secs_f64();
    eprintln!("metrics-on / metrics-off request rate: {rate:.3}");
    assert!(
        rate >= 0.95,
        "the metrics-enabled server must sustain >=95% of the disabled server's request rate \
         (disabled {off_wall:?}, enabled {on_wall:?} for the same requests)"
    );
}

