//! Golden-file pin of the Prometheus text exposition: a populated registry
//! plus a hand-built family with adversarial label values renders
//! byte-identically to the checked-in golden file, so accidental format
//! drift (ordering, escaping, number rendering) fails loudly. A minimal
//! line-shape check doubles as the parser a scrape endpoint would apply.
//!
//! Regenerate after an *intentional* format change with
//! `KEQ_BLESS_GOLDEN=1 cargo test -p keq-trace --test prometheus_golden`.

use keq_trace::metrics::{prom_from_registry, render_prometheus, PromKind, PromMetric, PromSample};
use keq_trace::{CounterId, GaugeId, HistId, Registry};

/// A registry with deterministic traffic on every metric kind.
fn populated_registry() -> Registry {
    let r = Registry::new();
    r.counter_add(CounterId::Requests, 7);
    r.counter_add(CounterId::Completed, 6);
    r.counter_add(CounterId::RejectedQueueFull, 1);
    r.counter_add(CounterId::ObligationCacheHits, 40);
    r.counter_add(CounterId::ObligationCacheMisses, 9);
    r.counter_add(CounterId::CdclConflicts, 1234);
    r.gauge_set(GaugeId::QueueDepth, 3);
    r.gauge_set(GaugeId::WorkersBusy, 2);
    r.gauge_set(GaugeId::WorkersIdle, 2);
    r.gauge_set(GaugeId::ObcacheBytes, 4096);
    r.observe_us(HistId::RequestLatencyUs, 90);
    r.observe_us(HistId::RequestLatencyUs, 850);
    r.observe_us(HistId::RequestLatencyUs, 2_000_000);
    r.observe_us(HistId::AttemptWallUs, 500);
    r
}

/// The slow-obligation family with label values chosen to hit every escape
/// rule: backslashes, double quotes, and newlines.
fn adversarial_slow_family() -> PromMetric {
    PromMetric {
        name: "keq_slow_obligation_wall_us".to_string(),
        // HELP escapes backslash and newline (not quotes).
        help: "slow \\ table\nsecond \"line\"".to_string(),
        kind: PromKind::Gauge,
        samples: vec![
            PromSample {
                suffix: "",
                labels: vec![
                    ("fingerprint".to_string(), "00c0ffee00c0ffee".to_string()),
                    ("label".to_string(), "@\"quoted\" \\ path\nnewline".to_string()),
                    ("result".to_string(), "succeeded".to_string()),
                ],
                value: 1_900_000.0,
            },
            PromSample {
                suffix: "",
                labels: vec![
                    ("fingerprint".to_string(), "0000000000000001".to_string()),
                    ("label".to_string(), "f1".to_string()),
                    ("result".to_string(), "timeout".to_string()),
                ],
                value: 0.5,
            },
        ],
    }
}

#[test]
fn prometheus_exposition_matches_golden_file() {
    let mut families = prom_from_registry(&populated_registry());
    families.push(adversarial_slow_family());
    let rendered = render_prometheus(&families);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/PROMETHEUS.golden.txt");

    if std::env::var("KEQ_BLESS_GOLDEN").is_ok() {
        std::fs::write(golden_path, &rendered).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with KEQ_BLESS_GOLDEN=1 once to create it");
    assert_eq!(
        rendered, golden,
        "Prometheus exposition drifted from the golden file; if the format change \
         is intentional, regenerate with KEQ_BLESS_GOLDEN=1"
    );

    // Line-shape check: what a scrape endpoint's parser enforces. Escaped
    // newlines keep every logical sample on one physical line.
    let mut samples = 0usize;
    for line in rendered.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        assert!(!line.is_empty(), "no blank lines inside the exposition");
        let (name_part, value_part) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("unsplittable line: {line}"));
        assert!(
            value_part == "+Inf" || value_part.parse::<f64>().is_ok(),
            "unparseable value in: {line}"
        );
        let metric_name = name_part.split('{').next().unwrap();
        assert!(
            metric_name.starts_with("keq_")
                && metric_name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name in: {line}"
        );
        samples += 1;
    }
    assert!(samples > 40, "registry exposition unexpectedly small: {samples} samples");

    // Escaping spot checks, independent of the golden bytes.
    assert!(
        rendered.contains(r#"label="@\"quoted\" \\ path\nnewline""#),
        "label escaping drifted:\n{rendered}"
    );
    assert!(
        rendered.contains("# HELP keq_slow_obligation_wall_us slow \\\\ table\\nsecond \"line\""),
        "HELP escaping drifted:\n{rendered}"
    );

    // Cumulative-bucket invariant on the request-latency histogram.
    let bucket_counts: Vec<f64> = rendered
        .lines()
        .filter(|l| l.starts_with("keq_request_latency_us_bucket"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<f64>().unwrap())
        .collect();
    assert!(!bucket_counts.is_empty());
    assert!(
        bucket_counts.windows(2).all(|w| w[0] <= w[1]),
        "histogram buckets must be cumulative: {bucket_counts:?}"
    );
    assert_eq!(*bucket_counts.last().unwrap(), 3.0, "+Inf bucket counts all observations");
}
