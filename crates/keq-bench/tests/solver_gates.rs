//! Solver-level gates on the two synthetic workloads of this crate:
//!
//! * session reuse — the sync-point batch discharged through one session
//!   bit-blasts at least 2× fewer term nodes than the same batch posed
//!   query by query from scratch;
//! * normalization — two functions posing the same obligations in
//!   different surface syntax against one cold shared cache: saturating
//!   rewriting cuts blasted terms by at least 20%, lifts function B's
//!   cold hit ratio by at least 0.2, and is not slower.
//!
//! Every query also checks its expected verdict, so no gate can be met by
//! answering wrongly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use keq_bench::{normalization_workload, sync_point_workload, SessionWorkload};
use keq_smt::{CheckOutcome, SharedObligationCache, Solver, TermBank};

/// Poses every obligation of `wl` as one scratch query `prefix ++ delta`
/// and checks its expected verdict.
fn check_scratch(solver: &mut Solver, bank: &mut TermBank, wl: &SessionWorkload, leg: &str) {
    for (delta, expect_sat) in &wl.obligations {
        let outcome = solver.check_sat(bank, &[wl.prefix.as_slice(), delta].concat());
        assert_eq!(matches!(outcome, CheckOutcome::Sat(_)), *expect_sat, "{leg}: verdict drift");
    }
}

#[test]
fn session_blasts_at_least_2x_fewer_nodes_than_scratch() {
    let mut bank = TermBank::new();
    let wl = sync_point_workload(&mut bank, 32, 6);

    let mut scratch = Solver::new();
    check_scratch(&mut scratch, &mut bank, &wl, "scratch");

    let mut warm = Solver::new();
    let mut session = warm.open_session(&wl.prefix);
    for (delta, expect_sat) in &wl.obligations {
        let outcome = session.check_sat(&mut bank, delta);
        assert_eq!(matches!(outcome, CheckOutcome::Sat(_)), *expect_sat, "session: verdict drift");
    }
    drop(session);

    let (scratch, session) = (scratch.stats().terms_blasted, warm.stats().terms_blasted);
    assert!(
        session * 2 <= scratch,
        "session must bit-blast >=2x fewer nodes (session {session}, scratch {scratch})"
    );
}

/// One leg of the normalization comparison.
struct Leg {
    wall: Duration,
    terms_blasted: u64,
    b_hits: u64,
    /// Function B's cold hit ratio.
    b_ratio: f64,
}

/// Runs both variants against one cold shared cache; function B gets a
/// fresh solver so its only reuse channel is the cross-function cache.
fn run_leg(rewrite: bool) -> Leg {
    let mut bank = TermBank::new();
    let cache = Arc::new(SharedObligationCache::new());
    let start = Instant::now();
    let mut stats = Vec::new();
    for variant in 0..2u64 {
        let wl = normalization_workload(&mut bank, 32, 12, variant);
        let mut solver = Solver::new();
        solver.set_rewrite_enabled(rewrite);
        solver.set_obligation_cache(Some(cache.clone()));
        check_scratch(&mut solver, &mut bank, &wl, &format!("rewrite={rewrite} variant={variant}"));
        stats.push(solver.stats());
    }
    let b = &stats[1];
    let b_lookups = b.obligation_cache_hits + b.obligation_cache_misses;
    Leg {
        wall: start.elapsed(),
        terms_blasted: stats.iter().map(|s| s.terms_blasted).sum(),
        b_hits: b.obligation_cache_hits,
        b_ratio: b.obligation_cache_hits as f64 / b_lookups.max(1) as f64,
    }
}

#[test]
fn normalization_cuts_blasted_terms_and_lifts_cold_cross_function_hits() {
    let baseline = run_leg(false);
    let rewrite = run_leg(true);

    assert!(
        rewrite.terms_blasted * 100 <= baseline.terms_blasted * 80,
        "normalization must cut blasted terms by >=20% (rewrite {}, baseline {})",
        rewrite.terms_blasted,
        baseline.terms_blasted
    );
    assert!(
        rewrite.b_hits > 0 && rewrite.b_ratio >= baseline.b_ratio + 0.2,
        "cross-function collisions must lift the cold hit ratio by >=0.2 \
         (rewrite {:.2}, baseline {:.2})",
        rewrite.b_ratio,
        baseline.b_ratio
    );
    assert!(
        rewrite.wall <= baseline.wall.mul_f64(1.05) + Duration::from_millis(250),
        "normalization must not be slower (baseline {:?}, rewrite {:?})",
        baseline.wall,
        rewrite.wall
    );
}
