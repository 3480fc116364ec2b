//! End-to-end tests of the corpus-wide obligation cache through the
//! harness: persistent warm starts across runs, fail-soft loading of
//! garbage stores, and the guarantee that faulted attempts persist only
//! genuinely proven obligations.

use std::path::PathBuf;

use keq_harness::{run_module, HarnessOptions, ResultKind};
use keq_smt::fault::{FaultPlan, Rate};
use keq_smt::{SharedObligationCache, StdStoreIo};
use keq_workload::{generate_corpus, GenConfig};

/// Small all-supported corpus (no loops/calls/memory keeps validation
/// cheap and every baseline row `Succeeded`).
fn small_corpus(n: usize) -> keq_llvm::ast::Module {
    generate_corpus(
        GenConfig {
            seed: 1,
            loops: false,
            calls: false,
            memory: false,
            division: false,
            ..GenConfig::default()
        },
        n,
    )
}

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("keq-harness-obcache-{tag}-{}.keqcache", std::process::id()))
}

#[test]
fn second_run_warm_starts_from_the_persisted_store() {
    let store = temp_store("warm");
    let _ = std::fs::remove_file(&store);
    let module = small_corpus(6);
    let opts =
        HarnessOptions { workers: 1, cache_path: Some(store.clone()), ..HarnessOptions::default() };

    let cold = run_module(&module, &opts);
    assert_eq!(cold.count(ResultKind::Succeeded), 6, "{}", cold.summary_line());
    assert!(cold.cache.disk_persisted > 0, "{:?}", cold.cache);
    assert!(cold.cache.disk_bytes > 0);

    let warm = run_module(&module, &opts);
    assert!(
        warm.cache.disk_loaded >= cold.cache.disk_persisted,
        "warm load {:?} vs cold persist {:?}",
        warm.cache,
        cold.cache
    );
    assert!(
        warm.solver.obligation_cache_hits > 0 && warm.obligation_cache_hit_ratio() >= 0.30,
        "warm run must discharge >=30% of obligations from the store: {}",
        warm.summary_line()
    );
    // The cache must be invisible to verdicts.
    let kinds =
        |s: &keq_harness::CorpusSummary| s.rows.iter().map(|r| r.result.kind()).collect::<Vec<_>>();
    assert_eq!(kinds(&cold), kinds(&warm));
    let _ = std::fs::remove_file(&store);
}

#[test]
fn garbage_store_degrades_to_a_cold_run_and_is_rewritten() {
    let store = temp_store("garbage");
    std::fs::write(&store, b"this is not a keq obligation store").expect("write garbage");
    let module = small_corpus(4);
    let opts =
        HarnessOptions { workers: 1, cache_path: Some(store.clone()), ..HarnessOptions::default() };

    let summary = run_module(&module, &opts);
    assert_eq!(summary.total(), 4, "the run must complete despite the garbage store");
    assert_eq!(summary.count(ResultKind::Succeeded), 4);
    assert_eq!(summary.cache.disk_loaded, 0, "{:?}", summary.cache);
    assert!(summary.cache.disk_persisted > 0, "shutdown must rewrite a valid store");

    // The rewritten store is valid: a fresh cache loads every record.
    let reload = SharedObligationCache::new();
    let outcome = reload.load_with(&store, &StdStoreIo);
    assert_eq!(outcome.loaded, summary.cache.disk_persisted, "{outcome:?}");
    assert_eq!(outcome.rejected, 0, "{outcome:?}");
    let _ = std::fs::remove_file(&store);
}

#[test]
fn faulted_runs_persist_only_proven_obligations() {
    let store = temp_store("faulted");
    let _ = std::fs::remove_file(&store);
    let module = small_corpus(5);
    // Every unit's first query spuriously reports conflict exhaustion:
    // plenty of budget-class outcomes flow through the solver, none of
    // which may reach the store.
    let opts = HarnessOptions {
        workers: 1,
        cache_path: Some(store.clone()),
        fault_plan: FaultPlan { force_conflicts: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(11) },
        ..HarnessOptions::default()
    };

    let summary = run_module(&module, &opts);
    assert!(summary.solver.budget > 0, "the fault plan must actually fire: {:?}", summary.solver);
    assert_eq!(
        summary.cache.disk_persisted, summary.solver.obligation_cache_stores,
        "only Unsat verdicts may be persisted: {:?} vs {:?}",
        summary.cache, summary.solver
    );

    // Every persisted record is a valid Unsat verdict — nothing else has
    // a wire encoding, so a full clean reload proves no faulted or
    // budgeted outcome leaked to disk.
    let reload = SharedObligationCache::new();
    let outcome = reload.load_with(&store, &StdStoreIo);
    assert_eq!(outcome.loaded, summary.cache.disk_persisted, "{outcome:?}");
    assert_eq!(outcome.rejected, 0, "{outcome:?}");
    let _ = std::fs::remove_file(&store);
}
