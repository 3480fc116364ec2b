//! Corpus-scale checks: (a) the translation-validation success rate on the
//! synthetic corpus has the paper's >90% shape, and (b) differential
//! concrete execution confirms that the (unbugged) ISel pass is actually
//! correct on random functions and inputs — so KEQ's "validated" verdicts
//! are corroborated by an independent oracle.

use std::collections::BTreeMap;

use keq_repro::core::KeqOptions;
use keq_repro::isel::{select, IselOptions};
use keq_repro::llvm::{Layout, LlvmSemantics};
use keq_repro::semantics::Outcome;
use keq_repro::smt::Budget;
use keq_repro::vx86::VxSemantics;
use keq_repro::workload::{generate_corpus, GenConfig};

fn corpus_opts() -> KeqOptions {
    KeqOptions {
        time_limit: Some(std::time::Duration::from_secs(20)),
        solver_budget: Budget {
            max_conflicts: 500_000,
            max_terms: 2_000_000,
            max_time: Some(std::time::Duration::from_secs(5)),
        },
        ..KeqOptions::default()
    }
}

#[test]
fn corpus_validation_rate_matches_paper_shape() {
    let (_m, summary) = keq_bench::run_corpus(7, 25, corpus_opts());
    assert!(
        summary.success_rate() >= 0.9,
        "expected the paper's >90% success shape, got {:.0}% ({:?})",
        summary.success_rate() * 100.0,
        summary
            .rows
            .iter()
            .filter(|r| r.result != keq_bench::CorpusResult::Succeeded)
            .map(|r| (&r.name, &r.result))
            .collect::<Vec<_>>()
    );
}

#[test]
fn differential_execution_agrees_across_isel() {
    let module = generate_corpus(GenConfig { seed: 99, ..GenConfig::default() }, 25);
    let mut compared = 0usize;
    for f in &module.functions {
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else {
            continue;
        };
        let globals: BTreeMap<String, u64> =
            layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let src = LlvmSemantics::with_layout(&module, f, layout.clone());
        let tgt = VxSemantics::new(&out.func, layout.mem.clone(), globals);
        for trial in 0..6u128 {
            let args: Vec<u128> =
                (0..f.params.len()).map(|i| trial * 17 + i as u128 * 3 + 1).collect();
            let lres = src.run(&args, 200_000).expect("source runs");
            let rres = tgt.run(&args, 400_000).expect("target runs");
            match (lres, rres) {
                (l @ Outcome::Returned { .. }, r @ Outcome::Returned { .. }) => {
                    compared += 1;
                    assert_eq!(
                        l, r,
                        "{}({args:?}): return values or final memories differ\n{f}\n{}",
                        f.name, out.func
                    );
                }
                // UB on the source side frees the target; kinds still align
                // in this fragment.
                (Outcome::Error(l), Outcome::Error(r)) if l == r => compared += 1,
                // Both ran out of fuel (deeply nested generated loops).
                (Outcome::OutOfFuel, Outcome::OutOfFuel) => {}
                (l, r) => panic!("{}({args:?}): diverged: {l:?} vs {r:?}", f.name),
            }
        }
    }
    assert!(compared > 50, "expected plenty of comparisons, got {compared}");
}

#[test]
fn unsupported_features_are_reported_not_miscompiled() {
    // A function with a wide type outside any narrowing pattern must be
    // rejected by ISel (the paper's unsupported bucket), never silently
    // compiled.
    let src = r#"
@w = external global i128

define void @f() {
  %v = load i128, i128* @w
  store i128 %v, i128* @w
  ret void
}
"#;
    let m = keq_repro::llvm::parse_module(src).expect("parses");
    let f = &m.functions[0];
    let layout = Layout::of(&m, f);
    let err = select(&m, f, &layout, IselOptions::default()).expect_err("unsupported");
    assert!(err.message.contains("wide load") || err.message.contains("not supported"), "{err}");
}
