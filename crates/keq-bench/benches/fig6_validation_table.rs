//! **Fig. 6** — translation-validation results table over the corpus.
//!
//! The paper validates 4732 supported GCC/SPEC 2006 functions with a 3-hour
//! per-function timeout, reporting Succeeded / timeout / out-of-memory /
//! other counts (91.52% success). SPEC sources are proprietary, so this
//! harness sweeps the synthetic corpus (DESIGN.md substitution #3) with
//! scaled-down resource limits. Environment knobs:
//!
//! * `KEQ_FIG6_N`      — number of functions (default 60)
//! * `KEQ_FIG6_SECS`   — per-function wall-clock limit (default 20)
//! * `KEQ_FIG6_SEED`   — corpus seed (default 2021)
//! * `KEQ_FIG6_BUGS_N` — functions swept per injected GVN bug (default 20)
//!
//! After the main table, the harness replays the §5.2 bug-study
//! methodology against the GVN mid-end pass: each injectable
//! miscompilation is compiled into a corpus slice, and every function the
//! bug observably miscompiles must be *rejected* by the unmodified
//! checker. Fired bugs the checker accepts are cross-checked with concrete
//! differential runs — any diverging input aborts the bench, so an accept
//! is only ever a benign fire (the miscompiled value was unobservable).

use std::time::Duration;

use keq_bench::{outcome_table, run_corpus, ResultKind};
use keq_core::KeqOptions;
use keq_isel::{validate_gvn_with_context, GvnBug, GvnOptions, ValidationContext};
use keq_llvm::gvn::run_gvn;
use keq_semantics::Outcome;
use keq_smt::Budget;
use keq_workload::{generate_corpus, GenConfig};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn main() {
    let n = env_u64("KEQ_FIG6_N", 60) as usize;
    let secs = env_u64("KEQ_FIG6_SECS", 20);
    let seed = env_u64("KEQ_FIG6_SEED", 2021);
    let opts = KeqOptions {
        time_limit: Some(Duration::from_secs(secs)),
        solver_budget: Budget {
            max_conflicts: 500_000,
            max_terms: 2_000_000,
            max_time: Some(Duration::from_secs(secs / 4 + 1)),
        },
        ..KeqOptions::default()
    };
    eprintln!("validating {n} corpus functions (seed {seed}, {secs}s/function)...");
    let (_m, summary) = run_corpus(seed, n, opts);
    println!("=== Fig. 6: translation validation results ===");
    println!("{:<30} {:>10}", "Result", "#Functions");
    println!("{:<30} {:>10}", "Succeeded", summary.count(ResultKind::Succeeded));
    println!("{:<30} {:>10}", "Failed due to timeout", summary.count(ResultKind::Timeout));
    println!(
        "{:<30} {:>10}",
        "Failed due to out-of-memory",
        summary.count(ResultKind::OutOfMemory)
    );
    println!("{:<30} {:>10}", "Crashed (isolated panic)", summary.count(ResultKind::Crashed));
    println!("{:<30} {:>10}", "Other", summary.count(ResultKind::Other));
    println!("{:<30} {:>10}", "Total", summary.total());
    println!();
    println!("success rate: {:.2}%  (paper: 91.52% = 4331/4732)", summary.success_rate() * 100.0);
    // Machine-readable mirror of the table, in the shared report schema.
    println!("outcome_json: {}", outcome_table(&summary).to_json_string());
    println!("{}", summary.summary_line());

    // §5.2 methodology against the GVN pass: every function where an
    // injected miscompilation fires must be caught by the same checker.
    let bugs_n = env_u64("KEQ_FIG6_BUGS_N", 20) as usize;
    let mut module = generate_corpus(GenConfig { seed, ..GenConfig::default() }, bugs_n);
    // Known §5.2-style subjects where each bug observably fires, so the
    // caught column is never vacuously zero; the corpus adds breadth.
    let subjects = keq_llvm::parser::parse_module(
        "define i32 @sub_pair(i32 %a, i32 %b) {\n %x = sub i32 %a, %b\n %y = sub i32 %b, \
         %a\n %z = mul i32 %x, %y\n ret i32 %z\n}\ndefine i32 @const_ret(i32 %a) {\n %c = \
         add i32 20, 22\n %s = add i32 %a, %c\n ret i32 %s\n}",
    )
    .expect("subjects parse");
    module.functions.extend(subjects.functions);
    println!();
    println!("=== GVN injected miscompilations (corpus slice of {bugs_n}) ===");
    println!("{:<30} {:>8} {:>8} {:>8}", "Injected bug", "Fired", "Caught", "Benign");
    for (bug, label) in [
        (GvnBug::CommuteSub, "Commuted sub dedup"),
        (GvnBug::OffByOneFold, "Off-by-one constant fold"),
    ] {
        let mut fired = 0usize;
        let mut caught = 0usize;
        for f in &module.functions {
            // The bug "fires" on a function when it changes the pass's
            // output relative to the clean run.
            let clean = run_gvn(f, GvnOptions::default());
            let bugged = run_gvn(f, GvnOptions { bug });
            if clean.func == bugged.func && clean.eliminated == bugged.eliminated {
                continue;
            }
            fired += 1;
            let mut ctx = ValidationContext::new();
            let (report, out) =
                validate_gvn_with_context(&module, f, GvnOptions { bug }, opts, None, &mut ctx);
            if !report.verdict.is_validated() {
                caught += 1;
                continue;
            }
            // The checker accepted a fired bug: legitimate only when the
            // miscompiled value is unobservable. Cross-check with concrete
            // differential runs — any diverging input is a checker miss.
            let layout = keq_llvm::Layout::of(&module, f);
            let src = keq_llvm::LlvmSemantics::with_layout(&module, f, layout.clone());
            let opt = keq_llvm::LlvmSemantics::with_layout(&module, &out.func, layout);
            for trial in 0..16u128 {
                let args: Vec<u128> =
                    (0..f.params.len()).map(|i| trial * 37 + 3 + i as u128).collect();
                let fuel = 100_000;
                if let (
                    Ok(Outcome::Returned { ret: l, .. }),
                    Ok(Outcome::Returned { ret: r, .. }),
                ) = (src.run(&args, fuel), opt.run(&args, fuel))
                {
                    assert_eq!(
                        l, r,
                        "{label}: {} miscompiled observably but the checker validated it",
                        f.name
                    );
                }
            }
        }
        let benign = fired - caught;
        println!("{label:<30} {fired:>8} {caught:>8} {benign:>8}");
        assert!(caught > 0, "{label}: the bug never produced a rejected translation");
    }
    println!(
        "every observably-miscompiled function was rejected; validated fires were \
         differentially confirmed benign"
    );
}
