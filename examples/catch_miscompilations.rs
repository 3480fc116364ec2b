//! Re-introduce the paper's two real ISel bugs (§5.2) and watch the
//! translation-validation system reject exactly the buggy translations.
//!
//! Run with: `cargo run --release --example catch_miscompilations`

use keq_repro::core::KeqOptions;
use keq_repro::isel::{validate_function, BugInjection, IselOptions, VcOptions};
use keq_repro::llvm::parse_module;

fn check(title: &str, src: &str, bug: BugInjection) -> bool {
    let module = parse_module(src).expect("valid LLVM IR");
    let func = &module.functions[0];
    let outcome = validate_function(
        &module,
        func,
        IselOptions { bug, ..IselOptions::default() },
        VcOptions::default(),
        KeqOptions::default(),
    )
    .expect("supported");
    println!("== {title} ==");
    println!("{}", outcome.isel.func);
    println!("verdict: {}\n", outcome.report.verdict);
    outcome.report.verdict.is_validated()
}

fn main() {
    // PR25154-style write-after-write violation in store merging (Fig. 8/9).
    let ok = check(
        "Fig. 9 correct store merging",
        keq_repro::llvm::corpus::FIG8_WAW,
        BugInjection::None,
    );
    let bad = check(
        "Fig. 9(b) WAW-violating store merging",
        keq_repro::llvm::corpus::FIG8_WAW,
        BugInjection::WawStoreMerge,
    );
    assert!(ok && !bad, "the WAW bug must be caught");

    // PR4737-style out-of-bounds load narrowing on i96 (Fig. 10/11).
    let ok = check(
        "Fig. 11(a) correct load narrowing",
        keq_repro::llvm::corpus::FIG10_LOAD_NARROW,
        BugInjection::None,
    );
    let bad = check(
        "Fig. 11(b) out-of-bounds load narrowing",
        keq_repro::llvm::corpus::FIG10_LOAD_NARROW,
        BugInjection::LoadNarrowing,
    );
    assert!(ok && !bad, "the load-narrowing bug must be caught");
    println!("both §5.2 miscompilations rejected; both correct translations validated.");
}
