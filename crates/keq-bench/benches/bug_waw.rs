//! **§5.2 / Fig. 8–9** — the write-after-write store-merging bug.
//!
//! The Fig. 8 LLVM input is compiled four ways — unoptimized, with correct
//! store merging, and with the re-introduced PR25154-style reordering bug —
//! and each translation is validated. The buggy one must be rejected.

use keq_core::KeqOptions;
use keq_isel::{validate_function, BugInjection, IselOptions, VcOptions};
use keq_llvm::parse_module;

fn main() {
    let m = parse_module(keq_llvm::corpus::FIG8_WAW).expect("parses");
    let f = &m.functions[0];
    println!("=== Fig. 8: LLVM input ===\n{f}");
    let cases = [
        ("Fig. 9(a) unoptimized", IselOptions { merge_stores: false, ..Default::default() }),
        ("Fig. 9(c) correct merge", IselOptions::default()),
        (
            "Fig. 9(b) WAW-violating merge (bug)",
            IselOptions { bug: BugInjection::WawStoreMerge, ..Default::default() },
        ),
    ];
    for (label, opts) in cases {
        let out = validate_function(&m, f, opts, VcOptions::default(), KeqOptions::default())
            .expect("supported");
        println!("--- {label} ---\n{}", out.isel.func);
        println!("verdict: {}\n", out.report.verdict);
        let buggy = opts.bug == BugInjection::WawStoreMerge;
        assert_eq!(out.report.verdict.is_validated(), !buggy, "{label}: wrong verdict");
    }
    println!("as in the paper: the miscompilation cannot pass the system, the");
    println!("correct merge (and the unoptimized translation) validate.");
}
