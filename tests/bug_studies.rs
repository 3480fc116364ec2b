//! The paper's §5.2 evaluation: two real ISel miscompilations
//! re-introduced into the compiler must be rejected, while the correct
//! optimizations validate.

use keq_repro::core::{FailureReason, KeqOptions, Verdict};
use keq_repro::isel::{validate_function, BugInjection, IselOptions, VcOptions};
use keq_repro::llvm::{parse_module, Layout, LlvmSemantics};
use keq_repro::semantics::{ErrorKind, Outcome};
use keq_repro::vx86::{VxFunction, VxSemantics};

fn validate(src: &str, bug: BugInjection) -> keq_repro::core::KeqReport {
    let m = parse_module(src).expect("parses");
    let f = &m.functions[0];
    validate_function(
        &m,
        f,
        IselOptions { bug, ..IselOptions::default() },
        VcOptions::default(),
        KeqOptions::default(),
    )
    .expect("supported")
    .report
}

#[test]
fn fig8_correct_store_merging_validates() {
    let r = validate(keq_repro::llvm::corpus::FIG8_WAW, BugInjection::None);
    assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.verdict);
}

#[test]
fn fig8_waw_violation_is_rejected_via_memory_contents() {
    // "the symbolic execution of the input and output programs leads to
    // different memory contents for the byte at offset 3, hence not
    // allowing KEQ to prove the constraint for equal memory contents at the
    // exiting synchronization point."
    let r = validate(keq_repro::llvm::corpus::FIG8_WAW, BugInjection::WawStoreMerge);
    match &r.verdict {
        Verdict::NotValidated(fail) => {
            assert!(
                matches!(fail.reason, FailureReason::ConstraintUnproved { ref constraint, .. }
                    if constraint.starts_with("memory")),
                "must fail on a memory-equality constraint, got {fail}"
            );
        }
        other => panic!("buggy translation validated: {other:?}"),
    }
}

#[test]
fn fig8_unoptimized_translation_also_validates() {
    // Fig. 9(a): with store merging disabled, the straightforward
    // translation is correct too.
    let m = parse_module(keq_repro::llvm::corpus::FIG8_WAW).expect("parses");
    let f = &m.functions[0];
    let r = validate_function(
        &m,
        f,
        IselOptions { merge_stores: false, ..IselOptions::default() },
        VcOptions::default(),
        KeqOptions::default(),
    )
    .expect("supported")
    .report;
    assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.verdict);
}

#[test]
fn fig10_correct_load_narrowing_validates() {
    let r = validate(keq_repro::llvm::corpus::FIG10_LOAD_NARROW, BugInjection::None);
    assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.verdict);
}

#[test]
fn fig10_oob_load_narrowing_is_rejected_via_error_state() {
    // "the symbolic execution of the output x86 program branches into an
    // out-of-bounds error state … this error state cannot be matched with
    // any state in the input LLVM program" — and per footnote 7, not even
    // refinement can be proved.
    let r = validate(keq_repro::llvm::corpus::FIG10_LOAD_NARROW, BugInjection::LoadNarrowing);
    match &r.verdict {
        Verdict::NotValidated(fail) => {
            assert!(
                matches!(fail.reason, FailureReason::UnmatchedPair { ref right, .. }
                    if right.contains("out-of-bounds")),
                "must fail on the unmatched x86 error state, got {fail}"
            );
        }
        other => panic!("buggy translation validated: {other:?}"),
    }
}

#[test]
fn buggy_narrowed_load_also_fails_differentially() {
    // Cross-check by concrete execution: the buggy translation traps
    // out-of-bounds where the source runs fine.
    let m = parse_module(keq_repro::llvm::corpus::FIG10_LOAD_NARROW).expect("parses");
    let f = &m.functions[0];
    let layout = keq_repro::llvm::Layout::of(&m, f);
    let run_vx = |bug| {
        let out =
            keq_repro::isel::select(&m, f, &layout, IselOptions { bug, ..IselOptions::default() })
                .expect("selects");
        vx_semantics(&out.func, &layout).run(&[], 10_000).expect("runs")
    };
    let r_good = run_vx(BugInjection::None);
    assert!(matches!(r_good, Outcome::Returned { .. }), "correct translation runs: {r_good:?}");
    let r_bad = run_vx(BugInjection::LoadNarrowing);
    assert_eq!(
        r_bad,
        Outcome::Error(ErrorKind::OutOfBounds),
        "buggy translation must trap: {r_bad:?}"
    );
}

#[test]
fn waw_bug_flips_final_memory_bytes() {
    // Concrete cross-check of the Fig. 8 miscompilation: byte 3 of @b ends
    // up different.
    let m = parse_module(keq_repro::llvm::corpus::FIG8_WAW).expect("parses");
    let f = &m.functions[0];
    let layout = keq_repro::llvm::Layout::of(&m, f);
    let b_base = layout.global_addr("b").expect("placed");
    let final_mem = |out: Outcome| match out {
        Outcome::Returned { mem, .. } => mem,
        other => panic!("expected a return, got {other:?}"),
    };

    // Source semantics.
    let src = LlvmSemantics::with_layout(&m, f, layout.clone()).run(&[], 10_000).expect("runs");
    let src_mem = final_mem(src);

    let run_vx = |bug| {
        let out =
            keq_repro::isel::select(&m, f, &layout, IselOptions { bug, ..IselOptions::default() })
                .expect("selects");
        final_mem(vx_semantics(&out.func, &layout).run(&[], 10_000).expect("runs"))
    };
    let good_mem = run_vx(BugInjection::None);
    let bad_mem = run_vx(BugInjection::WawStoreMerge);
    for k in 0..8 {
        assert_eq!(
            good_mem.read(b_base + k),
            src_mem.read(b_base + k),
            "correct translation byte {k}"
        );
    }
    assert_ne!(
        bad_mem.read(b_base + 3),
        src_mem.read(b_base + 3),
        "the WAW bug must corrupt byte 3"
    );
}

/// The Virtual x86 semantics of `func` over the source's address space.
fn vx_semantics<'f>(func: &'f VxFunction, layout: &Layout) -> VxSemantics<'f> {
    let globals = layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
    VxSemantics::new(func, layout.mem.clone(), globals)
}
