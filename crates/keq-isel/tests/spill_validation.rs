//! End-to-end validation of the *spilling* register allocator with the
//! unmodified KEQ checker: functions whose pressure exceeds the pool now
//! validate (previously they were rejected as `NeedsSpill`), and each
//! injectable spill defect is caught.
//!
//! The spill frame is private to the allocated side: the black-box VC
//! generator masks it out of the memory-equality obligations and relates
//! every spilled value through a `ValueExpr::Slot` equality, so the same
//! checker, same acceptability relation, and same memory model carry over.

use keq_core::KeqOptions;
use keq_isel::{
    select, validate_regalloc_with_context, IselOptions, RaOptions, SpillBug, ValidationContext,
};
use keq_llvm::parser::parse_module;
use keq_llvm::Layout;

fn validate_spilled(src: &str, ra: RaOptions) -> (keq_core::KeqReport, keq_isel::RaMap) {
    let m = parse_module(src).expect("parses");
    let f = &m.functions[0];
    let layout = Layout::of(&m, f);
    let pre = select(&m, f, &layout, IselOptions::default()).expect("supported").func;
    let mut ctx = ValidationContext::new();
    let (post, map) = keq_isel::allocate_with_options(&pre, ra, None).expect("uncancelled");
    let _ = post;
    let (report, _) =
        validate_regalloc_with_context(&pre, &layout, ra, KeqOptions::default(), None, &mut ctx)
            .expect("uncancelled");
    (report, map)
}

/// Twelve simultaneously-live temporaries against a nine-register pool:
/// three values must spill, and the spilled allocation still validates.
const HIGH_PRESSURE: &str = "define i32 @hp(i32 %a, i32 %b) {
 %t0 = add i32 %a, %b
 %t1 = add i32 %a, 1
 %t2 = add i32 %a, 2
 %t3 = add i32 %a, 3
 %t4 = add i32 %a, 4
 %t5 = add i32 %a, 5
 %t6 = add i32 %a, 6
 %t7 = add i32 %a, 7
 %t8 = add i32 %a, 8
 %t9 = add i32 %a, 9
 %t10 = add i32 %a, 10
 %t11 = add i32 %a, 11
 %s0 = add i32 %t0, %t1
 %s1 = add i32 %s0, %t2
 %s2 = add i32 %s1, %t3
 %s3 = add i32 %s2, %t4
 %s4 = add i32 %s3, %t5
 %s5 = add i32 %s4, %t6
 %s6 = add i32 %s5, %t7
 %s7 = add i32 %s6, %t8
 %s8 = add i32 %s7, %t9
 %s9 = add i32 %s8, %t10
 %s10 = add i32 %s9, %t11
 ret i32 %s10
}";

/// A loop whose accumulator and bound stay live across every iteration —
/// spilled values flow around the back edge through PHI slot moves.
const LOOP_PRESSURE: &str = "define i32 @lp(i32 %n) {
entry:
 br label %loop
loop:
 %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
 %acc = phi i32 [ 0, %entry ], [ %acc2, %loop ]
 %acc2 = add i32 %acc, %i
 %i2 = add i32 %i, 1
 %c = icmp slt i32 %i2, %n
 br i1 %c, label %loop, label %done
done:
 ret i32 %acc2
}";

/// A spilled value live across an external call: its slot must survive the
/// call while every scratch register is clobbered. The spilled `%a` is
/// reloaded immediately before the call (as its argument) and again right
/// after — exactly the window where [`SpillBug::LostReload`] coalesces the
/// second reload into a scratch the callee clobbered.
const CALL_PRESSURE: &str = "define i32 @cp(i32 %x) {
 %a = add i32 %x, 1
 %r = call i32 @ext(i32 %a, i32 7)
 %s = add i32 %a, %r
 %t = add i32 %s, %x
 ret i32 %t
}";

#[test]
fn high_pressure_function_spills_and_validates() {
    let (report, map) = validate_spilled(HIGH_PRESSURE, RaOptions::default());
    assert!(!map.spills.is_empty(), "expected genuine spills, got {:?}", map.assignment);
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}

#[test]
fn forced_spill_loop_validates() {
    let ra = RaOptions { pool_limit: Some(2), ..RaOptions::default() };
    let (report, map) = validate_spilled(LOOP_PRESSURE, ra);
    assert!(!map.spills.is_empty(), "pool cap of 2 must force spills");
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}

#[test]
fn forced_spill_across_call_validates() {
    let ra = RaOptions { pool_limit: Some(1), ..RaOptions::default() };
    let (report, map) = validate_spilled(CALL_PRESSURE, ra);
    assert!(!map.spills.is_empty(), "pool cap of 1 must force spills");
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}

#[test]
fn clobbered_slot_bug_is_caught() {
    let ra = RaOptions { bug: SpillBug::ClobberedSlot, ..RaOptions::default() };
    let (report, map) = validate_spilled(HIGH_PRESSURE, ra);
    assert!(!map.spills.is_empty());
    assert!(
        !report.verdict.is_validated(),
        "off-by-one slot stores must be rejected, got {}",
        report.verdict
    );
}

#[test]
fn lost_reload_bug_is_caught() {
    let ra = RaOptions { bug: SpillBug::LostReload, pool_limit: Some(1) };
    let (report, map) = validate_spilled(CALL_PRESSURE, ra);
    assert!(!map.spills.is_empty());
    assert!(
        !report.verdict.is_validated(),
        "a reload coalesced across a call must be rejected, got {}",
        report.verdict
    );
}

#[test]
fn pressure_corpus_functions_spill_and_validate() {
    // The generator's high-pressure profile pins 12 extra temporaries live
    // across the whole body — more than the register pool — so every
    // generated function must take the spill path, and still validate.
    use keq_workload::{generate_corpus, GenConfig};
    let cfg = GenConfig { seed: 77, pressure: 12, ..GenConfig::default() };
    let m = generate_corpus(cfg, 3);
    for f in &m.functions {
        let layout = Layout::of(&m, f);
        let pre = select(&m, f, &layout, IselOptions::default()).expect("supported").func;
        let ra = RaOptions::default();
        let (_post, map) = keq_isel::allocate_with_options(&pre, ra, None).expect("uncancelled");
        assert!(!map.spills.is_empty(), "{}: pressure profile did not force spills", f.name);
        let mut ctx = ValidationContext::new();
        let (report, _) = validate_regalloc_with_context(
            &pre,
            &layout,
            ra,
            KeqOptions::default(),
            None,
            &mut ctx,
        )
        .expect("uncancelled");
        assert!(report.verdict.is_validated(), "{}: {}", f.name, report.verdict);
    }
}

#[test]
fn bug_free_spilling_matches_bugged_rejections() {
    // Sanity: the same functions validate when no bug is injected, so the
    // rejections above are attributable to the injected defects alone.
    for (src, ra) in [
        (HIGH_PRESSURE, RaOptions::default()),
        (CALL_PRESSURE, RaOptions { pool_limit: Some(1), ..RaOptions::default() }),
    ] {
        let (report, _) = validate_spilled(src, ra);
        assert!(report.verdict.is_validated(), "clean run failed: {}", report.verdict);
    }
}
