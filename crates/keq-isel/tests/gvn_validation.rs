//! End-to-end validation of the GVN mid-end pass with the unmodified KEQ
//! checker: both `Language` parameters are LLVM IR, and each injectable
//! miscompilation is caught while the clean pass validates.

use keq_core::KeqOptions;
use keq_isel::{validate_gvn_with_context, ValidationContext};
use keq_llvm::gvn::{GvnBug, GvnOptions};
use keq_llvm::parser::parse_module;

fn validate_gvn(src: &str, bug: GvnBug) -> (keq_core::KeqReport, keq_llvm::gvn::GvnOutput) {
    let m = parse_module(src).expect("parses");
    let f = &m.functions[0];
    let mut ctx = ValidationContext::new();
    validate_gvn_with_context(&m, f, GvnOptions { bug }, KeqOptions::default(), None, &mut ctx)
}

/// Redundant expressions across a diamond: the duplicated adds collapse to
/// the earlier computation and the slimmer function still validates.
const REDUNDANT: &str = "define i32 @r(i32 %a, i32 %b) {
 %x = add i32 %a, %b
 %y = add i32 %b, %a
 %c = icmp slt i32 %x, 10
 br i1 %c, label %t, label %f
t:
 %u = add i32 %x, %y
 br label %join
f:
 %v = mul i32 %x, 2
 br label %join
join:
 %p = phi i32 [ %u, %t ], [ %v, %f ]
 ret i32 %p
}";

/// Constant chains folding through a loop: the loop-invariant bound is
/// folded to a literal while the phi cycle stays intact.
const LOOP_FOLD: &str = "define i32 @lf(i32 %n) {
entry:
 %lim = add i32 6, 4
 br label %loop
loop:
 %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
 %acc = phi i32 [ 0, %entry ], [ %acc2, %loop ]
 %step = add i32 1, 0
 %i2 = add i32 %i, %step
 %acc2 = add i32 %acc, %lim
 %c = icmp slt i32 %i2, %n
 br i1 %c, label %loop, label %done
done:
 ret i32 %acc2
}";

/// Duplicates straddling an external call: values live across the call are
/// related through their representatives at both call points.
const CALL_DUP: &str = "define i32 @cd(i32 %x) {
 %a = add i32 %x, 5
 %b = add i32 %x, 5
 %r = call i32 @ext(i32 %a, i32 %b)
 %s = add i32 %a, %r
 %t = add i32 %b, %s
 ret i32 %t
}";

/// The bug-study subject: both operand orders of `sub` appear, so treating
/// `sub` as commutative miscompiles (unless `%a == %b`).
const SUB_PAIR: &str = "define i32 @sp(i32 %a, i32 %b) {
 %x = sub i32 %a, %b
 %y = sub i32 %b, %a
 %z = mul i32 %x, %y
 ret i32 %z
}";

/// A folded constant feeding the return value: an off-by-one fold changes
/// the observable result.
const CONST_RET: &str = "define i32 @cr(i32 %a) {
 %c = add i32 20, 22
 %s = add i32 %a, %c
 ret i32 %s
}";

#[test]
fn redundant_expressions_validate() {
    let (report, out) = validate_gvn(REDUNDANT, GvnBug::None);
    assert!(!out.eliminated.is_empty(), "expected eliminations");
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}

#[test]
fn loop_constant_folding_validates() {
    let (report, out) = validate_gvn(LOOP_FOLD, GvnBug::None);
    assert!(out.eliminated.contains_key("%lim"), "{:?}", out.eliminated);
    assert!(out.eliminated.contains_key("%step"), "{:?}", out.eliminated);
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}

#[test]
fn duplicates_across_call_validate() {
    let (report, out) = validate_gvn(CALL_DUP, GvnBug::None);
    assert!(out.eliminated.contains_key("%b"), "{:?}", out.eliminated);
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}

#[test]
fn commuted_sub_bug_is_caught() {
    let (clean, _) = validate_gvn(SUB_PAIR, GvnBug::None);
    assert!(clean.verdict.is_validated(), "clean run failed: {}", clean.verdict);
    let (report, out) = validate_gvn(SUB_PAIR, GvnBug::CommuteSub);
    assert!(out.eliminated.contains_key("%y"), "bug did not fire: {:?}", out.eliminated);
    assert!(
        !report.verdict.is_validated(),
        "commuted sub must be rejected, got {}",
        report.verdict
    );
}

#[test]
fn off_by_one_fold_bug_is_caught() {
    let (clean, _) = validate_gvn(CONST_RET, GvnBug::None);
    assert!(clean.verdict.is_validated(), "clean run failed: {}", clean.verdict);
    let (report, out) = validate_gvn(CONST_RET, GvnBug::OffByOneFold);
    assert!(out.eliminated.contains_key("%c"), "bug did not fire: {:?}", out.eliminated);
    assert!(
        !report.verdict.is_validated(),
        "off-by-one fold must be rejected, got {}",
        report.verdict
    );
}

#[test]
fn no_op_pass_validates() {
    // A function GVN cannot touch (every value is used once, nothing
    // folds): the identity translation still round-trips through the
    // checker.
    let (report, out) = validate_gvn(
        "define i32 @id(i32 %a, i32 %b) {\n %x = sub i32 %a, %b\n ret i32 %x\n}",
        GvnBug::None,
    );
    assert!(out.eliminated.is_empty());
    assert!(report.verdict.is_validated(), "verdict: {}", report.verdict);
}
