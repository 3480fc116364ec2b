//! Tests of the cut-bisimulation theory itself (paper §2/§7, Fig. 4) and of
//! the language-parametricity claim (the same checker validating the
//! IMP → stack-machine pair), plus the §4.6 refinement fallback.

use keq_repro::core::{
    algorithm1, algorithm1_simulation, fig4_example, is_cut_bisimulation, is_strong_bisimulation,
    Keq, KeqOptions, Verdict,
};
use keq_repro::imp::{
    compile, imp_sync_points, Expr, ImpProgram, ImpSemantics, StackSemantics, Stmt,
};
use keq_repro::isel::{validate_function, IselOptions, VcOptions};
use keq_repro::smt::TermBank;

#[test]
fn fig4_cut_bisimulation_vs_strong_bisimulation() {
    // §2: the PRE example is cut-bisimilar via only the black dotted lines,
    // but those lines are NOT a strong bisimulation on the raw systems.
    let (p, q, rel) = fig4_example();
    assert!(p.is_valid_cut());
    assert!(q.is_valid_cut());
    assert!(is_cut_bisimulation(&p, &q, &rel));
    assert!(algorithm1(&p, &q, &rel));
    assert!(!is_strong_bisimulation(&p, &q, &rel));
}

#[test]
fn simulation_mode_accepts_refinement_only_relations() {
    // A target with fewer behaviors refines the source but is not
    // equivalent (the Algorithm 1 footnote about line 11).
    let full = keq_repro::core::CutTs::new(3, &[(0, 1), (0, 2)], 0, [0, 1, 2]);
    let restricted = keq_repro::core::CutTs::new(2, &[(0, 1)], 0, [0, 1]);
    let rel: std::collections::BTreeSet<(usize, usize)> = [(0, 0), (1, 1)].into_iter().collect();
    assert!(algorithm1_simulation(&restricted, &full, &rel));
    assert!(!algorithm1(&restricted, &full, &rel));
}

fn gcd_program() -> ImpProgram {
    // Subtraction-based GCD: a second, loopier IMP workload.
    ImpProgram {
        inputs: vec!["a".into(), "b".into()],
        body: vec![Stmt::While(
            Expr::mul(
                Expr::lt(Expr::Const(0), Expr::var("a")),
                Expr::lt(Expr::Const(0), Expr::var("b")),
            ),
            vec![Stmt::If(
                Expr::lt(Expr::var("a"), Expr::var("b")),
                vec![Stmt::Assign("b".into(), Expr::sub(Expr::var("b"), Expr::var("a")))],
                vec![Stmt::Assign("a".into(), Expr::sub(Expr::var("a"), Expr::var("b")))],
            )],
        )],
        result: Expr::add(Expr::var("a"), Expr::var("b")),
    }
}

#[test]
fn same_checker_validates_the_imp_stack_pair() {
    // Language-parametricity: `Keq` is instantiated here with two languages
    // that share nothing with LLVM or x86.
    let p = gcd_program();
    let flat = keq_repro::imp::compile::flatten(&p);
    let sf = compile(&p);
    let sync = imp_sync_points(&flat, &sf);
    let left = ImpSemantics::new(flat);
    let right = StackSemantics::new(sf);
    let keq = Keq::new(&left, &right);
    let mut bank = TermBank::new();
    let report = keq.check(&mut bank, &sync);
    assert_eq!(report.verdict, Verdict::Equivalent, "{}", report.verdict);
}

#[test]
fn sabotaged_stack_code_is_rejected_by_the_same_checker() {
    let p = gcd_program();
    let flat = keq_repro::imp::compile::flatten(&p);
    let mut sf = compile(&p);
    // Swap the jump polarity of the first conditional: control flow lies.
    let pos =
        sf.ops.iter().position(|o| matches!(o, keq_repro::imp::StackOp::Sub)).expect("has sub");
    sf.ops[pos] = keq_repro::imp::StackOp::Add;
    let sync = imp_sync_points(&flat, &sf);
    let left = ImpSemantics::new(flat);
    let right = StackSemantics::new(sf);
    let keq = Keq::new(&left, &right);
    let mut bank = TermBank::new();
    let report = keq.check(&mut bank, &sync);
    assert!(!report.verdict.is_validated(), "{}", report.verdict);
}

#[test]
fn source_ub_downgrades_equivalence_to_refinement() {
    // §4.6: an `nsw` add has signed-overflow UB in LLVM that plain x86
    // `add` does not exhibit; the left error state absorbs and KEQ
    // "automatically reverts to checking refinement".
    let src = "define i32 @f(i32 %x) {\n %r = add nsw i32 %x, 1\n ret i32 %r\n}";
    let m = keq_repro::llvm::parse_module(src).expect("parses");
    let f = &m.functions[0];
    let out = validate_function(
        &m,
        f,
        IselOptions::default(),
        VcOptions::default(),
        KeqOptions::default(),
    )
    .expect("supported");
    assert_eq!(out.report.verdict, Verdict::Refines, "{}", out.report.verdict);
    assert!(out.report.stats.absorbed_ub);
}

#[test]
fn division_error_states_match_across_languages() {
    // Both sides trap on a zero divisor (`udiv` UB vs the x86 `#DE`
    // exception); the matched error states keep the verdict at full
    // equivalence.
    let src = "define i32 @f(i32 %x, i32 %y) {\n %r = udiv i32 %x, %y\n ret i32 %r\n}";
    let m = keq_repro::llvm::parse_module(src).expect("parses");
    let f = &m.functions[0];
    let out = validate_function(
        &m,
        f,
        IselOptions::default(),
        VcOptions::default(),
        KeqOptions::default(),
    )
    .expect("supported");
    assert_eq!(out.report.verdict, Verdict::Equivalent, "{}", out.report.verdict);
}

#[test]
fn calls_synchronize_at_call_sites() {
    // §4.5: call sites produce before/after points; live values and the
    // return value are related through the calling convention.
    let src = r#"
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %r = call i32 @ext(i32 %a, i32 7)
  %b = add i32 %r, %y
  ret i32 %b
}
"#;
    let m = keq_repro::llvm::parse_module(src).expect("parses");
    let f = &m.functions[0];
    let out = validate_function(
        &m,
        f,
        IselOptions::default(),
        VcOptions::default(),
        KeqOptions::default(),
    )
    .expect("supported");
    assert_eq!(out.report.verdict, Verdict::Equivalent, "{}", out.report.verdict);
    let names: Vec<&str> = out.sync.iter().map(|p| p.name.as_str()).collect();
    assert!(names.contains(&"call:ext#0"), "{names:?}");
    assert!(names.contains(&"ret:ext#0"), "{names:?}");
}
