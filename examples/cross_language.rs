//! Language-parametricity demo: the *same* KEQ checker validating a
//! completely different language pair — IMP (a structured while-language)
//! compiled to a stack machine.
//!
//! Nothing in `keq_core::Keq` is touched: both languages just implement
//! `keq_semantics::Language` and bring their own synchronization points,
//! exactly as the paper's K semantic definitions parameterize KEQ.
//!
//! Run with: `cargo run --release --example cross_language`

use keq_repro::core::{Keq, Verdict};
use keq_repro::imp::{
    compile, imp_sync_points, Expr, ImpProgram, ImpSemantics, StackSemantics, Stmt,
};
use keq_repro::semantics::Outcome;
use keq_repro::smt::TermBank;

fn main() {
    // sum = 0; i = 0; while (i < n) { sum += i*i; i += 1 }; return sum
    let program = ImpProgram {
        inputs: vec!["n".into()],
        body: vec![
            Stmt::Assign("sum".into(), Expr::Const(0)),
            Stmt::Assign("i".into(), Expr::Const(0)),
            Stmt::While(
                Expr::lt(Expr::var("i"), Expr::var("n")),
                vec![
                    Stmt::Assign(
                        "sum".into(),
                        Expr::add(Expr::var("sum"), Expr::mul(Expr::var("i"), Expr::var("i"))),
                    ),
                    Stmt::Assign("i".into(), Expr::add(Expr::var("i"), Expr::Const(1))),
                ],
            ),
        ],
        result: Expr::var("sum"),
    };

    let flat = keq_repro::imp::compile::flatten(&program);
    let stack_fn = compile(&program);
    println!(
        "IMP program flattened to {} ops; stack code has {} ops",
        flat.ops.len(),
        stack_fn.ops.len()
    );
    let sync = imp_sync_points(&flat, &stack_fn);
    let left = ImpSemantics::new(flat);
    let right = StackSemantics::new(stack_fn);

    // A concrete run of both semantics first.
    let returned = |o: Outcome| match o {
        Outcome::Returned { ret: Some(r), .. } => r as u32 as i32,
        other => panic!("expected a value, got {other:?}"),
    };
    let reference = returned(left.run(&[6], 100_000).expect("runs"));
    let compiled = returned(right.run(&[("n".into(), 6)], 100_000).expect("runs"));
    println!("n = 6: IMP = {reference}, stack machine = {compiled}");
    assert_eq!(reference, compiled);

    // Now the formal proof, with the very same checker used for ISel.
    let keq = Keq::new(&left, &right);
    let mut bank = TermBank::new();
    let report = keq.check(&mut bank, &sync);
    println!("KEQ verdict for ALL inputs: {}", report.verdict);
    assert_eq!(report.verdict, Verdict::Equivalent);
}
