//! Synchronization-point generation for the IMP → stack-machine pair.
//!
//! The strategy is the same as for Instruction Selection (§4.5): entry,
//! exit, and one point per loop head. At loop heads the stack is empty
//! (statement boundary), so the constraints are simply `v = v` for every
//! program variable — both semantics name variables identically, making the
//! cross-language correspondence transparent.

use keq_core::sync::{Relation, SyncPoint, SyncSet, ValueExpr};

use crate::compile::{ImpFlat, StackFn};
use crate::sem::{ImpSemantics, StackSemantics};

/// Generates the sync set for a flattened IMP program and its compiled
/// stack-machine form.
pub fn imp_sync_points(flat: &ImpFlat, sf: &StackFn) -> SyncSet {
    let havoc: Vec<(String, u32)> = flat.vars.iter().map(|v| (v.clone(), 32)).collect();
    let mut vars = Relation::havocking(havoc.clone(), havoc);
    vars.equalities = flat.vars.iter().map(|v| (ValueExpr::reg(v), ValueExpr::reg(v))).collect();

    let mut set = SyncSet::new();
    set.push(SyncPoint::entry(
        "entry",
        ImpSemantics::loc_name(0),
        StackSemantics::loc_name(0),
        vars.clone(),
    ));
    set.push(SyncPoint::exit("exit", true));
    for (k, (&ih, &sh)) in flat.loop_heads.iter().zip(&sf.loop_heads).enumerate() {
        set.push(SyncPoint::block_entry(
            format!("loop{k}"),
            (&ImpSemantics::loc_name(ih), None),
            (&StackSemantics::loc_name(sh), None),
            vars.clone(),
        ));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, ImpProgram, Stmt};
    use crate::compile::{compile, flatten};
    use keq_core::{Keq, Verdict};
    use keq_smt::TermBank;

    fn sum_to_n() -> ImpProgram {
        ImpProgram {
            inputs: vec!["n".into()],
            body: vec![
                Stmt::Assign("sum".into(), Expr::Const(0)),
                Stmt::Assign("i".into(), Expr::Const(0)),
                Stmt::While(
                    Expr::lt(Expr::var("i"), Expr::var("n")),
                    vec![
                        Stmt::Assign("sum".into(), Expr::add(Expr::var("sum"), Expr::var("i"))),
                        Stmt::Assign("i".into(), Expr::add(Expr::var("i"), Expr::Const(1))),
                    ],
                ),
            ],
            result: Expr::var("sum"),
        }
    }

    #[test]
    fn sum_to_n_compilation_is_equivalent() {
        let p = sum_to_n();
        let flat = flatten(&p);
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
    fn miscompiled_stack_code_is_rejected() {
        let p = sum_to_n();
        let flat = flatten(&p);
        let mut sf = compile(&p);
        // Sabotage: swap an Add for a Sub.
        let pos = sf
            .ops
            .iter()
            .position(|o| matches!(o, crate::compile::StackOp::Add))
            .expect("has an add");
        sf.ops[pos] = crate::compile::StackOp::Sub;
        let sync = imp_sync_points(&flat, &sf);
        let left = ImpSemantics::new(flat);
        let right = StackSemantics::new(sf);
        let keq = Keq::new(&left, &right);
        let mut bank = TermBank::new();
        let report = keq.check(&mut bank, &sync);
        assert!(
            !report.verdict.is_validated(),
            "sabotaged compilation must not validate: {}",
            report.verdict
        );
    }
}
