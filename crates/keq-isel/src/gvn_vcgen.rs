//! Black-box synchronization points for the GVN mid-end pass.
//!
//! Both `Language` parameters are LLVM IR: the left program is the
//! pre-pass function, the right is [`keq_llvm::gvn::run_gvn`]'s output.
//! The pass artifact (eliminated local → replacement operand) is all the
//! generator consumes — the checker, the acceptability relation, and the
//! memory model are exactly the ones the ISel and regalloc instantiations
//! use, which is the language-parametric claim this crate exists to
//! demonstrate.
//!
//! The cut is maximal on loops: one point per (loop header, predecessor)
//! edge, as in the ISel generator, plus function entry/exit and a
//! before/after pair per call site. At every point each *left* live local
//! `x` is related to its representative in the optimized program:
//! `x = y` when GVN forwarded `x` to a surviving leader `y`, or `x = c`
//! when it folded `x` to a constant. Blocks, labels, and call ordinals are
//! preserved by the pass, so the two sides' control locations correspond
//! by name; only instruction *indices* shift (eliminated instructions
//! vanish), which is why call sites carry per-side indices.

use std::collections::BTreeMap;

use keq_core::sync::{Relation, SyncPoint, SyncSet, ValueExpr};
use keq_llvm::ast::{Function, Instr, Operand};
use keq_llvm::gvn::GvnOutput;
use keq_llvm::types::Type;

use crate::isel::loop_headers;
use crate::liveness::{phi_uses_from, predecessors, Liveness};
use crate::vcgen::local_types;

fn const_expr(c: i128, w: u32) -> ValueExpr {
    let mask = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
    ValueExpr::Const { value: (c as u128) & mask, width: w }
}

/// A call instruction's location in one side of the pair.
struct CallLoc {
    callee: String,
    nth: usize,
    block: String,
    index: usize,
    dst: Option<String>,
    ret_bits: Option<u32>,
    num_args: usize,
}

fn call_locs(func: &Function) -> Vec<CallLoc> {
    let mut ordinals: BTreeMap<String, usize> = BTreeMap::new();
    let mut locs = Vec::new();
    for b in &func.blocks {
        for (idx, i) in b.instrs.iter().enumerate() {
            if let Instr::Call { dst, ret_ty, callee, args } = i {
                let nth = *ordinals
                    .entry(callee.clone())
                    .and_modify(|n| *n += 1)
                    .or_insert(0);
                locs.push(CallLoc {
                    callee: callee.clone(),
                    nth,
                    block: b.name.clone(),
                    index: idx,
                    dst: dst.clone(),
                    ret_bits: match ret_ty {
                        Type::Void => None,
                        ty => Some(ty.value_bits()),
                    },
                    num_args: args.len(),
                });
            }
        }
    }
    locs
}

/// Relates one left-side live local to its representative on the right:
/// havocs it on the left, havocs the representative (when it is a local)
/// on the right, and emits the equality.
fn relate_local(local: &str, types: &BTreeMap<String, u32>, out: &GvnOutput, rel: &mut Relation) {
    let Some(&w) = types.get(local) else { return };
    if !rel.havoc_left_once(local, w) {
        return;
    }
    let rhs = match out.repr(local) {
        Operand::Local(n) => {
            rel.havoc_right_once(&n, w);
            ValueExpr::Reg(n)
        }
        Operand::Const(c) => const_expr(c, w),
        other => {
            // `run_gvn` only ever forwards to locals and constants.
            debug_assert!(false, "inadmissible representative {other}");
            return;
        }
    };
    rel.equalities.push((ValueExpr::Reg(local.to_owned()), rhs));
}

/// Generates the synchronization points for a GVN instance.
pub fn gvn_sync_points(pre: &Function, out: &GvnOutput) -> SyncSet {
    let lv = Liveness::compute(pre);
    let types = local_types(pre);
    let preds = predecessors(pre);
    let mut set = SyncSet::new();

    // Entry: parameters are never rewritten, so they relate one-to-one.
    let havoc: Vec<(String, u32)> =
        pre.params.iter().map(|(n, ty)| (n.clone(), ty.value_bits())).collect();
    let mut entry = Relation::havocking(havoc.clone(), havoc);
    entry.equalities =
        pre.params.iter().map(|(n, _)| (ValueExpr::reg(n), ValueExpr::reg(n))).collect();
    set.push(SyncPoint::entry(
        "p0",
        pre.entry().name.clone(),
        out.func.entry().name.clone(),
        entry,
    ));
    set.push(SyncPoint::exit("p_exit", pre.ret_ty != Type::Void));

    // Loop points, one per (header, predecessor) edge. GVN preserves the
    // CFG, so block and predecessor names coincide on both sides.
    for header in loop_headers(pre) {
        for pred in preds.get(&header).into_iter().flatten() {
            let mut rel = Relation::default();
            let edge_uses = phi_uses_from(pre, &header, pred);
            for l in lv.live_in.get(&header).into_iter().flatten().chain(&edge_uses) {
                relate_local(l, &types, out, &mut rel);
            }
            let edge = (header.as_str(), Some(pred.as_str()));
            set.push(SyncPoint::block_entry(format!("loop:{header}<-{pred}"), edge, edge, rel));
        }
    }

    // Call points. The pass never adds, removes, or reorders calls, so the
    // two sides' per-callee ordinals line up; eliminated instructions do
    // shift in-block indices, hence the per-side resume locations.
    let pre_calls = call_locs(pre);
    let post_calls = call_locs(&out.func);
    debug_assert_eq!(pre_calls.len(), post_calls.len());
    for (lc, rc) in pre_calls.iter().zip(&post_calls) {
        debug_assert_eq!((&lc.callee, lc.nth), (&rc.callee, rc.nth));
        let mut across = Relation::default();
        for l in lv.live_after(pre, &lc.block, lc.index) {
            if lc.dst.as_deref() != Some(&l) {
                relate_local(&l, &types, out, &mut across);
            }
        }
        let mut ret = Relation::default();
        if let (Some(dst), Some(w)) = (&lc.dst, lc.ret_bits) {
            ret.left_havoc.push((dst.clone(), w));
            ret.right_havoc.push((dst.clone(), w));
            ret.equalities.push((ValueExpr::reg(dst), ValueExpr::reg(dst)));
        }
        set.points.extend(SyncPoint::call_pair(
            &lc.callee,
            lc.nth,
            (&lc.block, lc.index),
            (&rc.block, rc.index),
            lc.num_args,
            across,
            ret,
        ));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_llvm::gvn::{run_gvn, GvnOptions};
    use keq_llvm::parser::parse_function;

    #[test]
    fn locals_sharing_a_leader_havoc_it_once() {
        // GVN forwards %b to %a; both stay live across the loop.
        let f = parse_function(
            "define i32 @f(i32 %x, i32 %n) {
entry:
  %a = add i32 %x, 1
  %b = add i32 %x, 1
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %i1, %loop ]
  %i1 = add i32 %i, 1
  %c = icmp ult i32 %i1, %n
  br i1 %c, label %loop, label %exit
exit:
  %r = add i32 %a, %b
  ret i32 %r
}",
        )
        .expect("parses");
        let out = run_gvn(&f, GvnOptions::default());
        assert_eq!(out.repr("%b"), Operand::Local("%a".into()));
        let set = gvn_sync_points(&f, &out);
        let point = set.iter().find(|p| p.name == "loop:loop<-entry").expect("loop point");
        let leaders = point.right.havoc_regs.iter().filter(|(n, _)| n == "%a").count();
        assert_eq!(leaders, 1, "{:?}", point.right.havoc_regs);
        for local in ["%a", "%b"] {
            let eq = (ValueExpr::reg(local), ValueExpr::reg("%a"));
            assert!(point.equalities.contains(&eq), "{local}: {:?}", point.equalities);
        }
    }
}
