//! Black-box synchronization points for the GVN mid-end pass.
//!
//! Both `Language` parameters are LLVM IR: the left program is the
//! pre-pass function, the right is [`keq_llvm::gvn::run_gvn`]'s output.
//! The pass artifact (eliminated local → replacement operand) is all the
//! generator consumes — the checker, the acceptability relation, and the
//! memory model are exactly the ones the ISel and regalloc instantiations
//! use, which is the language-parametric claim this crate exists to
//! demonstrate. The loop headers are cut, as for ISel, and each left local
//! `x` is related to its representative: `x = y` when GVN forwarded `x` to
//! a surviving leader `y`, or `x = c` when it folded `x` to a constant.

use std::collections::BTreeMap;

use keq_core::sync::{Relation, SyncSet, ValueExpr};
use keq_llvm::ast::{Function, Operand};
use keq_llvm::gvn::GvnOutput;

use crate::cut::{cut_sync_points, Correspondence, Havoc};
use crate::isel::loop_headers;
use crate::liveness::Call;
use crate::vcgen::{local_types, VcOptions};

/// Generates the synchronization points for a GVN instance.
pub fn gvn_sync_points(pre: &Function, out: &GvnOutput) -> SyncSet {
    cut_sync_points(&Gvn { pre, out, types: local_types(pre) }, VcOptions::default())
}

/// GVN's correspondence: each local's representative. The pass preserves
/// the CFG, so block and predecessor names coincide on both sides.
struct Gvn<'a> {
    pre: &'a Function,
    out: &'a GvnOutput,
    types: BTreeMap<String, u32>,
}

impl Correspondence for Gvn<'_> {
    type Left = Function;
    type Right = Function;

    fn sides(&self) -> (&Function, &Function) {
        (self.pre, &self.out.func)
    }

    /// Parameters are never rewritten, so they relate one-to-one.
    fn entry(&self, rel: &mut Relation) {
        for (n, ty) in &self.pre.params {
            rel.left_havoc.push((n.clone(), ty.value_bits()));
            rel.right_havoc.push((n.clone(), ty.value_bits()));
            rel.equalities.push((ValueExpr::reg(n), ValueExpr::reg(n)));
        }
    }

    fn cut(&self) -> (&'static str, Vec<String>) {
        ("loop:", loop_headers(self.pre))
    }

    fn locate(&self, local: &String) -> Option<(Havoc, Option<Havoc>, ValueExpr)> {
        let w = *self.types.get(local)?;
        let (havoc, right) = match self.out.repr(local) {
            Operand::Local(n) => (Some((n.clone(), w)), ValueExpr::Reg(n)),
            Operand::Const(c) => {
                let mask = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
                (None, ValueExpr::Const { value: (c as u128) & mask, width: w })
            }
            other => {
                // `run_gvn` only ever forwards to locals and constants.
                debug_assert!(false, "inadmissible representative {other}");
                return None;
            }
        };
        Some(((local.clone(), w), havoc, right))
    }

    fn call_ret(&self, call: &Call<String>) -> Relation {
        let mut ret = Relation::default();
        if let Some((dst, &w)) = call.result.as_ref().and_then(|d| Some((d, self.types.get(d)?))) {
            ret.left_havoc.push((dst.clone(), w));
            ret.right_havoc.push((dst.clone(), w));
            ret.equalities.push((ValueExpr::reg(dst), ValueExpr::reg(dst)));
        }
        ret
    }
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
