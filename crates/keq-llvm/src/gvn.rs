//! A GVN/constant-propagation mid-end pass (LLVM IR → LLVM IR).
//!
//! The second transformation validated under the paper's language-parametric
//! claim: both `Language` parameters are LLVM IR, and the checker is the
//! same unmodified KEQ. The pass performs per-block local value numbering
//! with function-wide copy propagation over the *pure* instruction fragment
//! (`Bin`, `Icmp`, `Cast`), constant folding, and algebraic identity
//! simplification. Loads, stores, calls, phis, geps, and allocas are left
//! untouched — their dsts are opaque values the numbering treats as fresh.
//!
//! Soundness of the function-wide substitution rests on SSA dominance: a
//! value-number leader is an earlier instruction *in the same block* as the
//! eliminated definition, so the leader dominates the eliminated definition
//! and therefore every use it replaces.
//!
//! Like the instruction selector's `BugInjection`, the pass carries
//! injectable miscompilations ([`GvnBug`]) mirroring the §5.2 studies, so
//! the Fig. 6 catch table extends to the mid-end.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Block, Function, IcmpPred, Instr, Operand, Terminator};

/// Injectable GVN miscompilations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GvnBug {
    /// Correct optimization.
    #[default]
    None,
    /// Value numbering treats `sub` as commutative, so `a - b` is
    /// "deduplicated" into an earlier `b - a`.
    CommuteSub,
    /// Constant folding of `add` is off by one.
    OffByOneFold,
}

/// Pass options.
#[derive(Debug, Clone, Copy, Default)]
pub struct GvnOptions {
    /// Injected defect.
    pub bug: GvnBug,
}

/// Everything the pass produces: the optimized function plus the artifact
/// the black-box VC generator consumes — which locals were eliminated and
/// what replaces each (a surviving leader local or a constant).
#[derive(Debug, Clone)]
pub struct GvnOutput {
    /// The optimized function.
    pub func: Function,
    /// Eliminated local → replacement operand (fully resolved: replacement
    /// locals always survive in the output).
    pub eliminated: BTreeMap<String, Operand>,
}

impl GvnOutput {
    /// The representative of `local` in the optimized function: its
    /// replacement when eliminated, itself otherwise.
    pub fn repr(&self, local: &str) -> Operand {
        match self.eliminated.get(local) {
            Some(op) => op.clone(),
            None => Operand::Local(local.to_owned()),
        }
    }
}

fn subst_operand(op: &mut Operand, subst: &BTreeMap<String, Operand>) {
    if let Operand::Local(n) = op {
        if let Some(rep) = subst.get(n) {
            *op = rep.clone();
        }
    }
}

fn subst_instr(i: &mut Instr, subst: &BTreeMap<String, Operand>) {
    match i {
        Instr::Bin { lhs, rhs, .. } | Instr::Icmp { lhs, rhs, .. } => {
            subst_operand(lhs, subst);
            subst_operand(rhs, subst);
        }
        Instr::Phi { incomings, .. } => {
            for (op, _) in incomings {
                subst_operand(op, subst);
            }
        }
        Instr::Load { ptr, .. } => subst_operand(ptr, subst),
        Instr::Store { val, ptr, .. } => {
            subst_operand(val, subst);
            subst_operand(ptr, subst);
        }
        Instr::Alloca { .. } => {}
        Instr::Gep { ptr, indices, .. } => {
            subst_operand(ptr, subst);
            for (_, op) in indices {
                subst_operand(op, subst);
            }
        }
        Instr::Cast { val, .. } => subst_operand(val, subst),
        Instr::Call { args, .. } => {
            for (_, op) in args {
                subst_operand(op, subst);
            }
        }
    }
}

fn subst_term(t: &mut Terminator, subst: &BTreeMap<String, Operand>) {
    match t {
        Terminator::CondBr { cond, .. } => subst_operand(cond, subst),
        Terminator::Ret { val: Some((_, op)) } => subst_operand(op, subst),
        Terminator::Ret { val: None } | Terminator::Br { .. } | Terminator::Unreachable => {}
    }
}

/// Truncates to `w` bits and sign-extends back — the canonical constant
/// form of this AST (the printer emits signed decimals).
fn canon(w: u32, v: i128) -> i128 {
    if w >= 128 {
        return v;
    }
    let m = (1i128 << w) - 1;
    let t = v & m;
    if t >> (w - 1) & 1 == 1 {
        t | !m
    } else {
        t
    }
}

fn as_const(op: &Operand) -> Option<i128> {
    match op {
        Operand::Const(c) => Some(*c),
        _ => None,
    }
}

/// Constant-folds a pure binary op, `None` when not foldable (non-constant
/// operands, potential trap or UB, or an op we refuse to fold).
fn fold_bin(op: BinOp, nsw: bool, w: u32, l: i128, r: i128, bug: GvnBug) -> Option<i128> {
    let v = match op {
        BinOp::Add => {
            let off = i128::from(bug == GvnBug::OffByOneFold);
            l.wrapping_add(r).wrapping_add(off)
        }
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        // Division and remainder can trap; leave them to the checker.
        BinOp::Udiv | BinOp::Sdiv | BinOp::Urem | BinOp::Srem => return None,
        BinOp::And => l & r,
        BinOp::Or => l | r,
        BinOp::Xor => l ^ r,
        BinOp::Shl | BinOp::Lshr | BinOp::Ashr => {
            let sh = canon(w, r);
            if !(0..i128::from(w)).contains(&sh) {
                return None; // out-of-range shifts are poison
            }
            let lw = canon(w, l);
            match op {
                BinOp::Shl => lw << sh,
                BinOp::Ashr => lw >> sh,
                BinOp::Lshr => {
                    let m = if w >= 128 { -1i128 } else { (1i128 << w) - 1 };
                    ((lw & m) as u128 >> sh) as i128
                }
                _ => unreachable!(),
            }
        }
    };
    let v = canon(w, v);
    // `nsw` arithmetic whose exact result escapes the width is UB on the
    // source side — folding it would erase the error state.
    if nsw && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) {
        let exact = match op {
            BinOp::Add => canon(w, l).checked_add(canon(w, r))?,
            BinOp::Sub => canon(w, l).checked_sub(canon(w, r))?,
            BinOp::Mul => canon(w, l).checked_mul(canon(w, r))?,
            _ => unreachable!(),
        };
        if exact != v {
            return None;
        }
    }
    Some(v)
}

fn fold_icmp(pred: IcmpPred, w: u32, l: i128, r: i128) -> i128 {
    let (sl, sr) = (canon(w, l), canon(w, r));
    let m = if w >= 128 { u128::MAX } else { (1u128 << w) - 1 };
    let (ul, ur) = (l as u128 & m, r as u128 & m);
    let b = match pred {
        IcmpPred::Eq => ul == ur,
        IcmpPred::Ne => ul != ur,
        IcmpPred::Ult => ul < ur,
        IcmpPred::Ule => ul <= ur,
        IcmpPred::Ugt => ul > ur,
        IcmpPred::Uge => ul >= ur,
        IcmpPred::Slt => sl < sr,
        IcmpPred::Sle => sl <= sr,
        IcmpPred::Sgt => sl > sr,
        IcmpPred::Sge => sl >= sr,
    };
    i128::from(b)
}

/// Identity simplifications that are safe at any width and under `nsw`.
fn simplify_identity(op: BinOp, lhs: &Operand, rhs: &Operand) -> Option<Operand> {
    let lc = as_const(lhs);
    let rc = as_const(rhs);
    match op {
        BinOp::Add | BinOp::Or | BinOp::Xor => {
            if rc == Some(0) {
                return Some(lhs.clone());
            }
            if lc == Some(0) {
                return Some(rhs.clone());
            }
        }
        BinOp::Sub | BinOp::Shl | BinOp::Lshr | BinOp::Ashr if rc == Some(0) => {
            return Some(lhs.clone());
        }
        BinOp::Mul => {
            if rc == Some(1) {
                return Some(lhs.clone());
            }
            if lc == Some(1) {
                return Some(rhs.clone());
            }
        }
        BinOp::And => {
            if rc == Some(-1) {
                return Some(lhs.clone());
            }
            if lc == Some(-1) {
                return Some(rhs.clone());
            }
        }
        _ => {}
    }
    None
}

fn commutes(op: BinOp, bug: GvnBug) -> bool {
    matches!(op, BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
        || (op == BinOp::Sub && bug == GvnBug::CommuteSub)
}

/// The value-number key of a pure instruction (operands already
/// substituted, so textual operand identity is value identity).
fn vn_key(i: &Instr, bug: GvnBug) -> Option<String> {
    match i {
        Instr::Bin { op, nsw, ty, lhs, rhs, .. } => {
            let (mut a, mut b) = (lhs.to_string(), rhs.to_string());
            if commutes(*op, bug) && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            Some(format!("bin {op:?} nsw={nsw} {ty} {a}, {b}"))
        }
        Instr::Icmp { pred, ty, lhs, rhs, .. } => {
            let (mut a, mut b) = (lhs.to_string(), rhs.to_string());
            if matches!(pred, IcmpPred::Eq | IcmpPred::Ne) && a > b {
                std::mem::swap(&mut a, &mut b);
            }
            Some(format!("icmp {pred:?} {ty} {a}, {b}"))
        }
        Instr::Cast { kind, from_ty, val, to_ty, .. } => {
            Some(format!("cast {kind:?} {from_ty} {val} to {to_ty}"))
        }
        _ => None,
    }
}

/// Tries to reduce one (already substituted) pure instruction to an
/// operand: a folded constant or an identity operand.
fn try_reduce(i: &Instr, bug: GvnBug) -> Option<Operand> {
    match i {
        Instr::Bin { op, nsw, ty, lhs, rhs, .. } => {
            if let (Some(l), Some(r)) = (as_const(lhs), as_const(rhs)) {
                if let Some(v) = fold_bin(*op, *nsw, ty.value_bits(), l, r, bug) {
                    return Some(Operand::Const(v));
                }
            }
            simplify_identity(*op, lhs, rhs)
        }
        Instr::Icmp { pred, ty, lhs, rhs, .. } => {
            let (l, r) = (as_const(lhs)?, as_const(rhs)?);
            Some(Operand::Const(fold_icmp(*pred, ty.value_bits(), l, r)))
        }
        Instr::Cast { kind, from_ty, val, to_ty, .. } => {
            use crate::ast::CastKind;
            let c = as_const(val)?;
            let fw = from_ty.value_bits();
            let tw = to_ty.value_bits();
            let v = match kind {
                CastKind::Sext => canon(fw, c),
                CastKind::Zext => {
                    let m = if fw >= 128 { u128::MAX } else { (1u128 << fw) - 1 };
                    (c as u128 & m) as i128
                }
                CastKind::Trunc => canon(tw, c),
                CastKind::Bitcast | CastKind::IntToPtr | CastKind::PtrToInt => return None,
            };
            Some(Operand::Const(canon(tw, v)))
        }
        _ => None,
    }
}

/// Runs the pass.
pub fn run_gvn(func: &Function, opts: GvnOptions) -> GvnOutput {
    let mut subst: BTreeMap<String, Operand> = BTreeMap::new();
    let mut blocks: Vec<Block> = Vec::with_capacity(func.blocks.len());
    for b in &func.blocks {
        // Per-block numbering table: value key → leader operand.
        let mut table: BTreeMap<String, Operand> = BTreeMap::new();
        let mut instrs: Vec<Instr> = Vec::with_capacity(b.instrs.len());
        for i in &b.instrs {
            let mut i = i.clone();
            subst_instr(&mut i, &subst);
            let Some(dst) = i.dst().map(str::to_owned) else {
                instrs.push(i);
                continue;
            };
            // Only locals and constants are admissible replacements: the
            // black-box VC generator relates eliminated values through
            // `ValueExpr`, which can name exactly those two shapes.
            if let Some(rep) = try_reduce(&i, opts.bug) {
                if matches!(rep, Operand::Local(_) | Operand::Const(_)) {
                    subst.insert(dst, rep);
                    continue;
                }
            }
            match vn_key(&i, opts.bug) {
                Some(key) => match table.get(&key) {
                    Some(leader) => {
                        subst.insert(dst, leader.clone());
                    }
                    None => {
                        table.insert(key, Operand::Local(dst));
                        instrs.push(i);
                    }
                },
                None => instrs.push(i),
            }
        }
        let mut term = b.term.clone();
        subst_term(&mut term, &subst);
        blocks.push(Block { name: b.name.clone(), instrs, term });
    }
    // Final sweep: phi incomings along back edges may reference locals
    // eliminated after the phi's block was processed.
    for b in &mut blocks {
        for i in &mut b.instrs {
            subst_instr(i, &subst);
        }
        subst_term(&mut b.term, &subst);
    }
    let func = Function {
        name: func.name.clone(),
        ret_ty: func.ret_ty.clone(),
        params: func.params.clone(),
        blocks,
    };
    GvnOutput { func, eliminated: subst }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn gvn(src: &str, bug: GvnBug) -> GvnOutput {
        let m = parse_module(src).expect("parses");
        run_gvn(&m.functions[0], GvnOptions { bug })
    }

    fn body_len(out: &GvnOutput) -> usize {
        out.func.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    #[test]
    fn duplicate_add_is_eliminated() {
        let out = gvn(
            "define i32 @f(i32 %a, i32 %b) {\n %x = add i32 %a, %b\n %y = add i32 %b, %a\n %z = add i32 %x, %y\n ret i32 %z\n}",
            GvnBug::None,
        );
        assert_eq!(out.eliminated.get("%y"), Some(&Operand::Local("%x".into())));
        assert_eq!(body_len(&out), 2);
    }

    #[test]
    fn sub_is_not_commutative() {
        let out = gvn(
            "define i32 @f(i32 %a, i32 %b) {\n %x = sub i32 %a, %b\n %y = sub i32 %b, %a\n %z = add i32 %x, %y\n ret i32 %z\n}",
            GvnBug::None,
        );
        assert!(out.eliminated.is_empty(), "{:?}", out.eliminated);
        let bugged = gvn(
            "define i32 @f(i32 %a, i32 %b) {\n %x = sub i32 %a, %b\n %y = sub i32 %b, %a\n %z = add i32 %x, %y\n ret i32 %z\n}",
            GvnBug::CommuteSub,
        );
        assert_eq!(bugged.eliminated.get("%y"), Some(&Operand::Local("%x".into())));
    }

    #[test]
    fn constants_fold_and_propagate() {
        let out = gvn(
            "define i32 @f(i32 %a) {\n %c = add i32 3, 4\n %d = mul i32 %c, 2\n %e = add i32 %a, %d\n ret i32 %e\n}",
            GvnBug::None,
        );
        assert_eq!(out.eliminated.get("%c"), Some(&Operand::Const(7)));
        assert_eq!(out.eliminated.get("%d"), Some(&Operand::Const(14)));
        assert_eq!(body_len(&out), 1);
        let bugged = gvn(
            "define i32 @f(i32 %a) {\n %c = add i32 3, 4\n %e = add i32 %a, %c\n ret i32 %e\n}",
            GvnBug::OffByOneFold,
        );
        assert_eq!(bugged.eliminated.get("%c"), Some(&Operand::Const(8)));
    }

    #[test]
    fn identities_simplify() {
        let out = gvn(
            "define i32 @f(i32 %a) {\n %x = add i32 %a, 0\n %y = mul i32 %x, 1\n ret i32 %y\n}",
            GvnBug::None,
        );
        assert_eq!(out.repr("%y"), Operand::Local("%a".into()));
        assert_eq!(body_len(&out), 0);
    }

    #[test]
    fn nsw_overflow_is_not_folded() {
        let out =
            gvn("define i32 @f() {\n %x = add nsw i32 2147483647, 1\n ret i32 %x\n}", GvnBug::None);
        assert!(out.eliminated.is_empty());
        assert_eq!(body_len(&out), 1);
    }

    #[test]
    fn impure_instructions_survive() {
        let out = gvn(
            "define i32 @f(i32* %p) {\n %x = load i32, i32* %p\n %y = load i32, i32* %p\n %z = add i32 %x, %y\n ret i32 %z\n}",
            GvnBug::None,
        );
        assert!(out.eliminated.is_empty());
        assert_eq!(body_len(&out), 3);
    }

    #[test]
    fn trunc_folds() {
        let out = gvn("define i8 @f() {\n %x = trunc i32 300 to i8\n ret i8 %x\n}", GvnBug::None);
        assert_eq!(out.eliminated.get("%x"), Some(&Operand::Const(44)));
    }
}
