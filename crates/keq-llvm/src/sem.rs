//! Symbolic operational semantics of the LLVM IR fragment — the left-hand
//! `Language` parameter handed to KEQ (the paper's §4.2 K definition).
//!
//! Undefined behaviors branch into error states (§4.6): out-of-bounds
//! accesses, division by zero, `nsw` signed overflow, `sdiv INT_MIN / -1`,
//! and `unreachable`.

use std::collections::HashMap;

use keq_semantics::{
    exec, read_bytes, write_bytes, CtrlLoc, ErrorKind, Language, Outcome, SemanticsError, Status,
    SymConfig,
};
use keq_smt::{Sort, TermBank, TermId};

use crate::ast::{
    BinOp, CastKind, ConstExpr, Function, IcmpPred, Instr, Module, Operand, Terminator,
};
use crate::layout::Layout;
use crate::types::Type;

/// One leading phi of a block: destination, type, incomings.
type PhiGroup<'a> = (&'a str, &'a Type, &'a [(Operand, String)]);

/// The symbolic semantics of one LLVM function.
#[derive(Debug)]
pub struct LlvmSemantics<'m> {
    module: &'m Module,
    func: &'m Function,
    layout: Layout,
    /// `(block name, instruction index) → nth call to that callee`.
    call_ordinals: HashMap<(String, usize), usize>,
}

impl<'m> LlvmSemantics<'m> {
    /// Builds the semantics for `func` within `module`.
    pub fn new(module: &'m Module, func: &'m Function) -> Self {
        let layout = Layout::of(module, func);
        Self::with_layout(module, func, layout)
    }

    /// Builds the semantics with an externally fixed layout (so both sides
    /// of a validation share one address space).
    pub fn with_layout(module: &'m Module, func: &'m Function, layout: Layout) -> Self {
        let mut per_callee: HashMap<&str, usize> = HashMap::new();
        let mut call_ordinals = HashMap::new();
        for b in &func.blocks {
            for (i, instr) in b.instrs.iter().enumerate() {
                if let Instr::Call { callee, .. } = instr {
                    let n = per_callee.entry(callee.as_str()).or_insert(0);
                    call_ordinals.insert((b.name.clone(), i), *n);
                    *n += 1;
                }
            }
        }
        LlvmSemantics { module, func, layout, call_ordinals }
    }

    /// The module.
    pub fn module(&self) -> &Module {
        self.module
    }

    /// The initial configuration: parameters mapped to the given terms.
    ///
    /// # Panics
    ///
    /// Panics if the argument count mismatches.
    pub fn initial_config(&self, bank: &mut TermBank, args: &[TermId], mem: TermId) -> SymConfig {
        assert_eq!(args.len(), self.func.params.len(), "argument count mismatch");
        let mut cfg = SymConfig::new(CtrlLoc::entry(self.func.entry().name.clone()), mem);
        for ((name, ty), &v) in self.func.params.iter().zip(args) {
            debug_assert_eq!(bank.width(v), ty.value_bits());
            cfg.set_reg(name.clone(), v);
        }
        cfg
    }

    /// Runs the function concretely on `args` (masked to the parameter
    /// widths) from all-zero memory; see [`keq_semantics::exec::run`].
    ///
    /// # Errors
    ///
    /// As [`keq_semantics::exec::run`].
    ///
    /// # Panics
    ///
    /// Panics if `args` has fewer values than the function has parameters.
    pub fn run(&self, args: &[u128], fuel: u64) -> Result<Outcome, SemanticsError> {
        let mut bank = TermBank::new();
        let args: Vec<TermId> = (self.func.params.iter().zip(args))
            .map(|((_, ty), &a)| bank.mk_bv(ty.value_bits(), a))
            .collect();
        let mem = bank.mk_var("mem", Sort::Memory);
        let start = self.initial_config(&mut bank, &args, mem);
        exec::run(self, &mut bank, start, fuel)
    }

    fn resolve(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        op: &Operand,
        ty: &Type,
    ) -> Result<TermId, SemanticsError> {
        let bits = ty.value_bits();
        match op {
            Operand::Local(name) => cfg.reg(name),
            Operand::Const(c) => Ok(bank.mk_bv(bits, *c as u128)),
            Operand::Global(g) => {
                let addr = self
                    .layout
                    .global_addr(g)
                    .ok_or_else(|| SemanticsError::UnknownRegister { name: format!("@{g}") })?;
                Ok(bank.mk_bv(64, u128::from(addr)))
            }
            Operand::Null => Ok(bank.mk_bv(64, 0)),
            Operand::Expr(e) => match &**e {
                ConstExpr::Gep { base_ty, base, indices } => {
                    let b = self.resolve(bank, cfg, base, &base_ty.clone().ptr_to())?;
                    self.gep_term(bank, cfg, b, base_ty, indices)
                }
                ConstExpr::Bitcast { from_ty, value, .. } => {
                    self.resolve(bank, cfg, value, from_ty)
                }
            },
        }
    }

    fn gep_term(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        base: TermId,
        base_ty: &Type,
        indices: &[(Type, Operand)],
    ) -> Result<TermId, SemanticsError> {
        let mut addr = base;
        let mut cur = base_ty.clone();
        for (k, (ity, idx)) in indices.iter().enumerate() {
            let iv = self.resolve(bank, cfg, idx, ity)?;
            let iv64 = widen_index(bank, iv);
            if k == 0 {
                let sz = bank.mk_bv(64, u128::from(cur.store_bytes()));
                let off = bank.mk_bvmul(iv64, sz);
                addr = bank.mk_bvadd(addr, off);
            } else {
                match cur.clone() {
                    Type::Array(_, elem) => {
                        let sz = bank.mk_bv(64, u128::from(elem.store_bytes()));
                        let off = bank.mk_bvmul(iv64, sz);
                        addr = bank.mk_bvadd(addr, off);
                        cur = *elem;
                    }
                    Type::Struct(fields) => {
                        let Some((_, fi)) = bank.as_bv_const(iv64) else {
                            return Err(SemanticsError::Unsupported {
                                what: "symbolic struct field index".into(),
                            });
                        };
                        let fi = fi as usize;
                        if fi >= fields.len() {
                            return Err(SemanticsError::Internal {
                                what: format!("struct index {fi} out of range"),
                            });
                        }
                        let off = bank.mk_bv(64, u128::from(cur.field_offset(fi)));
                        addr = bank.mk_bvadd(addr, off);
                        cur = fields[fi].clone();
                    }
                    other => {
                        return Err(SemanticsError::Internal {
                            what: format!("gep into non-aggregate {other}"),
                        })
                    }
                }
            }
        }
        Ok(addr)
    }

    /// Executes all leading phis of a block atomically (parallel semantics).
    fn step_phis(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        phis: &[PhiGroup<'_>],
    ) -> Result<SymConfig, SemanticsError> {
        let prev = cfg.loc.prev.clone().ok_or_else(|| SemanticsError::Internal {
            what: format!("phi at {} with no predecessor", cfg.loc),
        })?;
        let mut values = Vec::with_capacity(phis.len());
        for (dst, ty, incomings) in phis {
            let (v, _) = incomings.iter().find(|(_, bb)| *bb == prev).ok_or_else(|| {
                SemanticsError::Internal { what: format!("phi {dst} missing incoming {prev}") }
            })?;
            values.push((dst.to_string(), self.resolve(bank, cfg, v, ty)?));
        }
        let mut next = cfg.clone();
        for (dst, v) in values {
            next.set_reg(dst, v);
        }
        next.loc.index += phis.len();
        Ok(next)
    }
}

impl Language for LlvmSemantics<'_> {
    fn name(&self) -> &str {
        "llvm"
    }

    fn step(&self, cfg: &SymConfig, bank: &mut TermBank) -> Result<Vec<SymConfig>, SemanticsError> {
        debug_assert!(cfg.status.is_running(), "step on non-running config");
        let block = self
            .func
            .block(&cfg.loc.block)
            .ok_or_else(|| SemanticsError::UnknownBlock { name: cfg.loc.block.clone() })?;
        if cfg.loc.index < block.instrs.len() {
            // Atomic phi group at block start.
            if cfg.loc.index == 0 {
                let phis: Vec<PhiGroup<'_>> = block
                    .instrs
                    .iter()
                    .map_while(|i| match i {
                        Instr::Phi { dst, ty, incomings } => {
                            Some((dst.as_str(), ty, incomings.as_slice()))
                        }
                        _ => None,
                    })
                    .collect();
                if !phis.is_empty() {
                    return Ok(vec![self.step_phis(bank, cfg, &phis)?]);
                }
            }
            self.step_instr(bank, cfg, block, &block.instrs[cfg.loc.index])
        } else {
            self.step_terminator(bank, cfg, &block.term)
        }
    }

    fn return_from_call(
        &self,
        cfg: &mut SymConfig,
        bank: &mut TermBank,
        ret: u128,
    ) -> Result<(), SemanticsError> {
        let instr = self.func.block(&cfg.loc.block).and_then(|b| b.instrs.get(cfg.loc.index));
        let Some(Instr::Call { dst, ret_ty, .. }) = instr else {
            return Err(SemanticsError::Internal { what: format!("no call at {}", cfg.loc) });
        };
        if let Some(dst) = dst {
            let v = bank.mk_bv(ret_ty.value_bits(), ret);
            cfg.set_reg(dst.clone(), v);
        }
        cfg.loc.index += 1;
        cfg.status = Status::Running;
        Ok(())
    }
}

impl LlvmSemantics<'_> {
    fn step_instr(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        block: &crate::ast::Block,
        instr: &Instr,
    ) -> Result<Vec<SymConfig>, SemanticsError> {
        let mut succs = Vec::new();
        let mut next = cfg.clone();
        next.loc.index += 1;
        match instr {
            Instr::Bin { op, nsw, ty, dst, lhs, rhs } => {
                let w = ty.value_bits();
                let a = self.resolve(bank, cfg, lhs, ty)?;
                let b = self.resolve(bank, cfg, rhs, ty)?;
                // UB branches first.
                match op {
                    BinOp::Udiv | BinOp::Urem | BinOp::Sdiv | BinOp::Srem => {
                        let zero = bank.mk_bv(w, 0);
                        let div0 = bank.mk_eq(b, zero);
                        succs.push(cfg.to_error(bank, ErrorKind::DivByZero, div0));
                        let nz = bank.mk_not(div0);
                        next.assume(bank, nz);
                        if matches!(op, BinOp::Sdiv | BinOp::Srem) {
                            let int_min = bank.mk_bv(w, 1u128 << (w - 1));
                            let m1 = bank.mk_bv(w, u128::MAX);
                            let a_min = bank.mk_eq(a, int_min);
                            let b_m1 = bank.mk_eq(b, m1);
                            let ovf = bank.mk_and([a_min, b_m1, nz]);
                            succs.push(cfg.to_error(bank, ErrorKind::SignedOverflow, ovf));
                            let no = bank.mk_not(ovf);
                            next.assume(bank, no);
                        }
                    }
                    BinOp::Add | BinOp::Sub | BinOp::Mul if *nsw => {
                        let ovf = signed_overflow(bank, *op, a, b, w);
                        succs.push(cfg.to_error(bank, ErrorKind::SignedOverflow, ovf));
                        let no = bank.mk_not(ovf);
                        next.assume(bank, no);
                    }
                    _ => {}
                }
                let r = match op {
                    BinOp::Add => bank.mk_bvadd(a, b),
                    BinOp::Sub => bank.mk_bvsub(a, b),
                    BinOp::Mul => bank.mk_bvmul(a, b),
                    BinOp::Udiv => bank.mk_bvudiv(a, b),
                    BinOp::Urem => bank.mk_bvurem(a, b),
                    BinOp::Sdiv => bank.mk_bvsdiv(a, b),
                    BinOp::Srem => bank.mk_bvsrem(a, b),
                    BinOp::And => bank.mk_bvand(a, b),
                    BinOp::Or => bank.mk_bvor(a, b),
                    BinOp::Xor => bank.mk_bvxor(a, b),
                    BinOp::Shl => bank.mk_bvshl(a, b),
                    BinOp::Lshr => bank.mk_bvlshr(a, b),
                    BinOp::Ashr => bank.mk_bvashr(a, b),
                };
                next.set_reg(dst.clone(), r);
                succs.push(next);
            }
            Instr::Icmp { pred, ty, dst, lhs, rhs } => {
                let a = self.resolve(bank, cfg, lhs, ty)?;
                let b = self.resolve(bank, cfg, rhs, ty)?;
                let c = match pred {
                    IcmpPred::Eq => bank.mk_eq(a, b),
                    IcmpPred::Ne => bank.mk_ne(a, b),
                    IcmpPred::Ult => bank.mk_bvult(a, b),
                    IcmpPred::Ule => bank.mk_bvule(a, b),
                    IcmpPred::Ugt => bank.mk_bvugt(a, b),
                    IcmpPred::Uge => bank.mk_bvuge(a, b),
                    IcmpPred::Slt => bank.mk_bvslt(a, b),
                    IcmpPred::Sle => bank.mk_bvsle(a, b),
                    IcmpPred::Sgt => bank.mk_bvsgt(a, b),
                    IcmpPred::Sge => bank.mk_bvsge(a, b),
                };
                let one = bank.mk_bv(1, 1);
                let zero = bank.mk_bv(1, 0);
                let bit = bank.mk_ite(c, one, zero);
                next.set_reg(dst.clone(), bit);
                succs.push(next);
            }
            Instr::Phi { dst, .. } => {
                return Err(SemanticsError::Internal {
                    what: format!("phi {dst} not at block start"),
                })
            }
            Instr::Load { dst, ty, ptr } => {
                let addr = self.resolve(bank, cfg, ptr, &ty.clone().ptr_to())?;
                let n = ty.store_bytes();
                let ok = self.layout.mem.in_bounds(bank, addr, n);
                let oob = bank.mk_not(ok);
                succs.push(cfg.to_error(bank, ErrorKind::OutOfBounds, oob));
                next.assume(bank, ok);
                let raw = read_bytes(bank, cfg.mem, addr, n as u32);
                let v = if ty.value_bits() < n as u32 * 8 {
                    bank.mk_trunc(raw, ty.value_bits())
                } else {
                    raw
                };
                next.set_reg(dst.clone(), v);
                succs.push(next);
            }
            Instr::Store { ty, val, ptr } => {
                let v = self.resolve(bank, cfg, val, ty)?;
                let addr = self.resolve(bank, cfg, ptr, &ty.clone().ptr_to())?;
                let n = ty.store_bytes();
                let ok = self.layout.mem.in_bounds(bank, addr, n);
                let oob = bank.mk_not(ok);
                succs.push(cfg.to_error(bank, ErrorKind::OutOfBounds, oob));
                next.assume(bank, ok);
                let padded =
                    if ty.value_bits() < n as u32 * 8 { bank.mk_zext(v, n as u32 * 8) } else { v };
                next.mem = write_bytes(bank, cfg.mem, addr, padded);
                succs.push(next);
            }
            Instr::Alloca { dst, .. } => {
                let addr = self.layout.alloca_addr(dst).ok_or_else(|| {
                    SemanticsError::Internal { what: format!("alloca {dst} has no slot") }
                })?;
                let t = bank.mk_bv(64, u128::from(addr));
                next.set_reg(dst.clone(), t);
                succs.push(next);
            }
            Instr::Gep { dst, base_ty, ptr, indices } => {
                let base = self.resolve(bank, cfg, ptr, &base_ty.clone().ptr_to())?;
                let addr = self.gep_term(bank, cfg, base, base_ty, indices)?;
                next.set_reg(dst.clone(), addr);
                succs.push(next);
            }
            Instr::Cast { kind, dst, from_ty, val, to_ty } => {
                let v = self.resolve(bank, cfg, val, from_ty)?;
                let to_bits = to_ty.value_bits();
                let from_bits = bank.width(v);
                let r = match kind {
                    CastKind::Zext => bank.mk_zext(v, to_bits),
                    CastKind::Sext => bank.mk_sext(v, to_bits),
                    CastKind::Trunc => bank.mk_trunc(v, to_bits),
                    CastKind::Bitcast => v,
                    CastKind::IntToPtr => {
                        if from_bits < 64 {
                            bank.mk_zext(v, 64)
                        } else if from_bits > 64 {
                            bank.mk_trunc(v, 64)
                        } else {
                            v
                        }
                    }
                    CastKind::PtrToInt => {
                        if to_bits < 64 {
                            bank.mk_trunc(v, to_bits)
                        } else if to_bits > 64 {
                            bank.mk_zext(v, to_bits)
                        } else {
                            v
                        }
                    }
                };
                next.set_reg(dst.clone(), r);
                succs.push(next);
            }
            Instr::Call { ret_ty: _, callee, args, .. } => {
                let mut arg_terms = Vec::with_capacity(args.len());
                for (ty, a) in args {
                    arg_terms.push(self.resolve(bank, cfg, a, ty)?);
                }
                let nth =
                    *self.call_ordinals.get(&(block.name.clone(), cfg.loc.index)).ok_or_else(
                        || SemanticsError::Internal { what: "call without ordinal".into() },
                    )?;
                let mut stop = cfg.clone();
                stop.status = Status::AtCall { callee: callee.clone(), nth, args: arg_terms };
                succs.push(stop);
            }
        }
        Ok(succs)
    }

    fn step_terminator(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        term: &Terminator,
    ) -> Result<Vec<SymConfig>, SemanticsError> {
        match term {
            Terminator::Br { target } => {
                if self.func.block(target).is_none() {
                    return Err(SemanticsError::UnknownBlock { name: target.clone() });
                }
                let mut next = cfg.clone();
                next.loc = CtrlLoc::block_start(target.clone(), Some(cfg.loc.block.clone()));
                Ok(vec![next])
            }
            Terminator::CondBr { cond, then_, else_ } => {
                for t in [then_, else_] {
                    if self.func.block(t).is_none() {
                        return Err(SemanticsError::UnknownBlock { name: t.clone() });
                    }
                }
                let c = self.resolve(bank, cfg, cond, &Type::I1)?;
                let one = bank.mk_bv(1, 1);
                let taken = bank.mk_eq(c, one);
                let mut t = cfg.clone();
                t.loc = CtrlLoc::block_start(then_.clone(), Some(cfg.loc.block.clone()));
                t.assume(bank, taken);
                let mut e = cfg.clone();
                e.loc = CtrlLoc::block_start(else_.clone(), Some(cfg.loc.block.clone()));
                let not_taken = bank.mk_not(taken);
                e.assume(bank, not_taken);
                Ok(vec![t, e])
            }
            Terminator::Ret { val } => {
                let mut done = cfg.clone();
                done.status = Status::Exited {
                    ret: match val {
                        Some((ty, v)) => Some(self.resolve(bank, cfg, v, ty)?),
                        None => None,
                    },
                };
                Ok(vec![done])
            }
            Terminator::Unreachable => {
                let t = bank.mk_true();
                Ok(vec![cfg.to_error(bank, ErrorKind::Unreachable, t)])
            }
        }
    }
}

/// Sign- or zero-extends a GEP index to 64 bits (LLVM sign-extends).
fn widen_index(bank: &mut TermBank, idx: TermId) -> TermId {
    let w = bank.width(idx);
    if w < 64 {
        bank.mk_sext(idx, 64)
    } else if w > 64 {
        bank.mk_trunc(idx, 64)
    } else {
        idx
    }
}

/// Overflow condition for `nsw` arithmetic: compute at width `w + 1` and
/// compare against the sign-extended truncated result.
fn signed_overflow(bank: &mut TermBank, op: BinOp, a: TermId, b: TermId, w: u32) -> TermId {
    let (wide_w, narrow) = match op {
        BinOp::Mul => (2 * w, {
            let ax = bank.mk_sext(a, 2 * w);
            let bx = bank.mk_sext(b, 2 * w);
            bank.mk_bvmul(ax, bx)
        }),
        BinOp::Add => (w + 1, {
            let ax = bank.mk_sext(a, w + 1);
            let bx = bank.mk_sext(b, w + 1);
            bank.mk_bvadd(ax, bx)
        }),
        BinOp::Sub => (w + 1, {
            let ax = bank.mk_sext(a, w + 1);
            let bx = bank.mk_sext(b, w + 1);
            bank.mk_bvsub(ax, bx)
        }),
        other => panic!("signed_overflow on {other:?}"),
    };
    let trunc = bank.mk_trunc(narrow, w);
    let resext = bank.mk_sext(trunc, wide_w);
    bank.mk_ne(narrow, resext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    fn setup(src: &str) -> (Module, TermBank) {
        (parse_module(src).expect("parses"), TermBank::new())
    }

    fn step_all(sem: &LlvmSemantics<'_>, bank: &mut TermBank, cfg: SymConfig) -> Vec<SymConfig> {
        sem.step(&cfg, bank).expect("steps")
    }

    #[test]
    fn straightline_add_produces_sum_term() {
        let (m, mut bank) =
            setup("define i32 @f(i32 %x, i32 %y) {\n %s = add i32 %x, %y\n ret i32 %s\n}");
        let f = m.function("f").expect("exists");
        let sem = LlvmSemantics::new(&m, f);
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let y = bank.mk_var("y", Sort::BitVec(32));
        let cfg = sem.initial_config(&mut bank, &[x, y], mem);
        let s1 = step_all(&sem, &mut bank, cfg);
        assert_eq!(s1.len(), 1);
        let expected = bank.mk_bvadd(x, y);
        assert_eq!(s1[0].reg("%s"), Ok(expected));
        let s2 = step_all(&sem, &mut bank, s1.into_iter().next().expect("one"));
        assert_eq!(s2.len(), 1);
        assert!(matches!(s2[0].status, Status::Exited { ret: Some(r) } if r == expected));
    }

    #[test]
    fn condbr_splits_paths() {
        let (m, mut bank) = setup(
            "define i32 @f(i32 %x) {\nentry:\n %c = icmp ult i32 %x, 10\n br i1 %c, label %a, label %b\na:\n ret i32 1\nb:\n ret i32 0\n}",
        );
        let f = m.function("f").expect("exists");
        let sem = LlvmSemantics::new(&m, f);
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let cfg = sem.initial_config(&mut bank, &[x], mem);
        let s1 = step_all(&sem, &mut bank, cfg); // icmp
        let s2 = step_all(&sem, &mut bank, s1.into_iter().next().expect("one")); // condbr
        assert_eq!(s2.len(), 2);
        assert_eq!(s2[0].loc.block, "a");
        assert_eq!(s2[0].loc.prev.as_deref(), Some("entry"));
        assert_eq!(s2[1].loc.block, "b");
        assert_eq!(s2[0].path.len(), 1);
        assert_eq!(s2[1].path.len(), 1);
    }

    #[test]
    fn division_produces_error_branch() {
        let (m, mut bank) =
            setup("define i32 @f(i32 %x, i32 %y) {\n %q = udiv i32 %x, %y\n ret i32 %q\n}");
        let f = m.function("f").expect("exists");
        let sem = LlvmSemantics::new(&m, f);
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let y = bank.mk_var("y", Sort::BitVec(32));
        let cfg = sem.initial_config(&mut bank, &[x, y], mem);
        let succs = step_all(&sem, &mut bank, cfg);
        assert_eq!(succs.len(), 2);
        assert!(matches!(succs[0].status, Status::Error(ErrorKind::DivByZero)));
        assert!(succs[1].status.is_running());
    }

    #[test]
    fn concrete_division_error_branch_folds_away() {
        // With a constant nonzero divisor the error branch carries a
        // literal-false path condition (prunable without a solver).
        let (m, mut bank) = setup("define i32 @f(i32 %x) {\n %q = udiv i32 %x, 4\n ret i32 %q\n}");
        let f = m.function("f").expect("exists");
        let sem = LlvmSemantics::new(&m, f);
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let cfg = sem.initial_config(&mut bank, &[x], mem);
        let succs = step_all(&sem, &mut bank, cfg);
        let err = &succs[0];
        assert!(err.path.iter().any(|&t| bank.as_bool_const(t) == Some(false)));
    }

    #[test]
    fn phi_group_executes_in_parallel() {
        // %a and %b swap through phis; parallel semantics must read old
        // values.
        let (m, mut bank) = setup(
            "define i32 @f(i32 %x, i32 %y) {\nentry:\n br label %l\nl:\n %a = phi i32 [ %x, %entry ], [ %b, %l ]\n %b = phi i32 [ %y, %entry ], [ %a, %l ]\n %c = icmp eq i32 %a, %b\n br i1 %c, label %done, label %l\ndone:\n ret i32 %a\n}",
        );
        let f = m.function("f").expect("exists");
        let sem = LlvmSemantics::new(&m, f);
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let y = bank.mk_var("y", Sort::BitVec(32));
        let cfg = sem.initial_config(&mut bank, &[x, y], mem);
        let s1 = step_all(&sem, &mut bank, cfg); // br
        let s2 = step_all(&sem, &mut bank, s1.into_iter().next().expect("one")); // phi group
        let c = &s2[0];
        assert_eq!(c.reg("%a"), Ok(x));
        assert_eq!(c.reg("%b"), Ok(y));
        assert_eq!(c.loc.index, 2, "both phis consumed atomically");
        // Second trip around the loop: values swap.
        let s3 = step_all(&sem, &mut bank, c.clone()); // icmp
        let s4 = step_all(&sem, &mut bank, s3.into_iter().next().expect("one")); // condbr
        let back = s4.into_iter().find(|s| s.loc.block == "l").expect("loop edge");
        let s5 = step_all(&sem, &mut bank, back); // phi group again
        assert_eq!(s5[0].reg("%a"), Ok(y), "swapped");
        assert_eq!(s5[0].reg("%b"), Ok(x), "swapped");
    }

    #[test]
    fn call_becomes_atcall_status() {
        let (m, mut bank) = setup(
            "define i32 @f(i32 %x) {\n %r = call i32 @g(i32 %x)\n %r2 = call i32 @g(i32 %r)\n ret i32 %r2\n}",
        );
        let f = m.function("f").expect("exists");
        let sem = LlvmSemantics::new(&m, f);
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let cfg = sem.initial_config(&mut bank, &[x], mem);
        let succs = step_all(&sem, &mut bank, cfg);
        assert_eq!(succs.len(), 1);
        match &succs[0].status {
            Status::AtCall { callee, nth, args } => {
                assert_eq!(callee, "g");
                assert_eq!(*nth, 0);
                assert_eq!(args, &vec![x]);
            }
            other => panic!("expected AtCall, got {other:?}"),
        }
    }

    /// Runs the first function of `src` through the concrete driver.
    fn run(src: &str, args: &[u128], fuel: u64) -> Outcome {
        let m = parse_module(src).expect("parses");
        LlvmSemantics::new(&m, &m.functions[0]).run(args, fuel).expect("runs")
    }

    fn ret(src: &str, args: &[u128]) -> u128 {
        match run(src, args, 100_000) {
            Outcome::Returned { ret: Some(r), .. } => r,
            other => panic!("expected a value, got {other:?}"),
        }
    }

    fn error(src: &str, args: &[u128]) -> Outcome {
        run(src, args, 100_000)
    }

    #[test]
    fn arithm_seq_sum_computes_series() {
        // The paper's Fig. 1 function: a0 = 5, d = 3, n = 4 sums
        // 5 + 8 + 11 + 14; n = 1 is just a0, and so is n = 0.
        let src = crate::corpus::ARITHM_SEQ_SUM;
        assert_eq!(ret(src, &[5, 3, 4]), 38);
        assert_eq!(ret(src, &[5, 3, 1]), 5);
        assert_eq!(ret(src, &[7, 3, 0]), 7);
    }

    #[test]
    fn memory_roundtrip_via_alloca() {
        let src = "define i32 @f(i32 %x) {\n %slot = alloca i32\n store i32 %x, i32* %slot\n %v = load i32, i32* %slot\n %r = add i32 %v, 1\n ret i32 %r\n}";
        assert_eq!(ret(src, &[41]), 42);
    }

    #[test]
    fn i96_store_load_roundtrip() {
        let src = "@a = global i96 0\n\ndefine i64 @f(i64 %x) {\n %w = zext i64 %x to i96\n %h = shl i96 %w, 32\n store i96 %h, i96* @a\n %v = load i96, i96* @a\n %s = lshr i96 %v, 64\n %t = trunc i96 %s to i64\n ret i64 %t\n}";
        assert_eq!(ret(src, &[0xab_0000_0000]), 0xab);
    }

    #[test]
    fn gep_into_array() {
        let src = r#"
define i32 @f(i64 %i) {
  %buf = alloca [4 x i32]
  %p0 = getelementptr inbounds [4 x i32], [4 x i32]* %buf, i64 0, i64 0
  store i32 10, i32* %p0
  %p = getelementptr inbounds [4 x i32], [4 x i32]* %buf, i64 0, i64 %i
  store i32 99, i32* %p
  %v = load i32, i32* %p0
  ret i32 %v
}
"#;
        // i = 0 overwrites slot 0, i = 2 leaves it alone, i = 7 is out of
        // bounds.
        assert_eq!(ret(src, &[0]), 99);
        assert_eq!(ret(src, &[2]), 10);
        assert_eq!(error(src, &[7]), Outcome::Error(ErrorKind::OutOfBounds));
    }

    #[test]
    fn division_by_zero_traps() {
        let src = "define i32 @f(i32 %x, i32 %y) {\n %r = udiv i32 %x, %y\n ret i32 %r\n}";
        assert_eq!(ret(src, &[10, 2]), 5);
        assert_eq!(error(src, &[10, 0]), Outcome::Error(ErrorKind::DivByZero));
    }

    #[test]
    fn nsw_overflow_traps() {
        let src = "define i32 @f(i32 %x) {\n %r = add nsw i32 %x, 1\n ret i32 %r\n}";
        assert_eq!(ret(src, &[5]), 6);
        assert_eq!(error(src, &[0x7fff_ffff]), Outcome::Error(ErrorKind::SignedOverflow));
    }

    #[test]
    fn sdiv_int_min_traps() {
        let src = "define i8 @f(i8 %x, i8 %y) {\n %r = sdiv i8 %x, %y\n ret i8 %r\n}";
        assert_eq!(error(src, &[0x80, 0xff]), Outcome::Error(ErrorKind::SignedOverflow));
        assert_eq!(ret(src, &[0xf6, 2]), 0xfb, "-10 / 2 = -5");
    }

    #[test]
    fn signed_ops_and_casts() {
        let src = "define i32 @f(i8 %x) {\n %w = sext i8 %x to i32\n %c = icmp slt i32 %w, 0\n %z = zext i1 %c to i32\n ret i32 %z\n}";
        assert_eq!(ret(src, &[0x80]), 1);
        assert_eq!(ret(src, &[5]), 0);
    }

    #[test]
    fn calls_are_deterministic() {
        let src = r#"
define i64 @f(i64 %x) {
  %a = call i64 @ext(i64 %x)
  %b = call i64 @ext(i64 %x)
  %c = icmp eq i64 %a, %b
  %z = zext i1 %c to i64
  %r = add i64 %a, %z
  ret i64 %r
}
"#;
        let a = keq_semantics::default_ext_call("ext", &[123]) as u64;
        assert_eq!(ret(src, &[123]), u128::from(a.wrapping_add(1)));
    }

    #[test]
    fn unreachable_traps() {
        let src = "define void @f() {\n unreachable\n}";
        assert_eq!(error(src, &[]), Outcome::Error(ErrorKind::Unreachable));
    }

    #[test]
    fn fuel_exhaustion_on_infinite_loop() {
        // A loop in one fixed state ends at the cycle check, a counting
        // loop at its fuel.
        let spin = "define void @f() {\nentry:\n br label %loop\nloop:\n br label %loop\n}";
        assert_eq!(run(spin, &[], u64::MAX), Outcome::OutOfFuel);
        let count = "define i32 @f() {\nentry:\n br label %l\nl:\n %i = phi i32 [ 0, %entry ], [ %j, %l ]\n %j = add i32 %i, 1\n %c = icmp ult i32 %j, 1000\n br i1 %c, label %l, label %done\ndone:\n ret i32 %j\n}";
        assert_eq!(run(count, &[], 100), Outcome::OutOfFuel);
        assert!(matches!(run(count, &[], 10_000), Outcome::Returned { ret: Some(1000), .. }));
    }
}
