//! Symbolic operational semantics of Virtual x86 — the right-hand
//! `Language` parameter handed to KEQ (the paper's §4.3 K definition).
//!
//! Physical registers are modelled at their full 64-bit width under their
//! canonical names (`rax`, `rdi`, …); narrower views read low bits and
//! 32-bit writes zero the upper half, which is exactly the x86-64 rule the
//! paper's Fig. 11 correct translation relies on. The four `eflags` bits
//! that conditional jumps consume (`zf`, `sf`, `cf`, `of`) are tracked as
//! boolean registers.
//!
//! Flag fidelity notes: `imul` leaves `zf`/`sf` undefined on real hardware
//! and shifts leave `cf`/`of` undefined for some counts; this semantics
//! pins them (result-derived / false) — ISel-generated code never branches
//! on flags that are undefined at that point, and a deterministic choice is
//! required for the §3 determinism-based query optimization.

use std::collections::BTreeMap;

use keq_semantics::{
    exec, read_bytes, write_bytes, CtrlLoc, ErrorKind, Language, MemLayout, Outcome,
    SemanticsError, Status, SymConfig,
};
use keq_smt::{Sort, TermBank, TermId};

use crate::ast::{Addr, AluOp, Cond, PhysReg, Reg, RegImm, VxFunction, VxInstr, VxTerm};

/// The symbolic semantics of one Virtual x86 function.
#[derive(Debug)]
pub struct VxSemantics<'f> {
    func: &'f VxFunction,
    mem_layout: MemLayout,
    globals: BTreeMap<String, u64>,
    call_ordinals: BTreeMap<(String, usize), usize>,
}

impl<'f> VxSemantics<'f> {
    /// Builds the semantics with the shared memory layout and global
    /// addresses (both must match the LLVM side's, per the common memory
    /// model of §4.4).
    pub fn new(
        func: &'f VxFunction,
        mem_layout: MemLayout,
        globals: BTreeMap<String, u64>,
    ) -> Self {
        let mut per_callee: BTreeMap<&str, usize> = BTreeMap::new();
        let mut call_ordinals = BTreeMap::new();
        for b in &func.blocks {
            for (i, instr) in b.instrs.iter().enumerate() {
                if let VxInstr::Call { callee, .. } = instr {
                    let n = per_callee.entry(callee.as_str()).or_insert(0);
                    call_ordinals.insert((b.name.clone(), i), *n);
                    *n += 1;
                }
            }
        }
        VxSemantics { func, mem_layout, globals, call_ordinals }
    }

    /// The initial configuration with arguments placed in the SysV
    /// argument registers.
    ///
    /// # Panics
    ///
    /// Panics if more than six integer arguments are supplied (stack
    /// arguments are outside the supported fragment).
    pub fn initial_config(&self, bank: &mut TermBank, args: &[TermId], mem: TermId) -> SymConfig {
        assert!(args.len() <= 6, "stack arguments unsupported");
        let mut cfg = SymConfig::new(CtrlLoc::entry(self.func.entry().name.clone()), mem);
        for (i, &a) in args.iter().enumerate() {
            let full = bank.mk_zext(a, 64);
            cfg.set_reg(PhysReg::args()[i].name64(), full);
        }
        init_flags(bank, &mut cfg);
        cfg
    }

    /// Runs the function concretely on `args` (the 64-bit argument
    /// registers) from all-zero memory; see [`keq_semantics::exec::run`].
    ///
    /// Every other register starts at zero too. Their values at entry are
    /// arbitrary, and a write of 8 or 16 bits merges into the old value
    /// (an allocated `al = setl`, say), so a concrete run must pick one.
    ///
    /// # Errors
    ///
    /// As [`keq_semantics::exec::run`].
    ///
    /// # Panics
    ///
    /// Panics if more than six arguments are supplied.
    pub fn run(&self, args: &[u128], fuel: u64) -> Result<Outcome, SemanticsError> {
        let mut bank = TermBank::new();
        let args: Vec<TermId> = args.iter().map(|&a| bank.mk_bv(64, a)).collect();
        let mem = bank.mk_var("mem", Sort::Memory);
        let mut start = self.initial_config(&mut bank, &args, mem);
        let zero = bank.mk_bv(64, 0);
        for r in PhysReg::ALL {
            if start.reg(r.name64()).is_err() {
                start.set_reg(r.name64(), zero);
            }
        }
        exec::run(self, &mut bank, start, fuel)
    }

    fn read_reg(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        reg: Reg,
    ) -> Result<TermId, SemanticsError> {
        match reg {
            Reg::Virt(id, w) => cfg.reg(&format!("%vr{id}_{w}")),
            Reg::Phys(p, w) => {
                let full = cfg.reg(p.name64())?;
                Ok(if w == 64 { full } else { bank.mk_trunc(full, w) })
            }
        }
    }

    fn write_reg(
        &self,
        bank: &mut TermBank,
        cfg: &mut SymConfig,
        reg: Reg,
        val: TermId,
    ) -> Result<(), SemanticsError> {
        debug_assert_eq!(bank.width(val), reg.width());
        match reg {
            Reg::Virt(id, w) => {
                cfg.set_reg(format!("%vr{id}_{w}"), val);
                let _ = w;
            }
            Reg::Phys(p, w) => {
                let full = match w {
                    64 => val,
                    // 32-bit writes zero the upper half (x86-64 rule).
                    32 => bank.mk_zext(val, 64),
                    // 8/16-bit writes merge into the old value.
                    _ => {
                        let old = cfg.reg(p.name64())?;
                        let hi = bank.mk_extract(old, 63, w);
                        bank.mk_concat(hi, val)
                    }
                };
                cfg.set_reg(p.name64(), full);
            }
        }
        Ok(())
    }

    fn read_ri(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        ri: RegImm,
        width: u32,
    ) -> Result<TermId, SemanticsError> {
        match ri {
            RegImm::Reg(r) => {
                let v = self.read_reg(bank, cfg, r)?;
                let w = bank.width(v);
                Ok(match w.cmp(&width) {
                    std::cmp::Ordering::Equal => v,
                    std::cmp::Ordering::Less => bank.mk_zext(v, width),
                    std::cmp::Ordering::Greater => bank.mk_trunc(v, width),
                })
            }
            RegImm::Imm(i) => Ok(bank.mk_bv(width, i as u128)),
        }
    }

    fn addr_term(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        addr: &Addr,
    ) -> Result<TermId, SemanticsError> {
        let mut t = if let Some(g) = &addr.global {
            let base = self
                .globals
                .get(g)
                .copied()
                .ok_or_else(|| SemanticsError::UnknownRegister { name: format!("@{g}") })?;
            bank.mk_bv(64, u128::from(base.wrapping_add(addr.disp as u64)))
        } else {
            bank.mk_bv(64, addr.disp as u64 as u128)
        };
        if let Some(b) = addr.base {
            let bv = self.read_reg(bank, cfg, b)?;
            let bv64 = widen64(bank, bv);
            t = bank.mk_bvadd(t, bv64);
        }
        if let Some((i, s)) = addr.index {
            let iv = self.read_reg(bank, cfg, i)?;
            let iv64 = widen64(bank, iv);
            let sc = bank.mk_bv(64, u128::from(s));
            let scaled = bank.mk_bvmul(iv64, sc);
            t = bank.mk_bvadd(t, scaled);
        }
        Ok(t)
    }

    fn cond_term(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        cc: Cond,
    ) -> Result<TermId, SemanticsError> {
        let zf = cfg.reg("zf")?;
        let sf = cfg.reg("sf")?;
        let cf = cfg.reg("cf")?;
        let of = cfg.reg("of")?;
        Ok(match cc {
            Cond::E => zf,
            Cond::Ne => bank.mk_not(zf),
            Cond::B => cf,
            Cond::Ae => bank.mk_not(cf),
            Cond::Be => bank.mk_or([cf, zf]),
            Cond::A => {
                let o = bank.mk_or([cf, zf]);
                bank.mk_not(o)
            }
            Cond::L => bank.mk_xor(sf, of),
            Cond::Ge => {
                let x = bank.mk_xor(sf, of);
                bank.mk_not(x)
            }
            Cond::Le => {
                let x = bank.mk_xor(sf, of);
                bank.mk_or([x, zf])
            }
            Cond::G => {
                let x = bank.mk_xor(sf, of);
                let o = bank.mk_or([x, zf]);
                bank.mk_not(o)
            }
            Cond::S => sf,
            Cond::Ns => bank.mk_not(sf),
        })
    }

    /// Sets `zf`/`sf` from `res` and `cf`/`of` explicitly.
    fn set_flags(bank: &mut TermBank, cfg: &mut SymConfig, res: TermId, cf: TermId, of: TermId) {
        let w = bank.width(res);
        let zero = bank.mk_bv(w, 0);
        let zf = bank.mk_eq(res, zero);
        let sf = {
            let msb = bank.mk_extract(res, w - 1, w - 1);
            let one = bank.mk_bv(1, 1);
            bank.mk_eq(msb, one)
        };
        cfg.set_reg("zf", zf);
        cfg.set_reg("sf", sf);
        cfg.set_reg("cf", cf);
        cfg.set_reg("of", of);
    }
}

/// Initializes the flags to a defined (false) state.
pub fn init_flags(bank: &mut TermBank, cfg: &mut SymConfig) {
    let f = bank.mk_false();
    for flag in ["zf", "sf", "cf", "of"] {
        if cfg.reg(flag).is_err() {
            cfg.set_reg(flag, f);
        }
    }
}

fn widen64(bank: &mut TermBank, v: TermId) -> TermId {
    let w = bank.width(v);
    if w < 64 {
        bank.mk_zext(v, 64)
    } else {
        v
    }
}

/// `(carry, signed-overflow)` of `l + r` at width `w`.
fn add_flags(bank: &mut TermBank, l: TermId, r: TermId, res: TermId, w: u32) -> (TermId, TermId) {
    let lx = bank.mk_zext(l, w + 1);
    let rx = bank.mk_zext(r, w + 1);
    let wide = bank.mk_bvadd(lx, rx);
    let cf = {
        let top = bank.mk_extract(wide, w, w);
        let one = bank.mk_bv(1, 1);
        bank.mk_eq(top, one)
    };
    let of = {
        let ls = bank.mk_sext(l, w + 1);
        let rs = bank.mk_sext(r, w + 1);
        let wide_s = bank.mk_bvadd(ls, rs);
        let res_s = bank.mk_sext(res, w + 1);
        bank.mk_ne(wide_s, res_s)
    };
    (cf, of)
}

/// `(borrow, signed-overflow)` of `l - r` at width `w`.
fn sub_flags(bank: &mut TermBank, l: TermId, r: TermId, res: TermId, w: u32) -> (TermId, TermId) {
    let cf = bank.mk_bvult(l, r);
    let of = {
        let ls = bank.mk_sext(l, w + 1);
        let rs = bank.mk_sext(r, w + 1);
        let wide_s = bank.mk_bvsub(ls, rs);
        let res_s = bank.mk_sext(res, w + 1);
        bank.mk_ne(wide_s, res_s)
    };
    (cf, of)
}

impl Language for VxSemantics<'_> {
    fn name(&self) -> &str {
        "vx86"
    }

    fn step(&self, cfg: &SymConfig, bank: &mut TermBank) -> Result<Vec<SymConfig>, SemanticsError> {
        debug_assert!(cfg.status.is_running(), "step on non-running config");
        let block = self
            .func
            .block(&cfg.loc.block)
            .ok_or_else(|| SemanticsError::UnknownBlock { name: cfg.loc.block.clone() })?;
        if cfg.loc.index < block.instrs.len() {
            if cfg.loc.index == 0 {
                let phis: Vec<(Reg, &[(Reg, String)])> = block
                    .instrs
                    .iter()
                    .map_while(|i| match i {
                        VxInstr::Phi { dst, incomings } => Some((*dst, incomings.as_slice())),
                        _ => None,
                    })
                    .collect();
                if !phis.is_empty() {
                    return Ok(vec![self.step_phis(bank, cfg, &phis)?]);
                }
            }
            self.step_instr(bank, cfg, block, &block.instrs[cfg.loc.index])
        } else {
            self.step_term(bank, cfg, &block.term)
        }
    }

    fn return_from_call(
        &self,
        cfg: &mut SymConfig,
        bank: &mut TermBank,
        ret: u128,
    ) -> Result<(), SemanticsError> {
        let instr = self.func.block(&cfg.loc.block).and_then(|b| b.instrs.get(cfg.loc.index));
        let Some(VxInstr::Call { ret_width, .. }) = instr else {
            return Err(SemanticsError::Internal { what: format!("no call at {}", cfg.loc) });
        };
        if let Some(w) = *ret_width {
            let v = bank.mk_bv(w, ret);
            self.write_reg(bank, cfg, Reg::Phys(PhysReg::Rax, w), v)?;
        }
        cfg.loc.index += 1;
        cfg.status = Status::Running;
        Ok(())
    }
}

impl VxSemantics<'_> {
    fn step_phis(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        phis: &[(Reg, &[(Reg, String)])],
    ) -> Result<SymConfig, SemanticsError> {
        let prev = cfg.loc.prev.clone().ok_or_else(|| SemanticsError::Internal {
            what: format!("PHI at {} with no predecessor", cfg.loc),
        })?;
        let mut values = Vec::with_capacity(phis.len());
        for (dst, incomings) in phis {
            let (src, _) = incomings.iter().find(|(_, bb)| *bb == prev).ok_or_else(|| {
                SemanticsError::Internal { what: format!("PHI {dst} missing incoming {prev}") }
            })?;
            values.push((*dst, self.read_reg(bank, cfg, *src)?));
        }
        let mut next = cfg.clone();
        for (dst, v) in values {
            self.write_reg(bank, &mut next, dst, v)?;
        }
        next.loc.index += phis.len();
        Ok(next)
    }

    fn step_instr(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        block: &crate::ast::VxBlock,
        instr: &VxInstr,
    ) -> Result<Vec<SymConfig>, SemanticsError> {
        let mut succs = Vec::new();
        let mut next = cfg.clone();
        next.loc.index += 1;
        match instr {
            VxInstr::Copy { dst, src } => {
                let v = self.read_reg(bank, cfg, *src)?;
                let v = fit(bank, v, dst.width());
                self.write_reg(bank, &mut next, *dst, v)?;
                succs.push(next);
            }
            VxInstr::Phi { dst, .. } => {
                return Err(SemanticsError::Internal {
                    what: format!("PHI {dst} not at block start"),
                })
            }
            VxInstr::MovRI { dst, imm } => {
                let v = bank.mk_bv(dst.width(), *imm as u128);
                self.write_reg(bank, &mut next, *dst, v)?;
                succs.push(next);
            }
            VxInstr::Load { dst, width, addr, zext } => {
                let a = self.addr_term(bank, cfg, addr)?;
                let nbytes = u64::from(width / 8);
                let ok = self.mem_layout.in_bounds(bank, a, nbytes);
                let oob = bank.mk_not(ok);
                succs.push(cfg.to_error(bank, ErrorKind::OutOfBounds, oob));
                next.assume(bank, ok);
                let raw = read_bytes(bank, cfg.mem, a, width / 8);
                let v = if *zext && dst.width() > *width {
                    bank.mk_zext(raw, dst.width())
                } else {
                    raw
                };
                self.write_reg(bank, &mut next, *dst, v)?;
                succs.push(next);
            }
            VxInstr::Store { width, addr, src } => {
                let a = self.addr_term(bank, cfg, addr)?;
                let v = self.read_ri(bank, cfg, *src, *width)?;
                let nbytes = u64::from(width / 8);
                let ok = self.mem_layout.in_bounds(bank, a, nbytes);
                let oob = bank.mk_not(ok);
                succs.push(cfg.to_error(bank, ErrorKind::OutOfBounds, oob));
                next.assume(bank, ok);
                next.mem = write_bytes(bank, cfg.mem, a, v);
                succs.push(next);
            }
            VxInstr::Alu { op, dst, lhs, rhs } => {
                let w = dst.width();
                let l = self.read_ri(bank, cfg, *lhs, w)?;
                let r = self.read_ri(bank, cfg, *rhs, w)?;
                let f = bank.mk_false();
                let (res, cf, of) = match op {
                    AluOp::Add => {
                        let res = bank.mk_bvadd(l, r);
                        let (cf, of) = add_flags(bank, l, r, res, w);
                        (res, cf, of)
                    }
                    AluOp::Sub => {
                        let res = bank.mk_bvsub(l, r);
                        let (cf, of) = sub_flags(bank, l, r, res, w);
                        (res, cf, of)
                    }
                    AluOp::Imul => {
                        let res = bank.mk_bvmul(l, r);
                        let ls = bank.mk_sext(l, 2 * w);
                        let rs = bank.mk_sext(r, 2 * w);
                        let wide = bank.mk_bvmul(ls, rs);
                        let res_s = bank.mk_sext(res, 2 * w);
                        let ovf = bank.mk_ne(wide, res_s);
                        (res, ovf, ovf)
                    }
                    AluOp::And => (bank.mk_bvand(l, r), f, f),
                    AluOp::Or => (bank.mk_bvor(l, r), f, f),
                    AluOp::Xor => (bank.mk_bvxor(l, r), f, f),
                    AluOp::Shl => (bank.mk_bvshl(l, r), f, f),
                    AluOp::Shr => (bank.mk_bvlshr(l, r), f, f),
                    AluOp::Sar => (bank.mk_bvashr(l, r), f, f),
                };
                Self::set_flags(bank, &mut next, res, cf, of);
                self.write_reg(bank, &mut next, *dst, res)?;
                succs.push(next);
            }
            VxInstr::Cmp { width, lhs, rhs } => {
                let l = self.read_ri(bank, cfg, *lhs, *width)?;
                let r = self.read_ri(bank, cfg, *rhs, *width)?;
                let res = bank.mk_bvsub(l, r);
                let (cf, of) = sub_flags(bank, l, r, res, *width);
                Self::set_flags(bank, &mut next, res, cf, of);
                succs.push(next);
            }
            VxInstr::Inc { dst, src } => {
                let w = dst.width();
                let v = self.read_reg(bank, cfg, *src)?;
                let one = bank.mk_bv(w, 1);
                let res = bank.mk_bvadd(v, one);
                let (_, of) = add_flags(bank, v, one, res, w);
                let old_cf = cfg.reg("cf")?;
                Self::set_flags(bank, &mut next, res, old_cf, of);
                self.write_reg(bank, &mut next, *dst, res)?;
                succs.push(next);
            }
            VxInstr::Lea { dst, addr } => {
                let a = self.addr_term(bank, cfg, addr)?;
                let v = fit(bank, a, dst.width());
                self.write_reg(bank, &mut next, *dst, v)?;
                succs.push(next);
            }
            VxInstr::Ext { dst, src, signed } => {
                let v = self.read_reg(bank, cfg, *src)?;
                let r = if *signed {
                    bank.mk_sext(v, dst.width())
                } else {
                    bank.mk_zext(v, dst.width())
                };
                self.write_reg(bank, &mut next, *dst, r)?;
                succs.push(next);
            }
            VxInstr::SetCc { cc, dst } => {
                let c = self.cond_term(bank, cfg, *cc)?;
                let one = bank.mk_bv(dst.width(), 1);
                let zero = bank.mk_bv(dst.width(), 0);
                let v = bank.mk_ite(c, one, zero);
                self.write_reg(bank, &mut next, *dst, v)?;
                succs.push(next);
            }
            VxInstr::Div { signed, rem, dst, lhs, rhs } => {
                let w = dst.width();
                let l = self.read_ri(bank, cfg, *lhs, w)?;
                let r = self.read_ri(bank, cfg, *rhs, w)?;
                // #DE on zero divisor.
                let zero = bank.mk_bv(w, 0);
                let div0 = bank.mk_eq(r, zero);
                succs.push(cfg.to_error(bank, ErrorKind::DivByZero, div0));
                let nz = bank.mk_not(div0);
                next.assume(bank, nz);
                if *signed {
                    // #DE on INT_MIN / -1.
                    let int_min = bank.mk_bv(w, 1u128 << (w - 1));
                    let m1 = bank.mk_bv(w, u128::MAX);
                    let a_min = bank.mk_eq(l, int_min);
                    let b_m1 = bank.mk_eq(r, m1);
                    let ovf = bank.mk_and([a_min, b_m1, nz]);
                    succs.push(cfg.to_error(bank, ErrorKind::SignedOverflow, ovf));
                    let no = bank.mk_not(ovf);
                    next.assume(bank, no);
                }
                let res = match (signed, rem) {
                    (false, false) => bank.mk_bvudiv(l, r),
                    (false, true) => bank.mk_bvurem(l, r),
                    (true, false) => bank.mk_bvsdiv(l, r),
                    (true, true) => bank.mk_bvsrem(l, r),
                };
                // div leaves flags undefined; pin them to false.
                let f = bank.mk_false();
                Self::set_flags(bank, &mut next, res, f, f);
                self.write_reg(bank, &mut next, *dst, res)?;
                succs.push(next);
            }
            VxInstr::Call { callee, arg_widths, .. } => {
                let mut args = Vec::with_capacity(arg_widths.len());
                for (i, &w) in arg_widths.iter().enumerate() {
                    let r = Reg::Phys(PhysReg::args()[i], w);
                    args.push(self.read_reg(bank, cfg, r)?);
                }
                let nth =
                    *self.call_ordinals.get(&(block.name.clone(), cfg.loc.index)).ok_or_else(
                        || SemanticsError::Internal { what: "call without ordinal".into() },
                    )?;
                let mut stop = cfg.clone();
                stop.status = Status::AtCall { callee: callee.clone(), nth, args };
                succs.push(stop);
            }
        }
        Ok(succs)
    }

    fn step_term(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        term: &VxTerm,
    ) -> Result<Vec<SymConfig>, SemanticsError> {
        match term {
            VxTerm::Jmp { target } => {
                if self.func.block(target).is_none() {
                    return Err(SemanticsError::UnknownBlock { name: target.clone() });
                }
                let mut next = cfg.clone();
                next.loc = CtrlLoc::block_start(target.clone(), Some(cfg.loc.block.clone()));
                Ok(vec![next])
            }
            VxTerm::CondJmp { cc, then_, else_ } => {
                for t in [then_, else_] {
                    if self.func.block(t).is_none() {
                        return Err(SemanticsError::UnknownBlock { name: t.clone() });
                    }
                }
                let c = self.cond_term(bank, cfg, *cc)?;
                let mut taken = cfg.clone();
                taken.loc = CtrlLoc::block_start(then_.clone(), Some(cfg.loc.block.clone()));
                taken.assume(bank, c);
                let mut fall = cfg.clone();
                fall.loc = CtrlLoc::block_start(else_.clone(), Some(cfg.loc.block.clone()));
                let nc = bank.mk_not(c);
                fall.assume(bank, nc);
                Ok(vec![taken, fall])
            }
            VxTerm::Ud2 => {
                let t = bank.mk_true();
                Ok(vec![cfg.to_error(bank, ErrorKind::Unreachable, t)])
            }
            VxTerm::Ret => {
                let mut done = cfg.clone();
                done.status = Status::Exited {
                    ret: match self.func.ret_width {
                        Some(w) => {
                            let rax = cfg.reg("rax")?;
                            Some(if w == 64 { rax } else { bank.mk_trunc(rax, w) })
                        }
                        None => None,
                    },
                };
                Ok(vec![done])
            }
        }
    }
}

/// Adjusts a term to exactly `width` bits (zero-extending or truncating).
fn fit(bank: &mut TermBank, v: TermId, width: u32) -> TermId {
    let w = bank.width(v);
    match w.cmp(&width) {
        std::cmp::Ordering::Equal => v,
        std::cmp::Ordering::Less => bank.mk_zext(v, width),
        std::cmp::Ordering::Greater => bank.mk_trunc(v, width),
    }
}

/// Helper used by VC generation: the symbolic-state key of a register.
pub fn reg_key(reg: Reg) -> String {
    match reg {
        Reg::Virt(id, w) => format!("%vr{id}_{w}"),
        Reg::Phys(p, _) => p.name64().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use keq_smt::Sort;

    fn mini_func(blocks: Vec<VxBlock>) -> VxFunction {
        VxFunction {
            name: "f".into(),
            num_params: 1,
            param_widths: vec![32],
            ret_width: Some(32),
            blocks,
        }
    }

    fn setup(f: &VxFunction) -> (VxSemantics<'_>, TermBank, SymConfig) {
        let mut bank = TermBank::new();
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let sem = VxSemantics::new(f, MemLayout::new(), BTreeMap::new());
        let cfg = sem.initial_config(&mut bank, &[x], mem);
        (sem, bank, cfg)
    }

    #[test]
    fn copy_from_edi_reads_low_bits() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![VxInstr::Copy { dst: Reg::vr32(0), src: Reg::Phys(PhysReg::Rdi, 32) }],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s = sem.step(&cfg, &mut bank).expect("steps");
        let v = s[0].reg("%vr0_32").expect("written");
        // rdi was zext(x, 64); low 32 bits are x again.
        let x = bank.mk_var("x", Sort::BitVec(32));
        assert_eq!(v, x);
    }

    #[test]
    fn eax_write_zeroes_upper_rax() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![
                VxInstr::MovRI { dst: Reg::Phys(PhysReg::Rax, 64), imm: -1 },
                VxInstr::MovRI { dst: Reg::Phys(PhysReg::Rax, 32), imm: 7 },
            ],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("step 1");
        let s2 = sem.step(&s1[0], &mut bank).expect("step 2");
        let rax = s2[0].reg("rax").expect("rax");
        assert_eq!(bank.as_bv_const(rax), Some((64, 7)), "upper 32 bits zeroed");
    }

    #[test]
    fn ax_write_preserves_upper_rax() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![
                VxInstr::MovRI { dst: Reg::Phys(PhysReg::Rax, 64), imm: 0x1111_2222_3333_4444 },
                VxInstr::MovRI { dst: Reg::Phys(PhysReg::Rax, 16), imm: 0x9999 },
            ],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("step 1");
        let s2 = sem.step(&s1[0], &mut bank).expect("step 2");
        let rax = s2[0].reg("rax").expect("rax");
        assert_eq!(bank.as_bv_const(rax), Some((64, 0x1111_2222_3333_9999)));
    }

    #[test]
    fn sub_then_jae_splits_on_borrow() {
        // The Fig. 2(b) loop-exit pattern: sub; jae.
        let f = mini_func(vec![
            VxBlock {
                name: "BB0".into(),
                instrs: vec![
                    VxInstr::Copy { dst: Reg::vr32(0), src: Reg::Phys(PhysReg::Rdi, 32) },
                    VxInstr::Alu {
                        op: AluOp::Sub,
                        dst: Reg::vr32(1),
                        lhs: RegImm::Reg(Reg::vr32(0)),
                        rhs: RegImm::Imm(10),
                    },
                ],
                term: VxTerm::CondJmp { cc: Cond::Ae, then_: "BB1".into(), else_: "BB2".into() },
            },
            VxBlock { name: "BB1".into(), instrs: vec![], term: VxTerm::Ret },
            VxBlock { name: "BB2".into(), instrs: vec![], term: VxTerm::Ret },
        ]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("copy");
        let s2 = sem.step(&s1[0], &mut bank).expect("sub");
        let s3 = sem.step(&s2[0], &mut bank).expect("condjmp");
        assert_eq!(s3.len(), 2);
        assert_eq!(s3[0].loc.block, "BB1");
        assert_eq!(s3[1].loc.block, "BB2");
        // Path of the taken branch is ¬cf = ¬(x <u 10); prove it matches.
        let x = bank.mk_var("x", Sort::BitVec(32));
        let ten = bank.mk_bv(32, 10);
        let ult = bank.mk_bvult(x, ten);
        let expected = bank.mk_not(ult);
        let mut solver = keq_smt::Solver::new();
        let actual = s3[0].path_term(&mut bank);
        assert!(solver.prove_equiv(&mut bank, &[], actual, expected).is_proved());
    }

    #[test]
    fn ret_truncates_rax_to_ret_width() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![VxInstr::MovRI {
                dst: Reg::Phys(PhysReg::Rax, 64),
                imm: 0xffff_ffff_0000_002a,
            }],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("mov");
        let s2 = sem.step(&s1[0], &mut bank).expect("ret");
        match &s2[0].status {
            Status::Exited { ret: Some(r) } => {
                assert_eq!(bank.as_bv_const(*r), Some((32, 42)));
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn inc_preserves_carry_flag() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![
                // cmp 0, 1 sets cf (borrow).
                VxInstr::Cmp { width: 32, lhs: RegImm::Imm(0), rhs: RegImm::Imm(1) },
                VxInstr::Inc { dst: Reg::vr32(0), src: Reg::Phys(PhysReg::Rdi, 32) },
            ],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("cmp");
        let cf_before = s1[0].reg("cf").expect("cf");
        assert_eq!(bank.as_bool_const(cf_before), Some(true));
        let s2 = sem.step(&s1[0], &mut bank).expect("inc");
        let cf_after = s2[0].reg("cf").expect("cf");
        assert_eq!(bank.as_bool_const(cf_after), Some(true), "inc must not clobber cf");
    }

    #[test]
    fn setcc_materializes_flag() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![
                VxInstr::Cmp { width: 32, lhs: RegImm::Imm(3), rhs: RegImm::Imm(3) },
                VxInstr::SetCc { cc: Cond::E, dst: Reg::Virt(0, 8) },
            ],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("cmp");
        let s2 = sem.step(&s1[0], &mut bank).expect("setcc");
        let v = s2[0].reg("%vr0_8").expect("set");
        assert_eq!(bank.as_bv_const(v), Some((8, 1)));
    }

    #[test]
    fn call_reads_sysv_arg_registers() {
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![VxInstr::Call {
                callee: "g".into(),
                arg_widths: vec![32],
                ret_width: Some(32),
            }],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s = sem.step(&cfg, &mut bank).expect("call");
        match &s[0].status {
            Status::AtCall { callee, nth, args } => {
                assert_eq!(callee, "g");
                assert_eq!(*nth, 0);
                let x = bank.mk_var("x", Sort::BitVec(32));
                assert_eq!(args, &vec![x]);
            }
            other => panic!("expected AtCall, got {other:?}"),
        }
    }

    /// Runs `f` through the concrete driver over `layout` and `globals`.
    fn run(
        f: &VxFunction,
        layout: MemLayout,
        globals: BTreeMap<String, u64>,
        args: &[u128],
    ) -> Outcome {
        VxSemantics::new(f, layout, globals).run(args, 10_000).expect("runs")
    }

    #[test]
    fn rip_relative_store_and_bounds() {
        let mut layout = MemLayout::new();
        layout.add_region("@b", 0x1000, 8);
        let globals = BTreeMap::from([("b".to_owned(), 0x1000u64)]);
        let store = |disp| VxFunction {
            name: "foo".into(),
            num_params: 0,
            param_widths: vec![],
            ret_width: None,
            blocks: vec![VxBlock {
                name: "BB0".into(),
                instrs: vec![VxInstr::Store {
                    width: 16,
                    addr: Addr::global("b", disp),
                    src: RegImm::Imm(0x0201),
                }],
                term: VxTerm::Ret,
            }],
        };
        let Outcome::Returned { ret: None, mem } =
            run(&store(2), layout.clone(), globals.clone(), &[])
        else {
            panic!("store at b+2 runs");
        };
        assert_eq!((mem.read(0x1002), mem.read(0x1003)), (0x01, 0x02));
        // A 2-byte store at b+7 ends past the region.
        let oob = run(&store(7), layout, globals, &[]);
        assert_eq!(oob, Outcome::Error(ErrorKind::OutOfBounds));
    }

    #[test]
    fn loop_with_phi_and_flags() {
        // Sums 0..n: BB0 zeroes the sum (vr0) and the counter (vr1); BB1
        // joins them with phis and leaves once the counter reaches n; BB2
        // adds and increments.
        let phi = |dst, entry, back| VxInstr::Phi {
            dst: Reg::vr32(dst),
            incomings: vec![(Reg::vr32(entry), "BB0".into()), (Reg::vr32(back), "BB2".into())],
        };
        let f = mini_func(vec![
            VxBlock {
                name: "BB0".into(),
                instrs: vec![
                    VxInstr::MovRI { dst: Reg::vr32(0), imm: 0 },
                    VxInstr::MovRI { dst: Reg::vr32(1), imm: 0 },
                    VxInstr::Copy { dst: Reg::vr32(5), src: Reg::Phys(PhysReg::Rdi, 32) },
                ],
                term: VxTerm::Jmp { target: "BB1".into() },
            },
            VxBlock {
                name: "BB1".into(),
                instrs: vec![
                    phi(2, 0, 4),
                    phi(3, 1, 6),
                    VxInstr::Cmp {
                        width: 32,
                        lhs: RegImm::Reg(Reg::vr32(3)),
                        rhs: RegImm::Reg(Reg::vr32(5)),
                    },
                ],
                term: VxTerm::CondJmp { cc: Cond::Ae, then_: "BB3".into(), else_: "BB2".into() },
            },
            VxBlock {
                name: "BB2".into(),
                instrs: vec![
                    VxInstr::Alu {
                        op: AluOp::Add,
                        dst: Reg::vr32(4),
                        lhs: RegImm::Reg(Reg::vr32(2)),
                        rhs: RegImm::Reg(Reg::vr32(3)),
                    },
                    VxInstr::Inc { dst: Reg::vr32(6), src: Reg::vr32(3) },
                ],
                term: VxTerm::Jmp { target: "BB1".into() },
            },
            VxBlock {
                name: "BB3".into(),
                instrs: vec![VxInstr::Copy { dst: Reg::Phys(PhysReg::Rax, 32), src: Reg::vr32(2) }],
                term: VxTerm::Ret,
            },
        ]);
        let out = run(&f, MemLayout::new(), BTreeMap::new(), &[5]);
        assert!(matches!(out, Outcome::Returned { ret: Some(10), .. }), "{out:?}");
    }

    #[test]
    fn call_result_lands_in_eax() {
        // A 32-bit result zeroes the upper half of rax, like any 32-bit
        // write.
        let f = VxFunction {
            ret_width: Some(64),
            ..mini_func(vec![VxBlock {
                name: "BB0".into(),
                instrs: vec![
                    VxInstr::MovRI { dst: Reg::Phys(PhysReg::Rax, 64), imm: -1 },
                    VxInstr::Call { callee: "g".into(), arg_widths: vec![32], ret_width: Some(32) },
                ],
                term: VxTerm::Ret,
            }])
        };
        let want = keq_semantics::default_ext_call("g", &[9]) & 0xffff_ffff;
        let out = run(&f, MemLayout::new(), BTreeMap::new(), &[9]);
        assert!(matches!(out, Outcome::Returned { ret: Some(r), .. } if r == want), "{out:?}");
    }

    #[test]
    fn byte_write_into_an_unwritten_register() {
        // The allocator can put an 8-bit value in `al` before anything
        // wrote `rax`. The merge reads the old `rax`: a bare initial
        // configuration has none, and a concrete run starts it at zero.
        let f = mini_func(vec![VxBlock {
            name: "BB0".into(),
            instrs: vec![
                VxInstr::Cmp { width: 32, lhs: RegImm::Imm(1), rhs: RegImm::Imm(2) },
                VxInstr::SetCc { cc: Cond::B, dst: Reg::Phys(PhysReg::Rax, 8) },
                VxInstr::Ext {
                    dst: Reg::Phys(PhysReg::Rax, 32),
                    src: Reg::Phys(PhysReg::Rax, 8),
                    signed: false,
                },
            ],
            term: VxTerm::Ret,
        }]);
        let (sem, mut bank, cfg) = setup(&f);
        let s1 = sem.step(&cfg, &mut bank).expect("cmp");
        let err = sem.step(&s1[0], &mut bank).expect_err("rax is unwritten");
        assert_eq!(err, SemanticsError::UnknownRegister { name: "rax".into() });
        let out = run(&f, MemLayout::new(), BTreeMap::new(), &[0]);
        assert!(matches!(out, Outcome::Returned { ret: Some(1), .. }), "{out:?}");
    }
}
