//! The Instruction Selection pass: LLVM IR → Virtual x86.
//!
//! An O0-style selector in the spirit of LLVM's SDISel (paper §4.1):
//! per-block lowering, PHI preservation with constant materialization in
//! predecessors (exactly the `%vr9_32 = mov 1` of Fig. 2(b)), icmp/condbr
//! fusion into `sub`/`cmp` + `jcc`, and the SysV calling convention.
//!
//! Two optional optimizations host the paper's §5.2 bug studies:
//!
//! * **store merging** — adjacent narrow constant stores to a global are
//!   merged into wider stores; the injected bug variant merges an *earlier*
//!   store past an overlapping later one, violating a write-after-write
//!   dependency (Fig. 8/9, LLVM PR25154);
//! * **load narrowing** — a `load iN; lshr C; trunc iM` chain over a
//!   non-power-of-two type becomes a narrow load at an offset; the injected
//!   bug variant loads `M` bits even when fewer remain, reading out of
//!   bounds (Fig. 10/11, LLVM PR4737).
//!
//! Alongside the translation, the pass emits the *hints* of §4.5 — the
//! virtual-register correspondence, the block map, the phi-constant
//! registers and the call locations — consumed by the synchronization-point
//! generator. The hint surface is deliberately tiny, mirroring the paper's
//! ~500-line hint generator.

use std::collections::{BTreeMap, HashMap};

use keq_llvm::ast::{
    BinOp, CastKind, ConstExpr, Function, IcmpPred, Instr, Module, Operand, Terminator,
};
use keq_llvm::layout::Layout;
use keq_llvm::types::Type;
use keq_vx86::ast::{
    Addr, AluOp, Cond, PhysReg, Reg, RegImm, VxBlock, VxFunction, VxInstr, VxTerm,
};

/// Which known miscompilation to re-introduce (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BugInjection {
    /// Correct compiler.
    #[default]
    None,
    /// The write-after-write store-merging violation (Fig. 8/9).
    WawStoreMerge,
    /// The out-of-bounds load narrowing (Fig. 10/11).
    LoadNarrowing,
}

/// Options controlling the pass.
#[derive(Debug, Clone, Copy)]
pub struct IselOptions {
    /// Bug to inject.
    pub bug: BugInjection,
    /// Enable the store-merging optimization.
    pub merge_stores: bool,
    /// Enable the load-narrowing optimization.
    pub narrow_loads: bool,
}

impl Default for IselOptions {
    fn default() -> Self {
        IselOptions { bug: BugInjection::None, merge_stores: true, narrow_loads: true }
    }
}

/// Errors raised for programs outside the supported fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IselError {
    /// What was unsupported or malformed.
    pub message: String,
}

impl std::fmt::Display for IselError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "instruction selection failed: {}", self.message)
    }
}

impl std::error::Error for IselError {}

/// The compiler-generated hints of §4.5.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hints {
    /// LLVM local → Virtual x86 register.
    pub reg_map: BTreeMap<String, Reg>,
    /// LLVM block → Virtual x86 block.
    pub block_map: BTreeMap<String, String>,
    /// `(phi destination, predecessor)` → register holding the materialized
    /// constant incoming value.
    pub phi_const_regs: BTreeMap<(String, String), (i128, Reg)>,
    /// Parameters: `(local, width, argument register)`.
    pub params: Vec<(String, u32, PhysReg)>,
    /// Virtual x86 block and instruction index of each call, in source
    /// order, as lowered (before `merge_stores` runs).
    pub call_sites: Vec<(String, usize)>,
}

/// Result of instruction selection.
#[derive(Debug, Clone)]
pub struct IselOutput {
    /// The translated function.
    pub func: VxFunction,
    /// Hints for the VC generator.
    pub hints: Hints,
}

/// The register width used on the x86 side for an LLVM type (i1 lives in a
/// byte register).
pub fn x86_width(ty: &Type) -> Result<u32, IselError> {
    let bits = match ty {
        Type::Int(1) => 8,
        Type::Int(w) if [8, 16, 32, 64].contains(w) => *w,
        Type::Ptr(_) => 64,
        other => {
            return Err(IselError {
                message: format!("type {other} not supported in registers"),
            })
        }
    };
    Ok(bits)
}

/// The result type of an instruction, if it defines a value.
pub fn result_type(instr: &Instr) -> Option<Type> {
    match instr {
        Instr::Bin { ty, .. } | Instr::Phi { ty, .. } | Instr::Load { ty, .. } => {
            Some(ty.clone())
        }
        Instr::Icmp { .. } => Some(Type::I1),
        Instr::Alloca { .. } | Instr::Gep { .. } => Some(Type::I8.ptr_to()),
        Instr::Cast { to_ty, .. } => Some(to_ty.clone()),
        Instr::Call { dst: Some(_), ret_ty, .. } => Some(ret_ty.clone()),
        _ => None,
    }
}

/// Runs instruction selection on `func`.
///
/// # Errors
///
/// Returns [`IselError`] when the function uses features outside the
/// supported fragment (mirroring the paper's unsupported-function bucket).
pub fn select(
    module: &Module,
    func: &Function,
    layout: &Layout,
    opts: IselOptions,
) -> Result<IselOutput, IselError> {
    let _ = module;
    let mut lw = Lowerer {
        func,
        layout,
        opts,
        next_vr: 0,
        hints: Hints::default(),
        pending_consts: BTreeMap::new(),
        use_counts: count_uses(func),
    };
    lw.run()
}

struct Lowerer<'a> {
    func: &'a Function,
    layout: &'a Layout,
    opts: IselOptions,
    next_vr: u32,
    hints: Hints,
    /// Constant materializations to append to a predecessor block.
    pending_consts: BTreeMap<String, Vec<VxInstr>>,
    use_counts: HashMap<String, usize>,
}

impl Lowerer<'_> {
    fn fresh(&mut self, width: u32) -> Reg {
        let r = Reg::Virt(self.next_vr, width);
        self.next_vr += 1;
        r
    }

    fn vreg_of(&mut self, local: &str, ty: &Type) -> Result<Reg, IselError> {
        if let Some(&r) = self.hints.reg_map.get(local) {
            return Ok(r);
        }
        let r = self.fresh(x86_width(ty)?);
        self.hints.reg_map.insert(local.to_owned(), r);
        Ok(r)
    }

    fn existing_reg(&self, local: &str) -> Result<Reg, IselError> {
        self.hints
            .reg_map
            .get(local)
            .copied()
            .ok_or_else(|| IselError { message: format!("local {local} has no register") })
    }

    fn vx_block_name(&self, llvm_block: &str) -> String {
        self.hints.block_map.get(llvm_block).cloned().unwrap_or_else(|| llvm_block.to_owned())
    }

    /// Locals consumed by the load-narrowing pattern (they are never
    /// assigned registers; see [`Lowerer::try_narrow_load`]).
    fn narrowed_locals(&self) -> std::collections::HashSet<String> {
        let mut skip = std::collections::HashSet::new();
        if !self.opts.narrow_loads {
            return skip;
        }
        for b in &self.func.blocks {
            for win in b.instrs.windows(3) {
                if let [Instr::Load { dst: v, ty, .. }, Instr::Bin { op: BinOp::Lshr, dst: s, lhs, .. }, Instr::Cast { kind: CastKind::Trunc, val, .. }] =
                    win
                {
                    let wide = ty.int_width().is_some_and(|n| n > 64);
                    let chained = matches!(lhs, Operand::Local(l) if l == v)
                        && matches!(val, Operand::Local(l) if l == s);
                    if wide && chained {
                        skip.insert(v.clone());
                        skip.insert(s.clone());
                    }
                }
            }
        }
        skip
    }

    fn run(&mut self) -> Result<IselOutput, IselError> {
        // Block name mapping (entry is LBB0 etc., as in the paper).
        for (i, b) in self.func.blocks.iter().enumerate() {
            self.hints.block_map.insert(b.name.clone(), format!("LBB{i}"));
        }
        let ret_width = match &self.func.ret_ty {
            Type::Void => None,
            ty => Some(x86_width(ty)?),
        };
        // Pre-assign registers for parameters and phi destinations so
        // forward references resolve.
        let params: Vec<(String, Type)> = self.func.params.clone();
        for (i, (name, ty)) in params.iter().enumerate() {
            if i >= 6 {
                return Err(IselError { message: "more than 6 arguments".into() });
            }
            let r = self.vreg_of(name, ty)?;
            self.hints.params.push((name.clone(), r.width(), PhysReg::args()[i]));
        }
        // SSA definitions may be referenced before their defining block is
        // lowered (dominance is not layout order), so assign every
        // destination its register up front. The narrowed locals of the
        // load-narrowing pattern are skipped (they never get registers).
        let narrowed = self.narrowed_locals();
        for b in &self.func.blocks {
            for instr in &b.instrs {
                if let Some(dst) = instr.dst() {
                    if narrowed.contains(dst) {
                        continue;
                    }
                    let ty = result_type(instr).ok_or_else(|| IselError {
                        message: format!("no result type for {dst}"),
                    })?;
                    let _ = self.vreg_of(dst, &ty)?;
                }
            }
        }
        let mut blocks = Vec::with_capacity(self.func.blocks.len());
        for (i, b) in self.func.blocks.iter().enumerate() {
            let mut out = VxBlock {
                name: self.vx_block_name(&b.name),
                instrs: Vec::new(),
                term: VxTerm::Ret, // replaced below
            };
            if i == 0 {
                // Prologue: copy parameters out of the argument registers.
                for (p, (name, _)) in self.hints.params.clone().iter().zip(params.iter()) {
                    let dst = self.existing_reg(name)?;
                    out.instrs.push(VxInstr::Copy {
                        dst,
                        src: Reg::Phys(p.2, dst.width()),
                    });
                }
            }
            self.lower_block(b, &mut out)?;
            blocks.push(out);
        }
        // Splice pending constant materializations before terminators.
        for (llvm_pred, instrs) in std::mem::take(&mut self.pending_consts) {
            let vx_name = self.vx_block_name(&llvm_pred);
            let blk = blocks
                .iter_mut()
                .find(|b| b.name == vx_name)
                .ok_or_else(|| IselError { message: format!("missing block {vx_name}") })?;
            blk.instrs.extend(instrs);
        }
        let mut func = VxFunction {
            name: self.func.name.clone(),
            num_params: params.len(),
            param_widths: self
                .hints
                .params
                .iter()
                .map(|(_, w, _)| *w)
                .collect(),
            ret_width,
            blocks,
        };
        if self.opts.merge_stores {
            let buggy = self.opts.bug == BugInjection::WawStoreMerge;
            for b in &mut func.blocks {
                merge_stores(&mut b.instrs, buggy);
            }
        }
        Ok(IselOutput { func, hints: std::mem::take(&mut self.hints) })
    }

    fn lower_block(
        &mut self,
        b: &keq_llvm::ast::Block,
        out: &mut VxBlock,
    ) -> Result<(), IselError> {
        let mut i = 0;
        while i < b.instrs.len() {
            // Load-narrowing pattern: load iN; lshr C; trunc iM.
            if let Some(consumed) = self.try_narrow_load(b, i, out)? {
                i += consumed;
                continue;
            }
            let instr = &b.instrs[i];
            // icmp fused into the terminator?
            if let (Instr::Icmp { dst, .. }, Terminator::CondBr { cond, .. }) =
                (instr, &b.term)
            {
                let fused = matches!(cond, Operand::Local(c) if c == dst)
                    && self.use_counts.get(dst).copied() == Some(1)
                    && i == b.instrs.len() - 1;
                if fused {
                    self.lower_fused_icmp_br(b, instr, out)?;
                    return Ok(()); // terminator handled
                }
            }
            self.lower_instr(instr, out)?;
            i += 1;
        }
        self.lower_terminator(&b.term, out)?;
        Ok(())
    }

    /// Lowers `load iN; lshr K; trunc iM` (N > 64) into a narrow load.
    ///
    /// Returns the number of consumed instructions, or `None` when the
    /// pattern does not apply at `i`.
    fn try_narrow_load(
        &mut self,
        b: &keq_llvm::ast::Block,
        i: usize,
        out: &mut VxBlock,
    ) -> Result<Option<usize>, IselError> {
        let [Instr::Load { dst: v, ty, ptr }, rest @ ..] = &b.instrs[i..] else {
            return Ok(None);
        };
        let Some(n) = ty.int_width() else { return Ok(None) };
        if n <= 64 {
            return Ok(None);
        }
        // Wide loads are only supported through this pattern.
        let [Instr::Bin { op: BinOp::Lshr, dst: s, lhs, rhs: Operand::Const(k), .. }, Instr::Cast { kind: CastKind::Trunc, dst: t, to_ty, val, .. }, ..] =
            rest
        else {
            return Err(IselError { message: format!("wide load of {ty} outside narrowing pattern") });
        };
        let pattern_ok = self.opts.narrow_loads
            && matches!(lhs, Operand::Local(l) if l == v)
            && matches!(val, Operand::Local(l) if l == s)
            && self.use_counts.get(v).copied() == Some(1)
            && self.use_counts.get(s).copied() == Some(1)
            && *k >= 0
            && *k % 8 == 0;
        if !pattern_ok {
            return Err(IselError { message: format!("wide load of {ty} outside narrowing pattern") });
        }
        let m = to_ty
            .int_width()
            .filter(|m| *m <= 64 && *m % 8 == 0)
            .ok_or_else(|| IselError { message: "narrowing to unsupported width".into() })?;
        let k = *k as u32;
        if k >= n {
            return Err(IselError { message: "shift amount exceeds load width".into() });
        }
        let avail = n - k;
        // The correct narrow width is what actually remains of the source
        // object; the injected bug loads the full destination width, which
        // reads past the object when avail < m (Fig. 11(b)).
        let load_bits = if self.opts.bug == BugInjection::LoadNarrowing {
            m
        } else {
            m.min(avail).div_ceil(8) * 8
        };
        let addr = self.addr_of_operand(ptr, out)?;
        let addr = Addr { disp: addr.disp + i64::from(k / 8), ..addr };
        let dst = self.vreg_of(t, to_ty)?;
        out.instrs.push(VxInstr::Load { dst, width: load_bits, addr, zext: true });
        Ok(Some(3))
    }

    fn lower_fused_icmp_br(
        &mut self,
        b: &keq_llvm::ast::Block,
        icmp: &Instr,
        out: &mut VxBlock,
    ) -> Result<(), IselError> {
        let Instr::Icmp { pred, ty, lhs, rhs, .. } = icmp else {
            unreachable!("caller checked");
        };
        let Terminator::CondBr { then_, else_, .. } = &b.term else {
            unreachable!("caller checked");
        };
        let w = x86_width(ty)?;
        let l = self.operand_ri(lhs, ty)?;
        let r = self.operand_ri(rhs, ty)?;
        // Fig. 2(b) uses `sub` into a fresh vreg rather than `cmp`.
        let scratch = self.fresh(w);
        out.instrs.push(VxInstr::Alu { op: AluOp::Sub, dst: scratch, lhs: l, rhs: r });
        out.term = VxTerm::CondJmp {
            cc: cc_of(*pred).negate(),
            then_: self.vx_block_name(else_),
            else_: self.vx_block_name(then_),
        };
        Ok(())
    }

    fn lower_instr(&mut self, instr: &Instr, out: &mut VxBlock) -> Result<(), IselError> {
        match instr {
            Instr::Bin { op, ty, dst, lhs, rhs, .. } => {
                let l = self.operand_ri(lhs, ty)?;
                let r = self.operand_ri(rhs, ty)?;
                let d = self.vreg_of(dst, ty)?;
                let vx = match op {
                    BinOp::Add => VxInstr::Alu { op: AluOp::Add, dst: d, lhs: l, rhs: r },
                    BinOp::Sub => VxInstr::Alu { op: AluOp::Sub, dst: d, lhs: l, rhs: r },
                    BinOp::Mul => VxInstr::Alu { op: AluOp::Imul, dst: d, lhs: l, rhs: r },
                    BinOp::And => VxInstr::Alu { op: AluOp::And, dst: d, lhs: l, rhs: r },
                    BinOp::Or => VxInstr::Alu { op: AluOp::Or, dst: d, lhs: l, rhs: r },
                    BinOp::Xor => VxInstr::Alu { op: AluOp::Xor, dst: d, lhs: l, rhs: r },
                    BinOp::Shl => VxInstr::Alu { op: AluOp::Shl, dst: d, lhs: l, rhs: r },
                    BinOp::Lshr => VxInstr::Alu { op: AluOp::Shr, dst: d, lhs: l, rhs: r },
                    BinOp::Ashr => VxInstr::Alu { op: AluOp::Sar, dst: d, lhs: l, rhs: r },
                    BinOp::Udiv => {
                        VxInstr::Div { signed: false, rem: false, dst: d, lhs: l, rhs: r }
                    }
                    BinOp::Urem => {
                        VxInstr::Div { signed: false, rem: true, dst: d, lhs: l, rhs: r }
                    }
                    BinOp::Sdiv => {
                        VxInstr::Div { signed: true, rem: false, dst: d, lhs: l, rhs: r }
                    }
                    BinOp::Srem => {
                        VxInstr::Div { signed: true, rem: true, dst: d, lhs: l, rhs: r }
                    }
                };
                out.instrs.push(vx);
            }
            Instr::Icmp { pred, ty, dst, lhs, rhs } => {
                let w = x86_width(ty)?;
                let l = self.operand_ri(lhs, ty)?;
                let r = self.operand_ri(rhs, ty)?;
                out.instrs.push(VxInstr::Cmp { width: w, lhs: l, rhs: r });
                let d = self.vreg_of(dst, &Type::I1)?;
                out.instrs.push(VxInstr::SetCc { cc: cc_of(*pred), dst: d });
            }
            Instr::Phi { dst, ty, incomings } => {
                let d = self.existing_reg(dst)?;
                let mut pairs = Vec::with_capacity(incomings.len());
                for (op, pred) in incomings {
                    let src = match op {
                        Operand::Local(l) => self.existing_reg(l)?,
                        Operand::Const(c) => {
                            let r = self.fresh(x86_width(ty)?);
                            self.pending_consts
                                .entry(pred.clone())
                                .or_default()
                                .push(VxInstr::MovRI { dst: r, imm: *c });
                            self.hints
                                .phi_const_regs
                                .insert((dst.clone(), pred.clone()), (*c, r));
                            r
                        }
                        Operand::Global(g) => {
                            let addr = self.global_addr(g)?;
                            let r = self.fresh(64);
                            self.pending_consts
                                .entry(pred.clone())
                                .or_default()
                                .push(VxInstr::MovRI { dst: r, imm: addr as i128 });
                            self.hints
                                .phi_const_regs
                                .insert((dst.clone(), pred.clone()), (addr as i128, r));
                            r
                        }
                        other => {
                            return Err(IselError {
                                message: format!("unsupported phi incoming {other}"),
                            })
                        }
                    };
                    pairs.push((src, self.vx_block_name(pred)));
                }
                out.instrs.push(VxInstr::Phi { dst: d, incomings: pairs });
            }
            Instr::Load { dst, ty, ptr } => {
                let w = ty.store_bytes() as u32 * 8;
                if w > 64 {
                    return Err(IselError {
                        message: format!("wide load of {ty} outside narrowing pattern"),
                    });
                }
                let addr = self.addr_of_operand(ptr, out)?;
                let d = self.vreg_of(dst, ty)?;
                out.instrs.push(VxInstr::Load { dst: d, width: w, addr, zext: false });
            }
            Instr::Store { ty, val, ptr } => {
                let w = ty.store_bytes() as u32 * 8;
                if w > 64 {
                    return Err(IselError { message: format!("wide store of {ty}") });
                }
                let addr = self.addr_of_operand(ptr, out)?;
                let src = self.operand_ri(val, ty)?;
                out.instrs.push(VxInstr::Store { width: w, addr, src });
            }
            Instr::Alloca { dst, .. } => {
                let a = self
                    .layout
                    .alloca_addr(dst)
                    .ok_or_else(|| IselError { message: format!("alloca {dst} unplaced") })?;
                let d = self.vreg_of(dst, &Type::I8.ptr_to())?;
                out.instrs.push(VxInstr::MovRI { dst: d, imm: a as i128 });
            }
            Instr::Gep { dst, base_ty, ptr, indices } => {
                self.lower_gep(dst, base_ty, ptr, indices, out)?;
            }
            Instr::Cast { kind, dst, from_ty, val, to_ty } => {
                self.lower_cast(*kind, dst, from_ty, val, to_ty, out)?;
            }
            Instr::Call { dst, ret_ty, callee, args } => {
                if args.len() > 6 {
                    return Err(IselError { message: "more than 6 call arguments".into() });
                }
                let mut widths = Vec::with_capacity(args.len());
                for (i, (ty, a)) in args.iter().enumerate() {
                    let w = x86_width(ty)?;
                    widths.push(w);
                    let dst = Reg::Phys(PhysReg::args()[i], w.max(32));
                    match self.operand_ri(a, ty)? {
                        RegImm::Reg(r) => out.instrs.push(VxInstr::Copy { dst, src: r }),
                        RegImm::Imm(c) => out.instrs.push(VxInstr::MovRI { dst, imm: c }),
                    }
                }
                let ret_width = match ret_ty {
                    Type::Void => None,
                    ty => Some(x86_width(ty)?),
                };
                self.hints.call_sites.push((out.name.clone(), out.instrs.len()));
                out.instrs.push(VxInstr::Call {
                    callee: callee.clone(),
                    arg_widths: widths,
                    ret_width,
                });
                if let (Some(d), Some(w)) = (dst, ret_width) {
                    let dr = self.vreg_of(d, ret_ty)?;
                    out.instrs.push(VxInstr::Copy { dst: dr, src: Reg::Phys(PhysReg::Rax, w) });
                }
            }
        }
        Ok(())
    }

    fn lower_gep(
        &mut self,
        dst: &str,
        base_ty: &Type,
        ptr: &Operand,
        indices: &[(Type, Operand)],
        out: &mut VxBlock,
    ) -> Result<(), IselError> {
        let mut cur = self.pointer_reg(ptr, out)?;
        let mut disp: i64 = 0;
        let mut cur_ty = base_ty.clone();
        for (k, (_ity, idx)) in indices.iter().enumerate() {
            let elem_size = if k == 0 {
                cur_ty.store_bytes()
            } else {
                match cur_ty.clone() {
                    Type::Array(_, elem) => {
                        let s = elem.store_bytes();
                        cur_ty = *elem;
                        s
                    }
                    Type::Struct(fields) => {
                        let Operand::Const(c) = idx else {
                            return Err(IselError {
                                message: "symbolic struct index".into(),
                            });
                        };
                        let fi = *c as usize;
                        if fi >= fields.len() {
                            return Err(IselError { message: "struct index out of range".into() });
                        }
                        disp += cur_ty.field_offset(fi) as i64;
                        cur_ty = fields[fi].clone();
                        continue;
                    }
                    other => {
                        return Err(IselError {
                            message: format!("gep into non-aggregate {other}"),
                        })
                    }
                }
            };
            match idx {
                Operand::Const(c) => {
                    disp += *c as i64 * elem_size as i64;
                }
                Operand::Local(l) => {
                    let iv = self.existing_reg(l)?;
                    let iv64 = if iv.width() < 64 {
                        let wide = self.fresh(64);
                        out.instrs.push(VxInstr::Ext { dst: wide, src: iv, signed: true });
                        wide
                    } else {
                        iv
                    };
                    let scaled = self.fresh(64);
                    out.instrs.push(VxInstr::Alu {
                        op: AluOp::Imul,
                        dst: scaled,
                        lhs: RegImm::Reg(iv64),
                        rhs: RegImm::Imm(elem_size as i128),
                    });
                    let sum = self.fresh(64);
                    out.instrs.push(VxInstr::Alu {
                        op: AluOp::Add,
                        dst: sum,
                        lhs: RegImm::Reg(cur),
                        rhs: RegImm::Reg(scaled),
                    });
                    cur = sum;
                }
                other => {
                    return Err(IselError { message: format!("unsupported gep index {other}") })
                }
            }
        }
        let d = self.vreg_of(dst, &Type::I8.ptr_to())?;
        out.instrs.push(VxInstr::Lea { dst: d, addr: Addr::base_disp(cur, disp) });
        Ok(())
    }

    fn lower_cast(
        &mut self,
        kind: CastKind,
        dst: &str,
        from_ty: &Type,
        val: &Operand,
        to_ty: &Type,
        out: &mut VxBlock,
    ) -> Result<(), IselError> {
        let d = self.vreg_of(dst, to_ty)?;
        let src = match self.operand_ri(val, from_ty)? {
            RegImm::Reg(r) => r,
            RegImm::Imm(c) => {
                let r = self.fresh(x86_width(from_ty)?);
                out.instrs.push(VxInstr::MovRI { dst: r, imm: c });
                r
            }
        };
        match kind {
            CastKind::Zext => {
                if src.width() == d.width() {
                    out.instrs.push(VxInstr::Copy { dst: d, src });
                } else {
                    out.instrs.push(VxInstr::Ext { dst: d, src, signed: false });
                }
            }
            CastKind::Sext => {
                if *from_ty == Type::I1 {
                    // i1 sign-extension: 0 → 0, 1 → -1. The byte register
                    // holds 0/1, so compute 0 - x at the target width.
                    let wide = self.fresh(d.width());
                    out.instrs.push(VxInstr::Ext { dst: wide, src, signed: false });
                    out.instrs.push(VxInstr::Alu {
                        op: AluOp::Sub,
                        dst: d,
                        lhs: RegImm::Imm(0),
                        rhs: RegImm::Reg(wide),
                    });
                } else if src.width() == d.width() {
                    out.instrs.push(VxInstr::Copy { dst: d, src });
                } else {
                    out.instrs.push(VxInstr::Ext { dst: d, src, signed: true });
                }
            }
            CastKind::Trunc => {
                out.instrs.push(VxInstr::Copy { dst: d, src });
                if *to_ty == Type::I1 {
                    // Keep only the semantically defined bit.
                    let masked = self.fresh(8);
                    out.instrs.push(VxInstr::Alu {
                        op: AluOp::And,
                        dst: masked,
                        lhs: RegImm::Reg(d),
                        rhs: RegImm::Imm(1),
                    });
                    self.hints.reg_map.insert(dst.to_owned(), masked);
                }
            }
            CastKind::Bitcast | CastKind::IntToPtr | CastKind::PtrToInt => {
                out.instrs.push(VxInstr::Copy { dst: d, src });
            }
        }
        Ok(())
    }

    fn lower_terminator(
        &mut self,
        term: &Terminator,
        out: &mut VxBlock,
    ) -> Result<(), IselError> {
        out.term = match term {
            Terminator::Br { target } => VxTerm::Jmp { target: self.vx_block_name(target) },
            Terminator::CondBr { cond, then_, else_ } => {
                // General (non-fused) conditional branch on an i1 value:
                // compare the byte register against zero and branch.
                match self.operand_ri(cond, &Type::I1)? {
                    RegImm::Reg(r) => {
                        out.instrs.push(VxInstr::Cmp {
                            width: 8,
                            lhs: RegImm::Reg(r),
                            rhs: RegImm::Imm(0),
                        });
                        VxTerm::CondJmp {
                            cc: Cond::Ne,
                            then_: self.vx_block_name(then_),
                            else_: self.vx_block_name(else_),
                        }
                    }
                    RegImm::Imm(c) => {
                        let target = if c & 1 == 1 { then_ } else { else_ };
                        VxTerm::Jmp { target: self.vx_block_name(target) }
                    }
                }
            }
            Terminator::Ret { val } => {
                if let Some((ty, v)) = val {
                    let w = x86_width(ty)?;
                    match self.operand_ri(v, ty)? {
                        RegImm::Reg(r) => out.instrs.push(VxInstr::Copy {
                            dst: Reg::Phys(PhysReg::Rax, w.max(32)),
                            src: r,
                        }),
                        RegImm::Imm(c) => out.instrs.push(VxInstr::MovRI {
                            dst: Reg::Phys(PhysReg::Rax, w.max(32)),
                            imm: c,
                        }),
                    }
                }
                VxTerm::Ret
            }
            Terminator::Unreachable => VxTerm::Ud2,
        };
        Ok(())
    }

    /// Resolves an operand into a register-or-immediate, materializing
    /// globals as address constants.
    fn operand_ri(&mut self, op: &Operand, _ty: &Type) -> Result<RegImm, IselError> {
        Ok(match op {
            Operand::Local(l) => RegImm::Reg(self.existing_reg(l)?),
            Operand::Const(c) => RegImm::Imm(*c),
            Operand::Null => RegImm::Imm(0),
            Operand::Global(g) => RegImm::Imm(self.global_addr(g)? as i128),
            Operand::Expr(e) => match &**e {
                ConstExpr::Bitcast { from_ty, value, .. } => self.operand_ri(value, from_ty)?,
                ConstExpr::Gep { .. } => RegImm::Imm(self.const_gep_addr(op)? as i128),
            },
        })
    }

    fn global_addr(&self, g: &str) -> Result<u64, IselError> {
        self.layout
            .global_addr(g)
            .ok_or_else(|| IselError { message: format!("unknown global @{g}") })
    }

    /// Fully-constant GEP expression → absolute address.
    fn const_gep_addr(&self, op: &Operand) -> Result<u64, IselError> {
        match op {
            Operand::Global(g) => self.global_addr(g),
            Operand::Expr(e) => match &**e {
                ConstExpr::Bitcast { value, .. } => self.const_gep_addr(value),
                ConstExpr::Gep { base_ty, base, indices } => {
                    let base_addr = self.const_gep_addr(base)?;
                    let regs = HashMap::new();
                    keq_llvm::interp::gep_address(base_addr, base_ty, indices, &regs, self.layout)
                        .map_err(|t| IselError { message: t.to_string() })
                }
            },
            other => Err(IselError { message: format!("not a constant address: {other}") }),
        }
    }

    /// Resolves a pointer operand into an address expression.
    #[allow(clippy::only_used_in_recursion)] // `out` is the emission point for non-foldable GEPs
    fn addr_of_operand(&mut self, op: &Operand, out: &mut VxBlock) -> Result<Addr, IselError> {
        match op {
            Operand::Global(g) => Ok(Addr::global(g.clone(), 0)),
            Operand::Local(l) => Ok(Addr::base_disp(self.existing_reg(l)?, 0)),
            Operand::Null => Ok(Addr::absolute(0)),
            Operand::Expr(e) => match &**e {
                ConstExpr::Bitcast { value, .. } => self.addr_of_operand(value, out),
                ConstExpr::Gep { base_ty, base, indices } => {
                    // Constant indices fold into a displacement off the base.
                    let mut all_const = true;
                    for (_, idx) in indices {
                        if !matches!(idx, Operand::Const(_)) {
                            all_const = false;
                        }
                    }
                    if all_const {
                        let inner = self.addr_of_operand(base, out)?;
                        let regs = HashMap::new();
                        let off = keq_llvm::interp::gep_address(
                            0, base_ty, indices, &regs, self.layout,
                        )
                        .map_err(|t| IselError { message: t.to_string() })?;
                        Ok(Addr { disp: inner.disp + off as i64, ..inner })
                    } else {
                        Err(IselError { message: "symbolic constant-gep operand".into() })
                    }
                }
            },
            other => Err(IselError { message: format!("bad pointer operand {other}") }),
        }
    }

    /// Resolves a pointer operand into a 64-bit register.
    fn pointer_reg(&mut self, op: &Operand, out: &mut VxBlock) -> Result<Reg, IselError> {
        match self.operand_ri(op, &Type::I8.ptr_to())? {
            RegImm::Reg(r) => Ok(r),
            RegImm::Imm(c) => {
                let r = self.fresh(64);
                out.instrs.push(VxInstr::MovRI { dst: r, imm: c });
                Ok(r)
            }
        }
    }
}

/// Maps an icmp predicate to an x86 condition code.
pub fn cc_of(pred: IcmpPred) -> Cond {
    match pred {
        IcmpPred::Eq => Cond::E,
        IcmpPred::Ne => Cond::Ne,
        IcmpPred::Ult => Cond::B,
        IcmpPred::Ule => Cond::Be,
        IcmpPred::Ugt => Cond::A,
        IcmpPred::Uge => Cond::Ae,
        IcmpPred::Slt => Cond::L,
        IcmpPred::Sle => Cond::Le,
        IcmpPred::Sgt => Cond::G,
        IcmpPred::Sge => Cond::Ge,
    }
}

/// Counts uses of each local in a function.
fn count_uses(func: &Function) -> HashMap<String, usize> {
    let mut counts: HashMap<String, usize> = HashMap::new();
    let visit = |op: &Operand, counts: &mut HashMap<String, usize>| {
        visit_operand_locals(op, &mut |l| {
            *counts.entry(l.to_owned()).or_insert(0) += 1;
        });
    };
    for b in &func.blocks {
        for i in &b.instrs {
            for_each_operand(i, &mut |op| visit(op, &mut counts));
        }
        match &b.term {
            Terminator::CondBr { cond, .. } => visit(cond, &mut counts),
            Terminator::Ret { val: Some((_, v)) } => visit(v, &mut counts),
            _ => {}
        }
    }
    counts
}

/// Invokes `f` on every operand of an instruction.
pub fn for_each_operand(instr: &Instr, f: &mut impl FnMut(&Operand)) {
    match instr {
        Instr::Bin { lhs, rhs, .. } | Instr::Icmp { lhs, rhs, .. } => {
            f(lhs);
            f(rhs);
        }
        Instr::Phi { incomings, .. } => {
            for (op, _) in incomings {
                f(op);
            }
        }
        Instr::Load { ptr, .. } => f(ptr),
        Instr::Store { val, ptr, .. } => {
            f(val);
            f(ptr);
        }
        Instr::Alloca { .. } => {}
        Instr::Gep { ptr, indices, .. } => {
            f(ptr);
            for (_, i) in indices {
                f(i);
            }
        }
        Instr::Cast { val, .. } => f(val),
        Instr::Call { args, .. } => {
            for (_, a) in args {
                f(a);
            }
        }
    }
}

/// Invokes `f` on every local mentioned by an operand (through const exprs).
pub fn visit_operand_locals(op: &Operand, f: &mut impl FnMut(&str)) {
    match op {
        Operand::Local(l) => f(l),
        Operand::Expr(e) => match &**e {
            ConstExpr::Bitcast { value, .. } => visit_operand_locals(value, f),
            ConstExpr::Gep { base, indices, .. } => {
                visit_operand_locals(base, f);
                for (_, i) in indices {
                    visit_operand_locals(i, f);
                }
            }
        },
        _ => {}
    }
}

/// Computes loop headers (targets of back edges) via DFS.
pub fn loop_headers(func: &Function) -> Vec<String> {
    let mut headers = Vec::new();
    let mut on_stack: Vec<&str> = Vec::new();
    let mut visited: std::collections::HashSet<&str> = std::collections::HashSet::new();
    fn dfs<'a>(
        func: &'a Function,
        block: &'a str,
        visited: &mut std::collections::HashSet<&'a str>,
        on_stack: &mut Vec<&'a str>,
        headers: &mut Vec<String>,
    ) {
        visited.insert(block);
        on_stack.push(block);
        if let Some(b) = func.block(block) {
            for succ in b.term.successors() {
                if on_stack.contains(&succ) {
                    if !headers.iter().any(|h| h == succ) {
                        headers.push(succ.to_owned());
                    }
                } else if !visited.contains(succ) {
                    dfs(func, succ, visited, on_stack, headers);
                }
            }
        }
        on_stack.pop();
    }
    if let Some(entry) = func.blocks.first() {
        dfs(func, &entry.name, &mut visited, &mut on_stack, &mut headers);
    }
    headers
}

/// Store-merging optimization over one block's instructions.
///
/// Merges pairs of constant-immediate stores to a global whose byte ranges
/// are contiguous and whose combined width is a power of two. The correct
/// variant hoists the *later* store up to the earlier one, and only when no
/// intervening store overlaps it; the buggy variant (`buggy = true`) sinks
/// the *earlier* store down without any dependency check — re-creating the
/// PR25154 write-after-write violation.
pub fn merge_stores(instrs: &mut Vec<VxInstr>, buggy: bool) {
    loop {
        let mut merged = false;
        'outer: for i in 0..instrs.len() {
            let Some((g1, d1, w1, v1)) = const_store(&instrs[i]) else { continue };
            for j in (i + 1)..instrs.len() {
                let Some((g2, d2, w2, v2)) = const_store(&instrs[j]) else { break };
                if g1 != g2 {
                    continue;
                }
                let (lo, hi) = (d1.min(d2), (d1 + w1 as i64 / 8).max(d2 + w2 as i64 / 8));
                let combined = (hi - lo) as u32 * 8;
                let contiguous = d1 + w1 as i64 / 8 == d2 || d2 + w2 as i64 / 8 == d1;
                if !contiguous || !matches!(combined, 16 | 32 | 64) {
                    continue;
                }
                // Bytes of the merged value, in range order. The *later*
                // store wins on overlap, but contiguity excludes overlap
                // between the merged pair itself.
                let mut value: i128 = 0;
                for (d, w, v) in [(d1, w1, v1), (d2, w2, v2)] {
                    let off = (d - lo) as u32;
                    let m = if w == 64 { u64::MAX as i128 } else { (1i128 << w) - 1 };
                    value &= !(m << (off * 8));
                    value |= (v & m) << (off * 8);
                }
                if buggy {
                    // Sink store i into position j, ignoring dependencies.
                    instrs[j] = VxInstr::Store {
                        width: combined,
                        addr: Addr::global(g1, lo),
                        src: RegImm::Imm(value),
                    };
                    instrs.remove(i);
                    merged = true;
                    break 'outer;
                }
                // Correct: hoist store j up to i only if no intervening
                // store overlaps store j's range.
                let j_range = d2..(d2 + w2 as i64 / 8);
                let mut safe = true;
                for inter in instrs.iter().take(j).skip(i + 1) {
                    if let Some((gi, di, wi, _)) = const_store(inter) {
                        let r = di..(di + wi as i64 / 8);
                        if gi == g1 && r.start < j_range.end && j_range.start < r.end {
                            safe = false;
                            break;
                        }
                    } else {
                        safe = false;
                        break;
                    }
                }
                if !safe {
                    continue;
                }
                instrs[i] = VxInstr::Store {
                    width: combined,
                    addr: Addr::global(g1, lo),
                    src: RegImm::Imm(value),
                };
                instrs.remove(j);
                merged = true;
                break 'outer;
            }
        }
        if !merged {
            return;
        }
    }
}

fn const_store(i: &VxInstr) -> Option<(&str, i64, u32, i128)> {
    match i {
        VxInstr::Store {
            width,
            addr: Addr { global: Some(g), base: None, index: None, disp },
            src: RegImm::Imm(v),
        } => Some((g.as_str(), *disp, *width, *v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_llvm::parser::parse_module;

    fn lower(src: &str, opts: IselOptions) -> IselOutput {
        let m = parse_module(src).expect("parses");
        let f = &m.functions[0];
        let layout = Layout::of(&m, f);
        select(&m, f, &layout, opts).expect("selects")
    }

    #[test]
    fn cc_mapping_covers_all_predicates() {
        assert_eq!(cc_of(IcmpPred::Ult), Cond::B);
        assert_eq!(cc_of(IcmpPred::Uge), Cond::Ae);
        assert_eq!(cc_of(IcmpPred::Slt), Cond::L);
        assert_eq!(cc_of(IcmpPred::Eq), Cond::E);
        assert_eq!(cc_of(IcmpPred::Sgt), Cond::G);
    }

    #[test]
    fn loop_headers_found_on_running_example() {
        let m = parse_module(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
        let f = &m.functions[0];
        assert_eq!(loop_headers(f), vec!["for.cond".to_string()]);
    }

    #[test]
    fn fused_icmp_branch_emits_sub_jcc() {
        let out = lower(
            "define i32 @f(i32 %x, i32 %n) {\nentry:\n %c = icmp ult i32 %x, %n\n br i1 %c, label %a, label %b\na:\n ret i32 1\nb:\n ret i32 0\n}",
            IselOptions::default(),
        );
        let entry = &out.func.blocks[0];
        assert!(entry.instrs.iter().any(|i| matches!(i, VxInstr::Alu { op: AluOp::Sub, .. })));
        assert!(matches!(&entry.term, VxTerm::CondJmp { cc: Cond::Ae, .. }),
            "ult negates to jae toward the false target");
    }

    #[test]
    fn non_fused_icmp_materializes_setcc() {
        // The comparison result is also returned, so fusion is impossible.
        let out = lower(
            "define i1 @f(i32 %x) {\n %c = icmp eq i32 %x, 0\n ret i1 %c\n}",
            IselOptions::default(),
        );
        let entry = &out.func.blocks[0];
        assert!(entry.instrs.iter().any(|i| matches!(i, VxInstr::Cmp { .. })));
        assert!(entry.instrs.iter().any(|i| matches!(i, VxInstr::SetCc { cc: Cond::E, .. })));
    }

    #[test]
    fn merge_stores_correct_direction() {
        // Fig. 8 shape: stores at 2, 3, 0 (2 bytes each). Correct merging
        // hoists the third store up into the first; the overlapping second
        // store keeps its position after the merged store.
        let mut instrs = vec![
            VxInstr::Store { width: 16, addr: Addr::global("b", 2), src: RegImm::Imm(0) },
            VxInstr::Store { width: 16, addr: Addr::global("b", 3), src: RegImm::Imm(2) },
            VxInstr::Store { width: 16, addr: Addr::global("b", 0), src: RegImm::Imm(1) },
        ];
        merge_stores(&mut instrs, false);
        assert_eq!(instrs.len(), 2, "{instrs:?}");
        assert!(
            matches!(&instrs[0], VxInstr::Store { width: 32, addr, src: RegImm::Imm(1) }
                if addr.disp == 0),
            "{instrs:?}"
        );
        assert!(
            matches!(&instrs[1], VxInstr::Store { width: 16, addr, .. } if addr.disp == 3),
            "WAW order preserved: {instrs:?}"
        );
    }

    #[test]
    fn merge_stores_buggy_direction_reorders() {
        let mut instrs = vec![
            VxInstr::Store { width: 16, addr: Addr::global("b", 2), src: RegImm::Imm(0) },
            VxInstr::Store { width: 16, addr: Addr::global("b", 3), src: RegImm::Imm(2) },
            VxInstr::Store { width: 16, addr: Addr::global("b", 0), src: RegImm::Imm(1) },
        ];
        merge_stores(&mut instrs, true);
        assert_eq!(instrs.len(), 2, "{instrs:?}");
        // The overlapping store now comes FIRST — the WAW violation.
        assert!(
            matches!(&instrs[0], VxInstr::Store { width: 16, addr, .. } if addr.disp == 3),
            "{instrs:?}"
        );
    }

    #[test]
    fn merge_stores_skips_non_contiguous() {
        let mut instrs = vec![
            VxInstr::Store { width: 8, addr: Addr::global("b", 0), src: RegImm::Imm(1) },
            VxInstr::Store { width: 8, addr: Addr::global("b", 5), src: RegImm::Imm(2) },
        ];
        merge_stores(&mut instrs, false);
        assert_eq!(instrs.len(), 2);
    }

    #[test]
    fn merge_stores_respects_different_globals() {
        let mut instrs = vec![
            VxInstr::Store { width: 8, addr: Addr::global("a", 0), src: RegImm::Imm(1) },
            VxInstr::Store { width: 8, addr: Addr::global("b", 1), src: RegImm::Imm(2) },
        ];
        merge_stores(&mut instrs, false);
        assert_eq!(instrs.len(), 2);
    }

    #[test]
    fn narrow_load_width_depends_on_bug_injection() {
        let src = keq_llvm::corpus::FIG10_LOAD_NARROW;
        let good = lower(src, IselOptions::default());
        let bad = lower(
            src,
            IselOptions { bug: BugInjection::LoadNarrowing, ..Default::default() },
        );
        let load_width = |out: &IselOutput| {
            out.func.blocks[0]
                .instrs
                .iter()
                .find_map(|i| match i {
                    VxInstr::Load { width, .. } => Some(*width),
                    _ => None,
                })
                .expect("has a load")
        };
        assert_eq!(load_width(&good), 32, "only 4 bytes remain past the shift");
        assert_eq!(load_width(&bad), 64, "the bug loads the full trunc width");
    }

    #[test]
    fn calls_marshal_through_sysv_registers() {
        let out = lower(
            "define i32 @f(i32 %x) {\n %r = call i32 @g(i32 %x, i32 9)\n ret i32 %r\n}",
            IselOptions::default(),
        );
        let entry = &out.func.blocks[0];
        let has_arg_copy = entry.instrs.iter().any(|i| {
            matches!(i, VxInstr::Copy { dst: Reg::Phys(PhysReg::Rdi, _), .. })
        });
        let has_imm_arg = entry.instrs.iter().any(|i| {
            matches!(i, VxInstr::MovRI { dst: Reg::Phys(PhysReg::Rsi, _), imm: 9 })
        });
        let has_ret_copy = entry.instrs.iter().any(|i| {
            matches!(i, VxInstr::Copy { src: Reg::Phys(PhysReg::Rax, _), .. })
        });
        assert!(has_arg_copy && has_imm_arg && has_ret_copy, "{entry:?}");
        let call = entry.instrs.iter().position(|i| matches!(i, VxInstr::Call { .. }));
        assert_eq!(out.hints.call_sites, vec![(entry.name.clone(), call.expect("a call"))]);
    }

    #[test]
    fn trunc_to_i1_masks_low_bit() {
        let out = lower(
            "define i1 @f(i32 %x) {\n %t = trunc i32 %x to i1\n ret i1 %t\n}",
            IselOptions::default(),
        );
        let entry = &out.func.blocks[0];
        assert!(
            entry.instrs.iter().any(|i| matches!(
                i,
                VxInstr::Alu { op: AluOp::And, rhs: RegImm::Imm(1), .. }
            )),
            "{entry:?}"
        );
    }

    #[test]
    fn sext_i1_negates_zero_extension() {
        let out = lower(
            "define i32 @f(i32 %x) {\n %c = icmp slt i32 %x, 0\n %s = sext i1 %c to i32\n ret i32 %s\n}",
            IselOptions::default(),
        );
        let entry = &out.func.blocks[0];
        assert!(
            entry.instrs.iter().any(|i| matches!(
                i,
                VxInstr::Alu { op: AluOp::Sub, lhs: RegImm::Imm(0), .. }
            )),
            "sext i1 is 0 - zext: {entry:?}"
        );
    }
}
