//! Register allocation for Virtual x86 — the paper's *ongoing work*.
//!
//! §1: "in our ongoing work (not part of this paper), we are applying KEQ
//! unchanged to validate the register allocation phase of LLVM, with a VC
//! generator that treats the allocator completely as a black box". This
//! module reproduces that extension: a graph-coloring allocator that
//! rewrites SSA Virtual x86 (virtual registers, PHIs) into allocated
//! Virtual x86 (physical registers only, PHIs destructed into parallel
//! copies with cycle breaking), plus the assignment artifact the black-box
//! VC generator consumes — no knowledge of the allocation algorithm, only
//! its output mapping.
//!
//! The allocator spills: virtual registers that cannot be colored from the
//! pool are assigned concrete stack slots in a dedicated spill frame
//! ([`SPILL_BASE`]), with reload loads inserted before uses, stores after
//! definitions, and a per-block forward pass that coalesces redundant
//! reloads. The spill frame is modeled through the common memory model: the
//! black-box VC generator relates each spilled value via a
//! `ValueExpr::Slot` equality and masks the frame out of the
//! memory-equality obligations (the frame is private to the allocated
//! side), so spilled functions validate with the same unmodified checker.

use std::collections::{BTreeMap, BTreeSet};

use keq_smt::CancelToken;
use keq_vx86::ast::{Addr, PhysReg, Reg, RegImm, VxBlock, VxFunction, VxInstr, VxTerm};

use crate::liveness::{Cfg, Liveness};

/// A liveness key: a virtual register id or a physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegKey {
    /// Virtual register (id only; widths are views of one value).
    Virt(u32),
    /// Physical register.
    Phys(PhysReg),
}

impl RegKey {
    pub(crate) fn of(r: Reg) -> RegKey {
        match r {
            Reg::Virt(id, _) => RegKey::Virt(id),
            Reg::Phys(p, _) => RegKey::Phys(p),
        }
    }
}

/// Allocation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaError {
    /// A supervisor cancelled the allocation mid-fixpoint.
    Cancelled,
}

impl std::fmt::Display for RaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaError::Cancelled => write!(f, "register allocation cancelled by supervisor"),
        }
    }
}

impl std::error::Error for RaError {}

/// The allocator's output artifact: everything the black-box VC generator
/// sees.
#[derive(Debug, Clone, Default)]
pub struct RaMap {
    /// Virtual register id → assigned physical register (colored vregs
    /// only; spilled vregs appear in [`RaMap::spills`] instead).
    pub assignment: BTreeMap<u32, PhysReg>,
    /// Width of each virtual register.
    pub widths: BTreeMap<u32, u32>,
    /// Virtual register id → absolute spill-slot address.
    pub spills: BTreeMap<u32, u64>,
}

impl RaMap {
    /// The spill frame `(base, size)` this allocation writes, `None` when
    /// nothing spilled. The size pads one trailing slot so a fault-injected
    /// off-by-one slot store still lands inside the modeled region (and is
    /// caught as a wrong *value*, not an out-of-bounds trap).
    pub fn spill_frame(&self) -> Option<(u64, u64)> {
        let max = *self.spills.values().max()?;
        Some((SPILL_BASE, max - SPILL_BASE + 2 * SPILL_SLOT_BYTES))
    }
}

/// Allocatable pool (R11 is reserved as the parallel-copy scratch;
/// R12/R13/R15 as reload scratches; R14 as the spilled-definition scratch).
pub const POOL: [PhysReg; 9] = [
    PhysReg::Rbx,
    PhysReg::Rcx,
    PhysReg::Rdx,
    PhysReg::Rsi,
    PhysReg::Rdi,
    PhysReg::R8,
    PhysReg::R9,
    PhysReg::R10,
    PhysReg::Rax,
];

/// The scratch register used to break parallel-copy cycles.
pub const SCRATCH: PhysReg = PhysReg::R11;

/// Base address of the spill frame — below the alloca frame
/// (`keq_llvm::layout::FRAME_BASE` = `0x7fff_0000`) and far above the
/// globals, so spill slots never alias program-visible memory.
pub const SPILL_BASE: u64 = 0x7ffe_0000;

/// Bytes reserved per spill slot (every slot holds up to 64 bits).
pub const SPILL_SLOT_BYTES: u64 = 8;

/// Scratch registers spilled *uses* are reloaded into, in assignment order
/// (an instruction reads at most three registers, so three suffice).
pub const RELOAD_SCRATCH: [PhysReg; 3] = [PhysReg::R12, PhysReg::R13, PhysReg::R15];

/// Scratch register a spilled *definition* is computed into before the
/// slot store.
pub const SPILL_DEF_SCRATCH: PhysReg = PhysReg::R14;

/// Injectable spill miscompilations, mirroring the ISel `BugInjection`
/// studies: each is a realistic allocator defect the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpillBug {
    /// Correct spilling.
    #[default]
    None,
    /// Reload coalescing forgets that calls clobber the caller-saved
    /// reload scratches (and that a slot store invalidates stale cached
    /// copies), so a reload after a call is dropped and the use reads
    /// whatever the callee left in the scratch.
    LostReload,
    /// Slot stores land one slot too high, clobbering a neighboring spill.
    ClobberedSlot,
}

/// Allocator tuning (bug injection for the validation studies).
#[derive(Debug, Clone, Copy, Default)]
pub struct RaOptions {
    /// Injected spill defect.
    pub bug: SpillBug,
    /// Cap on how many [`POOL`] registers the colorer may use — lets tests
    /// and studies force spilling on low-pressure functions. `None` uses
    /// the whole pool.
    pub pool_limit: Option<usize>,
}

/// Uses and defs of one instruction, as liveness keys.
pub fn uses_defs(instr: &VxInstr) -> (Vec<RegKey>, Vec<RegKey>) {
    let mut uses = Vec::new();
    let mut defs = Vec::new();
    let use_ri = |ri: &RegImm, uses: &mut Vec<RegKey>| {
        if let RegImm::Reg(r) = ri {
            uses.push(RegKey::of(*r));
        }
    };
    let use_addr = |a: &Addr, uses: &mut Vec<RegKey>| {
        if let Some(b) = a.base {
            uses.push(RegKey::of(b));
        }
        if let Some((i, _)) = a.index {
            uses.push(RegKey::of(i));
        }
    };
    match instr {
        VxInstr::Copy { dst, src } => {
            uses.push(RegKey::of(*src));
            defs.push(RegKey::of(*dst));
        }
        VxInstr::Phi { dst, .. } => {
            // Incoming values are uses at the end of predecessors, handled
            // in the block-level transfer function.
            defs.push(RegKey::of(*dst));
        }
        VxInstr::MovRI { dst, .. } => defs.push(RegKey::of(*dst)),
        VxInstr::Load { dst, addr, .. } => {
            use_addr(addr, &mut uses);
            defs.push(RegKey::of(*dst));
        }
        VxInstr::Store { addr, src, .. } => {
            use_addr(addr, &mut uses);
            use_ri(src, &mut uses);
        }
        VxInstr::Alu { dst, lhs, rhs, .. } => {
            use_ri(lhs, &mut uses);
            use_ri(rhs, &mut uses);
            defs.push(RegKey::of(*dst));
        }
        VxInstr::Cmp { lhs, rhs, .. } => {
            use_ri(lhs, &mut uses);
            use_ri(rhs, &mut uses);
        }
        VxInstr::Inc { dst, src } => {
            uses.push(RegKey::of(*src));
            defs.push(RegKey::of(*dst));
        }
        VxInstr::Lea { dst, addr } => {
            use_addr(addr, &mut uses);
            defs.push(RegKey::of(*dst));
        }
        VxInstr::Ext { dst, src, .. } => {
            uses.push(RegKey::of(*src));
            defs.push(RegKey::of(*dst));
        }
        VxInstr::SetCc { dst, .. } => defs.push(RegKey::of(*dst)),
        VxInstr::Div { dst, lhs, rhs, .. } => {
            use_ri(lhs, &mut uses);
            use_ri(rhs, &mut uses);
            defs.push(RegKey::of(*dst));
        }
        VxInstr::Call { arg_widths, ret_width, .. } => {
            for (i, _) in arg_widths.iter().enumerate() {
                uses.push(RegKey::Phys(PhysReg::args()[i]));
            }
            if ret_width.is_some() {
                defs.push(RegKey::Phys(PhysReg::Rax));
            }
        }
    }
    (uses, defs)
}

/// Builds the interference graph: pairs of keys simultaneously live.
fn interference(func: &VxFunction, lv: &Liveness<RegKey>) -> BTreeMap<RegKey, BTreeSet<RegKey>> {
    let mut graph: BTreeMap<RegKey, BTreeSet<RegKey>> = BTreeMap::new();
    let edge = |a: RegKey, b: RegKey, graph: &mut BTreeMap<RegKey, BTreeSet<RegKey>>| {
        if a != b {
            graph.entry(a).or_default().insert(b);
            graph.entry(b).or_default().insert(a);
        }
    };
    for b in &func.blocks {
        let mut live = lv.live_out.get(&b.name).cloned().unwrap_or_default();
        for i in b.instrs.iter().rev() {
            // An instruction defines at most one key, so its defs never
            // interfere with each other.
            for d in uses_defs(i).1 {
                for &l in &live {
                    edge(d, l, &mut graph);
                }
            }
            VxFunction::transfer(i, &mut live);
        }
        // Phi destinations all interfere with each other and with live-in.
        let phidefs: Vec<RegKey> = b
            .instrs
            .iter()
            .filter_map(|i| match i {
                VxInstr::Phi { dst, .. } => Some(RegKey::of(*dst)),
                _ => None,
            })
            .collect();
        for (i, &a) in phidefs.iter().enumerate() {
            for &bk in &phidefs[i + 1..] {
                edge(a, bk, &mut graph);
            }
            for &l in &live {
                edge(a, l, &mut graph);
            }
        }
    }
    graph
}

/// Runs register allocation: colors every virtual register (spilling the
/// uncolorable ones to concrete stack slots), destructs PHIs into
/// (cycle-safe) copies in predecessors, rewrites the function with reloads
/// and slot stores, and coalesces redundant reloads.
///
/// # Errors
///
/// Never fails on register pressure — excess pressure spills.
pub fn allocate(func: &VxFunction) -> Result<(VxFunction, RaMap), RaError> {
    allocate_with_options(func, RaOptions::default(), None)
}

/// [`allocate`] with tuning and a supervisor cancellation token threaded
/// into the liveness fixpoint — the entry point the validation studies use
/// to inject spill defects.
///
/// # Errors
///
/// Returns [`RaError::Cancelled`] when the token is raised mid-analysis.
pub fn allocate_with_options(
    func: &VxFunction,
    opts: RaOptions,
    cancel: Option<&CancelToken>,
) -> Result<(VxFunction, RaMap), RaError> {
    let mut func = func.clone();
    split_critical_edges(&mut func);
    let lv = Liveness::compute_cancellable(&func, cancel).ok_or(RaError::Cancelled)?;
    let graph = interference(&func, &lv);
    // Collect vregs and widths.
    let mut map = RaMap::default();
    for b in &func.blocks {
        for i in &b.instrs {
            visit_regs(i, &mut |r| {
                if let Reg::Virt(id, w) = r {
                    let e = map.widths.entry(id).or_insert(w);
                    *e = (*e).max(w);
                }
            });
        }
    }
    // Greedy coloring in id order; the uncolorable get spill slots.
    let pool = &POOL[..opts.pool_limit.map_or(POOL.len(), |l| l.clamp(1, POOL.len()))];
    let ids: Vec<u32> = map.widths.keys().copied().collect();
    for id in ids {
        let neighbors = graph.get(&RegKey::Virt(id)).cloned().unwrap_or_default();
        let mut taken: BTreeSet<PhysReg> = BTreeSet::new();
        for n in neighbors {
            match n {
                RegKey::Phys(p) => {
                    taken.insert(p);
                }
                RegKey::Virt(v) => {
                    if let Some(&p) = map.assignment.get(&v) {
                        taken.insert(p);
                    }
                }
            }
        }
        match pool.iter().find(|p| !taken.contains(p)) {
            Some(&color) => {
                map.assignment.insert(id, color);
            }
            None => {
                let slot = SPILL_BASE + map.spills.len() as u64 * SPILL_SLOT_BYTES;
                map.spills.insert(id, slot);
            }
        }
    }
    // Destruct PHIs: gather parallel moves (register or slot) per edge.
    let block_names: Vec<String> = func.blocks.iter().map(|b| b.name.clone()).collect();
    for name in &block_names {
        let (phis, rest): (Vec<VxInstr>, Vec<VxInstr>) = {
            let b = func.block(name).expect("exists").clone();
            b.instrs.into_iter().partition(|i| matches!(i, VxInstr::Phi { .. }))
        };
        if phis.is_empty() {
            continue;
        }
        // Per predecessor: the parallel move (dst, src) list.
        let mut per_pred: BTreeMap<String, Vec<(MLoc, MLoc)>> = BTreeMap::new();
        for p in &phis {
            let VxInstr::Phi { dst, incomings } = p else { unreachable!() };
            for (src, pred) in incomings {
                per_pred
                    .entry(pred.clone())
                    .or_default()
                    .push((loc_of(*dst, &map), loc_of(*src, &map)));
            }
        }
        for (pred, moves) in per_pred {
            let seq = sequentialize_parallel_moves(&moves);
            let pb = func.blocks.iter_mut().find(|b| b.name == pred).expect("predecessor exists");
            pb.instrs.extend(seq);
        }
        let b = func.blocks.iter_mut().find(|b| &b.name == name).expect("exists");
        b.instrs = rest;
    }
    // Rewrite remaining instructions, inserting reloads and slot stores.
    for b in &mut func.blocks {
        let instrs = std::mem::take(&mut b.instrs);
        b.instrs = rewrite_block_with_spills(instrs, &map, opts.bug);
    }
    coalesce_reloads(&mut func, opts.bug);
    Ok((func, map))
}

/// A parallel-move endpoint: a (colored) register or a spill slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MLoc {
    /// Register location.
    R(Reg),
    /// Spill slot `(absolute address, value width)`.
    S(u64, u32),
}

/// Overlap key of a move endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MKey {
    R(RegKey),
    S(u64),
}

fn mkey(l: MLoc) -> MKey {
    match l {
        MLoc::R(r) => MKey::R(RegKey::of(r)),
        MLoc::S(a, _) => MKey::S(a),
    }
}

fn mwidth(l: MLoc) -> u32 {
    match l {
        MLoc::R(r) => r.width(),
        MLoc::S(_, w) => w,
    }
}

fn loc_of(r: Reg, map: &RaMap) -> MLoc {
    match r {
        Reg::Virt(id, w) => match map.assignment.get(&id) {
            Some(&p) => MLoc::R(Reg::Phys(p, w)),
            None => MLoc::S(map.spills[&id], w),
        },
        phys => MLoc::R(phys),
    }
}

/// Splits edges from multi-successor blocks into PHI blocks, so parallel
/// copies have a safe insertion point.
fn split_critical_edges(func: &mut VxFunction) {
    let has_phis: BTreeSet<String> = func
        .blocks
        .iter()
        .filter(|b| b.instrs.iter().any(|i| matches!(i, VxInstr::Phi { .. })))
        .map(|b| b.name.clone())
        .collect();
    let mut new_blocks: Vec<VxBlock> = Vec::new();
    let mut renames: Vec<(String, String, String)> = Vec::new(); // (pred, old target, split)
    let mut counter = 0usize;
    for b in &mut func.blocks {
        if let VxTerm::CondJmp { then_, else_, .. } = &mut b.term {
            for target in [then_, else_] {
                if has_phis.contains(target.as_str()) {
                    let split = format!("split{counter}");
                    counter += 1;
                    new_blocks.push(VxBlock {
                        name: split.clone(),
                        instrs: vec![],
                        term: VxTerm::Jmp { target: target.clone() },
                    });
                    renames.push((b.name.clone(), target.clone(), split.clone()));
                    *target = split;
                }
            }
        }
    }
    func.blocks.extend(new_blocks);
    // Retarget phi incomings along the split edges.
    for (pred, old_target, split) in renames {
        let block = func.blocks.iter_mut().find(|b| b.name == old_target).expect("target exists");
        for i in &mut block.instrs {
            if let VxInstr::Phi { incomings, .. } = i {
                for (_, p) in incomings.iter_mut() {
                    if *p == pred {
                        *p = split.clone();
                    }
                }
            }
        }
    }
}

/// Rounds a value width up to a positive byte multiple — the access width
/// used for the value's spill slot.
pub fn slot_width(w: u32) -> u32 {
    w.div_ceil(8).max(1) * 8
}

fn phys_of(r: Reg) -> PhysReg {
    match r {
        Reg::Phys(p, _) => p,
        Reg::Virt(..) => unreachable!("moves are lowered after coloring"),
    }
}

/// Lowers one (already ordered) move between locations.
fn emit_move(d: MLoc, s: MLoc, out: &mut Vec<VxInstr>) {
    match (d, s) {
        (MLoc::R(dr), MLoc::R(sr)) => out.push(VxInstr::Copy { dst: dr, src: sr }),
        // Reload: always a full 64-bit zero-extending write so the scratch
        // destination never merges with a stale (possibly undefined) value.
        (MLoc::R(dr), MLoc::S(a, sw)) => out.push(VxInstr::Load {
            dst: Reg::Phys(phys_of(dr), 64),
            width: sw,
            addr: Addr::absolute(a as i64),
            zext: true,
        }),
        (MLoc::S(a, sw), MLoc::R(sr)) => out.push(VxInstr::Store {
            width: sw,
            addr: Addr::absolute(a as i64),
            src: RegImm::Reg(Reg::Phys(phys_of(sr), sw)),
        }),
        // Slot-to-slot bounces through the first reload scratch (dead
        // between instructions, so free at the block tail).
        (MLoc::S(da, dw), MLoc::S(sa, sw)) => {
            out.push(VxInstr::Load {
                dst: Reg::Phys(RELOAD_SCRATCH[0], 64),
                width: sw,
                addr: Addr::absolute(sa as i64),
                zext: true,
            });
            out.push(VxInstr::Store {
                width: dw,
                addr: Addr::absolute(da as i64),
                src: RegImm::Reg(Reg::Phys(RELOAD_SCRATCH[0], dw)),
            });
        }
    }
}

/// Orders a parallel move set into sequential moves, breaking cycles
/// through [`SCRATCH`]. Endpoints may be registers or spill slots.
fn sequentialize_parallel_moves(moves: &[(MLoc, MLoc)]) -> Vec<VxInstr> {
    let mut pending: Vec<(MLoc, MLoc)> =
        moves.iter().filter(|(d, s)| mkey(*d) != mkey(*s)).copied().collect();
    let mut out = Vec::new();
    while !pending.is_empty() {
        // A move is safe when no other pending move reads its destination.
        if let Some(pos) = pending.iter().position(|(d, _)| {
            !pending.iter().any(|(d2, s2)| mkey(*s2) == mkey(*d) && mkey(*d2) != mkey(*d))
        }) {
            let (d, s) = pending.remove(pos);
            emit_move(d, s, &mut out);
            continue;
        }
        // Cycle: move one source aside into the scratch register.
        let (_, s0) = pending[0];
        match s0 {
            MLoc::R(r) => {
                let w = r.width();
                if w < 32 {
                    // Sub-32-bit register writes merge with the old value;
                    // define the scratch first so the merge is well-formed.
                    out.push(VxInstr::MovRI { dst: Reg::Phys(SCRATCH, 64), imm: 0 });
                }
                out.push(VxInstr::Copy { dst: Reg::Phys(SCRATCH, w), src: r });
            }
            MLoc::S(a, sw) => out.push(VxInstr::Load {
                dst: Reg::Phys(SCRATCH, 64),
                width: sw,
                addr: Addr::absolute(a as i64),
                zext: true,
            }),
        }
        let k = mkey(s0);
        for (_, s) in pending.iter_mut() {
            if mkey(*s) == k {
                *s = MLoc::R(Reg::Phys(SCRATCH, mwidth(*s)));
            }
        }
    }
    out
}

fn visit_regs(i: &VxInstr, f: &mut impl FnMut(Reg)) {
    let ri = |x: &RegImm, f: &mut dyn FnMut(Reg)| {
        if let RegImm::Reg(r) = x {
            f(*r);
        }
    };
    let addr = |a: &Addr, f: &mut dyn FnMut(Reg)| {
        if let Some(b) = a.base {
            f(b);
        }
        if let Some((x, _)) = a.index {
            f(x);
        }
    };
    match i {
        VxInstr::Copy { dst, src } | VxInstr::Inc { dst, src } | VxInstr::Ext { dst, src, .. } => {
            f(*dst);
            f(*src);
        }
        VxInstr::Phi { dst, incomings } => {
            f(*dst);
            for (s, _) in incomings {
                f(*s);
            }
        }
        VxInstr::MovRI { dst, .. } | VxInstr::SetCc { dst, .. } => f(*dst),
        VxInstr::Load { dst, addr: a, .. } => {
            f(*dst);
            addr(a, f);
        }
        VxInstr::Store { addr: a, src, .. } => {
            addr(a, f);
            ri(src, f);
        }
        VxInstr::Alu { dst, lhs, rhs, .. } | VxInstr::Div { dst, lhs, rhs, .. } => {
            f(*dst);
            ri(lhs, f);
            ri(rhs, f);
        }
        VxInstr::Cmp { lhs, rhs, .. } => {
            ri(lhs, f);
            ri(rhs, f);
        }
        VxInstr::Lea { dst, addr: a } => {
            f(*dst);
            addr(a, f);
        }
        VxInstr::Call { .. } => {}
    }
}

/// Per-instruction spill rewriter: maps colored virtuals to their physical
/// registers, reloads spilled uses into [`RELOAD_SCRATCH`] registers (one
/// load per distinct spilled vreg per instruction), and routes spilled
/// definitions through [`SPILL_DEF_SCRATCH`] followed by a slot store.
struct SpillRewriter<'a> {
    map: &'a RaMap,
    bug: SpillBug,
    /// Loads emitted before the instruction.
    pre: Vec<VxInstr>,
    /// Stores emitted after the instruction.
    post: Vec<VxInstr>,
    /// Spilled vreg id → reload scratch already holding it (this instr).
    reloaded: BTreeMap<u32, PhysReg>,
    next_scratch: usize,
}

impl SpillRewriter<'_> {
    fn use_reg(&mut self, r: &mut Reg) {
        let Reg::Virt(id, w) = *r else { return };
        if let Some(&p) = self.map.assignment.get(&id) {
            *r = Reg::Phys(p, w);
            return;
        }
        let slot = self.map.spills[&id];
        let scratch = match self.reloaded.get(&id) {
            Some(&p) => p,
            None => {
                let p = RELOAD_SCRATCH[self.next_scratch];
                self.next_scratch += 1;
                self.reloaded.insert(id, p);
                self.pre.push(VxInstr::Load {
                    dst: Reg::Phys(p, 64),
                    width: slot_width(self.map.widths[&id]),
                    addr: Addr::absolute(slot as i64),
                    zext: true,
                });
                p
            }
        };
        *r = Reg::Phys(scratch, w);
    }

    fn def_reg(&mut self, r: &mut Reg) {
        let Reg::Virt(id, w) = *r else { return };
        if let Some(&p) = self.map.assignment.get(&id) {
            *r = Reg::Phys(p, w);
            return;
        }
        let sw = slot_width(self.map.widths[&id]);
        if w < 32 {
            // A sub-32-bit write merges with the old register value; define
            // the scratch first so the store below stores zext(value).
            self.pre.push(VxInstr::MovRI { dst: Reg::Phys(SPILL_DEF_SCRATCH, 64), imm: 0 });
        }
        *r = Reg::Phys(SPILL_DEF_SCRATCH, w);
        let mut slot = self.map.spills[&id];
        if self.bug == SpillBug::ClobberedSlot {
            slot += SPILL_SLOT_BYTES;
        }
        self.post.push(VxInstr::Store {
            width: sw,
            addr: Addr::absolute(slot as i64),
            src: RegImm::Reg(Reg::Phys(SPILL_DEF_SCRATCH, sw)),
        });
    }

    fn use_ri(&mut self, x: &mut RegImm) {
        if let RegImm::Reg(r) = x {
            self.use_reg(r);
        }
    }

    fn use_addr(&mut self, a: &mut Addr) {
        if let Some(b) = &mut a.base {
            self.use_reg(b);
        }
        if let Some((x, _)) = &mut a.index {
            self.use_reg(x);
        }
    }

    fn rewrite(&mut self, i: &mut VxInstr) {
        match i {
            VxInstr::Copy { dst, src }
            | VxInstr::Inc { dst, src }
            | VxInstr::Ext { dst, src, .. } => {
                self.use_reg(src);
                self.def_reg(dst);
            }
            VxInstr::Phi { .. } => unreachable!("phis are destructed before rewriting"),
            VxInstr::MovRI { dst, .. } | VxInstr::SetCc { dst, .. } => self.def_reg(dst),
            VxInstr::Load { dst, addr, .. } => {
                self.use_addr(addr);
                self.def_reg(dst);
            }
            VxInstr::Store { addr, src, .. } => {
                self.use_addr(addr);
                self.use_ri(src);
            }
            VxInstr::Alu { dst, lhs, rhs, .. } | VxInstr::Div { dst, lhs, rhs, .. } => {
                self.use_ri(lhs);
                self.use_ri(rhs);
                self.def_reg(dst);
            }
            VxInstr::Cmp { lhs, rhs, .. } => {
                self.use_ri(lhs);
                self.use_ri(rhs);
            }
            VxInstr::Lea { dst, addr } => {
                self.use_addr(addr);
                self.def_reg(dst);
            }
            VxInstr::Call { .. } => {}
        }
    }
}

/// Rewrites one block's instructions, inserting reloads before and slot
/// stores after each instruction touching spilled virtual registers.
fn rewrite_block_with_spills(instrs: Vec<VxInstr>, map: &RaMap, bug: SpillBug) -> Vec<VxInstr> {
    let mut out = Vec::new();
    for mut i in instrs {
        let mut rw = SpillRewriter {
            map,
            bug,
            pre: Vec::new(),
            post: Vec::new(),
            reloaded: BTreeMap::new(),
            next_scratch: 0,
        };
        rw.rewrite(&mut i);
        out.extend(rw.pre);
        out.push(i);
        out.extend(rw.post);
    }
    out
}

/// `Some(address)` when `addr` is an absolute constant inside the spill
/// frame — the shape every reload and slot store uses, and one no program
/// access can take (program memory lives in the globals and alloca
/// regions).
fn spill_slot_addr(addr: &Addr) -> Option<u64> {
    if addr.global.is_some() || addr.base.is_some() || addr.index.is_some() {
        return None;
    }
    let a = addr.disp as u64;
    (SPILL_BASE..SPILL_BASE + 0x1_0000).contains(&a).then_some(a)
}

/// Per-block forward pass dropping redundant reloads: tracks which scratch
/// registers currently hold which slot's contents, and deletes a reload
/// whose destination already does. Tracking is invalidated by any
/// redefinition of the register, any store to the tracked slot, any store
/// through a symbolic address (which may alias the frame under the
/// allocated side's layout), and any call — except that the
/// [`SpillBug::LostReload`] defect skips the slot-store and call
/// invalidations; that omission is exactly the bug.
fn coalesce_reloads(func: &mut VxFunction, bug: SpillBug) {
    for b in &mut func.blocks {
        let mut tracked: BTreeMap<PhysReg, (u64, u32)> = BTreeMap::new();
        let mut out: Vec<VxInstr> = Vec::new();
        for i in std::mem::take(&mut b.instrs) {
            match &i {
                VxInstr::Load { dst: Reg::Phys(p, 64), width, addr, zext: true }
                    if spill_slot_addr(addr).is_some() =>
                {
                    let a = spill_slot_addr(addr).expect("guard");
                    if tracked.get(p) == Some(&(a, *width)) {
                        continue; // redundant reload — drop it
                    }
                    tracked.insert(*p, (a, *width));
                    out.push(i);
                }
                VxInstr::Store { width, addr, src } => {
                    match spill_slot_addr(addr) {
                        Some(a) => {
                            if bug != SpillBug::LostReload {
                                tracked.retain(|_, &mut (slot, _)| slot != a);
                            }
                            if let RegImm::Reg(Reg::Phys(p, _)) = src {
                                tracked.insert(*p, (a, *width));
                            }
                        }
                        // A symbolic store may alias the frame.
                        None => tracked.clear(),
                    }
                    out.push(i);
                }
                VxInstr::Call { .. } => {
                    if bug != SpillBug::LostReload {
                        tracked.clear();
                    }
                    out.push(i);
                }
                _ => {
                    let (_, defs) = uses_defs(&i);
                    for d in defs {
                        if let RegKey::Phys(p) = d {
                            tracked.remove(&p);
                        }
                    }
                    out.push(i);
                }
            }
        }
        b.instrs = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(p: PhysReg) -> MLoc {
        MLoc::R(Reg::Phys(p, 32))
    }

    #[test]
    fn parallel_copy_cycle_uses_scratch() {
        // swap: (rbx <- rcx, rcx <- rbx)
        let moves = vec![(r(PhysReg::Rbx), r(PhysReg::Rcx)), (r(PhysReg::Rcx), r(PhysReg::Rbx))];
        let seq = sequentialize_parallel_moves(&moves);
        assert_eq!(seq.len(), 3, "{seq:?}");
        assert!(matches!(seq[0], VxInstr::Copy { dst: Reg::Phys(SCRATCH, _), .. }), "{seq:?}");
    }

    #[test]
    fn parallel_copy_chain_orders_correctly() {
        // rbx <- rcx, rcx <- rdx: must move rbx<-rcx first.
        let moves = vec![(r(PhysReg::Rbx), r(PhysReg::Rcx)), (r(PhysReg::Rcx), r(PhysReg::Rdx))];
        let seq = sequentialize_parallel_moves(&moves);
        assert_eq!(seq.len(), 2);
        assert!(matches!(
            seq[0],
            VxInstr::Copy { dst: Reg::Phys(PhysReg::Rbx, _), src: Reg::Phys(PhysReg::Rcx, _) }
        ));
    }

    #[test]
    fn identity_moves_are_dropped() {
        let moves = vec![(r(PhysReg::Rbx), r(PhysReg::Rbx))];
        assert!(sequentialize_parallel_moves(&moves).is_empty());
    }

    #[test]
    fn slot_moves_lower_to_loads_and_stores() {
        let a = SPILL_BASE;
        let b = SPILL_BASE + SPILL_SLOT_BYTES;
        // slot b <- slot a (bounce), rbx <- slot a (reload), slot a <- rcx.
        let moves = vec![
            (MLoc::S(b, 32), MLoc::S(a, 32)),
            (r(PhysReg::Rbx), MLoc::S(a, 32)),
            (MLoc::S(a, 32), r(PhysReg::Rcx)),
        ];
        let seq = sequentialize_parallel_moves(&moves);
        // slot a is read by two moves and written by one; the writes to a
        // must come last.
        let store_a_pos = seq
            .iter()
            .position(
                |i| matches!(&i, VxInstr::Store { addr, .. } if spill_slot_addr(addr) == Some(a)),
            )
            .expect("store to slot a");
        assert_eq!(store_a_pos, seq.len() - 1, "{seq:?}");
    }
}
