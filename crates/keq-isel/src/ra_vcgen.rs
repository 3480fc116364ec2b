//! Black-box VC generation for the register-allocation pass.
//!
//! Per the paper's §1 description of the ongoing regalloc work, this
//! generator has *no knowledge of the allocation algorithm* — it consumes
//! only the allocator's output artifact ([`crate::regalloc::RaMap`]: the
//! vreg → physical register assignment) plus liveness on the *input*
//! program, and emits synchronization points at every block entry (one per
//! predecessor), function exit, and call sites. Both sides of each point
//! are Virtual x86 — the "input and output languages may be identical"
//! case of the paper's Fig. 5 discussion.
//!
//! Left states sit *before* the PHIs of a block; right states sit at the
//! same block start where the destructed parallel copies have already run
//! in the predecessor — so PHI destinations are related through their
//! predecessor-specific incoming values, mirroring §4.5's per-predecessor
//! points.

use keq_core::sync::{Relation, SyncPoint, SyncSet, ValueExpr};
use keq_vx86::ast::{PhysReg, Reg, VxBlock, VxFunction, VxInstr};
use keq_vx86::sem::reg_key;

use crate::liveness::{predecessors, Liveness};
use crate::regalloc::{
    slot_width, RaMap, RegKey, POOL, RELOAD_SCRATCH, SCRATCH, SPILL_DEF_SCRATCH,
};
use crate::vcgen::flag_havocs;

/// Havocs for the allocated side: the whole pool, every scratch register
/// (parallel-copy, reload, and spilled-definition), the argument registers,
/// and the flags.
fn right_havocs(pre: &VxFunction) -> Vec<(String, u32)> {
    let mut h = flag_havocs();
    for p in POOL.iter().chain([&SCRATCH, &SPILL_DEF_SCRATCH]).chain(RELOAD_SCRATCH.iter()) {
        h.push((p.name64().to_owned(), 64));
    }
    for p in PhysReg::args().iter().take(pre.num_params) {
        let key = p.name64().to_owned();
        if !h.iter().any(|(n, _)| *n == key) {
            h.push((key, 64));
        }
    }
    h
}

/// Where the allocated side keeps virtual register `id` (viewed at width
/// `w`): a slice of its color, or its spill slot.
fn location(map: &RaMap, id: u32, w: u32) -> Option<ValueExpr> {
    match map.assignment.get(&id) {
        Some(color) => {
            Some(ValueExpr::RegSlice { name: color.name64().to_owned(), hi: w - 1, lo: 0 })
        }
        None => Some(ValueExpr::Slot {
            addr: *map.spills.get(&id)?,
            width: slot_width(*map.widths.get(&id)?),
        }),
    }
}

/// A live pre-RA virtual register (at its recorded width) and where the
/// allocated side keeps it.
fn allocated(map: &RaMap, id: u32) -> Option<(Reg, ValueExpr)> {
    let w = map.widths.get(&id).copied().unwrap_or(64);
    Some((Reg::Virt(id, w), location(map, id, w)?))
}

/// Generates the sync set for `pre` (SSA Virtual x86) against its allocated
/// form, given the allocator's assignment artifact.
pub fn regalloc_sync_points(pre: &VxFunction, post: &VxFunction, map: &RaMap) -> SyncSet {
    let lv = Liveness::compute(pre);
    let mut set = SyncSet::new();
    // The spill frame is private to the allocated side: its writes are
    // masked out of memory-equality obligations, and spilled values are
    // related explicitly via `ValueExpr::Slot` equalities instead.
    if let Some((base, size)) = map.spill_frame() {
        set.right_private.push(keq_semantics::MemRegion { name: "spill".into(), base, size });
    }

    // Entry: arguments arrive identically on both sides.
    let mut entry = Relation::havocking(flag_havocs(), right_havocs(pre));
    for p in PhysReg::args().iter().take(pre.num_params) {
        let key = p.name64();
        entry.left_havoc.push((key.to_owned(), 64));
        entry.equalities.push((ValueExpr::reg(key), ValueExpr::reg(key)));
    }
    set.push(SyncPoint::entry("p0", pre.entry().name.clone(), post.entry().name.clone(), entry));
    set.push(SyncPoint::exit("p_exit", pre.ret_width.is_some()));

    // One point per (block, predecessor) — a maximal cut; cuts need not be
    // minimal (paper §7).
    let preds = predecessors(pre);
    for b in &pre.blocks {
        for pred in preds.get(&b.name).into_iter().flatten() {
            set.push(block_point(pre, map, &lv, b, pred));
        }
    }

    // Call sites: relate arguments and (after) the return value plus
    // live-across values.
    for ((callee, nth, pre_loc), (_, _, post_loc)) in call_sites(pre).iter().zip(&call_sites(post))
    {
        let num_args = match &pre.block(&pre_loc.0).expect("block exists").instrs[pre_loc.1] {
            VxInstr::Call { arg_widths, .. } => arg_widths.len(),
            _ => 0,
        };
        let mut across = Relation::havocking(flag_havocs(), right_havocs(pre));
        for k in lv.live_after(pre, &pre_loc.0, pre_loc.1) {
            let Some((reg, right)) = virt_id(k).and_then(|id| allocated(map, id)) else {
                continue;
            };
            across.left_havoc.push((reg_key(reg), reg.width()));
            across.equalities.push((ValueExpr::Reg(reg_key(reg)), right));
        }
        let ret = Relation {
            left_havoc: vec![("rax".into(), 64)],
            right_havoc: Vec::new(),
            equalities: vec![(ValueExpr::reg("rax"), ValueExpr::reg("rax"))],
        };
        set.points.extend(SyncPoint::call_pair(
            callee,
            *nth,
            (&pre_loc.0, pre_loc.1),
            (&post_loc.0, post_loc.1),
            num_args,
            across,
            ret,
        ));
    }
    set
}

/// The point at entry to `b` from `pred`: left states sit before `b`'s
/// phis, right states after the predecessor's destructed parallel copy.
fn block_point(
    pre: &VxFunction,
    map: &RaMap,
    lv: &Liveness<RegKey>,
    b: &VxBlock,
    pred: &str,
) -> SyncPoint {
    let mut rel = Relation::havocking(flag_havocs(), right_havocs(pre));
    // Deduplicate constraints by the (left, right) pair: one left value may
    // pin several colors (e.g. one incoming feeding two phis), and all of
    // those constraints are needed.
    let add = |rel: &mut Relation, left_reg: Reg, right: ValueExpr| {
        let eq = (ValueExpr::Reg(reg_key(left_reg)), right);
        if !rel.equalities.contains(&eq) {
            rel.havoc_left_once(&reg_key(left_reg), left_reg.width());
            rel.equalities.push(eq);
        }
    };
    // Live-in values (phi destinations are not live-in: their value at
    // this edge is the incoming below).
    for k in lv.live_in.get(&b.name).into_iter().flatten() {
        if let Some((reg, right)) = virt_id(*k).and_then(|id| allocated(map, id)) {
            add(&mut rel, reg, right);
        }
    }
    // Phi incomings along this edge: the left incoming register equals the
    // right value already sitting in the destination's location.
    for i in &b.instrs {
        let VxInstr::Phi { dst: Reg::Virt(did, dw), incomings } = i else { continue };
        for (src, p) in incomings {
            if p == pred && matches!(src, Reg::Virt(..)) {
                let right = location(map, *did, *dw).expect("every vreg is colored or spilled");
                add(&mut rel, *src, right);
            }
        }
    }
    SyncPoint::block_entry(
        format!("bb:{}<-{}", b.name, pred),
        (&b.name, Some(pred)),
        (&b.name, None),
        rel,
    )
}

fn virt_id(k: RegKey) -> Option<u32> {
    match k {
        RegKey::Virt(id) => Some(id),
        RegKey::Phys(_) => None,
    }
}

/// `(callee, ordinal, (block, index))` for every call, in source order.
fn call_sites(f: &VxFunction) -> Vec<(String, usize, (String, usize))> {
    let mut per_callee: std::collections::BTreeMap<String, usize> = Default::default();
    let mut out = Vec::new();
    for b in &f.blocks {
        for (i, instr) in b.instrs.iter().enumerate() {
            if let VxInstr::Call { callee, .. } = instr {
                let n = per_callee.entry(callee.clone()).or_insert(0);
                out.push((callee.clone(), *n, (b.name.clone(), i)));
                *n += 1;
            }
        }
    }
    out
}
