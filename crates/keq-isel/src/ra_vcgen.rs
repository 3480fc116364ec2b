//! Black-box VC generation for the register-allocation pass.
//!
//! Per the paper's §1 description of the ongoing regalloc work, this
//! generator has *no knowledge of the allocation algorithm*: it reads only
//! the allocator's output artifact ([`RaMap`]: each virtual register's
//! colour or spill slot) and cuts every block entry. Both sides are Virtual
//! x86 — the "input and output languages may be identical" case of the
//! paper's Fig. 5 discussion.

use keq_core::sync::{Relation, SyncSet, ValueExpr};
use keq_vx86::ast::{PhysReg, Reg, VxFunction, VxInstr};
use keq_vx86::sem::reg_key;

use crate::cut::{cut_sync_points, Correspondence, Havoc};
use crate::liveness::Call;
use crate::regalloc::{
    slot_width, RaMap, RegKey, POOL, RELOAD_SCRATCH, SCRATCH, SPILL_DEF_SCRATCH,
};
use crate::vcgen::{flag_havocs, VcOptions};

/// Havocs for the allocated side: the whole pool, every scratch register
/// (parallel-copy, reload, and spilled-definition), the argument registers,
/// and the flags.
fn right_havocs(pre: &VxFunction) -> Vec<Havoc> {
    let scratch = [SCRATCH, SPILL_DEF_SCRATCH].into_iter().chain(RELOAD_SCRATCH);
    let args = PhysReg::args().into_iter().take(pre.num_params);
    let mut h = flag_havocs();
    for p in POOL.into_iter().chain(scratch).chain(args) {
        if !h.iter().any(|(n, _)| n == p.name64()) {
            h.push((p.name64().to_owned(), 64));
        }
    }
    h
}

/// Where the allocated side keeps virtual register `id` (viewed at width
/// `w`): a slice of its color, or its spill slot.
fn location(map: &RaMap, id: u32, w: u32) -> Option<ValueExpr> {
    if let Some(color) = map.assignment.get(&id) {
        return Some(ValueExpr::RegSlice { name: color.name64().to_owned(), hi: w - 1, lo: 0 });
    }
    let (addr, width) = (*map.spills.get(&id)?, slot_width(*map.widths.get(&id)?));
    Some(ValueExpr::Slot { addr, width })
}

/// Generates the sync set for `pre` (SSA Virtual x86) against its allocated
/// form, given the allocator's assignment artifact.
pub fn regalloc_sync_points(pre: &VxFunction, post: &VxFunction, map: &RaMap) -> SyncSet {
    let mut set = cut_sync_points(&Regalloc { pre, post, map }, VcOptions::default());
    // The spill frame is private to the allocated side: its writes are
    // masked out of memory-equality obligations, and spilled values are
    // related explicitly via `ValueExpr::Slot` equalities instead.
    if let Some((base, size)) = map.spill_frame() {
        set.right_private.push(keq_semantics::MemRegion { name: "spill".into(), base, size });
    }
    set
}

/// Regalloc's correspondence: each virtual register's colour or spill
/// slot. Every block is cut; left states sit before a block's phis, right
/// states after the predecessor's destructed parallel copy.
struct Regalloc<'a> {
    pre: &'a VxFunction,
    post: &'a VxFunction,
    map: &'a RaMap,
}

impl Correspondence for Regalloc<'_> {
    type Left = VxFunction;
    type Right = VxFunction;

    fn sides(&self) -> (&VxFunction, &VxFunction) {
        (self.pre, self.post)
    }

    fn base(&self) -> Relation {
        Relation::havocking(flag_havocs(), right_havocs(self.pre))
    }

    /// Arguments arrive identically on both sides.
    fn entry(&self, rel: &mut Relation) {
        for p in PhysReg::args().iter().take(self.pre.num_params) {
            let key = p.name64();
            rel.left_havoc.push((key.to_owned(), 64));
            rel.equalities.push((ValueExpr::reg(key), ValueExpr::reg(key)));
        }
    }

    /// A maximal cut: cuts need not be minimal (paper §7).
    fn cut(&self) -> (&'static str, Vec<String>) {
        ("bb:", self.pre.blocks.iter().map(|b| b.name.clone()).collect())
    }

    fn right_edge(&self, block: &str, _pred: &str) -> (String, Option<String>) {
        (block.to_owned(), None)
    }

    fn locate(&self, key: &RegKey) -> Option<(Havoc, Option<Havoc>, ValueExpr)> {
        let RegKey::Virt(id) = *key else { return None };
        let w = self.map.widths.get(&id).copied().unwrap_or(64);
        Some(((reg_key(Reg::Virt(id, w)), w), None, location(self.map, id, w)?))
    }

    /// The left incoming register equals the right value already sitting in
    /// the destination's location. One incoming may feed several phis, so
    /// it is havocked once and related to each.
    fn phi_edge(&self, block: &str, pred: &str, rel: &mut Relation) {
        for i in self.pre.block(block).into_iter().flat_map(|b| &b.instrs) {
            let VxInstr::Phi { dst: Reg::Virt(did, dw), incomings } = i else { continue };
            for (src, p) in incomings {
                if p == pred && matches!(src, Reg::Virt(..)) {
                    let right =
                        location(self.map, *did, *dw).expect("every vreg is colored or spilled");
                    rel.havoc_left_once(&reg_key(*src), src.width());
                    rel.equalities.push((ValueExpr::Reg(reg_key(*src)), right));
                }
            }
        }
    }

    fn call_ret(&self, _call: &Call<RegKey>) -> Relation {
        let mut ret = Relation::havocking(vec![("rax".into(), 64)], Vec::new());
        ret.equalities.push((ValueExpr::reg("rax"), ValueExpr::reg("rax")));
        ret
    }
}
