//! The synchronization-point generator (paper §4.5).
//!
//! From the compiler hints (register correspondence, block map, loop
//! headers, call sites) and the liveness analysis, produce the `SyncSet`
//! given to KEQ:
//!
//! * **function entry and exit** — equalities from the calling convention;
//! * **loop entries, one per predecessor** — equalities between
//!   corresponding live registers plus the phi-incoming values (constants
//!   relate to the registers ISel materialized them in, the paper's
//!   `1 = %vr9_32`);
//! * **call sites** — an arrival point before each call relating arguments
//!   and live-across registers, and a start point after it relating the
//!   return value;
//! * **memory** — every point carries the whole-memory equality constraint.

use std::collections::BTreeMap;

use keq_core::sync::{Relation, SyncPoint, SyncSet, ValueExpr};
use keq_llvm::ast::{Function, Instr, Operand};
use keq_llvm::types::Type;
use keq_vx86::sem::reg_key;

use crate::isel::{Hints, IselOutput};
use crate::liveness::{phi_uses_from, predecessors, Liveness};

/// VC-generation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct VcOptions {
    /// Emulates the paper's "inadequate synchronization points" failure
    /// class: the liveness information used for loop points silently drops
    /// one register pair, so a needed equality is missing downstream.
    pub imprecise_liveness: bool,
}

/// The four x86 condition flags, havocked (as booleans) at every start
/// point on a Virtual x86 side.
pub(crate) fn flag_havocs() -> Vec<(String, u32)> {
    ["zf", "sf", "cf", "of"].iter().map(|f| (f.to_string(), 0)).collect()
}

/// Value widths (in LLVM bits) of every local in the function.
pub(crate) fn local_types(func: &Function) -> BTreeMap<String, u32> {
    let mut m = BTreeMap::new();
    for (p, ty) in &func.params {
        m.insert(p.clone(), ty.value_bits());
    }
    for b in &func.blocks {
        for i in &b.instrs {
            if let Some(d) = i.dst() {
                let w = match i {
                    Instr::Bin { ty, .. } | Instr::Phi { ty, .. } | Instr::Load { ty, .. } => {
                        ty.value_bits()
                    }
                    Instr::Icmp { .. } => 1,
                    Instr::Alloca { .. } | Instr::Gep { .. } => 64,
                    Instr::Cast { to_ty, .. } => to_ty.value_bits(),
                    Instr::Call { ret_ty, .. } => match ret_ty {
                        Type::Void => continue,
                        ty => ty.value_bits(),
                    },
                    Instr::Store { .. } => continue,
                };
                m.insert(d.to_owned(), w);
            }
        }
    }
    m
}

/// Generates the synchronization points for a translation instance.
pub fn generate_sync_points(func: &Function, out: &IselOutput, opts: VcOptions) -> SyncSet {
    let hints = &out.hints;
    let lv = Liveness::compute(func);
    let types = local_types(func);
    let preds = predecessors(func);
    let mut set = SyncSet::new();

    set.push(entry_point(func, hints));
    set.push(SyncPoint::exit("p_exit", hints.ret_width.is_some()));

    for header in &hints.loop_headers {
        for pred in preds.get(header).into_iter().flatten() {
            set.push(loop_point(func, hints, &lv, &types, header, pred, opts));
        }
    }

    for cs in &hints.call_sites {
        set.points.extend(call_points(func, hints, &lv, &types, cs, opts));
    }
    set
}

fn entry_point(func: &Function, hints: &Hints) -> SyncPoint {
    let mut rel = Relation::havocking(Vec::new(), flag_havocs());
    for ((name, ty), (hname, w, phys)) in func.params.iter().zip(&hints.params) {
        debug_assert_eq!(name, hname);
        let key = phys.name64();
        rel.left_havoc.push((name.clone(), ty.value_bits()));
        rel.havoc_right_once(key, 64);
        rel.equalities.push((
            ValueExpr::Reg(name.clone()),
            ValueExpr::RegSlice { name: key.to_owned(), hi: w - 1, lo: 0 },
        ));
    }
    SyncPoint::entry("p0", func.entry().name.clone(), "LBB0", rel)
}

#[allow(clippy::too_many_arguments)]
fn loop_point(
    func: &Function,
    hints: &Hints,
    lv: &Liveness<String>,
    types: &BTreeMap<String, u32>,
    header: &str,
    pred: &str,
    opts: VcOptions,
) -> SyncPoint {
    let mut rel = Relation::havocking(Vec::new(), flag_havocs());
    // Ordinary live-in registers, then the phi-incoming values along this
    // edge.
    let edge_uses = phi_uses_from(func, header, pred);
    for local in lv.live_in.get(header).into_iter().flatten().chain(&edge_uses) {
        let (Some(&w), Some(&vx)) = (types.get(local), hints.reg_map.get(local)) else {
            continue;
        };
        if rel.havoc_left_once(local, w) {
            rel.right_havoc.push((reg_key(vx), vx.width()));
            rel.equalities.push((ValueExpr::Reg(local.clone()), ValueExpr::Reg(reg_key(vx))));
        }
    }
    // Constant incomings: pin the register ISel materialized them in.
    for i in func.block(header).into_iter().flat_map(|b| &b.instrs) {
        let Instr::Phi { dst, ty, incomings } = i else { continue };
        for (op, p) in incomings {
            let Operand::Const(c) = op else { continue };
            if p != pred {
                continue;
            }
            if let Some((cv, reg)) = hints.phi_const_regs.get(&(dst.clone(), p.clone())) {
                debug_assert_eq!(cv, c);
                rel.right_havoc.push((reg_key(*reg), reg.width()));
                rel.equalities.push((
                    ValueExpr::Const { value: *c as u128, width: ty.value_bits() },
                    ValueExpr::Reg(reg_key(*reg)),
                ));
            }
        }
    }
    if opts.imprecise_liveness {
        // Simulate a liveness bug: silently forget the last relation.
        rel.equalities.pop();
    }
    SyncPoint::block_entry(
        format!("loop:{header}<-{pred}"),
        (header, Some(pred)),
        (&hints.block_map[header], Some(&hints.block_map[pred])),
        rel,
    )
}

fn call_points(
    func: &Function,
    hints: &Hints,
    lv: &Liveness<String>,
    types: &BTreeMap<String, u32>,
    cs: &crate::isel::CallSite,
    opts: VcOptions,
) -> [SyncPoint; 2] {
    // Live-across locals (excluding the call result, which is born at the
    // return).
    let mut live: Vec<String> = lv
        .live_after(func, &cs.llvm_loc.0, cs.llvm_loc.1)
        .into_iter()
        .filter(|l| cs.ret.as_ref().map(|(r, _)| r) != Some(l))
        .collect();
    if opts.imprecise_liveness {
        live.pop();
    }
    let mut across = Relation::havocking(Vec::new(), flag_havocs());
    for l in &live {
        let (Some(&w), Some(&vx)) = (types.get(l), hints.reg_map.get(l)) else { continue };
        across.left_havoc.push((l.clone(), w));
        across.right_havoc.push((reg_key(vx), vx.width()));
        across.equalities.push((ValueExpr::Reg(l.clone()), ValueExpr::Reg(reg_key(vx))));
    }
    let mut ret = Relation::default();
    if let Some((r, w)) = &cs.ret {
        ret.left_havoc.push((r.clone(), types.get(r).copied().unwrap_or(*w)));
        ret.right_havoc.push(("rax".into(), 64));
        ret.equalities.push((
            ValueExpr::Reg(r.clone()),
            ValueExpr::RegSlice { name: "rax".into(), hi: w - 1, lo: 0 },
        ));
    }
    SyncPoint::call_pair(
        &cs.callee,
        cs.nth,
        (&cs.llvm_loc.0, cs.llvm_loc.1),
        (&cs.vx_loc.0, cs.vx_loc.1),
        cs.num_args,
        across,
        ret,
    )
}

/// Renders the Fig. 3-style table of a sync set (for examples and the
/// `fig3_sync_points` bench).
pub fn render_sync_table(set: &SyncSet) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{:<18} {:<22} {:<22} Equality Constraints", "Sync Point", "Left", "Right");
    for p in set.iter() {
        let eqs: Vec<String> = p
            .equalities
            .iter()
            .map(|(a, b)| format!("{} = {}", render_expr(a), render_expr(b)))
            .collect();
        let _ = writeln!(
            s,
            "{:<18} {:<22} {:<22} {}",
            p.name,
            p.left.pattern.to_string(),
            p.right.pattern.to_string(),
            eqs.join(", ")
        );
    }
    s
}

fn render_expr(e: &ValueExpr) -> String {
    match e {
        ValueExpr::Reg(r) => r.clone(),
        ValueExpr::RegSlice { name, hi, lo } => {
            if *lo == 0 && *hi == 31 {
                // Render the conventional 32-bit view name.
                match keq_vx86::ast::PhysReg::parse(name) {
                    Some((p, _)) => p.view_name(32),
                    None => format!("{name}[{hi}:{lo}]"),
                }
            } else {
                format!("{name}[{hi}:{lo}]")
            }
        }
        ValueExpr::Const { value, .. } => format!("{value}"),
        ValueExpr::Ret => "<ret>".into(),
        ValueExpr::Arg(i) => format!("<arg{i}>"),
        ValueExpr::Slot { addr, width } => format!("[{addr:#x}]:{width}"),
    }
}
