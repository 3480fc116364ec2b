//! The ISel synchronization-point generator (paper §4.5).
//!
//! ISel's `Correspondence` reads the compiler hints: each local's virtual
//! register, the block map, the registers holding materialized phi
//! constants (the paper's `1 = %vr9_32`) and the lowered call locations.
//! The loop headers are cut; `cut_sync_points` walks the cut.

use std::collections::BTreeMap;

use keq_core::sync::{Relation, SyncSet, ValueExpr};
use keq_llvm::ast::{Function, Instr, Operand};
use keq_llvm::types::Type;
use keq_vx86::ast::VxFunction;
use keq_vx86::sem::reg_key;

use crate::cut::{cut_sync_points, Correspondence, Havoc, RightKey};
use crate::isel::{loop_headers, result_type, IselOutput};
use crate::liveness::{phi_uses_from, Call};

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
    let defs = func.blocks.iter().flat_map(|b| &b.instrs).filter_map(|i| {
        let ty = result_type(i).filter(|ty| *ty != Type::Void)?;
        Some((i.dst()?.to_owned(), ty.value_bits()))
    });
    func.params.iter().map(|(p, ty)| (p.clone(), ty.value_bits())).chain(defs).collect()
}

/// Generates the synchronization points for a translation instance.
pub fn generate_sync_points(func: &Function, out: &IselOutput, opts: VcOptions) -> SyncSet {
    cut_sync_points(&Isel { func, out, types: local_types(func) }, opts)
}

/// ISel's correspondence: the hinted register of each local, and the
/// registers that hold materialized phi constants.
struct Isel<'a> {
    func: &'a Function,
    out: &'a IselOutput,
    types: BTreeMap<String, u32>,
}

impl Correspondence for Isel<'_> {
    type Left = Function;
    type Right = VxFunction;

    fn sides(&self) -> (&Function, &VxFunction) {
        (self.func, &self.out.func)
    }

    fn base(&self) -> Relation {
        Relation::havocking(Vec::new(), flag_havocs())
    }

    fn entry(&self, rel: &mut Relation) {
        for ((name, ty), (_, w, phys)) in self.func.params.iter().zip(&self.out.hints.params) {
            let key = phys.name64().to_owned();
            rel.left_havoc.push((name.clone(), ty.value_bits()));
            rel.havoc_right_once(&key, 64);
            let right = ValueExpr::RegSlice { name: key, hi: w - 1, lo: 0 };
            rel.equalities.push((ValueExpr::Reg(name.clone()), right));
        }
    }

    fn cut(&self) -> (&'static str, Vec<String>) {
        ("loop:", loop_headers(self.func))
    }

    fn right_edge(&self, header: &str, pred: &str) -> (String, Option<String>) {
        (self.out.hints.block_map[header].clone(), Some(self.out.hints.block_map[pred].clone()))
    }

    fn locate(&self, local: &String) -> Option<(Havoc, Option<Havoc>, ValueExpr)> {
        let (&w, &vx) = (self.types.get(local)?, self.out.hints.reg_map.get(local)?);
        Some(((local.clone(), w), Some((reg_key(vx), vx.width())), ValueExpr::Reg(reg_key(vx))))
    }

    fn phi_edge(&self, header: &str, pred: &str, rel: &mut Relation) {
        for local in &phi_uses_from(self.func, header, pred) {
            self.relate(rel, local);
        }
        // Constant incomings: pin the register ISel materialized them in.
        for i in self.func.block(header).into_iter().flat_map(|b| &b.instrs) {
            let Instr::Phi { dst, ty, incomings } = i else { continue };
            for (op, p) in incomings.iter().filter(|(_, p)| p == pred) {
                let Operand::Const(c) = op else { continue };
                if let Some((_, reg)) = self.out.hints.phi_const_regs.get(&(dst.clone(), p.clone()))
                {
                    rel.right_havoc.push((reg_key(*reg), reg.width()));
                    let value = ValueExpr::Const { value: *c as u128, width: ty.value_bits() };
                    rel.equalities.push((value, ValueExpr::Reg(reg_key(*reg))));
                }
            }
        }
    }

    fn call_ret(&self, call: &Call<String>) -> Relation {
        let mut ret = Relation::default();
        // The result arrives in `rax`, viewed at the width of its register.
        if let Some(((r, w), Some((_, xw)), _)) = call.result.as_ref().and_then(|r| self.locate(r))
        {
            ret.left_havoc.push((r.clone(), w));
            ret.right_havoc.push(("rax".into(), 64));
            ret.equalities.push((
                ValueExpr::Reg(r),
                ValueExpr::RegSlice { name: "rax".into(), hi: xw - 1, lo: 0 },
            ));
        }
        ret
    }

    /// The hinted location of the `i`-th call. It is recorded before
    /// `merge_stores` runs, so it is stale when a store earlier in its block
    /// was merged away (CHANGES.md, FOUND); the benchmark's answer keys pin the
    /// verdicts that follow from it.
    fn right_call_loc(&self, i: usize, _: &Call<RightKey<Self>>) -> (String, usize) {
        self.out.hints.call_sites[i].clone()
    }
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
