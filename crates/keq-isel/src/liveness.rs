//! Live-variables analysis, once for every language a VC generator reads.
//!
//! The paper's VC generator relates "corresponding live registers in the
//! input and output" at loop entries and around call sites (§4.5), computed
//! "using a Live Variables static analysis". This is that analysis: a
//! standard backward dataflow fixpoint with SSA-aware phi handling (a phi's
//! incoming value is a use at the end of the corresponding predecessor; the
//! phi destination is a definition of its own block). It runs on any
//! [`Cfg`]: LLVM IR functions (keys are local names) for the ISel and GVN
//! generators, SSA Virtual x86 functions (keys are [`RegKey`]s) for the
//! register allocator and its black-box generator.

use std::collections::{BTreeMap, BTreeSet};

use keq_llvm::ast::{Block, Function, Instr, Operand, Terminator};
use keq_smt::{stop_requested, CancelToken};
use keq_vx86::ast::{PhysReg, VxBlock, VxFunction, VxInstr, VxTerm};

use crate::isel::{for_each_operand, visit_operand_locals};
use crate::regalloc::{uses_defs, RegKey};

/// The control-flow view liveness needs from a language.
pub trait Cfg {
    /// What can be live: an LLVM local's name, a Virtual x86 register.
    type Key: Ord + Clone;
    /// A basic block.
    type Block;
    /// A non-terminator instruction.
    type Instr;

    /// The blocks, in layout order.
    fn blocks(&self) -> &[Self::Block];
    /// A block's label.
    fn label(block: &Self::Block) -> &str;
    /// A block's successor labels.
    fn successors(block: &Self::Block) -> Vec<&str>;
    /// A block's instructions, terminator excluded.
    fn instrs(block: &Self::Block) -> &[Self::Instr];
    /// Steps `live` backward over `instr`: removes its definitions, then
    /// adds its uses (none for a phi, whose incoming values are uses of the
    /// predecessors).
    fn transfer(instr: &Self::Instr, live: &mut BTreeSet<Self::Key>);
    /// Adds the values `block`'s phis read along the edge from `pred`.
    fn phi_uses(block: &Self::Block, pred: &str, live: &mut BTreeSet<Self::Key>);
    /// Adds the uses of `block`'s terminator.
    fn term_uses(_block: &Self::Block, _live: &mut BTreeSet<Self::Key>) {}
    /// Adds what is live out of `block` whatever its successors (the
    /// return register at a return).
    fn live_out_seed(&self, _block: &Self::Block, _live: &mut BTreeSet<Self::Key>) {}

    /// The block labelled `label`.
    fn block(&self, label: &str) -> Option<&Self::Block> {
        self.blocks().iter().find(|b| Self::label(b) == label)
    }
}

/// Per-block live sets.
#[derive(Debug, Clone)]
pub struct Liveness<K> {
    /// Live at block entry (phi destinations excluded: they are defined at
    /// the block top; phi incoming values belong to the predecessors).
    pub live_in: BTreeMap<String, BTreeSet<K>>,
    /// Live at block exit (including successors' phi uses from this block).
    pub live_out: BTreeMap<String, BTreeSet<K>>,
}

impl<K: Ord + Clone> Liveness<K> {
    /// Runs the fixpoint.
    pub fn compute<C: Cfg<Key = K>>(cfg: &C) -> Self {
        Self::compute_cancellable(cfg, None).expect("uncancellable fixpoint cannot be cancelled")
    }

    /// Runs the fixpoint, polling the supervisor's cancellation flag once
    /// per sweep — the register allocator's only unbounded loop, so this
    /// is the poll site that keeps regalloc validation responsive to the
    /// harness's watchdog. `None` when the flag is raised mid-fixpoint.
    pub fn compute_cancellable<C: Cfg<Key = K>>(
        cfg: &C,
        cancel: Option<&CancelToken>,
    ) -> Option<Self> {
        let blocks = cfg.blocks();
        let position: BTreeMap<&str, usize> =
            blocks.iter().enumerate().rev().map(|(i, b)| (C::label(b), i)).collect();
        let succs: Vec<Vec<usize>> = blocks
            .iter()
            .map(|b| {
                C::successors(b).into_iter().filter_map(|s| position.get(s).copied()).collect()
            })
            .collect();
        let mut live_in = vec![BTreeSet::new(); blocks.len()];
        let mut live_out = vec![BTreeSet::new(); blocks.len()];
        let mut changed = true;
        while changed {
            if stop_requested(None, cancel).is_some() {
                return None;
            }
            changed = false;
            for (i, b) in blocks.iter().enumerate().rev() {
                let mut out = BTreeSet::new();
                cfg.live_out_seed(b, &mut out);
                for &s in &succs[i] {
                    out.extend(live_in[s].iter().cloned());
                    C::phi_uses(&blocks[s], C::label(b), &mut out);
                }
                let mut live = out.clone();
                C::term_uses(b, &mut live);
                for instr in C::instrs(b).iter().rev() {
                    C::transfer(instr, &mut live);
                }
                if live_out[i] != out {
                    live_out[i] = out;
                    changed = true;
                }
                if live_in[i] != live {
                    live_in[i] = live;
                    changed = true;
                }
            }
        }
        let by_label = |sets: Vec<BTreeSet<K>>| {
            blocks.iter().map(|b| C::label(b).to_owned()).zip(sets).collect()
        };
        Some(Liveness { live_in: by_label(live_in), live_out: by_label(live_out) })
    }

    /// Keys live immediately *after* instruction `index` of `block` (the
    /// live-across values of a call).
    pub fn live_after<C: Cfg<Key = K>>(&self, cfg: &C, block: &str, index: usize) -> BTreeSet<K> {
        let b = cfg.block(block).expect("block exists");
        let mut live = self.live_out.get(block).cloned().unwrap_or_default();
        C::term_uses(b, &mut live);
        for instr in C::instrs(b)[index + 1..].iter().rev() {
            C::transfer(instr, &mut live);
        }
        live
    }
}

/// Phi uses flowing along the edge `pred → block`.
pub fn phi_uses_from<C: Cfg>(cfg: &C, block: &str, pred: &str) -> BTreeSet<C::Key> {
    let mut uses = BTreeSet::new();
    if let Some(b) = cfg.block(block) {
        C::phi_uses(b, pred, &mut uses);
    }
    uses
}

/// Predecessors of each block.
pub fn predecessors<C: Cfg>(cfg: &C) -> BTreeMap<String, Vec<String>> {
    let mut preds: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for b in cfg.blocks() {
        for s in C::successors(b) {
            preds.entry(s.to_owned()).or_default().push(C::label(b).to_owned());
        }
    }
    preds
}

impl Cfg for Function {
    type Key = String;
    type Block = Block;
    type Instr = Instr;

    fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    fn label(block: &Block) -> &str {
        &block.name
    }

    fn successors(block: &Block) -> Vec<&str> {
        block.term.successors()
    }

    fn instrs(block: &Block) -> &[Instr] {
        &block.instrs
    }

    fn transfer(instr: &Instr, live: &mut BTreeSet<String>) {
        if let Some(d) = instr.dst() {
            live.remove(d);
        }
        if !matches!(instr, Instr::Phi { .. }) {
            for_each_operand(instr, &mut |op| visit_operand_locals(op, &mut |l| insert(live, l)));
        }
    }

    fn phi_uses(block: &Block, pred: &str, live: &mut BTreeSet<String>) {
        for i in &block.instrs {
            if let Instr::Phi { incomings, .. } = i {
                for (op, p) in incomings {
                    match op {
                        Operand::Local(l) if p == pred => insert(live, l),
                        _ => {}
                    }
                }
            }
        }
    }

    fn term_uses(block: &Block, live: &mut BTreeSet<String>) {
        if let Terminator::CondBr { cond: v, .. } | Terminator::Ret { val: Some((_, v)) } =
            &block.term
        {
            visit_operand_locals(v, &mut |l| insert(live, l));
        }
    }
}

fn insert(live: &mut BTreeSet<String>, local: &str) {
    if !live.contains(local) {
        live.insert(local.to_owned());
    }
}

impl Cfg for VxFunction {
    type Key = RegKey;
    type Block = VxBlock;
    type Instr = VxInstr;

    fn blocks(&self) -> &[VxBlock] {
        &self.blocks
    }

    fn label(block: &VxBlock) -> &str {
        &block.name
    }

    fn successors(block: &VxBlock) -> Vec<&str> {
        block.term.successors()
    }

    fn instrs(block: &VxBlock) -> &[VxInstr] {
        &block.instrs
    }

    fn transfer(instr: &VxInstr, live: &mut BTreeSet<RegKey>) {
        let (uses, defs) = uses_defs(instr);
        for d in defs {
            live.remove(&d);
        }
        live.extend(uses);
    }

    fn phi_uses(block: &VxBlock, pred: &str, live: &mut BTreeSet<RegKey>) {
        for i in &block.instrs {
            if let VxInstr::Phi { incomings, .. } = i {
                live.extend(
                    incomings.iter().filter(|(_, p)| p == pred).map(|(r, _)| RegKey::of(*r)),
                );
            }
        }
    }

    fn live_out_seed(&self, block: &VxBlock, live: &mut BTreeSet<RegKey>) {
        if self.ret_width.is_some() && matches!(block.term, VxTerm::Ret) {
            live.insert(RegKey::Phys(PhysReg::Rax));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_llvm::parser::parse_function;

    #[test]
    fn loop_liveness_of_running_example() {
        let f = parse_function(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
        let lv = Liveness::compute(&f);
        let cond_in = &lv.live_in["for.cond"];
        // %n and %d are live across the loop; the phi values are defs.
        assert!(cond_in.contains("%n"), "{cond_in:?}");
        assert!(cond_in.contains("%d"), "{cond_in:?}");
        assert!(!cond_in.contains("%s.0"), "phi defs excluded: {cond_in:?}");
        // Entry edge carries %a0 (phi incoming) to for.cond.
        let uses = phi_uses_from(&f, "for.cond", "entry");
        assert!(uses.contains("%a0"), "{uses:?}");
        // for.inc edge carries %add, %add1, %inc.
        let uses = phi_uses_from(&f, "for.cond", "for.inc");
        assert_eq!(
            uses,
            ["%add", "%add1", "%inc"].iter().map(|s| s.to_string()).collect()
        );
    }

    #[test]
    fn predecessors_of_running_example() {
        let f = parse_function(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
        let preds = predecessors(&f);
        assert_eq!(preds["for.cond"], vec!["entry".to_owned(), "for.inc".to_owned()]);
        assert_eq!(preds["for.end"], vec!["for.cond".to_owned()]);
    }

    #[test]
    fn live_after_call() {
        let src = r#"
define i32 @f(i32 %x, i32 %y) {
  %a = add i32 %x, %y
  %r = call i32 @g(i32 %a)
  %b = add i32 %r, %y
  ret i32 %b
}
"#;
        let f = parse_function(src).expect("parses");
        let lv = Liveness::compute(&f);
        let after = lv.live_after(&f, "entry", 1);
        assert!(after.contains("%r"), "{after:?}");
        assert!(after.contains("%y"), "{after:?}");
        assert!(!after.contains("%a"), "dead after the call: {after:?}");
        assert!(!after.contains("%x"), "{after:?}");
    }

    #[test]
    fn straightline_live_in_is_params_used() {
        let src = "define i32 @f(i32 %x, i32 %y) {\n %a = add i32 %x, %x\n ret i32 %a\n}";
        let f = parse_function(src).expect("parses");
        let lv = Liveness::compute(&f);
        let inn = &lv.live_in["entry"];
        assert!(inn.contains("%x"));
        assert!(!inn.contains("%y"), "unused param not live");
    }
}
