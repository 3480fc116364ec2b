//! A small SSA builder for constructing LLVM IR functions
//! programmatically.
//!
//! Handles the fiddly parts of emitting structured control flow in SSA
//! form: fresh local names, block creation, and phi insertion at joins and
//! loop headers for a set of named mutable "slots" (the generator's stand-in
//! for source-level variables).

use std::collections::BTreeMap;

use keq_llvm::ast::{Block, Function, Instr, Operand, Terminator};
use keq_llvm::types::Type;

/// Incremental function builder.
#[derive(Debug)]
pub struct FnBuilder {
    name: String,
    ret_ty: Type,
    params: Vec<(String, Type)>,
    blocks: Vec<Block>,
    current: usize,
    counter: u32,
    /// Mutable slots: name → current SSA local holding its value.
    slots: BTreeMap<String, Operand>,
}

impl FnBuilder {
    /// Starts a function with an `entry` block.
    pub fn new(name: impl Into<String>, ret_ty: Type, params: Vec<(String, Type)>) -> Self {
        FnBuilder {
            name: name.into(),
            ret_ty,
            params,
            blocks: vec![Block {
                name: "entry".into(),
                instrs: Vec::new(),
                term: Terminator::Unreachable,
            }],
            current: 0,
            counter: 0,
            slots: BTreeMap::new(),
        }
    }

    /// A fresh local name.
    pub fn fresh(&mut self) -> String {
        self.counter += 1;
        format!("%t{}", self.counter)
    }

    /// Creates a new block and returns its name.
    pub fn new_block(&mut self, hint: &str) -> String {
        self.counter += 1;
        let name = format!("{hint}{}", self.counter);
        self.blocks.push(Block {
            name: name.clone(),
            instrs: Vec::new(),
            term: Terminator::Unreachable,
        });
        name
    }

    /// Switches emission to `block`.
    pub fn switch_to(&mut self, block: &str) {
        self.current = self.blocks.iter().position(|b| b.name == block).expect("block exists");
    }

    /// The name of the current block.
    pub fn current_block(&self) -> &str {
        &self.blocks[self.current].name
    }

    /// Appends an instruction to the current block.
    pub fn push(&mut self, instr: Instr) {
        self.blocks[self.current].instrs.push(instr);
    }

    /// Sets the terminator of the current block.
    pub fn terminate(&mut self, term: Terminator) {
        self.blocks[self.current].term = term;
    }

    /// Defines or updates a slot.
    pub fn set_slot(&mut self, slot: &str, value: Operand) {
        self.slots.insert(slot.to_owned(), value);
    }

    /// Reads a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is undefined (a generator bug).
    pub fn slot(&self, slot: &str) -> Operand {
        self.slots.get(slot).cloned().unwrap_or_else(|| panic!("undefined slot {slot}"))
    }

    /// Snapshot of all slot values (for join/loop phi insertion).
    pub fn snapshot(&self) -> BTreeMap<String, Operand> {
        self.slots.clone()
    }

    /// Restores a snapshot.
    pub fn restore(&mut self, snap: BTreeMap<String, Operand>) {
        self.slots = snap;
    }

    /// Inserts phis in the current block merging two slot snapshots arriving
    /// from `pred_a` and `pred_b`, updating the slots to the phi results.
    pub fn merge_slots(
        &mut self,
        ty: &Type,
        pred_a: &str,
        snap_a: &BTreeMap<String, Operand>,
        pred_b: &str,
        snap_b: &BTreeMap<String, Operand>,
    ) {
        let names: Vec<String> = snap_a.keys().cloned().collect();
        for slot in names {
            let a = snap_a[&slot].clone();
            // A slot born inside only one branch does not dominate the
            // join; drop it rather than leak an undominated definition.
            let Some(b) = snap_b.get(&slot).cloned() else {
                self.slots.remove(&slot);
                continue;
            };
            if a == b {
                self.slots.insert(slot, a);
                continue;
            }
            let dst = self.fresh();
            self.push(Instr::Phi {
                dst: dst.clone(),
                ty: ty.clone(),
                incomings: vec![(a, pred_a.to_owned()), (b, pred_b.to_owned())],
            });
            self.slots.insert(slot, Operand::Local(dst));
        }
        // Symmetrically, slots born only in the second branch are dropped.
        self.slots.retain(|k, _| snap_a.contains_key(k));
    }

    /// Creates loop-header phis for every slot, with the preheader incoming
    /// only; the latch incoming is patched in by
    /// [`FnBuilder::finish_loop_phis`] once the body exists. Slots are
    /// updated to the phi results. Returns `(slot, phi local)` pairs.
    pub fn begin_loop_phis(&mut self, ty: &Type, pre_block: &str) -> Vec<(String, String)> {
        let names: Vec<String> = self.slots.keys().cloned().collect();
        let mut phis = Vec::with_capacity(names.len());
        for slot in names {
            let init = self.slots[&slot].clone();
            let dst = self.fresh();
            self.push(Instr::Phi {
                dst: dst.clone(),
                ty: ty.clone(),
                incomings: vec![(init, pre_block.to_owned())],
            });
            self.slots.insert(slot.clone(), Operand::Local(dst.clone()));
            phis.push((slot, dst));
        }
        phis
    }

    /// Patches loop-header phis with the latch incoming (the slot values at
    /// the end of the loop body).
    ///
    /// # Panics
    ///
    /// Panics if a phi created by [`FnBuilder::begin_loop_phis`] cannot be
    /// found in `header`.
    pub fn finish_loop_phis(&mut self, header: &str, phis: &[(String, String)], latch_block: &str) {
        let latch_values: Vec<(String, Operand)> =
            phis.iter().map(|(slot, _)| (slot.clone(), self.slots[slot].clone())).collect();
        let block = self.blocks.iter_mut().find(|b| b.name == header).expect("loop header exists");
        for ((_, dst), (_, latch_val)) in phis.iter().zip(latch_values) {
            let phi = block
                .instrs
                .iter_mut()
                .find_map(|i| match i {
                    Instr::Phi { dst: d, incomings, .. } if d == dst => Some(incomings),
                    _ => None,
                })
                .expect("phi exists");
            phi.push((latch_val, latch_block.to_owned()));
        }
        // After the loop, the slots hold the phi values again.
        for (slot, dst) in phis {
            self.slots.insert(slot.clone(), Operand::Local(dst.clone()));
        }
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics if any block is left without a real terminator (other than
    /// deliberate `unreachable`s is fine — the generator never leaves
    /// dangling blocks).
    pub fn finish(self) -> Function {
        Function { name: self.name, ret_ty: self.ret_ty, params: self.params, blocks: self.blocks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_llvm::ast::BinOp;

    #[test]
    fn builds_a_diamond_with_phi() {
        let mut b = FnBuilder::new("f", Type::I32, vec![("%x".into(), Type::I32)]);
        b.set_slot("v", Operand::local("%x"));
        let cond = b.fresh();
        b.push(Instr::Icmp {
            pred: keq_llvm::ast::IcmpPred::Ult,
            ty: Type::I32,
            dst: cond.clone(),
            lhs: Operand::local("%x"),
            rhs: Operand::Const(10),
        });
        let then_b = b.new_block("then");
        let else_b = b.new_block("else");
        let join = b.new_block("join");
        b.terminate(Terminator::CondBr {
            cond: Operand::Local(cond),
            then_: then_b.clone(),
            else_: else_b.clone(),
        });
        let snap0 = b.snapshot();
        b.switch_to(&then_b);
        let t = b.fresh();
        b.push(Instr::Bin {
            op: BinOp::Add,
            nsw: false,
            ty: Type::I32,
            dst: t.clone(),
            lhs: b.slot("v"),
            rhs: Operand::Const(1),
        });
        b.set_slot("v", Operand::Local(t));
        b.terminate(Terminator::Br { target: join.clone() });
        let snap_then = b.snapshot();
        b.restore(snap0);
        b.switch_to(&else_b);
        b.terminate(Terminator::Br { target: join.clone() });
        let snap_else = b.snapshot();
        b.switch_to(&join);
        b.merge_slots(&Type::I32, &then_b, &snap_then, &else_b, &snap_else);
        let v = b.slot("v");
        b.terminate(Terminator::Ret { val: Some((Type::I32, v)) });
        let f = b.finish();
        assert_eq!(f.blocks.len(), 4);
        let join_block = f.block(&join).expect("exists");
        assert!(matches!(join_block.instrs[0], Instr::Phi { .. }));
        // It must actually run: v = x < 10 ? x + 1 : x.
        let m = keq_llvm::ast::Module { globals: vec![], functions: vec![f], declarations: vec![] };
        let r = keq_llvm::LlvmSemantics::new(&m, &m.functions[0]).run(&[5], 1000).expect("runs");
        assert!(matches!(r, keq_semantics::Outcome::Returned { ret: Some(6), .. }), "{r:?}");
    }
}
