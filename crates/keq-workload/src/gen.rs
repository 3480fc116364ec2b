//! The corpus generator.

use keq_prng::Prng;

use keq_llvm::ast::{BinOp, Global, IcmpPred, Instr, Module, Operand, Terminator};
use keq_llvm::types::Type;

use crate::builder::FnBuilder;

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// RNG seed (the corpus is fully determined by seed + config).
    pub seed: u64,
    /// Maximum statement-tree nesting depth.
    pub max_depth: u32,
    /// Baseline statements per sequence.
    pub base_stmts: usize,
    /// Allow counted loops.
    pub loops: bool,
    /// Allow external calls.
    pub calls: bool,
    /// Allow stack-array traffic.
    pub memory: bool,
    /// Allow constant stores to globals (exercises store merging).
    pub global_stores: bool,
    /// Allow division (brings UB error states into play).
    pub division: bool,
    /// Allow `nsw` arithmetic (source-UB; validates as refinement).
    pub nsw: bool,
    /// High-register-pressure profile: pin this many extra temporaries
    /// live across the whole function body (0 = off). Each is defined in
    /// the entry block and consumed only in the final return mix, so they
    /// are all simultaneously live everywhere — a pool smaller than
    /// `pressure` plus the working set forces the allocator to spill.
    pub pressure: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            seed: 0,
            max_depth: 3,
            base_stmts: 4,
            loops: true,
            calls: true,
            memory: true,
            global_stores: true,
            division: true,
            nsw: false,
            pressure: 0,
        }
    }
}

/// Generates a module with `n` functions plus the shared globals.
pub fn generate_corpus(cfg: GenConfig, n: usize) -> Module {
    let mut functions = Vec::with_capacity(n);
    for i in 0..n {
        functions.push(generate_function(cfg, i));
    }
    Module {
        globals: vec![
            Global {
                name: "g0".into(),
                ty: Type::Array(16, Box::new(Type::I8)),
                external: true,
                init: None,
            },
            Global { name: "g1".into(), ty: Type::I32, external: true, init: None },
        ],
        functions,
        declarations: vec![("ext".into(), Type::I32, vec![Type::I32, Type::I32])],
    }
}

/// Generates function `index` of the corpus (deterministic in
/// `cfg.seed + index`).
pub fn generate_function(cfg: GenConfig, index: usize) -> keq_llvm::ast::Function {
    let mut rng = Prng::seed_from_u64(cfg.seed.wrapping_add(index as u64 * 0x9e37_79b9));
    // Long-tailed size: most functions are small, a few are much larger
    // (the Fig. 7 shape).
    let tail: usize = if rng.random_ratio(1, 12) { rng.random_range(10..40) } else { 0 };
    let stmts = cfg.base_stmts + rng.random_range(0..4) + tail;
    let nparams = rng.random_range(2..=4usize);
    let params: Vec<(String, Type)> = (0..nparams).map(|i| (format!("%p{i}"), Type::I32)).collect();
    let mut b = FnBuilder::new(format!("fn{index}"), Type::I32, params.clone());
    let mut g = Gen { cfg, rng, buf: None };
    // The stack buffer is allocated up front in the entry block so that
    // every later use is dominated by the definition.
    if cfg.memory {
        let buf = b.fresh();
        b.push(Instr::Alloca { dst: buf.clone(), ty: Type::Array(4, Box::new(Type::I32)) });
        g.buf = Some(buf);
    }
    // Slots seeded from the parameters.
    for (i, slot) in ["a", "b", "c"].iter().enumerate() {
        let p = params[i % nparams].0.clone();
        b.set_slot(slot, Operand::Local(p));
    }
    // Pressure pins: defined before the body, consumed only after it, so
    // every pin stays live across everything the body does.
    let pinned: Vec<String> = (0..cfg.pressure)
        .map(|k| {
            let p = params[k % nparams].0.clone();
            g.binop(&mut b, BinOp::Add, Operand::Local(p), Operand::Const(1 + k as i128))
        })
        .collect();
    g.seq(&mut b, stmts, cfg.max_depth);
    // Return a mix of the slots (and every pressure pin).
    let (va, vb, vc) = (b.slot("a"), b.slot("b"), b.slot("c"));
    let t1 = g.binop(&mut b, BinOp::Add, va, vb);
    let mut ret = Operand::Local(g.binop(&mut b, BinOp::Xor, Operand::Local(t1), vc));
    for t in pinned {
        ret = Operand::Local(g.binop(&mut b, BinOp::Xor, ret, Operand::Local(t)));
    }
    b.terminate(Terminator::Ret { val: Some((Type::I32, ret)) });
    b.finish()
}

struct Gen {
    cfg: GenConfig,
    rng: Prng,
    /// The function's stack buffer (allocated lazily, once).
    buf: Option<String>,
}

const SLOTS: [&str; 3] = ["a", "b", "c"];

impl Gen {
    fn slot_name(&mut self) -> &'static str {
        SLOTS[self.rng.random_range(0..SLOTS.len())]
    }

    fn seq(&mut self, b: &mut FnBuilder, stmts: usize, depth: u32) {
        for _ in 0..stmts {
            self.stmt(b, depth);
        }
    }

    fn stmt(&mut self, b: &mut FnBuilder, depth: u32) {
        let choice = self.rng.random_range(0..100u32);
        match choice {
            _ if choice < 40 => self.assign(b),
            _ if choice < 55 && depth > 0 => self.if_else(b, depth),
            _ if choice < 68 && depth > 0 && self.cfg.loops => self.counted_loop(b, depth),
            _ if choice < 76 && self.cfg.memory => self.memory_roundtrip(b),
            _ if choice < 84 && self.cfg.global_stores => self.global_stores(b),
            _ if choice < 90 && self.cfg.calls => self.call(b),
            _ if choice < 95 && self.cfg.division => self.division(b),
            _ => self.assign(b),
        }
    }

    fn expr(&mut self, b: &mut FnBuilder) -> Operand {
        match self.rng.random_range(0..10u32) {
            0..=4 => b.slot(self.slot_name()),
            5..=7 => Operand::Const(i128::from(self.rng.random_range(-64i32..64))),
            8 => {
                let op = self.pick_binop();
                let l = b.slot(self.slot_name());
                let r = b.slot(self.slot_name());
                Operand::Local(self.binop(b, op, l, r))
            }
            _ => {
                // Comparison materialized through zext.
                let pred = self.pick_pred();
                let l = b.slot(self.slot_name());
                let r = self.expr_simple(b);
                let c = b.fresh();
                b.push(Instr::Icmp { pred, ty: Type::I32, dst: c.clone(), lhs: l, rhs: r });
                let z = b.fresh();
                b.push(Instr::Cast {
                    kind: keq_llvm::ast::CastKind::Zext,
                    dst: z.clone(),
                    from_ty: Type::I1,
                    val: Operand::Local(c),
                    to_ty: Type::I32,
                });
                Operand::Local(z)
            }
        }
    }

    fn expr_simple(&mut self, b: &mut FnBuilder) -> Operand {
        if self.rng.random_bool(0.5) {
            b.slot(self.slot_name())
        } else {
            Operand::Const(i128::from(self.rng.random_range(-64i32..64)))
        }
    }

    fn pick_binop(&mut self) -> BinOp {
        const OPS: [BinOp; 8] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Lshr,
        ];
        OPS[self.rng.random_range(0..OPS.len())]
    }

    fn pick_pred(&mut self) -> IcmpPred {
        const PREDS: [IcmpPred; 6] = [
            IcmpPred::Eq,
            IcmpPred::Ne,
            IcmpPred::Ult,
            IcmpPred::Ule,
            IcmpPred::Slt,
            IcmpPred::Sge,
        ];
        PREDS[self.rng.random_range(0..PREDS.len())]
    }

    fn binop(&mut self, b: &mut FnBuilder, op: BinOp, lhs: Operand, rhs: Operand) -> String {
        // Shift amounts are masked to stay in range.
        let rhs = if matches!(op, BinOp::Shl | BinOp::Lshr | BinOp::Ashr) {
            let m = b.fresh();
            b.push(Instr::Bin {
                op: BinOp::And,
                nsw: false,
                ty: Type::I32,
                dst: m.clone(),
                lhs: rhs,
                rhs: Operand::Const(31),
            });
            Operand::Local(m)
        } else {
            rhs
        };
        let dst = b.fresh();
        let nsw = self.cfg.nsw
            && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
            && self.rng.random_bool(0.25);
        b.push(Instr::Bin { op, nsw, ty: Type::I32, dst: dst.clone(), lhs, rhs });
        dst
    }

    fn assign(&mut self, b: &mut FnBuilder) {
        let op = self.pick_binop();
        let l = self.expr(b);
        let r = self.expr_simple(b);
        let dst = self.binop(b, op, l, r);
        let slot = self.slot_name();
        b.set_slot(slot, Operand::Local(dst));
    }

    fn if_else(&mut self, b: &mut FnBuilder, depth: u32) {
        let pred = self.pick_pred();
        let l = b.slot(self.slot_name());
        let r = self.expr_simple(b);
        let c = b.fresh();
        b.push(Instr::Icmp { pred, ty: Type::I32, dst: c.clone(), lhs: l, rhs: r });
        let then_b = b.new_block("then");
        let else_b = b.new_block("else");
        let join = b.new_block("join");
        b.terminate(Terminator::CondBr {
            cond: Operand::Local(c),
            then_: then_b.clone(),
            else_: else_b.clone(),
        });
        let base = b.snapshot();
        b.switch_to(&then_b);
        let n = self.rng.random_range(1..=2);
        self.seq(b, n, depth - 1);
        let then_exit = b.current_block().to_owned();
        b.terminate(Terminator::Br { target: join.clone() });
        let then_snap = b.snapshot();
        b.restore(base.clone());
        b.switch_to(&else_b);
        if self.rng.random_bool(0.7) {
            self.seq(b, 1, depth - 1);
        }
        let else_exit = b.current_block().to_owned();
        b.terminate(Terminator::Br { target: join.clone() });
        let else_snap = b.snapshot();
        b.switch_to(&join);
        b.merge_slots(&Type::I32, &then_exit, &then_snap, &else_exit, &else_snap);
    }

    fn counted_loop(&mut self, b: &mut FnBuilder, depth: u32) {
        // Bound the trip count so concrete differential runs terminate.
        let bound_src = b.slot(self.slot_name());
        let bound = b.fresh();
        b.push(Instr::Bin {
            op: BinOp::And,
            nsw: false,
            ty: Type::I32,
            dst: bound.clone(),
            lhs: bound_src,
            rhs: Operand::Const(7),
        });
        b.set_slot("i", Operand::Const(0));
        let pre = b.current_block().to_owned();
        let header = b.new_block("loop");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.terminate(Terminator::Br { target: header.clone() });
        b.switch_to(&header);
        let phis = b.begin_loop_phis(&Type::I32, &pre);
        let c = b.fresh();
        b.push(Instr::Icmp {
            pred: IcmpPred::Ult,
            ty: Type::I32,
            dst: c.clone(),
            lhs: b.slot("i"),
            rhs: Operand::Local(bound),
        });
        b.terminate(Terminator::CondBr {
            cond: Operand::Local(c),
            then_: body.clone(),
            else_: exit.clone(),
        });
        b.switch_to(&body);
        let n = self.rng.random_range(1..=2);
        self.seq(b, n, depth - 1);
        let inc = self.binop(b, BinOp::Add, b.slot("i"), Operand::Const(1));
        b.set_slot("i", Operand::Local(inc));
        let latch = b.current_block().to_owned();
        b.terminate(Terminator::Br { target: header.clone() });
        b.finish_loop_phis(&header, &phis, &latch);
        b.switch_to(&exit);
    }

    fn memory_roundtrip(&mut self, b: &mut FnBuilder) {
        let buf = self.buf.clone().expect("buffer allocated at entry");
        // idx = slot & 3 (always in bounds).
        let src = b.slot(self.slot_name());
        let masked = self.binop(b, BinOp::And, src, Operand::Const(3));
        let idx64 = b.fresh();
        b.push(Instr::Cast {
            kind: keq_llvm::ast::CastKind::Zext,
            dst: idx64.clone(),
            from_ty: Type::I32,
            val: Operand::Local(masked),
            to_ty: Type::I64,
        });
        let p = b.fresh();
        b.push(Instr::Gep {
            dst: p.clone(),
            base_ty: Type::Array(4, Box::new(Type::I32)),
            ptr: Operand::Local(buf),
            indices: vec![(Type::I64, Operand::Const(0)), (Type::I64, Operand::Local(idx64))],
        });
        let val = b.slot(self.slot_name());
        b.push(Instr::Store { ty: Type::I32, val, ptr: Operand::Local(p.clone()) });
        let back = b.fresh();
        b.push(Instr::Load { dst: back.clone(), ty: Type::I32, ptr: Operand::Local(p) });
        let slot = self.slot_name();
        b.set_slot(slot, Operand::Local(back));
    }

    fn global_stores(&mut self, b: &mut FnBuilder) {
        // 1-3 constant stores at constant offsets of @g0 — the shape the
        // store-merging optimization targets.
        let n = self.rng.random_range(1..=3usize);
        for _ in 0..n {
            let width = if self.rng.random_bool(0.5) { Type::I16 } else { Type::I8 };
            let max_off = 16 - width.store_bytes() as i128;
            let off = i128::from(self.rng.random_range(0..=max_off as i64));
            let val = i128::from(self.rng.random_range(0..256i64));
            let ptr = Operand::Expr(Box::new(keq_llvm::ast::ConstExpr::Bitcast {
                from_ty: Type::I8.ptr_to(),
                value: Operand::Expr(Box::new(keq_llvm::ast::ConstExpr::Gep {
                    base_ty: Type::Array(16, Box::new(Type::I8)),
                    base: Operand::Global("g0".into()),
                    indices: vec![(Type::I64, Operand::Const(0)), (Type::I64, Operand::Const(off))],
                })),
                to_ty: width.clone().ptr_to(),
            }));
            b.push(Instr::Store { ty: width, val: Operand::Const(val), ptr });
        }
    }

    fn call(&mut self, b: &mut FnBuilder) {
        let dst = b.fresh();
        let a1 = b.slot(self.slot_name());
        let a2 = self.expr_simple(b);
        b.push(Instr::Call {
            dst: Some(dst.clone()),
            ret_ty: Type::I32,
            callee: "ext".into(),
            args: vec![(Type::I32, a1), (Type::I32, a2)],
        });
        let slot = self.slot_name();
        b.set_slot(slot, Operand::Local(dst));
    }

    fn division(&mut self, b: &mut FnBuilder) {
        // Divisor forced nonzero by OR-ing in a low bit, exercising the
        // UB error branches without making every input trap.
        let raw = b.slot(self.slot_name());
        let nz = self.binop(b, BinOp::Or, raw, Operand::Const(1));
        let op = if self.rng.random_bool(0.5) { BinOp::Udiv } else { BinOp::Urem };
        let l = b.slot(self.slot_name());
        let dst = self.binop(b, op, l, Operand::Local(nz));
        let slot = self.slot_name();
        b.set_slot(slot, Operand::Local(dst));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_llvm::LlvmSemantics;

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus(GenConfig::default(), 5);
        let b = generate_corpus(GenConfig::default(), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn generated_functions_print_and_reparse() {
        let m = generate_corpus(GenConfig::default(), 20);
        let text = m.to_string();
        let m2 = keq_llvm::parser::parse_module(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        assert_eq!(m.functions.len(), m2.functions.len());
    }

    #[test]
    fn generated_functions_run_without_malformed_traps() {
        let m = generate_corpus(GenConfig::default(), 30);
        for f in &m.functions {
            let args: Vec<u128> = (0..f.params.len()).map(|i| 3 + i as u128).collect();
            // UB error states are legitimate program behavior; a malformed
            // program is a semantics error.
            if let Err(e) = LlvmSemantics::new(&m, f).run(&args, 100_000) {
                panic!("{} is malformed: {e}\n{f}", f.name)
            }
        }
    }

    #[test]
    fn pressure_profile_functions_print_reparse_and_run() {
        let cfg = GenConfig { seed: 9, pressure: 12, ..GenConfig::default() };
        let m = generate_corpus(cfg, 10);
        let text = m.to_string();
        keq_llvm::parser::parse_module(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        for f in &m.functions {
            let args: Vec<u128> = (0..f.params.len()).map(|i| 5 + i as u128).collect();
            if let Err(e) = LlvmSemantics::new(&m, f).run(&args, 100_000) {
                panic!("{} is malformed: {e}\n{f}", f.name)
            }
        }
    }

    #[test]
    fn sizes_have_a_tail() {
        let m = generate_corpus(GenConfig::default(), 120);
        let sizes: Vec<usize> =
            m.functions.iter().map(|f| f.blocks.iter().map(|b| b.instrs.len()).sum()).collect();
        let max = *sizes.iter().max().expect("nonempty");
        let min = *sizes.iter().min().expect("nonempty");
        assert!(max > 4 * min.max(1), "expected a long tail: min={min} max={max}");
    }
}
