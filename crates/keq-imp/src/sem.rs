//! Symbolic operational semantics for IMP and the stack machine.
//!
//! Both implement `keq_semantics::Language`, which is all
//! `keq_core::Keq` needs — no change to the checker is required to validate
//! this language pair.

use keq_semantics::{exec, CtrlLoc, Language, Outcome, SemanticsError, Status, SymConfig};
use keq_smt::{Sort, TermBank, TermId};

use crate::ast::Expr;
use crate::compile::{ImpFlat, ImpOp, StackFn, StackOp};

/// Symbolic semantics of flattened IMP. Control locations are `L{pc}`.
#[derive(Debug)]
pub struct ImpSemantics {
    flat: ImpFlat,
}

impl ImpSemantics {
    /// Wraps a flattened program.
    pub fn new(flat: ImpFlat) -> Self {
        ImpSemantics { flat }
    }

    /// Control-location name of `pc`.
    pub fn loc_name(pc: usize) -> String {
        format!("L{pc}")
    }

    /// Runs the program concretely on `inputs`, in the order of
    /// [`ImpFlat::inputs`], with every other variable zero.
    ///
    /// # Errors
    ///
    /// As [`keq_semantics::exec::run`].
    pub fn run(&self, inputs: &[i32], fuel: u64) -> Result<Outcome, SemanticsError> {
        let inputs = self.flat.inputs.iter().cloned().zip(inputs.iter().copied());
        run_from_zero(self, Self::loc_name(0), &self.flat.vars, inputs, fuel)
    }

    fn eval(
        &self,
        bank: &mut TermBank,
        cfg: &SymConfig,
        e: &Expr,
    ) -> Result<TermId, SemanticsError> {
        Ok(match e {
            Expr::Var(v) => cfg.reg(v)?,
            Expr::Const(c) => bank.mk_bv(32, *c as u128),
            Expr::Add(a, b) => {
                let (a, b) = (self.eval(bank, cfg, a)?, self.eval(bank, cfg, b)?);
                bank.mk_bvadd(a, b)
            }
            Expr::Sub(a, b) => {
                let (a, b) = (self.eval(bank, cfg, a)?, self.eval(bank, cfg, b)?);
                bank.mk_bvsub(a, b)
            }
            Expr::Mul(a, b) => {
                let (a, b) = (self.eval(bank, cfg, a)?, self.eval(bank, cfg, b)?);
                bank.mk_bvmul(a, b)
            }
            Expr::Lt(a, b) => {
                let (a, b) = (self.eval(bank, cfg, a)?, self.eval(bank, cfg, b)?);
                let c = bank.mk_bvult(a, b);
                let one = bank.mk_bv(32, 1);
                let zero = bank.mk_bv(32, 0);
                bank.mk_ite(c, one, zero)
            }
        })
    }
}

fn pc_of(loc: &CtrlLoc, prefix: char) -> Result<usize, SemanticsError> {
    loc.block
        .strip_prefix(prefix)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| SemanticsError::UnknownBlock { name: loc.block.clone() })
}

fn goto(cfg: &SymConfig, prefix: char, pc: usize) -> SymConfig {
    let mut next = cfg.clone();
    next.loc = CtrlLoc::block_start(format!("{prefix}{pc}"), Some(cfg.loc.block.clone()));
    next
}

impl Language for ImpSemantics {
    fn name(&self) -> &str {
        "imp"
    }

    fn step(&self, cfg: &SymConfig, bank: &mut TermBank) -> Result<Vec<SymConfig>, SemanticsError> {
        let pc = pc_of(&cfg.loc, 'L')?;
        let op = self
            .flat
            .ops
            .get(pc)
            .ok_or_else(|| SemanticsError::UnknownBlock { name: cfg.loc.block.clone() })?;
        Ok(match op {
            ImpOp::Assign(x, e) => {
                let v = self.eval(bank, cfg, e)?;
                let mut next = goto(cfg, 'L', pc + 1);
                next.set_reg(x.clone(), v);
                vec![next]
            }
            ImpOp::Branch(c, then_, else_) => {
                let v = self.eval(bank, cfg, c)?;
                let zero = bank.mk_bv(32, 0);
                let is_zero = bank.mk_eq(v, zero);
                let taken_cond = bank.mk_not(is_zero);
                let mut taken = goto(cfg, 'L', *then_);
                taken.assume(bank, taken_cond);
                let mut fall = goto(cfg, 'L', *else_);
                fall.assume(bank, is_zero);
                vec![taken, fall]
            }
            ImpOp::Jump(t) => vec![goto(cfg, 'L', *t)],
            ImpOp::Ret(e) => {
                let v = self.eval(bank, cfg, e)?;
                let mut done = cfg.clone();
                done.status = Status::Exited { ret: Some(v) };
                vec![done]
            }
        })
    }
}

/// Symbolic semantics of the stack machine. Control locations are `S{pc}`;
/// stack cells are registers `stk{depth}`.
#[derive(Debug)]
pub struct StackSemantics {
    func: StackFn,
}

impl StackSemantics {
    /// Wraps a compiled function.
    pub fn new(func: StackFn) -> Self {
        StackSemantics { func }
    }

    /// Control-location name of `pc`.
    pub fn loc_name(pc: usize) -> String {
        format!("S{pc}")
    }

    /// Runs the compiled function concretely on the named `inputs`, with
    /// every other variable zero.
    ///
    /// # Errors
    ///
    /// As [`keq_semantics::exec::run`].
    pub fn run(&self, inputs: &[(String, i32)], fuel: u64) -> Result<Outcome, SemanticsError> {
        run_from_zero(self, Self::loc_name(0), &self.func.vars, inputs.iter().cloned(), fuel)
    }
}

/// Runs `lang` from location `entry` with every variable in `vars` zero
/// except `inputs`, through [`keq_semantics::exec::run`].
fn run_from_zero(
    lang: &impl Language,
    entry: String,
    vars: &[String],
    inputs: impl Iterator<Item = (String, i32)>,
    fuel: u64,
) -> Result<Outcome, SemanticsError> {
    let mut bank = TermBank::new();
    let mem = bank.mk_var("mem", Sort::Memory);
    let mut start = SymConfig::new(CtrlLoc::entry(entry), mem);
    let zero = bank.mk_bv(32, 0);
    for v in vars {
        start.set_reg(v.clone(), zero);
    }
    for (name, v) in inputs {
        let t = bank.mk_bv(32, u128::from(v as u32));
        start.set_reg(name, t);
    }
    exec::run(lang, &mut bank, start, fuel)
}

fn stk(i: u32) -> String {
    format!("stk{i}")
}

impl Language for StackSemantics {
    fn name(&self) -> &str {
        "stack"
    }

    fn step(&self, cfg: &SymConfig, bank: &mut TermBank) -> Result<Vec<SymConfig>, SemanticsError> {
        let pc = pc_of(&cfg.loc, 'S')?;
        let op = self
            .func
            .ops
            .get(pc)
            .ok_or_else(|| SemanticsError::UnknownBlock { name: cfg.loc.block.clone() })?;
        let d = self.func.depth[pc];
        Ok(match op {
            StackOp::Push(c) => {
                let mut next = goto(cfg, 'S', pc + 1);
                let v = bank.mk_bv(32, *c as u128);
                next.set_reg(stk(d), v);
                vec![next]
            }
            StackOp::Load(x) => {
                let v = cfg.reg(x)?;
                let mut next = goto(cfg, 'S', pc + 1);
                next.set_reg(stk(d), v);
                vec![next]
            }
            StackOp::Store(x) => {
                let v = cfg.reg(&stk(d - 1))?;
                let mut next = goto(cfg, 'S', pc + 1);
                next.set_reg(x.clone(), v);
                next.regs.remove(&stk(d - 1));
                vec![next]
            }
            StackOp::Add | StackOp::Sub | StackOp::Mul | StackOp::Lt => {
                let a = cfg.reg(&stk(d - 2))?;
                let b = cfg.reg(&stk(d - 1))?;
                let v = match op {
                    StackOp::Add => bank.mk_bvadd(a, b),
                    StackOp::Sub => bank.mk_bvsub(a, b),
                    StackOp::Mul => bank.mk_bvmul(a, b),
                    StackOp::Lt => {
                        let c = bank.mk_bvult(a, b);
                        let one = bank.mk_bv(32, 1);
                        let zero = bank.mk_bv(32, 0);
                        bank.mk_ite(c, one, zero)
                    }
                    _ => unreachable!(),
                };
                let mut next = goto(cfg, 'S', pc + 1);
                next.set_reg(stk(d - 2), v);
                next.regs.remove(&stk(d - 1));
                vec![next]
            }
            StackOp::Jz(t) => {
                let c = cfg.reg(&stk(d - 1))?;
                let zero = bank.mk_bv(32, 0);
                let is_zero = bank.mk_eq(c, zero);
                let mut taken = goto(cfg, 'S', *t);
                taken.assume(bank, is_zero);
                taken.regs.remove(&stk(d - 1));
                let not_zero = bank.mk_not(is_zero);
                let mut fall = goto(cfg, 'S', pc + 1);
                fall.assume(bank, not_zero);
                fall.regs.remove(&stk(d - 1));
                vec![taken, fall]
            }
            StackOp::Jmp(t) => vec![goto(cfg, 'S', *t)],
            StackOp::Ret => {
                let v = cfg.reg(&stk(d - 1))?;
                let mut done = cfg.clone();
                done.status = Status::Exited { ret: Some(v) };
                vec![done]
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ImpProgram, Stmt};
    use crate::compile::{compile, flatten};
    use keq_smt::Sort;

    #[test]
    fn imp_step_assign_and_ret() {
        let p = ImpProgram {
            inputs: vec!["x".into()],
            body: vec![Stmt::Assign("y".into(), Expr::add(Expr::var("x"), Expr::Const(1)))],
            result: Expr::var("y"),
        };
        let sem = ImpSemantics::new(flatten(&p));
        let mut bank = TermBank::new();
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let zero = bank.mk_bv(32, 0);
        let mut cfg = SymConfig::new(CtrlLoc::entry("L0"), mem);
        cfg.set_reg("x", x);
        cfg.set_reg("y", zero);
        let s1 = sem.step(&cfg, &mut bank).expect("assign");
        let one = bank.mk_bv(32, 1);
        let want = bank.mk_bvadd(x, one);
        assert_eq!(s1[0].reg("y"), Ok(want));
        let s2 = sem.step(&s1[0], &mut bank).expect("ret");
        assert!(matches!(s2[0].status, Status::Exited { ret: Some(r) } if r == want));
    }

    #[test]
    fn stack_push_add_store() {
        let p = ImpProgram {
            inputs: vec!["x".into()],
            body: vec![Stmt::Assign("y".into(), Expr::add(Expr::var("x"), Expr::Const(1)))],
            result: Expr::var("y"),
        };
        let sem = StackSemantics::new(compile(&p));
        let mut bank = TermBank::new();
        let mem = bank.mk_var("mem", Sort::Memory);
        let x = bank.mk_var("x", Sort::BitVec(32));
        let mut cfg = SymConfig::new(CtrlLoc::entry("S0"), mem);
        cfg.set_reg("x", x);
        // Step through Load x; Push 1; Add; Store y.
        let mut c = cfg;
        for _ in 0..4 {
            let mut s = sem.step(&c, &mut bank).expect("steps");
            c = s.pop().expect("one successor");
        }
        let one = bank.mk_bv(32, 1);
        let want = bank.mk_bvadd(x, one);
        assert_eq!(c.reg("y"), Ok(want));
        assert!(c.reg("stk0").is_err(), "stack empty again");
    }
}
