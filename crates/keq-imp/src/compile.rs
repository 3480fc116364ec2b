//! Flattening IMP to an internal CFG and compiling it to the stack machine.

use crate::ast::{Expr, ImpProgram, Stmt};

/// Flat IMP operations (one per control location).
#[derive(Debug, Clone, PartialEq)]
pub enum ImpOp {
    /// `x := e; goto next`.
    Assign(String, Expr),
    /// `if e != 0 goto then else goto els`.
    Branch(Expr, usize, usize),
    /// `goto target`.
    Jump(usize),
    /// Return `e`.
    Ret(Expr),
}

/// Flattened IMP program.
#[derive(Debug, Clone, PartialEq)]
pub struct ImpFlat {
    /// Operations; control locations are indices.
    pub ops: Vec<ImpOp>,
    /// Loop-head locations, in AST order.
    pub loop_heads: Vec<usize>,
    /// All variables.
    pub vars: Vec<String>,
    /// Input variables.
    pub inputs: Vec<String>,
}

/// Stack-machine instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackOp {
    /// Push a constant.
    Push(i32),
    /// Push a variable's value.
    Load(String),
    /// Pop into a variable.
    Store(String),
    /// Pop two, push sum.
    Add,
    /// Pop two, push difference.
    Sub,
    /// Pop two, push product.
    Mul,
    /// Pop two, push unsigned less-than (0/1).
    Lt,
    /// Pop; jump if zero.
    Jz(usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Pop and return the top of stack.
    Ret,
}

/// A compiled stack-machine function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackFn {
    /// Instructions; control locations are indices.
    pub ops: Vec<StackOp>,
    /// Loop-head locations, in AST order (pairs with
    /// [`ImpFlat::loop_heads`]).
    pub loop_heads: Vec<usize>,
    /// All variables.
    pub vars: Vec<String>,
    /// Stack depth before each instruction.
    pub depth: Vec<u32>,
}

/// Flattens an IMP program to its CFG form.
pub fn flatten(p: &ImpProgram) -> ImpFlat {
    let mut ops = Vec::new();
    let mut loop_heads = Vec::new();
    flatten_stmts(&p.body, &mut ops, &mut loop_heads);
    ops.push(ImpOp::Ret(p.result.clone()));
    ImpFlat { ops, loop_heads, vars: p.all_vars(), inputs: p.inputs.clone() }
}

fn flatten_stmts(stmts: &[Stmt], ops: &mut Vec<ImpOp>, heads: &mut Vec<usize>) {
    for s in stmts {
        match s {
            Stmt::Assign(x, e) => ops.push(ImpOp::Assign(x.clone(), e.clone())),
            Stmt::If(c, t, f) => {
                let branch_at = ops.len();
                ops.push(ImpOp::Jump(0)); // placeholder
                flatten_stmts(t, ops, heads);
                let jump_end_at = ops.len();
                ops.push(ImpOp::Jump(0)); // placeholder
                let else_start = ops.len();
                flatten_stmts(f, ops, heads);
                let end = ops.len();
                ops[branch_at] = ImpOp::Branch(c.clone(), branch_at + 1, else_start);
                ops[jump_end_at] = ImpOp::Jump(end);
            }
            Stmt::While(c, body) => {
                let head = ops.len();
                heads.push(head);
                ops.push(ImpOp::Jump(0)); // placeholder branch
                flatten_stmts(body, ops, heads);
                ops.push(ImpOp::Jump(head));
                let after = ops.len();
                ops[head] = ImpOp::Branch(c.clone(), head + 1, after);
            }
        }
    }
}

/// Compiles an IMP program to the stack machine.
pub fn compile(p: &ImpProgram) -> StackFn {
    let mut ops = Vec::new();
    let mut heads = Vec::new();
    compile_stmts(&p.body, &mut ops, &mut heads);
    compile_expr(&p.result, &mut ops);
    ops.push(StackOp::Ret);
    let depth = compute_depths(&ops);
    StackFn { ops, loop_heads: heads, vars: p.all_vars(), depth }
}

fn compile_expr(e: &Expr, ops: &mut Vec<StackOp>) {
    match e {
        Expr::Var(v) => ops.push(StackOp::Load(v.clone())),
        Expr::Const(c) => ops.push(StackOp::Push(*c)),
        Expr::Add(a, b) => {
            compile_expr(a, ops);
            compile_expr(b, ops);
            ops.push(StackOp::Add);
        }
        Expr::Sub(a, b) => {
            compile_expr(a, ops);
            compile_expr(b, ops);
            ops.push(StackOp::Sub);
        }
        Expr::Mul(a, b) => {
            compile_expr(a, ops);
            compile_expr(b, ops);
            ops.push(StackOp::Mul);
        }
        Expr::Lt(a, b) => {
            compile_expr(a, ops);
            compile_expr(b, ops);
            ops.push(StackOp::Lt);
        }
    }
}

fn compile_stmts(stmts: &[Stmt], ops: &mut Vec<StackOp>, heads: &mut Vec<usize>) {
    for s in stmts {
        match s {
            Stmt::Assign(x, e) => {
                compile_expr(e, ops);
                ops.push(StackOp::Store(x.clone()));
            }
            Stmt::If(c, t, f) => {
                compile_expr(c, ops);
                let jz_at = ops.len();
                ops.push(StackOp::Jz(0)); // placeholder
                compile_stmts(t, ops, heads);
                let jmp_at = ops.len();
                ops.push(StackOp::Jmp(0)); // placeholder
                let else_start = ops.len();
                compile_stmts(f, ops, heads);
                let end = ops.len();
                ops[jz_at] = StackOp::Jz(else_start);
                ops[jmp_at] = StackOp::Jmp(end);
            }
            Stmt::While(c, body) => {
                let head = ops.len();
                heads.push(head);
                compile_expr(c, ops);
                let jz_at = ops.len();
                ops.push(StackOp::Jz(0)); // placeholder
                compile_stmts(body, ops, heads);
                ops.push(StackOp::Jmp(head));
                let after = ops.len();
                ops[jz_at] = StackOp::Jz(after);
            }
        }
    }
}

/// Static stack depth before each instruction (well-defined because the
/// compiler only joins control flow at equal depths).
fn compute_depths(ops: &[StackOp]) -> Vec<u32> {
    let mut depth = vec![u32::MAX; ops.len() + 1];
    depth[0] = 0;
    let mut work = vec![0usize];
    while let Some(pc) = work.pop() {
        if pc >= ops.len() {
            continue;
        }
        let d = depth[pc];
        let (next_d, targets): (u32, Vec<usize>) = match &ops[pc] {
            StackOp::Push(_) | StackOp::Load(_) => (d + 1, vec![pc + 1]),
            StackOp::Store(_) => (d - 1, vec![pc + 1]),
            StackOp::Add | StackOp::Sub | StackOp::Mul | StackOp::Lt => (d - 1, vec![pc + 1]),
            StackOp::Jz(t) => (d - 1, vec![pc + 1, *t]),
            StackOp::Jmp(t) => (d, vec![*t]),
            StackOp::Ret => (d - 1, vec![]),
        };
        for t in targets {
            if depth[t] == u32::MAX {
                depth[t] = next_d;
                work.push(t);
            } else {
                assert_eq!(depth[t], next_d, "inconsistent stack depth at {t}");
            }
        }
    }
    depth.truncate(ops.len());
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ImpSemantics, StackSemantics};
    use keq_semantics::Outcome;

    fn sum_to_n() -> ImpProgram {
        ImpProgram {
            inputs: vec!["n".into()],
            body: vec![
                Stmt::Assign("sum".into(), Expr::Const(0)),
                Stmt::Assign("i".into(), Expr::Const(0)),
                Stmt::While(
                    Expr::lt(Expr::var("i"), Expr::var("n")),
                    vec![
                        Stmt::Assign("sum".into(), Expr::add(Expr::var("sum"), Expr::var("i"))),
                        Stmt::Assign("i".into(), Expr::add(Expr::var("i"), Expr::Const(1))),
                    ],
                ),
            ],
            result: Expr::var("sum"),
        }
    }

    #[test]
    fn compiled_code_agrees_with_source() {
        let p = sum_to_n();
        let imp = ImpSemantics::new(flatten(&p));
        let stack = StackSemantics::new(compile(&p));
        for n in 0..10 {
            let want = imp.run(&[n], 100_000).expect("runs");
            let got = stack.run(&[("n".into(), n)], 100_000).expect("runs");
            assert_eq!(want, got, "n = {n}");
        }
    }

    #[test]
    fn loop_heads_pair_up() {
        let p = sum_to_n();
        let flat = flatten(&p);
        let sf = compile(&p);
        assert_eq!(flat.loop_heads.len(), 1);
        assert_eq!(sf.loop_heads.len(), 1);
        // Depth at the stack loop head is zero (statement boundary).
        assert_eq!(sf.depth[sf.loop_heads[0]], 0);
    }

    #[test]
    fn depths_are_consistent() {
        let p = sum_to_n();
        let sf = compile(&p);
        assert_eq!(sf.depth[0], 0);
        assert!(sf.depth.iter().all(|&d| d != u32::MAX), "all reachable");
    }

    #[test]
    fn if_else_compiles_and_runs() {
        let p = ImpProgram {
            inputs: vec!["x".into()],
            body: vec![Stmt::If(
                Expr::lt(Expr::var("x"), Expr::Const(10)),
                vec![Stmt::Assign("y".into(), Expr::Const(1))],
                vec![Stmt::Assign("y".into(), Expr::Const(2))],
            )],
            result: Expr::var("y"),
        };
        let stack = StackSemantics::new(compile(&p));
        for (x, y) in [(5, 1), (50, 2)] {
            let out = stack.run(&[("x".into(), x)], 1000).expect("runs");
            assert!(matches!(out, Outcome::Returned { ret: Some(r), .. } if r == y), "{out:?}");
        }
    }
}
