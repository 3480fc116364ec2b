//! IMP: a minimal structured while-language over 32-bit integers.

use std::fmt;

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A variable.
    Var(String),
    /// A constant.
    Const(i32),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
    /// Unsigned less-than (1 or 0).
    Lt(Box<Expr>, Box<Expr>),
}

// The builders are associated constructors, not operator overloads.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// `Var` helper.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `Add` helper.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Add(Box::new(a), Box::new(b))
    }

    /// `Sub` helper.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Sub(Box::new(a), Box::new(b))
    }

    /// `Mul` helper.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::Mul(Box::new(a), Box::new(b))
    }

    /// `Lt` helper.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::Lt(Box::new(a), Box::new(b))
    }

    /// All variables mentioned.
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Lt(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `x := e`.
    Assign(String, Expr),
    /// `if e != 0 { then } else { els }`.
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while e != 0 { body }`.
    While(Expr, Vec<Stmt>),
}

/// A program: named inputs, a body, and a result expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImpProgram {
    /// Input variable names.
    pub inputs: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Result expression.
    pub result: Expr,
}

impl ImpProgram {
    /// All variables assigned or read anywhere.
    pub fn all_vars(&self) -> Vec<String> {
        let mut vars = self.inputs.clone();
        fn walk(stmts: &[Stmt], vars: &mut Vec<String>) {
            for s in stmts {
                match s {
                    Stmt::Assign(x, e) => {
                        if !vars.contains(x) {
                            vars.push(x.clone());
                        }
                        e.vars(vars);
                    }
                    Stmt::If(c, t, f) => {
                        c.vars(vars);
                        walk(t, vars);
                        walk(f, vars);
                    }
                    Stmt::While(c, b) => {
                        c.vars(vars);
                        walk(b, vars);
                    }
                }
            }
        }
        walk(&self.body, &mut vars);
        self.result.vars(&mut vars);
        vars
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Lt(a, b) => write!(f, "({a} < {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_semantics::Outcome;

    /// `sum = 0; i = 0; while (i < n) { sum = sum + i; i = i + 1 }; sum`.
    pub fn sum_to_n() -> ImpProgram {
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
    fn runs_concretely() {
        let sem = crate::ImpSemantics::new(crate::compile::flatten(&sum_to_n()));
        for (n, sum) in [(5, 10), (0, 0)] {
            let out = sem.run(&[n], 10_000).expect("runs");
            assert!(matches!(out, Outcome::Returned { ret: Some(r), .. } if r == sum), "{out:?}");
        }
    }

    #[test]
    fn all_vars_collects() {
        let p = sum_to_n();
        let vars = p.all_vars();
        assert!(vars.contains(&"n".to_string()));
        assert!(vars.contains(&"sum".to_string()));
        assert!(vars.contains(&"i".to_string()));
    }
}
