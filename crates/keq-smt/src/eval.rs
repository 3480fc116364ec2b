//! Concrete evaluation of terms under variable assignments.
//!
//! Used for (a) model validation: in debug builds, every model the SAT core
//! finds is checked against the lowered terms it was asked to satisfy (the
//! session's hard assertions and the query's delta), not against the
//! original formula; (b) answering a session's feasibility queries from its
//! earlier models, where the session keeps one [`eval_memo`] value memo
//! per model for its lifetime; (c) concrete execution of a language's
//! symbolic semantics (`keq_semantics::exec`), which evaluates each step's
//! path conjuncts and the final return value and memory under one memo per
//! run; and (d) property tests that compare the symbolic machinery against
//! ground truth.

use std::collections::{BTreeMap, HashMap};

use crate::sort::{mask, to_signed, Sort};
use crate::term::{Op, TermBank, TermId, VarId};

/// A concrete memory: a default byte plus explicit writes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemValue {
    /// Byte returned for addresses not in `writes`.
    pub default: u8,
    /// Explicitly written bytes.
    pub writes: BTreeMap<u64, u8>,
}

impl MemValue {
    /// Reads one byte.
    pub fn read(&self, addr: u64) -> u8 {
        self.writes.get(&addr).copied().unwrap_or(self.default)
    }

    /// Writes one byte, returning the updated memory.
    pub fn write(mut self, addr: u64, byte: u8) -> Self {
        self.writes.insert(addr, byte);
        self
    }
}

/// A concrete value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A bitvector (`value` is masked to `width`).
    Bv {
        /// Width in bits.
        width: u32,
        /// Masked value.
        value: u128,
    },
    /// A memory.
    Mem(MemValue),
}

impl Value {
    /// Constructs a masked bitvector value.
    pub fn bv(width: u32, value: u128) -> Self {
        Value::Bv { width, value: mask(width, value) }
    }

    /// Extracts a boolean, panicking on sort confusion.
    pub fn as_bool(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            other => panic!("expected Bool, got {other:?}"),
        }
    }

    /// Extracts a bitvector value, panicking on sort confusion.
    pub fn as_bv(&self) -> (u32, u128) {
        match self {
            Value::Bv { width, value } => (*width, *value),
            other => panic!("expected BitVec, got {other:?}"),
        }
    }

    /// Extracts a memory, panicking on sort confusion.
    pub fn as_mem(&self) -> &MemValue {
        match self {
            Value::Mem(m) => m,
            other => panic!("expected Memory, got {other:?}"),
        }
    }
}

/// A (partial) assignment of variables to values.
///
/// Unassigned variables evaluate to `false` / zero / all-zero memory, which
/// matches how the SAT core completes partial models.
#[derive(Debug, Clone, Default)]
pub struct Assignment {
    values: HashMap<VarId, Value>,
}

impl Assignment {
    /// Creates an empty assignment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value of a variable.
    pub fn set(&mut self, var: VarId, value: Value) {
        self.values.insert(var, value);
    }

    /// Looks up a variable, if assigned.
    pub fn get(&self, var: VarId) -> Option<&Value> {
        self.values.get(&var)
    }

    /// The assigned variables and their values, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (VarId, &Value)> {
        self.values.iter().map(|(&v, value)| (v, value))
    }

    /// Sets a variable by name, interning it in `bank` if necessary.
    pub fn set_named(&mut self, bank: &mut TermBank, name: &str, sort: Sort, value: Value) {
        let t = bank.mk_var(name, sort);
        if let Op::Var(v) = bank.node(t).op {
            self.set(v, value);
        }
    }

    fn default_for(sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(false),
            Sort::BitVec(w) => Value::bv(w, 0),
            Sort::Memory => Value::Mem(MemValue::default()),
        }
    }
}

/// Evaluates `term` under `assignment`.
///
/// # Panics
///
/// Panics if the term DAG is ill-sorted; the [`TermBank`] constructors make
/// that unreachable for terms built through the public API.
pub fn eval(bank: &TermBank, term: TermId, assignment: &Assignment) -> Value {
    eval_memo(bank, term, assignment, &mut HashMap::new())
}

/// [`eval`] that reads and extends `memo`, the values of terms already
/// evaluated under the same `assignment`, so a caller evaluating many
/// terms under one assignment visits each node once.
///
/// The walk is iterative, so deep terms cannot overflow the stack, and
/// lazy: `and`/`or` stop at the first deciding operand and `ite`
/// evaluates only the branch its condition takes.
///
/// # Panics
///
/// Panics if the term DAG is ill-sorted, or if `memo` holds values from a
/// different assignment or bank.
pub fn eval_memo(
    bank: &TermBank,
    term: TermId,
    assignment: &Assignment,
    memo: &mut HashMap<TermId, Value>,
) -> Value {
    let mut stack = vec![term];
    while let Some(&t) = stack.last() {
        if memo.contains_key(&t) {
            stack.pop();
            continue;
        }
        match eval_node(bank, t, assignment, memo) {
            Ok(value) => {
                memo.insert(t, value);
                stack.pop();
            }
            Err(operand) => stack.push(operand),
        }
    }
    memo[&term].clone()
}

/// The value of `t` when `memo` holds every operand it needs, else the
/// first operand still missing.
fn eval_node(
    bank: &TermBank,
    t: TermId,
    asg: &Assignment,
    memo: &HashMap<TermId, Value>,
) -> Result<Value, TermId> {
    let node = bank.node(t);
    let arg = |i: usize| memo.get(&node.args[i]).ok_or(node.args[i]);
    let bv = |i: usize| arg(i).map(Value::as_bv);
    let bin = |f: fn(u32, u128, u128) -> u128| -> Result<Value, TermId> {
        let ((w, x), (_, y)) = (bv(0)?, bv(1)?);
        Ok(Value::bv(w, f(w, x, y)))
    };
    let cmp = |f: fn(u32, u128, u128) -> bool| -> Result<Value, TermId> {
        let ((w, x), (_, y)) = (bv(0)?, bv(1)?);
        Ok(Value::Bool(f(w, x, y)))
    };
    Ok(match node.op {
        Op::BoolConst(b) => Value::Bool(b),
        Op::BvConst { width, value } => Value::bv(width, value),
        Op::Var(v) => asg.get(v).cloned().unwrap_or_else(|| Assignment::default_for(node.sort)),
        Op::Not => Value::Bool(!arg(0)?.as_bool()),
        Op::And | Op::Or => {
            // The value that decides the connective on its own.
            let decisive = node.op == Op::Or;
            for &a in &node.args {
                match memo.get(&a) {
                    Some(v) if v.as_bool() == decisive => return Ok(Value::Bool(decisive)),
                    Some(_) => {}
                    None => return Err(a),
                }
            }
            Value::Bool(!decisive)
        }
        Op::Xor => Value::Bool(arg(0)?.as_bool() ^ arg(1)?.as_bool()),
        Op::Eq => Value::Bool(arg(0)? == arg(1)?),
        Op::Ite => arg(if arg(0)?.as_bool() { 1 } else { 2 })?.clone(),
        Op::BvNot => {
            let (w, x) = bv(0)?;
            Value::bv(w, !x)
        }
        Op::BvNeg => {
            let (w, x) = bv(0)?;
            Value::bv(w, x.wrapping_neg())
        }
        Op::BvAdd => bin(|w, x, y| mask(w, x.wrapping_add(y)))?,
        Op::BvSub => bin(|w, x, y| mask(w, x.wrapping_sub(y)))?,
        Op::BvMul => bin(|w, x, y| mask(w, x.wrapping_mul(y)))?,
        Op::BvUdiv => bin(|w, x, y| x.checked_div(y).unwrap_or(mask(w, u128::MAX)))?,
        Op::BvUrem => bin(|_, x, y| if y == 0 { x } else { x % y })?,
        Op::BvSdiv => bin(|w, x, y| {
            let xs = to_signed(w, x);
            let ys = to_signed(w, y);
            let r = if ys == 0 {
                if xs < 0 {
                    1
                } else {
                    -1
                }
            } else if xs == i128::MIN && ys == -1 {
                xs
            } else {
                xs.wrapping_div(ys)
            };
            mask(w, r as u128)
        })?,
        Op::BvSrem => bin(|w, x, y| {
            let xs = to_signed(w, x);
            let ys = to_signed(w, y);
            let r = if ys == 0 {
                xs
            } else if xs == i128::MIN && ys == -1 {
                0
            } else {
                xs.wrapping_rem(ys)
            };
            mask(w, r as u128)
        })?,
        Op::BvAnd => bin(|_, x, y| x & y)?,
        Op::BvOr => bin(|_, x, y| x | y)?,
        Op::BvXor => bin(|_, x, y| x ^ y)?,
        Op::BvShl => bin(|w, x, k| if k >= u128::from(w) { 0 } else { mask(w, x << k) })?,
        Op::BvLshr => bin(|w, x, k| if k >= u128::from(w) { 0 } else { x >> k })?,
        Op::BvAshr => bin(|w, x, k| {
            let xs = to_signed(w, x);
            let k = k.min(u128::from(w - 1)) as u32;
            mask(w, (xs >> k) as u128)
        })?,
        Op::BvUlt => cmp(|_, x, y| x < y)?,
        Op::BvUle => cmp(|_, x, y| x <= y)?,
        Op::BvSlt => cmp(|w, x, y| to_signed(w, x) < to_signed(w, y))?,
        Op::BvSle => cmp(|w, x, y| to_signed(w, x) <= to_signed(w, y))?,
        Op::ZeroExt(to) => Value::bv(to, bv(0)?.1),
        Op::SignExt(to) => {
            let (w, x) = bv(0)?;
            Value::bv(to, to_signed(w, x) as u128)
        }
        Op::Extract { hi, lo } => Value::bv(hi - lo + 1, bv(0)?.1 >> lo),
        Op::Concat => {
            let ((wh, xh), (wl, xl)) = (bv(0)?, bv(1)?);
            Value::bv(wh + wl, (xh << wl) | xl)
        }
        Op::Select => {
            let (mem, (_, addr)) = (arg(0)?, bv(1)?);
            Value::bv(8, u128::from(mem.as_mem().read(addr as u64)))
        }
        Op::Store => {
            let (mem, (_, addr), (_, byte)) = (arg(0)?, bv(1)?, bv(2)?);
            Value::Mem(mem.as_mem().clone().write(addr as u64, byte as u8))
        }
    })
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arith_expression() {
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(32));
        let y = b.mk_var("y", Sort::BitVec(32));
        let sum = b.mk_bvadd(x, y);
        let mut asg = Assignment::new();
        asg.set_named(&mut b, "x", Sort::BitVec(32), Value::bv(32, 40));
        asg.set_named(&mut b, "y", Sort::BitVec(32), Value::bv(32, 2));
        assert_eq!(eval(&b, sum, &asg), Value::bv(32, 42));
    }

    #[test]
    fn unassigned_vars_default_to_zero() {
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(8));
        let asg = Assignment::new();
        assert_eq!(eval(&b, x, &asg), Value::bv(8, 0));
    }

    #[test]
    fn eval_memory_roundtrip() {
        let mut b = TermBank::new();
        let m = b.mk_var("mem", Sort::Memory);
        let a = b.mk_bv(64, 100);
        let v = b.mk_bv(8, 0x55);
        let m2 = b.mk_store(m, a, v);
        let r = b.mk_select(m2, a);
        assert_eq!(eval(&b, r, &Assignment::new()), Value::bv(8, 0x55));
    }

    #[test]
    fn eval_select_on_symbolic_address() {
        let mut b = TermBank::new();
        let m = b.mk_var("mem", Sort::Memory);
        let addr = b.mk_var("a", Sort::BitVec(64));
        let r = b.mk_select(m, addr);
        let mut asg = Assignment::new();
        let mem = MemValue::default().write(7, 9);
        asg.set_named(&mut b, "mem", Sort::Memory, Value::Mem(mem));
        asg.set_named(&mut b, "a", Sort::BitVec(64), Value::bv(64, 7));
        assert_eq!(eval(&b, r, &asg), Value::bv(8, 9));
    }

    #[test]
    fn eval_signed_comparison() {
        let mut b = TermBank::new();
        let x = b.mk_var("x", Sort::BitVec(8));
        let zero = b.mk_bv(8, 0);
        let neg = b.mk_bvslt(x, zero);
        let mut asg = Assignment::new();
        asg.set_named(&mut b, "x", Sort::BitVec(8), Value::bv(8, 0xff));
        assert_eq!(eval(&b, neg, &asg), Value::Bool(true));
    }
}
