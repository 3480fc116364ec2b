//! Abstract syntax of the supported LLVM IR fragment (§4.2).

use std::fmt;

use crate::types::Type;

/// A module: globals plus function definitions/declarations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Global variables.
    pub globals: Vec<Global>,
    /// Defined functions.
    pub functions: Vec<Function>,
    /// Declared (external) functions: `(name, ret type, param types)`.
    pub declarations: Vec<(String, Type, Vec<Type>)>,
}

impl Module {
    /// Looks up a defined function.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// A global variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name without the `@` sigil.
    pub name: String,
    /// Pointee type.
    pub ty: Type,
    /// `true` for `external global` (no initializer).
    pub external: bool,
    /// Constant initializer bytes (little-endian, zero-filled), if any.
    pub init: Option<Vec<u8>>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Name without the `@` sigil.
    pub name: String,
    /// Return type (`Type::Void` for void).
    pub ret_ty: Type,
    /// Parameters: `(name with % sigil, type)`.
    pub params: Vec<(String, Type)>,
    /// Basic blocks; the first is the entry block.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics on a function with no blocks.
    pub fn entry(&self) -> &Block {
        self.blocks.first().expect("function has no blocks")
    }

    /// Looks up a block by name.
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

/// A basic block: non-terminator instructions plus one terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Label (without `%`).
    pub name: String,
    /// Body instructions.
    pub instrs: Vec<Instr>,
    /// Terminator.
    pub term: Terminator,
}

/// An operand.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A local (`%name`, stored with the sigil).
    Local(String),
    /// An integer constant.
    Const(i128),
    /// A global address (`@name`, stored without the sigil).
    Global(String),
    /// The null pointer.
    Null,
    /// A constant expression (e.g. the `bitcast (… getelementptr …)` operands
    /// in the paper's Fig. 8).
    Expr(Box<ConstExpr>),
}

impl Operand {
    /// Convenience constructor for a local.
    pub fn local(name: impl Into<String>) -> Operand {
        Operand::Local(name.into())
    }
}

/// Constant expressions appearing as operands.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstExpr {
    /// `getelementptr inbounds (ty, ty* base, idx…)`.
    Gep {
        /// The pointee type the base pointer points at.
        base_ty: Type,
        /// The base pointer operand.
        base: Operand,
        /// Indices (type, operand).
        indices: Vec<(Type, Operand)>,
    },
    /// `bitcast (ty val to ty)`.
    Bitcast {
        /// Source type.
        from_ty: Type,
        /// Value being cast.
        value: Operand,
        /// Destination type.
        to_ty: Type,
    },
}

/// Integer binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Unsigned division.
    Udiv,
    /// Signed division.
    Sdiv,
    /// Unsigned remainder.
    Urem,
    /// Signed remainder.
    Srem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Logical shift right.
    Lshr,
    /// Arithmetic shift right.
    Ashr,
}

impl BinOp {
    /// LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Udiv => "udiv",
            BinOp::Sdiv => "sdiv",
            BinOp::Urem => "urem",
            BinOp::Srem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Lshr => "lshr",
            BinOp::Ashr => "ashr",
        }
    }
}

/// Integer comparison predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpPred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Unsigned greater-than.
    Ugt,
    /// Unsigned greater-or-equal.
    Uge,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
}

impl IcmpPred {
    /// LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            IcmpPred::Eq => "eq",
            IcmpPred::Ne => "ne",
            IcmpPred::Ult => "ult",
            IcmpPred::Ule => "ule",
            IcmpPred::Ugt => "ugt",
            IcmpPred::Uge => "uge",
            IcmpPred::Slt => "slt",
            IcmpPred::Sle => "sle",
            IcmpPred::Sgt => "sgt",
            IcmpPred::Sge => "sge",
        }
    }
}

/// Cast kinds of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Zero extension.
    Zext,
    /// Sign extension.
    Sext,
    /// Truncation.
    Trunc,
    /// Reinterpret (only pointer↔pointer in this fragment).
    Bitcast,
    /// Integer to pointer.
    IntToPtr,
    /// Pointer to integer.
    PtrToInt,
}

impl CastKind {
    /// LLVM mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Zext => "zext",
            CastKind::Sext => "sext",
            CastKind::Trunc => "trunc",
            CastKind::Bitcast => "bitcast",
            CastKind::IntToPtr => "inttoptr",
            CastKind::PtrToInt => "ptrtoint",
        }
    }
}

/// Non-terminator instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst = <op> [nsw] ty lhs, rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// `true` when the `nsw` flag is present (signed overflow is UB).
        nsw: bool,
        /// Operand type.
        ty: Type,
        /// Destination local.
        dst: String,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = icmp pred ty lhs, rhs`.
    Icmp {
        /// Predicate.
        pred: IcmpPred,
        /// Operand type.
        ty: Type,
        /// Destination local (an `i1`).
        dst: String,
        /// Left operand.
        lhs: Operand,
        /// Right operand.
        rhs: Operand,
    },
    /// `dst = phi ty [v, bb], …`.
    Phi {
        /// Destination local.
        dst: String,
        /// Value type.
        ty: Type,
        /// `(value, predecessor block)` pairs.
        incomings: Vec<(Operand, String)>,
    },
    /// `dst = load ty, ty* ptr`.
    Load {
        /// Destination local.
        dst: String,
        /// Loaded type.
        ty: Type,
        /// Pointer operand.
        ptr: Operand,
    },
    /// `store ty val, ty* ptr`.
    Store {
        /// Stored type.
        ty: Type,
        /// Value operand.
        val: Operand,
        /// Pointer operand.
        ptr: Operand,
    },
    /// `dst = alloca ty`.
    Alloca {
        /// Destination local (a pointer).
        dst: String,
        /// Allocated type.
        ty: Type,
    },
    /// `dst = getelementptr [inbounds] ty, ty* ptr, (ty idx)…`.
    Gep {
        /// Destination local.
        dst: String,
        /// Base pointee type.
        base_ty: Type,
        /// Base pointer.
        ptr: Operand,
        /// Indices.
        indices: Vec<(Type, Operand)>,
    },
    /// `dst = <cast> from_ty val to to_ty`.
    Cast {
        /// Which cast.
        kind: CastKind,
        /// Destination local.
        dst: String,
        /// Source type.
        from_ty: Type,
        /// Value.
        val: Operand,
        /// Destination type.
        to_ty: Type,
    },
    /// `[dst =] call ret_ty @callee(args…)`.
    Call {
        /// Destination local (`None` for void calls).
        dst: Option<String>,
        /// Return type.
        ret_ty: Type,
        /// Callee name (without `@`).
        callee: String,
        /// Arguments.
        args: Vec<(Type, Operand)>,
    },
}

impl Instr {
    /// The destination local defined by this instruction, if any.
    pub fn dst(&self) -> Option<&str> {
        match self {
            Instr::Bin { dst, .. }
            | Instr::Icmp { dst, .. }
            | Instr::Phi { dst, .. }
            | Instr::Load { dst, .. }
            | Instr::Alloca { dst, .. }
            | Instr::Gep { dst, .. }
            | Instr::Cast { dst, .. } => Some(dst),
            Instr::Call { dst, .. } => dst.as_deref(),
            Instr::Store { .. } => None,
        }
    }
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// `br label %target`.
    Br {
        /// Target block.
        target: String,
    },
    /// `br i1 cond, label %then, label %els`.
    CondBr {
        /// Condition (an `i1`).
        cond: Operand,
        /// Taken when true.
        then_: String,
        /// Taken when false.
        else_: String,
    },
    /// `ret ty val` or `ret void`.
    Ret {
        /// Returned value, if non-void.
        val: Option<(Type, Operand)>,
    },
    /// `unreachable`.
    Unreachable,
}

impl Terminator {
    /// Successor block names.
    pub fn successors(&self) -> Vec<&str> {
        match self {
            Terminator::Br { target } => vec![target],
            Terminator::CondBr { then_, else_, .. } => vec![then_, else_],
            Terminator::Ret { .. } | Terminator::Unreachable => vec![],
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Local(n) => write!(f, "{n}"),
            Operand::Const(c) => write!(f, "{c}"),
            Operand::Global(g) => write!(f, "@{g}"),
            Operand::Null => write!(f, "null"),
            Operand::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl fmt::Display for ConstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstExpr::Gep { base_ty, base, indices } => {
                write!(f, "getelementptr inbounds ({base_ty}, {base_ty}* {base}")?;
                for (t, i) in indices {
                    write!(f, ", {t} {i}")?;
                }
                write!(f, ")")
            }
            ConstExpr::Bitcast { from_ty, value, to_ty } => {
                write!(f, "bitcast ({from_ty} {value} to {to_ty})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        let t =
            Terminator::CondBr { cond: Operand::local("%c"), then_: "a".into(), else_: "b".into() };
        assert_eq!(t.successors(), vec!["a", "b"]);
        assert!(Terminator::Ret { val: None }.successors().is_empty());
    }

    #[test]
    fn instr_dst() {
        let i = Instr::Bin {
            op: BinOp::Add,
            nsw: false,
            ty: Type::I32,
            dst: "%x".into(),
            lhs: Operand::local("%a"),
            rhs: Operand::Const(1),
        };
        assert_eq!(i.dst(), Some("%x"));
        let s = Instr::Store { ty: Type::I32, val: Operand::Const(0), ptr: Operand::local("%p") };
        assert_eq!(s.dst(), None);
    }

    #[test]
    fn const_expr_display() {
        let e = ConstExpr::Bitcast {
            from_ty: Type::I8.ptr_to(),
            value: Operand::Global("b".into()),
            to_ty: Type::I16.ptr_to(),
        };
        assert_eq!(e.to_string(), "bitcast (i8* @b to i16*)");
    }
}
