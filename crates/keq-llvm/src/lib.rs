//! # keq-llvm — the LLVM IR subset of the paper's §4.2
//!
//! AST, parser, printer, and symbolic operational semantics for the LLVM IR
//! fragment the translation-validation system supports: integer types
//! `i1..i128` (including the non-power-of-two `i96` of the §5.2 bug study),
//! nested arrays and structs, pointers and `getelementptr`,
//! arithmetic/bitwise/comparison operators, branches, calls, returns,
//! `load`/`store`/`alloca`, and the integer/pointer casts.
//!
//! [`sem::LlvmSemantics`] implements [`keq_semantics::Language`] — it is
//! the "input semantics" parameter handed to KEQ, and, through
//! [`LlvmSemantics::run`], the only concrete interpreter of the fragment.

pub mod ast;
pub mod corpus;
pub mod gvn;
pub mod layout;
pub mod parser;
pub mod printer;
pub mod sem;
pub mod types;

pub use ast::{
    BinOp, Block, CastKind, ConstExpr, Function, Global, IcmpPred, Instr, Module, Operand,
    Terminator,
};
pub use gvn::{run_gvn, GvnBug, GvnOptions, GvnOutput};
pub use layout::{Layout, FRAME_BASE, GLOBAL_BASE};
pub use parser::{parse_function, parse_module, ParseError};
pub use sem::LlvmSemantics;
pub use types::Type;
