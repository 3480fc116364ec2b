//! # keq-vx86 — the "Virtual x86" Machine IR of the paper's §4.3
//!
//! The output language of LLVM Instruction Selection when targeting x86-64:
//! Machine IR with SSA virtual registers, `COPY`/`PHI` pseudo-instructions,
//! x86-64 opcodes, the general-purpose physical register file with proper
//! sub-register aliasing (a 32-bit write zeroes the upper half), and the
//! `eflags` condition bits.
//!
//! [`sem::VxSemantics`] implements [`keq_semantics::Language`] — it is the
//! "output semantics" parameter handed to KEQ, and, through
//! [`VxSemantics::run`], the only concrete interpreter of Virtual x86.

pub mod ast;
pub mod printer;
pub mod sem;

pub use ast::{Addr, AluOp, Cond, PhysReg, Reg, RegImm, VxBlock, VxFunction, VxInstr, VxTerm};
pub use sem::{init_flags, reg_key, VxSemantics};
