//! Abstract syntax of "Virtual x86" — the LLVM Machine IR specialized to
//! x86-64 that Instruction Selection emits (paper §4.3).
//!
//! Virtual x86 keeps Machine IR's high-level features: an unlimited supply
//! of SSA virtual registers, the `COPY` and `PHI` pseudo-instructions, and
//! a frame abstraction — combined with x86-64 opcodes, physical registers,
//! and `eflags`.

use std::fmt;

/// The sixteen 64-bit general-purpose registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum PhysReg {
    Rax,
    Rbx,
    Rcx,
    Rdx,
    Rsi,
    Rdi,
    Rbp,
    Rsp,
    R8,
    R9,
    R10,
    R11,
    R12,
    R13,
    R14,
    R15,
}

impl PhysReg {
    /// The canonical 64-bit name (the key used in symbolic configurations).
    pub fn name64(self) -> &'static str {
        match self {
            PhysReg::Rax => "rax",
            PhysReg::Rbx => "rbx",
            PhysReg::Rcx => "rcx",
            PhysReg::Rdx => "rdx",
            PhysReg::Rsi => "rsi",
            PhysReg::Rdi => "rdi",
            PhysReg::Rbp => "rbp",
            PhysReg::Rsp => "rsp",
            PhysReg::R8 => "r8",
            PhysReg::R9 => "r9",
            PhysReg::R10 => "r10",
            PhysReg::R11 => "r11",
            PhysReg::R12 => "r12",
            PhysReg::R13 => "r13",
            PhysReg::R14 => "r14",
            PhysReg::R15 => "r15",
        }
    }

    /// The conventional name of the `width`-bit view (e.g. `eax`, `ax`,
    /// `al`, `r8d`).
    pub fn view_name(self, width: u32) -> String {
        let base = self.name64();
        match self {
            PhysReg::R8
            | PhysReg::R9
            | PhysReg::R10
            | PhysReg::R11
            | PhysReg::R12
            | PhysReg::R13
            | PhysReg::R14
            | PhysReg::R15 => match width {
                64 => base.to_owned(),
                32 => format!("{base}d"),
                16 => format!("{base}w"),
                8 => format!("{base}b"),
                other => panic!("bad register width {other}"),
            },
            _ => {
                let stem = &base[1..]; // "ax", "bx", "si", …
                match width {
                    64 => base.to_owned(),
                    32 => format!("e{stem}"),
                    16 => stem.to_owned(),
                    8 => format!("{}l", &stem[..1]), // al, bl, cl, dl; sil etc. simplified
                    other => panic!("bad register width {other}"),
                }
            }
        }
    }

    /// Every general-purpose register.
    pub const ALL: [PhysReg; 16] = {
        use PhysReg::*;
        [Rax, Rbx, Rcx, Rdx, Rsi, Rdi, Rbp, Rsp, R8, R9, R10, R11, R12, R13, R14, R15]
    };

    /// Parses any view name back to `(reg, width)`.
    pub fn parse(name: &str) -> Option<(PhysReg, u32)> {
        for r in PhysReg::ALL {
            for w in [64, 32, 16, 8] {
                if r.view_name(w) == name {
                    return Some((r, w));
                }
            }
        }
        None
    }

    /// The SysV AMD64 integer-argument registers, in order.
    pub fn args() -> [PhysReg; 6] {
        [PhysReg::Rdi, PhysReg::Rsi, PhysReg::Rdx, PhysReg::Rcx, PhysReg::R8, PhysReg::R9]
    }
}

/// A register operand: a physical view or a virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reg {
    /// A physical register viewed at `width` bits.
    Phys(PhysReg, u32),
    /// Virtual register `%vr<id>_<width>`.
    Virt(u32, u32),
}

impl Reg {
    /// The operand width in bits.
    pub fn width(self) -> u32 {
        match self {
            Reg::Phys(_, w) | Reg::Virt(_, w) => w,
        }
    }

    /// 32-bit virtual register shorthand.
    pub fn vr32(id: u32) -> Reg {
        Reg::Virt(id, 32)
    }

    /// 64-bit virtual register shorthand.
    pub fn vr64(id: u32) -> Reg {
        Reg::Virt(id, 64)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Phys(r, w) => write!(f, "{}", r.view_name(*w)),
            Reg::Virt(id, w) => write!(f, "%vr{id}_{w}"),
        }
    }
}

/// A register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegImm {
    /// Register operand.
    Reg(Reg),
    /// Immediate operand.
    Imm(i128),
}

impl fmt::Display for RegImm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegImm::Reg(r) => write!(f, "{r}"),
            RegImm::Imm(i) => write!(f, "${i}"),
        }
    }
}

/// A memory address: `global + disp` (rip-relative) or `base + index*scale
/// + disp`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Addr {
    /// Rip-relative global symbol.
    pub global: Option<String>,
    /// Base register.
    pub base: Option<Reg>,
    /// `(index register, scale)`.
    pub index: Option<(Reg, u8)>,
    /// Displacement.
    pub disp: i64,
}

impl Addr {
    /// A rip-relative global with displacement (`sym+disp(%rip)`).
    pub fn global(sym: impl Into<String>, disp: i64) -> Addr {
        Addr { global: Some(sym.into()), base: None, index: None, disp }
    }

    /// A plain `disp(base)` address.
    pub fn base_disp(base: Reg, disp: i64) -> Addr {
        Addr { global: None, base: Some(base), index: None, disp }
    }

    /// An absolute address.
    pub fn absolute(disp: i64) -> Addr {
        Addr { global: None, base: None, index: None, disp }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = &self.global {
            if self.disp != 0 {
                write!(f, "{g}+{}(%rip)", self.disp)
            } else {
                write!(f, "{g}(%rip)")
            }
        } else {
            if self.disp != 0 || self.base.is_none() {
                write!(f, "{}", self.disp)?;
            }
            if let Some(b) = &self.base {
                write!(f, "({b}")?;
                if let Some((i, s)) = &self.index {
                    write!(f, ",{i},{s}")?;
                }
                write!(f, ")")?;
            }
            Ok(())
        }
    }
}

/// Two-operand ALU operations (three-address in SSA Virtual x86).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Imul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Sar,
}

impl AluOp {
    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Imul => "imul",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
        }
    }
}

/// Condition codes over `eflags`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    E,
    Ne,
    B,
    Ae,
    Be,
    A,
    L,
    Ge,
    Le,
    G,
    S,
    Ns,
}

impl Cond {
    /// Mnemonic suffix (`jae`, `sete`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::B => "b",
            Cond::Ae => "ae",
            Cond::Be => "be",
            Cond::A => "a",
            Cond::L => "l",
            Cond::Ge => "ge",
            Cond::Le => "le",
            Cond::G => "g",
            Cond::S => "s",
            Cond::Ns => "ns",
        }
    }

    /// The condition testing the opposite outcome.
    pub fn negate(self) -> Cond {
        match self {
            Cond::E => Cond::Ne,
            Cond::Ne => Cond::E,
            Cond::B => Cond::Ae,
            Cond::Ae => Cond::B,
            Cond::Be => Cond::A,
            Cond::A => Cond::Be,
            Cond::L => Cond::Ge,
            Cond::Ge => Cond::L,
            Cond::Le => Cond::G,
            Cond::G => Cond::Le,
            Cond::S => Cond::Ns,
            Cond::Ns => Cond::S,
        }
    }
}

/// Virtual x86 instructions.
#[derive(Debug, Clone, PartialEq)]
pub enum VxInstr {
    /// The `COPY` pseudo-instruction.
    Copy {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// The `PHI` pseudo-instruction.
    Phi {
        /// Destination.
        dst: Reg,
        /// `(source register, predecessor block)` pairs.
        incomings: Vec<(Reg, String)>,
    },
    /// `mov` immediate to register.
    MovRI {
        /// Destination.
        dst: Reg,
        /// Immediate.
        imm: i128,
    },
    /// Load: `dst = mov width [addr]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Access width in bits (may differ from `dst` width only for
        /// `movzx`-style widening, expressed by `zext`).
        width: u32,
        /// Address.
        addr: Addr,
        /// Zero-extend a narrower load into the destination.
        zext: bool,
    },
    /// Store: `mov width [addr] = src`.
    Store {
        /// Access width in bits.
        width: u32,
        /// Address.
        addr: Addr,
        /// Value.
        src: RegImm,
    },
    /// Three-address ALU operation; sets flags.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination (defines the width).
        dst: Reg,
        /// Left operand.
        lhs: RegImm,
        /// Right operand.
        rhs: RegImm,
    },
    /// `cmp lhs, rhs` — computes `lhs - rhs` for flags only.
    Cmp {
        /// Operand width.
        width: u32,
        /// Left operand.
        lhs: RegImm,
        /// Right operand.
        rhs: RegImm,
    },
    /// `inc`: `dst = src + 1`; sets all flags except `cf` (x86 quirk).
    Inc {
        /// Destination.
        dst: Reg,
        /// Source.
        src: Reg,
    },
    /// `lea dst, [addr]` — address arithmetic, no flags, no access.
    Lea {
        /// Destination.
        dst: Reg,
        /// Address.
        addr: Addr,
    },
    /// `movzx`/`movsx` between registers.
    Ext {
        /// Destination (wider).
        dst: Reg,
        /// Source (narrower).
        src: Reg,
        /// `true` for sign extension.
        signed: bool,
    },
    /// `set<cc> dst` — materializes a condition into an 8-bit register.
    SetCc {
        /// Condition.
        cc: Cond,
        /// Destination (8-bit).
        dst: Reg,
    },
    /// Division (`div`/`idiv` family, simplified to three-address form).
    ///
    /// Raises the x86 `#DE` exception — modelled as error states — on a
    /// zero divisor and on signed `INT_MIN / -1` overflow.
    Div {
        /// `true` for `idiv` (signed).
        signed: bool,
        /// `true` to produce the remainder instead of the quotient.
        rem: bool,
        /// Destination.
        dst: Reg,
        /// Dividend.
        lhs: RegImm,
        /// Divisor.
        rhs: RegImm,
    },
    /// Call to an external function following the SysV convention.
    Call {
        /// Callee symbol.
        callee: String,
        /// Widths of the integer arguments (read from the argument
        /// registers in order).
        arg_widths: Vec<u32>,
        /// Width of the return value placed in `rax` (`None` for void).
        ret_width: Option<u32>,
    },
}

/// Block terminators.
#[derive(Debug, Clone, PartialEq)]
pub enum VxTerm {
    /// `jmp target`.
    Jmp {
        /// Target block.
        target: String,
    },
    /// `j<cc> then_; jmp else_`.
    CondJmp {
        /// Condition.
        cc: Cond,
        /// Target when the condition holds.
        then_: String,
        /// Fallthrough target.
        else_: String,
    },
    /// `ret`.
    Ret,
    /// `ud2` — the undefined-instruction trap ISel emits for
    /// `unreachable`.
    Ud2,
}

impl VxTerm {
    /// Successor block names.
    pub fn successors(&self) -> Vec<&str> {
        match self {
            VxTerm::Jmp { target } => vec![target],
            VxTerm::CondJmp { then_, else_, .. } => vec![then_, else_],
            VxTerm::Ret | VxTerm::Ud2 => vec![],
        }
    }
}

/// A basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct VxBlock {
    /// Label.
    pub name: String,
    /// Body.
    pub instrs: Vec<VxInstr>,
    /// Terminator.
    pub term: VxTerm,
}

/// A Virtual x86 function.
#[derive(Debug, Clone, PartialEq)]
pub struct VxFunction {
    /// Symbol name.
    pub name: String,
    /// Number of integer parameters (arriving in the SysV registers).
    pub num_params: usize,
    /// Widths of the parameters.
    pub param_widths: Vec<u32>,
    /// Width of the return value in `rax` (`None` for void).
    pub ret_width: Option<u32>,
    /// Blocks; the first is the entry.
    pub blocks: Vec<VxBlock>,
}

impl VxFunction {
    /// The entry block.
    ///
    /// # Panics
    ///
    /// Panics if the function has no blocks.
    pub fn entry(&self) -> &VxBlock {
        self.blocks.first().expect("function has no blocks")
    }

    /// Looks up a block by name.
    pub fn block(&self, name: &str) -> Option<&VxBlock> {
        self.blocks.iter().find(|b| b.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phys_reg_views() {
        assert_eq!(PhysReg::Rax.view_name(64), "rax");
        assert_eq!(PhysReg::Rax.view_name(32), "eax");
        assert_eq!(PhysReg::Rax.view_name(16), "ax");
        assert_eq!(PhysReg::Rax.view_name(8), "al");
        assert_eq!(PhysReg::R8.view_name(32), "r8d");
        assert_eq!(PhysReg::Rdi.view_name(32), "edi");
    }

    #[test]
    fn phys_reg_parse_roundtrip() {
        for name in ["rax", "eax", "edi", "r9d", "dl", "sp", "r15b"] {
            let (r, w) = PhysReg::parse(name).unwrap_or_else(|| panic!("{name} parses"));
            assert_eq!(r.view_name(w), name);
        }
        assert_eq!(PhysReg::parse("xyz"), None);
    }

    #[test]
    fn reg_display() {
        assert_eq!(Reg::vr32(7).to_string(), "%vr7_32");
        assert_eq!(Reg::Phys(PhysReg::Rdi, 32).to_string(), "edi");
    }

    #[test]
    fn addr_display() {
        assert_eq!(Addr::global("b", 2).to_string(), "b+2(%rip)");
        assert_eq!(Addr::global("b", 0).to_string(), "b(%rip)");
        assert_eq!(Addr::base_disp(Reg::vr64(3), 8).to_string(), "8(%vr3_64)");
        assert_eq!(Addr::absolute(0x1000).to_string(), "4096");
    }

    #[test]
    fn cond_negation_is_involutive() {
        for c in [
            Cond::E,
            Cond::Ne,
            Cond::B,
            Cond::Ae,
            Cond::Be,
            Cond::A,
            Cond::L,
            Cond::Ge,
            Cond::Le,
            Cond::G,
            Cond::S,
            Cond::Ns,
        ] {
            assert_eq!(c.negate().negate(), c);
        }
    }
}
