//! Textual printing of the LLVM IR fragment (round-trips with the parser).

use std::fmt;

use crate::ast::{Block, Function, Global, Instr, Module, Terminator};

/// The module is rendered into one buffer and handed to the sink in a
/// single write, so a sink with a costly `write_str` (an unbuffered
/// writer, or a `String` behind a `dyn Write` built without optimization)
/// pays once per module instead of once per token.
impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.render(&mut text)?;
        f.write_str(&text)
    }
}

impl Module {
    fn render(&self, f: &mut String) -> fmt::Result {
        use std::fmt::Write;
        for g in &self.globals {
            writeln!(f, "{g}")?;
        }
        if !self.globals.is_empty() {
            writeln!(f)?;
        }
        for (name, ret, params) in &self.declarations {
            write!(f, "declare {ret} @{name}(")?;
            for (i, t) in params.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f, ")")?;
        }
        for func in &self.functions {
            writeln!(f, "{func}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Global {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.external {
            write!(f, "@{} = external global {}", self.name, self.ty)
        } else {
            match &self.init {
                Some(bytes) if bytes.iter().all(|&b| b == 0) => {
                    write!(f, "@{} = global {} zeroinitializer", self.name, self.ty)
                }
                Some(bytes) => {
                    let mut v: u128 = 0;
                    for (i, &b) in bytes.iter().enumerate().take(16) {
                        v |= u128::from(b) << (8 * i);
                    }
                    write!(f, "@{} = global {} {}", self.name, self.ty, v)
                }
                None => write!(f, "@{} = global {} zeroinitializer", self.name, self.ty),
            }
        }
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "define {} @{}(", self.ret_ty, self.name)?;
        for (i, (name, ty)) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{ty} {name}")?;
        }
        writeln!(f, ") {{")?;
        for (i, b) in self.blocks.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{b}")?;
        }
        writeln!(f, "}}")
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for i in &self.instrs {
            writeln!(f, "  {i}")?;
        }
        writeln!(f, "  {}", self.term)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Bin { op, nsw, ty, dst, lhs, rhs } => {
                let flag = if *nsw { " nsw" } else { "" };
                write!(f, "{dst} = {}{flag} {ty} {lhs}, {rhs}", op.mnemonic())
            }
            Instr::Icmp { pred, ty, dst, lhs, rhs } => {
                write!(f, "{dst} = icmp {} {ty} {lhs}, {rhs}", pred.mnemonic())
            }
            Instr::Phi { dst, ty, incomings } => {
                write!(f, "{dst} = phi {ty} ")?;
                for (i, (v, bb)) in incomings.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "[ {v}, %{bb} ]")?;
                }
                Ok(())
            }
            Instr::Load { dst, ty, ptr } => write!(f, "{dst} = load {ty}, {ty}* {ptr}"),
            Instr::Store { ty, val, ptr } => write!(f, "store {ty} {val}, {ty}* {ptr}"),
            Instr::Alloca { dst, ty } => write!(f, "{dst} = alloca {ty}"),
            Instr::Gep { dst, base_ty, ptr, indices } => {
                write!(f, "{dst} = getelementptr inbounds {base_ty}, {base_ty}* {ptr}")?;
                for (t, i) in indices {
                    write!(f, ", {t} {i}")?;
                }
                Ok(())
            }
            Instr::Cast { kind, dst, from_ty, val, to_ty } => {
                write!(f, "{dst} = {} {from_ty} {val} to {to_ty}", kind.mnemonic())
            }
            Instr::Call { dst, ret_ty, callee, args } => {
                if let Some(d) = dst {
                    write!(f, "{d} = ")?;
                }
                write!(f, "call {ret_ty} @{callee}(")?;
                for (i, (t, v)) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t} {v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Br { target } => write!(f, "br label %{target}"),
            Terminator::CondBr { cond, then_, else_ } => {
                write!(f, "br i1 {cond}, label %{then_}, label %{else_}")
            }
            Terminator::Ret { val: Some((ty, v)) } => write!(f, "ret {ty} {v}"),
            Terminator::Ret { val: None } => write!(f, "ret void"),
            Terminator::Unreachable => write!(f, "unreachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse_module;

    #[test]
    fn print_parse_roundtrip() {
        let src = r#"
@g = external global i32

define i32 @f(i32 %x, i32 %y) {
entry:
  %s = add nsw i32 %x, %y
  %c = icmp slt i32 %s, 0
  br i1 %c, label %neg, label %pos

neg:
  ret i32 0

pos:
  %p = getelementptr inbounds i32, i32* @g, i64 0
  %v = load i32, i32* %p
  %r = add i32 %s, %v
  ret i32 %r
}
"#;
        let m1 = parse_module(src).expect("parses");
        let printed = m1.to_string();
        let m2 =
            parse_module(&printed).unwrap_or_else(|e| panic!("reparse failed: {e}\n{printed}"));
        assert_eq!(m1, m2, "print/parse roundtrip");
    }

    #[test]
    fn roundtrip_phi_and_calls() {
        let src = r#"
define i32 @f(i32 %n) {
entry:
  br label %loop

loop:
  %i = phi i32 [ 0, %entry ], [ %i2, %loop ]
  %i2 = add i32 %i, 1
  %c = icmp ult i32 %i2, %n
  br i1 %c, label %loop, label %done

done:
  %r = call i32 @helper(i32 %i2)
  ret i32 %r
}
"#;
        let m1 = parse_module(src).expect("parses");
        let m2 = parse_module(&m1.to_string()).expect("reparses");
        assert_eq!(m1, m2);
    }
}
