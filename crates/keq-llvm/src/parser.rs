//! A parser for the textual form of the supported LLVM IR fragment.
//!
//! Covers everything §4.2 needs, including the constant-expression operands
//! (`bitcast (… getelementptr inbounds (…) …)`) used by the paper's bug
//! reproductions in Fig. 8 and Fig. 10. Comments (`; …`) are skipped, so
//! the paper's annotated listings parse as-is.

use std::fmt;

use crate::ast::{
    BinOp, Block, CastKind, ConstExpr, Function, Global, IcmpPred, Instr, Module, Operand,
    Terminator,
};
use crate::types::Type;

/// A parse error with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses an LLVM IR module.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first offending token.
pub fn parse_module(src: &str) -> Result<Module, ParseError> {
    let _span = keq_trace::span(keq_trace::Phase::Parse);
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    p.module()
}

/// Parses a single function definition (convenience for tests and the
/// workload generator).
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or when the source does not
/// contain exactly one function.
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let m = parse_module(src)?;
    if m.functions.len() != 1 {
        return Err(ParseError {
            line: 1,
            message: format!("expected exactly one function, found {}", m.functions.len()),
        });
    }
    Ok(m.functions.into_iter().next().expect("one function"))
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Local(String),
    Global(String),
    Int(i128),
    Punct(char),
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn tokenize(src: &str) -> Result<Vec<SpannedTok>, ParseError> {
    let mut out = Vec::new();
    let mut chars = src.char_indices().peekable();
    let mut line = 1usize;
    let bytes = src.as_bytes();
    while let Some((i, c)) = chars.next() {
        match c {
            '\n' => line += 1,
            ';' => {
                for (_, c2) in chars.by_ref() {
                    if c2 == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {}
            '%' | '@' => {
                let mut name = String::new();
                name.push(c);
                while let Some(&(_, c2)) = chars.peek() {
                    if is_word_char(c2) {
                        name.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if name.len() == 1 {
                    return Err(ParseError { line, message: format!("dangling `{c}`") });
                }
                let tok =
                    if c == '%' { Tok::Local(name) } else { Tok::Global(name[1..].to_owned()) };
                out.push(SpannedTok { tok, line });
            }
            '-' | '0'..='9' => {
                let neg = c == '-';
                let mut value: i128 = if neg { 0 } else { i128::from(c as u8 - b'0') };
                let mut any = !neg;
                while let Some(&(_, c2)) = chars.peek() {
                    if c2.is_ascii_digit() {
                        value = value * 10 + i128::from(c2 as u8 - b'0');
                        any = true;
                        chars.next();
                    } else {
                        break;
                    }
                }
                if !any {
                    return Err(ParseError { line, message: "dangling `-`".into() });
                }
                out.push(SpannedTok { tok: Tok::Int(if neg { -value } else { value }), line });
            }
            c if is_word_start(c) => {
                let mut word = String::new();
                word.push(c);
                let _ = i;
                let _ = bytes;
                while let Some(&(_, c2)) = chars.peek() {
                    if is_word_char(c2) {
                        word.push(c2);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(SpannedTok { tok: Tok::Word(word), line });
            }
            '(' | ')' | '[' | ']' | '{' | '}' | '*' | ',' | '=' | ':' => {
                out.push(SpannedTok { tok: Tok::Punct(c), line });
            }
            other => {
                return Err(ParseError { line, message: format!("unexpected character `{other}`") })
            }
        }
    }
    Ok(out)
}

fn is_word_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '.'
}

fn is_word_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '$' || c == '-'
}

/// Return type, callee, and typed arguments of a parsed call.
type CallTail = (Type, String, Vec<(Type, Operand)>);

struct Parser {
    tokens: Vec<SpannedTok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|t| &t.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.tokens.get(self.pos + 1).map(|t| &t.tok)
    }

    fn line(&self) -> usize {
        self.tokens.get(self.pos.min(self.tokens.len().saturating_sub(1))).map_or(0, |t| t.line)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line(), message: message.into() }
    }

    fn next(&mut self) -> Result<Tok, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| self.err("unexpected end of input"))?;
        self.pos += 1;
        Ok(t.tok)
    }

    fn expect_punct(&mut self, c: char) -> Result<(), ParseError> {
        match self.next()? {
            Tok::Punct(p) if p == c => Ok(()),
            other => Err(self.err(format!("expected `{c}`, found {other:?}"))),
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Punct(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Word(x)) if x == w) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, w: &str) -> Result<(), ParseError> {
        if self.eat_word(w) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{w}`")))
        }
    }

    fn word(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Word(w) => Ok(w),
            other => Err(self.err(format!("expected word, found {other:?}"))),
        }
    }

    fn local(&mut self) -> Result<String, ParseError> {
        match self.next()? {
            Tok::Local(l) => Ok(l),
            other => Err(self.err(format!("expected local, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<i128, ParseError> {
        match self.next()? {
            Tok::Int(i) => Ok(i),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    // -- grammar ----------------------------------------------------------

    fn module(&mut self) -> Result<Module, ParseError> {
        let mut m = Module::default();
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Global(_) => m.globals.push(self.global()?),
                Tok::Word(w) if w == "define" => m.functions.push(self.function()?),
                Tok::Word(w) if w == "declare" => m.declarations.push(self.declaration()?),
                other => return Err(self.err(format!("unexpected top-level token {other:?}"))),
            }
        }
        Ok(m)
    }

    fn global(&mut self) -> Result<Global, ParseError> {
        let name = match self.next()? {
            Tok::Global(g) => g,
            other => return Err(self.err(format!("expected global, found {other:?}"))),
        };
        self.expect_punct('=')?;
        let external = self.eat_word("external");
        // Accept (and ignore) common linkage/attribute words.
        while self.eat_word("private")
            || self.eat_word("internal")
            || self.eat_word("constant")
            || self.eat_word("unnamed_addr")
        {}
        let _ = self.eat_word("global");
        let ty = self.ty()?;
        let mut init = None;
        if !external {
            if self.eat_word("zeroinitializer") {
                init = Some(vec![0u8; ty.store_bytes() as usize]);
            } else if let Some(Tok::Int(_)) = self.peek() {
                let v = self.int()?;
                let mut bytes = vec![0u8; ty.store_bytes() as usize];
                for (k, b) in bytes.iter_mut().enumerate() {
                    *b = ((v as u128) >> (8 * k)) as u8;
                }
                init = Some(bytes);
            }
        }
        if self.eat_punct(',') {
            self.expect_word("align")?;
            self.int()?;
        }
        Ok(Global { name, ty, external, init })
    }

    fn declaration(&mut self) -> Result<(String, Type, Vec<Type>), ParseError> {
        self.expect_word("declare")?;
        let ret = self.ty()?;
        let name = match self.next()? {
            Tok::Global(g) => g,
            other => return Err(self.err(format!("expected function name, found {other:?}"))),
        };
        self.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.eat_punct(')') {
            loop {
                params.push(self.ty()?);
                // Optional parameter name.
                if matches!(self.peek(), Some(Tok::Local(_))) {
                    self.next()?;
                }
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok((name, ret, params))
    }

    fn function(&mut self) -> Result<Function, ParseError> {
        self.expect_word("define")?;
        let ret_ty = self.ty()?;
        let name = match self.next()? {
            Tok::Global(g) => g,
            other => return Err(self.err(format!("expected function name, found {other:?}"))),
        };
        self.expect_punct('(')?;
        let mut params = Vec::new();
        if !self.eat_punct(')') {
            loop {
                let ty = self.ty()?;
                let pname = self.local()?;
                params.push((pname, ty));
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        self.expect_punct('{')?;
        let mut blocks = Vec::new();
        let mut current_name: String = "entry".into();
        // An explicit leading label overrides the implicit entry name.
        if let (Some(Tok::Word(w)), Some(Tok::Punct(':'))) = (self.peek(), self.peek2()) {
            current_name = w.clone();
            self.pos += 2;
        }
        let mut instrs: Vec<Instr> = Vec::new();
        loop {
            if self.eat_punct('}') {
                if !instrs.is_empty() {
                    return Err(self.err("block without terminator at end of function"));
                }
                break;
            }
            if let (Some(Tok::Word(w)), Some(Tok::Punct(':'))) = (self.peek(), self.peek2()) {
                let w = w.clone();
                if !instrs.is_empty() {
                    return Err(self.err(format!("block `{current_name}` has no terminator")));
                }
                current_name = w;
                self.pos += 2;
                continue;
            }
            match self.statement()? {
                Stmt::Instr(i) => instrs.push(i),
                Stmt::Term(t) => {
                    blocks.push(Block {
                        name: std::mem::take(&mut current_name),
                        instrs: std::mem::take(&mut instrs),
                        term: t,
                    });
                    // Peek for the next block label (or `}`).
                    if let (Some(Tok::Word(w)), Some(Tok::Punct(':'))) = (self.peek(), self.peek2())
                    {
                        current_name = w.clone();
                        self.pos += 2;
                    }
                }
            }
        }
        if blocks.is_empty() {
            return Err(self.err("function has no blocks"));
        }
        Ok(Function { name, ret_ty, params, blocks })
    }

    fn statement(&mut self) -> Result<Stmt, ParseError> {
        // Assignment?
        if let (Some(Tok::Local(dst)), Some(Tok::Punct('='))) = (self.peek(), self.peek2()) {
            let dst = dst.clone();
            self.pos += 2;
            return Ok(Stmt::Instr(self.assigned_instr(dst)?));
        }
        let w = self.word()?;
        match w.as_str() {
            "store" => {
                let ty = self.ty()?;
                let val = self.operand()?;
                self.expect_punct(',')?;
                let _pty = self.ty()?;
                let ptr = self.operand()?;
                self.skip_align()?;
                Ok(Stmt::Instr(Instr::Store { ty, val, ptr }))
            }
            "call" => {
                let (ret_ty, callee, args) = self.call_tail()?;
                Ok(Stmt::Instr(Instr::Call { dst: None, ret_ty, callee, args }))
            }
            "br" => {
                if self.eat_word("label") {
                    let target = self.local()?;
                    Ok(Stmt::Term(Terminator::Br { target: strip_pct(target) }))
                } else {
                    let ty = self.ty()?;
                    if ty != Type::I1 {
                        return Err(self.err("conditional branch condition must be i1"));
                    }
                    let cond = self.operand()?;
                    self.expect_punct(',')?;
                    self.expect_word("label")?;
                    let then_ = strip_pct(self.local()?);
                    self.expect_punct(',')?;
                    self.expect_word("label")?;
                    let else_ = strip_pct(self.local()?);
                    Ok(Stmt::Term(Terminator::CondBr { cond, then_, else_ }))
                }
            }
            "ret" => {
                let ty = self.ty()?;
                if ty == Type::Void {
                    Ok(Stmt::Term(Terminator::Ret { val: None }))
                } else {
                    let v = self.operand()?;
                    Ok(Stmt::Term(Terminator::Ret { val: Some((ty, v)) }))
                }
            }
            "unreachable" => Ok(Stmt::Term(Terminator::Unreachable)),
            other => Err(self.err(format!("unknown statement `{other}`"))),
        }
    }

    fn assigned_instr(&mut self, dst: String) -> Result<Instr, ParseError> {
        let w = self.word()?;
        if let Some(op) = binop_of(&w) {
            let mut nsw = false;
            while let Some(Tok::Word(flag)) = self.peek() {
                match flag.as_str() {
                    "nsw" => {
                        nsw = true;
                        self.pos += 1;
                    }
                    "nuw" | "exact" => {
                        self.pos += 1;
                    }
                    _ => break,
                }
            }
            let ty = self.ty()?;
            let lhs = self.operand()?;
            self.expect_punct(',')?;
            let rhs = self.operand()?;
            return Ok(Instr::Bin { op, nsw, ty, dst, lhs, rhs });
        }
        match w.as_str() {
            "icmp" => {
                let pred = icmp_of(&self.word()?).ok_or_else(|| self.err("bad icmp predicate"))?;
                let ty = self.ty()?;
                let lhs = self.operand()?;
                self.expect_punct(',')?;
                let rhs = self.operand()?;
                Ok(Instr::Icmp { pred, ty, dst, lhs, rhs })
            }
            "phi" => {
                let ty = self.ty()?;
                let mut incomings = Vec::new();
                loop {
                    self.expect_punct('[')?;
                    let v = self.operand()?;
                    self.expect_punct(',')?;
                    let bb = strip_pct(self.local()?);
                    self.expect_punct(']')?;
                    incomings.push((v, bb));
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                Ok(Instr::Phi { dst, ty, incomings })
            }
            "load" => {
                let ty = self.ty()?;
                self.expect_punct(',')?;
                let _pty = self.ty()?;
                let ptr = self.operand()?;
                self.skip_align()?;
                Ok(Instr::Load { dst, ty, ptr })
            }
            "alloca" => {
                let ty = self.ty()?;
                self.skip_align()?;
                Ok(Instr::Alloca { dst, ty })
            }
            "getelementptr" => {
                let _ = self.eat_word("inbounds");
                let base_ty = self.ty()?;
                self.expect_punct(',')?;
                let _pty = self.ty()?;
                let ptr = self.operand()?;
                let mut indices = Vec::new();
                while self.eat_punct(',') {
                    let ity = self.ty()?;
                    let idx = self.operand()?;
                    indices.push((ity, idx));
                }
                Ok(Instr::Gep { dst, base_ty, ptr, indices })
            }
            "call" => {
                let (ret_ty, callee, args) = self.call_tail()?;
                Ok(Instr::Call { dst: Some(dst), ret_ty, callee, args })
            }
            cast if cast_of(cast).is_some() => {
                let kind = cast_of(cast).expect("checked");
                let from_ty = self.ty()?;
                let val = self.operand()?;
                self.expect_word("to")?;
                let to_ty = self.ty()?;
                Ok(Instr::Cast { kind, dst, from_ty, val, to_ty })
            }
            other => Err(self.err(format!("unknown instruction `{other}`"))),
        }
    }

    fn call_tail(&mut self) -> Result<CallTail, ParseError> {
        let ret_ty = self.ty()?;
        let callee = match self.next()? {
            Tok::Global(g) => g,
            other => return Err(self.err(format!("expected callee, found {other:?}"))),
        };
        self.expect_punct('(')?;
        let mut args = Vec::new();
        if !self.eat_punct(')') {
            loop {
                let ty = self.ty()?;
                let v = self.operand()?;
                args.push((ty, v));
                if self.eat_punct(')') {
                    break;
                }
                self.expect_punct(',')?;
            }
        }
        Ok((ret_ty, callee, args))
    }

    fn skip_align(&mut self) -> Result<(), ParseError> {
        if self.eat_punct(',') {
            self.expect_word("align")?;
            self.int()?;
        }
        Ok(())
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.peek().cloned() {
            Some(Tok::Local(l)) => {
                self.pos += 1;
                Ok(Operand::Local(l))
            }
            Some(Tok::Int(i)) => {
                self.pos += 1;
                Ok(Operand::Const(i))
            }
            Some(Tok::Global(g)) => {
                self.pos += 1;
                Ok(Operand::Global(g))
            }
            Some(Tok::Word(w)) if w == "null" => {
                self.pos += 1;
                Ok(Operand::Null)
            }
            Some(Tok::Word(w)) if w == "true" => {
                self.pos += 1;
                Ok(Operand::Const(1))
            }
            Some(Tok::Word(w)) if w == "false" => {
                self.pos += 1;
                Ok(Operand::Const(0))
            }
            Some(Tok::Word(w)) if w == "bitcast" => {
                self.pos += 1;
                self.expect_punct('(')?;
                let from_ty = self.ty()?;
                let value = self.operand()?;
                self.expect_word("to")?;
                let to_ty = self.ty()?;
                self.expect_punct(')')?;
                Ok(Operand::Expr(Box::new(ConstExpr::Bitcast { from_ty, value, to_ty })))
            }
            Some(Tok::Word(w)) if w == "getelementptr" => {
                self.pos += 1;
                let _ = self.eat_word("inbounds");
                self.expect_punct('(')?;
                let base_ty = self.ty()?;
                self.expect_punct(',')?;
                let _pty = self.ty()?;
                let base = self.operand()?;
                let mut indices = Vec::new();
                while self.eat_punct(',') {
                    let ity = self.ty()?;
                    let idx = self.operand()?;
                    indices.push((ity, idx));
                }
                self.expect_punct(')')?;
                Ok(Operand::Expr(Box::new(ConstExpr::Gep { base_ty, base, indices })))
            }
            other => Err(self.err(format!("expected operand, found {other:?}"))),
        }
    }

    fn ty(&mut self) -> Result<Type, ParseError> {
        let base = match self.next()? {
            Tok::Word(w) if w == "void" => Type::Void,
            Tok::Word(w) if w.starts_with('i') && w[1..].chars().all(|c| c.is_ascii_digit()) => {
                let bits: u32 =
                    w[1..].parse().map_err(|_| self.err(format!("bad integer type `{w}`")))?;
                if !(1..=128).contains(&bits) {
                    return Err(self.err(format!("unsupported integer width {bits}")));
                }
                Type::Int(bits)
            }
            Tok::Punct('[') => {
                let n = self.int()?;
                if n < 0 {
                    return Err(self.err("negative array length"));
                }
                self.expect_word("x")?;
                let elem = self.ty()?;
                self.expect_punct(']')?;
                Type::Array(n as u64, Box::new(elem))
            }
            Tok::Punct('{') => {
                let mut fields = Vec::new();
                if !self.eat_punct('}') {
                    loop {
                        fields.push(self.ty()?);
                        if self.eat_punct('}') {
                            break;
                        }
                        self.expect_punct(',')?;
                    }
                }
                Type::Struct(fields)
            }
            other => return Err(self.err(format!("expected type, found {other:?}"))),
        };
        let mut t = base;
        while self.eat_punct('*') {
            t = t.ptr_to();
        }
        Ok(t)
    }
}

enum Stmt {
    Instr(Instr),
    Term(Terminator),
}

fn strip_pct(s: String) -> String {
    s.strip_prefix('%').map(str::to_owned).unwrap_or(s)
}

fn binop_of(w: &str) -> Option<BinOp> {
    Some(match w {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "udiv" => BinOp::Udiv,
        "sdiv" => BinOp::Sdiv,
        "urem" => BinOp::Urem,
        "srem" => BinOp::Srem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "lshr" => BinOp::Lshr,
        "ashr" => BinOp::Ashr,
        _ => return None,
    })
}

fn icmp_of(w: &str) -> Option<IcmpPred> {
    Some(match w {
        "eq" => IcmpPred::Eq,
        "ne" => IcmpPred::Ne,
        "ult" => IcmpPred::Ult,
        "ule" => IcmpPred::Ule,
        "ugt" => IcmpPred::Ugt,
        "uge" => IcmpPred::Uge,
        "slt" => IcmpPred::Slt,
        "sle" => IcmpPred::Sle,
        "sgt" => IcmpPred::Sgt,
        "sge" => IcmpPred::Sge,
        _ => return None,
    })
}

fn cast_of(w: &str) -> Option<CastKind> {
    Some(match w {
        "zext" => CastKind::Zext,
        "sext" => CastKind::Sext,
        "trunc" => CastKind::Trunc,
        "bitcast" => CastKind::Bitcast,
        "inttoptr" => CastKind::IntToPtr,
        "ptrtoint" => CastKind::PtrToInt,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_running_example() {
        let f = parse_function(crate::corpus::ARITHM_SEQ_SUM).expect("parses");
        assert_eq!(f.name, "arithm_seq_sum");
        assert_eq!(f.params.len(), 3);
        assert_eq!(f.blocks.len(), 5);
        assert_eq!(f.entry().name, "entry");
        let cond = f.block("for.cond").expect("block exists");
        assert_eq!(cond.instrs.len(), 4);
        assert!(matches!(cond.instrs[0], Instr::Phi { .. }));
        assert!(matches!(cond.term, Terminator::CondBr { .. }));
    }

    #[test]
    fn parses_fig8_waw_example() {
        // Paper Fig. 8 verbatim (modulo whitespace).
        let src = r#"
@b = external global [8 x i8]

define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"#;
        let m = parse_module(src).expect("parses");
        assert_eq!(m.globals.len(), 1);
        assert!(m.globals[0].external);
        assert_eq!(m.globals[0].ty, Type::Array(8, Box::new(Type::I8)));
        let f = &m.functions[0];
        assert_eq!(f.blocks[0].instrs.len(), 3);
        let Instr::Store { ptr: Operand::Expr(e), .. } = &f.blocks[0].instrs[0] else {
            panic!("expected store with const-expr pointer");
        };
        assert!(matches!(**e, ConstExpr::Bitcast { .. }));
    }

    #[test]
    fn parses_fig10_load_narrowing_example() {
        let src = r#"
@a = external global i96, align 4
@b = external global i64, align 8

define void @foo() {
  %srcval = load i96, i96* @a, align 4
  %tmp96 = lshr i96 %srcval, 64
  %tmp64 = trunc i96 %tmp96 to i64
  store i64 %tmp64, i64* @b, align 8
  ret void
}
"#;
        let m = parse_module(src).expect("parses");
        assert_eq!(m.globals.len(), 2);
        assert_eq!(m.globals[0].ty, Type::Int(96));
        let f = &m.functions[0];
        assert_eq!(f.blocks[0].name, "entry", "implicit entry label");
        assert_eq!(f.blocks[0].instrs.len(), 4);
    }

    #[test]
    fn parses_calls_and_declarations() {
        let src = r#"
declare i32 @ext(i32, i32)

define i32 @caller(i32 %x) {
  %r = call i32 @ext(i32 %x, i32 7)
  call void @sink(i32 %r)
  ret i32 %r
}
"#;
        let m = parse_module(src).expect("parses");
        assert_eq!(m.declarations.len(), 1);
        let f = &m.functions[0];
        assert!(matches!(
            &f.blocks[0].instrs[0],
            Instr::Call { dst: Some(_), callee, .. } if callee == "ext"
        ));
        assert!(matches!(&f.blocks[0].instrs[1], Instr::Call { dst: None, .. }));
    }

    #[test]
    fn parses_nsw_flag() {
        let src = "define i32 @f(i32 %x) {\n %y = add nsw i32 %x, 1\n ret i32 %y\n}";
        let f = parse_function(src).expect("parses");
        assert!(matches!(f.blocks[0].instrs[0], Instr::Bin { nsw: true, .. }));
    }

    #[test]
    fn parses_alloca_gep_load_store() {
        let src = r#"
define i32 @f() {
  %buf = alloca [4 x i32]
  %p = getelementptr inbounds [4 x i32], [4 x i32]* %buf, i64 0, i64 2
  store i32 11, i32* %p
  %v = load i32, i32* %p
  ret i32 %v
}
"#;
        let f = parse_function(src).expect("parses");
        assert_eq!(f.blocks[0].instrs.len(), 4);
        assert!(matches!(&f.blocks[0].instrs[1], Instr::Gep { indices, .. } if indices.len() == 2));
    }

    #[test]
    fn rejects_block_without_terminator() {
        let src = "define void @f() {\n %x = add i32 1, 2\n}";
        assert!(parse_module(src).is_err());
    }

    #[test]
    fn rejects_bad_condbr_type() {
        let src = "define void @f(i32 %c) {\n br i32 %c, label %a, label %b\na:\n ret void\nb:\n ret void\n}";
        let err = parse_module(src).expect_err("must reject");
        assert!(err.message.contains("i1"), "{err}");
    }

    #[test]
    fn error_carries_line_number() {
        let src = "define void @f() {\n ret void\n}\n???";
        let err = parse_module(src).expect_err("must reject");
        assert_eq!(err.line, 4);
    }

    #[test]
    fn parses_struct_types_and_casts() {
        let src = r#"
define i64 @f(i64 %x) {
  %p = inttoptr i64 %x to {i8, i64}*
  %q = ptrtoint {i8, i64}* %p to i64
  ret i64 %q
}
"#;
        let f = parse_function(src).expect("parses");
        assert!(matches!(&f.blocks[0].instrs[0], Instr::Cast { kind: CastKind::IntToPtr, .. }));
    }
}
