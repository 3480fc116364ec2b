//! The paper's example programs, verbatim, as reusable fixtures.

/// Fig. 1/2(a): the arithmetic sequence sum in LLVM IR.
pub const ARITHM_SEQ_SUM: &str = r#"
define i32 @arithm_seq_sum(i32 %a0, i32 %d, i32 %n) {
entry:
  br label %for.cond

for.cond:
  %s.0 = phi i32 [ %a0, %entry ], [ %add1, %for.inc ]
  %a.0 = phi i32 [ %a0, %entry ], [ %add, %for.inc ]
  %i.0 = phi i32 [ 1, %entry ], [ %inc, %for.inc ]
  %cmp = icmp ult i32 %i.0, %n
  br i1 %cmp, label %for.body, label %for.end

for.body:
  %add = add i32 %a.0, %d
  %add1 = add i32 %s.0, %add
  br label %for.inc

for.inc:
  %inc = add i32 %i.0, 1
  br label %for.cond

for.end:
  ret i32 %s.0
}
"#;

/// Fig. 8: the write-after-write dependency-violation input. Three 2-byte
/// stores at offsets 2, 3, 1 of `@b`; the first two overlap at offset 3.
pub const FIG8_WAW: &str = r#"
@b = external global [8 x i8]

define void @foo() {
entry:
  store i16 0, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 3) to i16*)
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  ret void
}
"#;

/// Fig. 10: the load-narrowing input with the non-power-of-two `i96` type.
pub const FIG10_LOAD_NARROW: &str = r#"
@a = external global i96, align 4
@b = external global i64, align 8

define void @foo() {
entry:
  %srcval = load i96, i96* @a, align 4
  %tmp96 = lshr i96 %srcval, 64
  %tmp64 = trunc i96 %tmp96 to i64
  store i64 %tmp64, i64* @b, align 8
  ret void
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_module;

    #[test]
    fn all_fixtures_parse() {
        for (name, src) in
            [("arithm_seq_sum", ARITHM_SEQ_SUM), ("fig8", FIG8_WAW), ("fig10", FIG10_LOAD_NARROW)]
        {
            parse_module(src).unwrap_or_else(|e| panic!("{name} failed to parse: {e}"));
        }
    }
}
