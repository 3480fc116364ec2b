//! Sync-set golden: pins every synchronization set the four VC generators
//! emit on fixed inputs, so a change to the shared cut scaffolding (point
//! constructors, liveness, predecessor maps) cannot move a single point,
//! havoc, or equality unnoticed.
//!
//! * the running example's Fig. 3 table, byte for byte (with and without
//!   `imprecise_liveness`);
//! * the `Debug` form of the IMP `sum_to_n` set, and of an ISel set whose
//!   hinted call index is stale;
//! * one FNV-1a digest of `format!("{set:?}")` per function of the default
//!   corpus under ISel and GVN, and per function of the `pressure` corpus
//!   under regalloc.
//!
//! The corpus is checked to exercise spill-slot equalities, call pairs,
//! constant equalities and multi-predecessor loop headers, so the digests
//! are not vacuous.

use keq_core::sync::{SyncSet, ValueExpr};
use keq_imp::compile::flatten;
use keq_imp::{compile, imp_sync_points, Expr, ImpProgram, Stmt};
use keq_isel::{
    allocate_with_options, generate_sync_points, gvn_sync_points, regalloc_sync_points,
    render_sync_table, select, GvnOptions, IselOptions, RaOptions, VcOptions,
};
use keq_llvm::gvn::run_gvn;
use keq_llvm::parser::parse_module;
use keq_llvm::Layout;
use keq_smt::wire::fnv1a64;
use keq_vx86::ast::VxInstr;
use keq_workload::{generate_corpus, GenConfig};

const CORPUS_LEN: usize = 24;
const PRESSURE_LEN: usize = 12;

fn digest(set: &SyncSet) -> u64 {
    fnv1a64(format!("{set:?}").as_bytes())
}

fn running_example(opts: VcOptions) -> SyncSet {
    let m = parse_module(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
    let f = m.function("arithm_seq_sum").expect("present");
    let layout = Layout::of(&m, f);
    let out = select(&m, f, &layout, IselOptions::default()).expect("supported");
    generate_sync_points(f, &out, opts)
}

const FIG3_TABLE: &str = "\
Sync Point         Left                   Right                  Equality Constraints
p0                 <entry>                <entry>                %a0 = edi, %d = esi, %n = edx
p_exit             <exit>                 <exit>                 <ret> = <ret>
loop:for.cond<-entry for.cond (from entry)  LBB1 (from LBB0)       %d = %vr1_32, %n = %vr2_32, %a0 = %vr0_32, 1 = %vr10_32
loop:for.cond<-for.inc for.cond (from for.inc) LBB1 (from LBB3)       %d = %vr1_32, %n = %vr2_32, %add = %vr7_32, %add1 = %vr8_32, %inc = %vr9_32
";

const FIG3_TABLE_IMPRECISE: &str = "\
Sync Point         Left                   Right                  Equality Constraints
p0                 <entry>                <entry>                %a0 = edi, %d = esi, %n = edx
p_exit             <exit>                 <exit>                 <ret> = <ret>
loop:for.cond<-entry for.cond (from entry)  LBB1 (from LBB0)       %d = %vr1_32, %n = %vr2_32, %a0 = %vr0_32
loop:for.cond<-for.inc for.cond (from for.inc) LBB1 (from LBB3)       %d = %vr1_32, %n = %vr2_32, %add = %vr7_32, %add1 = %vr8_32
";

#[test]
fn running_example_table_is_pinned() {
    let table = render_sync_table(&running_example(VcOptions::default()));
    assert_eq!(table, FIG3_TABLE, "\n{table}");
    let table = render_sync_table(&running_example(VcOptions { imprecise_liveness: true }));
    assert_eq!(table, FIG3_TABLE_IMPRECISE, "\n{table}");
}

/// Two contiguous constant `i16` stores to one global, merged into one
/// store after lowering, then a call whose result is used. The hinted
/// right-side call index (`Hints::call_sites`) is recorded before
/// `merge_stores` deletes the second store, so `ret:g#0` resumes the
/// Virtual x86 side one instruction late, past the copy out of `eax`.
/// This pins that stale index as generated today (CHANGES.md, the FOUND
/// line on the stale ISel call index); the fix changes this set on
/// purpose.
const STALE_CALL: &str = r#"
@b = external global [8 x i8]

declare i32 @g(i32)

define i32 @f(i32 %x) {
entry:
  store i16 1, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 0) to i16*)
  store i16 2, i16* bitcast (i8* getelementptr inbounds ([8 x i8], [8 x i8]* @b, i64 0, i64 2) to i16*)
  %r = call i32 @g(i32 %x)
  %s = add i32 %r, %x
  ret i32 %s
}
"#;

const STALE_CALL_SET: &str = r#"SyncSet { points: [SyncPoint { name: "p0", left: SideSpec { pattern: Entry, start: Some(CtrlLoc { block: "entry", index: 0, prev: None }), havoc_regs: [("%x", 32)] }, right: SideSpec { pattern: Entry, start: Some(CtrlLoc { block: "LBB0", index: 0, prev: None }), havoc_regs: [("zf", 0), ("sf", 0), ("cf", 0), ("of", 0), ("rdi", 64)] }, equalities: [(Reg("%x"), RegSlice { name: "rdi", hi: 31, lo: 0 })], mem_equal: true }, SyncPoint { name: "p_exit", left: SideSpec { pattern: Exit, start: None, havoc_regs: [] }, right: SideSpec { pattern: Exit, start: None, havoc_regs: [] }, equalities: [(Ret, Ret)], mem_equal: true }, SyncPoint { name: "call:g#0", left: SideSpec { pattern: BeforeCall { callee: "g", nth: 0 }, start: None, havoc_regs: [] }, right: SideSpec { pattern: BeforeCall { callee: "g", nth: 0 }, start: None, havoc_regs: [] }, equalities: [(Arg(0), Arg(0)), (Reg("%x"), Reg("%vr0_32"))], mem_equal: true }, SyncPoint { name: "ret:g#0", left: SideSpec { pattern: AfterCall { callee: "g", nth: 0 }, start: Some(CtrlLoc { block: "entry", index: 3, prev: None }), havoc_regs: [("%x", 32), ("%r", 32)] }, right: SideSpec { pattern: AfterCall { callee: "g", nth: 0 }, start: Some(CtrlLoc { block: "LBB0", index: 5, prev: None }), havoc_regs: [("zf", 0), ("sf", 0), ("cf", 0), ("of", 0), ("%vr0_32", 32), ("rax", 64)] }, equalities: [(Reg("%x"), Reg("%vr0_32")), (Reg("%r"), RegSlice { name: "rax", hi: 31, lo: 0 })], mem_equal: true }], right_private: [] }"#;

#[test]
fn stale_isel_call_index_is_pinned() {
    let m = parse_module(STALE_CALL).expect("parses");
    let f = m.function("f").expect("present");
    let layout = Layout::of(&m, f);
    let out = select(&m, f, &layout, IselOptions::default()).expect("supported");
    // The call sits at index 3 of LBB0; `ret:g#0` resumes at index 5.
    let call = out.func.blocks[0].instrs.iter().position(|i| matches!(i, VxInstr::Call { .. }));
    assert_eq!(call, Some(3));
    let text = format!("{:?}", generate_sync_points(f, &out, VcOptions::default()));
    assert_eq!(text, STALE_CALL_SET, "\n{text}");
}

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

const IMP_SUM_TO_N: &str = r#"SyncSet { points: [SyncPoint { name: "entry", left: SideSpec { pattern: Entry, start: Some(CtrlLoc { block: "L0", index: 0, prev: None }), havoc_regs: [("n", 32), ("sum", 32), ("i", 32)] }, right: SideSpec { pattern: Entry, start: Some(CtrlLoc { block: "S0", index: 0, prev: None }), havoc_regs: [("n", 32), ("sum", 32), ("i", 32)] }, equalities: [(Reg("n"), Reg("n")), (Reg("sum"), Reg("sum")), (Reg("i"), Reg("i"))], mem_equal: true }, SyncPoint { name: "exit", left: SideSpec { pattern: Exit, start: None, havoc_regs: [] }, right: SideSpec { pattern: Exit, start: None, havoc_regs: [] }, equalities: [(Ret, Ret)], mem_equal: true }, SyncPoint { name: "loop0", left: SideSpec { pattern: BlockEntry { block: "L2", prev: None }, start: Some(CtrlLoc { block: "L2", index: 0, prev: None }), havoc_regs: [("n", 32), ("sum", 32), ("i", 32)] }, right: SideSpec { pattern: BlockEntry { block: "S4", prev: None }, start: Some(CtrlLoc { block: "S4", index: 0, prev: None }), havoc_regs: [("n", 32), ("sum", 32), ("i", 32)] }, equalities: [(Reg("n"), Reg("n")), (Reg("sum"), Reg("sum")), (Reg("i"), Reg("i"))], mem_equal: true }], right_private: [] }"#;

#[test]
fn imp_sum_to_n_set_is_pinned() {
    let p = sum_to_n();
    let set = imp_sync_points(&flatten(&p), &compile(&p));
    let text = format!("{set:?}");
    assert_eq!(text, IMP_SUM_TO_N, "\n{text}");
}

/// The sets of every pass over the fixed corpora, in corpus order: ISel
/// (default options, then `imprecise_liveness`) and GVN over the default
/// corpus, regalloc over the pressure corpus. A function outside the
/// selector's fragment contributes no ISel or regalloc set.
struct Sets {
    isel: Vec<Option<SyncSet>>,
    isel_imprecise: Vec<Option<SyncSet>>,
    gvn: Vec<SyncSet>,
    regalloc: Vec<Option<SyncSet>>,
}

fn corpus_sets() -> Sets {
    let m = generate_corpus(GenConfig::default(), CORPUS_LEN);
    let mut sets = Sets { isel: vec![], isel_imprecise: vec![], gvn: vec![], regalloc: vec![] };
    for f in &m.functions {
        let layout = Layout::of(&m, f);
        let out = select(&m, f, &layout, IselOptions::default()).ok();
        sets.isel.push(out.as_ref().map(|o| generate_sync_points(f, o, VcOptions::default())));
        sets.isel_imprecise.push(
            out.as_ref()
                .map(|o| generate_sync_points(f, o, VcOptions { imprecise_liveness: true })),
        );
        sets.gvn.push(gvn_sync_points(f, &run_gvn(f, GvnOptions::default())));
    }
    let m = generate_corpus(GenConfig { pressure: 6, ..GenConfig::default() }, PRESSURE_LEN);
    for f in &m.functions {
        let layout = Layout::of(&m, f);
        sets.regalloc.push(select(&m, f, &layout, IselOptions::default()).ok().map(|o| {
            let (post, map) =
                allocate_with_options(&o.func, RaOptions::default(), None).expect("uncancelled");
            regalloc_sync_points(&o.func, &post, &map)
        }));
    }
    sets
}

fn digests(sets: &[Option<SyncSet>]) -> Vec<u64> {
    sets.iter().map(|s| s.as_ref().map_or(0, digest)).collect()
}

const ISEL_DIGESTS: [u64; CORPUS_LEN] = [
    0x485b342242c4aca8,
    0x703c88069b2d3295,
    0xc3a4a093997216a6,
    0x25819fb126645900,
    0x3f2b3a9fef527567,
    0x91cdeb49ab1779d0,
    0xdd53657babd8a72c,
    0x78d1fbf1c66d610d,
    0x72483b9ec083f331,
    0x14d40b7d1acf18d0,
    0x485b342242c4aca8,
    0x419838ef32cedf82,
    0xa1923249efd262d0,
    0x96319d6da993b15f,
    0xc460dff2a6b3276d,
    0xfd50f29e590c6daa,
    0xc40b33a84f9a493c,
    0x75b5578f15b68f38,
    0x485b342242c4aca8,
    0x057706a6cbdeafd4,
    0x12c7016a0d5ef729,
    0xcd0b4c791fb36f0c,
    0x40a42cf0e9a34e7c,
    0xe299ef7cf3b805df,
];
const ISEL_IMPRECISE_DIGESTS: [u64; CORPUS_LEN] = [
    0x485b342242c4aca8,
    0xa2d7fc9d9fd64637,
    0x8f917a15bf1cd16c,
    0x25819fb126645900,
    0x3373ba23806ebbf0,
    0xa26a2d11bd608a23,
    0x768dfc05757c5b7f,
    0x8b454a62283d5bc4,
    0xcb606e64b37d6c30,
    0xb3f4b615b2af0b70,
    0x485b342242c4aca8,
    0x3fb47d31c380a759,
    0x040fd8662d96cef0,
    0x8ed6f3131f4f2682,
    0xaf6d1dcb117cf214,
    0x210835180928e86e,
    0xd06d146eee2b7ba4,
    0xb27c25f49d5fdd37,
    0x485b342242c4aca8,
    0xf1e72e0edb261858,
    0xefd4a3f563026122,
    0x52b9651a42d3f2b7,
    0x81c5ed3ed22c0805,
    0x875125fe4813dfd2,
];
const GVN_DIGESTS: [u64; CORPUS_LEN] = [
    0x457e666e226b3b2e,
    0xcbaf790c79c23a27,
    0x52ef5d7826417cd9,
    0x868e119e515ed261,
    0x95d4c1bb00c5416b,
    0xe3d2da5cf70f97a4,
    0x47d72a8c8e8c1d96,
    0x49c51d282e5d4836,
    0xb038b3f008946dd4,
    0xfdbc5d7d54ec5d21,
    0x457e666e226b3b2e,
    0x53f42ac7ea8da0a3,
    0x9fbbd9317687f46c,
    0xa430ee4e79496dbf,
    0xa866fc1da82f10ba,
    0xca781a90807e4e5c,
    0xe6683df51c2c23c3,
    0x0511c39e730960fd,
    0x457e666e226b3b2e,
    0x1dadffab307ee7cb,
    0x43207048a053b883,
    0x1d1caa416ffa6731,
    0xea131926cb346aff,
    0xdbd723c922dd5e5b,
];
const REGALLOC_DIGESTS: [u64; PRESSURE_LEN] = [
    0xe7f9dae816130107,
    0xc9f7e8661557ddfc,
    0x3b0c4ade307c3ec5,
    0xef8f81447044c40a,
    0x1acb8d99de35291f,
    0xf3ef1fe4803b1788,
    0xbeba1059e2b607bf,
    0x6d6e4d04a3b45cf1,
    0xbc716d724c97153e,
    0xf9aa719242ffd14d,
    0xff29093edaa79395,
    0xb859aaec205b6ebd,
];

#[test]
fn corpus_sets_are_pinned() {
    let sets = corpus_sets();
    let isel = digests(&sets.isel);
    let imprecise = digests(&sets.isel_imprecise);
    let gvn: Vec<u64> = sets.gvn.iter().map(digest).collect();
    let regalloc = digests(&sets.regalloc);
    let show = |v: &[u64]| v.iter().map(|d| format!("{d:#018x},")).collect::<Vec<_>>().join(" ");
    assert_eq!(isel, ISEL_DIGESTS, "isel: {}", show(&isel));
    assert_eq!(imprecise, ISEL_IMPRECISE_DIGESTS, "isel imprecise: {}", show(&imprecise));
    assert_eq!(gvn, GVN_DIGESTS, "gvn: {}", show(&gvn));
    assert_eq!(regalloc, REGALLOC_DIGESTS, "regalloc: {}", show(&regalloc));
}

/// The pinned corpora reach every shape of point and equality the
/// generators build, so the digests above are not vacuous.
#[test]
fn corpus_exercises_every_point_shape() {
    let sets = corpus_sets();
    let all: Vec<&SyncSet> =
        sets.isel.iter().flatten().chain(&sets.gvn).chain(sets.regalloc.iter().flatten()).collect();
    let equalities = || all.iter().flat_map(|s| s.iter()).flat_map(|p| &p.equalities);
    assert!(
        sets.regalloc
            .iter()
            .flatten()
            .flat_map(|s| s.iter())
            .any(|p| p.equalities.iter().any(|(_, r)| matches!(r, ValueExpr::Slot { .. }))),
        "no regalloc set relates a spill slot"
    );
    assert!(
        equalities()
            .any(|(l, r)| matches!(l, ValueExpr::Const { .. })
                || matches!(r, ValueExpr::Const { .. })),
        "no constant equality"
    );
    for (pass, sets) in [("isel", &sets.isel), ("regalloc", &sets.regalloc)] {
        let set_list: Vec<&SyncSet> = sets.iter().flatten().collect();
        assert!(
            set_list.iter().any(|s| s.iter().any(|p| p.name.starts_with("call:"))
                && s.iter().any(|p| p.name.starts_with("ret:"))),
            "{pass}: no call pair"
        );
    }
    assert!(
        sets.gvn.iter().any(|s| s.iter().any(|p| p.name.starts_with("call:"))),
        "gvn: no call pair"
    );
    // A loop header reached along two or more edges: two `loop:h<-p`
    // points sharing one header.
    let multi_pred = |s: &SyncSet, prefix: &str| {
        let mut headers: Vec<&str> = s
            .iter()
            .filter_map(|p| p.name.strip_prefix(prefix))
            .filter_map(|n| n.split_once("<-").map(|(h, _)| h))
            .collect();
        headers.sort_unstable();
        headers.windows(2).any(|w| w[0] == w[1])
    };
    assert!(sets.isel.iter().flatten().any(|s| multi_pred(s, "loop:")), "isel: no loop");
    assert!(sets.gvn.iter().any(|s| multi_pred(s, "loop:")), "gvn: no loop");
    assert!(sets.regalloc.iter().flatten().any(|s| multi_pred(s, "bb:")), "regalloc: no join");
}
