//! Concrete oracles for the passes, all run through the one concrete driver
//! (`keq_semantics::exec`): the semantics the checker reasons with, run on
//! seeded inputs.
//!
//! - GVN output against its input, and ISel output and its spill-free and
//!   two-register allocations against the LLVM source, on seeded corpora.
//! - Spilling register allocation on a high-pressure corpus (the shape of
//!   the benchmark's `regalloc-spill`).
//! - IMP against its stack-machine compilation on seeded programs.
//!
//! Every run also checks that exactly one successor of each step holds
//! under the run's assignment, the determinism that Algorithm 1's
//! feasibility pruning relies on: the driver fails a run otherwise.

use std::collections::BTreeMap;

use keq_imp::compile::flatten;
use keq_imp::{compile, Expr, ImpProgram, ImpSemantics, StackSemantics, Stmt};
use keq_isel::{allocate, allocate_with_options, select, IselOptions, RaMap, RaOptions};
use keq_llvm::{run_gvn, Function, GvnOptions, Layout, LlvmSemantics, Module};
use keq_prng::Prng;
use keq_semantics::{Outcome, SemanticsError};
use keq_vx86::{VxFunction, VxSemantics};
use keq_workload::{generate_corpus, GenConfig};

/// The outcome of a run, failing the test when a step of it had no
/// successor, or more than one, that holds.
fn ran(r: Result<Outcome, SemanticsError>, what: &str) -> Outcome {
    match r {
        Ok(o) => o,
        Err(e @ SemanticsError::Internal { .. }) => panic!("{what}: determinism violated: {e}"),
        Err(e) => panic!("{what}: {e}"),
    }
}

fn run_llvm(m: &Module, f: &Function, layout: &Layout, args: &[u128]) -> Outcome {
    let sem = LlvmSemantics::with_layout(m, f, layout.clone());
    ran(sem.run(args, 200_000), &format!("{}({args:?})", f.name))
}

/// Runs Virtual x86 code in the source's address space plus the spill
/// frame of `map`, if it spilled.
fn run_vx(f: &VxFunction, layout: &Layout, map: &RaMap, args: &[u128]) -> Outcome {
    let globals: BTreeMap<String, u64> =
        layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut mem_layout = layout.mem.clone();
    if let Some((base, size)) = map.spill_frame() {
        mem_layout.add_region("<spill>", base, size);
    }
    let sem = VxSemantics::new(f, mem_layout, globals);
    ran(sem.run(args, 400_000), &format!("{}({args:?})", f.name))
}

/// Asserts that `got` behaves as `want`: the same return value and the
/// same bytes written outside `private` (a spill frame, say), or the same
/// error. A run out of fuel on either side compares nothing; the result
/// says whether the pair was compared.
fn agree(want: &Outcome, got: &Outcome, private: Option<(u64, u64)>, what: &str) -> bool {
    if *want == Outcome::OutOfFuel || *got == Outcome::OutOfFuel {
        return false;
    }
    let visible = |o: &Outcome| match o {
        Outcome::Returned { ret, mem } => {
            let mut mem = mem.clone();
            if let Some((base, size)) = private {
                mem.writes.retain(|a, _| !(base..base + size).contains(a));
            }
            Outcome::Returned { ret: *ret, mem }
        }
        other => other.clone(),
    };
    assert_eq!(visible(want), visible(got), "{what}");
    true
}

/// Seeds 99, 7 and 2021, 40 functions, 4 inputs each: GVN output against
/// its input, and ISel output and both of its allocations against the
/// LLVM source.
#[test]
fn gvn_isel_and_regalloc_agree_with_their_input() {
    let mut compared = 0usize;
    for seed in [99, 7, 2021] {
        let module = generate_corpus(GenConfig { seed, ..GenConfig::default() }, 40);
        for f in &module.functions {
            let layout = Layout::of(&module, f);
            let opt = run_gvn(f, GvnOptions::default());
            let mut targets: Vec<(&str, VxFunction, RaMap)> = Vec::new();
            if let Ok(out) = select(&module, f, &layout, IselOptions::default()) {
                let (free, free_map) = allocate(&out.func).expect("uncancelled");
                let (tight, tight_map) = allocate_with_options(
                    &out.func,
                    RaOptions { pool_limit: Some(2), ..RaOptions::default() },
                    None,
                )
                .expect("uncancelled");
                targets.push(("isel", out.func, RaMap::default()));
                targets.push(("spill-free regalloc", free, free_map));
                targets.push(("two-register regalloc", tight, tight_map));
            }
            for trial in 0..4u128 {
                let args: Vec<u128> =
                    (0..f.params.len()).map(|i| trial * 37 + 3 + i as u128).collect();
                let what = |pass: &str| format!("seed {seed} {}({args:?}) {pass}", f.name);
                let src = run_llvm(&module, f, &layout, &args);
                let gvn = run_llvm(&module, &opt.func, &layout, &args);
                compared += usize::from(agree(&src, &gvn, None, &what("gvn")));
                for (pass, func, map) in &targets {
                    let got = run_vx(func, &layout, map, &args);
                    compared += usize::from(agree(&src, &got, map.spill_frame(), &what(pass)));
                }
            }
        }
    }
    assert!(compared > 1500, "expected plenty of comparisons, got {compared}");
}

/// A high-pressure corpus (`pressure: 6`, as the benchmark's
/// `regalloc-spill`) through ISel and spilling register allocation.
#[test]
fn spilling_regalloc_agrees_on_a_pressure_corpus() {
    let module = generate_corpus(GenConfig { seed: 6, pressure: 6, ..GenConfig::default() }, 20);
    let (mut spilled, mut compared) = (0usize, 0usize);
    for f in &module.functions {
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else {
            continue;
        };
        let (post, map) =
            allocate_with_options(&out.func, RaOptions::default(), None).expect("uncancelled");
        spilled += usize::from(!map.spills.is_empty());
        for trial in 0..4u128 {
            let args: Vec<u128> = (0..f.params.len()).map(|i| trial * 53 + 7 * i as u128).collect();
            let src = run_llvm(&module, f, &layout, &args);
            let got = run_vx(&post, &layout, &map, &args);
            let what = format!("{}({args:?})\n{post}", f.name);
            compared += usize::from(agree(&src, &got, map.spill_frame(), &what));
        }
    }
    assert!(spilled >= 10, "the pressure corpus barely spilled: {spilled}");
    assert!(compared >= 40, "expected plenty of comparisons, got {compared}");
}

/// A seeded IMP program: assignments, conditionals and loops counted by a
/// variable of their own, so that every program terminates.
fn gen_program(rng: &mut Prng) -> ImpProgram {
    const VARS: [&str; 4] = ["x", "y", "a", "b"];
    fn expr(rng: &mut Prng, depth: u32) -> Expr {
        if depth == 0 || rng.random_bool(0.3) {
            return if rng.random_bool(0.5) {
                Expr::var(VARS[rng.random_range(0..4usize)])
            } else {
                Expr::Const(rng.random_range(0..20u64) as i32 - 5)
            };
        }
        let (l, r) = (expr(rng, depth - 1), expr(rng, depth - 1));
        match rng.random_range(0..4u64) {
            0 => Expr::add(l, r),
            1 => Expr::sub(l, r),
            2 => Expr::mul(l, r),
            _ => Expr::lt(l, r),
        }
    }
    fn stmts(rng: &mut Prng, depth: u32, loops: &mut u32) -> Vec<Stmt> {
        let mut out = Vec::new();
        for _ in 0..rng.random_range(1..4usize) {
            match rng.random_range(0..6u64) {
                0 if depth > 0 => out.push(Stmt::If(
                    expr(rng, 2),
                    stmts(rng, depth - 1, loops),
                    stmts(rng, depth - 1, loops),
                )),
                1 if depth > 0 => {
                    let c = format!("c{loops}");
                    *loops += 1;
                    let bound = Expr::Const(rng.random_range(0..5u64) as i32);
                    let mut body = stmts(rng, depth - 1, loops);
                    body.push(Stmt::Assign(c.clone(), Expr::add(Expr::var(&c), Expr::Const(1))));
                    out.push(Stmt::Assign(c.clone(), Expr::Const(0)));
                    out.push(Stmt::While(Expr::lt(Expr::var(&c), bound), body));
                }
                _ => {
                    let dst = VARS[rng.random_range(0..4usize)];
                    out.push(Stmt::Assign(dst.into(), expr(rng, 3)));
                }
            }
        }
        out
    }
    let body = stmts(rng, 3, &mut 0);
    ImpProgram { inputs: vec!["x".into(), "y".into()], body, result: expr(rng, 3) }
}

/// IMP against its stack-machine compilation, on 200 seeded programs plus
/// one that never exits.
#[test]
fn stack_code_agrees_with_imp() {
    let mut rng = Prng::seed_from_u64(0x1AB_0033);
    let spin = ImpProgram {
        inputs: vec!["x".into(), "y".into()],
        body: vec![Stmt::While(Expr::Const(1), vec![Stmt::Assign("a".into(), Expr::var("x"))])],
        result: Expr::var("a"),
    };
    let mut programs = vec![spin];
    programs.extend((0..200).map(|_| gen_program(&mut rng)));
    let mut returned = 0usize;
    for p in programs {
        let imp = ImpSemantics::new(flatten(&p));
        let stack = StackSemantics::new(compile(&p));
        for _ in 0..4 {
            let x = rng.random_range(0..2000u64) as i32 - 1000;
            let y = rng.random_range(0..50u64) as i32;
            let what = format!("({x}, {y})\n{p:?}");
            let want = ran(imp.run(&[x, y], 100_000), &what);
            let inputs = [("x".to_string(), x), ("y".to_string(), y)];
            let got = ran(stack.run(&inputs, 100_000), &what);
            assert_eq!(want, got, "{what}");
            returned += usize::from(matches!(want, Outcome::Returned { .. }));
        }
    }
    assert!(returned >= 800, "only {returned} runs returned");
}

/// ISel's constant-GEP offsets through nested arrays and structs: the
/// selected code writes the bytes the source writes.
#[test]
fn constant_gep_stores_land_where_the_source_puts_them() {
    let ty = "[2 x {i8, [3 x i16], i32}]";
    let gep = |idx: &str| format!("getelementptr inbounds ({ty}, {ty}* @g, {idx})");
    let src = format!(
        "@g = global {ty} zeroinitializer\n\ndefine void @f() {{\n \
         store i16 513, i16* {}\n store i32 -1, i32* {}\n store i8 7, i8* {}\n ret void\n}}",
        gep("i64 0, i64 1, i32 1, i64 2"),
        gep("i64 0, i64 0, i32 2"),
        gep("i64 1, i64 -1, i32 0"),
    );
    let m = keq_llvm::parse_module(&src).expect("parses");
    let f = &m.functions[0];
    let layout = Layout::of(&m, f);
    let out = select(&m, f, &layout, IselOptions::default()).expect("selects");
    let want = run_llvm(&m, f, &layout, &[]);
    assert_eq!(run_vx(&out.func, &layout, &RaMap::default(), &[]), want);
    let g = layout.global_addr("g").expect("placed");
    let Outcome::Returned { mem, .. } = want else { panic!("{want:?}") };
    let written: Vec<(u64, u8)> = mem.writes.iter().map(|(&a, &b)| (a - g, b)).collect();
    // Elements are 11 bytes: element 1's array field starts at 12, so its
    // entry 2 is at 16; element 0's i32 is at 7; the first index steps
    // over whole 22-byte arrays, so (1, -1) is element 1 at 11.
    assert_eq!(written, [(7, 0xff), (8, 0xff), (9, 0xff), (10, 0xff), (11, 7), (16, 1), (17, 2)]);
}
