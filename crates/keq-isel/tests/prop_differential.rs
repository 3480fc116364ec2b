//! Randomized differential testing of the Instruction Selection pass: for
//! seeded random generator configurations and random inputs, the LLVM and
//! Virtual x86 semantics, run concretely, must agree on return value and
//! trap kind — and the same holds *after* register allocation.
//!
//! This is the independent oracle backing KEQ's verdicts: if ISel or the
//! allocator were wrong in a way the sync points failed to expose, this
//! test would catch it concretely.

use std::collections::BTreeMap;

use keq_isel::{allocate, allocate_with_options, select, IselOptions, RaMap, RaOptions};
use keq_llvm::{Layout, LlvmSemantics};
use keq_prng::Prng;
use keq_semantics::Outcome;
use keq_vx86::{VxFunction, VxSemantics};
use keq_workload::{generate_corpus, GenConfig};

fn run_vx(func: &VxFunction, layout: &Layout, args: &[u128]) -> Outcome {
    run_vx_spilled(func, layout, &RaMap::default(), args)
}

/// Runs allocated code whose address space includes the spill frame (when
/// the allocation spilled).
fn run_vx_spilled(func: &VxFunction, layout: &Layout, map: &RaMap, args: &[u128]) -> Outcome {
    let globals: BTreeMap<String, u64> =
        layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut mem_layout = layout.mem.clone();
    if let Some((base, size)) = map.spill_frame() {
        mem_layout.add_region("<spill>", base, size);
    }
    VxSemantics::new(func, mem_layout, globals).run(args, 400_000).expect("runs")
}

#[test]
fn isel_and_regalloc_agree_with_source() {
    let mut rng = Prng::seed_from_u64(0xD1FF_0001);
    for case in 0..24 {
        let seed = rng.random_range(0..10_000u64);
        let a = u128::from(rng.random_range(0..1000u64));
        let b = u128::from(rng.random_range(0..1000u64));
        let module = generate_corpus(GenConfig { seed, ..GenConfig::default() }, 1);
        let f = &module.functions[0];
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else {
            continue; // unsupported fragment
        };
        let raw: Vec<u128> =
            (0..f.params.len()).map(|i| (a + b * i as u128) & 0xffff_ffff).collect();
        let lres = LlvmSemantics::with_layout(&module, f, layout.clone())
            .run(&raw, 200_000)
            .expect("source runs");
        let rres = run_vx(&out.func, &layout, &raw);
        match (&lres, &rres) {
            (Outcome::Returned { ret: l, .. }, Outcome::Returned { ret: r, .. }) => {
                assert_eq!(l, r, "case {case}: isel return mismatch")
            }
            (Outcome::Error(l), Outcome::Error(r)) if l == r => {}
            (Outcome::OutOfFuel, Outcome::OutOfFuel) => continue,
            (l, r) => panic!("case {case}: isel diverged: {l:?} vs {r:?}"),
        }
        // Through register allocation, behavior is still identical.
        if let Ok((post, map)) = allocate(&out.func) {
            let pres = run_vx_spilled(&post, &layout, &map, &raw);
            same_behaviour(&rres, &pres, &format!("case {case}: regalloc"));
        }
    }
}

/// Spilled and spill-free allocations of the same function are
/// observationally identical: shrinking the colorer's pool to two registers
/// forces heavy spilling, and concrete execution must still agree
/// with the spill-free allocation on every seeded input.
#[test]
fn spilled_and_spill_free_allocations_agree() {
    let mut rng = Prng::seed_from_u64(0xD1FF_0002);
    let mut spilled_cases = 0usize;
    for case in 0..24 {
        let seed = rng.random_range(0..10_000u64);
        let a = u128::from(rng.random_range(0..1000u64));
        let module = generate_corpus(GenConfig { seed, ..GenConfig::default() }, 1);
        let f = &module.functions[0];
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else {
            continue;
        };
        let raw: Vec<u128> = f.params.iter().enumerate().map(|(i, _)| a + 7 * i as u128).collect();
        let (free, free_map) = allocate(&out.func).expect("uncancelled");
        let (spilled, spill_map) = allocate_with_options(
            &out.func,
            RaOptions { pool_limit: Some(2), ..RaOptions::default() },
            None,
        )
        .expect("uncancelled");
        if !spill_map.spills.is_empty() {
            spilled_cases += 1;
        }
        let fres = run_vx_spilled(&free, &layout, &free_map, &raw);
        let sres = run_vx_spilled(&spilled, &layout, &spill_map, &raw);
        same_behaviour(&fres, &sres, &format!("case {case}: spill"));
    }
    assert!(spilled_cases > 0, "the forced-spill leg never actually spilled");
}

/// Two runs of allocated code return the same value or reach the same
/// error; a run out of fuel on either side compares nothing.
fn same_behaviour(x: &Outcome, y: &Outcome, what: &str) {
    match (x, y) {
        (Outcome::Returned { ret: x, .. }, Outcome::Returned { ret: y, .. }) => {
            assert_eq!(x, y, "{what} return mismatch")
        }
        (Outcome::OutOfFuel, _) | (_, Outcome::OutOfFuel) => {}
        (Outcome::Error(x), Outcome::Error(y)) => assert_eq!(x, y, "{what} trap mismatch"),
        (l, r) => panic!("{what} diverged: {l:?} vs {r:?}"),
    }
}
