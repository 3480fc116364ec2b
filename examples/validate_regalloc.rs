//! The paper's "ongoing work" (§1), reproduced: validate the register
//! allocation pass with KEQ *unchanged*, using a VC generator that treats
//! the allocator as a black box — it sees only the assignment artifact.
//!
//! Both sides of the check are Virtual x86 (the "input and output languages
//! may be identical" case): the left is ISel's SSA output with virtual
//! registers and PHIs; the right is fully allocated code with PHIs
//! destructed into cycle-safe parallel copies — and, when pressure exceeds
//! the pool, with spill stores and reloads against a right-side-private
//! spill frame that the VC generator masks out of memory equality.
//!
//! Run with: `cargo run --release --example validate_regalloc`

use keq_repro::core::KeqOptions;
use keq_repro::isel::{
    allocate_with_options, select, validate_regalloc, validate_regalloc_with_context, IselOptions,
    RaOptions, ValidationContext,
};
use keq_repro::llvm::{parse_module, Layout};

fn main() {
    let m = parse_module(keq_repro::llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
    let f = m.function("arithm_seq_sum").expect("present");
    let layout = Layout::of(&m, f);
    let pre = select(&m, f, &layout, IselOptions::default()).expect("selects").func;
    println!("=== before register allocation (SSA Virtual x86) ===\n{pre}");
    let (report, post) =
        validate_regalloc(&pre, &layout, KeqOptions::default()).expect("uncancelled");
    println!("=== after register allocation ===\n{post}");
    println!("KEQ verdict: {}", report.verdict);
    assert!(report.verdict.is_validated());

    // The same function through a starved pool: spilling is forced, and the
    // spilled allocation validates with the same unmodified checker.
    let ra = RaOptions { pool_limit: Some(2), ..RaOptions::default() };
    let (spilled_post, map) = allocate_with_options(&pre, ra, None).expect("uncancelled");
    println!(
        "=== same function, pool capped at 2 registers ({} values spilled) ===\n{spilled_post}",
        map.spills.len()
    );
    assert!(!map.spills.is_empty(), "a 2-register pool must force spills");
    let mut ctx = ValidationContext::new();
    let (report, _) =
        validate_regalloc_with_context(&pre, &layout, ra, KeqOptions::default(), None, &mut ctx)
            .expect("uncancelled");
    println!("KEQ verdict (spilled): {}", report.verdict);
    assert!(report.verdict.is_validated());

    // And a corpus sweep under the high-register-pressure generator
    // profile: every function spills, every allocation validates.
    let module = keq_repro::workload::generate_corpus(
        keq_repro::workload::GenConfig {
            seed: 5,
            max_depth: 2,
            base_stmts: 3,
            pressure: 8,
            ..Default::default()
        },
        6,
    );
    let mut validated = 0;
    let mut spilled = 0;
    for f in &module.functions {
        let layout = Layout::of(&module, f);
        let Ok(out) = select(&module, f, &layout, IselOptions::default()) else { continue };
        let (_, map) =
            allocate_with_options(&out.func, RaOptions::default(), None).expect("uncancelled");
        if !map.spills.is_empty() {
            spilled += 1;
        }
        let keq = KeqOptions {
            time_limit: Some(std::time::Duration::from_secs(15)),
            solver_budget: keq_repro::smt::Budget {
                max_conflicts: 500_000,
                max_terms: 2_000_000,
                max_time: Some(std::time::Duration::from_secs(5)),
            },
            ..Default::default()
        };
        let (report, _) = validate_regalloc(&out.func, &layout, keq).expect("uncancelled");
        println!("{:<8} {:>2} spills  {}", f.name, map.spills.len(), report.verdict);
        if report.verdict.is_validated() {
            validated += 1;
        }
    }
    println!(
        "\nregalloc validated {validated}/{} functions ({spilled} took the spill path — \
         validated like the rest)",
        module.functions.len()
    );
}
