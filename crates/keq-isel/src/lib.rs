//! # keq-isel — the Instruction Selection pass and its validation harness
//!
//! The compiler under validation (the paper's §4.1 subject): an O0-style
//! instruction selector from LLVM IR to Virtual x86, with the two §5.2
//! miscompilations re-introducible via [`BugInjection`]; the §4.5 hint
//! generator ([`Hints`]); the live-variables analysis; one cut walk and
//! the synchronization-point generators built on it ([`vcgen`],
//! [`ra_vcgen`], [`gvn_vcgen`]); and [`pipeline`], the
//! end-to-end translation-validation driver that mirrors the paper's Fig. 5
//! system diagram.

mod cut;
pub mod gvn_vcgen;
pub mod isel;
pub mod liveness;
pub mod pipeline;
pub mod ra_vcgen;
pub mod regalloc;
pub mod vcgen;

pub use gvn_vcgen::gvn_sync_points;
pub use isel::{
    cc_of, loop_headers, merge_stores, select, x86_width, BugInjection, Hints, IselError,
    IselOptions, IselOutput,
};
pub use keq_llvm::gvn::{GvnBug, GvnOptions, GvnOutput};
pub use liveness::{phi_uses_from, predecessors, Cfg, Liveness};
pub use pipeline::{
    validate_function, validate_gvn_with_context, validate_pass_with_context, validate_regalloc,
    validate_regalloc_with_context, PassId, ValidationContext, ValidationOutcome,
};
pub use ra_vcgen::regalloc_sync_points;
pub use regalloc::{
    allocate, allocate_with_options, RaError, RaMap, RaOptions, SpillBug, SPILL_BASE,
    SPILL_SLOT_BYTES,
};
pub use vcgen::{generate_sync_points, render_sync_table, VcOptions};
