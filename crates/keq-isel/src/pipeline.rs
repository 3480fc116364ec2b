//! The end-to-end translation-validation pipeline (the paper's Fig. 5).
//!
//! LLVM IR function → Instruction Selection (+ hint generation) →
//! synchronization-point generation → KEQ with both language semantics →
//! verdict.
//!
//! Which transformation is validated is *data*: [`PassId`] names the three
//! instantiations (ISel, spilling register allocation, GVN) and
//! [`validate_pass_with_context`] is the single pass-parametric entry point
//! the harness, server, and benches drive. All three routes hand the same
//! unmodified KEQ a `SyncSet` and two `Language` implementations — nothing
//! downstream of the VC generators knows which pass produced the pair.

use keq_core::{Keq, KeqOptions, KeqReport, SyncSet};
use keq_llvm::ast::{Function, Module};
use keq_llvm::gvn::{run_gvn, GvnOptions, GvnOutput};
use keq_llvm::layout::Layout;
use keq_llvm::sem::LlvmSemantics;
use keq_semantics::Language;
use keq_smt::CancelToken;
use keq_vx86::sem::VxSemantics;

use crate::gvn_vcgen::gvn_sync_points;
use crate::isel::{select, IselError, IselOptions, IselOutput};
use crate::regalloc::RaOptions;
use crate::vcgen::{generate_sync_points, VcOptions};

/// The validated transformations, as data.
///
/// The wire protocol, the verdict journal, the run report, and the
/// telemetry labels all carry this identifier, so every layer of the fleet
/// can partition its accounting per pass without knowing anything about
/// the pass itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PassId {
    /// Instruction selection: LLVM IR → Virtual x86 (the paper's §4.1
    /// subject).
    #[default]
    Isel,
    /// Spilling register allocation: SSA Virtual x86 → allocated Virtual
    /// x86 (both `Language` parameters are Virtual x86).
    Regalloc,
    /// GVN/constant propagation: LLVM IR → LLVM IR (both `Language`
    /// parameters are LLVM IR).
    Gvn,
}

impl PassId {
    /// Every pass, in pipeline order.
    pub const ALL: [PassId; 3] = [PassId::Isel, PassId::Regalloc, PassId::Gvn];

    /// Stable lowercase name (CLI flags, report sections, telemetry
    /// labels).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            PassId::Isel => "isel",
            PassId::Regalloc => "regalloc",
            PassId::Gvn => "gvn",
        }
    }

    /// Stable single-byte wire/journal code.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            PassId::Isel => 0,
            PassId::Regalloc => 1,
            PassId::Gvn => 2,
        }
    }

    /// Inverse of [`PassId::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<PassId> {
        PassId::ALL.into_iter().find(|p| p.code() == code)
    }

    /// Inverse of [`PassId::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<PassId> {
        PassId::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl std::fmt::Display for PassId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything produced by one validation run.
#[derive(Debug)]
pub struct ValidationOutcome {
    /// The KEQ verdict and statistics.
    pub report: KeqReport,
    /// The translation and its hints.
    pub isel: IselOutput,
    /// The generated synchronization points.
    pub sync: SyncSet,
    /// The shared memory layout.
    pub layout: Layout,
}

/// Persistent solver state carried across validation attempts of the *same*
/// function, so an escalating-budget retry warm-starts instead of
/// recomputing every solved sub-obligation: the term bank keeps its
/// hash-consed terms and the solver keeps its bounded query cache (budgeted
/// outcomes are never cached, so a cheap attempt cannot poison a richer
/// retry).
#[derive(Debug, Default)]
pub struct ValidationContext {
    /// Hash-consed term bank shared by all attempts.
    pub bank: keq_smt::TermBank,
    /// Solver whose query cache carries closed sub-obligations.
    pub solver: keq_smt::Solver,
}

impl ValidationContext {
    /// Creates an empty context.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches (or detaches, with `None`) a corpus-wide
    /// [`keq_smt::SharedObligationCache`] to the context's solver, so
    /// canonically-identical obligations proved by *other* functions or
    /// earlier runs are discharged without lowering or bit-blasting. The
    /// harness calls this on every attempt; a detached context pays no
    /// fingerprinting overhead.
    pub fn attach_obligation_cache(
        &mut self,
        cache: Option<std::sync::Arc<keq_smt::SharedObligationCache>>,
    ) {
        self.solver.set_obligation_cache(cache);
    }
}

/// Compiles `func` with the configured ISel and validates the translation.
///
/// # Errors
///
/// Returns [`IselError`] when the function is outside the supported
/// fragment (the paper's unsupported bucket — such functions never reach
/// KEQ).
pub fn validate_function(
    module: &Module,
    func: &Function,
    isel_opts: IselOptions,
    vc_opts: VcOptions,
    keq_opts: KeqOptions,
) -> Result<ValidationOutcome, IselError> {
    let mut ctx = ValidationContext::new();
    validate_function_with_context(module, func, isel_opts, vc_opts, keq_opts, None, &mut ctx)
}

/// [`validate_function`] with a supervisor cancellation token, against a
/// caller-owned [`ValidationContext`] (the warm-start state of
/// escalating-budget retries).
fn validate_function_with_context(
    module: &Module,
    func: &Function,
    isel_opts: IselOptions,
    vc_opts: VcOptions,
    keq_opts: KeqOptions,
    cancel: Option<&CancelToken>,
    ctx: &mut ValidationContext,
) -> Result<ValidationOutcome, IselError> {
    let _ = keq_smt::fault::poll(keq_smt::FaultSite::IselEntry);
    let isel_span = keq_trace::span(keq_trace::Phase::Isel);
    let layout = Layout::of(module, func);
    let isel = select(module, func, &layout, isel_opts)?;
    isel_span.done();
    let vcgen_span = keq_trace::span(keq_trace::Phase::Vcgen);
    let sync = generate_sync_points(func, &isel, vc_opts);
    vcgen_span.done();
    let left = LlvmSemantics::with_layout(module, func, layout.clone());
    let right = VxSemantics::new(
        &isel.func,
        layout.mem.clone(),
        layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect(),
    );
    let report = check(&left, &right, &sync, keq_opts, cancel, ctx);
    Ok(ValidationOutcome { report, isel, sync, layout })
}

/// The tail every route shares: the one unmodified KEQ, checking `sync`
/// between two `Language`s under the supervisor's cancellation token.
fn check(
    left: &dyn Language,
    right: &dyn Language,
    sync: &SyncSet,
    keq_opts: KeqOptions,
    cancel: Option<&CancelToken>,
    ctx: &mut ValidationContext,
) -> KeqReport {
    let mut keq = Keq::new(left, right).with_options(keq_opts);
    if let Some(c) = cancel {
        keq = keq.with_cancel(c.clone());
    }
    let _span = keq_trace::span(keq_trace::Phase::Check);
    keq.check_with_solver(&mut ctx.bank, sync, &mut ctx.solver)
}

/// Validates the register-allocation pass on an SSA Virtual x86 function
/// (the paper's §1 "ongoing work"): run the allocator, generate the
/// black-box sync points from its output artifact, and check with the very
/// same KEQ — both Language parameters are now Virtual x86.
///
/// # Errors
///
/// Returns [`crate::regalloc::RaError`] when allocation is cancelled.
pub fn validate_regalloc(
    pre: &keq_vx86::ast::VxFunction,
    layout: &Layout,
    keq_opts: KeqOptions,
) -> Result<(KeqReport, keq_vx86::ast::VxFunction), crate::regalloc::RaError> {
    let mut ctx = ValidationContext::new();
    validate_regalloc_with_context(pre, layout, RaOptions::default(), keq_opts, None, &mut ctx)
}

/// [`validate_regalloc`] with allocator options (spill-bug injection) and a
/// supervisor cancellation token, against a caller-owned
/// [`ValidationContext`] — the warm-startable entry point the
/// pass-parametric harness drives.
///
/// The allocated side's address space is the source layout *plus* the
/// private spill frame (when the allocation spilled): spill-slot accesses
/// must be in bounds on the right, while the left program cannot name them.
///
/// # Errors
///
/// Returns [`crate::regalloc::RaError`] when allocation is cancelled
/// mid-analysis.
pub fn validate_regalloc_with_context(
    pre: &keq_vx86::ast::VxFunction,
    layout: &Layout,
    ra_opts: RaOptions,
    keq_opts: KeqOptions,
    cancel: Option<&CancelToken>,
    ctx: &mut ValidationContext,
) -> Result<(KeqReport, keq_vx86::ast::VxFunction), crate::regalloc::RaError> {
    let ra_span = keq_trace::span(keq_trace::Phase::Regalloc);
    let (post, map) = crate::regalloc::allocate_with_options(pre, ra_opts, cancel)?;
    ra_span.done();
    let vcgen_span = keq_trace::span(keq_trace::Phase::Vcgen);
    let sync = crate::ra_vcgen::regalloc_sync_points(pre, &post, &map);
    vcgen_span.done();
    let globals: std::collections::BTreeMap<String, u64> =
        layout.globals.iter().map(|(k, v)| (k.clone(), *v)).collect();
    let mut right_mem = layout.mem.clone();
    if let Some((base, size)) = map.spill_frame() {
        right_mem.add_region("<spill>", base, size);
    }
    let left = VxSemantics::new(pre, layout.mem.clone(), globals.clone());
    let right = VxSemantics::new(&post, right_mem, globals);
    Ok((check(&left, &right, &sync, keq_opts, cancel, ctx), post))
}

/// Validates the GVN mid-end pass on an LLVM function: run the pass,
/// generate the black-box sync points from its eliminated-locals artifact,
/// and check with the very same KEQ — both `Language` parameters are now
/// LLVM IR.
pub fn validate_gvn_with_context(
    module: &Module,
    func: &Function,
    gvn_opts: GvnOptions,
    keq_opts: KeqOptions,
    cancel: Option<&CancelToken>,
    ctx: &mut ValidationContext,
) -> (KeqReport, GvnOutput) {
    let gvn_span = keq_trace::span(keq_trace::Phase::Gvn);
    let out = run_gvn(func, gvn_opts);
    gvn_span.done();
    let vcgen_span = keq_trace::span(keq_trace::Phase::Vcgen);
    let sync = gvn_sync_points(func, &out);
    vcgen_span.done();
    let layout = Layout::of(module, func);
    let left = LlvmSemantics::with_layout(module, func, layout.clone());
    let right = LlvmSemantics::with_layout(module, &out.func, layout);
    (check(&left, &right, &sync, keq_opts, cancel, ctx), out)
}

/// The single pass-parametric validation entry point: dispatches on
/// [`PassId`] and reduces every route to one [`KeqReport`]. Every pass runs
/// with its default options; the bug studies inject defects through the
/// per-pass entry points above instead.
///
/// * [`PassId::Isel`] validates the LLVM IR → Virtual x86 translation;
/// * [`PassId::Regalloc`] first *runs* the selector (unvalidated — the
///   allocator's input is simply whatever the front half produced) and
///   validates the allocation against it;
/// * [`PassId::Gvn`] validates the LLVM IR → LLVM IR optimization.
///
/// Allocator cancellation mid-analysis surfaces like every other
/// cancellation: a report whose failure reason is `Cancelled`.
///
/// # Errors
///
/// Returns [`IselError`] when the function is outside the selector's
/// supported fragment (which gates the ISel and regalloc routes; GVN
/// accepts the full parsed language).
pub fn validate_pass_with_context(
    pass: PassId,
    module: &Module,
    func: &Function,
    keq_opts: KeqOptions,
    cancel: Option<&CancelToken>,
    ctx: &mut ValidationContext,
) -> Result<KeqReport, IselError> {
    match pass {
        PassId::Isel => validate_function_with_context(
            module,
            func,
            IselOptions::default(),
            VcOptions::default(),
            keq_opts,
            cancel,
            ctx,
        )
        .map(|o| o.report),
        PassId::Regalloc => {
            let isel_span = keq_trace::span(keq_trace::Phase::Isel);
            let layout = Layout::of(module, func);
            let pre = select(module, func, &layout, IselOptions::default())?.func;
            isel_span.done();
            let ra = RaOptions::default();
            match validate_regalloc_with_context(&pre, &layout, ra, keq_opts, cancel, ctx) {
                Ok((report, _)) => Ok(report),
                Err(crate::regalloc::RaError::Cancelled) => Ok(KeqReport {
                    verdict: keq_core::Verdict::NotValidated(keq_core::Failure {
                        point: "<regalloc>".into(),
                        reason: keq_core::FailureReason::Cancelled,
                    }),
                    stats: keq_core::KeqStats::default(),
                }),
            }
        }
        PassId::Gvn => Ok(validate_gvn_with_context(
            module,
            func,
            GvnOptions::default(),
            keq_opts,
            cancel,
            ctx,
        )
        .0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use keq_core::Verdict;
    use keq_llvm::parser::parse_module;

    fn validate(src: &str) -> KeqReport {
        let m = parse_module(src).expect("parses");
        let f = &m.functions[0];
        validate_function(
            &m,
            f,
            IselOptions::default(),
            VcOptions::default(),
            KeqOptions::default(),
        )
        .expect("supported")
        .report
    }

    #[test]
    fn straightline_add_validates() {
        let r = validate("define i32 @f(i32 %x, i32 %y) {\n %s = add i32 %x, %y\n ret i32 %s\n}");
        assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.verdict);
    }

    #[test]
    fn constant_return_validates() {
        let r = validate("define i32 @f() {\n ret i32 42\n}");
        assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.verdict);
    }

    #[test]
    fn void_function_validates() {
        let r = validate("define void @f(i32 %x) {\n ret void\n}");
        assert_eq!(r.verdict, Verdict::Equivalent, "{}", r.verdict);
    }

    fn regalloc_input() -> (Module, Function, keq_vx86::ast::VxFunction) {
        let m = parse_module(keq_llvm::corpus::ARITHM_SEQ_SUM).expect("parses");
        let f = m.functions[0].clone();
        let layout = Layout::of(&m, &f);
        let pre = select(&m, &f, &layout, IselOptions::default()).expect("supported").func;
        (m, f, pre)
    }

    #[test]
    fn regalloc_times_allocation_and_vcgen_as_separate_spans() {
        use std::sync::Arc;
        let (m, f, _) = regalloc_input();
        let ring = Arc::new(keq_trace::EventRing::new(1 << 12));
        let report = {
            let _guard = keq_trace::install(&keq_trace::TraceSink::from(Arc::clone(&ring)));
            let mut ctx = ValidationContext::new();
            validate_pass_with_context(
                PassId::Regalloc,
                &m,
                &f,
                KeqOptions::default(),
                None,
                &mut ctx,
            )
            .expect("supported")
        };
        assert_eq!(report.verdict, Verdict::Equivalent, "{}", report.verdict);
        let spans = |phase| -> Vec<(u64, u64)> {
            ring.snapshot()
                .into_iter()
                .filter_map(|e| match e.event {
                    keq_trace::Event::Span { phase: p, start_us, dur_us } if p == phase => {
                        Some((start_us, dur_us))
                    }
                    _ => None,
                })
                .collect()
        };
        let (ra, vc) = (spans(keq_trace::Phase::Regalloc), spans(keq_trace::Phase::Vcgen));
        assert_eq!((ra.len(), vc.len()), (1, 1), "one span each: regalloc {ra:?}, vcgen {vc:?}");
        let ((ra_start, ra_dur), (vc_start, _)) = (ra[0], vc[0]);
        assert!(ra_start + ra_dur <= vc_start, "allocation {ra:?} overlaps VC generation {vc:?}");
    }

    #[test]
    fn a_raised_token_cancels_the_allocator() {
        let (m, f, pre) = regalloc_input();
        let token = CancelToken::new();
        token.cancel();
        let err = crate::regalloc::allocate_with_options(&pre, RaOptions::default(), Some(&token))
            .expect_err("a raised token stops the liveness fixpoint");
        assert_eq!(err, crate::regalloc::RaError::Cancelled);
        let mut ctx = ValidationContext::new();
        let report = validate_pass_with_context(
            PassId::Regalloc,
            &m,
            &f,
            KeqOptions::default(),
            Some(&token),
            &mut ctx,
        )
        .expect("supported");
        assert_eq!(
            report.verdict,
            Verdict::NotValidated(keq_core::Failure {
                point: "<regalloc>".into(),
                reason: keq_core::FailureReason::Cancelled,
            })
        );
    }
}
