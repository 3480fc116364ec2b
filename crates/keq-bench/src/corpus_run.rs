//! Corpus-scale validation driver shared by the Fig. 6 and Fig. 7
//! harnesses — a thin wrapper over the fault-isolated [`keq_harness`]
//! supervisor (panic isolation, watchdog deadlines, escalating-budget
//! retry), which also makes this the repo's first *parallel* corpus
//! driver.

use keq_core::KeqOptions;
use keq_harness::{run_module, HarnessOptions};
use keq_llvm::ast::Module;
use keq_workload::{generate_corpus, GenConfig};

pub use keq_harness::{outcome_table, CorpusResult, CorpusSummary, ResultKind};

/// Generates `n` corpus functions and validates each under the given
/// resource limits, mirroring the paper's §5.1 experiment. Functions are
/// distributed over the harness's worker pool; rows come back ordered by
/// function index, so the output is deterministic in content.
pub fn run_corpus(seed: u64, n: usize, keq_opts: KeqOptions) -> (Module, CorpusSummary) {
    let opts = HarnessOptions { keq: keq_opts, ..HarnessOptions::default() };
    run_corpus_cfg(GenConfig { seed, ..GenConfig::default() }, n, &opts)
}

/// [`run_corpus`] with full control over the *generator* and the harness
/// — e.g. the high-register-pressure profile (`cfg.pressure`) that forces
/// the spilling allocator onto its spill path, or a fault plan.
pub fn run_corpus_cfg(cfg: GenConfig, n: usize, opts: &HarnessOptions) -> (Module, CorpusSummary) {
    let module = generate_corpus(cfg, n);
    let summary = run_module(&module, opts);
    (module, summary)
}
