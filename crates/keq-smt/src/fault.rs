//! Deterministic fault injection.
//!
//! Differential-validation campaigns live or die on how the driver behaves
//! when something *inside* the pipeline misbehaves: a panic in a pass, a
//! query that spuriously exhausts its budget, a worker that stops
//! acknowledging cancellation. This module lets the corpus harness inject
//! exactly those faults at fixed sites inside `keq-smt` and `keq-core`,
//! from a fully deterministic, seeded [`FaultPlan`] — no wall clock, no
//! global randomness — so robustness tests can predict the exact fault each
//! corpus function receives and assert its classification.
//!
//! Faults are armed per worker thread via [`install`] (returning a guard
//! that disarms on drop, including across panics), and fire at the poll
//! sites:
//!
//! * [`FaultSite::SolverQuery`] — entry of [`crate::Solver::check_sat`];
//!   hosts [`InjectedFault::Panic`] and [`InjectedFault::ForceBudget`];
//! * [`FaultSite::CheckerStep`] — each symbolic step of the checker's
//!   frontier loop; hosts [`InjectedFault::Hang`];
//! * [`FaultSite::IselEntry`] / [`FaultSite::CheckerEntry`] — the first
//!   instruction of instruction selection and of the checker respectively;
//!   host the panic-at-phase faults [`InjectedFault::PanicIsel`] and
//!   [`InjectedFault::PanicChecker`];
//! * the cancellation/deadline poll helper [`crate::cancel::stop_requested`]
//!   consults [`suppress_cancel`], which implements
//!   [`InjectedFault::SlowCancel`] (and the never-acknowledging half of
//!   `Hang`).
//!
//! Storage faults (short read, torn write, ENOSPC) live on a different
//! axis: they are not armed per worker thread but wrap the storage backend
//! itself — [`FaultyIo`] implements [`crate::obcache::StoreIo`] and decides
//! per I/O operation, from the same seeded plan, whether to corrupt it.
//!
//! When nothing is installed every hook is a cheap thread-local read, so
//! production runs pay essentially nothing.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::obcache::{StdStoreIo, StoreIo};
use crate::solver::BudgetKind;

/// Where a fault can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Entry of a solver satisfiability query.
    SolverQuery,
    /// One symbolic execution step in the checker's frontier loop.
    CheckerStep,
    /// Entry of instruction selection for one function.
    IselEntry,
    /// Entry of the equivalence checker for one translation.
    CheckerEntry,
}

/// The injectable faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// Panic at the first [`FaultSite::SolverQuery`] poll.
    Panic,
    /// Report a spurious budget exhaustion of the given kind at *every*
    /// [`FaultSite::SolverQuery`] poll. Persistent on purpose: resilient
    /// consumers (feasibility pruning, fast-path fallbacks) absorb a single
    /// failed query, so a one-shot fault could vanish without a trace; a
    /// unit under this fault deterministically classifies as
    /// budget-exhausted, which is what robustness tests predict against.
    ForceBudget(BudgetKind),
    /// Ignore a bounded number of cancellation/deadline observations before
    /// acknowledging (a slow-but-cooperative worker).
    SlowCancel(u32),
    /// Never finish and never acknowledge cancellation: park the thread at
    /// the first [`FaultSite::CheckerStep`] poll. Only a watchdog can deal
    /// with this worker.
    Hang,
    /// Panic at the first [`FaultSite::IselEntry`] poll — a crash in the
    /// middle of instruction selection rather than inside the solver.
    PanicIsel,
    /// Panic at the first [`FaultSite::CheckerEntry`] poll.
    PanicChecker,
}

/// A rate `num/den`: the deterministic fraction of units affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rate {
    /// Numerator.
    pub num: u32,
    /// Denominator (0 disables the fault regardless of `num`).
    pub den: u32,
}

impl Rate {
    /// The always-off rate.
    pub const ZERO: Rate = Rate { num: 0, den: 1 };

    fn fraction_q32(self) -> u64 {
        if self.den == 0 {
            return 0;
        }
        ((u64::from(self.num) << 32) / u64::from(self.den)).min(1 << 32)
    }
}

/// A seeded, deterministic plan assigning at most one fault to each unit
/// of work (one corpus function = one unit).
///
/// The assignment depends only on `(seed, unit)`, so a test driving a
/// corpus run can call [`FaultPlan::fault_for`] itself and predict every
/// row of the result table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Plan seed; different seeds select different victim units.
    pub seed: u64,
    /// Fraction of units that panic.
    pub panic: Rate,
    /// Fraction of units whose first query reports conflict exhaustion.
    pub force_conflicts: Rate,
    /// Fraction of units whose first query reports term exhaustion.
    pub force_terms: Rate,
    /// Fraction of units that acknowledge cancellation late.
    pub slow_cancel: Rate,
    /// Observations swallowed by a `slow_cancel` fault.
    pub slow_cancel_polls: u32,
    /// Fraction of units that hang outright (watchdog fodder).
    pub hang: Rate,
    /// Fraction of units that panic at instruction-selection entry.
    pub panic_isel: Rate,
    /// Fraction of units that panic at checker entry.
    pub panic_checker: Rate,
    /// Fraction of storage *reads* that come back truncated.
    pub short_read: Rate,
    /// Fraction of storage *writes* that persist only a prefix and fail.
    pub torn_write: Rate,
    /// Fraction of storage *writes* that fail outright with ENOSPC.
    pub enospc: Rate,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for struct update).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic: Rate::ZERO,
            force_conflicts: Rate::ZERO,
            force_terms: Rate::ZERO,
            slow_cancel: Rate::ZERO,
            slow_cancel_polls: 0,
            hang: Rate::ZERO,
            panic_isel: Rate::ZERO,
            panic_checker: Rate::ZERO,
            short_read: Rate::ZERO,
            torn_write: Rate::ZERO,
            enospc: Rate::ZERO,
        }
    }

    /// Whether the plan injects any storage faults (i.e. the harness must
    /// wrap its storage backend in a [`FaultyIo`]).
    pub fn has_storage_faults(&self) -> bool {
        [self.short_read, self.torn_write, self.enospc].iter().any(|r| r.fraction_q32() > 0)
    }

    /// The storage slice of this plan, for seeding a [`FaultyIo`].
    pub fn storage(&self) -> StoragePlan {
        StoragePlan {
            seed: self.seed,
            short_read: self.short_read,
            torn_write: self.torn_write,
            enospc: self.enospc,
        }
    }

    /// The fault (if any) assigned to `unit`, chosen by hashing
    /// `(seed, unit)` and carving the unit interval into consecutive
    /// per-fault slices.
    pub fn fault_for(&self, unit: u64) -> Option<InjectedFault> {
        let h = keq_prng_mix(self.seed ^ unit.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // 32 fractional bits are plenty for test-scale rates.
        let x = u64::from((h >> 32) as u32);
        let mut lo = 0u64;
        let mut hit = |rate: Rate| {
            let hi = lo + rate.fraction_q32();
            let inside = x >= lo && x < hi;
            lo = hi;
            inside
        };
        if hit(self.panic) {
            Some(InjectedFault::Panic)
        } else if hit(self.force_conflicts) {
            Some(InjectedFault::ForceBudget(BudgetKind::Conflicts))
        } else if hit(self.force_terms) {
            Some(InjectedFault::ForceBudget(BudgetKind::Terms))
        } else if hit(self.slow_cancel) {
            Some(InjectedFault::SlowCancel(self.slow_cancel_polls))
        } else if hit(self.hang) {
            Some(InjectedFault::Hang)
        } else if hit(self.panic_isel) {
            Some(InjectedFault::PanicIsel)
        } else if hit(self.panic_checker) {
            Some(InjectedFault::PanicChecker)
        } else {
            None
        }
    }
}

/// SplitMix64 finalizer (duplicated from `keq-prng` to keep this crate
/// dependency-free at the bottom of the workspace). Public so harness-side
/// deterministic derivations (chaos kill schedules)
/// share the same mixer instead of growing their own.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn keq_prng_mix(x: u64) -> u64 {
    mix64(x)
}

/// The storage-fault slice of a [`FaultPlan`], consumed by [`FaultyIo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoragePlan {
    /// Shared plan seed.
    pub seed: u64,
    /// Fraction of reads that come back truncated.
    pub short_read: Rate,
    /// Fraction of writes that persist a prefix and then fail.
    pub torn_write: Rate,
    /// Fraction of writes that fail with ENOSPC before writing anything.
    pub enospc: Rate,
}

/// A storage fault chosen for one I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The read returns only a prefix of the file.
    ShortRead,
    /// Half the bytes land on disk, then the write errors.
    TornWrite,
    /// The write fails before any byte lands ("no space left on device").
    Enospc,
}

impl StoragePlan {
    /// The fault (if any) assigned to the `op`-th read. Reads can only be
    /// short; write faults never apply.
    pub fn read_fault_for(&self, op: u64) -> Option<StorageFault> {
        let x = self.slice_point(op ^ 0x5ead);
        (x < self.short_read.fraction_q32()).then_some(StorageFault::ShortRead)
    }

    /// The fault (if any) assigned to the `op`-th write: the unit interval
    /// is carved into a torn-write slice followed by an ENOSPC slice.
    pub fn write_fault_for(&self, op: u64) -> Option<StorageFault> {
        let x = self.slice_point(op ^ 0x3a17e);
        let torn = self.torn_write.fraction_q32();
        if x < torn {
            Some(StorageFault::TornWrite)
        } else if x < torn + self.enospc.fraction_q32() {
            Some(StorageFault::Enospc)
        } else {
            None
        }
    }

    fn slice_point(&self, op: u64) -> u64 {
        let h = mix64(self.seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        u64::from((h >> 32) as u32)
    }
}

/// Deterministic fault-injecting [`StoreIo`] wrapper around the real
/// filesystem. Each instance numbers its operations with a private counter
/// (no global state, so parallel tests stay isolated) and consults the
/// [`StoragePlan`] per operation; every firing is reported to the trace
/// journal as a [`keq_trace::Event::FaultInjected`].
#[derive(Debug)]
pub struct FaultyIo {
    plan: StoragePlan,
    ops: AtomicU64,
    inner: StdStoreIo,
}

impl FaultyIo {
    /// Wraps the real filesystem with the given storage-fault plan.
    pub fn new(plan: StoragePlan) -> Self {
        FaultyIo { plan, ops: AtomicU64::new(0), inner: StdStoreIo }
    }

    fn next_op(&self) -> u64 {
        self.ops.fetch_add(1, Ordering::Relaxed)
    }
}

impl StoreIo for FaultyIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut buf = self.inner.read(path)?;
        if self.plan.read_fault_for(self.next_op()) == Some(StorageFault::ShortRead) {
            keq_trace::emit(keq_trace::Event::FaultInjected {
                site: "storage_read",
                fault: "short_read",
            });
            buf.truncate(buf.len() / 2);
        }
        Ok(buf)
    }

    fn write(&self, path: &Path, bytes: &[u8], append: bool) -> std::io::Result<()> {
        match self.plan.write_fault_for(self.next_op()) {
            Some(StorageFault::TornWrite) => {
                keq_trace::emit(keq_trace::Event::FaultInjected {
                    site: "storage_write",
                    fault: "torn_write",
                });
                // Half the payload lands, then the device "fails".
                self.inner.write(path, &bytes[..bytes.len() / 2], append)?;
                Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected fault: torn write",
                ))
            }
            Some(StorageFault::Enospc) => {
                keq_trace::emit(keq_trace::Event::FaultInjected {
                    site: "storage_write",
                    fault: "enospc",
                });
                Err(std::io::Error::other("injected fault: no space left on device"))
            }
            _ => self.inner.write(path, bytes, append),
        }
    }

    fn file_len(&self, path: &Path) -> std::io::Result<u64> {
        self.inner.file_len(path)
    }
}

#[derive(Debug)]
struct Armed {
    fault: InjectedFault,
    /// One-shot faults disarm after firing.
    fired: bool,
    /// Remaining observations a `SlowCancel` may swallow.
    suppress_left: u32,
}

thread_local! {
    static ARMED: RefCell<Option<Armed>> = const { RefCell::new(None) };
}

/// Arms this thread with the fault the plan assigns to `unit` (if any).
/// The returned guard disarms on drop — including during a panic unwind,
/// so a fired [`InjectedFault::Panic`] cannot leak into the next job run
/// on the same worker thread.
pub fn install(plan: &FaultPlan, unit: u64) -> FaultGuard {
    let fault = plan.fault_for(unit);
    ARMED.with(|a| {
        *a.borrow_mut() = fault.map(|f| Armed {
            fault: f,
            fired: false,
            suppress_left: match f {
                InjectedFault::SlowCancel(n) => n,
                InjectedFault::Hang => u32::MAX,
                _ => 0,
            },
        });
    });
    FaultGuard(())
}

/// Disarms the current thread's fault on drop.
#[derive(Debug)]
pub struct FaultGuard(());

impl Drop for FaultGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = None);
    }
}

/// What a poll site must do. [`InjectedFault::Panic`] and
/// [`InjectedFault::Hang`] never return through here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Keep going.
    None,
    /// Report a spurious budget exhaustion of this kind.
    ForceBudget(BudgetKind),
}

/// Stable wire name of a poll site (the trace journal's `"site"` field).
fn site_name(site: FaultSite) -> &'static str {
    match site {
        FaultSite::SolverQuery => "solver_query",
        FaultSite::CheckerStep => "checker_step",
        FaultSite::IselEntry => "isel_entry",
        FaultSite::CheckerEntry => "checker_entry",
    }
}

/// Stable wire name of a forced-budget kind.
fn budget_fault_name(kind: BudgetKind) -> &'static str {
    match kind {
        BudgetKind::Conflicts => "force_budget_conflicts",
        BudgetKind::Terms => "force_budget_terms",
        BudgetKind::WallClock => "force_budget_wall_clock",
    }
}

/// The poll hook, called from the instrumented sites. Every firing is
/// also reported to the trace journal as a typed
/// [`keq_trace::Event::FaultInjected`], stamped with the attempt context,
/// so robustness tests can assert which attempt absorbed which fault.
pub fn poll(site: FaultSite) -> FaultAction {
    ARMED.with(|a| {
        let mut armed = a.borrow_mut();
        let Some(st) = armed.as_mut() else { return FaultAction::None };
        match (st.fault, site) {
            (InjectedFault::Panic, FaultSite::SolverQuery) if !st.fired => {
                st.fired = true;
                drop(armed);
                keq_trace::emit(keq_trace::Event::FaultInjected {
                    site: site_name(site),
                    fault: "panic",
                });
                panic!("injected fault: synthetic panic at solver query");
            }
            (InjectedFault::ForceBudget(kind), FaultSite::SolverQuery) => {
                keq_trace::emit(keq_trace::Event::FaultInjected {
                    site: site_name(site),
                    fault: budget_fault_name(kind),
                });
                FaultAction::ForceBudget(kind)
            }
            (InjectedFault::PanicIsel, FaultSite::IselEntry)
            | (InjectedFault::PanicChecker, FaultSite::CheckerEntry)
                if !st.fired =>
            {
                st.fired = true;
                drop(armed);
                keq_trace::emit(keq_trace::Event::FaultInjected {
                    site: site_name(site),
                    fault: "panic_at_phase",
                });
                panic!("injected fault: synthetic panic at {}", site_name(site));
            }
            (InjectedFault::Hang, FaultSite::CheckerStep) => {
                drop(armed);
                keq_trace::emit(keq_trace::Event::FaultInjected {
                    site: site_name(site),
                    fault: "hang",
                });
                // Park forever without burning CPU; only process exit or a
                // watchdog-side abandonment ends this thread's job.
                loop {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
            _ => FaultAction::None,
        }
    })
}

/// Whether an armed fault wants to swallow this cancellation/deadline
/// observation (see [`crate::cancel::stop_requested`]).
pub fn suppress_cancel() -> bool {
    let suppressed = ARMED.with(|a| {
        let mut armed = a.borrow_mut();
        let Some(st) = armed.as_mut() else { return false };
        if st.suppress_left > 0 {
            if st.suppress_left != u32::MAX {
                st.suppress_left -= 1;
            }
            true
        } else {
            false
        }
    });
    if suppressed {
        keq_trace::emit(keq_trace::Event::FaultInjected { site: "cancel", fault: "slow_cancel" });
    }
    suppressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(seed: u64) -> FaultPlan {
        FaultPlan {
            panic: Rate { num: 1, den: 4 },
            force_conflicts: Rate { num: 1, den: 4 },
            force_terms: Rate { num: 1, den: 4 },
            hang: Rate { num: 1, den: 4 },
            ..FaultPlan::quiet(seed)
        }
    }

    #[test]
    fn plan_is_deterministic_and_covers_all_faults() {
        let plan = full(7);
        let a: Vec<_> = (0..64).map(|i| plan.fault_for(i)).collect();
        let b: Vec<_> = (0..64).map(|i| plan.fault_for(i)).collect();
        assert_eq!(a, b);
        assert!(a.contains(&Some(InjectedFault::Panic)));
        assert!(a.contains(&Some(InjectedFault::ForceBudget(BudgetKind::Conflicts))));
        assert!(a.contains(&Some(InjectedFault::ForceBudget(BudgetKind::Terms))));
        assert!(a.contains(&Some(InjectedFault::Hang)));
    }

    #[test]
    fn quiet_plan_assigns_nothing() {
        let plan = FaultPlan::quiet(3);
        assert!((0..128).all(|i| plan.fault_for(i).is_none()));
    }

    #[test]
    fn rates_scale_selection_counts() {
        let always = FaultPlan { panic: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(1) };
        assert!((0..32).all(|i| always.fault_for(i) == Some(InjectedFault::Panic)));
    }

    #[test]
    fn force_budget_fires_on_every_query() {
        let plan = FaultPlan { force_terms: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(5) };
        let _g = install(&plan, 0);
        assert_eq!(poll(FaultSite::SolverQuery), FaultAction::ForceBudget(BudgetKind::Terms));
        assert_eq!(poll(FaultSite::SolverQuery), FaultAction::ForceBudget(BudgetKind::Terms));
        assert_eq!(poll(FaultSite::CheckerStep), FaultAction::None);
    }

    #[test]
    fn guard_disarms_on_drop() {
        let plan = FaultPlan { force_terms: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(5) };
        {
            let _g = install(&plan, 0);
        }
        assert_eq!(poll(FaultSite::SolverQuery), FaultAction::None);
    }

    #[test]
    fn slow_cancel_swallows_exactly_n_polls() {
        let plan = FaultPlan {
            slow_cancel: Rate { num: 1, den: 1 },
            slow_cancel_polls: 3,
            ..FaultPlan::quiet(9)
        };
        let _g = install(&plan, 0);
        assert!(suppress_cancel());
        assert!(suppress_cancel());
        assert!(suppress_cancel());
        assert!(!suppress_cancel());
    }

    #[test]
    fn panic_at_phase_faults_fire_only_at_their_site() {
        let plan = FaultPlan { panic_isel: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(11) };
        assert_eq!(plan.fault_for(0), Some(InjectedFault::PanicIsel));
        let _g = install(&plan, 0);
        assert_eq!(poll(FaultSite::SolverQuery), FaultAction::None);
        assert_eq!(poll(FaultSite::CheckerEntry), FaultAction::None);
        let err = std::panic::catch_unwind(|| poll(FaultSite::IselEntry)).expect_err("must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("isel_entry"), "got: {msg}");
    }

    #[test]
    fn storage_plan_is_deterministic_and_separates_read_write_axes() {
        let plan = StoragePlan {
            seed: 5,
            short_read: Rate { num: 1, den: 2 },
            torn_write: Rate { num: 1, den: 4 },
            enospc: Rate { num: 1, den: 4 },
        };
        let reads: Vec<_> = (0..64).map(|i| plan.read_fault_for(i)).collect();
        assert_eq!(reads, (0..64).map(|i| plan.read_fault_for(i)).collect::<Vec<_>>());
        assert!(reads.contains(&Some(StorageFault::ShortRead)));
        let writes: Vec<_> = (0..64).map(|i| plan.write_fault_for(i)).collect();
        assert!(writes.contains(&Some(StorageFault::TornWrite)));
        assert!(writes.contains(&Some(StorageFault::Enospc)));
        assert!(writes.contains(&None));
    }

    #[test]
    fn faulty_io_tears_writes_and_shortens_reads() {
        use crate::obcache::StoreIo;
        let mut path = std::env::temp_dir();
        path.push(format!("keq-faultyio-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // Every write torn, every read short.
        let io = FaultyIo::new(StoragePlan {
            seed: 1,
            short_read: Rate { num: 1, den: 1 },
            torn_write: Rate { num: 1, den: 1 },
            enospc: Rate::ZERO,
        });
        let err = io.write(&path, b"0123456789", false).expect_err("torn write errors");
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        assert_eq!(std::fs::read(&path).expect("prefix landed"), b"01234");
        let short = io.read(&path).expect("short read still succeeds");
        assert_eq!(short, b"01", "half of the 5 persisted bytes");

        // ENOSPC leaves the file untouched.
        let io = FaultyIo::new(StoragePlan {
            seed: 1,
            short_read: Rate::ZERO,
            torn_write: Rate::ZERO,
            enospc: Rate { num: 1, den: 1 },
        });
        io.write(&path, b"xxxx", false).expect_err("enospc errors");
        assert_eq!(std::fs::read(&path).expect("unchanged"), b"01234");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_panic_unwinds_with_message() {
        let plan = FaultPlan { panic: Rate { num: 1, den: 1 }, ..FaultPlan::quiet(2) };
        let _g = install(&plan, 0);
        let err =
            std::panic::catch_unwind(|| poll(FaultSite::SolverQuery)).expect_err("must panic");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or("");
        assert!(msg.contains("injected fault"), "got: {msg}");
    }
}
