//! Seeded fault injection for the revised-simplex recovery ladder.
//!
//! Chaos mode deterministically injects solver faults — a "singular" basis
//! factorization, a poisoned warm-start hint, a pricing stall, a NaN in the
//! solution vector — so the recovery ladder of [`crate::revised`] can be
//! exercised end to end: every injected fault must end in a verified
//! optimum, a [`crate::LpSolution::degraded`] anytime solution, or a
//! structured [`crate::LpError`] — never a panic.
//!
//! Configuration sources, in precedence order:
//!
//! 1. a thread-local scope ([`with_chaos`]) — used by tests so parallel
//!    test threads cannot interfere,
//! 2. the process-wide programmatic config ([`set_chaos`]) — used by
//!    `fig11 --chaos`, whose solves run on real worker threads.
//!
//! Whether a given solve is struck, which fault fires, and for how many
//! ladder attempts is a pure function of the seed and the problem's
//! structural signature, so chaos runs are byte-deterministic across runs
//! and thread counts. Global outcome counters are commutative sums and can
//! be read with [`counters`].

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// One injectable solver fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// The basis factorization pretends to be singular at the next
    /// optimization entry (the refactorization-failure path).
    SingularBasis,
    /// The warm-start hint is deterministically corrupted before it is
    /// installed (rows marked redundant that are not).
    PoisonHint,
    /// The pricing loop pretends to stall out of its iteration budget.
    PricingStall,
    /// A NaN is written into the solution vector, to be caught by the
    /// engine's non-finite guards.
    NanInjection,
}

/// Bit masks of the four faults (for [`ChaosConfig::faults`]).
const F_SINGULAR: u8 = 1;
const F_HINT: u8 = 2;
const F_STALL: u8 = 4;
const F_NAN: u8 = 8;
const F_ALL: u8 = F_SINGULAR | F_HINT | F_STALL | F_NAN;

/// A chaos-injection configuration: which faults may fire, under which seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed mixed with each problem's structural signature to decide the
    /// per-solve injection plan.
    pub seed: u64,
    /// Bit mask of enabled faults (see [`ChaosConfig::all`] etc.).
    faults: u8,
}

impl ChaosConfig {
    /// Enables every fault under `seed`.
    pub fn all(seed: u64) -> Self {
        ChaosConfig {
            seed,
            faults: F_ALL,
        }
    }

    /// Enables a single fault under `seed`.
    pub fn only(fault: ChaosFault, seed: u64) -> Self {
        ChaosConfig {
            seed,
            faults: match fault {
                ChaosFault::SingularBasis => F_SINGULAR,
                ChaosFault::PoisonHint => F_HINT,
                ChaosFault::PricingStall => F_STALL,
                ChaosFault::NanInjection => F_NAN,
            },
        }
    }

    fn enabled_faults(&self) -> Vec<ChaosFault> {
        let mut out = Vec::with_capacity(4);
        if self.faults & F_SINGULAR != 0 {
            out.push(ChaosFault::SingularBasis);
        }
        if self.faults & F_HINT != 0 {
            out.push(ChaosFault::PoisonHint);
        }
        if self.faults & F_STALL != 0 {
            out.push(ChaosFault::PricingStall);
        }
        if self.faults & F_NAN != 0 {
            out.push(ChaosFault::NanInjection);
        }
        out
    }
}

thread_local! {
    /// Thread-local override: `None` = no override, `Some(None)` = chaos
    /// explicitly off for this scope, `Some(Some(cfg))` = on.
    static SCOPED: Cell<Option<Option<ChaosConfig>>> = const { Cell::new(None) };
}

/// Process-wide programmatic config: whether it is on, and its seed and
/// fault mask. `set_chaos` stores `GLOBAL_ON = true` with `Release` after
/// the seed and mask, and `current` loads it with `Acquire`, so a reader
/// that sees the flag on also sees the config it publishes.
static GLOBAL_ON: AtomicBool = AtomicBool::new(false);
static GLOBAL_SEED: AtomicU64 = AtomicU64::new(0);
static GLOBAL_FAULTS: AtomicU8 = AtomicU8::new(0);

/// Sets (or clears, with `None`) the process-wide chaos configuration. A
/// [`with_chaos`] scope on the current thread still wins. Used by drivers
/// whose solves fan out over worker threads (thread-locals would not reach
/// them).
pub fn set_chaos(config: Option<ChaosConfig>) {
    match config {
        Some(cfg) => {
            GLOBAL_SEED.store(cfg.seed, Ordering::Relaxed);
            GLOBAL_FAULTS.store(cfg.faults, Ordering::Relaxed);
            GLOBAL_ON.store(true, Ordering::Release);
        }
        None => GLOBAL_ON.store(false, Ordering::Relaxed),
    }
}

/// Runs `f` with `config` as the chaos configuration on the current thread
/// (`None` forces chaos off). Restores the previous override on exit, so
/// scopes nest. Solves dispatched to other threads inside `f` do not see
/// the override — tests that need that use [`set_chaos`] instead.
pub fn with_chaos<R>(config: Option<ChaosConfig>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Option<ChaosConfig>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SCOPED.with(|s| s.set(self.0));
        }
    }
    let _restore = Restore(SCOPED.with(|s| s.replace(Some(config))));
    f()
}

/// The chaos configuration in effect on the current thread, if any.
pub fn current() -> Option<ChaosConfig> {
    if let Some(scoped) = SCOPED.with(|s| s.get()) {
        return scoped;
    }
    GLOBAL_ON.load(Ordering::Acquire).then(|| ChaosConfig {
        seed: GLOBAL_SEED.load(Ordering::Relaxed),
        faults: GLOBAL_FAULTS.load(Ordering::Relaxed),
    })
}

/// The injection plan for one solve: which fault fires, on how many leading
/// ladder attempts, and the hash driving any further deterministic choices
/// (e.g. which hint rows to poison).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPlan {
    pub(crate) fault: ChaosFault,
    /// The fault strikes ladder attempts `0..strikes`.
    pub(crate) strikes: usize,
    pub(crate) hash: u64,
}

/// Computes the injection plan for a solve, given its structural signature
/// (computed lazily: signatures cost a hash pass and chaos is usually off).
pub(crate) fn plan(signature: impl FnOnce() -> u64) -> Option<ChaosPlan> {
    let cfg = current()?;
    let enabled = cfg.enabled_faults();
    if enabled.is_empty() {
        return None;
    }
    let mut h = cfg.seed ^ signature();
    let pick = crate::solver::splitmix64(&mut h);
    // Strike roughly one solve in three, so chaos sweeps still exercise
    // plenty of healthy solves (warm-start chains survive in between).
    if !pick.is_multiple_of(3) {
        return None;
    }
    let fault = enabled[(pick >> 8) as usize % enabled.len()];
    let strikes = 1 + ((pick >> 32) as usize % 3);
    Some(ChaosPlan {
        fault,
        strikes,
        hash: crate::solver::splitmix64(&mut h),
    })
}

/// Outcome counters of chaos-era solves (commutative atomic sums, so they
/// are deterministic regardless of thread interleaving).
static C_SOLVES: AtomicU64 = AtomicU64::new(0);
static C_INJECTED: AtomicU64 = AtomicU64::new(0);
static C_BY_RUNG: [AtomicU64; 5] = [
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];
static C_DEGRADED: AtomicU64 = AtomicU64::new(0);
static C_UNRECOVERED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the global chaos/recovery counters (see [`counters`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosCounters {
    /// Total revised-engine solves since the last [`reset_counters`].
    pub solves: u64,
    /// Solves that had at least one fault injected.
    pub injected: u64,
    /// Successful solves by winning recovery rung (0 = first attempt, 4 =
    /// the dense-tableau oracle).
    pub recovered_by_rung: [u64; 5],
    /// Solves that returned a budget-degraded anytime solution.
    pub degraded: u64,
    /// Solves that exhausted the whole ladder and still reported
    /// [`crate::LpError::IterationLimit`].
    pub unrecovered: u64,
}

/// Reads the global chaos/recovery counters.
pub fn counters() -> ChaosCounters {
    ChaosCounters {
        solves: C_SOLVES.load(Ordering::Relaxed),
        injected: C_INJECTED.load(Ordering::Relaxed),
        recovered_by_rung: std::array::from_fn(|i| C_BY_RUNG[i].load(Ordering::Relaxed)),
        degraded: C_DEGRADED.load(Ordering::Relaxed),
        unrecovered: C_UNRECOVERED.load(Ordering::Relaxed),
    }
}

/// Resets the global chaos/recovery counters to zero.
pub fn reset_counters() {
    C_SOLVES.store(0, Ordering::Relaxed);
    C_INJECTED.store(0, Ordering::Relaxed);
    for c in &C_BY_RUNG {
        c.store(0, Ordering::Relaxed);
    }
    C_DEGRADED.store(0, Ordering::Relaxed);
    C_UNRECOVERED.store(0, Ordering::Relaxed);
}

/// Records one finished solve in the global counters.
pub(crate) fn record_outcome(
    injected: bool,
    rung: Option<usize>,
    degraded: bool,
    unrecovered: bool,
) {
    C_SOLVES.fetch_add(1, Ordering::Relaxed);
    if injected {
        C_INJECTED.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(r) = rung {
        C_BY_RUNG[r.min(C_BY_RUNG.len() - 1)].fetch_add(1, Ordering::Relaxed);
    }
    if degraded {
        C_DEGRADED.fetch_add(1, Ordering::Relaxed);
    }
    if unrecovered {
        C_UNRECOVERED.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_seed_and_signature() {
        let cfg = ChaosConfig::all(42);
        let (a, b) = with_chaos(Some(cfg), || {
            let a = plan(|| 0xdead_beef).map(|p| (p.fault, p.strikes, p.hash));
            let b = plan(|| 0xdead_beef).map(|p| (p.fault, p.strikes, p.hash));
            (a, b)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn scopes_nest_and_restore() {
        with_chaos(Some(ChaosConfig::all(1)), || {
            assert_eq!(current().map(|c| c.seed), Some(1));
            with_chaos(None, || assert_eq!(current(), None));
            assert_eq!(current().map(|c| c.seed), Some(1));
        });
    }

    #[test]
    fn single_fault_configs_only_fire_that_fault() {
        with_chaos(Some(ChaosConfig::only(ChaosFault::NanInjection, 7)), || {
            for sig in 0..200u64 {
                if let Some(p) = plan(|| sig) {
                    assert_eq!(p.fault, ChaosFault::NanInjection);
                    assert!((1..=3).contains(&p.strikes));
                }
            }
        });
    }
}
