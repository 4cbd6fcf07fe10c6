//! Engine selection — the sparse revised simplex is the default, the dense
//! tableau stays available as a fallback and differential-testing oracle —
//! plus the numerical knobs both engines share. The shared helpers are the
//! load-bearing part: the engines' bit-reproducibility story assumes
//! identical RNG streams, pivot budgets and row normalisation, so they live
//! here once instead of drifting apart as two private copies.

use crate::problem::Relation;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// SplitMix64 step: the deterministic generator behind the anti-degeneracy
/// perturbation and the ratio-test tie-break of *both* engines (each stream
/// is seeded from a distinct constant).
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hard phase-1 iteration cap, proportional to problem size: a healthy
/// simplex run needs a small multiple of `m` pivots, so a bounded multiple
/// of `m + n` (with a generous floor) separates "still converging" from
/// "stalled on numerically collapsed degeneracy" without letting a
/// pathological solve burn minutes of pivot work before reporting
/// [`crate::LpError::IterationLimit`]. Phase 1 gets a tighter multiple than
/// phase 2: its Eq rows cannot be de-degenerated by the RHS perturbation,
/// so a stalled phase 1 should give up quickly — observed healthy phase-1
/// runs on the multicast LPs stay under `0.4 (m + n)` pivots.
pub(crate) fn phase1_budget(m: usize, n: usize) -> usize {
    (2 * (m + n)).clamp(10_000, 50_000)
}

/// Hard phase-2 iteration cap (see [`phase1_budget`] for the rationale).
pub(crate) fn phase2_budget(m: usize, n: usize) -> usize {
    (8 * (m + n)).clamp(10_000, 200_000)
}

/// The relation of a row after the `b ≥ 0` normalisation (a negated row
/// flips its inequality direction).
pub(crate) fn effective_relation(relation: Relation, flipped: bool) -> Relation {
    if !flipped {
        return relation;
    }
    match relation {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

/// Anti-degeneracy RHS perturbation, shared by both engines (the classical
/// method, with the exact values kept in a shadow vector by the caller).
/// The multicast LPs are massively degenerate — hundreds of inequality rows
/// are tight at the initial vertex — and both Dantzig's and Bland's rules
/// stall there for minutes. Relaxing each inequality outward by a tiny
/// deterministic pseudo-random amount makes the tied ratio-test rows
/// distinct, so the simplex walks off degenerate vertices immediately:
///
/// * `Le` rows get `b += delta` (a strictly larger feasible region),
/// * `Ge` rows (normalised) get `b -= delta`, clamped at 0 (again a larger
///   region, and phase 1 still starts from `b ≥ 0`),
/// * `Eq` rows are left exact — perturbing them could make a feasible
///   flow-conservation system infeasible.
///
/// Optimality of the final basis transfers to the unperturbed problem
/// because reduced costs do not depend on the RHS. The per-row delta is
/// capped an order of magnitude below the 1e-6 phase-1 infeasibility
/// tolerance, so a large-RHS LP that is infeasible by just over 1e-6 cannot
/// be relaxed into feasibility. Seeded from the problem dimensions only
/// (distinct constant from the ratio-test tie-break stream), so identical
/// problems get identical perturbations in both engines.
pub(crate) fn perturb_rhs(b: &mut [f64], row_relations: &[Relation], n: usize) {
    let m = b.len();
    let mut seed = 0x243f_6a88_85a3_08d3u64 ^ ((m as u64) << 32) ^ n as u64;
    const PERTURB: f64 = 1e-8;
    for (br, &relation) in b.iter_mut().zip(row_relations) {
        // Uniform in [1, 2).
        let u = 1.0 + (splitmix64(&mut seed) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let delta = PERTURB * (1.0 + br.abs()).min(5.0) * u;
        match relation {
            Relation::Le => *br += delta,
            Relation::Ge => *br = (*br - delta).max(0.0),
            Relation::Eq => {}
        }
    }
}

/// The two LP engines of the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// The dense two-phase tableau simplex ([`crate::simplex`]).
    Dense,
    /// The sparse revised simplex with a product-form eta-file basis
    /// ([`crate::revised`]). The default.
    Revised,
}

/// Process-wide programmatic override (0 = unset, 1 = dense, 2 = revised).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The `PM_LP_SOLVER` environment variable, parsed once.
fn env_solver() -> Option<SolverKind> {
    static ENV: OnceLock<Option<SolverKind>> = OnceLock::new();
    *ENV.get_or_init(|| match std::env::var("PM_LP_SOLVER").ok().as_deref() {
        Some("dense") => Some(SolverKind::Dense),
        Some("revised") => Some(SolverKind::Revised),
        Some(other) => {
            eprintln!("pm-lp: ignoring unknown PM_LP_SOLVER value {other:?} (dense|revised)");
            None
        }
        None => None,
    })
}

/// The engine used by [`crate::LpProblem::solve`]: a programmatic
/// [`set_default_solver`] override wins, then `PM_LP_SOLVER=dense|revised`,
/// then the revised simplex.
pub fn default_solver() -> SolverKind {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => SolverKind::Dense,
        2 => SolverKind::Revised,
        _ => env_solver().unwrap_or(SolverKind::Revised),
    }
}

/// Overrides the process-wide default engine (e.g. from a `--solver` CLI
/// flag). Takes precedence over `PM_LP_SOLVER`.
pub fn set_default_solver(kind: SolverKind) {
    OVERRIDE.store(
        match kind {
            SolverKind::Dense => 1,
            SolverKind::Revised => 2,
        },
        Ordering::Relaxed,
    );
}

/// Deterministic work caps for one solve attempt (see
/// `docs/robustness.md`).
///
/// Budgets are expressed in *pivots* and *refactorizations* — units that are
/// byte-deterministic across machines and thread counts — never wall-clock
/// time. A `None` cap is unlimited. When phase 2 runs out of budget after a
/// feasible point has been reached, the engine returns the current vertex as
/// an *anytime* solution flagged [`crate::LpSolution::degraded`] instead of
/// erroring; running out during phase 1 (no feasible point yet) reports
/// [`crate::LpError::IterationLimit`]. Budget exhaustion never escalates the
/// recovery ladder: retrying under the same caps cannot help, and the caps
/// exist precisely to bound total work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Cap on simplex pivots per solve attempt (all phases combined).
    pub max_pivots: Option<u64>,
    /// Cap on basis refactorizations per solve attempt.
    pub max_refactorizations: Option<u64>,
}

impl SolveBudget {
    /// An unlimited budget (both caps off) — the default.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget capping only pivots.
    pub fn pivots(max: u64) -> Self {
        SolveBudget {
            max_pivots: Some(max),
            max_refactorizations: None,
        }
    }

    /// Whether any cap is set.
    pub fn is_limited(&self) -> bool {
        self.max_pivots.is_some() || self.max_refactorizations.is_some()
    }
}

/// The `PM_LP_BUDGET` environment variable, parsed once. Format:
/// `PIVOTS` or `PIVOTS:REFACTORIZATIONS`, each a decimal count or `0` /
/// empty for unlimited. Applies to every solve that is not given an
/// explicit budget by its caller.
pub fn default_budget() -> Option<SolveBudget> {
    static ENV: OnceLock<Option<SolveBudget>> = OnceLock::new();
    *ENV.get_or_init(|| {
        let raw = std::env::var("PM_LP_BUDGET").ok()?;
        let mut parts = raw.splitn(2, ':');
        let parse = |s: Option<&str>| -> Option<u64> {
            let s = s.unwrap_or("").trim();
            if s.is_empty() {
                return None;
            }
            match s.parse::<u64>() {
                Ok(0) => None,
                Ok(v) => Some(v),
                Err(_) => {
                    eprintln!("pm-lp: ignoring unparsable PM_LP_BUDGET component {s:?}");
                    None
                }
            }
        };
        let budget = SolveBudget {
            max_pivots: parse(parts.next()),
            max_refactorizations: parse(parts.next()),
        };
        budget.is_limited().then_some(budget)
    })
}

/// Whether `PM_LP_PRESOLVE=1` routes [`crate::LpProblem::solve`] /
/// [`crate::LpProblem::solve_with`] through [`crate::presolve::presolve`]
/// (parsed once). Off by default, and bypassed while a
/// [`crate::revised::WarmStartCache`] scope is active on the current thread:
/// presolve changes the constraint pattern, which would defeat the
/// structural-signature warm-start reuse those scopes provide.
pub fn presolve_enabled() -> bool {
    static PRESOLVE: OnceLock<bool> = OnceLock::new();
    *PRESOLVE.get_or_init(|| std::env::var_os("PM_LP_PRESOLVE").is_some_and(|v| v == "1"))
}

/// Whether `PM_LP_STATS=1` diagnostics are enabled (parsed once). Public so
/// higher layers (e.g. `pm_core::Session`) can honour the same switch when
/// pretty-printing their structured solve statistics — the env var is a
/// human-readable shim; programmatic consumers read the structured
/// accessors instead of scraping stderr.
pub fn stats_enabled() -> bool {
    static STATS: OnceLock<bool> = OnceLock::new();
    *STATS.get_or_init(|| std::env::var_os("PM_LP_STATS").is_some_and(|v| v == "1"))
}
