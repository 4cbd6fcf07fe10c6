//! # pm-lp
//!
//! A self-contained linear-programming toolkit, written from scratch for the
//! pipelined-multicast reproduction: the paper's bounds (`Multicast-LB`,
//! `Multicast-UB`, `Broadcast-EB`, `MulticastMultiSource-UB`) and the exact
//! tree-packing baseline are all linear programs, and this crate is the only
//! LP dependency of the workspace.
//!
//! * [`problem`] — an [`LpProblem`] model builder
//!   (non-negative variables, `≤ / ≥ / =` constraints, maximize or minimize),
//! * [`sparse`] — CSC matrices and the triplet-based
//!   [`SparseBuilder`] used by the formulations,
//! * [`revised`] — the default engine: a sparse revised simplex with
//!   Dantzig pricing (Bland's rule after a stall), periodic
//!   refactorization and [warm starts](revised::WarmStartCache),
//! * [`basis`] — the [`EtaBasis`] factorization behind the revised
//!   simplex: a product-form eta file, one eta appended per pivot,
//! * [`simplex`] — the dense two-phase tableau simplex, kept as the
//!   last recovery rung and as the differential-testing oracle,
//! * [`solver`] — engine selection ([`set_default_solver`]) and
//!   deterministic pivot caps ([`SolveBudget`]),
//! * [`chaos`] — seeded fault injection ([`with_chaos`], [`set_chaos`])
//!   driving the recovery ladder (see [`revised::RecoveryRung`]) for
//!   self-healing tests and the chaos benchmark.
//!
//! Both engines share the anti-degeneracy toolkit (seeded shadow-RHS
//! perturbation, Dantzig→Bland stall switching, seeded ratio-test
//! tie-breaks), so every solve is bit-reproducible. Set `PM_LP_STATS=1` for
//! per-solve diagnostics on stderr.
//!
//! ```
//! use pm_lp::problem::{LpProblem, Objective, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x <= 2,  x, y >= 0
//! let mut lp = LpProblem::new(Objective::Maximize);
//! let x = lp.add_var("x");
//! let y = lp.add_var("y");
//! lp.set_objective_coeff(x, 3.0);
//! lp.set_objective_coeff(y, 2.0);
//! lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint(vec![(x, 1.0)], Relation::Le, 2.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 10.0).abs() < 1e-9);
//! assert!((sol.value(x) - 2.0).abs() < 1e-9);
//! assert!((sol.value(y) - 2.0).abs() < 1e-9);
//! ```

#![deny(missing_docs)]

pub mod basis;
pub mod chaos;
pub mod problem;
pub mod revised;
pub mod simplex;
pub mod solver;
pub mod sparse;

pub use basis::EtaBasis;
pub use chaos::{
    counters as chaos_counters, reset_counters as reset_chaos_counters, set_chaos, with_chaos,
    ChaosConfig, ChaosCounters, ChaosFault,
};
pub use problem::{LpError, LpProblem, LpSolution, Objective, Relation, VarId};
pub use revised::{
    resolve_with_bounds, resolve_with_bounds_budgeted, solve_with_hint_budgeted, Basis,
    BoundsOverlay, RecoveryRung, RecoveryTrigger, SolveOutcome, SolveStats, WarmStartCache,
    WarmStatus,
};
pub use solver::{default_solver, set_default_solver, stats_enabled, SolveBudget, SolverKind};
pub use sparse::{CscMatrix, SparseBuilder};
