//! Differential tests: the sparse revised simplex and the dense tableau
//! simplex must agree on status and objective for every random LP, including
//! the degenerate generators, Beale's cycling example, warm-chained
//! re-solves under bounds overlays and the secondary-objective vertex. The
//! dense engine is the oracle; any disagreement beyond 1e-6 is an engine
//! bug, not an alternate optimum (optimal *objectives* are unique even when
//! optimal vertices are not).

use pm_lp::revised::{resolve_with_bounds, Basis, BoundsOverlay};
use pm_lp::{LpError, LpProblem, Objective, Relation, SolverKind, VarId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TOL: f64 = 1e-6;

/// Both engines on one problem: statuses must match, objectives must agree
/// within `TOL`, and each returned point must be feasible for the model.
fn assert_engines_agree(lp: &LpProblem) -> Result<(), TestCaseError> {
    let dense = lp.solve_with(SolverKind::Dense);
    let revised = lp.solve_with(SolverKind::Revised);
    match (&dense, &revised) {
        (Ok(d), Ok(r)) => {
            prop_assert!(
                (d.objective - r.objective).abs() <= TOL * (1.0 + d.objective.abs()),
                "objectives disagree: dense {} vs revised {}",
                d.objective,
                r.objective
            );
            prop_assert!(lp.is_feasible(d.values(), TOL), "dense point infeasible");
            prop_assert!(lp.is_feasible(r.values(), TOL), "revised point infeasible");
        }
        (Err(de), Err(re)) => {
            prop_assert_eq!(de, re);
        }
        _ => {
            prop_assert!(
                false,
                "status mismatch: dense {:?} vs revised {:?}",
                dense,
                revised
            );
        }
    }
    Ok(())
}

/// A random LP over box-bounded variables plus general `Le`/`Ge`/`Eq` rows.
/// The box keeps it bounded; feasibility is not guaranteed, which is the
/// point — infeasible instances must be flagged identically by both engines.
fn random_lp(num_vars: usize, num_cons: usize, seed: u64) -> LpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lp = LpProblem::new(if rng.gen_bool(0.5) {
        Objective::Maximize
    } else {
        Objective::Minimize
    });
    let vars: Vec<VarId> = (0..num_vars)
        .map(|i| lp.add_var(&format!("x{i}")))
        .collect();
    for &v in &vars {
        lp.set_objective_coeff(v, rng.gen_range(-3.0..3.0));
        lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..5.0));
    }
    for _ in 0..num_cons {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &v in &vars {
            if rng.gen_bool(0.6) {
                terms.push((v, rng.gen_range(-2.0..2.0)));
            }
        }
        if terms.is_empty() {
            continue;
        }
        let relation = match rng.gen_range(0..3) {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let rhs = rng.gen_range(-2.0..4.0);
        lp.add_constraint(terms, relation, rhs);
    }
    lp
}

/// The revised engine's walk down a warm chain: solve cold, then repeatedly
/// re-solve under the overlays (masked-style zero-fixes plus RHS
/// overrides), feeding each accepted basis forward as the next hint.
/// Returns the status or objective at every step.
fn revised_warm_chain(lp: &LpProblem, overlays: &[BoundsOverlay]) -> Vec<Result<f64, LpError>> {
    let mut out = Vec::with_capacity(overlays.len() + 1);
    let mut hint: Option<Basis> = None;
    let base = BoundsOverlay::default();
    for overlay in std::iter::once(&base).chain(overlays) {
        match resolve_with_bounds(lp, overlay, hint.as_ref()) {
            Ok(o) => {
                out.push(Ok(o.solution.objective));
                hint = Some(o.basis);
            }
            Err(e) => out.push(Err(e)),
        }
    }
    out
}

/// The dense oracle on the same chain: every overlay is materialized into
/// a fresh copy of the problem and solved cold.
fn dense_chain(lp: &LpProblem, overlays: &[BoundsOverlay]) -> Vec<Result<f64, LpError>> {
    let base = BoundsOverlay::default();
    std::iter::once(&base)
        .chain(overlays)
        .map(|overlay| {
            let mut materialized = lp.clone();
            for &v in &overlay.fix_zero {
                materialized.fix_var(v);
            }
            for &(row, rhs) in &overlay.rhs {
                materialized.set_rhs(row, rhs);
            }
            materialized
                .solve_with(SolverKind::Dense)
                .map(|s| s.objective)
        })
        .collect()
}

fn random_overlays(lp: &LpProblem, chain: usize, seed: u64) -> Vec<BoundsOverlay> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00ff_1ce0_f00d);
    let n = lp.num_vars();
    let m = lp.num_constraints();
    (0..chain)
        .map(|_| {
            let mut overlay = BoundsOverlay::default();
            for j in 0..n {
                if rng.gen_bool(0.2) {
                    overlay.fix_zero.push(VarId(j));
                }
            }
            for r in 0..m {
                if rng.gen_bool(0.25) {
                    overlay.rhs.push((r, rng.gen_range(-1.0..4.0)));
                }
            }
            overlay
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // Warm-chained overlay re-solves: each revised step warm-starts from
    // the previous basis, so the eta file's updates run on installed (not
    // self-built) bases, often after a bound repair. Statuses and
    // objectives must agree with the dense oracle at every step.
    #[test]
    fn engines_agree_along_warm_chains(
        num_vars in 2usize..7,
        num_cons in 1usize..8,
        chain in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        let overlays = random_overlays(&lp, chain, seed);
        let revised = revised_warm_chain(&lp, &overlays);
        let dense = dense_chain(&lp, &overlays);
        prop_assert_eq!(revised.len(), dense.len());
        for (step, (r, d)) in revised.iter().zip(&dense).enumerate() {
            match (r, d) {
                (Ok(ro), Ok(dobj)) => prop_assert!(
                    (ro - dobj).abs() <= TOL * (1.0 + dobj.abs()),
                    "step {}: objectives disagree: revised {} vs dense {}",
                    step, ro, dobj
                ),
                (Err(re), Err(de)) => {
                    prop_assert!(re == de, "step {}: revised {:?} vs dense {:?}", step, re, de)
                }
                _ => prop_assert!(
                    false,
                    "step {}: status mismatch: revised {:?} vs dense {:?}",
                    step, r, d
                ),
            }
        }
    }

    #[test]
    fn engines_agree_on_random_lps(
        num_vars in 1usize..7,
        num_cons in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        assert_engines_agree(&lp)?;
    }

    // The PR 1 degenerate generator: duplicated (verbatim and positively
    // scaled) constraints make the optimal vertex over-determined — exactly
    // where pivot paths diverge most between engines, while the optimum
    // must not move.
    #[test]
    fn engines_agree_on_degenerate_duplicated_lps(
        num_vars in 1usize..5,
        num_cons in 1usize..5,
        seed in 0u64..1_000_000,
        copies in 1usize..4,
    ) {
        let base = random_lp(num_vars, num_cons, seed);
        let mut degen = base.clone();
        for constraint in base.constraints().to_vec() {
            for copy in 0..copies {
                let scale = 1.0 + copy as f64;
                let terms: Vec<(VarId, f64)> = constraint
                    .terms
                    .iter()
                    .map(|&(v, c)| (v, c * scale))
                    .collect();
                degen.add_constraint(terms, constraint.relation, constraint.rhs * scale);
            }
        }
        assert_engines_agree(&degen)?;
    }

    // Dual differential test: the revised engine's duals must certify the
    // dense oracle's primal objective (strong duality against the *exact*
    // right-hand sides — the shadow-RHS perturbation must never leak into
    // the prices) and must be dual feasible (no structural column prices as
    // improving).
    #[test]
    fn revised_duals_certify_the_dense_objective(
        num_vars in 1usize..7,
        num_cons in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let lp = random_lp(num_vars, num_cons, seed);
        let (Ok(dense), Ok(revised)) =
            (lp.solve_with(SolverKind::Dense), lp.solve_with(SolverKind::Revised))
        else {
            return Ok(()); // infeasible/unbounded: no duals to check
        };
        let duals = revised.duals();
        prop_assert_eq!(duals.len(), lp.num_constraints());
        // Strong duality: Σ y_i b_i = optimal objective.
        let dual_obj: f64 = duals
            .iter()
            .zip(lp.constraints())
            .map(|(y, c)| y * c.rhs)
            .sum();
        prop_assert!(
            (dual_obj - dense.objective).abs() <= TOL * (1.0 + dense.objective.abs()),
            "strong duality violated: dual objective {} vs dense primal {}",
            dual_obj,
            dense.objective
        );
        // Dual feasibility: reduced costs have the optimal sign in the
        // problem's own sense.
        let maximize = matches!(lp.objective(), Objective::Maximize);
        for j in 0..lp.num_vars() {
            let var = VarId(j);
            let mut rc = lp.objective_coeff(var);
            for (y, c) in duals.iter().zip(lp.constraints()) {
                for &(v, a) in &c.terms {
                    if v == var {
                        rc -= y * a;
                    }
                }
            }
            if maximize {
                prop_assert!(rc <= TOL, "column {} prices as improving: rc {}", j, rc);
            } else {
                prop_assert!(rc >= -TOL, "column {} prices as improving: rc {}", j, rc);
            }
        }
    }

    // Unboundedness must be detected identically: a free variable with a
    // favourable objective coefficient and no upper bound.
    #[test]
    fn engines_agree_on_unbounded_lps(
        num_vars in 1usize..5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bad_cafe);
        let mut lp = LpProblem::new(Objective::Maximize);
        let vars: Vec<VarId> = (0..num_vars)
            .map(|i| lp.add_var(&format!("x{i}")))
            .collect();
        for &v in &vars {
            lp.set_objective_coeff(v, rng.gen_range(-1.0..1.0));
            lp.add_constraint(vec![(v, 1.0)], Relation::Le, rng.gen_range(0.5..3.0));
        }
        let free = lp.add_var("free");
        lp.set_objective_coeff(free, rng.gen_range(0.5..3.0));
        prop_assert_eq!(lp.solve_with(SolverKind::Dense), Err(LpError::Unbounded));
        prop_assert_eq!(lp.solve_with(SolverKind::Revised), Err(LpError::Unbounded));
    }
}

/// Textbook duals: max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 has the
/// unique optimal duals (0, 3/2, 1) — and a warm-started re-solve must
/// report the same prices.
#[test]
fn revised_duals_match_the_textbook_values() {
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    lp.set_objective_coeff(x, 3.0);
    lp.set_objective_coeff(y, 5.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 4.0);
    lp.add_constraint(vec![(y, 2.0)], Relation::Le, 12.0);
    lp.add_constraint(vec![(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
    let cold = pm_lp::revised::solve_with_hint(&lp, None).unwrap();
    let warm = pm_lp::revised::solve_with_hint(&lp, Some(&cold.basis)).unwrap();
    for sol in [&cold.solution, &warm.solution] {
        let duals = sol.duals();
        assert!((duals[0] - 0.0).abs() < 1e-9, "dual 0: {}", duals[0]);
        assert!((duals[1] - 1.5).abs() < 1e-9, "dual 1: {}", duals[1]);
        assert!((duals[2] - 1.0).abs() < 1e-9, "dual 2: {}", duals[2]);
    }
    // The dense oracle reports no duals — the revised engine is the dual
    // source of the workspace.
    assert!(lp.solve_with(SolverKind::Dense).unwrap().duals().is_empty());
}

/// Beale's classic cycling LP: both engines must terminate at the known
/// optimum of −0.05.
#[test]
fn engines_agree_on_beales_example() {
    let mut lp = LpProblem::new(Objective::Minimize);
    let x1 = lp.add_var("x1");
    let x2 = lp.add_var("x2");
    let x3 = lp.add_var("x3");
    let x4 = lp.add_var("x4");
    lp.set_objective_coeff(x1, -0.75);
    lp.set_objective_coeff(x2, 150.0);
    lp.set_objective_coeff(x3, -0.02);
    lp.set_objective_coeff(x4, 6.0);
    lp.add_constraint(
        vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
        Relation::Le,
        0.0,
    );
    lp.add_constraint(
        vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
        Relation::Le,
        0.0,
    );
    lp.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
    for solver in [SolverKind::Dense, SolverKind::Revised] {
        let sol = lp.solve_with(solver).expect("Beale's example must solve");
        assert!(
            (sol.objective - (-0.05)).abs() < 1e-9,
            "{solver:?}: objective {} != -0.05",
            sol.objective
        );
    }
}

/// A structured flow-shaped instance (transportation LP): the kind of
/// network matrix the multicast formulations produce.
#[test]
fn engines_agree_on_a_transportation_lp() {
    let supply = [20.0, 30.0, 25.0];
    let demand = [10.0, 25.0, 20.0, 20.0];
    let cost = [
        [2.0, 3.0, 1.0, 4.0],
        [5.0, 1.0, 3.0, 2.0],
        [2.0, 2.0, 2.0, 6.0],
    ];
    let mut lp = LpProblem::new(Objective::Minimize);
    let mut vars = vec![];
    for (i, cost_row) in cost.iter().enumerate() {
        let mut row = vec![];
        for (j, &c) in cost_row.iter().enumerate() {
            let v = lp.add_var(&format!("x{i}{j}"));
            lp.set_objective_coeff(v, c);
            row.push(v);
        }
        vars.push(row);
    }
    for (i, &s) in supply.iter().enumerate() {
        let terms = (0..4).map(|j| (vars[i][j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Le, s);
    }
    for (j, &d) in demand.iter().enumerate() {
        let terms = (0..3).map(|i| (vars[i][j], 1.0)).collect();
        lp.add_constraint(terms, Relation::Eq, d);
    }
    let dense = lp.solve_with(SolverKind::Dense).unwrap();
    let revised = lp.solve_with(SolverKind::Revised).unwrap();
    assert!((dense.objective - 120.0).abs() < 1e-6);
    assert!((revised.objective - 120.0).abs() < 1e-6);
}

/// With a lexicographic secondary objective the engines must agree not just
/// on the objective but on the *point*: the secondary makes the optimal
/// vertex unique, so the revised engine — cold or warm-started — and the
/// dense tableau land on the same values no matter how differently they
/// walk there.
#[test]
fn secondary_objective_makes_the_vertex_engine_independent() {
    // max x + y + z over x + y + z <= 2, x <= 1, z <= 1: the whole simplex
    // face x + y + z = 2 is optimal. On it the secondary 3x + 2y + z equals
    // 4 + x − z, minimized at x = 0, z = 1 → the unique canonical vertex
    // (0, 1, 1).
    let mut lp = LpProblem::new(Objective::Maximize);
    let x = lp.add_var("x");
    let y = lp.add_var("y");
    let z = lp.add_var("z");
    for v in [x, y, z] {
        lp.set_objective_coeff(v, 1.0);
    }
    lp.add_constraint(vec![(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Le, 2.0);
    lp.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
    lp.add_constraint(vec![(z, 1.0)], Relation::Le, 1.0);
    lp.set_secondary_coeff(x, 3.0);
    lp.set_secondary_coeff(y, 2.0);
    lp.set_secondary_coeff(z, 1.0);
    let dense = lp.solve_with(SolverKind::Dense).unwrap();
    let cold = pm_lp::revised::solve_with_hint(&lp, None).unwrap();
    let warm = pm_lp::revised::solve_with_hint(&lp, Some(&cold.basis)).unwrap();
    assert!((dense.objective - 2.0).abs() < TOL);
    for revised in [&cold.solution, &warm.solution] {
        assert!((revised.objective - 2.0).abs() < TOL);
        for (a, b) in dense.values().iter().zip(revised.values()) {
            assert!(
                (a - b).abs() < TOL,
                "vertices differ: dense {:?} vs revised {:?}",
                dense.values(),
                revised.values()
            );
        }
    }
    assert!((dense.value(x)).abs() < TOL);
    assert!((dense.value(y) - 1.0).abs() < TOL);
    assert!((dense.value(z) - 1.0).abs() < TOL);
}
