//! Traced wrappers around the single-commodity session calls shared by the
//! fig11-realize and paper-drift workloads, and the stage replays that
//! time each realization stage from outside.

use pm_core::heuristics::RunOptions;
use pm_core::realize::{Realization, SteadyStateSolution};
use pm_core::report::HeuristicKind;
use pm_core::session::{Session, SessionOpStats, SessionSolve};
use pm_sched::schedule::PeriodicSchedule;
use pm_sched::tree::WeightedTreeSet;
use pm_sim::simulator::{SimulationConfig, Simulator};

use crate::stats::Digest;
use crate::trace::Tracer;

/// Largest realization gap a certified schedule may show.
pub const GAP_TOL: f64 = 1e-6;

/// Span name of `Session::solve_with` for a kind.
fn solve_span(kind: HeuristicKind) -> &'static str {
    match kind {
        HeuristicKind::Scatter => "heuristics.scatter",
        HeuristicKind::LowerBound => "heuristics.lower_bound",
        HeuristicKind::Broadcast => "heuristics.broadcast",
        HeuristicKind::Mcph => "heuristics.mcph",
        HeuristicKind::AugmentedMulticast => "heuristics.augmented_multicast",
        HeuristicKind::ReducedBroadcast => "heuristics.reduced_broadcast",
        HeuristicKind::MultisourceMulticast => "heuristics.multisource_multicast",
    }
}

fn lp_solves_counter(kind: HeuristicKind) -> &'static str {
    match kind {
        HeuristicKind::Scatter => "heuristics.scatter.lp_solves",
        HeuristicKind::LowerBound => "heuristics.lower_bound.lp_solves",
        HeuristicKind::Broadcast => "heuristics.broadcast.lp_solves",
        HeuristicKind::Mcph => "heuristics.mcph.lp_solves",
        HeuristicKind::AugmentedMulticast => "heuristics.augmented_multicast.lp_solves",
        HeuristicKind::ReducedBroadcast => "heuristics.reduced_broadcast.lp_solves",
        HeuristicKind::MultisourceMulticast => "heuristics.multisource_multicast.lp_solves",
    }
}

/// Counts an operation's LP work into the `lp.*` counters and the digest.
pub fn note_lp(tr: &mut Tracer, digest: &mut Digest, op: &SessionOpStats) {
    let fields = [
        ("lp.solves", op.lp_solves),
        ("lp.warm_hits", op.warm_hits),
        ("lp.warm_misses", op.warm_misses),
        ("lp.phase1_pivots", op.phase1_pivots),
        ("lp.phase2_pivots", op.phase2_pivots),
        ("lp.refactorizations", op.refactorizations),
        ("lp.degraded_solves", op.degraded_solves),
    ];
    for (name, v) in fields {
        tr.count(name, v as f64);
        digest.u64(v);
    }
}

/// `Session::solve_with` (steady state captured) inside its span.
pub fn solve(
    session: &mut Session,
    kind: HeuristicKind,
    tr: &mut Tracer,
    digest: &mut Digest,
) -> Option<SessionSolve> {
    let options = RunOptions {
        capture_steady_state: true,
        ..RunOptions::default()
    };
    let span = tr.open(solve_span(kind));
    let solved = session.solve_with(kind, options);
    tr.close(span);
    let solved = solved.ok()?;
    note_lp(tr, digest, &solved.stats);
    tr.count(lp_solves_counter(kind), solved.stats.lp_solves as f64);
    digest.f64(solved.result.period);
    Some(solved)
}

/// `Session::re_realize` inside its span, with the stage replays when
/// tracing. Returns `None` when it fails, else whether it passed the check: zero
/// one-port violations and, when `check_gap`, a gap of at most
/// [`GAP_TOL`].
pub fn realize(
    session: &mut Session,
    kind: HeuristicKind,
    check_gap: bool,
    tr: &mut Tracer,
    digest: &mut Digest,
) -> Option<bool> {
    let span = tr.open("realize");
    let re = session.re_realize(kind);
    tr.close(span);
    let re = re.ok()?;
    let r = &re.realization;
    note_lp(tr, digest, &re.stats);
    tr.count("realize.pack_lp_solves", re.stats.lp_solves as f64);
    tr.count("realize.trees", r.tree_set.len() as f64);
    tr.count(
        "sim.one_port_violations",
        r.simulated.one_port_violations as f64,
    );
    digest.u64(r.tree_set.len() as u64);
    digest.f64(r.achieved_period);
    digest.f64(r.simulated.throughput);
    digest.u64(r.simulated.one_port_violations as u64);
    let ok = r.simulated.one_port_violations == 0
        && r.achieved_period.is_finite()
        && (!check_gap || r.realization_gap <= GAP_TOL);
    if tr.enabled() {
        replay_stages(session, kind, r, tr);
    }
    Some(ok)
}

/// Re-invokes each realization stage's public entry point on the
/// realization's own inputs, one span per stage.
fn replay_stages(session: &Session, kind: HeuristicKind, r: &Realization, tr: &mut Tracer) {
    let instance = session.instance();
    let platform = &instance.platform;
    if let Some(SteadyStateSolution::TargetFlows { target_flows, .. }) = session
        .solution_for(kind)
        .and_then(|s| s.steady_state.as_ref())
    {
        let span = tr.open("replay.decompose");
        let _ = std::hint::black_box(WeightedTreeSet::from_flows(instance, target_flows));
        tr.close(span);
    }
    let span = tr.open("replay.pack");
    let _ = std::hint::black_box(pm_core::pack_trees(platform, r.tree_set.trees()));
    tr.close(span);
    let span = tr.open("replay.color");
    let _ = std::hint::black_box(PeriodicSchedule::from_weighted_trees(
        platform,
        &r.tree_set,
        r.achieved_period,
    ));
    tr.close(span);
    let span = tr.open("replay.validate");
    let _ = std::hint::black_box(r.schedule.validate(platform));
    tr.close(span);
    let span = tr.open("replay.sim");
    let _ = std::hint::black_box(
        Simulator::new(SimulationConfig::default()).run_schedule(platform, &r.schedule),
    );
    tr.close(span);
}
