//! `paper-drift`: long-lived `Session`s on paper-scale platforms under a
//! seeded drift trace. One op is one drift event followed by every kind's
//! warm re-solve and re-realization.

use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_platform::graph::{EdgeId, NodeId};
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use crate::harness::{PassLog, Size, Workload};
use crate::layers;
use crate::stats::Sample;
use crate::trace::Tracer;

/// Kinds re-solved after every event, `Multicast-LB` first so the others'
/// ratios divide by the bound of the same platform state. Broadcast is
/// left out: after a re-enable its LP falls back to phase 1 at ~100× the
/// cost of a warm op, on some platforms and not others, so a 10-second
/// run's throughput would hinge on which platforms the seed drew.
const KINDS: [HeuristicKind; 3] = [
    HeuristicKind::LowerBound,
    HeuristicKind::Scatter,
    HeuristicKind::Mcph,
];

/// Edge costs walk multiplicatively inside this clamp.
const COST_CLAMP: (f64, f64) = (0.05, 50.0);

/// Events per session per pass. Node events sit at fixed slots and
/// alternate disable, enable, so every pass is 70% edge walks and 30%
/// node churn, with the same number of re-enables (the events most likely
/// to send an LP back to phase 1) on every seed.
const BLOCK: u64 = 20;
const NODE_SLOTS: [u64; 6] = [2, 5, 8, 12, 15, 18];

pub struct Drift {
    sessions: usize,
    /// Events per session per pass.
    events: u64,
    min_ops: usize,
}

pub struct Tenant {
    session: Session,
    rng: StdRng,
    disabled: Vec<NodeId>,
    event: u64,
    node_event: u64,
}

impl Drift {
    pub fn new(size: Size) -> Drift {
        match size {
            Size::Full => Drift {
                sessions: 48,
                events: BLOCK,
                min_ops: crate::stats::MIN_OPS_FOR_P90,
            },
            Size::Small => Drift {
                sessions: 1,
                events: 4,
                min_ops: 1,
            },
        }
    }
}

/// A node whose removal keeps every other active node reachable from the
/// source (so every kind stays solvable).
fn disable_candidate(session: &Session, rng: &mut StdRng) -> Option<NodeId> {
    let instance = session.instance();
    let mask = session.mask();
    let eligible: Vec<NodeId> = mask
        .iter()
        .filter(|&v| v != instance.source && !instance.is_target(v))
        .filter(|&v| {
            let candidate = mask.without(v);
            let seen = candidate.reachable_from(&instance.platform, instance.source);
            candidate.to_nodes().into_iter().all(|u| seen[u.index()])
        })
        .collect();
    if eligible.is_empty() {
        None
    } else {
        Some(eligible[rng.gen_range(0..eligible.len())])
    }
}

/// Applies the tenant's next event and returns its op class. A node event
/// that cannot apply (no safe node to disable, nothing to re-enable)
/// becomes an edge walk.
fn apply_event(t: &mut Tenant, tr: &mut Tracer, log: &mut PassLog) -> &'static str {
    let slot = t.event % BLOCK;
    t.event += 1;
    let span = tr.open("session.drift");
    let mut class = None;
    if NODE_SLOTS.contains(&slot) {
        let enable = t.node_event % 2 == 1;
        t.node_event += 1;
        if enable && !t.disabled.is_empty() {
            let node = t.disabled.remove(t.rng.gen_range(0..t.disabled.len()));
            t.session.enable_node(node).expect("a disabled node exists");
            log.digest.u64(1_000_000 + node.0 as u64);
            class = Some("enable_node");
        } else if !enable {
            if let Some(node) = disable_candidate(&t.session, &mut t.rng) {
                t.session
                    .disable_node(node)
                    .expect("the candidate is neither source nor target");
                t.disabled.push(node);
                log.digest.u64(2_000_000 + node.0 as u64);
                class = Some("disable_node");
            }
        }
    }
    if class.is_none() {
        let platform = &t.session.instance().platform;
        let edge = EdgeId(t.rng.gen_range(0..platform.edge_count()) as u32);
        let factor: f64 = t.rng.gen_range(0.7..1.4);
        let cost = (platform.cost(edge) * factor).clamp(COST_CLAMP.0, COST_CLAMP.1);
        t.session
            .set_edge_cost(edge, cost)
            .expect("edge exists and cost is positive");
        log.digest.u64(edge.0 as u64);
        log.digest.f64(cost);
    }
    tr.close(span);
    class.unwrap_or("edge_walk")
}

impl Workload for Drift {
    type State = Vec<Tenant>;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Vec<Tenant> {
        (0..self.sessions)
            .map(|i| {
                let span = tr.open("platform.generate");
                let topology = TiersLikeGenerator::paper_scale(
                    PlatformClass::Small,
                    crate::mix(seed, 22, i as u64),
                )
                .generate();
                let mut rng = StdRng::seed_from_u64(crate::mix(seed, 23, i as u64));
                let instance = topology.sample_instance(0.5, &mut rng);
                tr.close(span);
                // Cold solves and realizations: the baselines every later
                // op warm-starts from.
                let mut session = Session::new(instance);
                let mut off = Tracer::new(false);
                let mut scratch = PassLog::default();
                for kind in KINDS {
                    layers::solve(&mut session, kind, &mut off, &mut scratch.digest)
                        .expect("cold solve on a generated platform");
                    layers::realize(&mut session, kind, false, &mut off, &mut scratch.digest)
                        .expect("cold realization on a generated platform");
                }
                Tenant {
                    session,
                    rng,
                    disabled: Vec::new(),
                    event: 0,
                    node_event: 0,
                }
            })
            .collect()
    }

    fn pass(&self, tenants: &mut Vec<Tenant>, tr: &mut Tracer, log: &mut PassLog) {
        // Tenant by tenant: one tenant's burst of events runs back to back,
        // as a drifting platform's updates would.
        for t in tenants.iter_mut() {
            for _ in 0..self.events {
                let op = tr.begin_op(log.next_op());
                let start = Instant::now();
                let class = apply_event(t, tr, log);
                let mut ok = true;
                let mut lower_bound = f64::NAN;
                for kind in KINDS {
                    let Some(solved) = layers::solve(&mut t.session, kind, tr, &mut log.digest)
                    else {
                        ok = false;
                        continue;
                    };
                    let period = solved.result.period;
                    if kind == HeuristicKind::LowerBound {
                        lower_bound = period;
                    } else {
                        log.ratios.push(period / lower_bound);
                    }
                    // Multicast-LB is a bound, not always a schedule: its
                    // realization may certify less than it claims.
                    let check_gap = kind != HeuristicKind::LowerBound;
                    ok &= period.is_finite()
                        && layers::realize(&mut t.session, kind, check_gap, tr, &mut log.digest)
                            == Some(true);
                }
                let ns = start.elapsed().as_nanos() as u64;
                tr.close(op);
                log.samples.push(Sample { class, ns, ok });
            }
        }
    }

    fn min_ops(&self) -> usize {
        self.min_ops
    }

    fn finish_trace(&self, tenants: &Vec<Tenant>, tr: &mut Tracer) {
        for t in tenants {
            let stats = t.session.stats();
            tr.count("session.journal_len", t.session.journal().len() as f64);
            tr.count("session.node_events", stats.node_events as f64);
            tr.count("session.edge_edits", stats.edge_edits as f64);
        }
    }
}
