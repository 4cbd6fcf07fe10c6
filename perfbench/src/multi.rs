//! `multi-k8`: fresh k = 8 commodity sets on reduced-scale Small
//! platforms, uniform and 4:1 rate skews. One op is a joint solve plus a
//! super-period realization on a new `Session`.

use pm_core::multi::{Commodity, MultiRealization};
use pm_core::session::Session;
use pm_platform::instances::MulticastInstance;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use pm_sched::schedule::PeriodicSchedule;
use pm_sim::simulator::{CommodityLane, SimulationConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use crate::harness::{PassLog, Size, Workload};
use crate::layers::note_lp;
use crate::stats::Sample;
use crate::trace::Tracer;

const K: usize = 8;

/// Rate skews: op class and commodity 0's demand (the others demand 1).
const SKEWS: [(&str, f64); 2] = [("uniform", 1.0), ("four_to_one", 4.0)];

/// A simulated rate may fall short of its LP rate by at most this much.
const RATE_SLACK: f64 = 1e-6;

pub struct Multi {
    platforms: usize,
    /// Commodity sets per platform and skew.
    sets: usize,
    warmups: usize,
    min_ops: usize,
}

pub struct Item {
    base: MulticastInstance,
    commodities: Vec<Commodity>,
    class: &'static str,
}

impl Multi {
    pub fn new(size: Size) -> Multi {
        match size {
            Size::Full => Multi {
                platforms: 320,
                sets: 1,
                warmups: 16,
                min_ops: crate::stats::MIN_OPS_FOR_P90,
            },
            Size::Small => Multi {
                platforms: 1,
                sets: 1,
                warmups: 1,
                min_ops: 1,
            },
        }
    }
}

fn run_item(item: &Item, tr: &mut Tracer, log: &mut PassLog) -> bool {
    let mut session = Session::new(item.base.clone());
    let span = tr.open("multi.solve");
    let solved = session.solve_multi(&item.commodities);
    tr.close(span);
    let Ok(solved) = solved else { return false };
    note_lp(tr, &mut log.digest, &solved.stats);
    tr.count("multi.lp_solves", solved.stats.lp_solves as f64);
    tr.count(
        "multi.pivots",
        (solved.stats.phase1_pivots + solved.stats.phase2_pivots) as f64,
    );
    let span = tr.open("multi.realize");
    let re = session.re_realize_multi();
    tr.close(span);
    let Ok(re) = re else { return false };
    note_lp(tr, &mut log.digest, &re.stats);
    tr.count("multi.lp_solves", re.stats.lp_solves as f64);
    let r = &re.realization;
    let trees: usize = r.tree_sets.iter().map(|s| s.trees().len()).sum();
    tr.count("multi.trees", trees as f64);
    tr.count(
        "sim.one_port_violations",
        r.simulated.one_port_violations as f64,
    );
    log.digest.f64(solved.flow.period);
    log.digest.f64(r.super_period);
    log.digest.u64(trees as u64);
    for rate in &r.simulated_rates {
        log.digest.f64(*rate);
    }
    log.ratios.push(r.super_period / solved.flow.period);
    if tr.enabled() {
        replay_stages(&session, item, r, tr);
    }
    r.simulated.one_port_violations == 0
        && r.commodity_reports
            .iter()
            .all(|report| report.one_port_violations == 0)
        && r.simulated_rates.len() == solved.flow.rates.len()
        && r.simulated_rates
            .iter()
            .zip(&solved.flow.rates)
            .all(|(&sim, &lp)| sim >= lp - RATE_SLACK)
}

/// Re-invokes the shared coloring and the per-commodity certification on
/// the realization's own inputs.
fn replay_stages(session: &Session, item: &Item, r: &MultiRealization, tr: &mut Tracer) {
    let platform = &session.instance().platform;
    let groups: Vec<_> = r.tree_sets.iter().collect();
    let span = tr.open("replay.multi_color");
    let _ = std::hint::black_box(PeriodicSchedule::from_weighted_tree_groups(
        platform,
        &groups,
        r.super_period,
    ));
    tr.close(span);
    let lanes: Vec<CommodityLane> = item
        .commodities
        .iter()
        .zip(&r.tag_ranges)
        .map(|(c, &(start, end))| CommodityLane {
            tags: start..end,
            multicasts_per_period: c.demand,
            targets: c.targets.clone(),
        })
        .collect();
    let span = tr.open("replay.multi_certify");
    let _ = std::hint::black_box(
        Simulator::new(SimulationConfig::default()).verify_commodity_rates(
            platform,
            &r.schedule,
            &lanes,
        ),
    );
    tr.close(span);
}

impl Workload for Multi {
    type State = Vec<Item>;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Vec<Item> {
        let mut items = Vec::with_capacity(self.platforms * SKEWS.len() * self.sets);
        for p in 0..self.platforms {
            let span = tr.open("platform.generate");
            let topology = TiersLikeGenerator::reduced_scale(
                PlatformClass::Small,
                crate::mix(seed, 44, p as u64),
            )
            .generate();
            for (si, &(class, heavy)) in SKEWS.iter().enumerate() {
                for s in 0..self.sets {
                    let mut rng = StdRng::seed_from_u64(crate::mix(
                        seed,
                        p as u64,
                        (si * self.sets + s) as u64,
                    ));
                    let instances: Vec<MulticastInstance> = (0..K)
                        .map(|_| topology.sample_instance(0.5, &mut rng))
                        .collect();
                    let commodities = instances
                        .iter()
                        .enumerate()
                        .map(|(c, instance)| Commodity {
                            source: instance.source,
                            targets: instance.targets.clone(),
                            demand: if c == 0 { heavy } else { 1.0 },
                        })
                        .collect();
                    items.push(Item {
                        base: instances.into_iter().next().expect("k >= 1"),
                        commodities,
                        class,
                    });
                }
            }
            tr.close(span);
        }
        let mut off = Tracer::new(false);
        let mut scratch = PassLog::default();
        for item in items.iter().take(self.warmups) {
            run_item(item, &mut off, &mut scratch);
        }
        items
    }

    fn pass(&self, items: &mut Vec<Item>, tr: &mut Tracer, log: &mut PassLog) {
        for item in items.iter() {
            let op = tr.begin_op(log.next_op());
            let t = Instant::now();
            let ok = run_item(item, tr, log);
            let ns = t.elapsed().as_nanos() as u64;
            tr.close(op);
            log.samples.push(Sample {
                class: item.class,
                ns,
                ok,
            });
        }
    }

    fn min_ops(&self) -> usize {
        self.min_ops
    }
}
