//! `fig11-realize`: the paper's Figure 11 experiment on reduced-scale Small
//! platforms. One op runs one instance's five heuristics through a fresh
//! `Session`, each solved with steady-state capture and then realized.

use pm_core::report::HeuristicKind;
use pm_core::session::Session;
use pm_platform::instances::MulticastInstance;
use pm_platform::topology::{PlatformClass, TiersLikeGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

use crate::harness::{PassLog, Size, Workload};
use crate::layers;
use crate::stats::Sample;
use crate::trace::Tracer;

/// Target densities of the Figure 11 grid, with their op-class names.
const DENSITIES: [(f64, &str); 4] = [
    (0.25, "density_0.25"),
    (0.5, "density_0.5"),
    (0.75, "density_0.75"),
    (1.0, "density_1.0"),
];

/// The five heuristics Figure 11 ranks.
const KINDS: [HeuristicKind; 5] = [
    HeuristicKind::Broadcast,
    HeuristicKind::Mcph,
    HeuristicKind::AugmentedMulticast,
    HeuristicKind::ReducedBroadcast,
    HeuristicKind::MultisourceMulticast,
];

pub struct Fig11 {
    /// Platforms, and so instances, per seed.
    platforms: usize,
    /// Untimed ops run during set-up.
    warmups: usize,
    min_ops: usize,
}

pub struct Item {
    instance: MulticastInstance,
    class: &'static str,
    /// The `Multicast-LB` period Figure 11 divides by.
    lower_bound: f64,
}

impl Fig11 {
    pub fn new(size: Size) -> Fig11 {
        match size {
            Size::Full => Fig11 {
                platforms: 208,
                warmups: DENSITIES.len(),
                min_ops: crate::stats::MIN_OPS_FOR_P90,
            },
            Size::Small => Fig11 {
                platforms: DENSITIES.len(),
                warmups: 1,
                min_ops: 1,
            },
        }
    }
}

/// Runs one instance's five heuristics; returns whether every one passed.
fn run_instance(item: &Item, tr: &mut Tracer, log: &mut PassLog) -> bool {
    let mut session = Session::new(item.instance.clone());
    let mut ok = true;
    for kind in KINDS {
        let Some(solved) = layers::solve(&mut session, kind, tr, &mut log.digest) else {
            ok = false;
            continue;
        };
        let period = solved.result.period;
        ok &= period.is_finite();
        log.ratios.push(period / item.lower_bound);
        ok &= layers::realize(&mut session, kind, true, tr, &mut log.digest) == Some(true);
    }
    ok
}

impl Workload for Fig11 {
    type State = Vec<Item>;

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Vec<Item> {
        let mut items = Vec::with_capacity(self.platforms);
        for p in 0..self.platforms {
            let span = tr.open("platform.generate");
            let topology = TiersLikeGenerator::reduced_scale(
                PlatformClass::Small,
                crate::mix(seed, 11, p as u64),
            )
            .generate();
            // Platforms cycle through the densities: one instance each, so
            // every instance has a platform of its own.
            let di = p % DENSITIES.len();
            let (density, class) = DENSITIES[di];
            let mut rng = StdRng::seed_from_u64(crate::mix(seed, p as u64, di as u64));
            let instance = topology.sample_instance(density, &mut rng);
            tr.close(span);
            // The two reference curves of Figure 11.
            let mut reference = Session::new(instance.clone());
            let lower_bound = reference
                .solve(HeuristicKind::LowerBound)
                .expect("Multicast-LB solves on a generated platform")
                .result
                .period;
            reference
                .solve(HeuristicKind::Scatter)
                .expect("scatter solves on a generated platform");
            items.push(Item {
                instance,
                class,
                lower_bound,
            });
        }
        let mut off = Tracer::new(false);
        let mut scratch = PassLog::default();
        for item in items.iter().take(self.warmups) {
            run_instance(item, &mut off, &mut scratch);
        }
        items
    }

    fn pass(&self, items: &mut Vec<Item>, tr: &mut Tracer, log: &mut PassLog) {
        for item in items.iter() {
            let op = tr.begin_op(log.next_op());
            let t = Instant::now();
            let ok = run_instance(item, tr, log);
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
