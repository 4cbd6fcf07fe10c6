//! `perfbench`: the end-to-end and per-layer benchmark of the
//! pipelined-multicast workspace.
//!
//! Four seeded closed-loop workloads (see `README.md` in this directory)
//! drive the crates' public APIs from one process. An untraced run reports
//! the end-to-end metrics; a traced run wraps every call the benchmark makes
//! into a crate in a span and reports per-layer times and counters.

pub mod drift;
pub mod fig11;
pub mod harness;
pub mod layers;
pub mod multi;
pub mod serve;
pub mod stats;
pub mod sys;
pub mod trace;

pub use harness::{run, Mode, Outcome, Size};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "fig11-realize",
    "paper-drift",
    "serve-closed-loop",
    "multi-k8",
];

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// Seed held out for confirming a later claim: never used while tuning a
/// change, only to re-check its result.
pub const HELD_OUT_SEED: u64 = 20_041_015;

/// End-to-end metrics: name, unit, direction.
pub const END_TO_END: [(&str, &str, &str); 8] = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("ok_frac", "frac", "higher"),
    ("period_ratio_lb", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics of the traced run: name, unit, direction. A workload
/// that bypasses a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str, &str); 70] = [
    ("platform.generate_ms", "ms", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.warm_hits", "count", "higher"),
    ("lp.warm_misses", "count", "lower"),
    ("lp.phase1_pivots", "count", "lower"),
    ("lp.phase2_pivots", "count", "lower"),
    ("lp.refactorizations", "count", "lower"),
    ("lp.degraded_solves", "count", "lower"),
    ("lp.pivots_per_solve", "count", "lower"),
    ("heuristics.scatter.ms", "ms", "lower"),
    ("heuristics.scatter.lp_solves", "count", "lower"),
    ("heuristics.lower_bound.ms", "ms", "lower"),
    ("heuristics.lower_bound.lp_solves", "count", "lower"),
    ("heuristics.broadcast.ms", "ms", "lower"),
    ("heuristics.broadcast.lp_solves", "count", "lower"),
    ("heuristics.mcph.ms", "ms", "lower"),
    ("heuristics.mcph.lp_solves", "count", "lower"),
    ("heuristics.augmented_multicast.ms", "ms", "lower"),
    ("heuristics.augmented_multicast.lp_solves", "count", "lower"),
    ("heuristics.reduced_broadcast.ms", "ms", "lower"),
    ("heuristics.reduced_broadcast.lp_solves", "count", "lower"),
    ("heuristics.multisource_multicast.ms", "ms", "lower"),
    (
        "heuristics.multisource_multicast.lp_solves",
        "count",
        "lower",
    ),
    ("realize.ms", "ms", "lower"),
    ("realize.decompose_ms", "ms", "lower"),
    ("realize.pack_ms", "ms", "lower"),
    ("sched.color_ms", "ms", "lower"),
    ("sched.validate_ms", "ms", "lower"),
    ("sim.replay_ms", "ms", "lower"),
    ("realize.trees", "count", "lower"),
    ("realize.pack_lp_solves", "count", "lower"),
    ("sim.one_port_violations", "count", "lower"),
    ("session.drift_ms", "ms", "lower"),
    ("session.journal_len", "count", "lower"),
    ("session.node_events", "count", "lower"),
    ("session.edge_edits", "count", "lower"),
    ("multi.solve_ms", "ms", "lower"),
    ("multi.realize_ms", "ms", "lower"),
    ("multi.color_ms", "ms", "lower"),
    ("multi.certify_ms", "ms", "lower"),
    ("multi.lp_solves", "count", "lower"),
    ("multi.pivots", "count", "lower"),
    ("multi.trees", "count", "lower"),
    ("serve.parse_ms", "ms", "lower"),
    ("serve.emit_ms", "ms", "lower"),
    ("serve.call_ms.set_edge_cost", "ms", "lower"),
    ("serve.call_ms.disable_node", "ms", "lower"),
    ("serve.call_ms.enable_node", "ms", "lower"),
    ("serve.call_ms.solve", "ms", "lower"),
    ("serve.call_ms.re_realize", "ms", "lower"),
    ("serve.call_ms.query_schedule", "ms", "lower"),
    ("serve.coalescing_ratio", "ratio", "higher"),
    ("serve.flushes", "count", "lower"),
    ("serve.template_hit_ratio", "frac", "higher"),
    ("serve.cache_hit_ratio", "frac", "higher"),
    ("serve.cache_evictions", "count", "lower"),
    ("serve.compactions", "count", "lower"),
    ("serve.warm_hit_ratio", "frac", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.op_p99_ms", "ms", "lower"),
    ("self_ms.bench", "ms", "lower"),
    ("self_ms.platform", "ms", "lower"),
    ("self_ms.heuristics", "ms", "lower"),
    ("self_ms.realize", "ms", "lower"),
    ("self_ms.replay", "ms", "lower"),
    ("self_ms.session", "ms", "lower"),
    ("self_ms.multi", "ms", "lower"),
    ("self_ms.serve", "ms", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.replay_frac", "frac", "lower"),
];

/// Unit of a per-layer or end-to-end metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, _)| *u)
        .unwrap_or("count")
}

/// SplitMix64 of a seed and two indices: independent, reproducible
/// sub-seeds for every generated input.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(b.wrapping_mul(0xd1b5_4a32_d192_ed03))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
