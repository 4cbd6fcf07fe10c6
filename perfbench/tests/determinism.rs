//! Every workload, at its small size, twice in one process: equal work
//! digests, every op passing, and a traced run that computes the same
//! outputs and reports every per-layer metric.

use perfbench::{run, Mode, Size, END_TO_END, PER_LAYER, WORKLOADS};
use pm_serve::Json;

#[test]
fn small_runs_repeat_their_digest_and_pass_every_op() {
    for name in WORKLOADS {
        let a = run(name, 7, 0.0, Mode::Untraced, Size::Small).expect("known workload");
        let b = run(name, 7, 0.0, Mode::Untraced, Size::Small).expect("known workload");
        assert_eq!(a.digest, b.digest, "{name}: digest differs between runs");
        assert!(
            a.correct && a.failed == 0,
            "{name}: {} ops failed",
            a.failed
        );
        assert_eq!(a.metric("ok_frac"), Some(1.0), "{name}");
        assert_eq!(
            a.metric("period_ratio_lb").map(f64::to_bits),
            b.metric("period_ratio_lb").map(f64::to_bits),
            "{name}: period_ratio_lb differs between runs"
        );
        let names: Vec<&str> = a.metrics.iter().map(|(n, _, _)| *n).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, expected, "{name}");
        let other = run(name, 8, 0.0, Mode::Untraced, Size::Small).expect("known workload");
        assert_ne!(
            a.digest, other.digest,
            "{name}: the seed does not reach the inputs"
        );
    }
}

#[test]
fn traced_runs_match_untraced_outputs_and_repeat_their_counters() {
    for name in WORKLOADS {
        let a = run(name, 7, 0.0, Mode::Traced, Size::Small).expect("known workload");
        let b = run(name, 7, 0.0, Mode::Traced, Size::Small).expect("known workload");
        assert!(a.correct, "{name}: traced run failed or changed outputs");
        let file = perfbench::harness::results_dir().join(format!("trace-{name}-seed7.json"));
        let text = std::fs::read_to_string(&file).expect("the traced run writes its span file");
        let spans = Json::parse(&text).expect("the span file parses");
        assert!(
            spans
                .get("spans")
                .and_then(Json::as_arr)
                .is_some_and(|s| !s.is_empty()),
            "{name}: no spans in {}",
            file.display()
        );
        assert_eq!(a.digest, b.digest, "{name}");
        assert_eq!(a.metrics.len(), PER_LAYER.len(), "{name}");
        for ((n, va, _), (_, vb, _)) in a.metrics.iter().zip(&b.metrics) {
            assert!(va.is_finite(), "{name}: {n} = {va}");
            if PER_LAYER.iter().any(|(m, u, _)| m == n && *u == "count") {
                assert_eq!(va, vb, "{name}: count {n} differs between runs");
            }
        }
    }
}

#[test]
fn peak_rss_excludes_what_ran_before() {
    // 96 MB of small heap blocks, freed, stand in for an earlier, bigger
    // workload. The small blocks kept between them pin the heap, so the
    // allocator does not hand the freed pages back on its own.
    let mut blocks: Vec<Vec<u8>> = Vec::new();
    let mut pins: Vec<Box<u64>> = Vec::new();
    for i in 0..1536u64 {
        blocks.push(vec![1u8; 64 << 10]);
        pins.push(Box::new(i));
    }
    assert!(blocks.iter().all(|b| b[4096] == 1));
    drop(blocks);
    let later = run("fig11-realize", 7, 0.0, Mode::Untraced, Size::Small).expect("known workload");
    let peak = later.metric("peak_rss_mb").expect("reported");
    assert!(
        peak < 64.0,
        "peak_rss_mb {peak} includes the earlier allocation"
    );
    assert_eq!(pins.len(), 1536);
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} is a list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let own = |table: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), own(&END_TO_END));
    assert_eq!(list("per_layer"), own(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _, _)| n).collect();
    assert_eq!(workloads, WORKLOADS.to_vec());
}
