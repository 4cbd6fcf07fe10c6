//! The run loop shared by every workload: repeated set-up, the timed phase,
//! the traced run, and the metric and trace-file output.

use std::collections::BTreeMap;
use std::time::Instant;

use pm_serve::Json;

use crate::drift::Drift;
use crate::fig11::Fig11;
use crate::multi::Multi;
use crate::serve::Serve;
use crate::stats::{self, Digest, Sample};
use crate::sys;
use crate::trace::Tracer;
use crate::{unit_of, PER_LAYER};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Input size: `Full` is what the command line runs; `Small` is a
/// seconds-long size for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Small,
}

/// What a run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end metrics, tracing off.
    Untraced,
    /// Per-layer metrics from a traced run.
    Traced,
}

/// Everything one pass over a workload's op list records.
#[derive(Debug, Default)]
pub struct PassLog {
    pub samples: Vec<Sample>,
    /// `period / Multicast-LB period` (or super-period / `T*`) per returned
    /// period.
    pub ratios: Vec<f64>,
    pub digest: Digest,
    next_op: u64,
}

impl PassLog {
    /// An empty log whose op ids continue after `base`.
    pub fn starting_at(base: u64) -> PassLog {
        PassLog {
            next_op: base,
            ..PassLog::default()
        }
    }

    /// The next operation id (1-based, unique within the log).
    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Appends another log recorded in parallel (a client thread's).
    pub fn absorb(&mut self, other: PassLog) {
        self.samples.extend(other.samples);
        self.ratios.extend(other.ratios);
        self.digest.u64(other.digest.value());
    }
}

/// A benchmark workload: seeded inputs, a fixed op list, and checks.
pub trait Workload {
    type State;

    /// Generates the inputs from `seed` and performs the warm-up.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::State;

    /// Runs one pass over the op list. Stateless workloads repeat the same
    /// ops each pass; stateful ones continue their traces.
    fn pass(&self, state: &mut Self::State, tr: &mut Tracer, log: &mut PassLog);

    /// Fewest ops the timed phase must complete (so its percentiles exist).
    fn min_ops(&self) -> usize;

    /// Passes of the traced run (fixed work, so counters repeat exactly).
    fn trace_passes(&self) -> usize {
        1
    }

    /// The per-layer metric that reports this workload's op p99 (only a
    /// workload with at least 1000 ops per run has one).
    fn p99_metric(&self) -> Option<&'static str> {
        None
    }

    /// Records end-of-run gauges into the tracer after the traced passes.
    fn finish_trace(&self, _state: &Self::State, _tr: &mut Tracer) {}
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit), in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the first pass's deterministic outputs.
    pub digest: u64,
    /// Noise diagnostics and other context, not metrics.
    pub diagnostics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result object the benchmark prints last.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(n, v, u)| (n.to_string(), metric(*v, u)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The diagnostics object printed before the result.
    pub fn diagnostics_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::str(&self.workload)),
            ("digest", Json::str(&format!("{:016x}", self.digest))),
            (
                "diagnostics",
                Json::Obj(
                    self.diagnostics
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::num(*v)))
                        .collect(),
                ),
            ),
        ])
    }
}

/// One metric of a result object: `{"value": v, "unit": u}`.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::num(value)), ("unit", Json::str(unit))])
}

/// Runs one workload by name. `peak_rss_mb` counts from the start of this
/// call, so a workload run after another reports only its own peak.
pub fn run(workload: &str, seed: u64, seconds: f64, mode: Mode, size: Size) -> Option<Outcome> {
    Some(match workload {
        "fig11-realize" => drive(&Fig11::new(size), workload, seed, seconds, mode),
        "paper-drift" => drive(&Drift::new(size), workload, seed, seconds, mode),
        "serve-closed-loop" => drive(&Serve::new(size), workload, seed, seconds, mode),
        "multi-k8" => drive(&Multi::new(size), workload, seed, seconds, mode),
        _ => return None,
    })
}

fn drive<W: Workload>(w: &W, name: &str, seed: u64, seconds: f64, mode: Mode) -> Outcome {
    let host_before = (sys::reference_ms(), sys::wakeup_round_trip_us());
    sys::reset_peak_rss();
    let mut outcome = match mode {
        Mode::Untraced => untraced(w, name, seed, seconds),
        Mode::Traced => traced(w, name, seed),
    };
    // Host speed around the run: a slow host moves these with the
    // workload's metrics, a slow program does not.
    let host_after = (sys::reference_ms(), sys::wakeup_round_trip_us());
    outcome.diagnostics.extend([
        ("host_cpu_reference_ms_before".to_string(), host_before.0),
        ("host_cpu_reference_ms_after".to_string(), host_after.0),
        ("host_wakeup_us_before".to_string(), host_before.1),
        ("host_wakeup_us_after".to_string(), host_after.1),
    ]);
    outcome
}

fn untraced<W: Workload>(w: &W, name: &str, seed: u64, seconds: f64) -> Outcome {
    let mut off = Tracer::new(false);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t = Instant::now();
        state = Some(w.setup(seed, &mut off));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");

    let cpu0 = sys::process_cpu_s();
    let steal0 = sys::host_steal_s();
    let t0 = Instant::now();
    let mut log = PassLog::default();
    let mut passes = 0usize;
    let mut first_pass: Option<(u64, Vec<f64>)> = None;
    loop {
        w.pass(&mut state, &mut off, &mut log);
        passes += 1;
        if first_pass.is_none() {
            first_pass = Some((log.digest.value(), log.ratios.clone()));
        }
        if t0.elapsed().as_secs_f64() >= seconds && log.samples.len() >= w.min_ops() {
            break;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_s = sys::host_steal_s() - steal0;
    let (digest, ratios) = first_pass.expect("one pass ran");

    let n = log.samples.len() as u64;
    let failed = log.samples.iter().filter(|s| !s.ok).count() as u64;
    let p = |q| stats::percentile_ms(&log.samples, q).unwrap_or(f64::NAN);
    let metrics = vec![
        ("setup_s", stats::median(&setup_s)),
        ("ops_per_s", n as f64 / wall_s),
        ("op_p50_ms", p(0.5)),
        ("op_p90_ms", p(0.9)),
        ("cpu_ms_per_op", cpu_s * 1e3 / n as f64),
        ("ok_frac", stats::ok_fraction(&log.samples)),
        ("period_ratio_lb", stats::mean(&ratios)),
        ("peak_rss_mb", sys::peak_rss_mb()),
    ];
    let metrics: Vec<(&'static str, f64, &'static str)> = metrics
        .into_iter()
        .map(|(k, v)| (k, v, unit_of(k)))
        .collect();
    let mut diagnostics = vec![
        ("seed".to_string(), seed as f64),
        ("passes".to_string(), passes as f64),
        ("timed_wall_s".to_string(), wall_s),
        ("process_cpu_s".to_string(), cpu_s),
        ("host_steal_s".to_string(), steal_s),
        ("ratios".to_string(), ratios.len() as f64),
    ];
    for (i, s) in setup_s.iter().enumerate() {
        diagnostics.push((format!("setup_{i}_s"), *s));
    }
    if let Some(p99) = stats::percentile_ms(&log.samples, 0.99) {
        diagnostics.push(("op_p99_ms".to_string(), p99));
    }
    Outcome {
        workload: name.to_string(),
        correct: failed == 0,
        attempted: n,
        failed,
        metrics,
        digest,
        diagnostics,
    }
}

fn traced<W: Workload>(w: &W, name: &str, seed: u64) -> Outcome {
    // Reference: the same fixed work on an identical state, tracing off.
    let mut off = Tracer::new(false);
    let mut reference = w.setup(seed, &mut off);
    let mut ref_log = PassLog::default();
    let t = Instant::now();
    for _ in 0..w.trace_passes() {
        w.pass(&mut reference, &mut off, &mut ref_log);
    }
    let ref_s = t.elapsed().as_secs_f64();
    drop(reference);

    let mut tr = Tracer::new(true);
    let mut state = w.setup(seed, &mut tr);
    let mut log = PassLog::default();
    let steal0 = sys::host_steal_s();
    let cpu0 = sys::process_cpu_s();
    let t = Instant::now();
    for _ in 0..w.trace_passes() {
        w.pass(&mut state, &mut tr, &mut log);
    }
    let traced_s = t.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu0;
    let steal_s = sys::host_steal_s() - steal0;
    w.finish_trace(&state, &mut tr);
    drop(state);

    let n = log.samples.len() as u64;
    let failed = log.samples.iter().filter(|s| !s.ok).count() as u64;
    let replay_s = tr.replay_ms() / 1e3;
    let mut per_layer = layer_metrics(&tr, &log, ref_log.samples.len(), ref_s, traced_s, replay_s);
    // Op latencies of the reference pass: tracing off, as end to end.
    if let Some(name) = w.p99_metric() {
        if let Some(p99) = stats::percentile_ms(&ref_log.samples, 0.99) {
            per_layer.insert(name.to_string(), p99);
        }
    }
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(k, u, _)| (k, per_layer.get(k).copied().unwrap_or(0.0), u))
        .collect();
    // Tracing must not change what the program computes.
    let same_outputs = ref_log.digest.value() == log.digest.value();
    let diagnostics = vec![
        ("seed".to_string(), seed as f64),
        ("trace_passes".to_string(), w.trace_passes() as f64),
        ("reference_wall_s".to_string(), ref_s),
        ("traced_wall_s".to_string(), traced_s),
        ("replay_s".to_string(), replay_s),
        ("process_cpu_s".to_string(), cpu_s),
        ("host_steal_s".to_string(), steal_s),
        ("spans".to_string(), tr.spans().len() as f64),
        (
            "same_outputs_as_untraced".to_string(),
            same_outputs as u8 as f64,
        ),
    ];
    let outcome = Outcome {
        workload: name.to_string(),
        correct: failed == 0 && same_outputs,
        attempted: n,
        failed,
        metrics,
        digest: log.digest.value(),
        diagnostics,
    };
    if let Err(e) = write_trace_file(&outcome, seed, &tr, &log) {
        eprintln!("perfbench: could not write the trace file: {e}");
    }
    outcome
}

/// Span name → per-layer metric it totals.
const SPAN_METRICS: [(&str, &str); 21] = [
    ("platform.generate", "platform.generate_ms"),
    ("heuristics.scatter", "heuristics.scatter.ms"),
    ("heuristics.lower_bound", "heuristics.lower_bound.ms"),
    ("heuristics.broadcast", "heuristics.broadcast.ms"),
    ("heuristics.mcph", "heuristics.mcph.ms"),
    (
        "heuristics.augmented_multicast",
        "heuristics.augmented_multicast.ms",
    ),
    (
        "heuristics.reduced_broadcast",
        "heuristics.reduced_broadcast.ms",
    ),
    (
        "heuristics.multisource_multicast",
        "heuristics.multisource_multicast.ms",
    ),
    ("realize", "realize.ms"),
    ("replay.decompose", "realize.decompose_ms"),
    ("replay.pack", "realize.pack_ms"),
    ("replay.color", "sched.color_ms"),
    ("replay.validate", "sched.validate_ms"),
    ("replay.sim", "sim.replay_ms"),
    ("session.drift", "session.drift_ms"),
    ("multi.solve", "multi.solve_ms"),
    ("multi.realize", "multi.realize_ms"),
    ("replay.multi_color", "multi.color_ms"),
    ("replay.multi_certify", "multi.certify_ms"),
    ("serve.parse", "serve.parse_ms"),
    ("serve.emit", "serve.emit_ms"),
];

/// Request types whose `Server::call` span gets a p50 metric.
const SERVE_CALL_TYPES: [(&str, &str); 6] = [
    ("serve.call.set_edge_cost", "serve.call_ms.set_edge_cost"),
    ("serve.call.disable_node", "serve.call_ms.disable_node"),
    ("serve.call.enable_node", "serve.call_ms.enable_node"),
    ("serve.call.solve", "serve.call_ms.solve"),
    ("serve.call.re_realize", "serve.call_ms.re_realize"),
    ("serve.call.query_schedule", "serve.call_ms.query_schedule"),
];

fn layer_metrics(
    tr: &Tracer,
    log: &PassLog,
    ref_ops: usize,
    ref_s: f64,
    traced_s: f64,
    replay_s: f64,
) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (k, v) in tr.counters() {
        m.insert(k.to_string(), *v);
    }
    let totals = tr.totals();
    for (span, metric) in SPAN_METRICS {
        if let Some(t) = totals.get(span) {
            m.insert(metric.to_string(), t.total_ms);
        }
    }
    for (span, metric) in SERVE_CALL_TYPES {
        let d = tr.durations_ms(span);
        if let Some(p50) = stats::percentile_sorted(&d, 0.5) {
            m.insert(metric.to_string(), p50);
        }
    }
    // Self time per layer: a span name's layer is its first dot segment;
    // "op" spans are the benchmark's own work around the calls.
    for (span, t) in &totals {
        let layer = match span.split('.').next().unwrap_or(span) {
            "op" => "bench",
            "serve" => "serve",
            other => other,
        };
        *m.entry(format!("self_ms.{layer}")).or_insert(0.0) += t.self_ms;
    }
    let solves = m.get("lp.solves").copied().unwrap_or(0.0);
    if solves > 0.0 {
        let pivots = m.get("lp.phase1_pivots").copied().unwrap_or(0.0)
            + m.get("lp.phase2_pivots").copied().unwrap_or(0.0);
        m.insert("lp.pivots_per_solve".to_string(), pivots / solves);
    }
    let ops = log.samples.len() as f64;
    let untraced_rate = ref_ops as f64 / ref_s;
    let traced_rate = ops / (traced_s - replay_s).max(1e-9);
    m.insert(
        "trace.overhead_frac".to_string(),
        1.0 - traced_rate / untraced_rate,
    );
    m.insert("trace.replay_frac".to_string(), replay_s / traced_s);
    m
}

/// Directory the traced run writes its span file into.
pub fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn write_trace_file(
    outcome: &Outcome,
    seed: u64,
    tr: &Tracer,
    log: &PassLog,
) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = results_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", outcome.workload));
    let layers = tr
        .totals()
        .into_iter()
        .map(|(name, t)| {
            let row = Json::obj(vec![
                ("count", Json::num(t.count as f64)),
                ("total_ms", Json::num(t.total_ms)),
                ("self_ms", Json::num(t.self_ms)),
            ]);
            (name.to_string(), row)
        })
        .collect();
    let histograms = stats::histograms(&log.samples)
        .into_iter()
        .map(|(class, h)| {
            let buckets = h.buckets.iter().map(|&b| Json::num(b as f64)).collect();
            let row = Json::obj(vec![
                ("buckets", Json::Arr(buckets)),
                ("failed", Json::num(h.failed as f64)),
            ]);
            (class.to_string(), row)
        })
        .collect();
    let fields = ["name", "start_ns", "end_ns", "parent", "op"];
    let head = Json::obj(vec![
        ("workload", Json::str(&outcome.workload)),
        ("seed", Json::num(seed as f64)),
        ("result", outcome.result_json()),
        ("diagnostics", outcome.diagnostics_json()),
        ("layers", Json::Obj(layers)),
        ("latency_histograms_log2_us", Json::Obj(histograms)),
        (
            "span_fields",
            Json::Arr(fields.iter().map(|f| Json::str(f)).collect()),
        ),
    ])
    .emit();
    // Spans stream out one row at a time: a traced run holds up to a
    // million of them, too many to build as one value.
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let head = head.strip_suffix('}').expect("an object ends with '}'");
    write!(out, "{head},\"spans\":[")?;
    for (i, span) in tr.spans().iter().enumerate() {
        let row = Json::Arr(vec![
            Json::str(span.name),
            Json::num(span.start_ns as f64),
            Json::num(span.end_ns as f64),
            span.parent.map_or(Json::Null, |p| Json::num(p as f64)),
            Json::num(span.op as f64),
        ]);
        let sep = if i == 0 { "\n" } else { ",\n" };
        write!(out, "{sep}{}", row.emit())?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}
