//! `serve-closed-loop`: an in-process `pm_serve::Server` with 2 shards
//! driven by 2 closed-loop client threads. Each client drives only the
//! tenants that hash to its shard, so request order and counters are
//! deterministic. One op is one request line.

use pm_core::report::HeuristicKind;
use pm_serve::{Counters, InstanceSpec, Request, Response, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use crate::harness::{PassLog, Size, Workload};
use crate::layers::GAP_TOL;
use crate::stats::{Digest, Sample};
use crate::trace::Tracer;

/// Shards and client threads (one client per shard).
const SHARDS: usize = 2;

/// Instance shapes per seed: cost-perturbed copies of two small
/// topologies, so tenants share formulation templates in groups.
const SHAPES: usize = 4;

pub struct Serve {
    tenants: usize,
    min_ops: usize,
}

pub struct State {
    server: Server,
    shapes: Vec<InstanceSpec>,
    clients: Vec<Client>,
    seed: u64,
    round: u64,
    setup_counters: Counters,
}

struct Client {
    tenants: Vec<usize>,
    next_id: u64,
}

impl Serve {
    pub fn new(size: Size) -> Serve {
        match size {
            Size::Full => Serve {
                tenants: 1000,
                min_ops: 1000,
            },
            Size::Small => Serve {
                tenants: 8,
                min_ops: 1,
            },
        }
    }
}

/// The server as shipped, with one shard per client thread.
fn config() -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        ..ServeConfig::default()
    }
}

/// Two base topologies (relays 1 and 2; every target stays reachable
/// with either relay disabled), costs perturbed per shape from the seed.
fn shapes(seed: u64) -> Vec<InstanceSpec> {
    let bases = [
        InstanceSpec {
            nodes: 6,
            edges: vec![
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 1.5),
                (1, 4, 2.5),
                (2, 5, 1.8),
                (0, 3, 3.0),
                (2, 4, 2.2),
                (1, 5, 2.7),
                (0, 4, 3.5),
                (0, 5, 3.2),
            ],
            source: 0,
            targets: vec![3, 4, 5],
        },
        InstanceSpec {
            nodes: 5,
            edges: vec![
                (0, 1, 1.2),
                (0, 2, 1.7),
                (1, 3, 2.1),
                (2, 4, 1.4),
                (0, 3, 2.9),
                (0, 4, 2.6),
                (1, 4, 3.1),
            ],
            source: 0,
            targets: vec![3, 4],
        },
    ];
    (0..SHAPES)
        .map(|s| {
            let mut rng = StdRng::seed_from_u64(crate::mix(seed, 33, s as u64));
            let mut spec = bases[s % bases.len()].clone();
            for edge in &mut spec.edges {
                edge.2 *= rng.gen_range(0.8..1.25);
            }
            spec
        })
        .collect()
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i}")
}

/// One tenant's requests for one round: a drift burst (three edits on each
/// of two edges, then a relay disable/enable pair), the coalescing
/// `solve` barriers for scatter and Multicast-LB, and for every fourth
/// tenant a re-realization and a schedule read-back.
fn round_requests(
    seed: u64,
    tenant: usize,
    round: u64,
    spec: &InstanceSpec,
    next_id: &mut u64,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(crate::mix(seed, tenant as u64, round));
    let session = tenant_name(tenant);
    let edges = spec.edges.len() as u32;
    let edge_a = rng.gen_range(0..edges);
    let edge_b = (edge_a + 1 + rng.gen_range(0..edges - 1)) % edges;
    let mut id = || {
        *next_id += 1;
        *next_id
    };
    let mut requests = Vec::with_capacity(12);
    for _ in 0..3 {
        for edge in [edge_a, edge_b] {
            requests.push(Request::SetEdgeCost {
                id: id(),
                session: session.clone(),
                edge,
                cost: rng.gen_range(0.5..4.5),
            });
        }
    }
    let relay = rng.gen_range(1..3u32);
    requests.push(Request::DisableNode {
        id: id(),
        session: session.clone(),
        node: relay,
    });
    requests.push(Request::EnableNode {
        id: id(),
        session: session.clone(),
        node: relay,
    });
    for kind in [HeuristicKind::Scatter, HeuristicKind::LowerBound] {
        requests.push(Request::Solve {
            id: id(),
            session: session.clone(),
            kind,
        });
    }
    if tenant.is_multiple_of(4) {
        requests.push(Request::ReRealize {
            id: id(),
            session: session.clone(),
            kind: HeuristicKind::Scatter,
        });
        requests.push(Request::QuerySchedule {
            id: id(),
            session,
            kind: HeuristicKind::Scatter,
        });
    }
    requests
}

/// Op class and `Server::call` span name of a request.
fn request_type(request: &Request) -> (&'static str, &'static str) {
    match request {
        Request::SetEdgeCost { .. } => ("set_edge_cost", "serve.call.set_edge_cost"),
        Request::DisableNode { .. } => ("disable_node", "serve.call.disable_node"),
        Request::EnableNode { .. } => ("enable_node", "serve.call.enable_node"),
        Request::Solve { .. } => ("solve", "serve.call.solve"),
        Request::ReRealize { .. } => ("re_realize", "serve.call.re_realize"),
        Request::QuerySchedule { .. } => ("query_schedule", "serve.call.query_schedule"),
        _ => ("other", "serve.call.other"),
    }
}

/// Checks a response line and folds its deterministic content into the
/// digest. Returns whether the op passed, and a solved period if any.
fn check(line: &str, id: u64, digest: &mut Digest) -> (bool, Option<f64>) {
    let Ok(response) = Response::from_line(line) else {
        return (false, None);
    };
    if response.id() != id {
        return (false, None);
    }
    digest.u64(id);
    match response {
        Response::Ok { .. } => (true, None),
        Response::Solved {
            period, degraded, ..
        } => {
            digest.f64(period);
            digest.u64(degraded as u64);
            (period.is_finite() && period > 0.0, Some(period))
        }
        Response::Realized {
            violations,
            gap,
            throughput,
            trees,
            ..
        } => {
            digest.u64(violations);
            digest.u64(trees);
            digest.f64(gap);
            digest.f64(throughput);
            (violations == 0 && gap <= GAP_TOL, None)
        }
        Response::Schedule { period, trees, .. } => {
            digest.f64(period);
            digest.u64(trees.len() as u64);
            (period.is_finite() && !trees.is_empty(), None)
        }
        Response::Error { .. } | Response::Overloaded { .. } => (false, None),
        _ => (true, None),
    }
}

/// Sends one request line, timing it; traced runs split the call into
/// its parse, `Server::call` and emit spans.
fn op(server: &Server, request: Request, tr: &mut Tracer, log: &mut PassLog) -> Option<f64> {
    let id = request.id();
    let (class, call_span) = request_type(&request);
    let line = request.to_line();
    let op = tr.begin_op(log.next_op());
    let start = Instant::now();
    let response_line = if tr.enabled() {
        let span = tr.open("serve.parse");
        let parsed = Request::from_line(&line);
        tr.close(span);
        match parsed {
            Ok(request) => {
                let span = tr.open(call_span);
                let response = server.call(request);
                tr.close(span);
                let span = tr.open("serve.emit");
                let line = response.to_line();
                tr.close(span);
                line
            }
            Err(_) => String::new(),
        }
    } else {
        server.call_line(&line)
    };
    let ns = start.elapsed().as_nanos() as u64;
    let (ok, period) = check(&response_line, id, &mut log.digest);
    tr.close(op);
    log.samples.push(Sample { class, ns, ok });
    period
}

impl Client {
    fn round(
        &mut self,
        server: &Server,
        shapes: &[InstanceSpec],
        seed: u64,
        round: u64,
        tr: &mut Tracer,
        log: &mut PassLog,
    ) {
        for &tenant in &self.tenants {
            let spec = &shapes[tenant % shapes.len()];
            let mut periods = Vec::with_capacity(2);
            for request in round_requests(seed, tenant, round, spec, &mut self.next_id) {
                let solve = matches!(request, Request::Solve { .. });
                let period = op(server, request, tr, log);
                if solve {
                    periods.push(period);
                }
            }
            // Scatter over Multicast-LB on the same tenant state.
            if let [Some(scatter), Some(lower_bound)] = periods[..] {
                log.ratios.push(scatter / lower_bound);
            }
        }
    }
}

fn digest_counters(digest: &mut Digest, c: &Counters) {
    for v in [
        c.requests,
        c.sessions_created,
        c.drift_events,
        c.coalesced_writes,
        c.flushes,
        c.shed,
        c.template_builds,
        c.template_hits,
        c.solves,
        c.realizations,
        c.degraded_solves,
        c.warm_hits,
        c.warm_misses,
        c.cache_hits,
        c.cache_misses,
        c.cache_evictions,
        c.compactions,
        c.journal_entries_dropped,
        c.errors,
    ] {
        digest.u64(v);
    }
}

impl Workload for Serve {
    type State = State;

    fn setup(&self, seed: u64, _tr: &mut Tracer) -> State {
        let server = Server::start(config());
        let shapes = shapes(seed);
        let mut clients: Vec<Client> = (0..SHARDS)
            .map(|_| Client {
                tenants: Vec::new(),
                next_id: 0,
            })
            .collect();
        for tenant in 0..self.tenants {
            clients[server.shard_of(&tenant_name(tenant))]
                .tenants
                .push(tenant);
        }
        // Create every tenant with both templates pre-built, then one warm
        // solve per kind, per shard in parallel.
        std::thread::scope(|scope| {
            for client in clients.iter_mut() {
                let server = &server;
                let shapes = &shapes;
                scope.spawn(move || {
                    let Client { tenants, next_id } = client;
                    for &tenant in tenants.iter() {
                        let session = tenant_name(tenant);
                        let mut id = || {
                            *next_id += 1;
                            *next_id
                        };
                        let mut requests = vec![Request::CreateSession {
                            id: id(),
                            session: session.clone(),
                            spec: shapes[tenant % shapes.len()].clone(),
                            kinds: vec![HeuristicKind::Scatter, HeuristicKind::LowerBound],
                        }];
                        for kind in [HeuristicKind::Scatter, HeuristicKind::LowerBound] {
                            requests.push(Request::Solve {
                                id: id(),
                                session: session.clone(),
                                kind,
                            });
                        }
                        for request in requests {
                            match server.call(request) {
                                Response::Error { message, .. } => {
                                    panic!("set-up request for {session} failed: {message}")
                                }
                                Response::Overloaded { .. } => {
                                    panic!("set-up request for {session} was shed")
                                }
                                _ => {}
                            }
                        }
                    }
                });
            }
        });
        let setup_counters = server.counters();
        State {
            server,
            shapes,
            clients,
            seed,
            round: 0,
            setup_counters,
        }
    }

    fn pass(&self, state: &mut State, tr: &mut Tracer, log: &mut PassLog) {
        let round = state.round;
        state.round += 1;
        let (enabled, epoch) = (tr.enabled(), tr.epoch());
        let op_base = log.next_op();
        let server = &state.server;
        let shapes = &state.shapes;
        let seed = state.seed;
        let results: Vec<(Tracer, PassLog)> = std::thread::scope(|scope| {
            let handles: Vec<_> = state
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut ctr = Tracer::with_epoch(enabled, epoch);
                        let mut clog = PassLog::starting_at(op_base + ((c as u64 + 1) << 32));
                        client.round(server, shapes, seed, round, &mut ctr, &mut clog);
                        (ctr, clog)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for (ctr, clog) in results {
            tr.absorb(ctr);
            log.absorb(clog);
        }
        // Both clients are idle: the counters are a deterministic snapshot.
        digest_counters(&mut log.digest, &state.server.counters());
    }

    fn min_ops(&self) -> usize {
        self.min_ops
    }

    /// Enough rounds for every tenant's journal to reach the server's
    /// default compaction interval once.
    fn trace_passes(&self) -> usize {
        16
    }

    fn p99_metric(&self) -> Option<&'static str> {
        Some("serve.op_p99_ms")
    }

    fn finish_trace(&self, state: &State, tr: &mut Tracer) {
        let c = state.server.counters();
        let s = &state.setup_counters;
        let hits = (c.warm_hits - s.warm_hits) as f64;
        let misses = (c.warm_misses - s.warm_misses) as f64;
        tr.count("lp.solves", hits + misses);
        tr.count("lp.warm_hits", hits);
        tr.count("lp.warm_misses", misses);
        tr.count(
            "lp.degraded_solves",
            (c.degraded_solves - s.degraded_solves) as f64,
        );
        let ratio = |a: u64, b: u64| {
            if a + b == 0 {
                0.0
            } else {
                a as f64 / (a + b) as f64
            }
        };
        tr.set("serve.coalescing_ratio", c.coalescing_ratio());
        tr.set("serve.flushes", c.flushes as f64);
        tr.set(
            "serve.template_hit_ratio",
            ratio(c.template_hits, c.template_builds),
        );
        tr.set("serve.cache_hit_ratio", c.cache_hit_rate());
        tr.set("serve.cache_evictions", c.cache_evictions as f64);
        tr.set("serve.compactions", c.compactions as f64);
        tr.set("serve.warm_hit_ratio", c.warm_hit_rate());
        tr.set("serve.shed", c.shed as f64);
    }
}
