//! `serve-churn`: a closed loop against `mmb_service::Service`. Each
//! `serve` call carries one request per worker thread, for independent
//! tickets on a few ~10^4-cell base meshes. About 90 % of requests mutate
//! weights (re-pricing an edge every few rounds); the rest are cold
//! solves, mostly fresh weights on a known topology, some on an unseen
//! one. The ticket memo is never pruned, so its growth shows in
//! `peak_rss_mib`.

use std::sync::Arc;
use std::time::Instant;

use mmb_core::api::{Instance, InstanceDelta, Solver, SolverCache};
use mmb_core::pipeline::PipelineConfig;
use mmb_graph::recognize::recognition_count;
use mmb_graph::{Coloring, Graph};
use mmb_instances::climate::{climate, ClimateParams};
use mmb_service::{CacheEvent, Request, Response, ServePath, Service, ServiceConfig};

use crate::check::{bound_ratio, check_lpt_floor, check_partition};
use crate::stats::{mean, median, percentile, Stream};
use crate::trace::Layers;
use crate::{peak_rss_mib, Args, Outcome, SETUP_REPEATS};

/// Base meshes (known topologies).
const BASES: usize = 4;
/// Independent ticket streams per worker thread.
const STREAMS_PER_THREAD: usize = 4;
/// Classes.
const K: usize = 8;
/// Share of requests that are cold solves, and the share of those on a
/// topology the service has not seen.
const COLD_SHARE: f64 = 0.10;
const UNSEEN_SHARE: f64 = 0.25;
/// Every `COST_PERIOD`-th mutation of a stream also re-prices an edge.
const COST_PERIOD: usize = 5;
/// Weight moves per mutation.
const MOVES: usize = 2;
/// Percentile reported as `solve_tail_ms` and `warm_tail_ms`.
const TAIL_PCT: f64 = 98.0;
/// Requests a run makes per second of `--seconds`. The count is fixed, so
/// every run of one `--seconds` does the same work and grows the ticket
/// memo by the same amount however fast the code is. On a 2-vCPU x86-64
/// host at the commit that added the benchmark the requests take about
/// three quarters of `--seconds`, and the memo ends near 1.3 GiB at 30 s.
const REQUESTS_PER_SECOND: f64 = 30.0;
/// Logged requests the traced run replays.
const REPLAY_MAX: usize = 240;

/// Extents of the meshes: the base meshes use the first, unseen
/// topologies cycle through the rest. Only the storm layouts are drawn
/// from the seed, so runs with different seeds do comparable work.
const EXTENTS: [(usize, usize); 4] = [(100, 100), (96, 104), (104, 96), (98, 102)];

/// A ~10^4-cell climate mesh with a storm layout drawn from `s`.
fn mesh(s: &mut Stream, (lon, lat): (usize, usize)) -> (Arc<Graph>, Vec<f64>, Vec<f64>) {
    let w = climate(&ClimateParams {
        lon,
        lat,
        seed: s.next_u64(),
        ..ClimateParams::default()
    });
    (Arc::new(w.grid.graph), w.costs, w.weights)
}

/// Multiply `x` by a seeded factor in `[0.8, 1.2)`.
fn jitter(s: &mut Stream, x: f64) -> f64 {
    x * (0.8 + 0.4 * s.unit())
}

/// One ticket stream: the mirror of the instance its ticket refers to.
struct TicketStream {
    graph: Arc<Graph>,
    costs: Vec<f64>,
    weights: Vec<f64>,
    ticket: u64,
    coloring: Coloring,
    mutations: usize,
}

/// A request as sent, with the instance it must be served for.
struct Sent {
    stream: usize,
    /// `None` for a cold solve.
    delta: Option<InstanceDelta>,
    /// Whether a cold solve is on an unseen topology (its ticket is not
    /// followed).
    unseen: bool,
    graph: Arc<Graph>,
    costs: Vec<f64>,
    weights: Vec<f64>,
}

/// A served request kept for the traced replay.
struct Logged {
    sent: Sent,
    /// The instance a mutation applies to, and its incumbent coloring.
    before: Option<(Vec<f64>, Vec<f64>, Coloring)>,
    served: Coloring,
    cache: CacheEvent,
    elapsed_s: f64,
}

/// The run's state: base meshes, the service and its ticket streams.
struct Harness {
    service: Service,
    bases: Vec<(Arc<Graph>, Vec<f64>, Vec<f64>)>,
    streams: Vec<TicketStream>,
    rng: Stream,
    /// Unseen topologies drawn so far.
    unseen: usize,
}

/// The per-request checks: shape, eq. (1), the reported cost, and for
/// mutations the independent LPT-floor audit. Returns the served cost.
fn audit(sent: &Sent, resp: &Response) -> Result<(Coloring, f64), String> {
    let served = resp
        .outcome
        .as_ref()
        .map_err(|e| format!("rejected: {e}"))?;
    let cost = check_partition(
        &sent.graph,
        &sent.costs,
        &sent.weights,
        K,
        &served.coloring,
        served.max_boundary,
    )?;
    if sent.delta.is_some() {
        check_lpt_floor(&sent.graph, &sent.costs, &sent.weights, K, cost)?;
    }
    Ok((served.coloring.clone(), cost))
}

impl Harness {
    /// Generate the inputs, start the service and admit one instance per
    /// stream.
    fn start(seed: u64, threads: usize, out: &mut Outcome) -> Harness {
        let mut rng = Stream::new(seed, 0x5E4F_C4A2);
        let bases: Vec<_> = (0..BASES).map(|_| mesh(&mut rng, EXTENTS[0])).collect();
        let service = Service::new(ServiceConfig::new(K));
        let sent: Vec<Sent> = (0..threads * STREAMS_PER_THREAD)
            .map(|i| {
                let (graph, costs, weights) = &bases[i % BASES];
                Sent {
                    stream: i,
                    delta: None,
                    unseen: false,
                    graph: Arc::clone(graph),
                    costs: costs.clone(),
                    weights: weights.iter().map(|&w| jitter(&mut rng, w)).collect(),
                }
            })
            .collect();
        let responses = service.serve(sent.iter().map(cold_request).collect());
        let mut streams = Vec::new();
        for (s, resp) in sent.into_iter().zip(&responses) {
            out.attempted += 1;
            match audit(&s, resp) {
                Ok((coloring, _)) => streams.push(TicketStream {
                    graph: s.graph,
                    costs: s.costs,
                    weights: s.weights,
                    ticket: resp.outcome.as_ref().map(|r| r.ticket).unwrap_or(0),
                    coloring,
                    mutations: 0,
                }),
                Err(e) => out.fail("admission", e),
            }
        }
        Harness {
            service,
            bases,
            streams,
            rng,
            unseen: 0,
        }
    }

    /// Draw the next request for `stream`.
    fn next_request(&mut self, stream: usize) -> Sent {
        let rng = &mut self.rng;
        let st = &mut self.streams[stream];
        if rng.unit() < COLD_SHARE {
            if rng.unit() < UNSEEN_SHARE {
                self.unseen += 1;
                let extent = EXTENTS[1 + self.unseen % (EXTENTS.len() - 1)];
                let (graph, costs, weights) = mesh(rng, extent);
                return Sent {
                    stream,
                    delta: None,
                    unseen: true,
                    graph,
                    costs,
                    weights,
                };
            }
            let base = &self.bases[stream % BASES].2;
            return Sent {
                stream,
                delta: None,
                unseen: false,
                graph: Arc::clone(&st.graph),
                costs: st.costs.clone(),
                weights: base.iter().map(|&w| jitter(rng, w)).collect(),
            };
        }
        st.mutations += 1;
        let (mut costs, mut weights) = (st.costs.clone(), st.weights.clone());
        let mut delta = InstanceDelta::new();
        for _ in 0..MOVES {
            let v = rng.range(0, weights.len() - 1);
            weights[v] = jitter(rng, weights[v]);
            delta = delta.set_weight(v as u32, weights[v]);
        }
        if st.mutations.is_multiple_of(COST_PERIOD) {
            let e = rng.range(0, costs.len() - 1);
            costs[e] = jitter(rng, costs[e]);
            delta = delta.set_cost(e as u32, costs[e]);
        }
        Sent {
            stream,
            delta: Some(delta),
            unseen: false,
            graph: Arc::clone(&st.graph),
            costs,
            weights,
        }
    }
}

fn cold_request(s: &Sent) -> Request {
    Request::Solve {
        graph: Graph::clone(&s.graph),
        costs: s.costs.clone(),
        weights: s.weights.clone(),
    }
}

/// What the untraced serving loop measured.
#[derive(Default)]
struct Served {
    batch_s: Vec<f64>,
    /// Time spent inside `serve` calls.
    serving_s: f64,
    request_ms: Vec<f64>,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    ratios: Vec<f64>,
    mutations: usize,
    warm_serves: usize,
    fallbacks: usize,
    service_warm_s: Vec<f64>,
    service_cold_s: Vec<f64>,
    log: Vec<Logged>,
}

/// Serve `batches` batches; keep a replay log when `log` is set.
fn serve_loop(
    h: &mut Harness,
    threads: usize,
    batches: usize,
    log: bool,
    out: &mut Outcome,
) -> (Served, f64) {
    let mut m = Served::default();
    let n_streams = h.streams.len();
    let start = Instant::now();
    for batch in 0..batches {
        let sent: Vec<Sent> = (0..threads.min(n_streams))
            .map(|j| h.next_request((batch * threads + j) % n_streams))
            .collect();
        let requests: Vec<Request> = sent
            .iter()
            .map(|s| match &s.delta {
                Some(delta) => Request::Mutate {
                    base: h.streams[s.stream].ticket,
                    delta: delta.clone(),
                },
                None => cold_request(s),
            })
            .collect();
        let t0 = Instant::now();
        let responses = h.service.serve(requests);
        let wall = t0.elapsed().as_secs_f64();
        m.serving_s += wall;
        for (s, resp) in sent.into_iter().zip(&responses) {
            out.attempted += 1;
            m.request_ms.push(wall * 1e3);
            if s.delta.is_some() {
                m.mutations += 1;
            }
            match resp.record.path {
                ServePath::Warm => {
                    m.warm_serves += 1;
                    m.warm_ms.push(wall * 1e3);
                    m.service_warm_s.push(resp.record.elapsed_millis * 1e-3);
                }
                ServePath::Cold => {
                    m.cold_ms.push(wall * 1e3);
                    m.service_cold_s.push(resp.record.elapsed_millis * 1e-3);
                }
                ServePath::ColdFallback => m.fallbacks += 1,
                ServePath::Rejected => {}
            }
            let (coloring, cost) = match audit(&s, resp) {
                Ok(ok) => ok,
                Err(e) => {
                    out.fail("serve", e);
                    continue;
                }
            };
            m.ratios.push(bound_ratio(&s.costs, K, 2.0, cost));
            let st = &mut h.streams[s.stream];
            let before = s
                .delta
                .is_some()
                .then(|| (st.costs.clone(), st.weights.clone(), st.coloring.clone()));
            if !s.unseen {
                st.graph = Arc::clone(&s.graph);
                st.costs.clone_from(&s.costs);
                st.weights.clone_from(&s.weights);
                st.ticket = resp.outcome.as_ref().map(|r| r.ticket).unwrap_or(st.ticket);
                st.coloring = coloring.clone();
            }
            if log {
                m.log.push(Logged {
                    sent: s,
                    before,
                    served: coloring,
                    cache: resp.record.cache,
                    elapsed_s: resp.record.elapsed_millis * 1e-3,
                });
            }
        }
        m.batch_s.push(t0.elapsed().as_secs_f64());
    }
    (m, start.elapsed().as_secs_f64())
}

/// Run `f`, adding its wall time to `total` and, when tracing, to `name`.
fn span<R>(
    layers: &mut Option<&mut Layers>,
    total: &mut f64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let t = Instant::now();
    let out = f();
    let dt = t.elapsed().as_secs_f64();
    *total += dt;
    if let Some(l) = layers {
        l.add(name, dt);
    }
    out
}

/// Replay `entry` through the core calls the service makes, timing each
/// layer when `layers` is given. Returns the replayed coloring and the
/// time spent in the calls the service itself makes.
fn replay(
    entry: &Logged,
    cache: &mut SolverCache,
    mut layers: Option<&mut Layers>,
) -> Result<(Coloring, f64), String> {
    let p = PipelineConfig::default().p;
    let s = &entry.sent;
    let graph = || Graph::clone(&s.graph);
    let (mut core, mut extra) = (0.0, 0.0);
    // A mutation's base instance sits in the service's memo: rebuilding it
    // here is replay bookkeeping, not service work.
    let inst = match &entry.before {
        Some((costs, weights, _)) => Instance::new(graph(), costs.clone(), weights.clone()),
        None => span(&mut layers, &mut core, "instance.validate_s", || {
            Instance::new(graph(), s.costs.clone(), s.weights.clone())
        }),
    }
    .map_err(|e| format!("replay instance: {e}"))?;
    // The service applies a delta only inside `resolve_delta`; applying it
    // on its own here times that layer without counting it twice.
    if let Some(delta) = &s.delta {
        span(&mut layers, &mut extra, "delta.apply_s", || {
            delta.apply(&inst)
        })
        .map_err(|e| format!("replay apply: {e}"))?;
    }
    if entry.cache == CacheEvent::Miss {
        span(&mut layers, &mut core, "recognize.s", || {
            inst.structure();
        });
    }
    let artifacts = span(&mut layers, &mut core, "artifacts.lookup_s", || {
        cache.get_or_compute(&inst, p).0
    });
    let solver = span(&mut layers, &mut core, "solver.build_s", || {
        Solver::for_instance(&inst)
            .classes(K)
            .artifacts(artifacts)
            .build()
    })
    .map_err(|e| format!("replay build: {e}"))?;
    let coloring = match (&s.delta, &entry.before) {
        (Some(delta), Some((_, _, previous))) => {
            span(&mut layers, &mut core, "delta.resolve_s", || {
                solver.resolve_delta(delta, previous)
            })
            .map_err(|e| format!("replay resolve: {e}"))?
            .coloring
        }
        (None, None) => {
            span(&mut layers, &mut core, "pipeline.solve_s", || {
                solver.solve()
            })
            .coloring
        }
        _ => return Err("mutation logged without its incumbent".into()),
    };
    Ok((coloring, core))
}

/// Run the workload.
pub fn run(args: &Args, threads: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut harness = None;
    for _ in 0..SETUP_REPEATS {
        drop(harness.take());
        let t = Instant::now();
        harness = Some(Harness::start(args.seed, threads, &mut out));
        setup.push(t.elapsed().as_secs_f64());
    }
    let mut h = harness.expect("set up at least once");
    let admitted_stats = h.service.cache_stats();
    let tickets_before = h.service.known_tickets();
    out.notes.push(format!(
        "{BASES} base meshes of {} cells, k = {K}, {} ticket streams, {} requests per serve call",
        h.bases
            .iter()
            .map(|b| b.0.num_vertices().to_string())
            .collect::<Vec<_>>()
            .join("/"),
        h.streams.len(),
        threads.min(h.streams.len()),
    ));

    let batches = ((args.seconds.as_secs_f64() * REQUESTS_PER_SECOND / threads as f64).round()
        as usize)
        .max(1);
    let (m, measured) = serve_loop(&mut h, threads, batches, args.trace, &mut out);
    if m.request_ms.is_empty() {
        return out;
    }
    let stats = h.service.cache_stats();
    let (hits, misses) = (
        stats.hits - admitted_stats.hits,
        stats.misses - admitted_stats.misses,
    );
    out.notes.push(format!(
        "{} requests in {} serve calls over {measured:.2} s: {} warm, {} cold, {} cold fallbacks; \
         artifact cache {hits} hits / {misses} misses; {} tickets remembered (+{})",
        m.request_ms.len(),
        m.batch_s.len(),
        m.warm_ms.len(),
        m.cold_ms.len(),
        m.fallbacks,
        h.service.known_tickets(),
        h.service.known_tickets() - tickets_before,
    ));

    let e2e = &mut out.end_to_end;
    let warm = if m.warm_ms.is_empty() {
        vec![f64::NAN]
    } else {
        m.warm_ms.clone()
    };
    let cold = if m.cold_ms.is_empty() {
        vec![f64::NAN]
    } else {
        m.cold_ms.clone()
    };
    let (solve_tail, _) = percentile(&m.request_ms, TAIL_PCT);
    let (warm_tail, beyond) = percentile(&warm, TAIL_PCT);
    out.notes.push(format!(
        "tails = p{TAIL_PCT} ({beyond} warm samples beyond); {} cold samples",
        m.cold_ms.len()
    ));
    e2e.insert("setup_s", median(&setup));
    e2e.insert("partition_p50_s", median(&m.batch_s));
    e2e.insert("solve_p50_ms", median(&m.request_ms));
    e2e.insert("solve_tail_ms", solve_tail);
    e2e.insert("warm_p50_ms", median(&warm));
    e2e.insert("warm_tail_ms", warm_tail);
    e2e.insert("cold_p50_ms", median(&cold));
    e2e.insert("requests_per_s", m.request_ms.len() as f64 / m.serving_s);
    e2e.insert("bound_ratio_mean", mean(&m.ratios));
    e2e.insert("peak_rss_mib", peak_rss_mib());

    if args.trace {
        trace(&mut out, &h, &m, hits, misses);
    }
    out
}

/// The traced replay of the logged requests, then the same replay without
/// spans for the overhead.
fn trace(out: &mut Outcome, h: &Harness, m: &Served, hits: u64, misses: u64) {
    let mut layers = Layers::default();
    let mut cache = SolverCache::new(ServiceConfig::new(K).cache_capacity);
    let recognitions = recognition_count();
    let (mut ops, mut traced_wall, mut service_s, mut core_s) = (0usize, 0.0, 0.0, 0.0);
    for entry in m.log.iter().take(REPLAY_MAX) {
        let t = Instant::now();
        match replay(entry, &mut cache, Some(&mut layers)) {
            Ok((coloring, core)) if coloring == entry.served => {
                core_s += core;
                service_s += entry.elapsed_s;
            }
            Ok(_) => out.fail("trace", "replayed coloring differs from the served one"),
            Err(e) => out.fail("trace", e),
        }
        traced_wall += t.elapsed().as_secs_f64();
        ops += 1;
    }
    layers.add(
        "recognize.calls",
        (recognition_count() - recognitions) as f64,
    );
    let mut bare_cache = SolverCache::new(ServiceConfig::new(K).cache_capacity);
    let t = Instant::now();
    for entry in &m.log[..ops] {
        if let Err(e) = replay(entry, &mut bare_cache, None) {
            out.fail("trace", e);
        }
    }
    let bare_wall = t.elapsed().as_secs_f64();
    if ops == 0 {
        return;
    }
    let mut l = layers.per_op(ops);
    let per = |xs: &[f64]| if xs.is_empty() { 0.0 } else { mean(xs) };
    l.insert("service.warm_s", per(&m.service_warm_s));
    l.insert("service.cold_s", per(&m.service_cold_s));
    l.insert("service.overhead_s", (service_s - core_s) / ops as f64);
    l.insert("service.known_tickets", h.service.known_tickets() as f64);
    l.insert(
        "delta.warm_share",
        m.warm_serves as f64 / m.mutations.max(1) as f64,
    );
    l.insert("artifacts.hits", hits as f64);
    l.insert("artifacts.misses", misses as f64);
    l.insert(
        "artifacts.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    l.insert("trace.ops", ops as f64);
    l.insert("trace.wall_s", traced_wall / ops as f64);
    l.insert("trace.coverage_frac", core_s / traced_wall);
    l.insert("trace.overhead_frac", traced_wall / bare_wall - 1.0);
    out.layers = l;
}
