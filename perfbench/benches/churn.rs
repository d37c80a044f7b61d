//! The `serve-churn` workload: a seeded request stream through one
//! `mmb_service::Service` (default configuration, artifact cache of 16)
//! over 32 topologies with Zipf-skewed popularity.
//!
//! One client runs a closed loop of batches of two independent requests.
//! Both requests of a batch target the same topology, so they consult the
//! same artifact-cache key: the cache's hit/miss multiset and LRU order
//! after the batch do not depend on which worker takes the lock first, and
//! the traced run can demand the same cache sequence.
//!
//! The benchmark keeps its own mirror of every served instance (edge
//! list, costs, weights) and re-audits each response against it. The
//! traced run replays every request through the public layers the service
//! composes — `Instance::new`, the fingerprint, a `SolverCache` of the same
//! capacity, `SolverBuilder::build`, `Solver::solve` or `resolve_delta` —
//! and must reproduce each response's coloring, ticket and cache event.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use mmb_core::api::{
    auto_splitter, CacheLookup, Instance, InstanceDelta, InstanceError, SolveError, Solver,
    SolverCache,
};
use mmb_graph::fingerprint::Fingerprint;
use mmb_graph::gen::geometric::random_geometric;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::graph::graph_from_edges;
use mmb_graph::recognize::recognition_count;
use mmb_graph::{Coloring, Graph};
use mmb_service::{CacheEvent, Request, Response, ServePath, Service, ServiceConfig};

use crate::audit::Mirror;
use crate::solve::{traced_direct, Counting};
use crate::util::{
    derive, end_to_end, hex_list, median, num, num_list, timed, Rng, Round, RunResult, Trace,
};
use crate::Args;

/// Seed of the topologies' random structures. Fixed, so that every
/// `--seed` serves the same 32 graphs and only the values and the stream
/// move: otherwise the structures' own spread swamps run-to-run
/// comparisons.
const STRUCTURE_SEED: u64 = 0x5eed;
/// Classes served for every request.
const CHURN_K: usize = 8;
/// Topologies in the stream (twice the cache capacity).
const TOPOLOGIES: usize = 32;
/// Zipf exponent of topology popularity.
const ZIPF_S: f64 = 1.0;
/// Every `COST_PERIOD`-th mutation also re-prices an edge.
const COST_PERIOD: u64 = 5;
/// Input generations per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;
/// Percentile `op_tail_ms` reports: p99 swung 2x between runs with the
/// host's CPU steal, p90 still sits in the cold-solve batches.
const TAIL_Q: f64 = 90.0;
/// Batches in smoke mode.
const SMOKE_BATCHES: usize = 40;

/// One served instance as the benchmark mirrors it: canonical (sorted)
/// edge list with parallel costs, and weights.
#[derive(Clone)]
struct State {
    edges: Vec<(u32, u32)>,
    costs: Vec<f64>,
    weights: Vec<f64>,
}

impl State {
    fn graph(&self) -> Graph {
        graph_from_edges(self.weights.len(), &self.edges)
    }

    fn mirror(&self) -> Mirror<'_> {
        Mirror {
            edges: &self.edges,
            costs: &self.costs,
            weights: &self.weights,
            k: CHURN_K,
        }
    }

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.edges.binary_search(&(u.min(v), u.max(v))).is_ok()
    }

    /// The state after a mutation, computed independently of
    /// `InstanceDelta::apply`: overwrite by base ids, append, re-sort.
    fn mutated(&self, m: &Mutation) -> State {
        let mut weights = self.weights.clone();
        for &(v, w) in &m.weights {
            weights[v as usize] = w;
        }
        let mut triples: Vec<(u32, u32, f64)> = self
            .edges
            .iter()
            .zip(&self.costs)
            .map(|(&(u, v), &c)| (u, v, c))
            .collect();
        if let Some((e, c)) = m.cost {
            triples[e as usize].2 = c;
        }
        if let Some(w) = m.new_vertex {
            weights.push(w);
        }
        if let Some((u, v, c)) = m.new_edge {
            triples.push((u.min(v), u.max(v), c));
        }
        triples.sort_by_key(|t| (t.0, t.1));
        State {
            edges: triples.iter().map(|t| (t.0, t.1)).collect(),
            costs: triples.iter().map(|t| t.2).collect(),
            weights,
        }
    }
}

/// A mutation in the benchmark's own terms (converted to an
/// `InstanceDelta` for the service).
struct Mutation {
    weights: Vec<(u32, f64)>,
    cost: Option<(u32, f64)>,
    new_vertex: Option<f64>,
    new_edge: Option<(u32, u32, f64)>,
}

impl Mutation {
    fn delta(&self) -> InstanceDelta {
        let mut d = InstanceDelta::new();
        for &(v, w) in &self.weights {
            d = d.set_weight(v, w);
        }
        if let Some((e, c)) = self.cost {
            d = d.set_cost(e, c);
        }
        if let Some(w) = self.new_vertex {
            d = d.add_vertex(w);
        }
        if let Some((u, v, c)) = self.new_edge {
            d = d.add_edge(u, v, c);
        }
        d
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Solve,
    Mutate,
    BadWeight,
    BadTicket,
}

/// A generated request with what the benchmark expects of its response.
struct Planned {
    kind: Kind,
    request: Request,
    /// The instance a valid request's coloring must fit.
    expect: Option<State>,
}

/// A topology's current served instance and its ticket.
struct Chain {
    state: State,
    ticket: u64,
}

/// The seeded request generator and the client's view of every chain.
struct Stream {
    rng: Rng,
    zipf_cdf: Vec<f64>,
    chains: Vec<Chain>,
    mutations: u64,
    /// Tickets the client has forgotten (the source of unknown tickets).
    stale: Vec<u64>,
}

/// The 32 base topologies: grids, trees and random geometric graphs of
/// 600–2,500 vertices (60–250 in smoke mode), costs in `[1, 2)`, weights
/// in `[0.5, 1.5)`. Family, size and structure are fixed by position
/// (see [`STRUCTURE_SEED`]); the seed drives the values and the stream.
fn topologies(seed: u64, smoke: bool) -> Vec<State> {
    let mut rng = Rng::new(derive(seed, 30));
    (0..TOPOLOGIES)
        .map(|t| {
            let n = (600 + 1900 * t / (TOPOLOGIES - 1)) / if smoke { 10 } else { 1 };
            let s = derive(STRUCTURE_SEED, 100 + t as u64);
            let g = match t % 3 {
                0 => {
                    let side = (n as f64).sqrt().round() as usize;
                    GridGraph::lattice(&[side, side]).graph
                }
                1 => random_tree(n, 4, s),
                _ => random_geometric(n, (7.0 / (std::f64::consts::PI * n as f64)).sqrt(), s).graph,
            };
            let mut triples: Vec<(u32, u32, f64)> = g
                .edge_list()
                .iter()
                .map(|&(u, v)| (u.min(v), u.max(v), rng.range(1.0, 2.0)))
                .collect();
            triples.sort_by_key(|t| (t.0, t.1));
            State {
                edges: triples.iter().map(|t| (t.0, t.1)).collect(),
                costs: triples.iter().map(|t| t.2).collect(),
                weights: (0..g.num_vertices()).map(|_| rng.range(0.5, 1.5)).collect(),
            }
        })
        .collect()
}

impl Stream {
    fn new(seed: u64, chains: Vec<Chain>) -> Self {
        // Popularity rank by a fixed interleaving, so every seed gives the
        // same mix of families and sizes across ranks.
        let mut weight = vec![0.0; chains.len()];
        for (t, w) in weight.iter_mut().enumerate() {
            let rank = (t * 13) % chains.len();
            *w = 1.0 / ((rank + 1) as f64).powf(ZIPF_S);
        }
        let total: f64 = weight.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weight
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream {
            rng: Rng::new(derive(seed, 40)),
            zipf_cdf,
            chains,
            mutations: 0,
            stale: Vec::new(),
        }
    }

    fn pick_chain(&mut self) -> usize {
        let u = self.rng.unit();
        self.zipf_cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.chains.len() - 1)
    }

    /// Two independent requests against one chain's current instance:
    /// 75% mutations, 20% solves with fresh weights, 5% malformed.
    fn next_batch(&mut self) -> (usize, Vec<Planned>) {
        let c = self.pick_chain();
        let plans = (0..2)
            .map(|_| {
                let u = self.rng.unit();
                if u < 0.75 {
                    self.mutate(c)
                } else if u < 0.95 {
                    self.solve(c, false)
                } else if u < 0.975 {
                    self.solve(c, true)
                } else {
                    let base = match self.stale.len() {
                        0 => self.rng.next_u64(),
                        len => self.stale[self.rng.below(len)],
                    };
                    Planned {
                        kind: Kind::BadTicket,
                        request: Request::Mutate {
                            base,
                            delta: InstanceDelta::new().set_weight(0, 1.0),
                        },
                        expect: None,
                    }
                }
            })
            .collect();
        (c, plans)
    }

    fn solve(&mut self, c: usize, malformed: bool) -> Planned {
        let cur = &self.chains[c].state;
        let mut state = cur.clone();
        for w in state.weights.iter_mut() {
            *w = self.rng.range(0.5, 1.5);
        }
        let mut weights = state.weights.clone();
        if malformed {
            let v = self.rng.below(weights.len());
            weights[v] = f64::NAN;
        }
        Planned {
            kind: if malformed {
                Kind::BadWeight
            } else {
                Kind::Solve
            },
            request: Request::Solve {
                graph: state.graph(),
                costs: state.costs.clone(),
                weights,
            },
            expect: (!malformed).then_some(state),
        }
    }

    /// Two weight moves; every 5th mutation re-prices an edge; about 1 in
    /// 20 appends a vertex (attached by one edge) or adds an edge.
    fn mutate(&mut self, c: usize) -> Planned {
        self.mutations += 1;
        let rng = &mut self.rng;
        let cur = &self.chains[c].state;
        let n = cur.weights.len();
        let mut m = Mutation {
            weights: (0..2)
                .map(|_| (rng.below(n) as u32, rng.range(0.5, 1.5)))
                .collect(),
            cost: None,
            new_vertex: None,
            new_edge: None,
        };
        if self.mutations.is_multiple_of(COST_PERIOD) {
            m.cost = Some((rng.below(cur.edges.len()) as u32, rng.range(1.0, 2.0)));
        }
        if rng.below(20) == 0 {
            if rng.below(2) == 0 {
                m.new_vertex = Some(rng.range(0.5, 1.5));
                m.new_edge = Some((n as u32, rng.below(n) as u32, rng.range(1.0, 2.0)));
            } else {
                for _ in 0..16 {
                    let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
                    if u != v && !cur.has_edge(u, v) {
                        m.new_edge = Some((u, v, rng.range(1.0, 2.0)));
                        break;
                    }
                }
            }
        }
        Planned {
            kind: Kind::Mutate,
            request: Request::Mutate {
                base: self.chains[c].ticket,
                delta: m.delta(),
            },
            expect: Some(cur.mutated(&m)),
        }
    }

    /// Advance chain `c` to the last instance served in its batch and
    /// return the tickets the client no longer needs.
    fn commit(&mut self, c: usize, plans: &[Planned], tickets: &[Option<u64>]) -> Vec<u64> {
        let Some(last) = (0..plans.len())
            .rev()
            .find(|&i| plans[i].expect.is_some() && tickets[i].is_some())
        else {
            return Vec::new();
        };
        let keep = tickets[last].expect("chosen response was served");
        let mut forget: Vec<u64> = tickets.iter().flatten().copied().collect();
        forget.push(self.chains[c].ticket);
        forget.retain(|&t| t != keep);
        forget.sort_unstable();
        forget.dedup();
        self.chains[c] = Chain {
            state: plans[last].expect.clone().expect("chosen request is valid"),
            ticket: keep,
        };
        self.stale.extend(&forget);
        forget
    }
}

/// What one request produced, in the form both runs can compare.
#[derive(PartialEq)]
struct Outcome {
    /// `(ticket, coloring, max boundary)` or the error's debug text.
    served: Result<(u64, Coloring, f64), String>,
    cache: char,
    path: char,
}

fn from_response(r: &Response) -> Outcome {
    Outcome {
        served: match &r.outcome {
            Ok(s) => Ok((s.ticket, s.coloring.clone(), s.max_boundary)),
            Err(e) => Err(format!("{e:?}")),
        },
        cache: match r.record.cache {
            CacheEvent::Hit => 'h',
            CacheEvent::Miss => 'm',
            CacheEvent::Collision => 'c',
            CacheEvent::Poisoned => 'p',
            CacheEvent::NotConsulted => '-',
        },
        path: match r.record.path {
            ServePath::Cold => 'c',
            ServePath::Warm => 'w',
            ServePath::ColdFallback => 'f',
            ServePath::Rejected => 'r',
        },
    }
}

/// Audit one response to a request of `kind` whose valid form expects
/// `expect`. `Err` names the violation.
fn audit(kind: Kind, expect: Option<&State>, resp: &Response) -> Result<(), String> {
    match (expect, &resp.outcome) {
        (Some(state), Ok(served)) => {
            let path_ok = match kind {
                Kind::Solve => resp.record.path == ServePath::Cold,
                _ => matches!(resp.record.path, ServePath::Warm | ServePath::ColdFallback),
            };
            if !path_ok {
                return Err(format!("served by path {:?}", resp.record.path));
            }
            let mirror = state.mirror();
            let cost = mirror.check(&served.coloring, served.max_boundary)?;
            if kind == Kind::Mutate {
                let floor = mirror.lpt_floor();
                if cost > floor + 1e-9 * floor.max(1.0) {
                    return Err(format!("warm cost {cost} above the LPT floor {floor}"));
                }
            }
            let ticket =
                Fingerprint::of_parts(&state.graph(), &state.costs, &state.weights).combined();
            if served.ticket != ticket {
                return Err("ticket is not the served instance's fingerprint".into());
            }
            Ok(())
        }
        (Some(_), Err(e)) => Err(format!("valid request rejected: {e:?}")),
        (None, Ok(_)) => Err("malformed request was served".into()),
        (None, Err(e)) => {
            let typed = match kind {
                Kind::BadWeight => {
                    matches!(
                        e,
                        SolveError::Instance(InstanceError::NotFinite { what: "weights" })
                    ) && !resp.record.admitted
                }
                _ => matches!(e, SolveError::WarmStartMismatch { what: "ticket" }),
            };
            if typed && resp.record.path == ServePath::Rejected {
                Ok(())
            } else {
                Err(format!(
                    "malformed request got {e:?} via {:?}",
                    resp.record.path
                ))
            }
        }
    }
}

/// The service's request flow, re-driven from outside one layer at a time.
struct Redrive {
    cfg: ServiceConfig,
    cache: SolverCache,
    memo: BTreeMap<u64, Arc<(Instance, Coloring)>>,
}

impl Redrive {
    fn new(cfg: ServiceConfig) -> Self {
        Redrive {
            cache: SolverCache::new(cfg.cache_capacity),
            cfg,
            memo: BTreeMap::new(),
        }
    }

    fn lookup(
        &mut self,
        inst: &Instance,
        tr: &mut Trace,
    ) -> (Arc<mmb_core::api::SolverArtifacts>, char) {
        let p = self.cfg.pipeline.p;
        let ((artifacts, lookup), ms) = timed(|| self.cache.get_or_compute(inst, p));
        let event = match lookup {
            CacheLookup::Hit => 'h',
            CacheLookup::Miss => 'm',
            CacheLookup::Collision => 'c',
        };
        tr.add_ms(
            if event == 'h' {
                "cache.hit_ms"
            } else {
                "cache.miss_ms"
            },
            ms,
        );
        (artifacts, event)
    }

    fn build<'i>(
        &self,
        inst: &'i Instance,
        artifacts: Arc<mmb_core::api::SolverArtifacts>,
        tr: &mut Trace,
    ) -> Result<Solver<'i>, SolveError> {
        tr.span("build.ms", || {
            Solver::for_instance(inst)
                .classes(self.cfg.k)
                .config(self.cfg.pipeline.clone())
                .artifacts(artifacts)
                .build()
        })
    }

    fn serve(&mut self, req: Request, tr: &mut Trace) -> Outcome {
        let rejected = |e: SolveError, cache: char| Outcome {
            served: Err(format!("{e:?}")),
            cache,
            path: 'r',
        };
        match req {
            Request::Solve {
                graph,
                costs,
                weights,
            } => {
                let inst = match tr.span("instance.validate_ms", || {
                    Instance::new(graph, costs, weights)
                }) {
                    Ok(inst) => inst,
                    Err(e) => return rejected(e.into(), '-'),
                };
                let ticket = tr.span("fingerprint.ms", || inst.fingerprint().combined());
                let (artifacts, cache) = self.lookup(&inst, tr);
                if let Err(e) = self.build(&inst, Arc::clone(&artifacts), tr) {
                    return rejected(e, cache);
                }
                // The solve itself, one pipeline stage per span: the
                // theorem path under the grid, forest and BFS splitters.
                let splitter = Counting::new(auto_splitter(&inst).0);
                let cfg = &self.cfg.pipeline;
                let coloring = traced_direct(&inst, &splitter, artifacts.pi(), self.cfg.k, cfg, tr);
                drop(splitter);
                let max_boundary = coloring.max_boundary_cost(inst.graph(), inst.costs());
                if !coloring.is_strictly_balanced(inst.weights()) {
                    let defect = coloring.strict_balance_defect(inst.weights());
                    return rejected(SolveError::NotStrict { defect }, cache);
                }
                self.memo.insert(ticket, Arc::new((inst, coloring.clone())));
                Outcome {
                    served: Ok((ticket, coloring, max_boundary)),
                    cache,
                    path: 'c',
                }
            }
            Request::Mutate { base, delta } => {
                let Some(state) = self.memo.get(&base).cloned() else {
                    return rejected(SolveError::WarmStartMismatch { what: "ticket" }, '-');
                };
                let (inst, previous) = (&state.0, &state.1);
                let (artifacts, cache) = self.lookup(inst, tr);
                let solver = match self.build(inst, artifacts, tr) {
                    Ok(s) => s,
                    Err(e) => return rejected(e, cache),
                };
                // `resolve_delta` applies the delta itself; timing a
                // separate apply splits it out, and `resolve` keeps the rest.
                let (_, apply_ms) = timed(|| std::hint::black_box(delta.apply(inst)));
                tr.add_ms("delta.apply_ms", apply_ms);
                let ds = match tr.span("resolve.ms", || solver.resolve_delta(&delta, previous)) {
                    Ok(ds) => ds,
                    Err(e) => return rejected(e, cache),
                };
                tr.add_ms("resolve.ms", -apply_ms);
                tr.count(
                    if ds.warm {
                        "resolve.warm"
                    } else {
                        "resolve.fallbacks"
                    },
                    1.0,
                );
                let ticket = tr.span("fingerprint.ms", || ds.instance.fingerprint().combined());
                let out = Outcome {
                    served: Ok((ticket, ds.coloring.clone(), ds.max_boundary)),
                    cache,
                    path: if ds.warm { 'w' } else { 'f' },
                };
                self.memo
                    .insert(ticket, Arc::new((ds.instance, ds.coloring)));
                out
            }
        }
    }
}

fn sorted_events(outcomes: &[Outcome]) -> Vec<char> {
    let mut e: Vec<char> = outcomes.iter().map(|o| o.cache).collect();
    e.sort_unstable();
    e
}

/// Run `serve-churn`.
pub fn run(args: &Args) -> RunResult {
    let cfg = ServiceConfig::new(CHURN_K);
    // Set-up: generate the topologies several times (median; identical
    // fingerprints show the generator is deterministic), then admit each
    // one with a cold solve, one request per batch so the cache order is
    // deterministic.
    let mut gen_s = Vec::new();
    let mut fingerprints: Vec<Vec<u64>> = Vec::new();
    let mut bases = Vec::new();
    for _ in 0..SETUP_REPS {
        let ((states, fps), ms) = timed(|| {
            let states = topologies(args.seed, args.smoke);
            let fps: Vec<u64> = states
                .iter()
                .map(|s| Fingerprint::of_parts(&s.graph(), &s.costs, &s.weights).combined())
                .collect();
            (states, fps)
        });
        gen_s.push(ms / 1e3);
        fingerprints.push(fps);
        bases = states;
    }
    let mut correct = fingerprints.windows(2).all(|p| p[0] == p[1]);
    let mut errors: Vec<String> = Vec::new();
    let service = Service::new(cfg.clone());
    let mut redrive = args.trace.then(|| Redrive::new(cfg.clone()));
    let mut scratch = Trace::default();
    let (chains, warm_ms) = timed(|| {
        bases
            .into_iter()
            .map(|state| {
                let req = Request::Solve {
                    graph: state.graph(),
                    costs: state.costs.clone(),
                    weights: state.weights.clone(),
                };
                if let Some(rd) = redrive.as_mut() {
                    rd.serve(req.clone(), &mut scratch);
                }
                let resp = service
                    .serve(vec![req])
                    .pop()
                    .expect("one response per request");
                let ticket = resp.outcome.as_ref().map_or(0, |s| s.ticket);
                if let Err(e) = audit(Kind::Solve, Some(&state), &resp) {
                    errors.push(format!("warm-up: {e}"));
                    correct = false;
                }
                Chain { state, ticket }
            })
            .collect::<Vec<_>>()
    });
    let setup_s = median(&gen_s) + warm_ms / 1e3;
    let mut stream = Stream::new(args.seed, chains);
    let stats0 = redrive.as_ref().map(|rd| rd.cache.stats());

    // Measured phase: closed loop, one client, batches of two.
    let mut op_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut warm_lat = Vec::new();
    let mut boundaries = Vec::new();
    let mut wait_ms = Vec::new();
    let mut unattributed = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut tr_total = Trace::default();
    let (mut failed, mut batches, mut kinds) = (0u64, 0usize, [0u64; 4]);
    let mut rounds: Vec<Round> = Vec::new();
    let r0 = recognition_count();
    let start = Instant::now();
    loop {
        let (chain, plans) = stream.next_batch();
        let requests: Vec<Request> = plans.iter().map(|p| p.request.clone()).collect();
        let replay = redrive.is_some().then(|| requests.clone());
        let t = Instant::now();
        let responses = service.serve(requests);
        let latency = t.elapsed().as_secs_f64() * 1e3;
        rounds.push(Round {
            ops: vec![(0, latency); plans.len()],
            busy_ms: latency,
        });
        batches += 1;
        for (plan, resp) in plans.iter().zip(&responses) {
            op_ms.push(latency);
            kinds[plan.kind as usize] += 1;
            match plan.kind {
                Kind::Solve => cold_ms.push(latency),
                Kind::Mutate => warm_lat.push(latency),
                _ => {}
            }
            match audit(plan.kind, plan.expect.as_ref(), resp) {
                Ok(()) => {
                    if let Ok(s) = &resp.outcome {
                        boundaries.push(s.max_boundary);
                    }
                }
                Err(e) => {
                    errors.push(e);
                    failed += 1;
                }
            }
        }
        if let (Some(rd), Some(replay)) = (redrive.as_mut(), replay) {
            let (mut busy, mut traced_batch) = (0.0f64, 0.0);
            let mut outcomes = Vec::new();
            for req in replay {
                let mut tr = Trace::default();
                let (out, wall) = timed(|| rd.serve(req, &mut tr));
                busy = busy.max(tr.attributed_ms());
                traced_batch += wall;
                unattributed.push(wall - tr.attributed_ms());
                tr_total.absorb(&tr);
                outcomes.push(out);
            }
            wait_ms.push(latency - busy);
            overhead_ms.push(traced_batch - latency);
            let served: Vec<Outcome> = responses.iter().map(from_response).collect();
            let same_results = served
                .iter()
                .zip(&outcomes)
                .all(|(a, b)| a.served == b.served && a.path == b.path);
            if !same_results || sorted_events(&served) != sorted_events(&outcomes) {
                errors.push(format!("batch {batches}: traced replay differs"));
                correct = false;
            }
        }
        let tickets: Vec<Option<u64>> = responses
            .iter()
            .map(|r| r.outcome.as_ref().ok().map(|s| s.ticket))
            .collect();
        for t in stream.commit(chain, &plans, &tickets) {
            service.forget(t);
            if let Some(rd) = redrive.as_mut() {
                rd.memo.remove(&t);
            }
        }
        let done = if args.smoke {
            batches >= SMOKE_BATCHES
        } else {
            start.elapsed().as_secs_f64() >= args.seconds
        };
        if done {
            break;
        }
    }
    let attempted = op_ms.len() as u64;
    correct &= failed == 0;
    let stats = service.cache_stats();

    let mut details = vec![
        ("input_fingerprints", hex_list(&fingerprints[0])),
        ("setup_generation_s", num_list(&gen_s)),
        ("setup_warmup_s", num(warm_ms / 1e3)),
        ("batches", batches.to_string()),
        (
            "requests_solve_mutate_badweight_badticket",
            format!("[{},{},{},{}]", kinds[0], kinds[1], kinds[2], kinds[3]),
        ),
        (
            "cache_hits_misses_evictions",
            format!("[{},{},{}]", stats.hits, stats.misses, stats.evictions),
        ),
    ];
    let metrics = if let Some(rd) = &redrive {
        let ops = attempted.max(1) as f64;
        let s = rd.cache.stats();
        let s0 = stats0.unwrap_or_default();
        let (hits, misses) = ((s.hits - s0.hits) as f64, (s.misses - s0.misses) as f64);
        if (s.hits, s.misses, s.evictions) != (stats.hits, stats.misses, stats.evictions) {
            errors.push("traced cache counters differ".into());
            correct = false;
        }
        let warm = tr_total.counter("resolve.warm");
        let fallbacks = tr_total.counter("resolve.fallbacks");
        details.push(("unattributed_ms", num_list(&unattributed)));
        let mut m = crate::layer_metrics();
        for (name, value, _) in m.iter_mut() {
            *value = match *name {
                "cache.hit_ms" => tr_total.ms("cache.hit_ms") / hits.max(1.0),
                "cache.miss_ms" => tr_total.ms("cache.miss_ms") / misses.max(1.0),
                "cache.hits" => hits / ops,
                "cache.misses" => misses / ops,
                "cache.evictions" => (s.evictions - s0.evictions) as f64 / ops,
                "cache.hit_ratio" => hits / (hits + misses).max(1.0),
                "resolve.warm_frac" => warm / (warm + fallbacks).max(1.0),
                "recognize.calls" => (recognition_count() - r0) as f64 / ops,
                "service.wait_ms" => median(&wait_ms),
                "service.tickets" => service.known_tickets() as f64,
                "service.cold_p50_ms" => median(&cold_ms),
                "service.warm_p50_ms" => median(&warm_lat),
                "trace.overhead_ms" => median(&overhead_ms),
                "trace.unattributed_ms" => median(&unattributed),
                // Spans and counters are named after their metric.
                name => (tr_total.ms(name) + tr_total.counter(name)) / ops,
            };
        }
        m
    } else {
        // Batches differ in content (a cold solve costs several mutations),
        // so windows span many batches.
        end_to_end(setup_s, 1, &rounds, 10, TAIL_Q, &boundaries, &mut details)
    };
    if !errors.is_empty() {
        errors.truncate(20);
        let quoted: Vec<String> = errors.iter().map(|e| format!("{e:?}")).collect();
        details.push(("errors", format!("[{}]", quoted.join(","))));
    }
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        details,
    }
}
