//! The serving gate: a seeded churn trace replayed against the
//! [`Service`] front end, cold vs warm.
//!
//! The trace models the traffic the warm path exists for: repeat
//! topologies. Per base topology (20 × 20 and 24 × 24 grids, `k = 4`),
//! it serves a stream of **cold** requests (full solves of freshly
//! admitted instances with perturbed weights — the artifact cache is
//! live, which *biases the comparison against the warm path*) and then a
//! stream of **warm** `Mutate` requests (seeded `InstanceDelta` weight
//! churn, plus a re-priced edge every few rounds, re-solved from the
//! incumbent coloring). Latencies come from the service's own
//! per-request serving records.
//!
//! Every warm response is re-audited here, outside the service: the
//! served coloring must be total and strictly balanced against an
//! independently maintained weight mirror, its reported cost must match a
//! recomputation, and that cost must not exceed an independently computed
//! LPT floor — the strict-balance + cost-monotonicity gate the resilient
//! ladder serves through, recomputed from scratch so a service-side
//! bookkeeping bug cannot vouch for itself. On top of the audit, warm
//! serving must be at least 5× faster than cold in aggregate, and the
//! trace must hit and miss the artifact cache.

use std::sync::OnceLock;

use mmb_core::api::InstanceDelta;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::{Coloring, Graph};
use mmb_service::{Request, Response, ServePath, Service, ServiceConfig};

/// Grid sides of the base topologies.
const SIDES: [usize; 2] = [20, 24];
/// Cold rounds, then warm rounds, per topology.
const ROUNDS: usize = 6;
/// Number of classes `k` served throughout.
const K: usize = 4;
/// Every `COST_TWEAK_PERIOD`-th warm round also re-prices one edge,
/// forcing an artifact rebuild on the next lookup — weight-only churn
/// must not be the only traffic the warm path is ever measured on.
const COST_TWEAK_PERIOD: usize = 5;

/// The replay-deterministic part of one topology's trace.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    /// Mutates served by the warm repair path.
    warm_serves: usize,
    /// Mutates that fell back to a cold re-solve after the gate rejected
    /// the repair.
    cold_fallbacks: usize,
    /// Every served coloring was total and strictly balanced against the
    /// independent weight mirror.
    strict_ok: bool,
    /// Every served cost matched a recomputation and stayed within the
    /// independent LPT floor.
    monotone_ok: bool,
    /// Artifact-cache hits.
    cache_hits: u64,
    /// Artifact-cache misses.
    cache_misses: u64,
}

/// One topology's trace: its outcome plus the summed serving latencies
/// (wall-clock, so excluded from replay comparisons).
struct Trace {
    outcome: Outcome,
    cold_ms: f64,
    warm_ms: f64,
}

/// splitmix64 — the repo's standard seeded stream (same constants as
/// `FaultSchedule::chaos`); the churn trace must replay bit-identically.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded weight in `[0.5, 1.5)`.
fn churn_weight(state: &mut u64) -> f64 {
    0.5 + (splitmix(state) % 1000) as f64 / 1000.0
}

/// Independent LPT floor: vertices in descending weight order, each to
/// the lightest class — strictly balanced in any order, and the
/// monotonicity bound every served coloring is audited against.
fn lpt_floor(g: &Graph, costs: &[f64], weights: &[f64], k: usize) -> f64 {
    let mut order: Vec<u32> = (0..g.num_vertices() as u32).collect();
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut loads = vec![0.0f64; k];
    let mut chi = Coloring::new_uncolored(g.num_vertices(), k);
    for &v in &order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.total_cmp(b))
            .map(|(c, _)| c)
            .unwrap_or(0);
        loads[lightest] += weights[v as usize];
        chi.set(v, lightest as u32);
    }
    chi.max_boundary_cost(g, costs)
}

/// Audit one served response against independently maintained mirrors:
/// `(strict, monotone)`.
fn audit(resp: &Response, g: &Graph, costs: &[f64], weights: &[f64], k: usize) -> (bool, bool) {
    let Ok(served) = &resp.outcome else {
        return (false, false);
    };
    let strict = served.coloring.is_total() && served.coloring.is_strictly_balanced(weights);
    let recomputed = served.coloring.max_boundary_cost(g, costs);
    let floor = lpt_floor(g, costs, weights, k);
    let tol = 1e-9 * floor.max(1e-300);
    let monotone = (recomputed - served.max_boundary).abs()
        <= 1e-9 * recomputed.max(1e-300) + 1e-12
        && recomputed <= floor + tol;
    (strict, monotone)
}

/// Replay the churn trace for one base topology on a fresh service.
fn replay_topology(side: usize) -> Trace {
    let mut seed = 0xC0FF_EE00 ^ (side as u64);
    let g = GridGraph::lattice(&[side, side]).graph;
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut costs = vec![1.0; m];
    let mut weights: Vec<f64> = (0..n).map(|_| churn_weight(&mut seed)).collect();
    let service = Service::new(ServiceConfig::new(K));

    // Cold stream: freshly admitted instances, perturbed weights, same
    // topology. The last one seeds the warm stream.
    let mut cold_ms = 0.0;
    let mut ticket = 0u64;
    for round in 0..ROUNDS {
        let mut w = weights.clone();
        let v = (splitmix(&mut seed) % n as u64) as usize;
        w[v] = churn_weight(&mut seed);
        let out = service.serve(vec![Request::Solve {
            graph: g.clone(),
            costs: costs.clone(),
            weights: w.clone(),
        }]);
        let served = out[0]
            .outcome
            .as_ref()
            .expect("cold churn solve must serve a valid grid");
        cold_ms += out[0].record.elapsed_millis;
        if round + 1 == ROUNDS {
            ticket = served.ticket;
            weights = w;
        }
    }

    // Warm stream: seeded deltas against the incumbent ticket.
    let mut warm_ms = 0.0;
    let (mut warm_serves, mut cold_fallbacks) = (0, 0);
    let (mut strict_ok, mut monotone_ok) = (true, true);
    for round in 0..ROUNDS {
        let mut delta = InstanceDelta::new();
        for _ in 0..2 {
            let v = (splitmix(&mut seed) % n as u64) as u32;
            let w = churn_weight(&mut seed);
            weights[v as usize] = w;
            delta = delta.set_weight(v, w);
        }
        if round % COST_TWEAK_PERIOD == COST_TWEAK_PERIOD - 1 {
            let e = (splitmix(&mut seed) % m as u64) as u32;
            let c = 1.0 + (splitmix(&mut seed) % 100) as f64 / 100.0;
            costs[e as usize] = c;
            delta = delta.set_cost(e, c);
        }
        let out = service.serve(vec![Request::Mutate {
            base: ticket,
            delta,
        }]);
        let resp = &out[0];
        let served = resp.outcome.as_ref().expect("warm churn mutate must serve");
        warm_ms += resp.record.elapsed_millis;
        match resp.record.path {
            ServePath::Warm => warm_serves += 1,
            ServePath::ColdFallback => cold_fallbacks += 1,
            other => panic!("grid {side}: mutate served by unexpected path {other:?}"),
        }
        let (strict, monotone) = audit(resp, &g, &costs, &weights, K);
        strict_ok &= strict;
        monotone_ok &= monotone;
        ticket = served.ticket;
    }

    let stats = service.cache_stats();
    Trace {
        outcome: Outcome {
            warm_serves,
            cold_fallbacks,
            strict_ok,
            monotone_ok,
            cache_hits: stats.hits,
            cache_misses: stats.misses,
        },
        cold_ms,
        warm_ms,
    }
}

/// The first replay of every topology, shared by both tests so the timed
/// replay runs once and uncontended.
fn first_replay() -> &'static [Trace] {
    static TRACES: OnceLock<Vec<Trace>> = OnceLock::new();
    TRACES.get_or_init(|| SIDES.iter().map(|&side| replay_topology(side)).collect())
}

#[test]
fn quick_churn_passes_the_serving_gate() {
    let traces = first_replay();
    for (side, t) in SIDES.iter().zip(traces) {
        let o = &t.outcome;
        assert!(o.strict_ok, "grid {side}: served a non-strict coloring");
        assert!(o.monotone_ok, "grid {side}: served above the LPT floor");
        assert!(o.warm_serves >= 1, "grid {side}: warm path never taken");
        assert!(
            t.cold_ms > 0.0 && t.warm_ms > 0.0,
            "grid {side}: serving latencies must be positive ({} / {} ms)",
            t.cold_ms,
            t.warm_ms
        );
    }
    let hits: u64 = traces.iter().map(|t| t.outcome.cache_hits).sum();
    let misses: u64 = traces.iter().map(|t| t.outcome.cache_misses).sum();
    assert!(hits >= 1, "the trace never hit the artifact cache");
    assert!(misses >= 1, "the trace never missed the artifact cache");
    // Every topology serves the same number of rounds each way, so the
    // ratio of summed latencies is the ratio of mean latencies.
    let cold: f64 = traces.iter().map(|t| t.cold_ms).sum();
    let warm: f64 = traces.iter().map(|t| t.warm_ms).sum();
    let speedup = cold / warm;
    assert!(
        speedup >= 5.0,
        "warm serving must be ≥ 5× faster than cold in aggregate, got {speedup:.2}× \
         ({cold:.3} ms cold vs {warm:.3} ms warm)"
    );
}

#[test]
fn churn_trace_is_seeded_deterministic() {
    // A second replay serves the same paths, audit verdicts and cache
    // traffic; only the wall-clock latencies may differ.
    for (side, t) in SIDES.iter().zip(first_replay()) {
        assert_eq!(
            replay_topology(*side).outcome,
            t.outcome,
            "grid {side}: the churn trace did not replay"
        );
    }
}
