//! The `reproduce churn` load test: a seeded churn trace replayed against
//! the `mmb-service` front end, measuring cold vs warm serving latency.
//!
//! The trace models the serving workload the warm path exists for:
//! repeat-topology traffic. Per base topology, the harness serves a
//! stream of **cold** requests (full pipeline solves of freshly admitted
//! instances with perturbed weights — the artifact cache is live, which
//! *biases the comparison against the warm path*) and a stream of
//! **warm** requests (seeded `InstanceDelta` weight churn, plus a cost
//! tweak every few rounds, re-solved from the incumbent coloring via
//! `Solver::resolve_delta`). Latencies come from the service's own
//! per-request [`ServingRecord`](mmb_service::ServingRecord)s.
//!
//! Every warm response is re-audited here, outside the service: the
//! served coloring must be total and strictly balanced against an
//! independently maintained weight mirror, and its cost must not exceed
//! an independently computed LPT floor — the same
//! strict-balance + cost-monotonicity gate the resilient ladder serves
//! through, recomputed from scratch so a service-side bookkeeping bug
//! cannot vouch for itself.
//!
//! The emitted document (`BENCH_7.json`, schema `"mmb-bench-7"`) is
//! checked by [`validate_churn_json`]: per-row positivity and speedup
//! consistency, every audit flag true, live cache traffic, and the
//! headline gate — **warm serving at least 5× faster than cold** in
//! aggregate.

use mmb_core::api::InstanceDelta;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::{Coloring, Graph};
use mmb_service::{Request, Response, ServePath, Service, ServiceConfig};

use crate::perf::{parse_json, Json};
use crate::table::Table;

/// Grid sides of the base topologies (full mode).
const FULL_SIDES: [usize; 2] = [32, 48];
/// Grid sides under `--quick`.
const QUICK_SIDES: [usize; 2] = [20, 24];
/// Churn rounds per topology (full / quick).
const FULL_ROUNDS: usize = 40;
const QUICK_ROUNDS: usize = 6;
/// Number of classes `k` served throughout.
const CHURN_K: usize = 4;
/// Every `COST_TWEAK_PERIOD`-th round also re-prices one edge, forcing
/// an artifact rebuild on the next lookup — weight-only churn must not
/// be the only traffic the warm path is ever measured on.
const COST_TWEAK_PERIOD: usize = 5;

/// One base topology's cold/warm measurement.
#[derive(Clone, Debug)]
pub struct ChurnRow {
    /// Row label (`grid32x32`, …).
    pub name: String,
    /// Vertex count.
    pub n: usize,
    /// Classes served.
    pub k: usize,
    /// Churn rounds measured.
    pub rounds: usize,
    /// Mean cold serving latency (full pipeline solve), milliseconds.
    pub cold_ms: f64,
    /// Mean warm serving latency (delta re-solve), milliseconds.
    pub warm_ms: f64,
    /// `cold_ms / warm_ms`.
    pub speedup: f64,
    /// Responses served by the warm repair path (`ServePath::Warm`).
    pub warm_serves: usize,
    /// Responses that fell back to a cold re-solve after the gate
    /// rejected the repair.
    pub cold_fallbacks: usize,
    /// Every served coloring was total and strictly balanced against the
    /// independent weight mirror.
    pub strict_ok: bool,
    /// Every served cost was within the independently computed LPT
    /// floor, and the served `max_boundary` matched a recomputation.
    pub monotone_ok: bool,
}

/// The full churn report; serialized as `BENCH_7.json`.
#[derive(Clone, Debug)]
pub struct ChurnReport {
    /// `"full"` or `"quick"`.
    pub mode: &'static str,
    /// Per-topology rows.
    pub rows: Vec<ChurnRow>,
    /// Mean cold latency across rows, milliseconds.
    pub agg_cold_ms: f64,
    /// Mean warm latency across rows, milliseconds.
    pub agg_warm_ms: f64,
    /// `agg_cold_ms / agg_warm_ms` — the headline, gated ≥ 5.
    pub agg_speedup: f64,
    /// Artifact-cache hits summed over the trace.
    pub cache_hits: u64,
    /// Artifact-cache misses summed over the trace.
    pub cache_misses: u64,
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

/// Audit one served response against independently maintained mirrors.
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

/// Run the churn trace for one base topology.
fn run_topology(side: usize, rounds: usize) -> (ChurnRow, u64, u64) {
    let name = format!("grid{side}x{side}");
    let mut seed = 0xC0FF_EE00 ^ (side as u64);

    let grid = GridGraph::lattice(&[side, side]);
    let g = grid.graph.clone();
    let n = g.num_vertices();
    let m = g.num_edges();
    let mut costs = vec![1.0; m];
    let mut weights: Vec<f64> = (0..n).map(|_| churn_weight(&mut seed)).collect();

    let service = Service::new(ServiceConfig::new(CHURN_K));

    // Cold stream: freshly admitted instances, perturbed weights, same
    // topology (the artifact cache warms after the first request —
    // deliberately biasing the cold number downward).
    let mut cold_total = 0.0;
    let mut ticket = 0u64;
    for round in 0..rounds {
        let mut w = weights.clone();
        let v = (splitmix(&mut seed) % n as u64) as usize;
        w[v] = churn_weight(&mut seed);
        let out = service.serve(vec![Request::Solve {
            graph: g.clone(),
            costs: costs.clone(),
            weights: w.clone(),
        }]);
        let resp = &out[0];
        let served = resp
            .outcome
            .as_ref()
            .expect("cold churn solve must serve a valid grid");
        cold_total += resp.record.elapsed_millis;
        if round + 1 == rounds {
            // The last cold instance seeds the warm stream.
            ticket = served.ticket;
            weights = w;
        }
    }
    let cold_ms = cold_total / rounds as f64;

    // Warm stream: seeded deltas against the incumbent ticket.
    let mut warm_total = 0.0;
    let mut warm_serves = 0usize;
    let mut cold_fallbacks = 0usize;
    let mut strict_ok = true;
    let mut monotone_ok = true;
    for round in 0..rounds {
        let mut delta = InstanceDelta::new();
        // A couple of weight moves per round…
        for _ in 0..2 {
            let v = (splitmix(&mut seed) % n as u64) as u32;
            let w = churn_weight(&mut seed);
            weights[v as usize] = w;
            delta = delta.set_weight(v, w);
        }
        // …and an occasional re-priced edge.
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
        warm_total += resp.record.elapsed_millis;
        match resp.record.path {
            ServePath::Warm => warm_serves += 1,
            ServePath::ColdFallback => cold_fallbacks += 1,
            other => panic!("mutate served by unexpected path {other:?}"),
        }
        let (strict, monotone) = audit(resp, &g, &costs, &weights, CHURN_K);
        strict_ok &= strict;
        monotone_ok &= monotone;
        ticket = served.ticket;
    }
    let warm_ms = warm_total / rounds as f64;

    let stats = service.cache_stats();
    (
        ChurnRow {
            name,
            n,
            k: CHURN_K,
            rounds,
            cold_ms,
            warm_ms,
            speedup: cold_ms / warm_ms.max(1e-12),
            warm_serves,
            cold_fallbacks,
            strict_ok,
            monotone_ok,
        },
        stats.hits,
        stats.misses,
    )
}

/// Replay the churn trace and assemble the report.
pub fn run_churn(quick: bool) -> ChurnReport {
    let (sides, rounds) = if quick {
        (QUICK_SIDES, QUICK_ROUNDS)
    } else {
        (FULL_SIDES, FULL_ROUNDS)
    };
    let mut rows = Vec::new();
    let mut cache_hits = 0u64;
    let mut cache_misses = 0u64;
    for side in sides {
        let (row, hits, misses) = run_topology(side, rounds);
        rows.push(row);
        cache_hits += hits;
        cache_misses += misses;
    }
    let agg_cold_ms = rows.iter().map(|r| r.cold_ms).sum::<f64>() / rows.len() as f64;
    let agg_warm_ms = rows.iter().map(|r| r.warm_ms).sum::<f64>() / rows.len() as f64;
    ChurnReport {
        mode: if quick { "quick" } else { "full" },
        rows,
        agg_cold_ms,
        agg_warm_ms,
        agg_speedup: agg_cold_ms / agg_warm_ms.max(1e-12),
        cache_hits,
        cache_misses,
    }
}

/// Full round-trip float serialization — the validator recomputes the
/// speedup from the serialized latencies, so rounding would manufacture
/// spurious inconsistencies.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

impl ChurnReport {
    /// Serialize to the `BENCH_7.json` schema (`"mmb-bench-7"`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"mmb-bench-7\",\n");
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                concat!(
                    "    {{ \"name\": \"{}\", \"n\": {}, \"k\": {}, \"rounds\": {}, ",
                    "\"cold_ms\": {}, \"warm_ms\": {}, \"speedup\": {}, ",
                    "\"warm_serves\": {}, \"cold_fallbacks\": {}, ",
                    "\"strict_ok\": {}, \"monotone_ok\": {} }}{}\n"
                ),
                r.name,
                r.n,
                r.k,
                r.rounds,
                num(r.cold_ms),
                num(r.warm_ms),
                num(r.speedup),
                r.warm_serves,
                r.cold_fallbacks,
                r.strict_ok,
                r.monotone_ok,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            concat!(
                "  \"aggregate\": {{ \"cold_ms\": {}, \"warm_ms\": {}, ",
                "\"speedup\": {} }},\n"
            ),
            num(self.agg_cold_ms),
            num(self.agg_warm_ms),
            num(self.agg_speedup),
        ));
        s.push_str(&format!(
            "  \"cache\": {{ \"hits\": {}, \"misses\": {} }}\n",
            self.cache_hits, self.cache_misses
        ));
        s.push_str("}\n");
        s
    }

    /// Printable summary table.
    pub fn summary(&self) -> Table {
        let mut t = Table::new(
            format!(
                "CHURN ({} mode): cold vs warm serving latency on repeat-topology \
                 traffic (gate: aggregate speedup ≥ 5, every serve strict + monotone)",
                self.mode
            ),
            &[
                "topology", "n", "k", "rounds", "cold ms", "warm ms", "speedup", "warm",
                "fallback", "strict", "monotone",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.name.clone(),
                r.n.to_string(),
                r.k.to_string(),
                r.rounds.to_string(),
                crate::fmt(r.cold_ms),
                crate::fmt(r.warm_ms),
                crate::fmt(r.speedup),
                r.warm_serves.to_string(),
                r.cold_fallbacks.to_string(),
                r.strict_ok.to_string(),
                r.monotone_ok.to_string(),
            ]);
        }
        t.note(format!(
            "aggregate: cold {} ms, warm {} ms, speedup {}×; cache {} hits / {} misses",
            crate::fmt(self.agg_cold_ms),
            crate::fmt(self.agg_warm_ms),
            crate::fmt(self.agg_speedup),
            self.cache_hits,
            self.cache_misses
        ));
        t
    }
}

/// Validate a `BENCH_7.json` document: schema tag, non-empty rows with
/// positive finite latencies and a speedup consistent with them, every
/// audit flag true, at least one warm serve per row, live cache traffic,
/// and the headline aggregate speedup ≥ 5.
pub fn validate_churn_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    let schema = doc.get("schema").ok_or("missing \"schema\"")?;
    if schema != &Json::Str("mmb-bench-7".into()) {
        return Err(format!("unexpected schema tag: {schema:?}"));
    }
    doc.get("mode").ok_or("missing \"mode\"")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("missing or non-array \"rows\"")?;
    if rows.is_empty() {
        return Err("\"rows\" must not be empty".into());
    }
    for (i, row) in rows.iter().enumerate() {
        for key in ["name", "n", "k", "rounds"] {
            row.get(key)
                .ok_or_else(|| format!("rows[{i}] missing \"{key}\""))?;
        }
        let mut nums = [0.0f64; 3];
        for (slot, key) in nums.iter_mut().zip(["cold_ms", "warm_ms", "speedup"]) {
            let x = row
                .get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("rows[{i}].{key} must be a finite number"))?;
            if x <= 0.0 {
                return Err(format!("rows[{i}].{key} must be positive, got {x}"));
            }
            *slot = x;
        }
        let implied = nums[0] / nums[1];
        if (implied - nums[2]).abs() > 1e-6 * implied.max(1.0) {
            return Err(format!(
                "rows[{i}].speedup {} inconsistent with cold/warm {}",
                nums[2], implied
            ));
        }
        let warm_serves = row
            .get("warm_serves")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("rows[{i}].warm_serves must be a number"))?;
        if warm_serves < 1.0 {
            return Err(format!(
                "rows[{i}] never took the warm path — the trace tests nothing"
            ));
        }
        for key in ["strict_ok", "monotone_ok"] {
            match row.get(key) {
                Some(Json::Bool(true)) => {}
                Some(Json::Bool(false)) => {
                    return Err(format!("rows[{i}].{key} is false: audit gate failed"))
                }
                _ => return Err(format!("rows[{i}].{key} must be a boolean")),
            }
        }
    }
    let agg = doc.get("aggregate").ok_or("missing \"aggregate\"")?;
    let speedup = agg
        .get("speedup")
        .and_then(Json::as_num)
        .ok_or("aggregate.speedup must be a finite number")?;
    if speedup < 5.0 {
        return Err(format!(
            "headline gate: warm serving must be ≥ 5× faster than cold, got {speedup:.2}×"
        ));
    }
    let cache = doc.get("cache").ok_or("missing \"cache\"")?;
    for key in ["hits", "misses"] {
        let x = cache
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("cache.{key} must be a number"))?;
        if x < 1.0 {
            return Err(format!(
                "cache.{key} is {x}: the trace never exercised the cache"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_churn_round_trips_and_validates() {
        let report = run_churn(true);
        assert_eq!(report.rows.len(), QUICK_SIDES.len());
        for row in &report.rows {
            assert!(row.strict_ok, "{}: served non-strict coloring", row.name);
            assert!(row.monotone_ok, "{}: served above the floor", row.name);
            assert!(row.warm_serves >= 1, "{}: warm path never taken", row.name);
        }
        let json = report.to_json();
        validate_churn_json(&json).expect("fresh quick report must validate");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let good = run_churn(true).to_json();
        // Schema tag.
        let bad = good.replace("mmb-bench-7", "mmb-bench-6");
        assert!(validate_churn_json(&bad).is_err());
        // Audit flag flipped.
        let bad = good.replace("\"strict_ok\": true", "\"strict_ok\": false");
        assert!(validate_churn_json(&bad).is_err());
        // Empty rows.
        assert!(validate_churn_json(
            "{ \"schema\": \"mmb-bench-7\", \"mode\": \"quick\", \"rows\": [] }"
        )
        .is_err());
    }

    #[test]
    fn churn_trace_is_seeded_deterministic() {
        // The audit flags and path counts must replay exactly; latencies
        // are wall-clock and excluded.
        let a = run_churn(true);
        let b = run_churn(true);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.warm_serves, rb.warm_serves);
            assert_eq!(ra.cold_fallbacks, rb.cold_fallbacks);
            assert_eq!(
                (ra.strict_ok, ra.monotone_ok),
                (rb.strict_ok, rb.monotone_ok)
            );
        }
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(a.cache_misses, b.cache_misses);
    }
}
