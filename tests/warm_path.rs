//! Warm-vs-cold differential suite: the warm path must be a pure
//! acceleration, never a quality or correctness regression.
//!
//! Over every quick-corpus entry:
//!
//! - `Solver::resolve_delta` under seeded weight (and occasional cost)
//!   churn, on twelve seeds, serves a total, strictly balanced coloring
//!   whose cost is no worse than a from-scratch solve of the mutated
//!   instance (up to fp tolerance). The gate guarantees only the floor;
//!   this is the measured quality of the repair.
//! - A structural delta (a re-weighted vertex, an appended vertex on one
//!   edge, an edge between two non-adjacent vertices) serves a total,
//!   strictly balanced coloring on the grown instance, no worse than the
//!   LPT floor.
//! - A solver built from cached artifacts (cache hit) produces a coloring
//!   bit-identical to one built cold (cache miss) — reusing recognition,
//!   `π`, and `‖c‖_p` must not perturb a single decision downstream.

use mmb_core::api::{CacheLookup, InstanceDelta, Solver, SolverCache};
use mmb_core::pipeline::PipelineConfig;
use mmb_instances::corpus::Corpus;

/// splitmix64 — seeded churn, replayable.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn entry_config(p: f64) -> PipelineConfig {
    PipelineConfig {
        p: p.max(1.5),
        ..PipelineConfig::default()
    }
}

#[test]
fn resolve_delta_matches_fresh_solves_across_the_corpus() {
    let corpus = Corpus::quick();
    for start in 0x5eed_0001u64..=0x5eed_000c {
        let mut seed = start;
        let mut warm_serves = 0usize;
        for e in &corpus {
            let inst = &e.instance;
            let n = inst.num_vertices();
            let cfg = entry_config(e.p);
            let name = format!("{} (seed {start:#x})", e.name);
            let solver = Solver::for_instance(inst)
                .classes(e.k)
                .config(cfg.clone())
                .build()
                .unwrap_or_else(|err| panic!("{name}: base build failed: {err}"));
            let base = solver.solve();

            // Seeded churn: three weight moves, one cost re-price.
            let mut delta = InstanceDelta::new();
            for _ in 0..3 {
                let v = (splitmix(&mut seed) % n as u64) as u32;
                let w = 0.5 + (splitmix(&mut seed) % 1000) as f64 / 500.0;
                delta = delta.set_weight(v, w);
            }
            let m = inst.graph().num_edges();
            let ec = (splitmix(&mut seed) % m as u64) as u32;
            delta = delta.set_cost(ec, inst.costs()[ec as usize] * 1.25);

            let warm = solver
                .resolve_delta(&delta, &base.coloring)
                .unwrap_or_else(|err| panic!("{name}: resolve_delta failed: {err}"));
            if warm.warm {
                warm_serves += 1;
            }

            // Validity: total, strictly balanced, consistent cost accounting.
            assert!(warm.coloring.is_total(), "{name}: partial warm coloring");
            assert!(
                warm.coloring.is_strictly_balanced(warm.instance.weights()),
                "{name}: warm coloring violates strict balance"
            );
            let recomputed = warm
                .coloring
                .max_boundary_cost(warm.instance.graph(), warm.instance.costs());
            assert!(
                (recomputed - warm.max_boundary).abs() <= 1e-9 * recomputed.max(1.0),
                "{name}: served cost {} disagrees with recomputation {recomputed}",
                warm.max_boundary
            );

            // Quality: no worse than solving the mutated instance cold.
            let fresh = Solver::for_instance(&warm.instance)
                .classes(e.k)
                .config(cfg)
                .build()
                .unwrap_or_else(|err| panic!("{name}: fresh build failed: {err}"))
                .solve();
            assert!(
                warm.max_boundary <= fresh.max_boundary * (1.0 + 1e-9),
                "{name}: warm re-solve cost {} worse than fresh {}",
                warm.max_boundary,
                fresh.max_boundary
            );
        }
        assert!(
            warm_serves * 2 >= corpus.len(),
            "seed {start:#x}: warm repair path taken on only {warm_serves}/{} \
             entries — the suite is mostly testing the cold fallback",
            corpus.len()
        );
    }
}

#[test]
fn structural_deltas_serve_valid_colorings() {
    let corpus = Corpus::quick();
    for e in &corpus {
        let inst = &e.instance;
        let g = inst.graph();
        let (n, m) = (g.num_vertices(), g.num_edges());
        let solver = Solver::for_instance(inst)
            .classes(e.k)
            .config(entry_config(e.p))
            .build()
            .unwrap_or_else(|err| panic!("{}: base build failed: {err}", e.name));
        let base = solver.solve();

        // Vertex 0 and the first vertex not adjacent to it.
        let far = (1..n as u32)
            .find(|&v| {
                g.neighbors(0)
                    .binary_search_by_key(&v, |&(nb, _)| nb)
                    .is_err()
            })
            .unwrap_or_else(|| panic!("{}: vertex 0 is adjacent to every vertex", e.name));
        let last = (n - 1) as u32;
        let delta = InstanceDelta::new()
            .set_weight(last, 2.0 * inst.weights()[last as usize] + 1.0)
            .add_vertex(inst.max_weight())
            .add_edge(n as u32, last, 1.0)
            .add_edge(0, far, 1.0);
        let warm = solver
            .resolve_delta(&delta, &base.coloring)
            .unwrap_or_else(|err| panic!("{}: resolve_delta failed: {err}", e.name));

        let grown = &warm.instance;
        assert_eq!(grown.num_vertices(), n + 1, "{}: vertex count", e.name);
        assert_eq!(grown.num_edges(), m + 2, "{}: edge count", e.name);
        assert!(warm.coloring.is_total(), "{}: partial coloring", e.name);
        assert!(
            warm.coloring.is_strictly_balanced(grown.weights()),
            "{}: coloring violates strict balance",
            e.name
        );
        let recomputed = warm
            .coloring
            .max_boundary_cost(grown.graph(), grown.costs());
        assert_eq!(
            warm.max_boundary.to_bits(),
            recomputed.to_bits(),
            "{}: served cost {} disagrees with recomputation {recomputed}",
            e.name,
            warm.max_boundary
        );
        assert!(
            warm.max_boundary <= warm.floor_cost * (1.0 + 1e-9),
            "{}: served cost {} above the floor {}",
            e.name,
            warm.max_boundary,
            warm.floor_cost
        );
    }
}

#[test]
fn cache_hit_solves_are_bit_identical_to_cache_miss_solves() {
    let corpus = Corpus::quick();
    let mut cache = SolverCache::new(corpus.len());
    for e in &corpus {
        let inst = &e.instance;
        let cfg = entry_config(e.p);

        // Cold: no artifacts.
        let cold = Solver::for_instance(inst)
            .classes(e.k)
            .config(cfg.clone())
            .build()
            .unwrap_or_else(|err| panic!("{}: cold build failed: {err}", e.name))
            .solve();

        // Prime the cache, then build warm off the hit.
        let (_, first) = cache.get_or_compute(inst, cfg.p);
        assert_eq!(
            first,
            CacheLookup::Miss,
            "{}: expected a cold lookup",
            e.name
        );
        let (artifacts, second) = cache.get_or_compute(inst, cfg.p);
        assert_eq!(
            second,
            CacheLookup::Hit,
            "{}: expected a warm lookup",
            e.name
        );

        let warm = Solver::for_instance(inst)
            .classes(e.k)
            .config(cfg)
            .artifacts(artifacts)
            .build()
            .unwrap_or_else(|err| panic!("{}: warm build failed: {err}", e.name))
            .solve();

        assert_eq!(
            cold.coloring, warm.coloring,
            "{}: artifact reuse changed the coloring",
            e.name
        );
        assert_eq!(
            cold.max_boundary.to_bits(),
            warm.max_boundary.to_bits(),
            "{}: artifact reuse changed the served cost",
            e.name
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.hits as usize, corpus.len());
    assert_eq!(stats.misses as usize, corpus.len());
    assert_eq!(stats.collisions, 0);
}
