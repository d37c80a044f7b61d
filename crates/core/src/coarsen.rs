//! The coarsening cascade: heavy-edge matching, contraction, and
//! coloring projection, shared between the multilevel baseline and the
//! pipeline's large-`n` path.
//!
//! A [`CoarseningFront`] contracts a host graph level by level — each
//! level a heavy-edge matching (expensive edges become internal and can
//! never be cut) followed by a contraction that sums vertex weights and
//! parallel-edge costs — until the graph is at most `target_vertices`
//! large or no matching makes progress. A coloring of the coarsest graph
//! then projects back to the host through the stored fine→coarse maps
//! ([`CoarseningFront::project_to_host`]), with a caller-supplied
//! refinement hook (typically [`crate::refine::refine`]) applied at every
//! intermediate level.
//!
//! Everything is **seeded-deterministic**: the matching order is a
//! `StdRng` shuffle from [`CoarsenParams::seed`] (one generator threaded
//! through all levels), ties in edge cost break on neighbor id, and the
//! contraction gathers each coarse vertex's edges in one pass and sums
//! every coarse edge's costs in ascending edge-id order — no hash map, no
//! global sort, no iteration-order dependence. Two builds from the same
//! inputs are bit-identical, and the `Multilevel` baseline that this code
//! was lifted from is pinned to its historical colorings by
//! `tests/multilevel_golden.rs`.
//!
//! Memory: each level's graph, costs, weights, and map are charged to the
//! thread-local [`Workspace`] as arena bytes while the front is alive, so
//! the scale-path tests' RSS proxy (`WorkspaceStats::arena_peak_bytes`)
//! sees the cascade's true footprint. Level sizes decay geometrically (a
//! perfect matching halves the graph), so the whole front costs a small
//! constant factor of the host CSR.

use mmb_graph::workspace::Workspace;
use mmb_graph::{Coloring, EdgeId, Graph, VertexId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::api::SolveError;

/// When to stop contracting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoarsenParams {
    /// Stop once the coarsest graph has at most this many vertices.
    pub target_vertices: usize,
    /// Maximum number of contraction levels.
    pub max_levels: usize,
    /// Seed for the matching order (one `StdRng` across all levels).
    pub seed: u64,
}

impl Default for CoarsenParams {
    fn default() -> Self {
        Self {
            target_vertices: 8192,
            max_levels: 40,
            seed: 1,
        }
    }
}

/// One contraction level: the coarse graph plus the map into it.
pub struct CoarseLevel {
    /// Fine vertex → coarse vertex (fine = the previous level's graph, or
    /// the host for the first level).
    pub map: Vec<VertexId>,
    /// The contracted graph.
    pub graph: Graph,
    /// Aggregated edge costs, parallel to `graph.edge_list()`.
    pub costs: Vec<f64>,
    /// Aggregated vertex weights.
    pub weights: Vec<f64>,
}

impl CoarseLevel {
    fn arena_bytes(&self) -> u64 {
        let n = self.graph.num_vertices() as u64;
        let m = self.graph.num_edges() as u64;
        // adj (8 bytes × 2m) + adj_off (4 bytes × (n+1)) + edge list
        // (8 bytes × m) + costs/weights (8 bytes each) + map (4 bytes).
        16 * m + 4 * (n + 1) + 8 * m + 8 * m + 8 * n + 4 * self.map.len() as u64
    }
}

/// A built cascade of contraction levels (see the [module docs](self)).
///
/// The front does not own the host triple; pass it back to
/// [`coarsest`](Self::coarsest) and
/// [`project_to_host`](Self::project_to_host).
pub struct CoarseningFront {
    levels: Vec<CoarseLevel>,
    charged_bytes: u64,
}

impl Drop for CoarseningFront {
    fn drop(&mut self) {
        if self.charged_bytes > 0 {
            Workspace::with_local(|ws| ws.release_arena_bytes(self.charged_bytes));
        }
    }
}

impl CoarseningFront {
    /// Contract `(g, costs, weights)` until `params` says stop.
    ///
    /// The front may be empty (zero levels) when the host is already at or
    /// below the target, or when the first matching makes no progress
    /// (edgeless graph).
    pub fn build(g: &Graph, costs: &[f64], weights: &[f64], params: &CoarsenParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut levels: Vec<CoarseLevel> = Vec::new();
        let mut charged = 0u64;
        loop {
            let (fg, fc, fw) = match levels.last() {
                None => (g, costs, weights),
                Some(l) => (&l.graph, l.costs.as_slice(), l.weights.as_slice()),
            };
            if fg.num_vertices() <= params.target_vertices || levels.len() >= params.max_levels {
                break;
            }
            let (map, coarse_n) = heavy_edge_matching(fg, fc, &mut rng);
            if coarse_n == fg.num_vertices() {
                break; // no contraction possible (edgeless)
            }
            let (graph, ncosts, nweights) = contract(fg, fc, fw, &map, coarse_n);
            let level = CoarseLevel {
                map,
                graph,
                costs: ncosts,
                weights: nweights,
            };
            let bytes = level.arena_bytes();
            Workspace::with_local(|ws| ws.charge_arena_bytes(bytes));
            charged += bytes;
            levels.push(level);
        }
        CoarseningFront {
            levels,
            charged_bytes: charged,
        }
    }

    /// Number of contraction levels (0 = nothing was contracted).
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The levels, finest contraction first.
    pub fn levels(&self) -> &[CoarseLevel] {
        &self.levels
    }

    /// The coarsest `(graph, costs, weights)` — the host triple itself
    /// when the front is empty.
    pub fn coarsest<'a>(
        &'a self,
        host: (&'a Graph, &'a [f64], &'a [f64]),
    ) -> (&'a Graph, &'a [f64], &'a [f64]) {
        match self.levels.last() {
            None => host,
            Some(l) => (&l.graph, &l.costs, &l.weights),
        }
    }

    /// Composed host vertex → coarsest vertex map (identity when empty).
    fn host_map(&self, host_n: usize) -> Vec<VertexId> {
        let mut map: Vec<VertexId> = (0..host_n as u32).collect();
        for level in &self.levels {
            for c in map.iter_mut() {
                *c = level.map[*c as usize];
            }
        }
        map
    }

    /// Push a host measure through the cascade: coarse vertex value = sum
    /// over its host preimage (identity when empty).
    pub fn coarsen_measure(&self, m: &[f64]) -> Vec<f64> {
        let Some(last) = self.levels.last() else {
            return m.to_vec();
        };
        let map = self.host_map(m.len());
        let mut out = vec![0.0; last.weights.len()];
        for (v, &x) in m.iter().enumerate() {
            out[map[v] as usize] += x;
        }
        out
    }

    /// Project `chi` (a coloring of the coarsest graph) back to the host,
    /// calling `refine_level(fine_graph, fine_costs, fine_weights, chi)`
    /// at every level on the way up — pass a closure returning its input
    /// for plain projection.
    pub fn project_to_host(
        &self,
        host: (&Graph, &[f64], &[f64]),
        mut chi: Coloring,
        mut refine_level: impl FnMut(&Graph, &[f64], &[f64], &Coloring) -> Result<Coloring, SolveError>,
    ) -> Result<Coloring, SolveError> {
        for i in (0..self.levels.len()).rev() {
            let (fg, fc, fw) = if i == 0 {
                host
            } else {
                let l = &self.levels[i - 1];
                (&l.graph, l.costs.as_slice(), l.weights.as_slice())
            };
            let map = &self.levels[i].map;
            let mut fine = Coloring::new_uncolored(fg.num_vertices(), chi.k());
            for v in 0..fg.num_vertices() as u32 {
                if let Some(c) = chi.get(map[v as usize]) {
                    fine.set(v, c);
                }
            }
            chi = refine_level(fg, fc, fw, &fine)?;
        }
        Ok(chi)
    }
}

/// Heavy-edge matching: returns (fine → coarse map, coarse vertex count).
///
/// Vertices are visited in a seeded shuffle order; each unmatched vertex
/// pairs with its heaviest unmatched neighbor (`total_cmp` on edge cost,
/// neighbor-id tie-break, so the matching never depends on adjacency-list
/// order). Coarse ids are assigned in fine-id order, so the map — and
/// everything downstream — is a pure function of `(g, costs, rng state)`.
///
/// Each vertex's heaviest neighbor overall is computed first, in one
/// id-order pass. A visit takes that neighbor when it is still free,
/// since the heaviest of all neighbors, when free, is the heaviest free
/// one; only otherwise does it scan its adjacency.
pub fn heavy_edge_matching(g: &Graph, costs: &[f64], rng: &mut StdRng) -> (Vec<VertexId>, usize) {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    // `(mate, heaviest neighbor)` side by side: a visit touches one line
    // for itself and one for its candidate.
    let mut slot: Vec<(u32, u32)> = (0..n as u32)
        .map(|v| (NONE, heaviest(g, costs, v, |_| true).unwrap_or(NONE)))
        .collect();
    for &v in &order {
        let (mate, best) = slot[v as usize];
        if mate != NONE {
            continue;
        }
        let pick = match best {
            NONE => None, // no neighbor at all
            b if slot[b as usize].0 == NONE => Some(b),
            _ => heaviest(g, costs, v, |nb| slot[nb as usize].0 == NONE),
        };
        match pick {
            Some(nb) => {
                slot[v as usize].0 = nb;
                slot[nb as usize].0 = v;
            }
            None => slot[v as usize].0 = v, // singleton
        }
    }
    // Assign coarse ids.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        map[v as usize] = next;
        let m = slot[v as usize].0;
        if m != NONE && m != v {
            map[m as usize] = next;
        }
        next += 1;
    }
    (map, next as usize)
}

/// No mate yet, or no neighbor at all.
const NONE: u32 = u32::MAX;

/// `v`'s heaviest neighbor among those `eligible` admits: `total_cmp` on
/// edge cost, then the smaller neighbor id, so the pick never depends on
/// adjacency-list order when costs tie.
fn heaviest(g: &Graph, costs: &[f64], v: VertexId, eligible: impl Fn(u32) -> bool) -> Option<u32> {
    g.neighbors(v)
        .iter()
        .filter(|&&(nb, _)| nb != v && eligible(nb))
        .max_by(|a, b| {
            costs[a.1 as usize]
                .total_cmp(&costs[b.1 as usize])
                .then(b.0.cmp(&a.0))
        })
        .map(|&(nb, _)| nb)
}

/// Contract according to `map`, summing weights and parallel edge costs.
///
/// One gather pass per coarse vertex `cu`, in id order: every fine edge
/// from `cu`'s preimage to a coarse vertex `cv > cu` goes into a small
/// `(cv, edge id)` buffer, the buffer is sorted, and each run of equal
/// `cv` becomes one coarse edge whose cost sums the run in ascending
/// edge-id order. Each crossing fine edge is gathered once, from its
/// lower coarse endpoint, and the coarse edges come out in canonical
/// `(cu, cv)` order for [`Graph::from_sorted_edges`], so the work is
/// `O(n + m)` plus sorting each coarse vertex's own buffer. Ascending
/// edge-id order is the order in which contraction has always added a
/// coarse edge's costs, so every level's costs keep their exact bits.
///
/// # Panics
/// Panics if a `map` entry is `≥ coarse_n`.
pub fn contract(
    g: &Graph,
    costs: &[f64],
    weights: &[f64],
    map: &[VertexId],
    coarse_n: usize,
) -> (Graph, Vec<f64>, Vec<f64>) {
    let mut coarse_weights = vec![0.0; coarse_n];
    for v in 0..g.num_vertices() {
        coarse_weights[map[v] as usize] += weights[v];
    }
    // Preimages by counting sort, fine ids ascending: coarse vertex `c`
    // owns `members[start[c]..start[c + 1]]`.
    let mut start = vec![0u32; coarse_n + 1];
    for &c in map {
        start[c as usize + 1] += 1;
    }
    for c in 0..coarse_n {
        start[c + 1] += start[c];
    }
    let mut cursor = start.clone();
    let mut members: Vec<VertexId> = vec![0; map.len()];
    for (v, &c) in map.iter().enumerate() {
        members[cursor[c as usize] as usize] = v as VertexId;
        cursor[c as usize] += 1;
    }
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut coarse_costs: Vec<f64> = Vec::new();
    let mut gather: Vec<(VertexId, EdgeId)> = Vec::new();
    for cu in 0..coarse_n as VertexId {
        gather.clear();
        let (lo, hi) = (start[cu as usize], start[cu as usize + 1]);
        for &u in &members[lo as usize..hi as usize] {
            for &(nb, e) in g.neighbors(u) {
                let cv = map[nb as usize];
                if cv > cu {
                    gather.push((cv, e));
                }
            }
        }
        gather.sort_unstable();
        for run in gather.chunk_by(|a, b| a.0 == b.0) {
            edges.push((cu, run[0].0));
            coarse_costs.push(run.iter().fold(0.0, |c, &(_, e)| c + costs[e as usize]));
        }
    }
    let graph = Graph::from_sorted_edges(coarse_n, edges)
        .expect("a contraction has at most the fine graph's edges, which fit");
    (graph, coarse_costs, coarse_weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;

    fn unit_grid(side: usize) -> (Graph, Vec<f64>, Vec<f64>) {
        let grid = GridGraph::lattice(&[side, side]);
        let m = grid.graph.num_edges();
        let n = grid.graph.num_vertices();
        (grid.graph, vec![1.0; m], vec![1.0; n])
    }

    #[test]
    fn front_reaches_target_and_conserves_weight() {
        let (g, costs, weights) = unit_grid(32);
        let front = CoarseningFront::build(&g, &costs, &weights, &CoarsenParams::default());
        // 1024 vertices, default target 8192: nothing to do.
        assert_eq!(front.num_levels(), 0);

        let params = CoarsenParams {
            target_vertices: 64,
            ..Default::default()
        };
        let front = CoarseningFront::build(&g, &costs, &weights, &params);
        assert!(front.num_levels() >= 1);
        let (cg, _cc, cw) = front.coarsest((&g, &costs, &weights));
        assert!(cg.num_vertices() <= 64);
        let total: f64 = cw.iter().sum();
        assert!(
            (total - 1024.0).abs() < 1e-9,
            "weight not conserved: {total}"
        );
    }

    #[test]
    fn contraction_is_seed_deterministic() {
        let (g, costs, weights) = unit_grid(20);
        let params = CoarsenParams {
            target_vertices: 50,
            seed: 42,
            ..Default::default()
        };
        let a = CoarseningFront::build(&g, &costs, &weights, &params);
        let b = CoarseningFront::build(&g, &costs, &weights, &params);
        assert_eq!(a.num_levels(), b.num_levels());
        for (la, lb) in a.levels().iter().zip(b.levels()) {
            assert_eq!(la.map, lb.map);
            assert_eq!(la.graph.edge_list(), lb.graph.edge_list());
            assert_eq!(la.costs, lb.costs);
            assert_eq!(la.weights, lb.weights);
        }
    }

    #[test]
    fn contract_aggregates_parallel_edges() {
        // Path 0-1-2-3 with map {0,1}→0, {2,3}→1: the two inner-pair
        // edges vanish, the middle edge survives with its cost.
        let g = mmb_graph::gen::misc::path(4);
        let costs = vec![2.0, 5.0, 3.0];
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let map = vec![0, 0, 1, 1];
        let (cg, cc, cw) = contract(&g, &costs, &weights, &map, 2);
        assert_eq!(cg.num_vertices(), 2);
        assert_eq!(cg.edge_list(), &[(0, 1)]);
        assert_eq!(cc, vec![5.0]);
        assert_eq!(cw, vec![3.0, 7.0]);
    }

    #[test]
    fn projection_roundtrips_class_weights() {
        let (g, costs, weights) = unit_grid(16);
        let params = CoarsenParams {
            target_vertices: 32,
            ..Default::default()
        };
        let front = CoarseningFront::build(&g, &costs, &weights, &params);
        let (cg, _, cw) = front.coarsest((&g, &costs, &weights));
        // Color the coarsest graph by parity of vertex id.
        let chi = Coloring::from_fn(cg.num_vertices(), 2, |v| v % 2);
        let coarse_cm = chi.class_measures(cw);
        let host = front
            .project_to_host((&g, &costs, &weights), chi, |_, _, _, c| Ok(c.clone()))
            .unwrap();
        assert!(host.is_total());
        // Plain projection preserves class weights exactly.
        let host_cm = host.class_measures(&weights);
        for (a, b) in coarse_cm.iter().zip(&host_cm) {
            assert!((a - b).abs() < 1e-9, "{coarse_cm:?} vs {host_cm:?}");
        }
    }

    #[test]
    fn front_charges_and_releases_arena_bytes() {
        let (g, costs, weights) = unit_grid(24);
        let params = CoarsenParams {
            target_vertices: 36,
            ..Default::default()
        };
        Workspace::with_local(|ws| {
            let before = ws.stats().arena_live_bytes;
            let front = CoarseningFront::build(&g, &costs, &weights, &params);
            assert!(front.num_levels() > 0);
            assert!(ws.stats().arena_live_bytes > before);
            drop(front);
            assert_eq!(ws.stats().arena_live_bytes, before);
        });
    }
}
