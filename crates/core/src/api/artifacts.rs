//! Cacheable solver-construction artifacts and the LRU cache over them.
//!
//! A cold [`Solver`](crate::api::Solver) spends its construction time on
//! three things that depend only on the instance's **graph, costs, and the
//! exponent `p`** — never on the weights, `k`, or the run itself:
//!
//! 1. structure recognition (`recognize`, `O((n + m)·d)`), when the
//!    automatic splitter is first built,
//! 2. the splitting-cost measure `π` (Definition 10, one pass over the
//!    cost-degree profile), on the first direct solve,
//! 3. `‖c‖_p` for the Theorem 5 bound in reports, at build time.
//!
//! [`SolverArtifacts`] snapshots all three. A [`SolverCache`] keyed by
//! [`Fingerprint::artifact_key`] (structure ⊕ costs — weights excluded,
//! so weight-only churn stays warm) hands the snapshot back to
//! `SolverBuilder::artifacts`, which skips the recomputation entirely.
//!
//! ## Fingerprints filter, equality decides
//!
//! The 64-bit key is a *filter*, not a proof: on every hit the cache
//! re-checks the candidate against the instance with
//! [`SolverArtifacts::matches`] — full structural equality of the edge
//! list, bit-equality of the costs, bit-equality of `p`. A colliding key
//! is reported as [`CacheLookup::Collision`] and recomputed; a stale or
//! poisoned entry can be dropped with [`SolverCache::evict_for`]. Served
//! results therefore never depend on the hash being collision-free.
//!
//! ## Determinism
//!
//! The cache is a plain most-recently-used-first `Vec` — no `HashMap`,
//! no random state. Identical request sequences produce identical
//! hit/miss/eviction traces on every run and platform.

use std::sync::Arc;

use mmb_graph::fingerprint::Fingerprint;
use mmb_graph::recognize::Structure;
use mmb_graph::VertexId;

use crate::api::instance::Instance;
use crate::pi::splitting_cost_measure_within;

/// The build-phase products that depend only on (graph, costs, `p`).
///
/// Create with [`SolverArtifacts::compute`], share via `Arc`, and feed to
/// [`SolverBuilder::artifacts`](crate::api::SolverBuilder::artifacts) to
/// warm-start construction on instances with the same topology and
/// costs (weights may differ freely).
#[derive(Clone, Debug)]
pub struct SolverArtifacts {
    /// The vertex count and canonical edge list of the graph the
    /// artifacts were computed over (the exact collision check reads
    /// nothing else of it).
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
    /// The cost vector the artifacts were computed over.
    costs: Vec<f64>,
    /// The exponent `p` the `π` measure and `‖c‖_p` were computed for.
    p: f64,
    /// Recognition verdict, reusable via `Instance::seed_structure`.
    structure: Structure,
    /// Splitting-cost measure `π` (Definition 10), shared by refcount.
    pi: Arc<[f64]>,
    /// `‖c‖_p`.
    c_norm_p: f64,
    /// Fingerprint of the source instance (structure + costs parts are
    /// what [`Fingerprint::artifact_key`] digests).
    fingerprint: Fingerprint,
}

impl SolverArtifacts {
    /// Run the cacheable build phases for `inst` at exponent `p`.
    ///
    /// Triggers structure recognition (memoized on `inst`) and the `π`
    /// pass; the result is independent of `inst`'s weights.
    pub fn compute(inst: &Instance, p: f64) -> Self {
        let g = inst.graph();
        let pi: Arc<[f64]> =
            splitting_cost_measure_within(g, inst.costs(), p, 1.0, inst.domain()).into();
        SolverArtifacts {
            num_vertices: g.num_vertices(),
            edges: g.edge_list().to_vec(),
            costs: inst.costs().to_vec(),
            p,
            structure: inst.structure().clone(),
            pi,
            c_norm_p: inst.cost_norm(p),
            fingerprint: inst.fingerprint(),
        }
    }

    /// Exact applicability check: does this snapshot describe `inst` at
    /// exponent `p`? Full equality — edge list, cost bits, `p` bits —
    /// so a fingerprint collision can never smuggle in wrong artifacts.
    pub fn matches(&self, inst: &Instance, p: f64) -> bool {
        self.p.to_bits() == p.to_bits()
            && self.num_vertices == inst.num_vertices()
            && self.edges == inst.graph().edge_list()
            && self.costs.len() == inst.costs().len()
            && self
                .costs
                .iter()
                .zip(inst.costs())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The exponent the artifacts were computed for.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The cached recognition verdict.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// The cached splitting-cost measure `π`.
    pub fn pi(&self) -> &Arc<[f64]> {
        &self.pi
    }

    /// The cached `‖c‖_p`.
    pub fn c_norm_p(&self) -> f64 {
        self.c_norm_p
    }

    /// Fingerprint of the instance the artifacts came from.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// The cache key: weight-independent fingerprint parts ⊕ `p` bits.
    fn key(&self) -> u64 {
        mix_key(self.fingerprint, self.p)
    }
}

/// Splitmix of the weight-independent fingerprint parts with `p`'s bit
/// pattern — the 64-bit cache key.
fn mix_key(fp: Fingerprint, p: f64) -> u64 {
    let mut z = fp
        .artifact_key()
        .wrapping_add(0x9e37_79b9_7f4a_7c15 ^ p.to_bits());
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of one [`SolverCache::get_or_compute`] lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheLookup {
    /// Key matched and the exact check confirmed: artifacts reused.
    Hit,
    /// No entry under the key: artifacts computed and inserted.
    Miss,
    /// Key matched but the exact check refused (hash collision):
    /// artifacts computed and inserted alongside.
    Collision,
}

/// Cumulative counters of a [`SolverCache`]'s lookup outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Confirmed hits (exact check passed).
    pub hits: u64,
    /// Cold lookups (no entry under the key).
    pub misses: u64,
    /// Key matches refused by the exact check.
    pub collisions: u64,
    /// Entries dropped by the LRU bound or [`SolverCache::evict_for`].
    pub evictions: u64,
}

/// A bounded, deterministic LRU cache of [`SolverArtifacts`].
///
/// Most-recently-used entries sit at the front of a plain `Vec`; lookups
/// scan by 64-bit key and confirm with the exact [`SolverArtifacts::matches`]
/// check. Capacity 0 degenerates to "always compute" (still counted).
#[derive(Debug)]
pub struct SolverCache {
    entries: Vec<(u64, Arc<SolverArtifacts>)>,
    capacity: usize,
    stats: CacheStats,
}

impl SolverCache {
    /// An empty cache holding at most `capacity` artifact snapshots.
    pub fn new(capacity: usize) -> Self {
        SolverCache {
            entries: Vec::with_capacity(capacity.min(64)),
            capacity,
            stats: CacheStats::default(),
        }
    }

    /// Look up artifacts for `(inst, p)`; compute, insert, and evict the
    /// least-recently-used entry on a miss. Returns the artifacts and
    /// how they were obtained.
    pub fn get_or_compute(
        &mut self,
        inst: &Instance,
        p: f64,
    ) -> (Arc<SolverArtifacts>, CacheLookup) {
        let key = mix_key(inst.fingerprint(), p);
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            if self.entries[pos].1.matches(inst, p) {
                self.stats.hits += 1;
                let entry = self.entries.remove(pos);
                self.entries.insert(0, entry);
                return (Arc::clone(&self.entries[0].1), CacheLookup::Hit);
            }
            // Same 64-bit key, different instance: a genuine collision.
            // Recompute; the insert below replaces the colliding entry's
            // slot ordering but both remain addressable by exact check.
            self.stats.collisions += 1;
            let artifacts = Arc::new(SolverArtifacts::compute(inst, p));
            self.insert(Arc::clone(&artifacts));
            return (artifacts, CacheLookup::Collision);
        }
        self.stats.misses += 1;
        let artifacts = Arc::new(SolverArtifacts::compute(inst, p));
        self.insert(Arc::clone(&artifacts));
        (artifacts, CacheLookup::Miss)
    }

    /// Insert precomputed artifacts at the most-recently-used position.
    pub fn insert(&mut self, artifacts: Arc<SolverArtifacts>) {
        if self.capacity == 0 {
            return;
        }
        let key = artifacts.key();
        self.entries.insert(0, (key, artifacts));
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.stats.evictions += 1;
        }
    }

    /// Drop the entry that exactly matches `(inst, p)`, if present.
    /// Returns whether anything was evicted. The poisoned-entry hatch:
    /// a serving layer that observes a fault while using cached
    /// artifacts evicts them instead of ever serving from them again.
    pub fn evict_for(&mut self, inst: &Instance, p: f64) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(_, a)| !a.matches(inst, p));
        let dropped = before - self.entries.len();
        self.stats.evictions += dropped as u64;
        dropped > 0
    }

    /// Cumulative lookup counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The LRU bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;

    fn grid_instance(side: usize, w0: f64) -> Instance {
        let gg = GridGraph::lattice(&[side, side]);
        let m = gg.graph.num_edges();
        let n = gg.graph.num_vertices();
        let mut w = vec![1.0; n];
        w[0] = w0;
        Instance::from_grid(gg, vec![1.0; m], w).expect("valid grid instance")
    }

    #[test]
    fn weight_churn_hits_the_cache() {
        let mut cache = SolverCache::new(4);
        let a = grid_instance(4, 1.0);
        let b = grid_instance(4, 7.0); // same topology+costs, new weights
        let (_, first) = cache.get_or_compute(&a, 2.0);
        let (art, second) = cache.get_or_compute(&b, 2.0);
        assert_eq!(first, CacheLookup::Miss);
        assert_eq!(second, CacheLookup::Hit);
        assert!(art.matches(&b, 2.0));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn distinct_p_or_topology_misses() {
        let mut cache = SolverCache::new(4);
        let a = grid_instance(4, 1.0);
        let b = grid_instance(5, 1.0);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
        assert_eq!(cache.get_or_compute(&a, 1.5).1, CacheLookup::Miss);
        assert_eq!(cache.get_or_compute(&b, 2.0).1, CacheLookup::Miss);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = SolverCache::new(2);
        let a = grid_instance(3, 1.0);
        let b = grid_instance(4, 1.0);
        let c = grid_instance(5, 1.0);
        cache.get_or_compute(&a, 2.0);
        cache.get_or_compute(&b, 2.0);
        cache.get_or_compute(&a, 2.0); // refresh a; b is now coldest
        cache.get_or_compute(&c, 2.0); // evicts b
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Hit);
        assert_eq!(cache.get_or_compute(&b, 2.0).1, CacheLookup::Miss);
        assert!(cache.stats().evictions >= 1);
    }

    #[test]
    fn evict_for_removes_exactly_the_target() {
        let mut cache = SolverCache::new(4);
        let a = grid_instance(3, 1.0);
        let b = grid_instance(4, 1.0);
        cache.get_or_compute(&a, 2.0);
        cache.get_or_compute(&b, 2.0);
        assert!(cache.evict_for(&a, 2.0));
        assert!(!cache.evict_for(&a, 2.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get_or_compute(&b, 2.0).1, CacheLookup::Hit);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
    }

    #[test]
    fn zero_capacity_always_computes() {
        let mut cache = SolverCache::new(0);
        let a = grid_instance(3, 1.0);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
        assert_eq!(cache.get_or_compute(&a, 2.0).1, CacheLookup::Miss);
        assert!(cache.is_empty());
    }

    #[test]
    fn grid_verdicts_share_one_grid_graph() {
        let grid_of = |s: &Structure| match s {
            Structure::Grid(gg) => Arc::clone(gg),
            other => panic!("a lattice recognized as {}", other.name()),
        };
        // A grid host's verdict is its own geometry.
        let hosted = grid_instance(5, 1.0);
        let (a, _) = SolverCache::new(1).get_or_compute(&hosted, 2.0);
        let cached = grid_of(a.structure());
        assert!(Arc::ptr_eq(&cached, &grid_of(hosted.structure())));
        assert!(std::ptr::eq(hosted.grid().unwrap(), &*cached));

        // A plain lattice's reconstructed geometry is shared by the
        // instance's memo, the cache, and a warm build's fresh instance.
        let lattice = GridGraph::lattice(&[6, 7]);
        let (n, m) = (lattice.graph.num_vertices(), lattice.graph.num_edges());
        let plain = Instance::new(lattice.graph.clone(), vec![1.0; m], vec![1.0; n]).unwrap();
        let (a, _) = SolverCache::new(1).get_or_compute(&plain, 2.0);
        let cached = grid_of(a.structure());
        assert!(Arc::ptr_eq(&cached, &grid_of(plain.structure())));
        let fresh = Instance::new(lattice.graph, vec![1.0; m], vec![2.0; n]).unwrap();
        crate::api::Solver::for_instance(&fresh)
            .classes(3)
            .artifacts(a)
            .build()
            .unwrap();
        assert!(std::ptr::eq(fresh.grid().unwrap(), &*cached));
    }

    #[test]
    fn artifacts_agree_with_a_fresh_build() {
        let a = grid_instance(4, 1.0);
        let art = SolverArtifacts::compute(&a, 2.0);
        assert_eq!(art.c_norm_p(), a.cost_norm(2.0));
        assert_eq!(art.pi().len(), a.num_vertices());
        assert_eq!(art.fingerprint(), a.fingerprint());
        assert_eq!(art.p(), 2.0);
    }
}
