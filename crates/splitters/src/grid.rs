//! GridSplit — the separator theorem for `d`-dimensional grid graphs with
//! arbitrary edge costs (Section 6, Theorem 19).
//!
//! The algorithm follows the paper's `GridSplit` procedure exactly:
//!
//! 1. Scale costs so the minimum positive cost is 1 (then the fluctuation is
//!    `φ = ‖c‖_∞`).
//! 2. Pick the cell side `ℓ = max(⌈(‖c‖₁/d)^{1/d}⌉, 1)` and the cheapest of
//!    the `ℓ` shifted coarsenings `ϕ_α^{(ℓ)}(a) = ⌊(a + (α−1)·1)/ℓ⌋`
//!    (Lemma 20: the cheapest has coarse cost `‖c/ϕ‖₁ ≤ ‖c‖₁/ℓ`, because
//!    every grid edge is cut by exactly one shift `α`).
//! 3. Order the cells lexicographically, take whole cells while they fit
//!    under the splitting value (a *monotone* prefix — Lemmas 21–24), and
//!    recurse into the straddling cell with reduced costs
//!    `c′ = (c − 1)/2`, discarding edges of cost ≤ 1.
//! 4. When `ℓ = 1` the coarse graph is the grid itself; a lexicographic
//!    vertex prefix finishes the job.
//!
//! Costs halve per level, so there are `O(log φ)` levels (Lemma 27) and the
//! returned set costs `O(d·log^{1/d}(φ+1)·‖c‖_{d/(d−1)})` (Theorem 19).

use std::cell::RefCell;

use mmb_graph::gen::grid::{box_lex_ranks, GridGraph};
use mmb_graph::{VertexId, VertexSet};

use crate::Splitter;

/// Reusable per-thread buffers of `split`: one split call makes
/// `O(levels)` uses of each, and a solve makes thousands of split calls,
/// so pulling these out of the call eliminates the per-call malloc
/// traffic entirely.
#[derive(Default)]
struct SplitScratch {
    members: Vec<VertexId>,
    edges: Vec<(i64, f64)>,
    alpha_dense: Vec<f64>,
    /// Comparison-sort rows, one per member: its `d` cell coordinates,
    /// then its lex rank.
    cells: Vec<u64>,
    keys_buf: Vec<u32>,
    counts: Vec<u32>,
    grouped: Vec<VertexId>,
    extents: Vec<u64>,
    shifts: Vec<u64>,
}

thread_local! {
    static SPLIT_SCRATCH: RefCell<SplitScratch> = RefCell::default();
}

/// Splitting sets for grid graphs with arbitrary positive edge costs.
pub struct GridSplitter<'g> {
    grid: &'g GridGraph,
    /// Costs scaled so the minimum positive cost is 1 (zero costs stay 0,
    /// they are free to cut and vanish after the first level).
    scaled: Vec<f64>,
    /// Rank of each vertex in the lexicographic coordinate order —
    /// `sort_unstable_by_key(lex_rank)` replaces comparator sorts over
    /// coordinate slices in the hot path.
    lex_rank: Vec<u32>,
    /// Per-axis coordinate minima/maxima of the whole instance.
    mins: Vec<i64>,
    /// See [`GridSplitter::mins`].
    maxs: Vec<i64>,
    /// `‖scaled‖_∞`: the first level `L` with `(c_max + 1)/2^L − 1 ≤ 0`
    /// has **no** surviving edges, so `split` can skip its edge scan
    /// (`c1 = 0` exactly) and go straight to the lexicographic prefix.
    max_scaled: f64,
    /// Per edge: the smaller coordinate along the (unique) axis the edge
    /// spans — the `t` of the Lemma 20 shift accounting, precomputed so
    /// the hot scan does one load instead of two coordinate lookups.
    edge_t: Vec<i64>,
    name: &'static str,
}

impl<'g> GridSplitter<'g> {
    /// Bind to a grid graph and its edge costs.
    pub fn new(grid: &'g GridGraph, costs: &[f64]) -> Self {
        assert_eq!(
            costs.len(),
            grid.graph.num_edges(),
            "cost vector length mismatch"
        );
        assert!(
            costs.iter().all(|&c| c >= 0.0 && c.is_finite()),
            "costs must be finite and >= 0"
        );
        let cmin = costs
            .iter()
            .copied()
            .filter(|&c| c > 0.0)
            .fold(f64::INFINITY, f64::min);
        let scaled = if cmin.is_finite() && cmin > 0.0 {
            costs.iter().map(|&c| c / cmin).collect()
        } else {
            costs.to_vec()
        };
        Self::finish(grid, scaled, "gridsplit")
    }

    /// The naive unit-cost variant: ignores the actual costs when choosing
    /// cuts (the `σ_p(G, c) ≤ σ_p(G, 1)·φ` generalization the paper calls
    /// out as wasteful; ablation experiment E9).
    pub fn unit_cost(grid: &'g GridGraph) -> Self {
        Self::finish(grid, vec![1.0; grid.graph.num_edges()], "gridsplit/unit")
    }

    /// Shared construction tail: precompute the lex ranks and coordinate
    /// bounds `split` keys off, once per splitter, amortized across every
    /// `split` call of a solver's lifetime. `O(n + m)` on a full box (see
    /// [`box_lex_ranks`]), `O(n log n + m)` on any other point set.
    fn finish(grid: &'g GridGraph, scaled: Vec<f64>, name: &'static str) -> Self {
        let n = grid.graph.num_vertices();
        let d = grid.dim;
        let mut mins = vec![i64::MAX; d];
        let mut maxs = vec![i64::MIN; d];
        for v in 0..n as u32 {
            for (a, &x) in grid.coord(v).iter().enumerate() {
                mins[a] = mins[a].min(x);
                maxs[a] = maxs[a].max(x);
            }
        }
        let lex_rank = match box_lex_ranks(d, grid.coords()) {
            Some((_, ranks)) => ranks,
            None => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                order.sort_unstable_by(|&a, &b| grid.coord(a).cmp(grid.coord(b)));
                let mut lex_rank = vec![0u32; n];
                for (r, &v) in order.iter().enumerate() {
                    lex_rank[v as usize] = r as u32;
                }
                lex_rank
            }
        };
        let max_scaled = scaled.iter().copied().fold(0.0f64, f64::max);
        let edge_t = grid
            .graph
            .edge_list()
            .iter()
            .map(|&(u, v)| {
                let (cu, cv) = (grid.coord(u), grid.coord(v));
                let axis = (0..d)
                    .find(|&a| cu[a] != cv[a])
                    .expect("edge endpoints share coords");
                cu[axis].min(cv[axis])
            })
            .collect();
        Self {
            grid,
            scaled,
            lex_rank,
            mins,
            maxs,
            max_scaled,
            edge_t,
            name,
        }
    }

    /// Effective cost of edge `e` at recursion `level`:
    /// `c_L = (c + 1)/2^L − 1`; the edge is present iff `c_L > 0`
    /// (level 0 keeps every edge).
    #[inline]
    fn level_cost(&self, e: u32, level: u32) -> f64 {
        let c = self.scaled[e as usize];
        (c + 1.0) / (1u64 << level.min(62)) as f64 - 1.0
    }

    /// The shift α to cut at, from the per-shift cut costs
    /// (`sums[a − 1]` = cut cost of shift `a`; positive costs mean an
    /// uncut shift is exactly `0.0`): the first uncut shift if any, else
    /// the cheapest, ties to the smallest α so two splitters built from the
    /// same instance always cut identically.
    fn pick_alpha_dense(sums: &[f64]) -> i64 {
        if let Some(i) = sums.iter().position(|&s| s == 0.0) {
            return i as i64 + 1;
        }
        let mut best = 0usize;
        for (i, &s) in sums.iter().enumerate() {
            if s < sums[best] {
                best = i;
            }
        }
        best as i64 + 1
    }

    /// The one `split` loop, over thread-local scratch buffers (zero
    /// steady-state allocation beyond the returned set) with exact
    /// integer cell arithmetic and dead-level skipping — `O(vol)`-ish per
    /// level. Shift slots and cells are each one `rem_euclid` or
    /// `u64` division expression that cannot overflow, so it serves
    /// every `i64` point set.
    ///
    /// Cells are grouped by a counting sort when their universe is small
    /// next to the member count. It is stable, so members keep their id
    /// order inside every cell and cell weight sums accumulate in exactly
    /// the order of the reference HashMap loop the tests keep as an
    /// oracle; the returned set is then bit-identical to the oracle's.
    /// Sparse point sets over large coordinate ranges are grouped by a
    /// comparison sort on (cells, lex rank) instead. Within-cell order is
    /// then lexicographic, which can flip floating-point ties on inputs
    /// whose partial sums are inexact — still within the Definition 3
    /// contract.
    fn split_in(
        &self,
        scratch: &mut SplitScratch,
        w_set: &VertexSet,
        weights: &[f64],
        target: f64,
    ) -> VertexSet {
        let n = self.grid.graph.num_vertices();
        let d = self.grid.dim;
        let SplitScratch {
            members,
            edges,
            alpha_dense,
            cells,
            keys_buf,
            counts,
            grouped,
            extents,
            shifts,
        } = scratch;
        members.clear();
        members.extend(w_set.iter());
        let total: f64 = members.iter().map(|&v| weights[v as usize]).sum();
        let mut rem = target.clamp(0.0, total);
        let mut taken = VertexSet::empty(n);
        let mut level = 0u32;

        loop {
            if members.is_empty() {
                return taken;
            }
            // Inner edges with positive current cost: total + per-axis
            // minimum coordinate (for the Lemma 20 shift accounting). Once
            // the level's cost reduction has extinguished even the most
            // expensive edge, `c1 = 0` without scanning anything.
            let mut c1 = 0.0f64;
            edges.clear();
            let level_alive =
                level == 0 || (self.max_scaled + 1.0) / (1u64 << level.min(62)) as f64 - 1.0 > 0.0;
            if level_alive {
                // Level 0 works on exactly `w_set`; deeper levels mark the
                // straddling cell in a fresh bitset.
                let owned;
                let in_s = if level == 0 {
                    w_set
                } else {
                    owned = VertexSet::from_iter(n, members.iter().copied());
                    &owned
                };
                for &v in members.iter() {
                    for &(nb, e) in self.grid.graph.neighbors(v) {
                        if nb <= v || !in_s.contains(nb) {
                            continue;
                        }
                        let cur = if level == 0 {
                            self.scaled[e as usize]
                        } else {
                            self.level_cost(e, level)
                        };
                        if cur <= 0.0 {
                            continue;
                        }
                        c1 += cur;
                        edges.push((self.edge_t[e as usize], cur));
                    }
                }
            }
            let ell = ((c1 / d as f64).powf(1.0 / d as f64).ceil() as i64).max(1);
            // Guard against pathological cost magnitudes.
            let ell = ell.min(1 << 40);
            if ell <= 1 {
                // ℓ = 1: lexicographic vertex prefix within the cell — one
                // u32 key sort instead of a coordinate-comparator sort, and
                // the prefix lands in `taken` directly (the shared
                // [`prefix_cut_len`] decision rule, no intermediate set).
                members.sort_unstable_by_key(|&v| self.lex_rank[v as usize]);
                let cut = crate::prefix_cut_len(members, weights, rem);
                for &v in &members[..cut] {
                    taken.insert(v);
                }
                return taken;
            }
            // Lemma 20 per-shift accounting: each edge is cut by exactly
            // one shift α = ℓ − (t mod ℓ) ∈ [1, ℓ], which lands in slot
            // α − 1. With `E` edges at most `E` shifts are cut, so some
            // shift in 1..=E + 1 is uncut and the dense (reused) buffer
            // holds only the shifts 1..=min(ℓ, E + 1): an edge cut by a
            // later shift adds nothing, and the kept sums, in edge order,
            // and the pick are the same as over all ℓ shifts.
            let ell_u = ell as u64;
            let slots = ell_u.min(edges.len() as u64 + 1);
            alpha_dense.clear();
            alpha_dense.resize(slots as usize, 0.0);
            for &(t, cost) in edges.iter() {
                let slot = (ell - 1 - t.rem_euclid(ell)) as u64;
                if slot < slots {
                    alpha_dense[slot as usize] += cost;
                }
            }
            let alpha = Self::pick_alpha_dense(alpha_dense);

            // A member's cell ϕ_α(x) = ⌊(x + (α−1)·1)/ℓ⌋, offset on each
            // axis to the instance's minimum cell, is ⌊(off + r_a)/ℓ⌋ for
            // the offset `off = x − min_a` and `r_a = (min_a + α − 1) mod
            // ℓ`. As `r_a < ℓ`, that is `off/ℓ + (off mod ℓ + r_a)/ℓ`, in
            // which no term exceeds the offset or 2ℓ, so no `i64`
            // coordinate can overflow it.
            shifts.clear();
            extents.clear();
            for a in 0..d {
                shifts.push((self.mins[a].rem_euclid(ell) + alpha - 1).rem_euclid(ell) as u64);
            }
            let cell_of = |x: i64, a: usize| -> u64 {
                let off = x.abs_diff(self.mins[a]);
                off / ell_u + (off % ell_u + shifts[a]) / ell_u
            };
            let mut cell_count: u128 = 1;
            for a in 0..d {
                let extent = cell_of(self.maxs[a], a) + 1;
                extents.push(extent);
                cell_count = cell_count.saturating_mul(extent as u128);
            }

            // Group the members cell by cell, cells in lexicographic
            // order: `grouped` lists them, and `counts` holds each cell's
            // end offset (an empty cell repeats the previous offset).
            //
            // Primary grouping is a **counting sort** over the mixed-radix
            // cell index: stable, so members keep their id order inside
            // every cell — the oracle's iteration (and f64 summation)
            // order — at `O(vol + cells)`. When the cell universe is too
            // large next to the member count (sparse point sets over huge
            // coordinate ranges), a comparison sort of member positions
            // on their (cells, lex rank) rows steps in instead.
            if cell_count <= (members.len() * 4 + 64) as u128 && cell_count <= u32::MAX as u128 {
                keys_buf.clear();
                counts.clear();
                counts.resize(cell_count as usize, 0);
                for &v in members.iter() {
                    let c = self.grid.coord(v);
                    let k = (0..d).fold(0, |k, a| k * extents[a] + cell_of(c[a], a)) as u32;
                    keys_buf.push(k);
                    counts[k as usize] += 1;
                }
                // Prefix-sum into running positions, then stable placement.
                let mut running = 0u32;
                for c in counts.iter_mut() {
                    let here = *c;
                    *c = running;
                    running += here;
                }
                grouped.clear();
                grouped.resize(members.len(), 0);
                for (idx, &v) in members.iter().enumerate() {
                    let k = keys_buf[idx] as usize;
                    grouped[counts[k] as usize] = v;
                    counts[k] += 1;
                }
                // After placement counts[k] is cell k's end offset.
            } else {
                cells.clear();
                for &v in members.iter() {
                    let c = self.grid.coord(v);
                    cells.extend((0..d).map(|a| cell_of(c[a], a)));
                    cells.push(u64::from(self.lex_rank[v as usize]));
                }
                let row = |pos: u32| &cells[pos as usize * (d + 1)..][..d + 1];
                grouped.clear();
                grouped.extend(0..members.len() as u32);
                grouped.sort_unstable_by(|&i, &j| row(i).cmp(row(j)));
                counts.clear();
                for pos in 1..grouped.len() {
                    if row(grouped[pos - 1])[..d] != row(grouped[pos])[..d] {
                        counts.push(pos as u32);
                    }
                }
                counts.push(grouped.len() as u32);
                for g in grouped.iter_mut() {
                    *g = members[*g as usize];
                }
            }

            // Take whole cells in order while they fit; recurse into the
            // straddling cell.
            let mut start = 0usize;
            let mut straddle = false;
            for &end in counts.iter() {
                let end = end as usize;
                if end == start {
                    continue;
                }
                let cell = &grouped[start..end];
                let wcell: f64 = cell.iter().map(|&v| weights[v as usize]).sum();
                if wcell <= rem {
                    rem -= wcell;
                    for &v in cell {
                        taken.insert(v);
                    }
                    start = end;
                } else {
                    members.clear();
                    members.extend_from_slice(cell);
                    straddle = true;
                    break;
                }
            }
            if !straddle {
                return taken; // everything fit (rem ≈ 0 now)
            }
            level += 1;
        }
    }
}

impl Splitter for GridSplitter<'_> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        SPLIT_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.split_in(&mut scratch, w_set, weights, target),
            // Defensive: if a caller ever re-enters split on this thread,
            // fall back to fresh buffers instead of panicking.
            Err(_) => self.split_in(&mut SplitScratch::default(), w_set, weights, target),
        })
    }

    fn name(&self) -> &str {
        self.name
    }
}

/// Theorem 19's cost bound with unit constant:
/// `d · log^{1/d}(φ + 1) · ‖c|_W‖_{d/(d−1)}` (the `log` term is taken as
/// `max(log₂(φ+1), 1)` so the bound stays positive for φ ≤ 1).
pub fn theorem19_bound(d: usize, fluctuation: f64, c_norm_p: f64) -> f64 {
    let lg = (fluctuation + 1.0).log2().max(1.0);
    d as f64 * lg.powf(1.0 / d as f64) * c_norm_p
}

/// Check that `set` is *monotone* in `within` (Section 6): for every
/// `y ∈ set` and `x ∈ within` with `x ≤ y` componentwise, `x ∈ set`.
/// Quadratic; intended for tests (Lemma 24 verification).
pub fn is_monotone_in(grid: &GridGraph, set: &VertexSet, within: &VertexSet) -> bool {
    let members: Vec<VertexId> = set.iter().collect();
    for x in within.iter() {
        if set.contains(x) {
            continue;
        }
        let cx = grid.coord(x);
        for &y in &members {
            let cy = grid.coord(y);
            if cx.iter().zip(cy).all(|(a, b)| a <= b) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::check_split;
    use crate::prefix_split;
    use mmb_graph::cut::boundary_cost_within;
    use mmb_graph::measure::edge_norm_p;
    use std::collections::HashMap;

    /// The oracle's coarsening: one edge pass into a fresh `Vec`, its own
    /// α choice, and HashMap cell grouping on per-member key vectors,
    /// members in id order inside every cell. `None` when ℓ = 1.
    fn coarsen_legacy(
        sp: &GridSplitter,
        members: &[VertexId],
        level: u32,
    ) -> Option<Vec<Vec<VertexId>>> {
        let d = sp.grid.dim;
        let in_s = VertexSet::from_iter(sp.grid.graph.num_vertices(), members.iter().copied());

        // Inner edges with positive current cost, described by the
        // smaller coordinate along the axis they span.
        let mut c1 = 0.0f64;
        let mut edges: Vec<(i64, f64)> = Vec::new();
        for &v in members {
            for &(nb, e) in sp.grid.graph.neighbors(v) {
                if nb <= v || !in_s.contains(nb) {
                    continue;
                }
                let cur = if level == 0 {
                    sp.scaled[e as usize]
                } else {
                    sp.level_cost(e, level)
                };
                if cur <= 0.0 {
                    continue;
                }
                c1 += cur;
                let (cv, cn) = (sp.grid.coord(v), sp.grid.coord(nb));
                let axis = (0..d).find(|&a| cv[a] != cn[a]).unwrap();
                edges.push((cv[axis].min(cn[axis]), cur));
            }
        }

        let ell = ((c1 / d as f64).powf(1.0 / d as f64).ceil() as i64).clamp(1, 1 << 40);
        if ell <= 1 {
            return None;
        }

        // Lemma 20: each edge is cut by exactly one shift α ∈ [1, ℓ]; the
        // first uncut shift if any, else the cheapest (ties to smallest α).
        let mut per_alpha: HashMap<i64, f64> = HashMap::new();
        for &(t, cost) in edges.iter() {
            let mut alpha = (-t).rem_euclid(ell);
            if alpha == 0 {
                alpha = ell;
            }
            *per_alpha.entry(alpha).or_insert(0.0) += cost;
        }
        let alpha = if (per_alpha.len() as i64) < ell {
            (1..=ell).find(|a| !per_alpha.contains_key(a)).unwrap()
        } else {
            // lint: allow(hash-order-leak) — min under total_cmp with the
            // α tie-break is iteration-order independent.
            *per_alpha
                .iter()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                .unwrap()
                .0
        };

        // Assign members to cells ϕ_α(x) = ⌊(x + (α−1)·1)/ℓ⌋.
        let mut cell_map: HashMap<Vec<i64>, Vec<VertexId>> = HashMap::new();
        for &v in members {
            let key = sp
                .grid
                .coord(v)
                .iter()
                .map(|&x| (x + alpha - 1).div_euclid(ell));
            cell_map.entry(key.collect()).or_default().push(v);
        }
        let mut keyed: Vec<(Vec<i64>, Vec<VertexId>)> = cell_map.into_iter().collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Some(keyed.into_iter().map(|(_, vs)| vs).collect())
    }

    /// Lexicographic order of `members` by coordinates (the ℓ = 1 case).
    fn lex_order(sp: &GridSplitter, members: &mut [VertexId]) {
        members.sort_unstable_by(|&a, &b| sp.grid.coord(a).cmp(sp.grid.coord(b)));
    }

    /// The oracle `split` loop over [`coarsen_legacy`]: take whole cells
    /// in lex order while they fit, recurse into the straddling cell, and
    /// finish with a lexicographic vertex prefix once ℓ = 1.
    fn split_legacy(
        sp: &GridSplitter,
        w_set: &VertexSet,
        weights: &[f64],
        target: f64,
    ) -> VertexSet {
        let n = sp.grid.graph.num_vertices();
        let mut members: Vec<VertexId> = w_set.iter().collect();
        let total: f64 = members.iter().map(|&v| weights[v as usize]).sum();
        let mut rem = target.clamp(0.0, total);
        let mut taken = VertexSet::empty(n);
        let mut level = 0u32;
        while let Some(cells) = coarsen_legacy(sp, &members, level) {
            let mut straddle = None;
            for cell in cells {
                let wcell: f64 = cell.iter().map(|&v| weights[v as usize]).sum();
                if wcell <= rem {
                    rem -= wcell;
                    for &v in &cell {
                        taken.insert(v);
                    }
                } else {
                    // Cells after the straddling one are left out.
                    straddle = Some(cell);
                    break;
                }
            }
            match straddle {
                None => return taken, // everything fit (rem ≈ 0 now)
                Some(cell) => members = cell,
            }
            level += 1;
        }
        lex_order(sp, &mut members);
        taken.union_with(&prefix_split(n, &members, weights, rem));
        taken
    }

    fn unit_weights(n: usize) -> Vec<f64> {
        vec![1.0; n]
    }

    #[test]
    fn contract_on_square_grid() {
        let grid = GridGraph::lattice(&[8, 8]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(64);
        let weights = unit_weights(64);
        for target in [0.0, 1.0, 13.0, 32.0, 63.0, 64.0] {
            let u = sp.split(&w, &weights, target);
            assert!(
                check_split(&w, &u, &weights, target).holds(),
                "target {target}"
            );
        }
    }

    #[test]
    fn contract_on_weighted_3d_grid() {
        let grid = GridGraph::lattice(&[4, 4, 4]);
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 1.0 + (e % 17) as f64)
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(64);
        let weights: Vec<f64> = (0..64).map(|v| 1.0 + (v % 5) as f64).collect();
        let total: f64 = weights.iter().sum();
        for frac in [0.1, 0.33, 0.5, 0.9] {
            let target = frac * total;
            let u = sp.split(&w, &weights, target);
            assert!(check_split(&w, &u, &weights, target).holds(), "frac {frac}");
        }
    }

    #[test]
    fn cost_respects_theorem19_on_unit_grid() {
        // 16×16 unit grid, bisect. Theorem 19 bound with d = 2, φ = 1.
        let grid = GridGraph::lattice(&[16, 16]);
        let m = grid.graph.num_edges();
        let costs = vec![1.0; m];
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(256);
        let weights = unit_weights(256);
        let u = sp.split(&w, &weights, 128.0);
        let cut = boundary_cost_within(&grid.graph, &costs, &w, &u);
        let bound = theorem19_bound(2, 1.0, edge_norm_p(&grid.graph, &costs, &w, 2.0));
        assert!(
            cut <= 3.0 * bound,
            "cut {cut} exceeds 3× Theorem 19 bound {bound}"
        );
        // And it must be non-trivially good: far below the total cost.
        assert!(cut < 0.2 * m as f64);
    }

    #[test]
    fn splitting_sets_are_monotone() {
        // Lemma 24: GridSplit returns monotone sets.
        let grid = GridGraph::lattice(&[9, 9]);
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| 1.0 + ((e * 7) % 23) as f64)
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(81);
        let weights = unit_weights(81);
        for target in [10.0, 27.0, 40.0, 70.0] {
            let u = sp.split(&w, &weights, target);
            assert!(
                is_monotone_in(&grid, &u, &w),
                "GridSplit set not monotone at target {target}"
            );
        }
    }

    #[test]
    fn handles_subsets_and_disconnection() {
        let grid = GridGraph::percolation(&[12, 12], 0.75, 11);
        let n = grid.graph.num_vertices();
        let costs = vec![2.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        // Split a random sub-subset.
        let w = VertexSet::from_iter(n, (0..n as u32).filter(|v| v % 3 != 0));
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 2) as f64).collect();
        let wsum: f64 = w.iter().map(|v| weights[v as usize]).sum();
        let u = sp.split(&w, &weights, wsum / 2.0);
        assert!(check_split(&w, &u, &weights, wsum / 2.0).holds());
    }

    #[test]
    fn zero_cost_edges_are_fine() {
        let grid = GridGraph::lattice(&[6, 6]);
        let costs: Vec<f64> = (0..grid.graph.num_edges())
            .map(|e| if e % 2 == 0 { 0.0 } else { 3.0 })
            .collect();
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(36);
        let weights = unit_weights(36);
        let u = sp.split(&w, &weights, 18.0);
        assert!(check_split(&w, &u, &weights, 18.0).holds());
    }

    #[test]
    fn one_dimensional_grid_cuts_one_edge() {
        let grid = GridGraph::path(64);
        let costs = vec![1.0; 63];
        let sp = GridSplitter::new(&grid, &costs);
        let w = VertexSet::full(64);
        let weights = unit_weights(64);
        let u = sp.split(&w, &weights, 32.0);
        assert!(check_split(&w, &u, &weights, 32.0).holds());
        // A monotone (prefix) subset of a path cuts exactly one edge.
        assert!(boundary_cost_within(&grid.graph, &costs, &w, &u) <= 1.0 + 1e-9);
    }

    #[test]
    fn fast_and_legacy_coarsening_split_identically() {
        // Weighted 2D and 3D grids, many targets and subsets: `split`
        // must return bit-identical splitting sets to the HashMap oracle.
        for dims in [vec![13usize, 11], vec![5, 4, 3]] {
            let grid = GridGraph::lattice(&dims);
            let n = grid.graph.num_vertices();
            let costs: Vec<f64> = (0..grid.graph.num_edges())
                .map(|e| 0.5 + ((e * 13) % 29) as f64)
                .collect();
            let sp = GridSplitter::new(&grid, &costs);
            let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 7) % 5) as f64).collect();
            for (mask_mod, frac) in [(1u32, 0.1), (1, 0.5), (1, 0.92), (3, 0.33), (7, 0.6)] {
                let w = VertexSet::from_iter(n, (0..n as u32).filter(|v| v % mask_mod != 1));
                let total: f64 = w.iter().map(|v| weights[v as usize]).sum();
                let target = frac * total;
                let fast = sp.split(&w, &weights, target);
                let legacy = split_legacy(&sp, &w, &weights, target);
                assert_eq!(fast, legacy, "dims {dims:?}, mask {mask_mod}, frac {frac}");
            }
        }
    }

    #[test]
    fn sparse_point_sets_exercise_the_fallback_groupings() {
        // Dominoes (adjacent point pairs) scattered over a wide coordinate
        // range: the cell universe dwarfs the member count, forcing the
        // comparison-sort grouping instead of the counting sort. Unit
        // weights keep every partial sum exact, so split ≡ oracle bitwise.
        let dominoes = |points: Vec<Vec<i64>>, fracs: &[f64]| {
            let grid = GridGraph::from_points(points[0].len(), points);
            let n = grid.graph.num_vertices();
            let costs = vec![1.0; grid.graph.num_edges()];
            let sp = GridSplitter::new(&grid, &costs);
            let weights = vec![1.0; n];
            let w = VertexSet::full(n);
            for &frac in fracs {
                let target = frac * n as f64;
                let u = sp.split(&w, &weights, target);
                assert_eq!(u, split_legacy(&sp, &w, &weights, target), "frac {frac}");
                assert!(check_split(&w, &u, &weights, target).holds());
            }
        };
        let mut flat = Vec::new();
        for i in 0..120i64 {
            let x = (i * 7919) % 1_000_003;
            let y = (i * 104_729) % 999_983;
            flat.push(vec![x, y]);
            flat.push(vec![x + 1, y]);
        }
        dominoes(flat, &[0.25, 0.5, 0.75]);
        // Three-dimensional dominoes whose cell universe exceeds 2^64: no
        // packed key could order their cells.
        let mut spread = Vec::new();
        for i in 0..40i64 {
            let p = vec![i << 40, (i * 7919) << 30, -(i << 41)];
            let mut q = p.clone();
            q[2] += 1;
            spread.push(p);
            spread.push(q);
        }
        dominoes(spread, &[0.1, 0.25, 0.5, 0.75, 0.9]);
        // Astronomical spread on two axes, then points at both ends of
        // the i64 range on both axes: the cell arithmetic must not
        // overflow, and the contract must hold.
        let e = 4_000_000_000_000_000_000;
        let (lo, hi) = (i64::MIN, i64::MAX);
        for points in [
            vec![vec![0, 0], vec![1, 0], vec![e, e], vec![e + 1, e]],
            vec![
                vec![lo, lo],
                vec![lo + 1, lo],
                vec![lo, lo + 1],
                vec![hi, hi],
                vec![hi - 1, hi],
                vec![hi, hi - 1],
                vec![lo, hi],
                vec![hi, lo],
            ],
        ] {
            let far = GridGraph::from_points(2, points);
            let fn_ = far.graph.num_vertices();
            let fcosts = vec![1.0; far.graph.num_edges()];
            let fsp = GridSplitter::new(&far, &fcosts);
            let fw = VertexSet::full(fn_);
            let fweights = vec![1.0; fn_];
            for target in [0.0, 1.0, 2.0, 3.5, 5.0, 8.0] {
                let u = fsp.split(&fw, &fweights, target);
                let holds = check_split(&fw, &u, &fweights, target).holds();
                assert!(holds, "n {fn_}, target {target}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let grid = GridGraph::lattice(&[2, 2]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let empty = VertexSet::empty(4);
        let u = sp.split(&empty, &unit_weights(4), 0.0);
        assert!(u.is_empty());
        let single = VertexSet::from_iter(4, [2u32]);
        let u = sp.split(&single, &unit_weights(4), 1.0);
        assert!(check_split(&single, &u, &unit_weights(4), 1.0).holds());
    }

    #[test]
    fn expensive_column_instance_stays_within_bound() {
        // One enormously expensive column at x = 7→8. The cost-aware
        // splitter must stay within Theorem 19's bound and never do worse
        // than the cost-blind variant (which lex-cuts straight through the
        // expensive column at this target).
        let grid = GridGraph::lattice(&[16, 16]);
        let mut costs = vec![1.0; grid.graph.num_edges()];
        for (e, &(a, b)) in grid.graph.edge_list().iter().enumerate() {
            let (ca, cb) = (grid.coord(a), grid.coord(b));
            if ca[0] != cb[0] && ca[0].min(cb[0]) == 7 {
                costs[e] = 1000.0;
            }
        }
        let w = VertexSet::full(256);
        let weights = unit_weights(256);
        let aware = GridSplitter::new(&grid, &costs);
        let blind = GridSplitter::unit_cost(&grid);
        let ua = aware.split(&w, &weights, 128.0);
        let ub = blind.split(&w, &weights, 128.0);
        let ca = boundary_cost_within(&grid.graph, &costs, &w, &ua);
        let cb = boundary_cost_within(&grid.graph, &costs, &w, &ub);
        assert!(check_split(&w, &ua, &weights, 128.0).holds());
        assert!(check_split(&w, &ub, &weights, 128.0).holds());
        assert!(
            ca <= cb + 1e-9,
            "cost-aware ({ca}) should not lose to cost-blind ({cb})"
        );
        let bound = theorem19_bound(2, 1000.0, edge_norm_p(&grid.graph, &costs, &w, 2.0));
        assert!(
            ca <= 3.0 * bound,
            "cut {ca} exceeds 3× Theorem 19 bound {bound}"
        );
    }
}
