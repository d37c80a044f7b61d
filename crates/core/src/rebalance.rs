//! The rebalancing algorithm of Lemma 9.
//!
//! Input: a `k`-coloring `χ` and measures `Φ^{(1)} = Ψ, Φ^{(2)}, …, Φ^{(r)}`
//! such that `χ` is (weakly) balanced with respect to `Φ^{(2)}..Φ^{(r)}`.
//! Output: a coloring `χ̂` that is additionally Ψ-balanced, with
//!
//! * `‖Ψχ̂⁻¹‖_∞ = O_r(‖Ψ‖_avg + ‖Ψ‖_∞)`,
//! * `‖Φ^{(j)}χ̂⁻¹‖_∞ = O_r(‖Φ^{(j)}χ⁻¹‖_∞ + ‖Φ^{(j)}‖_∞)` for `j ≥ 2`,
//! * average boundary cost increased by `O_r(q·k^{−1/p}·σ_p·‖c‖_p)`.
//!
//! The algorithm maintains *tentative* color classes `tent(i)`, a partition
//! of the colors into `Light / Medium / Heavy` by Ψ-weight and into
//! `Untouched / Pending / Finished` by processing state, and repeatedly
//! applies the `Move` procedure: a pending heavy color donates a splitting
//! set of weight `≈ ‖Ψ‖_avg` to its final class and 2-colors the remainder
//! (Lemma 8) into the incoming sets `Vin(x₁), Vin(x₂)` of two light colors.
//! The induced binary forest `F` has depth `O(log k)` (Claim 5), giving the
//! `O(t(|G|)·log k)` running time of Theorem 4.

use mmb_graph::measure::{set_max, set_sum};
use mmb_graph::workspace::{ScratchMeasure, Workspace};
use mmb_graph::{Coloring, VertexId, VertexSet};
use mmb_splitters::Splitter;

use crate::two_color::two_color;

/// Hook producing the *dynamic* measure `Φ^{(r+1)}` of Proposition 7 at the
/// moment `Move(i)` fires: given the color `i` and its incoming set
/// `Vin(i)`, *fill* the zeroed scratch measure that joins the Lemma 8 call
/// for `Vout(i)` (no dense vector is allocated per `Move`).
pub type ScratchDynamicMeasureFn<'a> = dyn FnMut(u32, &VertexSet, &mut ScratchMeasure<'_>) + 'a;

/// Diagnostics of a rebalancing run.
#[derive(Clone, Debug, Default)]
pub struct RebalanceStats {
    /// Number of `Move` invocations that split a heavy color.
    pub moves: u64,
    /// Depth of the deepest forest component (paper: ≤ log₂(max class / avg)).
    pub forest_depth: u32,
}

/// Lemma 9: rebalance `chi` (total on `domain`) with respect to
/// `measures[0] = Ψ`, preserving the balance of `measures[1..]` up to
/// constants.
///
/// `heavy_factor` is the paper's `2^r` coefficient in the Heavy threshold
/// `3·‖Ψ‖_avg + 2^r·‖Ψ‖_∞`;
/// [`multibalance::heavy_factor`](crate::multibalance::heavy_factor)
/// computes it for `r` measures.
///
/// `dynamic` optionally appends a Move-time measure to each Lemma 8 call
/// (Proposition 7's `Φ^{(r+1)}`), written into a reusable scratch buffer
/// of `ws` per `Move`.
pub fn rebalance_ws<S: Splitter + ?Sized>(
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    measures: &[&[f64]],
    heavy_factor: f64,
    mut dynamic: Option<&mut ScratchDynamicMeasureFn<'_>>,
    ws: &Workspace,
) -> (Coloring, RebalanceStats) {
    assert!(!measures.is_empty(), "need at least the measure to balance");
    let k = chi.k();
    let n = chi.num_vertices();
    let psi = measures[0];
    let mut stats = RebalanceStats::default();

    let total = set_sum(psi, domain);
    if total <= 0.0 || k == 1 {
        // Every coloring is Ψ-balanced; nothing to do.
        return (chi.restrict_to(domain), stats);
    }
    let avg = total / k as f64;
    let psi_max = set_max(psi, domain);
    let heavy_threshold = 3.0 * avg + heavy_factor * psi_max;

    // Tentative classes (a partition of `domain` at all times).
    let mut tent: Vec<Vec<VertexId>> = {
        let mut t = vec![Vec::new(); k];
        for v in domain.iter() {
            let c = chi.get(v).expect("chi must be total on the domain");
            t[c as usize].push(v);
        }
        t
    };
    let mut tent_w: Vec<f64> = tent
        .iter()
        .map(|cls| cls.iter().map(|&v| psi[v as usize]).sum())
        .collect();

    // Color-state bookkeeping. Light colors are always untouched, so a
    // simple pop stack never yields stale entries.
    let mut pending: Vec<u32> = (0..k as u32)
        .filter(|&i| tent_w[i as usize] >= heavy_threshold)
        .collect();
    let mut light: Vec<u32> = (0..k as u32)
        .filter(|&i| tent_w[i as usize] < avg)
        .collect();
    let mut is_pending_or_finished = vec![false; k];
    for &i in &pending {
        is_pending_or_finished[i as usize] = true;
    }
    // Forest bookkeeping: Vin per color and the depth of each color's node.
    let mut vin: Vec<VertexSet> = vec![VertexSet::empty(n); k];
    let mut depth = vec![0u32; k];

    let mut chi_hat = Coloring::new_uncolored(n, k);
    let finish = |i: u32, members: &[VertexId], chi_hat: &mut Coloring| {
        for &v in members {
            chi_hat.set(v, i);
        }
    };

    while let Some(i) = pending.pop() {
        let iu = i as usize;
        if tent_w[iu] < heavy_threshold {
            // Medium (or light-ish): freeze the tentative class.
            finish(i, &tent[iu], &mut chi_hat);
            continue;
        }
        // Heavy: Move(i). Claim 1 guarantees two light colors exist; if the
        // caller runs with aggressive (non-paper) constants and the pool is
        // exhausted, freezing `i` keeps the algorithm total (strictness is
        // restored downstream by BinPack2).
        if light.len() < 2 {
            finish(i, &tent[iu], &mut chi_hat);
            continue;
        }
        let x1 = light.pop().expect("light.len() >= 2 checked above");
        let x2 = light.pop().expect("light.len() >= 2 checked above");
        stats.moves += 1;

        let x_members = std::mem::take(&mut tent[iu]);
        let x_set = VertexSet::from_iter(n, x_members.iter().copied());
        // Splitting set with Ψ(U) ∈ [avg, avg + ‖Ψ‖∞] (step 3 of Move).
        let u = splitter.split(&x_set, psi, avg + psi_max / 2.0);
        let w_out = x_set.difference(&u);

        // 2-color Vout(i) by Lemma 8, balancing all measures plus the
        // optional dynamic measure (Proposition 7's Φ^{(r+1)}), filled
        // into a scratch buffer that is re-zeroed after the call.
        let dyn_measure = dynamic.as_mut().map(|f| {
            let mut sm = ws.measure(n);
            f(i, &vin[iu], &mut sm);
            sm
        });
        let halves = {
            let mut ms: Vec<&[f64]> = measures.to_vec();
            if let Some(dm) = dyn_measure.as_ref() {
                ms.push(dm.as_slice());
            }
            two_color(splitter, &w_out, &ms)
        };

        // Finish color i with the splitting set.
        let u_members: Vec<VertexId> = u.iter().collect();
        tent_w[iu] = set_sum(psi, &u);
        finish(i, &u_members, &mut chi_hat);
        tent[iu] = u_members;

        // Hand the halves to the two light colors.
        for (x, half) in [(x1, halves.class1), (x2, halves.class2)] {
            let xu = x as usize;
            debug_assert!(!is_pending_or_finished[xu], "light color was not untouched");
            is_pending_or_finished[xu] = true;
            depth[x as usize] = depth[iu] + 1;
            stats.forest_depth = stats.forest_depth.max(depth[x as usize]);
            for v in half.iter() {
                tent[xu].push(v);
                tent_w[xu] += psi[v as usize];
            }
            vin[xu] = half;
            pending.push(x);
        }
    }

    // Untouched colors keep their original class.
    for (i, members) in tent.iter().enumerate() {
        if !is_pending_or_finished[i] {
            finish(i as u32, members, &mut chi_hat);
        }
    }
    debug_assert_eq!(
        chi_hat.num_colored(),
        domain.len(),
        "classes must partition the domain"
    );
    (chi_hat, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_graph::measure::norm_inf;
    use mmb_splitters::grid::GridSplitter;

    fn grid_setup(side: usize) -> (GridGraph, Vec<f64>) {
        let grid = GridGraph::lattice(&[side, side]);
        let costs = vec![1.0; grid.graph.num_edges()];
        (grid, costs)
    }

    #[test]
    fn balances_from_monochromatic() {
        let (grid, costs) = grid_setup(12);
        let n = grid.graph.num_vertices();
        let sp = GridSplitter::new(&grid, &costs);
        let k = 8;
        let chi = Coloring::monochromatic(n, k);
        let domain = VertexSet::full(n);
        let psi: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        let ws = Workspace::new();
        let (chi_hat, stats) = rebalance_ws(&sp, &chi, &domain, &[&psi], 2.0, None, &ws);
        assert!(chi_hat.is_total());
        let avg: f64 = psi.iter().sum::<f64>() / k as f64;
        let maxw = norm_inf(&psi);
        let cm = chi_hat.class_measures(&psi);
        // Heavy threshold is 3·avg + 2·max; every class must end below it.
        for (i, &c) in cm.iter().enumerate() {
            assert!(c < 3.0 * avg + 2.0 * maxw + 1e-9, "class {i} weight {c}");
        }
        assert!(stats.moves >= 1);
        // Forest depth is O(log k) — here the single heavy root spawns a
        // binary tree over at most k colors.
        assert!(stats.forest_depth as usize <= 2 * (k.ilog2() as usize + 1));
    }

    #[test]
    fn preserves_secondary_measure_balance() {
        let (grid, costs) = grid_setup(12);
        let n = grid.graph.num_vertices();
        let sp = GridSplitter::new(&grid, &costs);
        let k = 6;
        let domain = VertexSet::full(n);
        // Secondary measure: already balanced by a row-stripe coloring.
        let phi2: Vec<f64> = vec![1.0; n];
        let chi = Coloring::from_fn(n, k, |v| {
            let row = grid.coord(v)[1] as usize;
            (row * k / 12) as u32
        });
        let before2 = norm_inf(&chi.class_measures(&phi2));
        // Primary measure: concentrated on one stripe, so chi is very
        // unbalanced in psi.
        let psi: Vec<f64> = (0..n as u32)
            .map(|v| if grid.coord(v)[1] < 2 { 10.0 } else { 0.1 })
            .collect();
        let ws = Workspace::new();
        let (chi_hat, _) = rebalance_ws(&sp, &chi, &domain, &[&psi, &phi2], 4.0, None, &ws);
        assert!(chi_hat.is_total());
        let psi_avg: f64 = psi.iter().sum::<f64>() / k as f64;
        let after1 = norm_inf(&chi_hat.class_measures(&psi));
        assert!(
            after1 <= 3.0 * psi_avg + 4.0 * norm_inf(&psi) + 1e-9,
            "psi not balanced: {after1} vs avg {psi_avg}"
        );
        // Claim 3: the secondary measure degrades by at most 4× plus O(max).
        let after2 = norm_inf(&chi_hat.class_measures(&phi2));
        assert!(
            after2 <= 4.0 * before2 + 8.0 * norm_inf(&phi2) + 1e-9,
            "phi2 blew up: {before2} -> {after2}"
        );
    }

    #[test]
    fn zero_weight_measure_is_noop() {
        let (grid, costs) = grid_setup(4);
        let n = grid.graph.num_vertices();
        let sp = GridSplitter::new(&grid, &costs);
        let chi = Coloring::from_fn(n, 3, |v| v % 3);
        let domain = VertexSet::full(n);
        let psi = vec![0.0; n];
        let ws = Workspace::new();
        let (chi_hat, stats) = rebalance_ws(&sp, &chi, &domain, &[&psi], 2.0, None, &ws);
        assert_eq!(stats.moves, 0);
        assert_eq!(chi_hat, chi);
    }

    #[test]
    fn dynamic_hook_is_called_per_move() {
        let (grid, costs) = grid_setup(10);
        let n = grid.graph.num_vertices();
        let sp = GridSplitter::new(&grid, &costs);
        let k = 5;
        let chi = Coloring::monochromatic(n, k);
        let domain = VertexSet::full(n);
        let psi = vec![1.0; n];
        let mut calls = 0u32;
        let mut hook = |_i: u32, vin: &VertexSet, m: &mut ScratchMeasure<'_>| {
            calls += 1;
            for v in vin.iter() {
                m.set(v, 1.0);
            }
        };
        let (_, stats) = rebalance_ws(
            &sp,
            &chi,
            &domain,
            &[&psi],
            2.0,
            Some(&mut hook as &mut ScratchDynamicMeasureFn<'_>),
            &Workspace::new(),
        );
        assert_eq!(calls as u64, stats.moves);
        assert!(calls >= 1);
    }

    #[test]
    fn partial_domain() {
        let (grid, costs) = grid_setup(8);
        let n = grid.graph.num_vertices();
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::from_iter(n, (0..n as u32).filter(|v| v % 5 != 0));
        let mut chi = Coloring::new_uncolored(n, 4);
        for v in domain.iter() {
            chi.set(v, 0);
        }
        let psi = vec![1.0; n];
        let ws = Workspace::new();
        let (chi_hat, _) = rebalance_ws(&sp, &chi, &domain, &[&psi], 2.0, None, &ws);
        assert_eq!(chi_hat.num_colored(), domain.len());
        assert!(chi_hat.is_total_on(&domain));
        // Classes stay within the domain.
        assert!(chi_hat.domain().is_subset_of(&domain));
    }
}
