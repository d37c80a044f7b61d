//! `BinPack2` (Proposition 12): almost strict → **strictly** balanced.
//!
//! Turns any almost strictly balanced coloring into one satisfying
//! Definition 1's eq. (1) *exactly*:
//!
//! ```text
//! max_i |w(χ⁻¹(i)) − ‖w‖₁/k| ≤ (1 − 1/k)·‖w‖∞
//! ```
//!
//! Overweight classes shed pieces of weight `∈ [‖w‖∞/2, ‖w‖∞]` (a single
//! heavy vertex, or a splitting set over the light vertices — Claim 4 of
//! the appendix); pieces refill classes below the lower envelope and the
//! remainder goes to the lightest classes. The averaging invariants make
//! the loop provably safe: while some class sits below
//! `w* − (1−1/k)‖w‖∞`, uncolored pieces must exist.
//!
//! **Degenerate regime.** The paper assumes `w* ≥ ‖w‖∞/2` and notes the
//! other case is "handled similarly". When `w* < ‖w‖∞/2` (more colors than
//! heavy vertices can fill), splitting sets of the required size do not
//! exist; we fall back to [`greedy_strict`], the classical largest-first
//! greedy assignment, which *always* achieves eq. (1) — at unbounded
//! boundary cost, which is acceptable because in this regime classes are
//! dominated by single vertices anyway.
//!
//! **Cost.** Linear in `n` plus the splitter calls: `O(k·n/64 + n)` to
//! sort the domain into classes and to write the output, `O(1)` per
//! heavy-vertex piece (a forward cursor over each class's heavy
//! vertices), one split plus `O(n/64 + |class|)` per splitting-set piece,
//! and `O(k + |X|)` to place a piece `X`. Pieces are id lists, and class
//! weights are running sums; every test still reads the fresh re-sum the
//! proposition's loop is written with (see `Class`), so the coloring
//! is the same as re-summing every class for every test. When the
//! weights sum exactly (integers, or any common power-of-two grid) no
//! re-sum ever runs; otherwise one runs only when a running sum lands
//! within its rounding bound of a threshold or a tie.

use mmb_graph::measure::set_sum;
use mmb_graph::{Coloring, Graph, VertexId, VertexSet};
use mmb_splitters::Splitter;

/// Greedy-lightest: each vertex of `order`, in turn, goes to the class
/// with the smallest entry of `loads` (ties to the lowest index), whose
/// load then grows by the vertex's weight. Started from equal loads it
/// satisfies eq. (1) in any order: when the heaviest class received its
/// last vertex it was the lightest, so `max − min ≤ ‖w‖∞`, and averaging
/// gives `max − avg ≤ (1 − 1/k)·‖w‖∞`.
pub fn assign_lightest(
    chi: &mut Coloring,
    loads: &mut [f64],
    order: impl IntoIterator<Item = VertexId>,
    weights: &[f64],
) {
    for v in order {
        let i = (0..loads.len())
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("k >= 1 classes");
        chi.set(v, i as u32);
        loads[i] += weights[v as usize];
    }
}

/// Largest-first greedy assignment: [`assign_lightest`] over the domain
/// in decreasing weight order (ties by id). Satisfies eq. (1) for every
/// input.
pub fn greedy_strict(n: usize, k: usize, domain: &VertexSet, weights: &[f64]) -> Coloring {
    let mut order: Vec<VertexId> = domain.iter().collect();
    // `total_cmp`, not `partial_cmp(..).unwrap()`: instance validation
    // rejects NaN today, but this baseline is also called directly on raw
    // weight vectors and must stay deterministic and panic-free on every
    // finite input (subnormals, negative zeros) — and on any future path
    // that forgets to validate.
    order.sort_by(|&a, &b| {
        weights[b as usize]
            .total_cmp(&weights[a as usize])
            .then(a.cmp(&b))
    });
    let mut out = Coloring::new_uncolored(n, k);
    assign_lightest(&mut out, &mut vec![0.0; k], order, weights);
    out
}

/// `BinPack2` (Proposition 12): enforce strict balance exactly.
///
/// `chi` must be total on `domain`. The output satisfies eq. (1) up to
/// floating-point tolerance; the boundary cost grows by at most
/// `O(‖∂χ⁻¹‖∞ + ‖πχ⁻¹‖∞^{1/p} + Δ_c)` when the input is almost strict.
pub fn binpack2<S: Splitter + ?Sized>(
    g: &Graph,
    splitter: &S,
    chi: &Coloring,
    domain: &VertexSet,
    weights: &[f64],
) -> Coloring {
    let n = g.num_vertices();
    let k = chi.k();
    if k == 1 {
        return chi.restrict_to(domain);
    }
    let (wmax, total, drift) = weigh(weights, domain);
    let w_star = total / k as f64;
    if wmax <= 0.0 {
        return chi.restrict_to(domain);
    }
    if w_star < wmax / 2.0 {
        // Degenerate regime: see module docs.
        return greedy_strict(n, k, domain, weights);
    }

    // Step 2: cut every class down to ≤ w*. One pass over the domain
    // sorts it into classes and lists each class's heavy vertices. Claim
    // 4 takes the first heavy vertex still in the class; the class only
    // shrinks, so a forward cursor over that list finds it. Classes shed
    // in class order, so the buffer holds class 0's pieces first.
    let mut classes: Vec<Class> = (0..k).map(|_| Class::empty(n)).collect();
    let mut heavy: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for v in domain.iter() {
        if let Some(c) = chi.get(v) {
            let class = &mut classes[c as usize];
            class.set.insert(v);
            class.weight += weights[v as usize];
            if weights[v as usize] >= wmax / 2.0 {
                heavy[c as usize].push(v);
            }
        }
    }
    let mut buffer = Vec::new();
    for (class, heavy) in classes.iter_mut().zip(heavy) {
        let mut heavy = heavy.into_iter();
        while class.exceeds(w_star + 1e-12 * total, weights) && !class.set.is_empty() {
            let x = match heavy.next() {
                Some(v) => vec![v],
                None => split_piece(splitter, class, weights, wmax),
            };
            debug_assert!(!x.is_empty());
            class.shed(&x, weights, drift);
            buffer.push(x);
        }
    }

    // Step 3: refill classes below the strict lower envelope. The
    // averaging argument (see module docs) guarantees the buffer cannot be
    // empty while such a class exists.
    let lower = w_star - (1.0 - 1.0 / k as f64) * wmax;
    while let Some(i) =
        (0..k).find(|&i| classes[i].falls_below(lower - 1e-12 * (1.0 + total), weights))
    {
        let Some(x) = buffer.pop() else {
            debug_assert!(
                false,
                "BinPack2 invariant violated: empty buffer with light class"
            );
            break;
        };
        classes[i].take(&x, weights, drift);
    }

    // Step 4: leftovers onto the lightest classes.
    while let Some(x) = buffer.pop() {
        let i = lightest(&mut classes, weights);
        classes[i].take(&x, weights, drift);
    }

    let mut out = Coloring::new_uncolored(n, k);
    for (i, class) in classes.iter().enumerate() {
        for v in class.set.iter() {
            out.set(v, i as u32);
        }
    }
    out
}

/// How far a running class weight can stray from the re-sum `set_sum`
/// gives for the same set, the value every test of Proposition 12's loop
/// reads.
#[derive(Clone, Copy)]
struct Drift {
    /// The bound once a running sum has moved off a re-sum: `3·N·ε·Σ|w|`
    /// over the domain's `N` weights. `N·ε·Σ|w|` bounds the rounding error
    /// of any sequential sum of them, and three such errors separate the
    /// two sums: the re-sum's own, that of the re-sum the running sum
    /// started from, and that of every piece weight it has moved since.
    start: f64,
    /// Added per update, times `|running sum|`: its one rounding.
    per_update: f64,
}

/// `set_max` and `set_sum` of the domain's weights (their own folds, so
/// the same bits) and the [`Drift`] of running sums over them, in one
/// pass.
fn weigh(weights: &[f64], domain: &VertexSet) -> (f64, f64, Drift) {
    let (mut wmax, mut total, mut mass) = (0.0f64, -0.0f64, 0.0f64);
    // Sums are exact, in any order and over any subset, when all weights
    // are multiples of one power of two 2^low and their absolute sum
    // stays below 2^(low + 53): then running sums *are* the re-sums and
    // never drift.
    let mut low = i32::MAX;
    for v in domain.iter() {
        let w = weights[v as usize];
        wmax = wmax.max(w);
        total += w;
        mass += w.abs();
        if w != 0.0 {
            low = low.min(lowest_bit(w));
        }
    }
    let drift = if mass < 2f64.powi(low.saturating_add(53)) {
        Drift {
            start: 0.0,
            per_update: 0.0,
        }
    } else {
        Drift {
            start: 3.0 * domain.len() as f64 * f64::EPSILON * mass,
            per_update: f64::EPSILON,
        }
    };
    (wmax, total, drift)
}

/// The exponent of the lowest set bit of a nonzero `w`: `w` is an odd
/// multiple of `2^lowest_bit(w)`.
fn lowest_bit(w: f64) -> i32 {
    let bits = w.to_bits();
    let (exp, frac) = (((bits >> 52) & 0x7ff) as i32, bits & ((1 << 52) - 1));
    if exp == 0 {
        frac.trailing_zeros() as i32 - 1074 // subnormal
    } else {
        (frac | 1 << 52).trailing_zeros() as i32 + exp - 1075
    }
}

/// A class of steps 2–4: its members and its weight.
///
/// The quadratic form of `BinPack2` re-summed `set_sum(weights, &set)` for
/// every test. Here `weight` is a running sum and `drift` bounds its
/// distance to that re-sum (zero while it *is* the re-sum, sign of a zero
/// included). A test the running sum cannot decide within `drift`
/// re-sums the class once, so every decision is the re-summing one.
struct Class {
    set: VertexSet,
    weight: f64,
    drift: f64,
}

impl Class {
    /// No members; `−0.0` is what `set_sum` gives the empty set.
    fn empty(n: usize) -> Self {
        Class {
            set: VertexSet::empty(n),
            weight: -0.0,
            drift: 0.0,
        }
    }

    /// `set_sum(weights, &self.set)`, which the running weight becomes.
    fn resum(&mut self, weights: &[f64]) -> f64 {
        if self.drift != 0.0 {
            self.weight = set_sum(weights, &self.set);
            self.drift = 0.0;
        }
        self.weight
    }

    /// Whether `set_sum(weights, &self.set) > t`.
    fn exceeds(&mut self, t: f64, weights: &[f64]) -> bool {
        if self.weight - self.drift > t {
            true
        } else if self.weight + self.drift <= t {
            false
        } else {
            self.resum(weights) > t
        }
    }

    /// Whether `set_sum(weights, &self.set) < t`.
    fn falls_below(&mut self, t: f64, weights: &[f64]) -> bool {
        if self.weight + self.drift < t {
            true
        } else if self.weight - self.drift >= t {
            false
        } else {
            self.resum(weights) < t
        }
    }

    /// Add the piece `x`.
    fn take(&mut self, x: &[VertexId], weights: &[f64], drift: Drift) {
        for &v in x {
            self.set.insert(v);
        }
        self.shift(piece_weight(weights, x), drift);
    }

    /// Remove the piece `x`.
    fn shed(&mut self, x: &[VertexId], weights: &[f64], drift: Drift) {
        for &v in x {
            self.set.remove(v);
        }
        self.shift(-piece_weight(weights, x), drift);
    }

    fn shift(&mut self, dw: f64, drift: Drift) {
        self.weight += dw;
        self.drift = self.drift.max(drift.start) + drift.per_update * self.weight.abs();
        if self.weight == 0.0 {
            // The sign of a zero sum depends on the summation order.
            self.drift = self.drift.max(f64::MIN_POSITIVE);
        }
    }
}

/// Step 4's target, `(0..k).min_by(total_cmp)` over the re-sums (ties to
/// the lowest index): only classes that may be the lightest within their
/// drift are re-summed.
fn lightest(classes: &mut [Class], weights: &[f64]) -> usize {
    let reach = classes
        .iter()
        .map(|c| c.weight + c.drift)
        .fold(f64::INFINITY, f64::min);
    let mut best: Option<(usize, f64)> = None;
    for (i, class) in classes.iter_mut().enumerate() {
        let heavier = class.weight - class.drift > reach;
        if !heavier {
            let w = class.resum(weights);
            if best.is_none_or(|(_, b)| w.total_cmp(&b).is_lt()) {
                best = Some((i, w));
            }
        }
    }
    best.expect("k >= 1 classes").0
}

/// `w(X)` of a piece, summed in id order like [`set_sum`].
fn piece_weight(weights: &[f64], x: &[VertexId]) -> f64 {
    x.iter().map(|&v| weights[v as usize]).sum()
}

/// Claim 4 once `class` holds no heavy vertex: a splitting set of weight
/// `∈ [‖w‖∞/2, ‖w‖∞]` (all vertices are then lighter than `‖w‖∞/2`, so
/// the contract slack stays within the window), as ids in increasing
/// order.
fn split_piece<S: Splitter + ?Sized>(
    splitter: &S,
    class: &mut Class,
    weights: &[f64],
    wmax: f64,
) -> Vec<VertexId> {
    let target = (0.75 * wmax).min(class.resum(weights));
    let x = splitter.split(&class.set, weights, target);
    if x.is_empty() || set_sum(weights, &x) <= 0.0 {
        // Defensive: all-zero piece; peel the heaviest vertex to guarantee
        // progress.
        let heaviest = class
            .set
            .iter()
            .max_by(|&a, &b| weights[a as usize].total_cmp(&weights[b as usize]))
            .expect("class is non-empty");
        return vec![heaviest];
    }
    x.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;
    use mmb_splitters::grid::GridSplitter;

    #[test]
    fn greedy_is_always_strict() {
        for (k, seed) in [(2usize, 1u64), (3, 2), (7, 3), (16, 4)] {
            let n = 50;
            let weights: Vec<f64> = (0..n)
                .map(|v| 1.0 + ((v as u64 * seed * 2654435761) % 97) as f64)
                .collect();
            let domain = VertexSet::full(n);
            let chi = greedy_strict(n, k, &domain, &weights);
            assert!(chi.is_total());
            assert!(chi.is_strictly_balanced(&weights), "k={k} seed={seed}");
        }
    }

    #[test]
    fn binpack2_enforces_eq1_on_grid() {
        let grid = GridGraph::lattice(&[16, 16]);
        let n = 256;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let k = 5;
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
        // Almost strict-ish but not strict start: stripes.
        let chi = Coloring::from_fn(n, k, |v| ((grid.coord(v)[0] as usize * k) / 16) as u32);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_total_on(&domain));
        assert!(
            out.is_strictly_balanced(&weights),
            "defect {}",
            out.strict_balance_defect(&weights)
        );
    }

    #[test]
    fn binpack2_handles_badly_unbalanced_input() {
        // Even a monochromatic input must come out strictly balanced
        // (Proposition 12 only needs almost-strictness for the *cost*
        // guarantee, not for correctness).
        let grid = GridGraph::lattice(&[10, 10]);
        let n = 100;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let weights: Vec<f64> = (0..n).map(|v| 1.0 + ((v * 13) % 7) as f64).collect();
        let chi = Coloring::monochromatic(n, 8);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_strictly_balanced(&weights));
    }

    #[test]
    fn degenerate_heavy_vertex_regime() {
        // One vertex carries almost all the weight and k is large: the
        // greedy fallback must fire and still satisfy eq. (1).
        let grid = GridGraph::lattice(&[4, 4]);
        let n = 16;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let mut weights = vec![0.01; n];
        weights[5] = 100.0;
        let k = 8; // w* ≈ 12.5 < 50 = wmax/2 → degenerate
        let chi = Coloring::monochromatic(n, k);
        let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
        assert!(out.is_strictly_balanced(&weights));
    }

    #[test]
    fn k1_and_zero_weights() {
        let grid = GridGraph::lattice(&[3, 3]);
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(9);
        let chi1 = Coloring::monochromatic(9, 1);
        let out1 = binpack2(&grid.graph, &sp, &chi1, &domain, &[1.0; 9]);
        assert!(out1.is_strictly_balanced(&[1.0; 9]));
        let chi2 = Coloring::from_fn(9, 3, |v| v % 3);
        let out2 = binpack2(&grid.graph, &sp, &chi2, &domain, &[0.0; 9]);
        assert!(out2.is_strictly_balanced(&[0.0; 9]));
    }

    #[test]
    fn adversarial_finite_weights_are_deterministic_and_panic_free() {
        // Regression for the four `partial_cmp(..).unwrap()` comparators
        // this module used to carry: a weight vector mixing subnormals,
        // negative zeros, exact ties and huge magnitudes must neither
        // panic nor produce run-to-run differences. (`total_cmp` orders
        // −0.0 < +0.0 < subnormal < …, a total order on all finite
        // floats.)
        let grid = GridGraph::lattice(&[6, 6]);
        let n = 36;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let weights: Vec<f64> = (0..n)
            .map(|v| match v % 6 {
                0 => 0.0,
                1 => -0.0,
                2 => f64::MIN_POSITIVE / 2.0, // subnormal
                3 => f64::MIN_POSITIVE,
                4 => 1e300,
                _ => 1.0,
            })
            .collect();
        for k in [2usize, 3, 5] {
            let greedy_a = greedy_strict(n, k, &domain, &weights);
            let greedy_b = greedy_strict(n, k, &domain, &weights);
            assert_eq!(
                greedy_a, greedy_b,
                "greedy_strict nondeterministic at k={k}"
            );
            assert!(greedy_a.is_strictly_balanced(&weights), "k={k}");
            let chi = Coloring::monochromatic(n, k);
            let out_a = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            let out_b = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            assert_eq!(out_a, out_b, "binpack2 nondeterministic at k={k}");
            assert!(out_a.is_total_on(&domain), "k={k}");
            assert!(
                out_a.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                out_a.strict_balance_defect(&weights)
            );
        }
    }

    #[test]
    fn strictness_with_spike_weights() {
        // A few heavy spikes among light vertices.
        let grid = GridGraph::lattice(&[12, 12]);
        let n = 144;
        let costs = vec![1.0; grid.graph.num_edges()];
        let sp = GridSplitter::new(&grid, &costs);
        let domain = VertexSet::full(n);
        let mut weights = vec![1.0; n];
        for v in [3usize, 40, 77, 100] {
            weights[v] = 25.0;
        }
        for k in [2usize, 3, 4, 6] {
            let chi = Coloring::from_fn(n, k, |v| (v as usize % k) as u32);
            let out = binpack2(&grid.graph, &sp, &chi, &domain, &weights);
            assert!(
                out.is_strictly_balanced(&weights),
                "k={k}: defect {}",
                out.strict_balance_defect(&weights)
            );
        }
    }
}
