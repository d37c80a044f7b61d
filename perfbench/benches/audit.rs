//! Output checks written against the benchmark's own copies of the
//! inputs, so a bookkeeping bug in the library cannot vouch for itself.

use mmb_graph::Coloring;

/// The instance an output is checked against: canonical edge list with
/// parallel costs, and vertex weights.
pub struct Mirror<'a> {
    pub edges: &'a [(u32, u32)],
    pub costs: &'a [f64],
    pub weights: &'a [f64],
    pub k: usize,
}

impl Mirror<'_> {
    /// Check that `chi` is a total `k`-coloring, strictly balanced in the
    /// sense of eq. (1) (same relative tolerance as the library), and that
    /// `reported` is its max boundary cost. Returns the recomputed cost.
    pub fn check(&self, chi: &Coloring, reported: f64) -> Result<f64, String> {
        let n = self.weights.len();
        if chi.num_vertices() != n || chi.k() != self.k {
            return Err(format!(
                "coloring shape {}x{} != instance {n}x{}",
                chi.num_vertices(),
                chi.k(),
                self.k
            ));
        }
        let mut class_w = vec![0.0f64; self.k];
        let mut wmax = 0.0f64;
        for (v, &w) in self.weights.iter().enumerate() {
            match chi.get(v as u32) {
                Some(c) if (c as usize) < self.k => class_w[c as usize] += w,
                _ => return Err(format!("vertex {v} is not colored")),
            }
            wmax = wmax.max(w);
        }
        let avg = class_w.iter().sum::<f64>() / self.k as f64;
        let dev = class_w.iter().map(|x| (x - avg).abs()).fold(0.0, f64::max);
        let slack = (1.0 - 1.0 / self.k as f64) * wmax;
        if dev - slack > 1e-9 * wmax.max(1e-300) {
            return Err(format!(
                "not strictly balanced: deviation {dev} > slack {slack}"
            ));
        }
        let cost = self.max_boundary(chi);
        if (cost - reported).abs() > 1e-9 * cost.max(1.0) {
            return Err(format!(
                "reported max boundary {reported} != recomputed {cost}"
            ));
        }
        Ok(cost)
    }

    /// `max_i ∂χ⁻¹(i)` of a total coloring.
    pub fn max_boundary(&self, chi: &Coloring) -> f64 {
        let mut boundary = vec![0.0f64; self.k];
        for (&(u, v), &c) in self.edges.iter().zip(self.costs) {
            let (cu, cv) = (chi.raw(u) as usize, chi.raw(v) as usize);
            if cu != cv {
                boundary[cu] += c;
                boundary[cv] += c;
            }
        }
        boundary.into_iter().fold(0.0, f64::max)
    }

    /// The LPT floor: vertices by descending weight, each to the lightest
    /// class. Strictly balanced in any order; a served warm coloring must
    /// not cost more.
    pub fn lpt_floor(&self) -> f64 {
        let n = self.weights.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            self.weights[b as usize]
                .total_cmp(&self.weights[a as usize])
                .then(a.cmp(&b))
        });
        let mut loads = vec![0.0f64; self.k];
        let mut colors = vec![0u32; n];
        for v in order {
            let lightest = (0..self.k)
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .unwrap_or(0);
            loads[lightest] += self.weights[v as usize];
            colors[v as usize] = lightest as u32;
        }
        self.max_boundary(&Coloring::from_vec(self.k, colors))
    }
}
