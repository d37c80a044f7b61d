//! The standard instance corpus: one registry every bench, experiment and
//! test iterates uniformly.
//!
//! A [`CorpusEntry`] bundles a generated graph family with a weight
//! profile ([`crate::weights::WeightFamily`]) and a cost profile
//! ([`crate::costs::CostFamily`]) into a validated
//! [`Instance`], plus the evaluation parameters the harness needs: the
//! class count `k` and the norm exponent `p` at which the Theorem-5
//! right-hand side is computed.
//!
//! ## The exponent convention
//!
//! Theorem 5's RHS `‖c‖_p/k^{1/p} + ‖c‖_∞` is only a (constant-free)
//! upper bound where the instance's splittability `σ_p` is actually
//! bounded. The corpus therefore evaluates every family at `p = 1`: the
//! `p → 1` instantiation `‖c‖₁/k + ‖c‖_∞` is the honest, family-agnostic
//! form (prefix cuts certify `σ₁ = O(1)` on *every* graph), and it is the
//! bound the `reproduce corpus` CI gate enforces at ratio ≤ 1. The
//! sharper natural exponents (`d/(d−1)` on lattices) stay the business of
//! the dedicated experiments E1/E5, whose ratio columns are *bounded*,
//! not ≤ 1, because the theorem's constant is not 1.
//!
//! Four sizes:
//!
//! * [`Corpus::standard`] — the full registry (hundreds of vertices per
//!   entry): every family × two weight/cost profiles;
//! * [`Corpus::quick`] — the same shape at CI-smoke sizes;
//! * [`Corpus::small`] — `n ≤ 10` entries for the exact-optimum
//!   differential suite (exhaustive search is exponential in `n`);
//! * [`Corpus::medium`] — `16 < n ≤ 20` entries still within reach of
//!   the branch-and-bound engine's default certification budget, so the
//!   certified-gap table has rows proven optimal past `n = 16`.

use mmb_core::api::Instance;
use mmb_graph::gen::attachment::preferential_attachment;
use mmb_graph::gen::community::planted_partition;
use mmb_graph::gen::geometric::random_geometric;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::lattice::{hypercube, torus};
use mmb_graph::gen::smallworld::watts_strogatz;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::Graph;

use crate::costs::CostFamily;
use crate::weights::WeightFamily;

/// One named corpus instance: a generated graph paired with weight/cost
/// profiles, plus the harness parameters (`k`, `p`) it is evaluated at.
#[derive(Debug)]
pub struct CorpusEntry {
    /// Unique entry name, e.g. `"pa-uniform-unit"`.
    pub name: String,
    /// Graph family tag: `"pa"`, `"rgg"`, `"ws"`, `"hypercube"`,
    /// `"torus"`, `"sbm"`, `"grid"`, or `"tree"`.
    pub family: &'static str,
    /// Human-readable generator parameters (sizes, probabilities, seed).
    pub params: String,
    /// Class count the harness partitions this entry into.
    pub k: usize,
    /// Norm exponent for the Theorem-5 RHS (the corpus convention is
    /// `p = 1`; see the module docs).
    pub p: f64,
    /// The validated instance (graph + costs + weights).
    pub instance: Instance,
}

/// The corpus: an ordered list of [`CorpusEntry`]s, grouped by family.
#[derive(Debug, Default)]
pub struct Corpus {
    entries: Vec<CorpusEntry>,
}

/// The two weight/cost profiles every family is paired with.
const PROFILES: [(WeightFamily, CostFamily, f64); 2] = [
    (WeightFamily::Uniform, CostFamily::Unit, 1.0),
    (WeightFamily::Bimodal, CostFamily::LogUniform, 4.0),
];

impl Corpus {
    /// The standard corpus: every family × the two standard profiles at
    /// full (but still seconds-scale) sizes.
    pub fn standard() -> Self {
        Self::build(false)
    }

    /// The standard corpus at CI-smoke sizes (same families, same
    /// profiles, smaller graphs).
    pub fn quick() -> Self {
        Self::build(true)
    }

    /// Small-`n` corpus for the exact-optimum differential suite: one
    /// graph per family (two for `pa`, distinguished by a name tag) with
    /// `n ≤ 10`, × the two standard profiles.
    pub fn small() -> Self {
        let mut c = Corpus::default();
        let graphs: Vec<(&'static str, &'static str, String, Graph)> = vec![
            (
                "pa",
                "-a1",
                "n=9 attach=1 seed=5".into(),
                preferential_attachment(9, 1, 5),
            ),
            (
                "pa",
                "-a2",
                "n=10 attach=2 seed=6".into(),
                preferential_attachment(10, 2, 6),
            ),
            (
                "rgg",
                "",
                "n=9 r=0.45 seed=2".into(),
                random_geometric(9, 0.45, 2).graph,
            ),
            (
                "ws",
                "",
                "n=10 k_half=1 beta=0.2 seed=3".into(),
                watts_strogatz(10, 1, 0.2, 3),
            ),
            ("hypercube", "", "d=3".into(), hypercube(3)),
            ("torus", "", "dims=[3,3]".into(), torus(&[3, 3])),
            (
                "sbm",
                "",
                "n=10 groups=2 p_in=0.8 p_out=0.15 seed=4".into(),
                planted_partition(10, 2, 0.8, 0.15, 4).graph,
            ),
            (
                "grid",
                "",
                "dims=[5,2]".into(),
                GridGraph::lattice(&[5, 2]).graph,
            ),
            (
                "tree",
                "",
                "n=10 max_deg=3 seed=8".into(),
                random_tree(10, 3, 8),
            ),
        ];
        for (family, tag, params, g) in graphs {
            for (wf, cf, phi) in PROFILES {
                c.push(family, tag, params.clone(), g.clone(), wf, cf, phi, 3, 1.0);
            }
        }
        // Forced-pair entry (appended last, so the seeds of the entries
        // above are unchanged): twin weights make the two endpoints of a
        // tree jointly heavier than any class envelope, the regime the
        // cut-type certifiers price.
        c.push(
            "tree",
            "-twin",
            "n=10 max_deg=3 seed=8".into(),
            random_tree(10, 3, 8),
            WeightFamily::Twin,
            CostFamily::Unit,
            1.0,
            3,
            1.0,
        );
        c
    }

    /// Medium corpus: entries with `16 < n ≤ 20`, exhaustible by the
    /// branch-and-bound engine under its default certification budget.
    /// These are the rows that prove the certified-gap table can reach
    /// ratio 1.0 past `n = 16`.
    pub fn medium() -> Self {
        use mmb_graph::gen::misc::{cycle, path};
        let mut c = Corpus::default();
        let graphs: Vec<(
            &'static str,
            String,
            Graph,
            usize,
            WeightFamily,
            CostFamily,
            f64,
        )> = vec![
            (
                "grid",
                "dims=[3,6]".into(),
                GridGraph::lattice(&[3, 6]).graph,
                2,
                WeightFamily::Uniform,
                CostFamily::Unit,
                1.0,
            ),
            (
                "tree",
                "n=18 max_deg=3 seed=11".into(),
                random_tree(18, 3, 11),
                2,
                WeightFamily::Bimodal,
                CostFamily::LogUniform,
                4.0,
            ),
            (
                "cycle",
                "n=18".into(),
                cycle(18),
                2,
                WeightFamily::Uniform,
                CostFamily::Unit,
                1.0,
            ),
            (
                "path",
                "n=17".into(),
                path(17),
                3,
                WeightFamily::Constant,
                CostFamily::Unit,
                1.0,
            ),
        ];
        for (family, params, g, k, wf, cf, phi) in graphs {
            // The "-med" tag keeps these names disjoint from the quick/
            // standard registries (the BENCH gap table matches by name).
            c.push(family, "-med", params, g, wf, cf, phi, k, 1.0);
        }
        c
    }

    fn build(quick: bool) -> Self {
        let mut c = Corpus::default();
        let s = if quick { 1usize } else { 2 }; // size scale
        let graphs: Vec<(&'static str, String, Graph, usize)> = vec![
            (
                "pa",
                format!("n={} attach=2 seed=5", 90 * s),
                preferential_attachment(90 * s, 2, 5),
                2,
            ),
            // The radius sits above the connectivity threshold scale
            // `√(ln n / πn)` at each size: at quick sizes `r = 0.11`
            // fragments into a dozen fine-grained components whose
            // weights admit a zero-cut balanced grouping — a corpus
            // entry with optimum 0 can never certify a positive gap
            // (see the certified-gap gate in `reproduce corpus`).
            (
                "rgg",
                format!("n={} r={} seed=2", 80 * s, if quick { 0.18 } else { 0.11 }),
                random_geometric(80 * s, if quick { 0.18 } else { 0.11 }, 2).graph,
                2,
            ),
            (
                "ws",
                format!("n={} k_half=2 beta=0.08 seed=3", 90 * s),
                watts_strogatz(90 * s, 2, 0.08, 3),
                2,
            ),
            ("hypercube", format!("d={}", 5 + s), hypercube(5 + s), 2),
            (
                "torus",
                format!("dims=[{0},{0}]", 6 + 4 * s),
                torus(&[6 + 4 * s, 6 + 4 * s]),
                2,
            ),
            (
                "sbm",
                format!(
                    "n={} groups=4 p_in={} p_out=0.01 seed=4",
                    80 * s,
                    if quick { 0.16 } else { 0.08 }
                ),
                planted_partition(80 * s, 4, if quick { 0.16 } else { 0.08 }, 0.01, 4).graph,
                2,
            ),
            (
                "grid",
                format!("dims=[{0},{0}]", 8 + 4 * s),
                GridGraph::lattice(&[8 + 4 * s, 8 + 4 * s]).graph,
                3,
            ),
            (
                "tree",
                format!("n={} max_deg=3 seed=8", 90 * s),
                random_tree(90 * s, 3, 8),
                2,
            ),
        ];
        for (family, params, g, k) in graphs {
            for (wf, cf, phi) in PROFILES {
                c.push(family, "", params.clone(), g.clone(), wf, cf, phi, k, 1.0);
            }
        }
        c
    }

    #[allow(clippy::too_many_arguments)] // internal assembly of one entry
    fn push(
        &mut self,
        family: &'static str,
        tag: &str,
        params: String,
        g: Graph,
        wf: WeightFamily,
        cf: CostFamily,
        phi: f64,
        k: usize,
        p: f64,
    ) {
        // Seeds derived from the entry position keep profiles decorrelated
        // across entries while staying fully deterministic.
        let seed = 0xC0FFEE ^ (self.entries.len() as u64);
        let weights = wf.generate(g.num_vertices(), seed);
        let costs = cf.generate_for_graph(&g, phi, seed);
        let name = format!("{family}{tag}-{}-{}", wf.name(), cf.name());
        let instance =
            Instance::new(g, costs, weights).expect("corpus generators produce valid instances");
        self.entries.push(CorpusEntry {
            name,
            family,
            params,
            k,
            p,
            instance,
        });
    }

    /// All entries, in registry order (grouped by family).
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The distinct family tags, in first-appearance order.
    pub fn families(&self) -> Vec<&'static str> {
        let mut out: Vec<&'static str> = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.family) {
                out.push(e.family);
            }
        }
        out
    }

    /// Iterate the entries of one family.
    pub fn family_entries<'a>(
        &'a self,
        family: &'a str,
    ) -> impl Iterator<Item = &'a CorpusEntry> + 'a {
        self.entries.iter().filter(move |e| e.family == family)
    }
}

impl<'a> IntoIterator for &'a Corpus {
    type Item = &'a CorpusEntry;
    type IntoIter = std::slice::Iter<'a, CorpusEntry>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_covers_all_families_twice() {
        let c = Corpus::standard();
        let fams = c.families();
        for f in [
            "pa",
            "rgg",
            "ws",
            "hypercube",
            "torus",
            "sbm",
            "grid",
            "tree",
        ] {
            assert!(fams.contains(&f), "missing family {f}");
            assert_eq!(c.family_entries(f).count(), 2, "family {f}");
        }
        assert_eq!(c.len(), 16);
        // Names are unique.
        let mut names: Vec<&str> = c.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn quick_is_smaller_but_same_shape() {
        let q = Corpus::quick();
        let s = Corpus::standard();
        assert_eq!(q.len(), s.len());
        assert_eq!(q.families(), s.families());
        let qn: usize = q.entries().iter().map(|e| e.instance.num_vertices()).sum();
        let sn: usize = s.entries().iter().map(|e| e.instance.num_vertices()).sum();
        assert!(
            qn < sn,
            "quick ({qn} vertices) should be smaller than standard ({sn})"
        );
    }

    #[test]
    fn small_entries_fit_the_oracle_and_have_unique_names() {
        let c = Corpus::small();
        assert!(c.len() >= 10);
        for e in &c {
            assert!(
                e.instance.num_vertices() <= 10,
                "{} has n = {}",
                e.name,
                e.instance.num_vertices()
            );
            assert!(e.k >= 2);
        }
        // The two pa graphs are disambiguated by their name tags.
        let mut names: Vec<&str> = c.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len(), "duplicate small-corpus entry names");
    }

    #[test]
    fn every_entry_admits_a_nontrivial_certified_lower_bound() {
        // The corpus-wide gap expectation the `reproduce corpus` gate
        // enforces: each entry (both profiles) must give the
        // `mmb_core::lower_bounds` stack something to certify — an entry
        // with optimum 0 (e.g. a fragmented RGG whose components group
        // into a zero-cut balanced coloring) can never report a finite
        // certified gap and has no place in the registry.
        // All three registries, full sizes included: the full-size rgg
        // sits close to its connectivity threshold, which is exactly
        // where a generator tweak could silently push an entry back to
        // optimum 0.
        for corpus in [
            Corpus::standard(),
            Corpus::quick(),
            Corpus::small(),
            Corpus::medium(),
        ] {
            for e in &corpus {
                let report = mmb_core::lower_bounds::best_lower_bound(&e.instance, e.k);
                assert!(
                    report.value() > 0.0,
                    "{}: no certifier produced a positive bound (ran: {:?})",
                    e.name,
                    report
                        .certificates
                        .iter()
                        .map(|c| c.certifier)
                        .collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn medium_entries_sit_past_n_16_and_exhaust_under_bnb() {
        let c = Corpus::medium();
        assert!(!c.is_empty());
        for e in &c {
            let n = e.instance.num_vertices();
            assert!(n > 16 && n <= 20, "{}: n = {n} outside (16, 20]", e.name);
            // The engine must exhaust them under its default
            // certification budget (proving the optimum).
            let cert = mmb_core::lower_bounds::LowerBound::certify(
                &mmb_core::BnbBound::default(),
                &e.instance,
                e.k,
            );
            assert!(cert.is_some(), "{}: bnb failed to exhaust", e.name);
        }
        // Unique names here too.
        let mut names: Vec<&str> = c.entries().iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn small_corpus_carries_a_forced_pair_entry() {
        // The twin-weight entry exists precisely so the cut-pair
        // certifier has something to fire on in the differential suite.
        let c = Corpus::small();
        let twin = c
            .entries()
            .iter()
            .find(|e| e.name.contains("twin"))
            .expect("small corpus should carry the twin entry");
        let w = twin.instance.weights();
        let n = twin.instance.num_vertices();
        assert_eq!(w[0], 2.0 * n as f64);
        assert_eq!(w[n - 1], 2.0 * n as f64);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = Corpus::quick();
        let b = Corpus::quick();
        for (x, y) in a.entries().iter().zip(b.entries()) {
            assert_eq!(x.name, y.name);
            assert_eq!(
                x.instance.graph().edge_list(),
                y.instance.graph().edge_list()
            );
            assert_eq!(x.instance.weights(), y.instance.weights());
            assert_eq!(x.instance.costs(), y.instance.costs());
        }
    }

    #[test]
    fn entries_carry_sane_parameters() {
        for e in &Corpus::standard() {
            assert!(e.k >= 2, "{}", e.name);
            assert!(e.p >= 1.0, "{}", e.name);
            assert!(e.instance.num_vertices() >= e.k, "{}", e.name);
            assert!(!e.params.is_empty());
        }
    }
}
