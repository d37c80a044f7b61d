//! The `reproduce corpus` report: every [`Corpus`] entry × every
//! [`Partitioner`], scored uniformly — now with certified optimality
//! gaps.
//!
//! For each corpus entry the table records, per algorithm, the maximum
//! boundary cost, the Theorem-5 right-hand side at the entry's exponent
//! (`p = 1` by the corpus convention — see `mmb_instances::corpus`), the
//! measured/bound ratio, the strict-balance slack/defect, whether
//! eq. (1) holds, and — per entry — the best **certified lower bound**
//! from the `mmb_core::lower_bounds` stack with the resulting gap ratio
//! `cost / lower`. After the corpus proper, the sweep appends an exact
//! section — the `Corpus::small()` (`n ≤ 10`) and `Corpus::medium()`
//! (`16 < n ≤ 20`) entries — where the branch-and-bound engine joins the
//! pipeline as the ground-truth row: one search per entry, whose
//! coloring is the row and whose proven optimum (or, when truncated,
//! certified root gap) is the entry's lower bound.
//!
//! [`run_corpus`] computes the CI gate, which now has three prongs:
//!
//! 1. **Theorem-5 prong** (unchanged from PR 4): the worst pipeline
//!    Theorem-5 ratio over the corpus proper must stay ≤ 1.
//! 2. **Non-triviality prong**: every corpus-proper entry must report a
//!    positive certified lower bound — a zero bound means the certified
//!    gap ratio is `∞` and the tightness story has a hole.
//! 3. **Soundness prong**: no *strictly balanced* coloring produced by
//!    any partitioner may beat the certified lower bound (non-strict
//!    colorings are outside the bounds' feasible set and are exempt,
//!    the same convention as the exact-optimum differential suite).
//!
//! Any prong failing makes `reproduce corpus` exit non-zero. The exact
//! section stays excluded from the Theorem-5 prong (at these sizes the
//! unit-constant RHS is not a theorem), but its rows are still
//! soundness-checked. A fourth prong requires at least one *medium*
//! entry proven optimal (`bnb_proven ≥ 1`): the acceptance bar that
//! exact solving reaches past `n = 16`.

use mmb_core::api::{Partitioner, Report, Theorem4Pipeline};
use mmb_core::bnb::{BnbConfig, BnbPartitioner};
use mmb_core::lower_bounds::{best_lower_bound, CertifiedGap};
use mmb_instances::corpus::{Corpus, CorpusEntry};

use crate::table::Table;
use crate::{fmt, run_scored, standard_baselines};

/// Outcome of a corpus sweep: the printable table plus the CI gate data.
#[derive(Clone, Debug)]
pub struct CorpusOutcome {
    /// The cross-partitioner quality table.
    pub table: Table,
    /// Worst pipeline Theorem-5 ratio across the corpus proper (the
    /// ungated exact section is excluded; see the module docs).
    pub worst_pipeline_ratio: f64,
    /// Name of the entry attaining [`CorpusOutcome::worst_pipeline_ratio`].
    pub worst_entry: String,
    /// Worst certified gap ratio (`pipeline cost / lower bound`) across
    /// the corpus proper, with the entry attaining it.
    pub worst_certified: (f64, String),
    /// Corpus-proper entries whose certified lower bound is trivial
    /// (≤ 0) — the non-triviality prong fails if non-empty.
    pub trivial_entries: Vec<String>,
    /// `(entry, algorithm)` pairs where a strictly balanced coloring
    /// beat the certified lower bound — the soundness prong fails if
    /// non-empty (and a certifier is wrong).
    pub soundness_violations: Vec<String>,
    /// `Corpus::medium()` entries (`n > 16`) the branch-and-bound engine
    /// solved to proven optimality — the gap-closure prong fails unless
    /// ≥ 1.
    pub bnb_proven: usize,
    /// Whether every gate prong passed.
    pub gate_ok: bool,
}

/// Format one coloring's [`Report`] into a table row; `lower` is the
/// entry's certified lower bound. Returns the row, the Theorem-5 ratio
/// and, when the coloring is strictly balanced, the achieved cost (for
/// the soundness prong).
fn format_row(entry: &CorpusEntry, r: &Report, lower: f64) -> (Vec<String>, f64, Option<f64>) {
    let inst = &entry.instance;
    let gap = CertifiedGap::new(lower, r.max_boundary, "");
    let row = vec![
        entry.family.to_string(),
        entry.name.clone(),
        r.splitter.clone(),
        inst.num_vertices().to_string(),
        inst.num_edges().to_string(),
        entry.k.to_string(),
        fmt(r.max_boundary),
        fmt(r.bound),
        fmt(r.bound_ratio),
        fmt(lower),
        if gap.ratio.is_finite() {
            fmt(gap.ratio)
        } else {
            "∞".into()
        },
        fmt(r.strict_slack),
        fmt(r.strict_defect),
        if r.strict { "yes".into() } else { "no".into() },
    ];
    (row, r.bound_ratio, r.strict.then_some(r.max_boundary))
}

/// Run one algorithm on one entry and format the result
/// (see [`format_row`]).
fn score_row(
    entry: &CorpusEntry,
    algo: &dyn Partitioner,
    lower: f64,
) -> Option<(Vec<String>, f64, Option<f64>)> {
    let (report, _) = run_scored(algo, &entry.instance, entry.k, entry.p).ok()?;
    Some(format_row(entry, &report, lower))
}

/// Tolerance for the soundness prong: a certified bound may exceed an
/// achieved cost only by fp noise.
fn beats_lower(cost: f64, lower: f64) -> bool {
    cost < lower - 1e-9 * (1.0 + lower.abs())
}

/// Run the corpus sweep (standard corpus, or the quick one for CI
/// smoke) over the pipeline, every baseline, and — on the small and
/// medium entries — branch and bound, certifying a lower bound for every
/// entry.
pub fn run_corpus(quick: bool) -> CorpusOutcome {
    let corpus = if quick {
        Corpus::quick()
    } else {
        Corpus::standard()
    };
    let mut table = Table::new(
        format!(
            "CORPUS: {} entries × partitioners — cost vs Theorem-5 RHS at p = 1, \
             certified lower bounds (gate: Thm5 ratio ≤ 1, lower > 0, lower ≤ strict costs)",
            corpus.len()
        ),
        &[
            "family",
            "entry",
            "algorithm",
            "n",
            "m",
            "k",
            "max ∂",
            "Thm5",
            "ratio",
            "lower",
            "gap",
            "slack",
            "defect",
            "strict",
        ],
    );
    let pipeline = Theorem4Pipeline::default();
    let baselines = standard_baselines();
    let mut worst = 0.0f64;
    let mut worst_entry = String::new();
    let mut worst_certified = (0.0f64, String::new());
    let mut trivial_entries = Vec::new();
    let mut soundness_violations = Vec::new();
    let mut check_soundness = |entry: &CorpusEntry, algo: &str, lower: f64, cost: Option<f64>| {
        if let Some(cost) = cost {
            if beats_lower(cost, lower) {
                soundness_violations.push(format!(
                    "{} / {algo}: cost {cost} < lower {lower}",
                    entry.name
                ));
            }
        }
    };
    for entry in &corpus {
        let lb = best_lower_bound(&entry.instance, entry.k);
        let lower = lb.value();
        if lower <= 0.0 {
            trivial_entries.push(entry.name.clone());
        }
        let (row, ratio, cost) =
            score_row(entry, &pipeline, lower).expect("pipeline runs on every corpus entry");
        check_soundness(entry, pipeline.name(), lower, cost);
        if let Some(cost) = cost {
            let gap = CertifiedGap::new(lower, cost, lb.winner());
            if gap.ratio > worst_certified.0 {
                worst_certified = (gap.ratio, entry.name.clone());
            }
        }
        table.row(row);
        if ratio > worst {
            worst = ratio;
            worst_entry = entry.name.clone();
        }
        for algo in &baselines {
            if let Some((row, _, cost)) = score_row(entry, algo.as_ref(), lower) {
                check_soundness(entry, algo.name(), lower, cost);
                table.row(row);
            }
        }
    }
    // Exact section: pipeline vs branch and bound on the small and
    // medium entries (excluded from the Theorem-5 prong — see the module
    // docs — but still soundness-checked). One search per entry: its
    // coloring is the bnb row, and its proven optimum is also the
    // strongest possible certificate.
    let bnb = BnbPartitioner {
        cfg: BnbConfig::default(),
    };
    let (small, medium) = (Corpus::small(), Corpus::medium());
    let exact = small.entries().iter().map(|e| (e, false));
    let exact = exact.chain(medium.entries().iter().map(|e| (e, true)));
    let mut bnb_proven = 0usize;
    for (entry, is_medium) in exact {
        let sol = mmb_core::bnb::solve(&entry.instance, entry.k, &bnb.cfg).ok();
        let lower = match &sol {
            Some(s) if s.proven_optimal => {
                if is_medium {
                    bnb_proven += 1;
                }
                s.max_boundary
            }
            Some(s) => s.gap.lower,
            None => best_lower_bound(&entry.instance, entry.k).value(),
        };
        if let Some((row, _, cost)) = score_row(entry, &pipeline, lower) {
            check_soundness(entry, pipeline.name(), lower, cost);
            table.row(row);
        }
        if let Some(sol) = sol {
            let report = Report::of(&entry.instance, entry.p, bnb.name(), sol.coloring);
            let (row, _, cost) = format_row(entry, &report, lower);
            check_soundness(entry, bnb.name(), lower, cost);
            table.row(row);
        }
    }
    table.note(format!(
        "gate: worst pipeline Theorem-5 ratio {} on entry `{}` — must stay ≤ 1.0 (corpus proper only)",
        fmt(worst),
        worst_entry
    ));
    table.note(format!(
        "certified gaps: worst pipeline cost/lower ratio {} on entry `{}`; \
         every corpus entry must certify a positive lower bound",
        fmt(worst_certified.0),
        worst_certified.1
    ));
    table.note(
        "trailing exact section (n ≤ 10, then 16 < n ≤ 20): pipeline vs branch and bound \
         (ground truth); not Thm5-gated — the unit-constant RHS is not a theorem at that scale",
    );
    table.note(format!(
        "{bnb_proven} medium entr{} (16 < n ≤ 20) solved to proven optimality (gate: ≥ 1)",
        if bnb_proven == 1 { "y" } else { "ies" }
    ));
    let gate_ok = worst <= 1.0
        && trivial_entries.is_empty()
        && soundness_violations.is_empty()
        && bnb_proven >= 1;
    CorpusOutcome {
        table,
        worst_pipeline_ratio: worst,
        worst_entry,
        worst_certified,
        trivial_entries,
        soundness_violations,
        bnb_proven,
        gate_ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_corpus_sweep_passes_the_gate() {
        let out = run_corpus(true);
        assert!(
            out.gate_ok,
            "gate failed: Thm5 ratio {} on `{}`; trivial {:?}; violations {:?}",
            out.worst_pipeline_ratio,
            out.worst_entry,
            out.trivial_entries,
            out.soundness_violations
        );
        // Every corpus-proper entry contributes the pipeline + 5 baseline
        // rows, and every small and medium entry a pipeline + bnb pair.
        let exact = Corpus::small().len() + Corpus::medium().len();
        assert!(out.table.rows.len() >= 6 * Corpus::quick().len() + 2 * exact);
        // The branch-and-bound engine appears once per exact entry, with
        // at least one medium entry (n > 16) solved to proven optimality.
        assert_eq!(
            out.table
                .rows
                .iter()
                .filter(|r| r[2] == "bnb (anytime)")
                .count(),
            exact,
            "one bnb row per small and medium entry"
        );
        assert!(
            out.bnb_proven >= 1,
            "no past-the-cap entry was proven optimal"
        );
        // Every row carries a finite certified gap (column 10): the
        // lower bound is positive corpus-wide.
        assert!(
            out.table.rows.iter().all(|r| r[10] != "∞"),
            "some row reports an infinite certified gap"
        );
        assert!(
            out.worst_certified.0 >= 1.0,
            "a gap ratio below 1 means an unsound bound"
        );
    }
}
