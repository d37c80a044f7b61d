//! Reproduce every experiment table (E1–E12; see `DESIGN.md` §5 for the
//! per-theorem index, `EXPERIMENTS.md` for recorded results) and record
//! the perf baselines.
//!
//! ```text
//! reproduce [--quick] [e1 e2 … | all]      # experiment tables
//! reproduce corpus [--quick]               # corpus × partitioners table;
//!                                          #   exits 1 if any gate prong
//!                                          #   fails (Thm5 ratio, trivial
//!                                          #   or beaten certified bounds,
//!                                          #   no bnb-proven optimum past
//!                                          #   n = 16)
//! reproduce bench [--quick] [--out PATH]   # perf suites → BENCH_6.json
//! reproduce churn [--quick] [--out PATH]   # serving load test: cold vs
//!                                          #   warm latency through
//!                                          #   mmb-service → BENCH_7.json;
//!                                          #   exits 1 unless warm ≥ 5×
//!                                          #   faster and every serve is
//!                                          #   strict + monotone
//! reproduce bench-verify PATH              # CI guard: file exists + valid
//!                                          #   (dispatches on the schema
//!                                          #   tag: mmb-bench-6 or -7)
//! reproduce gap-gate PATH                  # CI guard: fresh certified gaps
//!                                          #   must not regress vs PATH
//! reproduce lint [--json]                  # mmb-analyze soundness scan;
//!                                          #   exits 1 on any unpragma'd
//!                                          #   finding (NaN comparators,
//!                                          #   hash-order leaks, …)
//! reproduce chaos [--quick]                # seeded fault schedules ×
//!                                          #   corpus through the
//!                                          #   resilient harness; exits 1
//!                                          #   if any contract prong
//!                                          #   fails (panic escape,
//!                                          #   invalid output, broken
//!                                          #   monotone degradation)
//! ```

use mmb_bench::{chaos, churn, corpus, experiments, perf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick" || a == "-q");
    let words: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with('-'))
        .map(|s| s.as_str())
        .collect();

    match words.first() {
        Some(&"corpus") => {
            let out = corpus::run_corpus(quick);
            out.table.print();
            if !out.gate_ok {
                if out.worst_pipeline_ratio > 1.0 {
                    eprintln!(
                        "corpus gate FAILED: pipeline Theorem-5 ratio {:.3} > 1.0 on entry `{}`",
                        out.worst_pipeline_ratio, out.worst_entry
                    );
                }
                for entry in &out.trivial_entries {
                    eprintln!(
                        "corpus gate FAILED: entry `{entry}` has no positive certified \
                         lower bound (gap ratio ∞)"
                    );
                }
                for violation in &out.soundness_violations {
                    eprintln!(
                        "corpus gate FAILED: certified lower bound beaten by a strictly \
                         balanced coloring — {violation}"
                    );
                }
                if out.bnb_proven < 1 {
                    eprintln!(
                        "corpus gate FAILED: no medium (n > 16) entry solved to \
                         proven optimality by branch and bound"
                    );
                }
                std::process::exit(1);
            }
            println!(
                "corpus gate ok: worst pipeline Theorem-5 ratio {:.3} (entry `{}`); \
                 worst certified gap {:.3} (entry `{}`); {} medium entries bnb-proven \
                 optimal; all lower bounds positive and unbeaten",
                out.worst_pipeline_ratio,
                out.worst_entry,
                out.worst_certified.0,
                out.worst_certified.1,
                out.bnb_proven
            );
        }
        Some(&"bench") => {
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "BENCH_6.json".to_string());
            let report = perf::run(quick);
            let json = report.to_json();
            // Self-check before writing: an emitted file always validates.
            if let Err(e) = perf::validate_bench_json(&json) {
                eprintln!("internal error: emitted JSON is invalid: {e}");
                std::process::exit(1);
            }
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            print!("{}", report.summary());
            println!("wrote {out}");
        }
        Some(&"churn") => {
            let out = args
                .iter()
                .position(|a| a == "--out")
                .and_then(|i| args.get(i + 1))
                .cloned()
                .unwrap_or_else(|| "BENCH_7.json".to_string());
            let report = churn::run_churn(quick);
            let json = report.to_json();
            // Self-check before writing: an emitted file always validates —
            // this is where the ≥ 5× and strict/monotone gates bite.
            if let Err(e) = churn::validate_churn_json(&json) {
                report.summary().print();
                eprintln!("churn gate FAILED: {e}");
                std::process::exit(1);
            }
            if let Err(e) = std::fs::write(&out, &json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            report.summary().print();
            println!("wrote {out}");
        }
        Some(&"bench-verify") => {
            let Some(path) = words.get(1) else {
                eprintln!("usage: reproduce bench-verify <path>");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: missing or unreadable: {e}");
                    std::process::exit(1);
                }
            };
            // Dispatch on the schema tag so one CI guard covers both the
            // perf baselines (mmb-bench-6) and the churn trace (mmb-bench-7).
            let schema_7 = text.contains("\"mmb-bench-7\"");
            let checked = if schema_7 {
                churn::validate_churn_json(&text)
            } else {
                perf::validate_bench_json(&text)
            };
            match checked {
                Ok(()) => println!(
                    "{path}: valid {} document",
                    if schema_7 {
                        "mmb-bench-7"
                    } else {
                        "mmb-bench-6"
                    }
                ),
                Err(e) => {
                    eprintln!("{path}: malformed: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some(&"gap-gate") => {
            let Some(path) = words.get(1) else {
                eprintln!("usage: reproduce gap-gate <path>");
                std::process::exit(2);
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: missing or unreadable: {e}");
                    std::process::exit(1);
                }
            };
            match perf::gap_regression_check(&text) {
                Ok(msg) => println!("{path}: {msg}"),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some(&"chaos") => {
            let out = chaos::run_chaos(quick);
            out.table.print();
            if !out.gate_ok {
                for violation in &out.violations {
                    eprintln!("chaos gate FAILED: {violation}");
                }
                if out.faults_injected == 0 {
                    eprintln!(
                        "chaos gate FAILED: no fault was injected across the sweep — \
                         the suite is vacuous"
                    );
                }
                std::process::exit(1);
            }
            println!(
                "chaos gate ok: {} cells, {} faults injected, {} degraded serves, \
                 zero contract violations",
                out.table.rows.len(),
                out.faults_injected,
                out.degraded_cells
            );
        }
        Some(&"lint") => {
            let json = args.iter().any(|a| a == "--json");
            let root = mmb_analyze::workspace_root();
            let report = match mmb_analyze::scan_workspace(&root) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("lint: cannot scan workspace at {}: {e}", root.display());
                    std::process::exit(2);
                }
            };
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.render_table());
            }
            if !report.is_clean() {
                eprintln!(
                    "lint FAILED: {} finding(s) — fix them or add an audited \
                     `// lint: allow(<rule>) — <reason>` pragma",
                    report.findings.len()
                );
                std::process::exit(1);
            }
        }
        _ => {
            let ids: Vec<&str> = if words.is_empty() || words.contains(&"all") {
                experiments::ALL.to_vec()
            } else {
                words
            };
            let mode = if quick { "quick" } else { "full" };
            println!("# min-max boundary decomposition — experiment reproduction ({mode} mode)");
            for id in ids {
                match experiments::run(id, quick) {
                    Some(table) => table.print(),
                    None => {
                        eprintln!(
                            "unknown experiment id: {id} (known: {:?})",
                            experiments::ALL
                        )
                    }
                }
            }
        }
    }
}
