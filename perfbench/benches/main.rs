//! The repository's benchmark driver: one workload per process.
//!
//! ```text
//! mmb-perfbench --workload <cold-1m|serve-churn> --seed <n>
//!               --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Inputs are generated from `--seed` alone. With `--trace 0` the run
//! measures the end-to-end metrics through the public API; with
//! `--trace 1` it also re-drives every op one layer at a time and reports
//! the per-layer metrics. The last line of stdout is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); run details (input
//! fingerprints, tail percentile, per-op remainders, errors) go to
//! stderr. `--smoke` shrinks every workload to a few small ops on the
//! same code path. See README.md for the metric definitions.

mod audit;
mod churn;
mod solve;
mod util;

use util::{num, RunResult};

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

const WORKLOADS: [&str; 2] = ["cold-1m", "serve-churn"];

/// Every per-layer metric with its unit, in report order. Each traced run
/// reports all of them; a layer a workload never reaches reads 0.
const PER_LAYER: [(&str, &str); 43] = [
    ("io.parse_ms", "ms"),
    ("instance.validate_ms", "ms"),
    ("recognize.ms", "ms"),
    ("recognize.calls", "count/op"),
    ("splitter.build_ms", "ms"),
    ("pi.ms", "ms"),
    ("coarsen.ms", "ms"),
    ("coarsen.levels", "count/op"),
    ("coarsen.coarse_n", "count/op"),
    ("coarse_solve.ms", "ms"),
    ("refine.ms", "ms"),
    ("refine.moved", "count/op"),
    ("project.ms", "ms"),
    ("multibalance.ms", "ms"),
    ("multibalance.split_calls", "count/op"),
    ("shrink.ms", "ms"),
    ("shrink.split_calls", "count/op"),
    ("shrink.split_vertices", "count/op"),
    ("binpack2.ms", "ms"),
    ("binpack2.split_calls", "count/op"),
    ("binpack2.recolored", "count/op"),
    ("report.residual_ms", "ms"),
    ("workspace.acquires", "count/op"),
    ("workspace.cells_touched", "count/op"),
    ("workspace.arena_peak_mib", "MiB"),
    ("fingerprint.ms", "ms"),
    ("cache.hit_ms", "ms"),
    ("cache.miss_ms", "ms"),
    ("cache.hits", "count/op"),
    ("cache.misses", "count/op"),
    ("cache.evictions", "count/op"),
    ("cache.hit_ratio", "ratio"),
    ("build.ms", "ms"),
    ("delta.apply_ms", "ms"),
    ("resolve.ms", "ms"),
    ("resolve.warm_frac", "ratio"),
    ("resolve.fallbacks", "count/op"),
    ("service.wait_ms", "ms"),
    ("service.tickets", "count"),
    ("service.cold_p50_ms", "ms"),
    ("service.warm_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
];

/// The per-layer metric list with every value at 0, for a workload to
/// fill in.
pub fn layer_metrics() -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER.iter().map(|&(n, u)| (n, 0.0, u)).collect()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// Worker threads of the pool: the host's parallelism, at most two.
fn pool_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Run one workload with the thread pool pinned to [`pool_threads`].
pub fn run(args: &Args) -> RunResult {
    rayon::with_num_threads(pool_threads(), || match args.workload.as_str() {
        "serve-churn" => churn::run(args),
        _ => solve::run(args),
    })
}

fn to_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mmb-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = run(&args);
    let details: Vec<String> = result
        .details
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    eprintln!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"threads\": {}, {}}}",
        args.workload,
        args.seed,
        pool_threads(),
        details.join(", ")
    );
    println!("{}", to_json(&result));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> RunResult {
        run(&Args {
            workload: workload.into(),
            seed: 7,
            seconds: 0.0,
            trace,
            smoke: true,
        })
    }

    #[test]
    fn every_workload_passes_its_smoke_run() {
        for w in WORKLOADS {
            for trace in [false, true] {
                let r = smoke(w, trace);
                assert!(r.correct, "{w} trace={trace}: {:?}", r.details);
                assert_eq!(r.failed, 0, "{w} trace={trace}");
                assert!(r.attempted >= 1);
                let expected = if trace { PER_LAYER.len() } else { 6 };
                assert_eq!(r.metrics.len(), expected, "{w} trace={trace}");
            }
        }
    }

    #[test]
    fn end_to_end_metrics_are_never_zero() {
        for w in WORKLOADS {
            for (name, value, _) in smoke(w, false).metrics {
                assert!(value > 0.0 && value.is_finite(), "{w}: {name} = {value}");
            }
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let fps = |seed| {
            let r = run(&Args {
                workload: "serve-churn".into(),
                seed,
                seconds: 0.0,
                trace: false,
                smoke: true,
            });
            r.details
                .into_iter()
                .find(|(k, _)| *k == "input_fingerprints")
                .map(|(_, v)| v)
        };
        assert_eq!(fps(3), fps(3));
        assert_ne!(fps(3), fps(4));
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec = include_str!("../../BENCHMARK.json");
        let e2e = [
            "setup_s",
            "op_p50_ms",
            "op_tail_ms",
            "ops_per_s",
            "peak_rss_mib",
            "max_boundary_gm",
        ];
        for name in e2e.iter().chain(PER_LAYER.iter().map(|(n, _)| n)) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "BENCHMARK.json does not list {name}"
            );
        }
        for w in WORKLOADS {
            assert!(
                spec.contains(&format!("\"name\": \"{w}\"")),
                "missing workload {w}"
            );
        }
    }
}
