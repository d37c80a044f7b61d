//! The paper's §1 motivating application: distributing a climate
//! simulation over k machines.
//!
//! Regions of the earth's surface are jobs with wildly varying runtimes
//! (day/night, storms); neighboring regions exchange data. We compare the
//! Theorem 4 pipeline against greedy bin packing (balance without boundary
//! control) and recursive bisection (boundary control without a
//! strict-balance guarantee) — all three behind the same `Partitioner`
//! interface on one `Instance`. The closing lines are read off the table:
//! which rows came out strictly balanced, which of those communicates
//! least, and the pipeline's Theorem-5 bound ratio.
//!
//! ```text
//! cargo run --release --example climate_load_balance
//! ```

use mmb_baselines::greedy::Lpt;
use mmb_baselines::recursive_bisection::RecursiveBisection;
use mmb_core::api::{Instance, Partitioner, Report, Theorem4Pipeline};
use mmb_instances::climate::{climate, ClimateParams};

fn main() {
    let wl = climate(&ClimateParams {
        lon: 96,
        lat: 48,
        storms: 6,
        ..Default::default()
    });
    let k = 16;
    println!(
        "climate workload: {} regions, {} couplings, {k} machines",
        wl.grid.graph.num_vertices(),
        wl.grid.graph.num_edges()
    );

    // One validated instance, three algorithms, identical scoring.
    let inst = Instance::from_grid(wl.grid, wl.costs, wl.weights).expect("valid instance");
    let algos: [&dyn Partitioner; 3] = [
        &Theorem4Pipeline::default(),
        &Lpt,
        &RecursiveBisection { kst: false },
    ];
    let mut rows = Vec::new();
    for algo in algos {
        let chi = algo.partition(&inst, k).expect("valid instance");
        let r = Report::of(&inst, 2.0, algo.name(), chi);
        let avg_w: f64 = r.class_weights.iter().sum::<f64>() / r.class_weights.len() as f64;
        let max_w = r.class_weights.iter().cloned().fold(0.0, f64::max);
        let valid = r.coloring.is_total() && r.is_strictly_balanced();
        println!(
            "  {:<18} makespan-proxy {max_w:8.1} (avg {avg_w:8.1})  strict: {:<3}  comm: max {:8.1} avg {:8.1}  bound ratio {:.3}",
            r.splitter,
            if valid { "yes" } else { "no" },
            r.max_boundary,
            r.avg_boundary,
            r.bound_ratio
        );
        rows.push((r, valid));
    }

    let strict: Vec<&Report> = rows.iter().filter(|(_, v)| *v).map(|(r, _)| r).collect();
    let names: Vec<&str> = strict.iter().map(|r| r.splitter.as_str()).collect();
    println!("\nstrictly balanced: {}", names.join(", "));
    if let Some(r) = strict
        .iter()
        .min_by(|a, b| a.max_boundary.total_cmp(&b.max_boundary))
    {
        println!(
            "lowest max communication among them: {} ({:.1})",
            r.splitter, r.max_boundary
        );
    }
    // The first row is the pipeline: Theorem 5 bounds its max
    // communication by a constant times ‖c‖_p/k^{1/p} + ‖c‖_∞.
    println!(
        "the pipeline's Theorem-5 bound ratio (max comm / unit-constant bound): {:.3}",
        rows[0].0.bound_ratio
    );
}
