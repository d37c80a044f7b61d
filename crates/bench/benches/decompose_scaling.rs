//! E6 (precise): Theorem 4 running time — near-linear in `|G|`,
//! multiplicative in `log k`.
//!
//! Benchmarks the serve path of the redesigned API: the [`Solver`] is
//! built once per configuration (splitter construction, `π`, `‖c‖_p` all
//! amortized) and `solve()` is what the iteration times — exactly the
//! repeated-solve workload the Solver exists for. A build+solve routine
//! is included for the one-shot comparison, plus the `solve_many` batch
//! shape at several thread counts. The committed perf trajectory lives
//! in `BENCH_6.json` (`reproduce bench`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mmb_core::api::{solve_many, Instance, Solver};
use mmb_core::pipeline::PipelineConfig;
use mmb_graph::gen::grid::GridGraph;
use mmb_instances::weights::WeightFamily;
use std::hint::black_box;

fn instance(side: usize, seed: u64) -> Instance {
    let grid = GridGraph::lattice(&[side, side]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let weights = WeightFamily::Uniform.generate(n, seed);
    Instance::from_grid(grid, costs, weights).expect("valid instance")
}

fn bench_by_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose/by_n");
    group.sample_size(10);
    for side in [16usize, 32, 64] {
        let inst = instance(side, 3);
        let n = inst.num_vertices();
        let solver = Solver::for_instance(&inst).classes(16).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(black_box(&solver).solve().max_boundary))
        });
    }
    group.finish();
}

fn bench_by_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("decompose/by_k");
    group.sample_size(10);
    let inst = instance(48, 5);
    for k in [2usize, 8, 32, 128] {
        let solver = Solver::for_instance(&inst).classes(k).build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| black_box(black_box(&solver).solve().max_boundary))
        });
    }
    group.finish();
}

fn bench_build_vs_solve(c: &mut Criterion) {
    // The amortization claim itself: one-shot (build + solve) vs the
    // marginal cost of a solve on a prebuilt Solver.
    let mut group = c.benchmark_group("decompose/amortization");
    group.sample_size(10);
    let inst = instance(32, 7);
    group.bench_function("build_and_solve", |b| {
        b.iter(|| {
            let solver = Solver::for_instance(black_box(&inst))
                .classes(16)
                .build()
                .unwrap();
            black_box(solver.solve().max_boundary)
        })
    });
    let prebuilt = Solver::for_instance(&inst).classes(16).build().unwrap();
    group.bench_function("solve_prebuilt", |b| {
        b.iter(|| black_box(black_box(&prebuilt).solve().max_boundary))
    });
    group.finish();
}

fn bench_solve_many(c: &mut Criterion) {
    // The batch serve shape: one thread pool + per-worker workspace
    // amortized over a stream of instances.
    let mut group = c.benchmark_group("decompose/solve_many");
    group.sample_size(10);
    let instances: Vec<Instance> = [12usize, 16, 20, 24]
        .iter()
        .map(|&side| instance(side, side as u64))
        .collect();
    let cfg = PipelineConfig::default();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::new("threads", threads), &threads, |b, &t| {
            b.iter(|| {
                rayon::with_num_threads(t, || black_box(solve_many(&instances, 8, &cfg)).len())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_by_n,
    bench_by_k,
    bench_build_vs_solve,
    bench_solve_many
);
criterion_main!(benches);
