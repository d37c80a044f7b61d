//! Integration tests of the `Instance`/`Solver` API.
//!
//! Covers the redesign's contract points:
//! * an explicit splitter passed as `SplitterChoice::Custom` and the
//!   `Auto` choice produce *identical* colorings on random instances
//!   (property test);
//! * `SplitterChoice::Auto` picks the expected family on grid / tree /
//!   path / arbitrary inputs;
//! * a built `Solver` reuses its constructed splitter across `solve()`
//!   calls (constructions counted, calls recorded);
//! * `Box<dyn Splitter>` / `Arc<dyn Splitter>` work end to end as
//!   `SplitterChoice::Custom` (trait-object story);
//! * builder/validation errors surface as typed `SolveError`s;
//! * the pooled scratch workspace leaves no trace between solves.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mmb_core::api::{solve_many, Instance, SolveError, Solver, SplitterChoice};
use mmb_core::pipeline::PipelineConfig;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::misc::path;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::{VertexId, VertexSet};
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::recording::RecordingSplitter;
use mmb_splitters::tree::TreeSplitter;
use mmb_splitters::Splitter;
use proptest::prelude::*;

fn det_costs(m: usize, seed: u64) -> Vec<f64> {
    (0..m)
        .map(|e| 0.5 + ((e as u64 ^ seed) % 7) as f64)
        .collect()
}

fn det_weights(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|v| 1.0 + ((seed >> (v % 53)) & 15) as f64)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // An explicit GridSplitter handed in as `SplitterChoice::Custom` and
    // the `Auto` choice produce the *same coloring*, bit for bit — and so
    // do the batch `solve_many` entry point and every thread count of the
    // parallel shim.
    #[test]
    fn explicit_grid_splitter_matches_auto_on_random_grids(
        side in 4usize..11,
        k in 1usize..10,
        seed in any::<u64>(),
    ) {
        let grid = GridGraph::lattice(&[side, side]);
        let costs = det_costs(grid.graph.num_edges(), seed);
        let weights = det_weights(grid.graph.num_vertices(), seed);
        let sp = GridSplitter::new(&grid, &costs);
        let inst = Instance::from_grid(grid.clone(), costs, weights).unwrap();
        let explicit = Solver::for_instance(&inst)
            .classes(k)
            .splitter(SplitterChoice::Custom(Box::new(&sp)))
            .build()
            .unwrap()
            .solve();
        let report = Solver::for_instance(&inst).classes(k).build().unwrap().solve();
        prop_assert_eq!(&report.coloring, &explicit.coloring);
        prop_assert!(report.is_strictly_balanced());

        // solve_many ≡ one-at-a-time solve, for 1 and several worker
        // threads (the shim's deterministic chunked schedule).
        let batch = [inst];
        for threads in [1usize, 3] {
            let results = rayon::with_num_threads(threads, || {
                solve_many(&batch, k, &PipelineConfig::default())
            });
            prop_assert_eq!(results.len(), 1);
            let got = results.into_iter().next().unwrap().unwrap();
            prop_assert_eq!(&got.coloring, &explicit.coloring, "threads = {}", threads);
        }
    }

    #[test]
    fn explicit_tree_splitter_matches_auto_on_random_trees(
        n in 5usize..120,
        k in 1usize..8,
        seed in any::<u64>(),
    ) {
        let g = random_tree(n, 3, seed);
        let costs = det_costs(g.num_edges(), seed);
        let weights = det_weights(n, seed);
        let inst = Instance::new(g.clone(), costs, weights).unwrap();
        let sp = TreeSplitter::new(&g);
        let explicit = Solver::for_instance(&inst)
            .classes(k)
            .splitter(SplitterChoice::Custom(Box::new(&sp)))
            .build()
            .unwrap()
            .solve();
        let report = Solver::for_instance(&inst).classes(k).build().unwrap().solve();
        prop_assert_eq!(&report.coloring, &explicit.coloring);
    }
}

#[test]
fn auto_selects_gridsplit_on_lattices() {
    // Plain Graph, no geometry attached: detection must reconstruct it.
    let grid = GridGraph::lattice(&[9, 7]);
    let n = grid.graph.num_vertices();
    let m = grid.graph.num_edges();
    let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 3) as f64).collect();
    let inst = Instance::new(grid.graph, vec![1.0; m], weights.clone()).unwrap();
    let solver = Solver::for_instance(&inst).classes(5).build().unwrap();
    assert_eq!(solver.family(), "grid");
    assert_eq!(solver.splitter_name(), "gridsplit");
    assert!(solver.solve().is_strictly_balanced());
}

#[test]
fn auto_selects_tree_splitter_on_forests() {
    let g = random_tree(150, 4, 11);
    let n = g.num_vertices();
    let costs: Vec<f64> = (0..g.num_edges()).map(|e| 1.0 + (e % 3) as f64).collect();
    let inst = Instance::new(g, costs, vec![1.0; n]).unwrap();
    let solver = Solver::for_instance(&inst).classes(6).build().unwrap();
    assert_eq!(solver.family(), "forest");
    assert_eq!(solver.splitter_name(), "tree");
    assert!(solver.solve().is_strictly_balanced());
}

#[test]
fn auto_selects_order_splitter_on_paths() {
    let g = path(40);
    let inst = Instance::new(g, vec![1.0; 39], vec![1.0; 40]).unwrap();
    let solver = Solver::for_instance(&inst).classes(4).build().unwrap();
    assert_eq!(solver.family(), "path");
    assert_eq!(solver.splitter_name(), "order/path");
    let report = solver.solve();
    assert!(report.is_strictly_balanced());
    // A path split into 4 strictly balanced classes by position prefixes
    // cuts very few edges; the order splitter must exploit the structure.
    assert!(
        report.max_boundary <= 6.0,
        "path boundary {}",
        report.max_boundary
    );
}

#[test]
fn auto_falls_back_to_bfs_on_arbitrary_graphs() {
    // Cycle with chords: not a path, not a forest, not a lattice.
    let mut b = mmb_graph::GraphBuilder::new(30);
    for v in 0..30u32 {
        b.add_edge(v, (v + 1) % 30);
        if v % 5 == 0 {
            b.add_edge(v, (v + 15) % 30);
        }
    }
    let g = b.build();
    let m = g.num_edges();
    let weights: Vec<f64> = (0..30).map(|v| 1.0 + (v % 4) as f64).collect();
    let inst = Instance::new(g, vec![1.0; m], weights).unwrap();
    let solver = Solver::for_instance(&inst).classes(3).build().unwrap();
    assert_eq!(solver.family(), "arbitrary");
    assert_eq!(solver.splitter_name(), "bfs");
    assert!(solver.solve().is_strictly_balanced());
}

/// GridSplit wrapper that counts constructions — the reuse test's probe.
struct CountingSplitter<'g> {
    inner: GridSplitter<'g>,
}

static CONSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

impl<'g> CountingSplitter<'g> {
    fn new(grid: &'g GridGraph, costs: &[f64]) -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::SeqCst);
        Self {
            inner: GridSplitter::new(grid, costs),
        }
    }
}

impl Splitter for CountingSplitter<'_> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        self.inner.split(w_set, weights, target)
    }
    fn name(&self) -> &str {
        "counting"
    }
}

#[test]
fn built_solver_reuses_its_splitter_across_solves() {
    let grid = GridGraph::lattice(&[12, 12]);
    let n = grid.graph.num_vertices();
    let costs = vec![1.0; grid.graph.num_edges()];
    let weights: Vec<f64> = (0..n).map(|v| 1.0 + (v % 5) as f64).collect();

    // One construction, recorded; every split call lands on this object.
    let counting = CountingSplitter::new(&grid, &costs);
    let rec = RecordingSplitter::new(counting, &grid.graph, &costs);
    let inst = Instance::from_grid(grid.clone(), costs.clone(), weights.clone()).unwrap();
    let solver = Solver::for_instance(&inst)
        .classes(6)
        .splitter(SplitterChoice::Custom(Box::new(&rec)))
        .build()
        .unwrap();

    let first = solver.solve();
    let calls_after_first = rec.stats().calls;
    assert!(calls_after_first > 0, "solve must exercise the splitter");

    let second = solver.solve();
    let calls_after_second = rec.stats().calls;
    assert!(
        calls_after_second > calls_after_first,
        "second solve must reuse the same splitter instance"
    );
    // Exactly one splitter was ever constructed for the two solves.
    assert_eq!(CONSTRUCTIONS.load(Ordering::SeqCst), 1);
    // Reuse is deterministic: both solves give the same coloring.
    assert_eq!(first.coloring, second.coloring);
    assert!(first.is_strictly_balanced() && second.is_strictly_balanced());
}

#[test]
fn boxed_and_arc_splitters_run_as_custom() {
    let grid = GridGraph::lattice(&[8, 8]);
    let costs = vec![1.0; grid.graph.num_edges()];
    let weights = vec![1.0; 64];
    let inst = Instance::new(grid.graph.clone(), costs.clone(), weights.clone()).unwrap();
    let solve = |sp: Box<dyn Splitter + '_>| {
        Solver::for_instance(&inst)
            .classes(4)
            .splitter(SplitterChoice::Custom(sp))
            .build()
            .unwrap()
            .solve()
            .coloring
    };

    let boxed: Box<dyn Splitter + '_> = Box::new(GridSplitter::new(&grid, &costs));
    // A reference to the unsized `dyn Splitter`…
    let via_dyn = solve(Box::new(boxed.as_ref()));
    // …and a `Box<dyn Splitter>` itself (the Box blanket impl).
    let via_box = solve(Box::new(boxed));

    // `Arc<T>: Sync` needs `T: Send`, so an `Arc`-boxed trait-object
    // splitter names `Send` too (all concrete splitters qualify).
    let arc: Arc<dyn Splitter + Send + '_> = Arc::new(GridSplitter::new(&grid, &costs));
    let via_arc = solve(Box::new(arc));

    assert!(via_box.is_strictly_balanced(&weights));
    assert_eq!(via_box, via_dyn);
    assert_eq!(via_box, via_arc);
}

#[test]
fn builder_errors_are_typed() {
    let grid = GridGraph::lattice(&[4, 4]);
    let m = grid.graph.num_edges();
    let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; 16]).unwrap();
    // Unset (or zero) classes.
    assert_eq!(
        Solver::for_instance(&inst).build().unwrap_err(),
        SolveError::ZeroColors
    );
    // Tree splitter on a cyclic instance.
    assert_eq!(
        Solver::for_instance(&inst)
            .classes(2)
            .splitter(SplitterChoice::Tree)
            .build()
            .unwrap_err(),
        SolveError::SplitterUnavailable {
            requested: "tree",
            structure: "grid"
        }
    );
    // Grid splitter without geometry.
    let tree = random_tree(20, 3, 1);
    let m = tree.num_edges();
    let tree_inst = Instance::new(tree, vec![1.0; m], vec![1.0; 20]).unwrap();
    assert_eq!(
        Solver::for_instance(&tree_inst)
            .classes(2)
            .splitter(SplitterChoice::Grid)
            .build()
            .unwrap_err(),
        SolveError::SplitterUnavailable {
            requested: "grid",
            structure: "forest"
        }
    );
    // Invalid splittability exponent is a typed error, not a panic.
    for bad_p in [0.5, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            Solver::for_instance(&tree_inst)
                .classes(2)
                .p(bad_p)
                .build()
                .unwrap_err(),
            SolveError::InvalidExponent { .. }
        ));
    }
}

#[test]
fn tree_choice_works_on_acyclic_grid_hosted_instances() {
    // A straight line of lattice points is a grid *and* a forest; the Tree
    // choice must go by actual acyclicity, not the "grid" family label.
    let pts: Vec<Vec<i64>> = (0..12).map(|x| vec![x, 0]).collect();
    let line = GridGraph::from_points(2, pts);
    let n = line.graph.num_vertices();
    let m = line.graph.num_edges();
    let inst = Instance::from_grid(line, vec![1.0; m], vec![1.0; n]).unwrap();
    assert_eq!(inst.family(), "grid");
    let solver = Solver::for_instance(&inst)
        .classes(3)
        .splitter(SplitterChoice::Tree)
        .build()
        .unwrap();
    assert_eq!(solver.splitter_name(), "tree");
    assert!(solver.solve().is_strictly_balanced());
}

#[test]
fn explicit_choices_and_auto_agree_where_applicable() {
    // On a path instance, Auto picks the walk order; the generic
    // Order/Bfs choices still deliver strictness.
    let g = path(30);
    let inst = Instance::new(g, vec![1.0; 29], vec![1.0; 30]).unwrap();
    for choice in [
        SplitterChoice::Auto,
        SplitterChoice::Order,
        SplitterChoice::Bfs,
    ] {
        let solver = Solver::for_instance(&inst)
            .classes(3)
            .splitter(choice)
            .build()
            .unwrap();
        assert!(solver.solve().is_strictly_balanced());
    }
    // Tree choice also applies (a path is a forest).
    let solver = Solver::for_instance(&inst)
        .classes(3)
        .splitter(SplitterChoice::Tree)
        .build()
        .unwrap();
    assert_eq!(solver.splitter_name(), "tree");
    assert!(solver.solve().is_strictly_balanced());
}

#[test]
fn extra_measures_ride_the_instance() {
    let grid = GridGraph::lattice(&[12, 12]);
    let n = grid.graph.num_vertices();
    let m = grid.graph.num_edges();
    let mem: Vec<f64> = (0..n as u32)
        .map(|v| if grid.coord(v)[0] < 3 { 6.0 } else { 0.5 })
        .collect();
    let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n])
        .unwrap()
        .with_extra_measure(mem.clone())
        .unwrap();
    let report = Solver::for_instance(&inst)
        .classes(6)
        .build()
        .unwrap()
        .solve();
    assert!(report.is_strictly_balanced());
    let cm = report.coloring.class_measures(&mem);
    let avg: f64 = mem.iter().sum::<f64>() / 6.0;
    let max = cm.iter().cloned().fold(0.0, f64::max);
    assert!(
        max <= 12.0 * avg + 64.0 * mem.iter().cloned().fold(0.0, f64::max),
        "extra measure unbalanced: {max} vs avg {avg}"
    );
}

#[test]
fn report_class_table_is_consistent() {
    let grid = GridGraph::lattice(&[8, 8]);
    let m = grid.graph.num_edges();
    let weights: Vec<f64> = (0..64).map(|v| 1.0 + (v % 2) as f64).collect();
    let inst = Instance::from_grid(grid, vec![1.0; m], weights.clone()).unwrap();
    let report = Solver::for_instance(&inst)
        .classes(4)
        .build()
        .unwrap()
        .solve();
    let table = report.class_table();
    assert_eq!(table.len(), 4);
    let total_w: f64 = table.iter().map(|r| r.weight).sum();
    assert!((total_w - weights.iter().sum::<f64>()).abs() < 1e-9);
    for (i, row) in table.iter().enumerate() {
        assert_eq!(row.class, i);
        assert!((row.boundary_cost - report.boundary_costs[i]).abs() < 1e-12);
    }
}

#[test]
fn solve_many_matches_individual_solves_across_families() {
    // A mixed stream — grid, tree, path — through the batch entry point,
    // at several thread counts: results in input order, colorings
    // bit-identical to one-at-a-time solves, and the workspace pool
    // amortized per worker.
    let grid = GridGraph::lattice(&[9, 9]);
    let gm = grid.graph.num_edges();
    let tree = random_tree(70, 3, 5);
    let tm = tree.num_edges();
    let line = path(40);
    let instances = vec![
        Instance::from_grid(grid, det_costs(gm, 3), det_weights(81, 3)).unwrap(),
        Instance::new(tree, det_costs(tm, 4), det_weights(70, 4)).unwrap(),
        Instance::new(line, det_costs(39, 5), det_weights(40, 5)).unwrap(),
    ];
    let k = 4;
    let cfg = PipelineConfig::default();
    let reference: Vec<_> = instances
        .iter()
        .map(|inst| {
            Solver::for_instance(inst)
                .classes(k)
                .build()
                .unwrap()
                .solve()
                .coloring
        })
        .collect();
    for threads in [1usize, 2, 4] {
        let batch = rayon::with_num_threads(threads, || solve_many(&instances, k, &cfg));
        assert_eq!(batch.len(), instances.len());
        for (i, (got, want)) in batch.iter().zip(&reference).enumerate() {
            let got = got.as_ref().expect("valid instance");
            assert_eq!(&got.coloring, want, "instance {i}, threads {threads}");
            assert!(got.is_strictly_balanced());
        }
    }
    // Build failures surface per item, not as a panic.
    let errs = solve_many(&instances, 0, &cfg);
    assert!(errs
        .iter()
        .all(|r| matches!(r, Err(SolveError::ZeroColors))));
}

fn _object_safety_probe(s: &dyn Splitter) -> &str {
    // Compile-time proof that Splitter stays object safe.
    s.name()
}

#[test]
fn corpus_solver_reuse_matches_fresh_builds() {
    // Solver-reuse regression over the whole corpus: for every entry of
    // every family, one amortized Solver solved repeatedly produces
    // colorings bit-identical to solvers built fresh per call — across
    // all eight graph families and both weight/cost profiles.
    let corpus = mmb_instances::corpus::Corpus::quick();
    for family in corpus.families() {
        for entry in corpus.family_entries(family) {
            let inst = &entry.instance;
            let amortized = Solver::for_instance(inst).classes(entry.k).build().unwrap();
            let first = amortized.solve();
            for round in 0..2 {
                let reused = amortized.solve();
                assert_eq!(
                    reused.coloring, first.coloring,
                    "{}: reuse round {round} diverged",
                    entry.name
                );
                let fresh = Solver::for_instance(inst)
                    .classes(entry.k)
                    .build()
                    .unwrap()
                    .solve();
                assert_eq!(
                    fresh.coloring, first.coloring,
                    "{}: fresh build round {round} diverged",
                    entry.name
                );
            }
            assert!(first.is_strictly_balanced(), "{}", entry.name);
        }
    }
}

#[test]
fn pooled_scratch_leaves_no_trace_between_solves() {
    // Every solve draws its dense scratch buffers from this thread's
    // workspace pool. A buffer handed back dirty would leak one solve's
    // state into the next, so each quick-corpus entry is solved on a
    // fresh thread (empty pool) and again on this thread after the whole
    // corpus has used its pool: the colorings must be bit-identical.
    let corpus = mmb_instances::corpus::Corpus::quick();
    let solve = |entry: &mmb_instances::corpus::CorpusEntry| {
        Solver::for_instance(&entry.instance)
            .classes(entry.k)
            .build()
            .unwrap()
            .solve()
            .coloring
    };
    for entry in &corpus {
        solve(entry);
    }
    for entry in &corpus {
        let fresh = std::thread::scope(|s| s.spawn(|| solve(entry)).join().unwrap());
        assert_eq!(
            solve(entry),
            fresh,
            "{}: a used pool changed the coloring",
            entry.name
        );
    }
}

#[test]
fn corpus_families_resolve_expected_splitters() {
    // The auto-splitter resolves the corpus families sensibly: lattices
    // and hypercubes get GridSplit, attachment trees get the forest
    // splitter, and the non-embeddable families fall back to BFS.
    let corpus = mmb_instances::corpus::Corpus::quick();
    for entry in &corpus {
        let solver = Solver::for_instance(&entry.instance)
            .classes(entry.k)
            .build()
            .unwrap();
        match entry.family {
            "grid" | "hypercube" => assert_eq!(solver.family(), "grid", "{}", entry.name),
            "tree" => assert_eq!(solver.family(), "forest", "{}", entry.name),
            "torus" | "ws" | "sbm" => {
                assert_eq!(solver.family(), "arbitrary", "{}", entry.name)
            }
            _ => {} // pa (attach = 2) and rgg depend on the draw
        }
    }
}

#[test]
fn path_positions_used_by_auto_follow_the_walk() {
    // A path given with scrambled vertex ids: Auto must still order by the
    // walk, not by id, and pay at most one cut edge per class boundary.
    let n = 24usize;
    let scramble = |v: usize| ((v * 7) % n) as VertexId;
    let mut b = mmb_graph::GraphBuilder::new(n);
    for v in 0..n - 1 {
        b.add_edge(scramble(v), scramble(v + 1));
    }
    let g = b.build();
    let m = g.num_edges();
    let inst = Instance::new(g, vec![1.0; m], vec![1.0; n]).unwrap();
    let solver = Solver::for_instance(&inst).classes(4).build().unwrap();
    assert_eq!(solver.family(), "path");
    let report = solver.solve();
    assert!(report.is_strictly_balanced());
    assert!(
        report.max_boundary <= 6.0,
        "scrambled path boundary {}",
        report.max_boundary
    );
}

/// PR-2-style construction accounting, extended to recognition: explicit
/// splitter choices must not pay the `recognize()` scan at all — the
/// whole point of caching a recognition verdict in `SolverArtifacts` is
/// that construction phases are separable and individually skippable.
#[test]
fn explicit_splitter_choices_skip_recognition() {
    use mmb_core::api::SolverCache;
    use mmb_graph::recognize::recognition_count;
    use mmb_splitters::bfs::BfsSplitter;

    // Plain-graph instance (no `GridGraph` handle attached): recognition
    // is the only way to *detect* the lattice, so any recognition this
    // test observes is attributable to the solver build under test.
    let grid = GridGraph::lattice(&[10, 10]);
    let costs = det_costs(grid.graph.num_edges(), 11);
    let weights = det_weights(grid.graph.num_vertices(), 12);
    let inst = Instance::new(grid.graph.clone(), costs.clone(), weights.clone()).unwrap();

    // Explicit Order / Bfs: zero recognitions across build + solve.
    for (choice, label) in [
        (SplitterChoice::Order, "order"),
        (SplitterChoice::Bfs, "bfs"),
    ] {
        let before = recognition_count();
        let solver = Solver::for_instance(&inst)
            .classes(4)
            .splitter(choice)
            .build()
            .unwrap();
        assert!(solver.solve().is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before,
            "explicit {label} splitter must skip recognition"
        );
    }

    // Custom: the caller brought their own splitter; recognizing anyway
    // would be pure waste.
    {
        let before = recognition_count();
        let solver = Solver::for_instance(&inst)
            .classes(4)
            .splitter(SplitterChoice::Custom(Box::new(BfsSplitter::new(
                inst.graph(),
            ))))
            .build()
            .unwrap();
        assert!(solver.solve().is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before,
            "custom splitter must skip recognition"
        );
    }

    // Tree: eligibility is a plain acyclicity check (`components()`),
    // not a full recognition scan.
    {
        let tree = random_tree(60, 3, 7);
        let tw = det_weights(60, 13);
        let tc = det_costs(tree.num_edges(), 14);
        let tinst = Instance::new(tree, tc, tw).unwrap();
        let before = recognition_count();
        let solver = Solver::for_instance(&tinst)
            .classes(3)
            .splitter(SplitterChoice::Tree)
            .build()
            .unwrap();
        assert!(solver.solve().is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before,
            "tree eligibility must not run recognition"
        );
    }

    // Auto: recognition runs exactly once, and the verdict is memoized on
    // the instance — a second build (even at a different k) reuses it.
    {
        let before = recognition_count();
        let s1 = Solver::for_instance(&inst).classes(4).build().unwrap();
        assert!(s1.solve().is_strictly_balanced());
        assert_eq!(recognition_count(), before + 1, "auto recognizes once");
        let s2 = Solver::for_instance(&inst).classes(5).build().unwrap();
        assert!(s2.solve().is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before + 1,
            "rebuild must reuse the memoized verdict"
        );
    }

    // Artifact warm start: a *fresh* identical instance built from cached
    // artifacts inherits the recognition verdict and pays nothing.
    {
        let mut cache = SolverCache::new(1);
        let (artifacts, _) = cache.get_or_compute(&inst, 2.0);
        let fresh = Instance::new(grid.graph.clone(), costs, weights).unwrap();
        let before = recognition_count();
        let solver = Solver::for_instance(&fresh)
            .classes(4)
            .artifacts(artifacts)
            .build()
            .unwrap();
        assert!(solver.solve().is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before,
            "artifact-seeded build must skip recognition on a fresh instance"
        );
    }
}
