//! Integration tests of the `Instance`/`Solver` API.
//!
//! Covers the redesign's contract points:
//! * a caller's splitter passed to `SolverBuilder::splitter` and the
//!   auto-selected one produce *identical* colorings on random instances
//!   (property test);
//! * `auto_splitter` picks the expected family on grid / tree / path /
//!   arbitrary inputs;
//! * a built `Solver` reuses its constructed splitter across `solve()`
//!   calls (constructions counted, calls recorded);
//! * `Box<dyn Splitter>` / `Arc<dyn Splitter>` work end to end as a
//!   caller's splitter (trait-object story);
//! * builder/validation errors surface as typed `SolveError`s;
//! * `Report::of` on a served coloring is the served report, bit for bit;
//! * the pooled scratch workspace leaves no trace between solves;
//! * recognition runs only where a splitter is built, and never to
//!   format an `Instance` or a `Solver`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mmb_core::api::{Instance, Report, SolveError, Solver};
use mmb_core::coarsen::CoarsenParams;
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::gen::misc::path;
use mmb_graph::gen::tree::random_tree;
use mmb_graph::{VertexId, VertexSet, Workspace};
use mmb_instances::corpus::Corpus;
use mmb_service::{Request, Service, ServiceConfig};
use mmb_splitters::bfs::BfsSplitter;
use mmb_splitters::grid::GridSplitter;
use mmb_splitters::order::OrderSplitter;
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

/// The raw triple a client would send for `inst`.
fn solve_request(inst: &Instance) -> Request {
    Request::Solve {
        graph: inst.graph().clone(),
        costs: inst.costs().to_vec(),
        weights: inst.weights().to_vec(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // An explicit GridSplitter handed to `SolverBuilder::splitter` and the
    // auto-selected one produce the *same coloring*, bit for bit — and so
    // does a `Service::serve` batch at every thread count of the parallel
    // shim.
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
            .splitter(Box::new(&sp))
            .build()
            .unwrap()
            .solve();
        let report = Solver::for_instance(&inst).classes(k).build().unwrap().solve();
        prop_assert_eq!(&report.coloring, &explicit.coloring);
        prop_assert!(report.is_strictly_balanced());

        // Service::serve ≡ one-at-a-time solve, for 1 and several threads
        // (contiguous chunks, the first on the calling thread).
        let service = Service::new(ServiceConfig::new(k));
        for threads in [1usize, 3] {
            let responses =
                rayon::with_num_threads(threads, || service.serve(vec![solve_request(&inst)]));
            prop_assert_eq!(responses.len(), 1);
            let got = responses.into_iter().next().unwrap().outcome.unwrap();
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
            .splitter(Box::new(&sp))
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
        .splitter(Box::new(&rec))
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
            .splitter(sp)
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
    // Invalid splittability exponent is a typed error, not a panic.
    for bad_p in [0.5, f64::NAN, f64::INFINITY] {
        assert!(matches!(
            Solver::for_instance(&inst)
                .classes(2)
                .p(bad_p)
                .build()
                .unwrap_err(),
            SolveError::InvalidExponent { .. }
        ));
    }
}

#[test]
fn explicit_choices_and_auto_agree_where_applicable() {
    // On a path instance, auto selection picks the walk order; the
    // generic order and BFS splitters still deliver strictness.
    let g = path(30);
    let inst = Instance::new(g.clone(), vec![1.0; 29], vec![1.0; 30]).unwrap();
    assert!(Solver::for_instance(&inst)
        .classes(3)
        .build()
        .unwrap()
        .solve()
        .is_strictly_balanced());
    let caller: [Box<dyn Splitter + '_>; 2] = [
        Box::new(OrderSplitter::by_id(&g)),
        Box::new(BfsSplitter::new(&g)),
    ];
    for splitter in caller {
        let solver = Solver::for_instance(&inst)
            .classes(3)
            .splitter(splitter)
            .build()
            .unwrap();
        assert!(solver.solve().is_strictly_balanced());
    }
    // The tree splitter also applies (a path is a forest).
    let solver = Solver::for_instance(&inst)
        .classes(3)
        .splitter(Box::new(TreeSplitter::new(&g)))
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
fn report_of_a_served_coloring_is_the_served_report() {
    let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for entry in &Corpus::quick() {
        let (inst, name) = (&entry.instance, &entry.name);
        let served = Solver::for_instance(inst)
            .classes(entry.k)
            .p(entry.p)
            .build()
            .unwrap()
            .solve();
        let audit = Report::of(inst, entry.p, &served.splitter, served.coloring.clone());
        assert_eq!(
            bits(&audit.class_weights),
            bits(&served.class_weights),
            "{name}"
        );
        assert_eq!(
            bits(&audit.boundary_costs),
            bits(&served.boundary_costs),
            "{name}"
        );
        let scalars = |r: &Report| {
            bits(&[
                r.strict_defect,
                r.strict_slack,
                r.max_boundary,
                r.avg_boundary,
                r.bound,
                r.bound_ratio,
            ])
        };
        assert_eq!(scalars(&audit), scalars(&served), "{name}");
        assert_eq!((audit.k, audit.strict), (served.k, served.strict), "{name}");
        assert_eq!(served.class_weights.len(), entry.k, "{name}");
        let total_w: f64 = served.class_weights.iter().sum();
        assert!(
            (total_w - inst.total_weight()).abs() <= 1e-9 * (1.0 + inst.total_weight()),
            "{name}: class weights sum to {total_w}, not {}",
            inst.total_weight()
        );
    }
}

#[test]
fn served_batches_match_individual_solves_across_families() {
    // A mixed stream — grid, tree, path — served as one batch at several
    // thread counts: responses in request order, colorings bit-identical
    // to one-at-a-time solves.
    let grid = GridGraph::lattice(&[9, 9]);
    let gm = grid.graph.num_edges();
    let tree = random_tree(70, 3, 5);
    let tm = tree.num_edges();
    let line = path(40);
    let instances = [
        Instance::from_grid(grid, det_costs(gm, 3), det_weights(81, 3)).unwrap(),
        Instance::new(tree, det_costs(tm, 4), det_weights(70, 4)).unwrap(),
        Instance::new(line, det_costs(39, 5), det_weights(40, 5)).unwrap(),
    ];
    let k = 4;
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
    let requests = || instances.iter().map(solve_request).collect::<Vec<_>>();
    let service = Service::new(ServiceConfig::new(k));
    for threads in [1usize, 2, 4] {
        let batch = rayon::with_num_threads(threads, || service.serve(requests()));
        assert_eq!(batch.len(), instances.len());
        for (i, (got, want)) in batch.iter().zip(&reference).enumerate() {
            assert_eq!(got.record.index, i);
            let got = got.outcome.as_ref().expect("valid instance");
            assert_eq!(&got.coloring, want, "instance {i}, threads {threads}");
            assert!(got.coloring.is_strictly_balanced(instances[i].weights()));
        }
    }
    // Build failures surface per request, not as a panic.
    let errs = Service::new(ServiceConfig::new(0)).serve(requests());
    assert!(errs
        .iter()
        .all(|r| matches!(r.outcome, Err(SolveError::ZeroColors))));
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
    // state into the next, so each input is solved on this thread before
    // and after every input has used the pool, and once on a fresh thread
    // (empty pool): the three colorings must be bit-identical. The repeat
    // solve must also reuse the pool — it checks buffers out, but
    // allocates no more than it holds live at once. The inputs are the
    // quick corpus plus uniform grids at k = 16, where ‖w‖∞ = 1 drives the
    // Proposition 11 recursion many levels deep.
    let corpus = mmb_instances::corpus::Corpus::quick();
    let grids: Vec<(String, Instance)> = [12usize, 16]
        .iter()
        .map(|&side| {
            let grid = GridGraph::lattice(&[side, side]);
            let (n, m) = (grid.graph.num_vertices(), grid.graph.num_edges());
            let inst = Instance::from_grid(grid, vec![1.0; m], vec![1.0; n]).unwrap();
            (format!("uniform-grid-{side}x{side}"), inst)
        })
        .collect();
    let inputs: Vec<(&str, &Instance, usize)> = corpus
        .entries()
        .iter()
        .map(|e| (e.name.as_str(), &e.instance, e.k))
        .chain(grids.iter().map(|(name, inst)| (name.as_str(), inst, 16)))
        .collect();
    let solve = |inst: &Instance, k: usize| {
        Solver::for_instance(inst)
            .classes(k)
            .build()
            .unwrap()
            .solve()
            .coloring
    };
    let first: Vec<_> = inputs.iter().map(|&(_, inst, k)| solve(inst, k)).collect();
    for (&(name, inst, k), first) in inputs.iter().zip(&first) {
        Workspace::with_local(|ws| ws.reset_stats());
        let again = solve(inst, k);
        let stats = Workspace::with_local(|ws| ws.stats());
        assert!(stats.acquires > 0, "{name}: no scratch buffer checked out");
        assert!(
            stats.fresh_allocs <= stats.peak_live as u64,
            "{name}: pool misses ({}) exceed peak concurrency ({})",
            stats.fresh_allocs,
            stats.peak_live
        );
        assert_eq!(&again, first, "{name}: a used pool changed the coloring");
        let fresh = std::thread::scope(|s| s.spawn(|| solve(inst, k)).join().unwrap());
        assert_eq!(fresh, again, "{name}: an empty pool changed the coloring");
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
/// caller's splitter must not pay the `recognize()` scan at all — the
/// whole point of caching a recognition verdict in `SolverArtifacts` is
/// that construction phases are separable and individually skippable.
#[test]
fn explicit_splitter_choices_skip_recognition() {
    use mmb_core::api::SolverCache;
    use mmb_graph::recognize::recognition_count;

    // Plain-graph instance (no `GridGraph` handle attached): recognition
    // is the only way to *detect* the lattice, so any recognition this
    // test observes is attributable to the solver build under test.
    let grid = GridGraph::lattice(&[10, 10]);
    let costs = det_costs(grid.graph.num_edges(), 11);
    let weights = det_weights(grid.graph.num_vertices(), 12);
    let inst = Instance::new(grid.graph.clone(), costs.clone(), weights.clone()).unwrap();

    // A caller's splitter (order, BFS): zero recognitions across build +
    // solve — recognizing anyway would be pure waste.
    let caller: [(Box<dyn Splitter + '_>, &str); 2] = [
        (Box::new(OrderSplitter::by_id(inst.graph())), "order"),
        (Box::new(BfsSplitter::new(inst.graph())), "bfs"),
    ];
    for (splitter, label) in caller {
        let before = recognition_count();
        let solver = Solver::for_instance(&inst)
            .classes(4)
            .splitter(splitter)
            .build()
            .unwrap();
        assert_eq!(solver.family(), "custom");
        assert!(solver.solve().is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before,
            "caller's {label} splitter must skip recognition"
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

    // Cascade: the three stages run on the coarse instance with its own
    // splitter, so build + solve recognize the coarse graph only. The
    // host splitter, and the host recognition behind it, is built only if
    // the host `BinPack2` splits, which it does not here.
    {
        let lattice = GridGraph::lattice(&[64, 64]);
        let (n, m) = (lattice.graph.num_vertices(), lattice.graph.num_edges());
        let host = |g| Instance::new(g, det_costs(m, 13), det_weights(n, 14)).unwrap();
        let cfg = PipelineConfig {
            coarsen: Some(CoarsenConfig {
                params: CoarsenParams {
                    target_vertices: 512,
                    ..CoarsenParams::default()
                },
                ..CoarsenConfig::default()
            }),
            ..PipelineConfig::default()
        };
        let solver_for = |inst| {
            Solver::for_instance(inst)
                .classes(4)
                .config(cfg.clone())
                .build()
                .unwrap()
        };
        let (inst, twin) = (host(lattice.graph.clone()), host(lattice.graph));
        let before = recognition_count();
        let lazy = solver_for(&inst);
        let report = lazy.solve();
        assert!(report.is_strictly_balanced());
        assert_eq!(
            recognition_count(),
            before + 1,
            "the cascade recognizes the coarse graph only"
        );
        assert_eq!(report.splitter, "bfs", "the coarse solver's splitter");
        // The count is per thread and a host split may run on a pool
        // worker; the memo shows the host verdict was never computed.
        assert!(format!("{inst:?}").contains("undetected"), "{inst:?}");
        assert_eq!(lazy.family(), "grid");
        assert_eq!(lazy.splitter_name(), "gridsplit");
        assert_eq!(recognition_count(), before + 2, "asking recognizes once");
        assert_eq!((lazy.family(), lazy.splitter_name()), ("grid", "gridsplit"));
        assert_eq!(recognition_count(), before + 2, "and memoizes it");

        // Resolving the host splitter before the solve changes nothing.
        let eager = solver_for(&twin);
        assert_eq!(eager.family(), "grid");
        assert!(eager.solve().coloring == report.coloring);
    }
}

/// Formatting an `Instance` or a `Solver` prints only what is already
/// known: it must not run structure detection or build a splitter.
#[test]
fn debug_formatting_runs_no_recognition() {
    use mmb_graph::recognize::recognition_count;

    let lattice = GridGraph::lattice(&[10, 10]);
    let (n, m) = (lattice.graph.num_vertices(), lattice.graph.num_edges());
    let inst = Instance::new(lattice.graph, vec![1.0; m], vec![1.0; n]).unwrap();
    let before = recognition_count();
    let shown = format!("{inst:?}");
    assert_eq!(recognition_count(), before, "Instance's Debug recognized");
    assert!(shown.contains("undetected"), "{shown}");

    let solver = Solver::for_instance(&inst).classes(4).build().unwrap();
    let shown = format!("{solver:?}");
    assert_eq!(recognition_count(), before, "Solver's Debug recognized");
    assert!(shown.contains("unresolved"), "{shown}");

    assert_eq!(solver.family(), "grid");
    assert!(format!("{inst:?}").contains("\"grid\""));
    assert!(format!("{solver:?}").contains("\"gridsplit\""));
}
