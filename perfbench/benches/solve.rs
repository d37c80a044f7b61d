//! The `cold-1m` workload, and the traced pipeline stages `serve-churn`
//! re-drives its cold solves through.
//!
//! An untraced op calls the public API the way a user does and is timed
//! as a whole. A traced op re-drives the same computation one layer at a
//! time through each layer's public functions, timing every call and
//! counting its work; its final coloring must equal the untraced one bit
//! for bit, or the run fails.

use std::io::Cursor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mmb_core::api::{auto_splitter, Instance, Solver};
use mmb_core::coarsen::CoarseningFront;
use mmb_core::multibalance::multibalance_minmax_with_pi_ws;
use mmb_core::pi::splitting_cost_measure_within;
use mmb_core::pipeline::{CoarsenConfig, PipelineConfig};
use mmb_core::refine::refine;
use mmb_core::shrink::almost_strict_ws;
use mmb_core::strict::binpack2;
use mmb_graph::fingerprint::Fingerprint;
use mmb_graph::gen::grid::GridGraph;
use mmb_graph::io::{parse_metis_reader, write_metis};
use mmb_graph::recognize::recognition_count;
use mmb_graph::workspace::Workspace;
use mmb_graph::{Coloring, Graph, VertexSet};
use mmb_splitters::Splitter;

use crate::audit::Mirror;
use crate::util::{end_to_end, hex_list, median, num, num_list, timed, Round, RunResult, Trace};
use crate::Args;

/// Classes of the `cold-1m` solve (BENCH_6's `large` rows).
const COLD_K: usize = 8;
/// Input generations per run; `setup_s` reports their median.
const SETUP_REPS: usize = 3;

/// A generated instance, as the benchmark keeps it for the checks.
pub struct Input {
    pub family: &'static str,
    pub graph: Graph,
    pub costs: Vec<f64>,
    pub weights: Vec<f64>,
    /// METIS serialization, for workloads that ingest text.
    pub doc: Option<String>,
}

impl Input {
    fn new(family: &'static str, graph: Graph, costs: Vec<f64>, weights: Vec<f64>) -> Self {
        Input {
            family,
            graph,
            costs,
            weights,
            doc: None,
        }
    }

    fn mirror(&self, k: usize) -> Mirror<'_> {
        Mirror {
            edges: self.graph.edge_list(),
            costs: &self.costs,
            weights: &self.weights,
            k,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        Fingerprint::of_parts(&self.graph, &self.costs, &self.weights).combined()
    }
}

/// `cold-1m`: a `side × side` grid with unit costs and BENCH_6's
/// deterministic weights `1 + ((17 >> (v mod 53)) & 7)`, serialized to
/// METIS. The same for every seed: at this size one instance's quality
/// and BinPack2 work swing by 2× between weight draws, which would bury
/// any change under input noise.
fn cold_input(side: usize) -> Input {
    let g = GridGraph::lattice(&[side, side]).graph;
    let costs = vec![1.0; g.num_edges()];
    let weights = (0..g.num_vertices())
        .map(|v| 1.0 + ((17u64 >> (v % 53)) & 7) as f64)
        .collect();
    let mut input = Input::new("grid", g, costs, weights);
    input.doc = Some(write_metis(&input.graph, &input.weights, &input.costs));
    input
}

/// Pass-through splitter that counts split calls and queried vertices.
pub struct Counting<S> {
    inner: S,
    calls: AtomicU64,
    vertices: AtomicU64,
}

impl<S: Splitter> Counting<S> {
    pub fn new(inner: S) -> Self {
        Counting {
            inner,
            calls: AtomicU64::new(0),
            vertices: AtomicU64::new(0),
        }
    }

    /// `(calls, queried vertices)` since the last take.
    fn take(&self) -> (f64, f64) {
        (
            self.calls.swap(0, Ordering::Relaxed) as f64,
            self.vertices.swap(0, Ordering::Relaxed) as f64,
        )
    }
}

impl<S: Splitter> Splitter for Counting<S> {
    fn split(&self, w_set: &VertexSet, weights: &[f64], target: f64) -> VertexSet {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.vertices
            .fetch_add(w_set.len() as u64, Ordering::Relaxed);
        self.inner.split(w_set, weights, target)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

fn differing(a: &Coloring, b: &Coloring) -> f64 {
    (0..a.num_vertices() as u32)
        .filter(|&v| a.raw(v) != b.raw(v))
        .count() as f64
}

struct Served {
    coloring: Coloring,
    max_boundary: f64,
}

type Parts = (Graph, Vec<f64>, Vec<f64>);

/// A copy of the generated parts for an op, made before its clock starts;
/// `None` for an input the op ingests from METIS text.
fn copy_parts(input: &Input) -> Option<Parts> {
    input.doc.is_none().then(|| {
        (
            input.graph.clone(),
            input.costs.clone(),
            input.weights.clone(),
        )
    })
}

/// The op's ingest step: parse the METIS document, or hand the copied
/// parts through.
fn ingest(input: &Input, parts: Option<Parts>) -> Result<Parts, String> {
    match (parts, &input.doc) {
        (Some(parts), _) => Ok(parts),
        (None, Some(doc)) => parse_metis_reader(Cursor::new(doc.as_bytes()))
            .map(|mg| (mg.graph, mg.costs, mg.weights))
            .map_err(|e| e.to_string()),
        (None, None) => unreachable!("an input without a document is copied"),
    }
}

/// The untraced op: ingest, validate, build (`Auto` splitter), solve.
/// Everything it allocates is dropped before the clock stops. Returns the
/// op's milliseconds and those of its `solve` call.
fn plain_op(input: &Input, k: usize, cfg: &PipelineConfig) -> Result<(Served, f64, f64), String> {
    let parts = copy_parts(input);
    let t = Instant::now();
    let (graph, costs, weights) = ingest(input, parts)?;
    let inst = Instance::new(graph, costs, weights).map_err(|e| e.to_string())?;
    let solver = Solver::for_instance(&inst)
        .classes(k)
        .config(cfg.clone())
        .build()
        .map_err(|e| e.to_string())?;
    let (served, solve_ms) = timed(|| {
        let report = solver.solve();
        Served {
            coloring: report.coloring,
            max_boundary: report.max_boundary,
        }
    });
    drop(solver);
    drop(inst);
    Ok((served, t.elapsed().as_secs_f64() * 1e3, solve_ms))
}

/// The traced op: the same computation as [`plain_op`], one layer per
/// span. Returns the final coloring and the traced wall time.
fn traced_op(
    input: &Input,
    k: usize,
    cfg: &PipelineConfig,
    tr: &mut Trace,
) -> Result<(Coloring, f64), String> {
    let parts = copy_parts(input);
    Workspace::with_local(|ws| ws.reset_stats());
    let r0 = recognition_count();
    let t = Instant::now();
    let (graph, costs, weights) = tr.span("io.parse_ms", || ingest(input, parts))?;
    let inst = tr
        .span("instance.validate_ms", || {
            Instance::new(graph, costs, weights)
        })
        .map_err(|e| e.to_string())?;
    tr.span("recognize.ms", || {
        std::hint::black_box(inst.structure());
    });
    let (splitter, _) = tr.span("splitter.build_ms", || auto_splitter(&inst));
    let splitter = Counting::new(splitter);
    let pi: Arc<[f64]> = tr.span("pi.ms", || {
        std::hint::black_box(inst.cost_norm(cfg.p));
        splitting_cost_measure_within(inst.graph(), inst.costs(), cfg.p, 1.0, inst.domain()).into()
    });
    let cascade = match &cfg.coarsen {
        Some(cc) if inst.num_vertices() > cc.params.target_vertices => {
            traced_cascade(&inst, &splitter, k, cfg, cc, tr)
        }
        _ => None,
    };
    let coloring = match cascade {
        Some(chi) => chi,
        None => traced_direct(&inst, &splitter, &pi, k, cfg, tr),
    };
    drop(splitter);
    drop(inst);
    let wall = t.elapsed().as_secs_f64() * 1e3;
    tr.count("recognize.calls", (recognition_count() - r0) as f64);
    let stats = Workspace::with_local(|ws| ws.stats());
    tr.count("workspace.acquires", stats.acquires as f64);
    tr.count("workspace.cells_touched", stats.cells_touched as f64);
    tr.count(
        "workspace.arena_peak_mib",
        stats.arena_peak_bytes as f64 / (1024.0 * 1024.0),
    );
    Ok((coloring, wall))
}

/// The direct three-stage pipeline (Prop 7 → 11 → 12), as `Solver::solve`
/// runs it.
pub fn traced_direct<S: Splitter>(
    inst: &Instance,
    splitter: &Counting<S>,
    pi: &[f64],
    k: usize,
    cfg: &PipelineConfig,
    tr: &mut Trace,
) -> Coloring {
    let (g, costs, weights, domain) = (inst.graph(), inst.costs(), inst.weights(), inst.domain());
    let user = [weights];
    Workspace::with_local(|ws| {
        let stage1 = tr.span("multibalance.ms", || {
            multibalance_minmax_with_pi_ws(g, costs, splitter, k, domain, &user, pi, ws)
        });
        tr.count("multibalance.split_calls", splitter.take().0);
        let stage2 = if cfg.skip_shrink {
            stage1.coloring
        } else {
            tr.span("shrink.ms", || {
                almost_strict_ws(
                    g,
                    costs,
                    splitter,
                    &stage1.coloring,
                    domain,
                    weights,
                    cfg.p,
                    &cfg.shrink,
                    ws,
                )
            })
        };
        let (calls, vertices) = splitter.take();
        tr.count("shrink.split_calls", calls);
        tr.count("shrink.split_vertices", vertices);
        let stage3 = tr.span("binpack2.ms", || {
            binpack2(g, splitter, &stage2, domain, weights)
        });
        tr.count("binpack2.split_calls", splitter.take().0);
        tr.count("binpack2.recolored", differing(&stage2, &stage3));
        stage3
    })
}

/// The coarsening cascade, as `Solver::solve` runs it above the target
/// size. `None` when nothing contracts (the solver then goes direct).
fn traced_cascade<S: Splitter>(
    inst: &Instance,
    splitter: &Counting<S>,
    k: usize,
    cfg: &PipelineConfig,
    cc: &CoarsenConfig,
    tr: &mut Trace,
) -> Option<Coloring> {
    let host = (inst.graph(), inst.costs(), inst.weights());
    let front = tr.span("coarsen.ms", || {
        CoarseningFront::build(host.0, host.1, host.2, &cc.params)
    });
    if front.num_levels() == 0 {
        return None;
    }
    let (cg, ccosts, cweights) = front.coarsest(host);
    tr.count("coarsen.levels", front.num_levels() as f64);
    tr.count("coarsen.coarse_n", cg.num_vertices() as f64);
    let coarse = tr.span("coarse_solve.ms", || {
        let coarse_inst = Instance::new(cg.clone(), ccosts.to_vec(), cweights.to_vec())
            .expect("contraction of a valid instance is valid");
        let solver = Solver::for_instance(&coarse_inst)
            .classes(k)
            .config(PipelineConfig {
                coarsen: None,
                ..cfg.clone()
            })
            .build()
            .expect("k and p are valid");
        solver.solve().coloring
    });
    let (mut refine_ms, mut count_ms, mut moved) = (0.0, 0.0, 0.0);
    let projected = tr
        .span("project.ms", || {
            front.project_to_host(host, coarse, |fg, fc, fw, chi| {
                let (out, ms) = timed(|| refine(fg, fc, fw, chi, &cc.kl));
                refine_ms += ms;
                if let Ok(o) = &out {
                    let (d, ms) = timed(|| differing(chi, o));
                    moved += d;
                    count_ms += ms;
                }
                out
            })
        })
        .expect("level triples are valid by construction");
    // `project` keeps its self time only: refinement is its own layer and
    // the moved-vertex count is tracing overhead.
    tr.add_ms("project.ms", -refine_ms - count_ms);
    tr.add_ms("refine.ms", refine_ms);
    tr.count("refine.moved", moved);
    let stage3 = tr.span("binpack2.ms", || {
        binpack2(host.0, splitter, &projected, inst.domain(), host.2)
    });
    tr.count("binpack2.split_calls", splitter.take().0);
    tr.count("binpack2.recolored", differing(&projected, &stage3));
    Some(stage3)
}

/// The stages `Solver::solve` runs (as opposed to its build).
const SOLVE_STAGES: [&str; 7] = [
    "multibalance.ms",
    "shrink.ms",
    "binpack2.ms",
    "coarsen.ms",
    "coarse_solve.ms",
    "project.ms",
    "refine.ms",
];

struct Workload {
    inputs: Vec<Input>,
    k: usize,
    cfg: PipelineConfig,
}

fn generate(args: &Args) -> Workload {
    Workload {
        inputs: vec![cold_input(if args.smoke { 100 } else { 1000 })],
        k: COLD_K,
        cfg: PipelineConfig {
            coarsen: Some(CoarsenConfig::default()),
            ..PipelineConfig::default()
        },
    }
}

/// A run holds a handful of ops: no percentile has ten samples beyond it,
/// so the tail is the slowest op kept.
const TAIL_Q: f64 = 100.0;

/// Run `cold-1m`.
pub fn run(args: &Args) -> RunResult {
    // Set-up: generate the inputs several times (the median is the
    // generation cost; identical fingerprints show the generator is
    // deterministic), then one warm-up op per input, whose colorings
    // become the reference every later op must reproduce.
    let mut gen_s = Vec::new();
    let mut fingerprints: Vec<Vec<u64>> = Vec::new();
    let mut work = None;
    for _ in 0..SETUP_REPS {
        let (w, ms) = timed(|| {
            let w = generate(args);
            let fps: Vec<u64> = w.inputs.iter().map(Input::fingerprint).collect();
            (w, fps)
        });
        gen_s.push(ms / 1e3);
        fingerprints.push(w.1);
        work = Some(w.0);
    }
    let w = work.expect("at least one set-up");
    let mut correct = fingerprints.windows(2).all(|p| p[0] == p[1]);
    let mut failed = 0u64;
    let mut errors: Vec<String> = Vec::new();
    let (reference, warm_ms) = timed(|| {
        w.inputs
            .iter()
            .map(|input| plain_op(input, w.k, &w.cfg).map(|(s, _, _)| s))
            .collect::<Vec<_>>()
    });
    let setup_s = median(&gen_s) + warm_ms / 1e3;
    let mut reference_cost = Vec::new();
    let reference: Vec<Option<Coloring>> = reference
        .into_iter()
        .zip(&w.inputs)
        .map(|(r, input)| {
            match r.and_then(|s| {
                input.mirror(w.k).check(&s.coloring, s.max_boundary)?;
                Ok(s)
            }) {
                Ok(s) => {
                    reference_cost.push(s.max_boundary);
                    Some(s.coloring)
                }
                Err(e) => {
                    errors.push(format!("warm-up {}: {e}", input.family));
                    correct = false;
                    None
                }
            }
        })
        .collect();

    // Measured phase: whole rounds until the time is up (smoke: one).
    let mut traced_ms = Vec::new();
    let mut unattributed = Vec::new();
    let mut residual = Vec::new();
    let mut tr_total = Trace::default();
    let mut attempted = 0u64;
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    loop {
        let mut round = Round {
            ops: Vec::new(),
            busy_ms: 0.0,
        };
        for (i, input) in w.inputs.iter().enumerate() {
            match plain_op(input, w.k, &w.cfg) {
                Ok((s, op_ms, solve_ms)) => {
                    round.ops.push((i, op_ms));
                    round.busy_ms += op_ms;
                    let check = input.mirror(w.k).check(&s.coloring, s.max_boundary);
                    let same = reference[i].as_ref() == Some(&s.coloring);
                    if let Err(e) = check {
                        errors.push(format!("{}: {e}", input.family));
                        failed += 1;
                    } else if !same {
                        errors.push(format!("{}: coloring differs from warm-up", input.family));
                        failed += 1;
                    }
                    if args.trace {
                        let mut tr = Trace::default();
                        match traced_op(input, w.k, &w.cfg, &mut tr) {
                            Ok((chi, wall)) => {
                                if chi != s.coloring {
                                    errors
                                        .push(format!("{}: traced coloring differs", input.family));
                                    correct = false;
                                }
                                traced_ms.push(wall);
                                unattributed.push(wall - tr.attributed_ms());
                                let stages: f64 = SOLVE_STAGES.iter().map(|s| tr.ms(s)).sum();
                                residual.push(solve_ms - stages);
                                tr_total.absorb(&tr);
                            }
                            Err(e) => {
                                errors.push(format!("{}: traced op: {e}", input.family));
                                correct = false;
                            }
                        }
                    }
                }
                Err(e) => {
                    errors.push(format!("{}: {e}", input.family));
                    failed += 1;
                }
            }
            attempted += 1;
        }
        rounds.push(round);
        if args.smoke || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    correct &= failed == 0;

    let mut details = vec![
        ("input_fingerprints", hex_list(&fingerprints[0])),
        ("setup_generation_s", num_list(&gen_s)),
        ("setup_warmup_s", num(warm_ms / 1e3)),
    ];
    let metrics = if args.trace {
        let ops = traced_ms.len().max(1) as f64;
        let plain_ms: Vec<f64> = rounds
            .iter()
            .flat_map(|r| r.ops.iter().map(|o| o.1))
            .collect();
        details.push(("traced_op_ms", num_list(&traced_ms)));
        details.push(("unattributed_ms", num_list(&unattributed)));
        details.push(("report_residual_ms", num_list(&residual)));
        let mut m = crate::layer_metrics();
        for (name, value, _) in m.iter_mut() {
            *value = match *name {
                "report.residual_ms" => median(&residual),
                "trace.overhead_ms" => median(&traced_ms) - median(&plain_ms),
                "trace.unattributed_ms" => median(&unattributed),
                // Spans and counters are named after their metric.
                name => (tr_total.ms(name) + tr_total.counter(name)) / ops,
            };
        }
        m
    } else {
        end_to_end(
            setup_s,
            w.inputs.len(),
            &rounds,
            // Every round runs the same input, so each is its own window.
            rounds.len(),
            TAIL_Q,
            &reference_cost,
            &mut details,
        )
    };
    if !errors.is_empty() {
        errors.truncate(20);
        let quoted: Vec<String> = errors.iter().map(|e| format!("{e:?}")).collect();
        details.push(("errors", format!("[{}]", quoted.join(","))));
    }
    RunResult {
        correct,
        attempted,
        failed,
        metrics,
        details,
    }
}
