//! # mmb-service
//!
//! The warm-path serving front end over `mmb-core`'s solver stack: a
//! long-lived [`Service`] that admits raw requests, caches solver
//! construction artifacts across requests, re-solves mutated instances
//! incrementally from their previous colorings, and emits a structured
//! [`ServingRecord`] per request.
//!
//! ## Request model
//!
//! * [`Request::Solve`] — a raw `(graph, costs, weights)` triple.
//!   Admission runs the same typed [`InstanceError`](mmb_core::api::InstanceError) validation the
//!   library's `Instance::new` constructor enforces; malformed input
//!   yields one typed rejection, never a poisoned batch.
//! * [`Request::Mutate`] — a [`InstanceDelta`] against the *ticket* of a
//!   previously served response. The service re-seeds the pipeline from
//!   the incumbent coloring (`Solver::resolve_delta`): KL repair of the
//!   incumbent and of an LPT restart, a strict re-pack of either only if
//!   eq. (1) broke, and the resilient ladder's validation gate before
//!   anything is served.
//!
//! Batches are distributed over the `rayon` worker pool; each request is
//! isolated — a panic in one becomes that request's typed
//! [`SolveError::Panicked`], not the batch's. The service keeps every
//! served instance under its ticket until [`Service::forget`]; a stateless
//! batch is a `par_iter` over `Solver::solve`.
//!
//! ## Cache discipline
//!
//! Construction artifacts (structure recognition, the splitting-cost
//! measure `π`, `‖c‖_p`) are keyed by the **weight-independent** parts of
//! the instance fingerprint, so weight-only churn — the common serving
//! mutation — stays warm. Every hit is confirmed by an exact structural
//! check; a fault observed during the lookup (the `service::cache`
//! failpoint) evicts the matching entry and rebuilds cold: a poisoned
//! entry is never served, and the event is visible as
//! [`CacheEvent::Poisoned`] in the record.
//!
//! ```
//! use mmb_graph::gen::grid::GridGraph;
//! use mmb_service::{Request, Service, ServiceConfig};
//! use mmb_core::api::InstanceDelta;
//!
//! let service = Service::new(ServiceConfig::new(4));
//! let grid = GridGraph::lattice(&[8, 8]);
//! let m = grid.graph.num_edges();
//! let solve = Request::Solve {
//!     graph: grid.graph,
//!     costs: vec![1.0; m],
//!     weights: vec![1.0; 64],
//! };
//! let cold = service.serve(vec![solve]);
//! let ticket = cold[0].outcome.as_ref().unwrap().ticket;
//!
//! // Weight churn against the served ticket: warm re-solve.
//! let mutate = Request::Mutate {
//!     base: ticket,
//!     delta: InstanceDelta::new().set_weight(0, 2.0),
//! };
//! let warm = service.serve(vec![mutate]);
//! assert!(warm[0].outcome.is_ok());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod record;

use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use mmb_core::api::{
    CacheLookup, CacheStats, Instance, InstanceDelta, SolveError, Solver, SolverArtifacts,
    SolverCache,
};
use mmb_core::failpoint;
use mmb_core::pipeline::PipelineConfig;
use mmb_graph::{Coloring, Graph};
use rayon::prelude::*;

pub use record::{CacheEvent, ServePath, ServingRecord};

/// Static configuration of a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Number of decomposition classes `k` served for every request.
    pub k: usize,
    /// Pipeline configuration shared by all solves (in particular the
    /// exponent `p`, which keys the artifact cache).
    pub pipeline: PipelineConfig,
    /// Artifact-cache capacity (LRU entries). 0 disables reuse.
    pub cache_capacity: usize,
}

impl ServiceConfig {
    /// Defaults: the given `k`, [`PipelineConfig::default`], artifact
    /// cache of 16 entries.
    pub fn new(k: usize) -> Self {
        ServiceConfig {
            k,
            pipeline: PipelineConfig::default(),
            cache_capacity: 16,
        }
    }
}

/// One serving request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Solve a raw, not-yet-validated instance cold.
    Solve {
        /// The topology.
        graph: Graph,
        /// Edge costs, indexed by the graph's canonical edge ids.
        costs: Vec<f64>,
        /// Vertex weights.
        weights: Vec<f64>,
    },
    /// Mutate a previously served instance and re-solve warm.
    Mutate {
        /// The ticket of an earlier successful response ([`Served::ticket`]).
        base: u64,
        /// The mutation, expressed against that instance.
        delta: InstanceDelta,
    },
}

/// The payload of a successful response.
#[derive(Clone, Debug)]
pub struct Served {
    /// Handle for follow-up [`Request::Mutate`] requests: the combined
    /// fingerprint of the (post-mutation) instance this coloring is for.
    pub ticket: u64,
    /// The served coloring — total and strictly balanced (eq. (1)),
    /// enforced before anything leaves the service.
    pub coloring: Coloring,
    /// `‖∂χ⁻¹‖_∞` of the served coloring.
    pub max_boundary: f64,
}

/// One request's response: the structured record plus either the served
/// payload or a typed error.
#[derive(Clone, Debug)]
pub struct Response {
    /// What happened, structurally.
    pub record: ServingRecord,
    /// The payload or the typed failure.
    pub outcome: Result<Served, SolveError>,
}

/// A warm incumbent: the instance a ticket refers to and the coloring
/// that was served for it.
struct WarmState {
    instance: Instance,
    coloring: Coloring,
}

/// The long-lived serving front end. See the [module docs](self).
pub struct Service {
    cfg: ServiceConfig,
    cache: Mutex<SolverCache>,
    memo: Mutex<BTreeMap<u64, Arc<WarmState>>>,
}

impl Service {
    /// A fresh service with an empty cache and no known tickets.
    pub fn new(cfg: ServiceConfig) -> Self {
        let cache = SolverCache::new(cfg.cache_capacity);
        Service {
            cfg,
            cache: Mutex::new(cache),
            memo: Mutex::new(BTreeMap::new()),
        }
    }

    /// The configuration this service was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Serve a batch. Responses come back in request order; each request
    /// is isolated (its own typed error slot, panic containment at the
    /// request boundary) and carries a [`ServingRecord`].
    pub fn serve(&self, requests: Vec<Request>) -> Vec<Response> {
        let indexed: Vec<(usize, Request)> = requests.into_iter().enumerate().collect();
        indexed
            .into_par_iter()
            .map(|(index, req)| self.serve_one(index, req))
            .collect()
    }

    /// Cumulative artifact-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    /// Number of tickets the service currently remembers.
    pub fn known_tickets(&self) -> usize {
        self.lock_memo().len()
    }

    /// Drop one ticket's warm state. Returns whether it existed.
    pub fn forget(&self, ticket: u64) -> bool {
        self.lock_memo().remove(&ticket).is_some()
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, SolverCache> {
        // A panic while holding the lock is already contained at the
        // request boundary; recover the guard rather than cascading.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_memo(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<WarmState>>> {
        self.memo.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn serve_one(&self, index: usize, req: Request) -> Response {
        // lint: allow(nondeterminism) — wall-clock timestamps feed only the
        // record's observational `elapsed_millis`, never a coloring.
        let t0 = std::time::Instant::now();
        let hooked = AssertUnwindSafe(|| self.dispatch(req));
        // lint: allow(catch-unwind) — the request isolation boundary: a
        // panic (injected or genuine) in one request's solve becomes that
        // request's typed error instead of unwinding through the rayon
        // worker and taking down the batch. Shared state is lock-guarded
        // and locks recover from poisoning in `lock_cache`/`lock_memo`.
        let caught = std::panic::catch_unwind(hooked);
        let (outcome, cache, path) = caught.unwrap_or_else(|payload| {
            (
                Err(SolveError::Panicked {
                    context: "service",
                    message: failpoint::panic_message(payload.as_ref()),
                }),
                CacheEvent::NotConsulted,
                ServePath::Rejected,
            )
        });
        let admitted = !matches!(
            outcome,
            Err(SolveError::Instance(_))
                | Err(SolveError::Transient {
                    site: "service::admit"
                })
        );
        Response {
            record: ServingRecord {
                index,
                admitted,
                cache,
                path,
                elapsed_millis: t0.elapsed().as_secs_f64() * 1e3,
            },
            outcome,
        }
    }

    fn dispatch(&self, req: Request) -> (Result<Served, SolveError>, CacheEvent, ServePath) {
        if let Err(e) = failpoint::raise("service::admit") {
            return (Err(e), CacheEvent::NotConsulted, ServePath::Rejected);
        }
        match req {
            Request::Solve {
                graph,
                costs,
                weights,
            } => match Instance::new(graph, costs, weights) {
                Ok(inst) => self.solve_cold(inst),
                Err(e) => (Err(e.into()), CacheEvent::NotConsulted, ServePath::Rejected),
            },
            Request::Mutate { base, delta } => self.mutate(base, &delta),
        }
    }

    /// Consult the artifact cache for `inst`. A fault at the
    /// `service::cache` failpoint poisons the lookup: the matching entry
    /// is evicted and `None` is returned, forcing a cold rebuild —
    /// cached state observed under a fault is never served.
    fn lookup_artifacts(&self, inst: &Instance) -> (Option<Arc<SolverArtifacts>>, CacheEvent) {
        let p = self.cfg.pipeline.p;
        let mut cache = self.lock_cache();
        match failpoint::raise("service::cache") {
            Ok(()) => {
                let (artifacts, lookup) = cache.get_or_compute(inst, p);
                let event = match lookup {
                    CacheLookup::Hit => CacheEvent::Hit,
                    CacheLookup::Miss => CacheEvent::Miss,
                    CacheLookup::Collision => CacheEvent::Collision,
                };
                (Some(artifacts), event)
            }
            Err(_) => {
                cache.evict_for(inst, p);
                (None, CacheEvent::Poisoned)
            }
        }
    }

    fn solve_cold(&self, inst: Instance) -> (Result<Served, SolveError>, CacheEvent, ServePath) {
        let (artifacts, cache_event) = self.lookup_artifacts(&inst);
        if let Err(e) = failpoint::raise("service::worker") {
            return (Err(e), cache_event, ServePath::Rejected);
        }
        let solved = {
            let mut builder = Solver::for_instance(&inst)
                .classes(self.cfg.k)
                .config(self.cfg.pipeline.clone());
            if let Some(a) = artifacts {
                builder = builder.artifacts(a);
            }
            match builder.build() {
                Ok(solver) => {
                    let report = solver.solve();
                    (report.coloring, report.max_boundary)
                }
                Err(e) => return (Err(e), cache_event, ServePath::Rejected),
            }
        };
        let (coloring, max_boundary) = solved;
        // The serving gate: nothing non-strict leaves the service, even
        // if an upstream stage misbehaves.
        if !coloring.is_strictly_balanced(inst.weights()) {
            let defect = coloring.strict_balance_defect(inst.weights());
            return (
                Err(SolveError::NotStrict { defect }),
                cache_event,
                ServePath::Rejected,
            );
        }
        let ticket = inst.fingerprint().combined();
        let served = Served {
            ticket,
            coloring: coloring.clone(),
            max_boundary,
        };
        self.lock_memo().insert(
            ticket,
            Arc::new(WarmState {
                instance: inst,
                coloring,
            }),
        );
        (Ok(served), cache_event, ServePath::Cold)
    }

    fn mutate(
        &self,
        base: u64,
        delta: &InstanceDelta,
    ) -> (Result<Served, SolveError>, CacheEvent, ServePath) {
        let Some(state) = self.lock_memo().get(&base).cloned() else {
            return (
                Err(SolveError::WarmStartMismatch { what: "ticket" }),
                CacheEvent::NotConsulted,
                ServePath::Rejected,
            );
        };
        let (artifacts, cache_event) = self.lookup_artifacts(&state.instance);
        if let Err(e) = failpoint::raise("service::worker") {
            return (Err(e), cache_event, ServePath::Rejected);
        }
        let delta_solve = {
            let mut builder = Solver::for_instance(&state.instance)
                .classes(self.cfg.k)
                .config(self.cfg.pipeline.clone());
            if let Some(a) = artifacts {
                builder = builder.artifacts(a);
            }
            match builder.build() {
                Ok(solver) => match solver.resolve_delta(delta, &state.coloring) {
                    Ok(ds) => ds,
                    Err(e) => return (Err(e), cache_event, ServePath::Rejected),
                },
                Err(e) => return (Err(e), cache_event, ServePath::Rejected),
            }
        };
        let path = if delta_solve.warm {
            ServePath::Warm
        } else {
            ServePath::ColdFallback
        };
        let ticket = delta_solve.instance.fingerprint().combined();
        let served = Served {
            ticket,
            coloring: delta_solve.coloring.clone(),
            max_boundary: delta_solve.max_boundary,
        };
        self.lock_memo().insert(
            ticket,
            Arc::new(WarmState {
                instance: delta_solve.instance,
                coloring: delta_solve.coloring,
            }),
        );
        (Ok(served), cache_event, path)
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("k", &self.cfg.k)
            .field("cache_capacity", &self.cfg.cache_capacity)
            .field("known_tickets", &self.known_tickets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmb_graph::gen::grid::GridGraph;

    fn grid_solve_request(side: usize, w0: f64) -> Request {
        let grid = GridGraph::lattice(&[side, side]);
        let m = grid.graph.num_edges();
        let n = grid.graph.num_vertices();
        let mut weights = vec![1.0; n];
        weights[0] = w0;
        Request::Solve {
            graph: grid.graph,
            costs: vec![1.0; m],
            weights,
        }
    }

    #[test]
    fn cold_then_warm_roundtrip() {
        let service = Service::new(ServiceConfig::new(4));
        let cold = service.serve(vec![grid_solve_request(8, 1.0)]);
        assert_eq!(cold.len(), 1);
        let served = cold[0].outcome.as_ref().expect("cold solve serves");
        assert_eq!(cold[0].record.path, ServePath::Cold);
        assert_eq!(cold[0].record.cache, CacheEvent::Miss);
        assert!(cold[0].record.admitted);

        let warm = service.serve(vec![Request::Mutate {
            base: served.ticket,
            delta: InstanceDelta::new().set_weight(5, 3.0),
        }]);
        let out = warm[0].outcome.as_ref().expect("mutation serves");
        assert_ne!(out.ticket, served.ticket, "mutation must re-ticket");
        assert!(
            matches!(
                warm[0].record.path,
                ServePath::Warm | ServePath::ColdFallback
            ),
            "mutation must take a delta path, got {:?}",
            warm[0].record.path
        );
        // Weight-only churn keeps the weight-independent artifacts warm.
        assert_eq!(warm[0].record.cache, CacheEvent::Hit);
        assert_eq!(service.known_tickets(), 2);
    }

    #[test]
    fn unknown_ticket_is_a_typed_rejection() {
        let service = Service::new(ServiceConfig::new(2));
        let out = service.serve(vec![Request::Mutate {
            base: 0xdead_beef,
            delta: InstanceDelta::new(),
        }]);
        assert!(matches!(
            out[0].outcome,
            Err(SolveError::WarmStartMismatch { what: "ticket" })
        ));
        assert_eq!(out[0].record.path, ServePath::Rejected);
    }

    #[test]
    fn malformed_input_is_admission_rejected() {
        let grid = GridGraph::lattice(&[4, 4]);
        let m = grid.graph.num_edges();
        let service = Service::new(ServiceConfig::new(2));
        let out = service.serve(vec![Request::Solve {
            graph: grid.graph,
            costs: vec![1.0; m],
            weights: vec![f64::NAN; 16],
        }]);
        assert!(matches!(out[0].outcome, Err(SolveError::Instance(_))));
        assert!(!out[0].record.admitted);
        assert_eq!(out[0].record.path, ServePath::Rejected);

        // Malformed requests among valid ones: each gets its own typed
        // rejection, and the valid neighbors are served.
        let wrong_len = Request::Solve {
            graph: GridGraph::lattice(&[3, 3]).graph,
            costs: vec![1.0; 2], // costs length ≠ edge count
            weights: vec![1.0; 9],
        };
        let out = service.serve(vec![
            grid_solve_request(4, 1.0),
            wrong_len,
            grid_solve_request(5, 1.0),
            grid_solve_request(4, f64::NAN),
        ]);
        assert_eq!(out.len(), 4);
        for ok in [&out[0], &out[2]] {
            assert!(ok.record.admitted);
            assert!(ok.outcome.is_ok(), "{:?}", ok.outcome);
        }
        for bad in [&out[1], &out[3]] {
            assert!(matches!(bad.outcome, Err(SolveError::Instance(_))));
            assert!(!bad.record.admitted);
        }
    }

    #[test]
    fn every_served_coloring_is_strict() {
        let service = Service::new(ServiceConfig::new(3));
        let batch: Vec<Request> = (0..4)
            .map(|i| grid_solve_request(6, 1.0 + i as f64))
            .collect();
        for resp in service.serve(batch) {
            let served = resp.outcome.expect("valid grids serve");
            assert!(served.coloring.is_total());
            assert!(served.max_boundary.is_finite());
        }
    }

    #[test]
    fn forget_drops_the_ticket() {
        let service = Service::new(ServiceConfig::new(2));
        let out = service.serve(vec![grid_solve_request(4, 1.0)]);
        let ticket = out[0].outcome.as_ref().expect("serves").ticket;
        assert!(service.forget(ticket));
        assert!(!service.forget(ticket));
        let retry = service.serve(vec![Request::Mutate {
            base: ticket,
            delta: InstanceDelta::new(),
        }]);
        assert!(retry[0].outcome.is_err());
    }
}
