//! Fingerprint stability: the warm path is only sound if the cache key is
//! canonical across every representation detour an instance can take.
//!
//! Three invariances, each a way a spurious key change would silently turn
//! warm traffic cold (or — worse — a key *collision across distinct
//! instances* would be caught only by the exact-match backstop):
//!
//! 1. **METIS round-trip** — serialize with `write_metis`, re-ingest with
//!    `parse_metis_reader`: same fingerprint, for every corpus entry.
//! 2. **Solve invariance** — solving twice neither perturbs the
//!    instance's identity nor changes the coloring served.
//! 3. **Corpus separation** — all corpus entries (every family × profile)
//!    have pairwise-distinct combined fingerprints, and structure digests
//!    separate the distinct topologies.

use std::collections::BTreeMap;
use std::io::BufReader;

use mmb_core::api::{InstanceDelta, Solver};
use mmb_core::pipeline::PipelineConfig;
use mmb_graph::fingerprint::structure_digest;
use mmb_graph::io::{parse_metis_reader, write_metis};
use mmb_graph::Fingerprint;
use mmb_instances::corpus::Corpus;

#[test]
fn metis_round_trip_preserves_the_fingerprint() {
    for e in &Corpus::quick() {
        let inst = &e.instance;
        let before = inst.fingerprint();
        let doc = write_metis(inst.graph(), inst.weights(), inst.costs());
        // Through the streaming reader — the ingestion path a service
        // front end would use on uploaded files.
        let parsed = parse_metis_reader(BufReader::new(doc.as_bytes()))
            .unwrap_or_else(|err| panic!("{}: METIS re-ingest failed: {err:?}", e.name));
        let after = Fingerprint::of_parts(&parsed.graph, &parsed.costs, &parsed.weights);
        assert_eq!(
            before, after,
            "{}: METIS round-trip changed the fingerprint",
            e.name
        );
        assert_eq!(before.artifact_key(), after.artifact_key());
        assert_eq!(before.combined(), after.combined());
    }
}

#[test]
fn repeated_solves_keep_identity_and_output() {
    let corpus = Corpus::quick();
    for e in corpus.entries().iter().take(4) {
        let inst = &e.instance;
        let fp0 = inst.fingerprint();
        let mut colorings = Vec::new();
        for run in 0..2 {
            let cfg = PipelineConfig::with_p(e.p.max(1.5));
            let report = Solver::for_instance(inst)
                .classes(e.k)
                .config(cfg)
                .build()
                .unwrap_or_else(|err| panic!("{}: build failed: {err}", e.name))
                .solve();
            assert_eq!(
                inst.fingerprint(),
                fp0,
                "{}: solve #{run} mutated the instance identity",
                e.name
            );
            colorings.push(report.coloring);
        }
        assert_eq!(
            colorings[0], colorings[1],
            "{}: repeated solves disagree on the coloring",
            e.name
        );
    }
}

#[test]
fn corpus_fingerprints_are_pairwise_distinct() {
    let corpus = Corpus::quick();
    let mut combined: BTreeMap<u64, &str> = BTreeMap::new();
    let mut artifact: BTreeMap<u64, &str> = BTreeMap::new();
    for e in &corpus {
        let fp = e.instance.fingerprint();
        if let Some(prev) = combined.insert(fp.combined(), &e.name) {
            panic!(
                "combined fingerprint collision between corpus entries `{prev}` and `{}`",
                e.name
            );
        }
        // Artifact keys (structure ⊕ costs) must also separate entries:
        // the two profiles of one family differ in costs, and families
        // differ in structure.
        if let Some(prev) = artifact.insert(fp.artifact_key(), &e.name) {
            panic!(
                "artifact-key collision between corpus entries `{prev}` and `{}`",
                e.name
            );
        }
    }
    assert_eq!(combined.len(), corpus.len());

    // Structure digests separate distinct topologies; same-family entries
    // at the two profiles share one (weights/costs must not leak in).
    let mut by_structure: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for e in &corpus {
        by_structure
            .entry(structure_digest(e.instance.graph()))
            .or_default()
            .push(e.family);
    }
    for (digest, families) in &by_structure {
        assert!(
            families.windows(2).all(|w| w[0] == w[1]),
            "structure digest {digest:#x} shared across families {families:?}"
        );
    }
    assert!(
        by_structure.len() >= 8,
        "expected at least one distinct structure per family, got {}",
        by_structure.len()
    );
}

#[test]
fn weight_only_deltas_keep_the_artifact_key() {
    // The serving-layer contract behind warm weight churn: a delta that
    // touches only weights moves `combined()` but not `artifact_key()`.
    let corpus = Corpus::quick();
    let e = &corpus.entries()[0];
    let base = e.instance.fingerprint();
    let applied = InstanceDelta::new()
        .set_weight(0, e.instance.weights()[0] + 1.0)
        .apply(&e.instance)
        .expect("weight delta applies");
    let fp = applied.fingerprint();
    assert_eq!(fp.artifact_key(), base.artifact_key());
    assert_ne!(fp.combined(), base.combined());

    // A cost delta moves both.
    let applied = InstanceDelta::new()
        .set_cost(0, e.instance.costs()[0] + 0.5)
        .apply(&e.instance)
        .expect("cost delta applies");
    let fp = applied.fingerprint();
    assert_ne!(fp.artifact_key(), base.artifact_key());
    assert_ne!(fp.combined(), base.combined());
}
