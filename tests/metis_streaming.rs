//! Differential suite for the streaming METIS parser.
//!
//! `parse_metis(&doc)` is a thin wrapper over
//! `parse_metis_reader(doc.as_bytes())`, where the whole document is one
//! contiguous buffer that the reader cuts into blocks straight from the
//! slice. These tests drive the reader entry point the hard way —
//! through a `BufReader` with a tiny capacity over a source that
//! trickles a few bytes per `read` call, so every block is assembled
//! from refills that split tokens and lines — and require the result to
//! be **identical** to the `&str` path: same CSR, same weights and costs
//! bit-for-bit, and the same typed error on every malformed document.
//! Fixtures cover the quick corpus (all graph families × both weight/cost
//! profiles) plus CRLF, comment/blank-line, and weighted-format variants.
//! `tests/metis_differential.rs` holds both paths to the line-at-a-time
//! reader that preceded the block reader.

use std::io::{BufReader, Read};

use mmb_graph::io::{parse_metis, parse_metis_reader, write_metis, MetisError, MetisGraph};
use mmb_instances::corpus::Corpus;

/// A reader that yields at most `chunk` bytes per `read` call, forcing
/// `BufReader` refills mid-token and mid-line.
struct Trickle<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Parse `doc` through a 7-byte `BufReader` over a 3-bytes-per-read
/// source — the most adversarial streaming shape short of an error.
fn parse_trickled(doc: &str) -> Result<MetisGraph, MetisError> {
    parse_metis_reader(BufReader::with_capacity(
        7,
        Trickle {
            data: doc.as_bytes(),
            pos: 0,
            chunk: 3,
        },
    ))
}

fn assert_identical(doc: &str, label: &str) {
    let eager = parse_metis(doc);
    let streamed = parse_trickled(doc);
    match (eager, streamed) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.graph.edge_list(), b.graph.edge_list(), "{label}: edges");
            assert_eq!(a.graph.num_vertices(), b.graph.num_vertices(), "{label}: n");
            assert_eq!(a.weights, b.weights, "{label}: weights");
            assert_eq!(a.costs, b.costs, "{label}: costs");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}: errors diverged"),
        (a, b) => panic!("{label}: one path failed — eager {a:?} vs streamed {b:?}"),
    }
}

#[test]
fn corpus_documents_stream_identically() {
    for entry in &Corpus::quick() {
        let inst = &entry.instance;
        let doc = write_metis(inst.graph(), inst.weights(), inst.costs());
        assert_identical(&doc, &entry.name);
        // CRLF + trailing-whitespace transport damage.
        let crlf: String = doc
            .lines()
            .map(|l| format!("{l} \r\n"))
            .collect::<Vec<_>>()
            .concat();
        assert_identical(&crlf, &format!("{} (crlf)", entry.name));
        // Comment and blank-line decoration between every line.
        let mut decorated = String::from("% header comment\n\n");
        for line in doc.lines() {
            decorated.push_str(line);
            decorated.push_str("\n% interleaved\n\n");
        }
        assert_identical(&decorated, &format!("{} (comments)", entry.name));
    }
}

#[test]
fn weighted_format_variants_stream_identically() {
    // Every fmt digit combination on a small triangle-plus-tail graph.
    for doc in [
        // fmt absent (unweighted).
        "4 4\n2 3\n1 3\n1 2 4\n3\n",
        // fmt 001: edge weights only.
        "4 4 001\n2 0.5 3 1.25\n1 0.5 3 2.0\n1 1.25 2 2.0 4 3.5\n3 3.5\n",
        // fmt 010: vertex weights only.
        "4 4 010 1\n2.5 2 3\n1.5 1 3\n0.25 1 2 4\n9 3\n",
        // fmt 011 with ncon 1: both.
        "4 4 011 1\n2.5 2 0.5 3 1.25\n1.5 1 0.5 3 2.0\n0.25 1 1.25 2 2.0 4 3.5\n9 3 3.5\n",
        // fmt 100 (vertex sizes, ignored dimension) is unsupported by the
        // writer but multi-constraint ncon is: two weights per vertex,
        // first one kept.
        "2 1 010 2\n1.0 7.0 2\n2.0 8.0 1\n",
    ] {
        assert_identical(doc, doc);
    }
}

#[test]
fn malformed_documents_fail_identically() {
    // One document per error family, including the budget/deferral
    // interactions the streaming rewrite had to preserve exactly.
    for doc in [
        "",
        "% nothing\n",
        "3\n",
        "3 3 011 1 9\n",
        "x 3\n",
        "2 1\n2\n",                          // vertices budget (ImplausibleHeader)
        "9 0\n1\n",                          // budget outranks the body's self-loop
        "2 1\n2\n% pad\n",                   // missing adjacency line
        "2 1\n3\n1\n",                       // neighbor out of range
        "2 1\n0\n1\n",                       // neighbor out of range (zero)
        "2 1\n1\n2\n",                       // self-loop
        "2 1\n2 2\n1\n",                     // duplicate listing on one line
        "3 2\n2\n3\n2\n",                    // asymmetric adjacency
        "2 2\n2\n1\n",                       // edge-count mismatch (too few)
        "3 1\n2 3\n1 3\n1 2\n",              // edge-count mismatch (too many)
        "2 1\n2\n1\n7\n",                    // trailing content
        "2 1 010 1\nabc 2\n1.0 1\n",         // bad vertex weight
        "2 1 001\n2 oops\n1 5.0\n",          // bad edge weight
        "2 1 001\n2\n1 5.0\n",               // missing edge weight
        "2 1 011 1\n1.0 2 5.0\n1.0 1 6.0\n", // asymmetric edge weights
        "2 1 999\n2\n1\n",                   // bad fmt
    ] {
        assert_identical(doc, &format!("malformed {doc:?}"));
    }
}

#[test]
fn io_errors_surface_as_typed_line_errors() {
    struct FailAfter {
        pos: usize,
        limit: usize,
    }
    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.limit {
                return Err(std::io::Error::other("disk on fire"));
            }
            buf[0] = b"5 4\n2\n1 3\n2 4\n3 5\n4\n"[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }
    // Dies after the header and first adjacency line have been delivered.
    let err = parse_metis_reader(BufReader::with_capacity(4, FailAfter { pos: 0, limit: 6 }))
        .unwrap_err();
    match err {
        MetisError::BadLine { what, .. } => {
            assert!(what.contains("read error"), "unexpected: {what}")
        }
        other => panic!("expected BadLine, got {other:?}"),
    }
}
