//! Differential suite for the block METIS reader
//! (`mmb_graph::io::parse_metis_reader`).
//!
//! [`reference`] keeps the line-at-a-time reader that preceded it,
//! verbatim, as the oracle. On every document the reader must return
//! what the oracle returns: an equal CSR (edge list and every
//! `(neighbor, edge id)` list) with equal weight and cost bits
//! (`to_bits`), or an equal [`MetisError`]. Each document runs under one
//! thread and under two, so the result cannot come to depend on the
//! thread count, from one buffer and through a reader that trickles
//! three bytes per `read` into a 7-byte `BufReader`.
//!
//! Documents: every quick-corpus entry, plain, with CRLF endings and
//! decorated with comments and blank lines; the weighted-format variants;
//! one malformed document per error family; NBSP, U+3000 and `\x0B` as
//! separators; lines on which the reader's one line parser decides the
//! error order (a self-loop with a bad or missing cost, an out-of-range
//! neighbor before its cost) or meets a wide character (NBSP, U+3000, a
//! full-width digit, a comment after NEL); `+2` ids and `5.0` / `5e0`
//! costs; no final newline;
//! invalid UTF-8 after an earlier body error; a 320² grid document that
//! spans several blocks, intact and damaged in its last block and
//! mid-document; the case the fuzz loop found; and
//! a seeded fuzz loop that mutates corpus documents (drop, duplicate or
//! swap a token or a line, flip a byte, insert whitespace, `\r`, a
//! comment or a sign).

use std::io::{BufReader, Read};
use std::ops::Range;

use mmb_graph::gen::grid::GridGraph;
use mmb_graph::io::{parse_metis_reader, write_metis, MetisError, MetisGraph};
use mmb_instances::corpus::Corpus;
use proptest::test_runner::TestRng;

/// The line-at-a-time reader that preceded the block reader, kept
/// verbatim as the oracle.
mod reference {
    use std::io::BufRead;

    use mmb_graph::io::{MetisError, MetisGraph};
    use mmb_graph::workspace::Workspace;
    use mmb_graph::Graph;

    /// Incremental line feed over a [`BufRead`]: 1-based raw line numbers,
    /// running byte totals, and comment/blank skipping, holding at most one
    /// line in memory.
    struct LineFeed<R: BufRead> {
        reader: R,
        buf: String,
        line_no: usize,
        bytes: usize,
    }

    impl<R: BufRead> LineFeed<R> {
        fn new(reader: R) -> Self {
            LineFeed {
                reader,
                buf: String::new(),
                line_no: 0,
                bytes: 0,
            }
        }

        /// Read one raw line into `self.buf`; `Ok(false)` at end of input.
        fn next_raw(&mut self) -> Result<bool, MetisError> {
            self.buf.clear();
            match self.reader.read_line(&mut self.buf) {
                Ok(0) => Ok(false),
                Ok(k) => {
                    self.bytes += k;
                    self.line_no += 1;
                    Ok(true)
                }
                Err(e) => Err(MetisError::BadLine {
                    line: self.line_no + 1,
                    what: format!("read error: {e}"),
                }),
            }
        }

        /// Advance to the next data (non-comment, non-blank) line, leaving it
        /// in `self.buf`; `Ok(false)` at end of input.
        fn next_data(&mut self) -> Result<bool, MetisError> {
            loop {
                if !self.next_raw()? {
                    return Ok(false);
                }
                let t = self.buf.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    return Ok(true);
                }
            }
        }

        /// Consume the rest of the input, counting lines and bytes only.
        fn drain(&mut self) -> Result<(), MetisError> {
            while self.next_raw()? {}
            Ok(())
        }
    }

    fn parse_count(s: &str, line: usize) -> Result<usize, MetisError> {
        s.parse::<usize>().map_err(|_| MetisError::BadLine {
            line,
            what: format!("expected integer, got '{s}'"),
        })
    }

    fn listed_twice(line: usize, nb1: usize, v: usize) -> MetisError {
        MetisError::BadLine {
            line,
            what: format!("neighbor {} listed twice for vertex {}", nb1, v + 1),
        }
    }

    fn asym_weight(line: usize, lo: u32, hi: u32, stored: f64, cost: f64) -> MetisError {
        MetisError::BadLine {
            line,
            what: format!(
                "asymmetric edge weight on {}-{}: {} vs {}",
                lo + 1,
                hi + 1,
                stored,
                cost
            ),
        }
    }

    fn costs_differ(stored: f64, cost: f64) -> bool {
        (stored - cost).abs() > 1e-9 * (1.0 + cost.abs())
    }

    fn vec_bytes<T>(v: &[T]) -> u64 {
        std::mem::size_of_val(v) as u64
    }

    /// Streaming core of [`parse_metis`]: parse a METIS `.graph` document from
    /// any [`BufRead`] in a single pass over the input.
    ///
    /// Forward arcs (each edge as seen from its lower endpoint) accumulate in
    /// flat arenas — target ids, costs, and matched flags in parallel vectors,
    /// one offset per vertex — and each vertex's arc range is sorted when its
    /// line completes, so the backward listing from the higher endpoint
    /// resolves by binary search instead of a hash map. The arena then lists
    /// every edge once in canonical `(lo, hi)` order, which
    /// [`Graph::from_sorted_edges`] assembles into the CSR. Peak memory is
    /// a small constant factor of the output graph and is recorded on the
    /// thread-local [`Workspace`] as a transient arena charge.
    ///
    /// The plausibility caps of [`MetisError::ImplausibleHeader`] need the
    /// document's total line and byte counts, which a stream only knows at end
    /// of input. Body errors are therefore *deferred*: parsing stops at the
    /// first one, the remaining input is drained (counting only), and the caps
    /// are checked first — preserving the historical error precedence of the
    /// eager parser, which scanned the whole document before the body pass.
    pub fn parse_metis_reader<R: BufRead>(reader: R) -> Result<MetisGraph, MetisError> {
        let mut feed = LineFeed::new(reader);

        if !feed.next_data()? {
            return Err(MetisError::BadHeader("empty input".into()));
        }
        let hline = feed.line_no;
        let header = feed.buf.trim();
        let head: Vec<&str> = header.split_whitespace().collect();
        if head.len() < 2 || head.len() > 4 {
            return Err(MetisError::BadHeader(format!("line {hline}: '{header}'")));
        }
        let n = parse_count(head[0], hline)?;
        let m = parse_count(head[1], hline)?;

        // First deferrable error (fmt/ncon validation, body errors): recorded,
        // not returned, until the end-of-input caps have had the final say.
        let mut deferred: Option<MetisError> = None;
        let fmt = head.get(2).copied().unwrap_or("000");
        let mut has_eweights = false;
        let mut ncon = 0usize;
        if fmt.is_empty() || fmt.len() > 3 || fmt.bytes().any(|b| b != b'0' && b != b'1') {
            deferred = Some(MetisError::BadHeader(format!(
                "line {hline}: fmt field '{fmt}' is not 1–3 binary digits"
            )));
        } else {
            let has_vweights = fmt.len() >= 2 && fmt.as_bytes()[fmt.len() - 2] == b'1';
            has_eweights = fmt.as_bytes().last() == Some(&b'1');
            if has_vweights {
                match head.get(3).map(|s| parse_count(s, hline)).transpose() {
                    Ok(v) => ncon = v.unwrap_or(1),
                    Err(e) => deferred = Some(e),
                }
            }
        }

        // Forward-arc arenas: arcs of each edge as listed by its lower
        // endpoint, grouped by that endpoint (`fwd_off`), targets sorted
        // within each group once the group's line completes.
        let mut weights: Vec<f64> = Vec::new();
        let mut fwd_off: Vec<usize> = vec![0];
        let mut fwd_tgt: Vec<u32> = Vec::new();
        let mut fwd_cost: Vec<f64> = Vec::new();
        let mut fwd_back: Vec<bool> = Vec::new();
        // Arcs listed (so far) only by their higher endpoint: (lo, hi, cost).
        // Non-empty only for asymmetric documents, which are rejected.
        let mut orphans: Vec<(u32, u32, f64)> = Vec::new();
        let mut line_sort: Vec<(u32, f64)> = Vec::new();
        let mut half_edges = 0usize;
        let mut missing_vertex: Option<usize> = None;
        let mut trailing: Option<usize> = None;

        if deferred.is_none() {
            'body: for v in 0..n {
                if !feed.next_data()? {
                    missing_vertex = Some(v);
                    break 'body;
                }
                let lno = feed.line_no;
                if v >= u32::MAX as usize {
                    // Unreachable for plausible headers (the caps below bound
                    // n by the line count), but keeps the casts honest.
                    deferred = Some(MetisError::BadLine {
                        line: lno,
                        what: format!("vertex {} exceeds the u32 id space", v + 1),
                    });
                    break 'body;
                }
                let vv = v as u32;
                let mut tok = feed.buf.split_whitespace();
                let mut wv = 1.0;
                for c in 0..ncon {
                    let Some(w) = tok.next() else {
                        deferred = Some(MetisError::BadLine {
                            line: lno,
                            what: "missing vertex weight".into(),
                        });
                        break 'body;
                    };
                    match w.parse::<f64>() {
                        Ok(val) => {
                            if c == 0 {
                                wv = val;
                            }
                        }
                        Err(_) => {
                            deferred = Some(MetisError::BadLine {
                                line: lno,
                                what: format!("bad vertex weight '{w}'"),
                            });
                            break 'body;
                        }
                    }
                }
                weights.push(wv);
                let range_start = fwd_tgt.len();
                while let Some(nb) = tok.next() {
                    let nb1 = match parse_count(nb, lno) {
                        Ok(x) => x,
                        Err(e) => {
                            deferred = Some(e);
                            break 'body;
                        }
                    };
                    if nb1 == 0 || nb1 > n {
                        deferred = Some(MetisError::BadLine {
                            line: lno,
                            what: format!("neighbor {nb1} out of range 1..={n}"),
                        });
                        break 'body;
                    }
                    let cost = if has_eweights {
                        let Some(c) = tok.next() else {
                            deferred = Some(MetisError::BadLine {
                                line: lno,
                                what: "missing edge weight".into(),
                            });
                            break 'body;
                        };
                        match c.parse::<f64>() {
                            Ok(x) => x,
                            Err(_) => {
                                deferred = Some(MetisError::BadLine {
                                    line: lno,
                                    what: format!("bad edge weight '{c}'"),
                                });
                                break 'body;
                            }
                        }
                    } else {
                        1.0
                    };
                    let u_us = nb1 - 1;
                    if u_us == v {
                        deferred = Some(MetisError::BadLine {
                            line: lno,
                            what: format!("self-loop on vertex {}", v + 1),
                        });
                        break 'body;
                    }
                    half_edges += 1;
                    if u_us >= u32::MAX as usize {
                        deferred = Some(MetisError::BadLine {
                            line: lno,
                            what: format!("neighbor {nb1} exceeds the u32 id space"),
                        });
                        break 'body;
                    }
                    let u = u_us as u32;
                    if u > vv {
                        fwd_tgt.push(u);
                        if has_eweights {
                            fwd_cost.push(cost);
                        }
                        fwd_back.push(false);
                    } else {
                        // Backward half of an edge whose lower endpoint's
                        // range is already finalized and sorted.
                        let (lo, hi) = (fwd_off[u_us], fwd_off[u_us + 1]);
                        match fwd_tgt[lo..hi].binary_search(&vv) {
                            Ok(i) => {
                                let idx = lo + i;
                                let stored = if has_eweights { fwd_cost[idx] } else { 1.0 };
                                if costs_differ(stored, cost) {
                                    deferred = Some(asym_weight(lno, u, vv, stored, cost));
                                    break 'body;
                                }
                                if fwd_back[idx] {
                                    deferred = Some(listed_twice(lno, nb1, v));
                                    break 'body;
                                }
                                fwd_back[idx] = true;
                            }
                            Err(_) => {
                                // Only vertex v's own line can mention (u, v)
                                // again, so a hit here is a same-line duplicate
                                // of a one-sided listing.
                                if let Some(o) = orphans.iter().find(|o| o.0 == u && o.1 == vv) {
                                    deferred = Some(if costs_differ(o.2, cost) {
                                        asym_weight(lno, u, vv, o.2, cost)
                                    } else {
                                        listed_twice(lno, nb1, v)
                                    });
                                    break 'body;
                                }
                                orphans.push((u, vv, cost));
                            }
                        }
                    }
                }
                // Finalize this vertex's forward range: sort by target (so
                // later backward lookups can binary-search it) and reject
                // same-line duplicate listings.
                let range_end = fwd_tgt.len();
                if range_end - range_start > 1 {
                    if has_eweights {
                        line_sort.clear();
                        line_sort.extend(
                            fwd_tgt[range_start..range_end]
                                .iter()
                                .copied()
                                .zip(fwd_cost[range_start..range_end].iter().copied()),
                        );
                        // Stable: the first listing's cost wins, as with the
                        // historical first-insert-wins map.
                        line_sort.sort_by_key(|&(t, _)| t);
                        for w in line_sort.windows(2) {
                            if w[0].0 == w[1].0 {
                                deferred = Some(if costs_differ(w[0].1, w[1].1) {
                                    asym_weight(lno, vv, w[0].0, w[0].1, w[1].1)
                                } else {
                                    listed_twice(lno, w[0].0 as usize + 1, v)
                                });
                                break 'body;
                            }
                        }
                        for (i, &(t, c)) in line_sort.iter().enumerate() {
                            fwd_tgt[range_start + i] = t;
                            fwd_cost[range_start + i] = c;
                        }
                    } else {
                        fwd_tgt[range_start..range_end].sort_unstable();
                        for w in fwd_tgt[range_start..range_end].windows(2) {
                            if w[0] == w[1] {
                                deferred = Some(listed_twice(lno, w[0] as usize + 1, v));
                                break 'body;
                            }
                        }
                    }
                }
                fwd_off.push(range_end);
            }
            if deferred.is_none() && missing_vertex.is_none() && feed.next_data()? {
                trailing = Some(feed.line_no);
            }
        }

        // End of input: the plausibility caps are now known and outrank every
        // deferred error. `n` vertices need `n` data lines after the header;
        // `m` edges need two neighbor tokens each, every token ≥ one byte.
        // Both budgets come from the document itself, so an adversarial header
        // can never have made the arenas above exceed O(document size).
        feed.drain()?;
        let total_lines = feed.line_no;
        let line_budget = total_lines.saturating_sub(1);
        if n > line_budget {
            return Err(MetisError::ImplausibleHeader {
                what: "vertices",
                declared: n,
                budget: line_budget,
            });
        }
        let edge_budget = feed.bytes / 2;
        if m > edge_budget {
            return Err(MetisError::ImplausibleHeader {
                what: "edges",
                declared: m,
                budget: edge_budget,
            });
        }
        if let Some(e) = deferred {
            return Err(e);
        }
        if let Some(v) = missing_vertex {
            return Err(MetisError::BadLine {
                line: total_lines,
                what: format!(
                    "missing adjacency line for vertex {} (isolated vertices must be \
                     written with vertex weights; bare empty lines are skipped)",
                    v + 1
                ),
            });
        }
        if let Some(line) = trailing {
            return Err(MetisError::TrailingContent { line });
        }

        // Every edge must have been listed from both endpoints; report the
        // smallest offending pair so the error is deterministic. The forward
        // scan visits keys in ascending (lo, hi) order, so its first hit is
        // already minimal among forward arcs.
        let mut asym: Option<(u32, u32, bool)> = None;
        'scan: for (v, w) in fwd_off.windows(2).enumerate() {
            for idx in w[0]..w[1] {
                if !fwd_back[idx] {
                    asym = Some((v as u32, fwd_tgt[idx], true));
                    break 'scan;
                }
            }
        }
        for &(lo, hi, _) in &orphans {
            if asym.is_none_or(|(a, b, _)| (lo, hi) < (a, b)) {
                asym = Some((lo, hi, false));
            }
        }
        if let Some((lo, hi, by_lower)) = asym {
            let (listed_by, missing_from) = if by_lower { (lo, hi) } else { (hi, lo) };
            return Err(MetisError::AsymmetricAdjacency {
                listed_by: listed_by as usize + 1,
                missing_from: missing_from as usize + 1,
            });
        }
        if half_edges != 2 * m {
            return Err(MetisError::EdgeCountMismatch {
                declared: m,
                found: half_edges / 2,
            });
        }

        // The arena lists each edge once, from its lower endpoint, with targets
        // ascending per endpoint: the canonical `(lo, hi)` order that
        // `Graph::from_sorted_edges` assembles into the CSR.
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(fwd_tgt.len());
        for (v, w) in fwd_off.windows(2).enumerate() {
            for &t in &fwd_tgt[w[0]..w[1]] {
                edges.push((v as u32, t));
            }
        }
        let m_found = edges.len();
        debug_assert_eq!(2 * m_found, half_edges);
        // What the CSR assembly holds beside the arenas: the edge list, its
        // 2m adjacency entries, and the `u32` offsets with their fill cursor.
        let csr_bytes = 3 * vec_bytes(&edges) + 2 * 4 * (n as u64 + 1);
        let graph = Graph::from_sorted_edges(n, edges)
            .map_err(|e| MetisError::BadHeader(format!("graph exceeds the u32 id space: {e}")))?;
        let costs = if has_eweights {
            fwd_cost
        } else {
            vec![1.0; m_found]
        };

        // Record the ingestion high water (arenas + CSR coexist here) on the
        // thread's workspace — the RSS proxy the scale-path tests budget.
        let arena_bytes = vec_bytes(&fwd_tgt)
            + vec_bytes(&fwd_back)
            + vec_bytes(&fwd_off)
            + vec_bytes(&orphans)
            + vec_bytes(&line_sort)
            + csr_bytes
            + vec_bytes(&weights)
            + vec_bytes(&costs);
        Workspace::with_local(|ws| ws.note_transient_arena_bytes(arena_bytes));

        Ok(MetisGraph {
            graph,
            weights,
            costs,
        })
    }
}

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

fn trickled(doc: &[u8]) -> Result<MetisGraph, MetisError> {
    parse_metis_reader(BufReader::with_capacity(
        7,
        Trickle {
            data: doc,
            pos: 0,
            chunk: 3,
        },
    ))
}

fn assert_same_bits(label: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: {what} count");
    if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
        panic!("{label}: {what} {i} is {} (oracle {})", got[i], want[i]);
    }
}

fn assert_same(
    label: &str,
    got: &Result<MetisGraph, MetisError>,
    want: &Result<MetisGraph, MetisError>,
) {
    match (got, want) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.graph.num_vertices(), b.graph.num_vertices(), "{label}: n");
            assert!(
                a.graph.edge_list() == b.graph.edge_list(),
                "{label}: edge list"
            );
            for v in b.graph.vertices() {
                assert!(
                    a.graph.neighbors(v) == b.graph.neighbors(v),
                    "{label}: adjacency of {v}"
                );
            }
            assert_same_bits(label, "weight", &a.weights, &b.weights);
            assert_same_bits(label, "cost", &a.costs, &b.costs);
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{label}"),
        (Ok(_), Err(b)) => panic!("{label}: the reader parsed, the oracle failed with {b:?}"),
        (Err(a), Ok(_)) => panic!("{label}: the reader failed with {a:?}, the oracle parsed"),
    }
}

/// Parse `doc` with the reader under one and two threads, from one buffer
/// and trickled, and require the oracle's result each time; returns it.
fn check(doc: &[u8], label: &str) -> Result<MetisGraph, MetisError> {
    let want = check_whole(doc, label);
    for threads in [1, 2] {
        let trickle = rayon::with_num_threads(threads, || trickled(doc));
        assert_same(
            &format!("{label} ({threads} threads, trickled)"),
            &trickle,
            &want,
        );
    }
    want
}

/// [`check`] without the trickled reads.
fn check_whole(doc: &[u8], label: &str) -> Result<MetisGraph, MetisError> {
    let want = reference::parse_metis_reader(doc);
    for threads in [1, 2] {
        let whole = rayon::with_num_threads(threads, || parse_metis_reader(doc));
        assert_same(&format!("{label} ({threads} threads)"), &whole, &want);
    }
    want
}

fn corpus_documents() -> Vec<(String, String)> {
    Corpus::quick()
        .entries()
        .iter()
        .map(|e| {
            let inst = &e.instance;
            let doc = write_metis(inst.graph(), inst.weights(), inst.costs());
            (e.name.clone(), doc)
        })
        .collect()
}

#[test]
fn corpus_documents_match_the_oracle() {
    for (name, doc) in corpus_documents() {
        assert!(check(doc.as_bytes(), &name).is_ok(), "{name}");
        // CRLF + trailing-whitespace transport damage.
        let crlf: String = doc.lines().map(|l| format!("{l} \r\n")).collect();
        assert!(check(crlf.as_bytes(), &format!("{name} (crlf)")).is_ok());
        // Comment and blank-line decoration between every line.
        let mut decorated = String::from("% header comment\n\n");
        for line in doc.lines() {
            decorated.push_str(line);
            decorated.push_str("\n% interleaved\n\n");
        }
        assert!(check(decorated.as_bytes(), &format!("{name} (comments)")).is_ok());
    }
}

#[test]
fn weighted_format_variants_match_the_oracle() {
    for doc in [
        "4 4\n2 3\n1 3\n1 2 4\n3\n",
        "4 4 001\n2 0.5 3 1.25\n1 0.5 3 2.0\n1 1.25 2 2.0 4 3.5\n3 3.5\n",
        "4 4 010 1\n2.5 2 3\n1.5 1 3\n0.25 1 2 4\n9 3\n",
        "4 4 011 1\n2.5 2 0.5 3 1.25\n1.5 1 0.5 3 2.0\n0.25 1 1.25 2 2.0 4 3.5\n9 3 3.5\n",
        "2 1 010 2\n1.0 7.0 2\n2.0 8.0 1\n",
        "2 1 010 0\n2\n1\n",
        // Forward arcs listed out of order, with and without costs.
        "3 3\n3 2\n3 1\n2 1\n",
        "3 3 001\n3 7 2 5\n3 4 1 5\n2 4 1 7\n",
    ] {
        assert!(check(doc.as_bytes(), doc).is_ok(), "{doc:?}");
    }
}

#[test]
fn malformed_documents_match_the_oracle() {
    for doc in [
        "",
        "% nothing\n",
        "3\n",
        "3 3 011 1 9\n",
        "x 3\n",
        "2 1\n2\n",
        "9 0\n1\n",
        "2 1\n2\n% pad\n",
        "2 1\n3\n1\n",
        "2 1\n0\n1\n",
        "2 1\n1\n2\n",
        "2 1\n2 2\n1\n",
        "3 2\n2\n3\n2\n",
        "2 2\n2\n1\n",
        "3 1\n2 3\n1 3\n1 2\n",
        "2 1\n2\n1\n7\n",
        "2 1 010 1\nabc 2\n1.0 1\n",
        "2 1 001\n2 oops\n1 5.0\n",
        "2 1 001\n2\n1 5.0\n",
        "2 1 011 1\n1.0 2 5.0\n1.0 1 6.0\n",
        "2 1 999\n2\n1\n",
        "2 1 010 x\n2\n1\n",
        // A backward listing twice, matched and one-sided, equal and
        // unequal costs.
        "2 1\n2\n1 1\n",
        "2 1 001\n2 5\n1 5 1 6\n",
        "3 1\n\n3\n1\n2 2\n% pad\n% pad\n",
        "3 1 001\n3 1\n3 1\n2 4 2 5\n% pad\n% pad\n",
        // A forward duplicate, with equal and unequal costs, after a
        // backward listing and before a bad token.
        "3 2 001\n2 1 3 1\n1 1 3 2 3 2\n1 1 2 2\n",
        "3 2 001\n2 1 3 1\n1 1 3 2 3 4\n1 1 2 2\n",
        "3 2 001\n2 1 3 1\n1 1 3 2 3 2 x\n1 1 2 2\n",
        // The smallest asymmetric pair: forward against one-sided.
        "4 2\n3\n4\n1\n\n% pad\n% pad\n",
        "4 2\n\n4\n\n2 1\n% pad\n% pad\n% pad\n",
        // Missing vertex weight, missing and bad edge weight at line end.
        "2 1 011 1\n\n2 1\n1.0 1 1\n",
        "2 1 011 1\n1.0 2\n1.0 1 1\n",
        "2 1 011 1\n1.0 2 x\n1.0 1 1\n",
        // Token order: a self-loop's bad or missing cost is reported (the
        // self-loop check follows the cost), and an out-of-range neighbor
        // before its cost.
        "2 1 001\n1 x\n1 1\n",
        "2 1 001\n1\n1 1\n",
        "2 1 001\n3 x\n1 1\n",
    ] {
        assert!(check(doc.as_bytes(), doc).is_err(), "{doc:?}");
    }
}

/// Found by the fuzz loop: a line that stops at an error must still hand
/// its earlier backward listings to their resolution, whose error comes
/// first in document order.
#[test]
fn an_error_line_keeps_its_earlier_backward_listings() {
    for (doc, bad) in [
        ("3 2 001\n2 1 3 1\n1 9 3 x\n1 1 2 2\n", "1-2: 1 vs 9"),
        ("3 2 001\n2 1 3 1\n1 9 3 2 3 2\n1 1 2 2\n", "1-2: 1 vs 9"),
    ] {
        let want = MetisError::BadLine {
            line: 3,
            what: format!("asymmetric edge weight on {bad}"),
        };
        assert_eq!(check(doc.as_bytes(), doc).unwrap_err(), want, "{doc:?}");
    }
}

#[test]
fn unicode_separators_and_odd_tokens_match_the_oracle() {
    for (doc, parses) in [
        // NBSP, U+3000 and `\x0B` separate tokens, as `str::split_whitespace`
        // has them do; a line of them alone is blank.
        ("3 3\n2\u{a0}3\n1\u{3000}3\n1\x0B2\n", true),
        ("3 3\n\u{a0}\n2 3\n\u{3000}\u{a0}\n1 3\n\x0B\n1 2\n", true),
        ("3 3\n\u{a0}% comment\n2 3\n1 3\n1 2\n", true),
        ("3 3\n2 3\u{2028}\n1\u{85}3\n1\x0C2\r\n", true),
        // `+2` ids, and costs and weights that only `str::parse` reads.
        ("3 3 011 1\n+1 +2 5.0 3 5e0\n1 1 5 3 +5\n1 1 5 2 5\n", true),
        ("2 1 011 1\n1e300 2 -0\n-1 1 0\n", true),
        ("2 1 011 1\ninf 2 NaN\n1 1 NaN\n", true),
        ("2 1 011 1\n1 2 .5\n1 1 0.50000000000000000000001\n", true),
        ("2 1\n0002\n00000000000000000000001\n", true),
        ("2 1 001\n2 1234567890123456\n1 1234567890123456\n", true),
        ("2 1\n2\n1 99999999999999999999999\n", false),
        // No final newline, with and without trailing decoration.
        ("2 1\n2\n1", true),
        ("2 1\n2\n1\n% end", true),
        ("2 1\n2\n1\n\u{a0}", true),
        // A NUL byte is not whitespace.
        ("2 1\n2\0\n1\n", false),
        // A bad token after NBSP or U+3000, a full-width digit (neither
        // whitespace nor a number), and a comment after NEL.
        ("2 1\n\u{a0}x\n1\n", false),
        ("2 1\n\u{ff12}\n1\n", false),
        ("2 1 001\n2\u{a0}\u{ff15}\n1 5\n", false),
        ("2 1 011 1\n\u{3000}x 2 1\n1 1 1\n", false),
        ("2 1\n\u{85}% c\n2\n1\n", true),
    ] {
        assert_eq!(check(doc.as_bytes(), doc).is_ok(), parses, "{doc:?}");
    }
}

#[test]
fn invalid_utf8_outranks_every_body_error() {
    let doc = b"3 2\n2 x\n1 3\n2\n\xff\n";
    let err = check(doc, "invalid UTF-8 after a bad token").unwrap_err();
    assert_eq!(
        err,
        MetisError::BadLine {
            line: 5,
            what: "read error: stream did not contain valid UTF-8".into()
        }
    );
    for doc in [
        &b"2 1\n2\n1\n\xc3\n"[..],
        b"2 1\n2\xff\n1\n",
        b"% \xe3\x80\n2 1\n2\n1\n",
        b"2 1\n2\n1\n% \xe3\x80",
        b"9 0\n1\n\xff\n",
        b"2 1\n2\n1\n7\n\xff",
        b"x\n\xff\n",
        b"3 2\n2\n\xe3\x80\x80 \n\xe3\x80 \n",
    ] {
        assert!(check(doc, &String::from_utf8_lossy(doc)).is_err());
    }
}

/// A 320 × 320 grid document (BENCH_6 weights, costs from integers and
/// fractions), about 4 MB: several blocks.
fn grid_document() -> String {
    let g = GridGraph::lattice(&[320, 320]).graph;
    let weights: Vec<f64> = (0..g.num_vertices())
        .map(|v| 1.0 + ((17u64 >> (v % 53)) & 7) as f64)
        .collect();
    let costs: Vec<f64> = (0..g.num_edges())
        .map(|e| match e % 3 {
            0 => 1.0,
            1 => 0.25 * (e % 11) as f64 + 0.5,
            _ => (e % 5) as f64,
        })
        .collect();
    write_metis(&g, &weights, &costs)
}

#[test]
fn grid_document_spanning_several_blocks_matches_the_oracle() {
    let doc = grid_document();
    assert!(doc.len() > 3 << 20, "{} bytes", doc.len());
    let want = check(doc.as_bytes(), "grid 320x320");
    let parsed = want.expect("the grid parses");
    assert_eq!(parsed.graph.num_vertices(), 320 * 320);

    // Damage in the last block: a listing made one-sided, a bad token
    // after it, and an invalid byte after both. The intact document has
    // covered trickled reads across blocks; these read it whole.
    let last = doc.trim_end().rfind('\n').expect("many lines") + 1;
    let line = &doc[last..].trim_end();
    let one_sided = format!("{}{} 5 1\n", &doc[..last], line);
    assert!(check_whole(one_sided.as_bytes(), "grid, one-sided listing at the end").is_err());
    let mut bad = one_sided.clone().into_bytes();
    bad.extend_from_slice(b"x\n");
    assert!(check_whole(&bad, "grid, then a trailing token").is_err());
    bad.extend_from_slice(b"\xff\n");
    assert!(check_whole(&bad, "grid, then invalid UTF-8").is_err());
    // A cost that disagrees with its other listing, mid-document.
    let mid = doc.len() / 2 + doc[doc.len() / 2..].find('\n').expect("a line end") + 1;
    let end = mid + doc[mid..].find('\n').expect("a line end");
    let mut line: Vec<&str> = doc[mid..end].split(' ').collect();
    line[2] = "1000";
    let asym = format!("{}{}{}", &doc[..mid], line.join(" "), &doc[end..]);
    assert!(check_whole(asym.as_bytes(), "grid, asymmetric cost mid-document").is_err());
}

/// Maximal runs of bytes that are not a space or a line end, or whole
/// lines with their line ends.
fn spans(doc: &[u8], lines: bool) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, &b) in doc.iter().enumerate() {
        if lines {
            if b == b'\n' {
                out.push(start.take().unwrap_or(i)..i + 1);
            } else {
                start.get_or_insert(i);
            }
        } else if b == b' ' || b == b'\n' {
            if let Some(s) = start.take() {
                out.push(s..i);
            }
        } else {
            start.get_or_insert(i);
        }
    }
    if let Some(s) = start {
        out.push(s..doc.len());
    }
    out
}

const INSERTS: [&str; 14] = [
    " ",
    "\t",
    "\x0B",
    "\x0C",
    "\r",
    "\n",
    "\r\n",
    "\u{a0}",
    "\u{3000}",
    "\u{2028}",
    "\u{85}",
    "% comment\n",
    "\n% comment\n",
    "+",
];

fn draw(rng: &mut TestRng, len: usize) -> usize {
    rng.int_range(0, len as u64, false) as usize
}

/// One random edit: drop, duplicate or swap a token or a line, flip a
/// byte, or insert whitespace, `\r`, a comment or a sign, anywhere or
/// where a token or line starts.
fn mutate(doc: &mut Vec<u8>, rng: &mut TestRng) {
    let kind = rng.int_range(0, 10, false);
    if kind < 6 {
        let spans = spans(doc, kind >= 3);
        if spans.is_empty() {
            return;
        }
        let a = spans[draw(rng, spans.len())].clone();
        match kind % 3 {
            0 => {
                doc.drain(a);
            }
            1 => {
                let mut copy = doc[a.clone()].to_vec();
                if kind < 3 {
                    copy.insert(0, b' ');
                }
                doc.splice(a.end..a.end, copy);
            }
            _ => {
                let b = spans[draw(rng, spans.len())].clone();
                let (a, b) = if a.start <= b.start { (a, b) } else { (b, a) };
                if a != b {
                    let mut out = doc[..a.start].to_vec();
                    out.extend_from_slice(&doc[b.clone()]);
                    out.extend_from_slice(&doc[a.end..b.start]);
                    out.extend_from_slice(&doc[a]);
                    out.extend_from_slice(&doc[b.end..]);
                    *doc = out;
                }
            }
        }
    } else if kind == 6 {
        if !doc.is_empty() {
            let i = draw(rng, doc.len());
            doc[i] = rng.int_range(0, 256, false) as u8;
        }
    } else {
        let starts = spans(doc, kind == 9);
        let at = match kind {
            7 => draw(rng, doc.len() + 1),
            _ if starts.is_empty() => 0,
            _ => starts[draw(rng, starts.len())].start,
        };
        let what = INSERTS[draw(rng, INSERTS.len())].as_bytes();
        doc.splice(at..at, what.iter().copied());
    }
}

#[test]
fn mutated_corpus_documents_match_the_oracle() {
    let docs = corpus_documents();
    let mut rng = TestRng::from_name("metis_differential::mutated_corpus_documents");
    let (mut parsed, mut failed) = (0, 0);
    for case in 0..500 {
        let (name, doc) = &docs[draw(&mut rng, docs.len())];
        let mut doc = doc.clone().into_bytes();
        for _ in 0..=draw(&mut rng, 3) {
            mutate(&mut doc, &mut rng);
        }
        match check(&doc, &format!("case {case}, mutated {name}")) {
            Ok(_) => parsed += 1,
            Err(_) => failed += 1,
        }
    }
    // Both outcomes must be common, or the loop tests one side only.
    assert!(
        parsed >= 30 && failed >= 200,
        "{parsed} parsed, {failed} failed"
    );
}
