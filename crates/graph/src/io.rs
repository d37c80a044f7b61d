//! METIS-format graph I/O.
//!
//! The METIS `.graph` format is the de-facto exchange format for graph
//! partitioning benchmarks (Chaco/METIS/KaHIP all read it), so a
//! partitioning library needs it to be usable on existing instances.
//!
//! Format (1-indexed):
//!
//! ```text
//! % comment lines start with '%'
//! <n> <m> [fmt [ncon]]      fmt: 3 digits — ignored/vertex-sizes,
//!                            vertex-weights, edge-weights (e.g. "011")
//! <per-vertex line: [weights…] (neighbor [edge-weight])*>
//! ```
//!
//! Each undirected edge appears in both endpoint lines; we validate the
//! symmetry and collapse it. Partitions are written/read as one class id
//! per line (the `.part.k` convention).
//!
//! Ingestion is **streaming**: [`parse_metis_reader`] consumes any
//! [`BufRead`] one line at a time, accumulates forward arcs in flat
//! arenas (no `Vec<Vec<_>>` adjacency, no per-edge hash map), and hands
//! the arena's edges, already in canonical order, to
//! [`Graph::from_sorted_edges`]: one pass over the document, then an
//! `O(n + m)` CSR assembly with no sort of the edge list. Peak memory is
//! a small constant factor of the final CSR, which is what makes
//! `n = 10^6`–`10^7` instances ingestible; the high water is recorded on
//! the thread's [`Workspace`] as `arena_peak_bytes`. [`parse_metis`] is a
//! thin `&str` wrapper over the same code path.

use std::fmt::Write as _;
use std::io::BufRead;

use crate::coloring::Coloring;
use crate::graph::Graph;
use crate::workspace::Workspace;

/// A parsed METIS instance.
#[derive(Clone, Debug)]
pub struct MetisGraph {
    /// The graph.
    pub graph: Graph,
    /// Vertex weights (first constraint only; defaults to 1.0).
    pub weights: Vec<f64>,
    /// Edge costs (defaults to 1.0).
    pub costs: Vec<f64>,
}

/// Errors from METIS parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetisError {
    /// The header line is missing or malformed.
    BadHeader(String),
    /// A data line failed to parse.
    BadLine {
        /// 1-based line number in the input.
        line: usize,
        /// Problem description.
        what: String,
    },
    /// The declared edge count does not match the body.
    EdgeCountMismatch {
        /// Edge count declared in the header.
        declared: usize,
        /// Edge count found in the body.
        found: usize,
    },
    /// An edge appears in one endpoint's adjacency line but not the
    /// other's (the format requires every undirected edge twice).
    AsymmetricAdjacency {
        /// 1-based id of the endpoint that lists the edge.
        listed_by: usize,
        /// 1-based id of the endpoint whose line omits it.
        missing_from: usize,
    },
    /// Non-comment, non-blank content after the last declared vertex
    /// line — the document does not match its header.
    TrailingContent {
        /// 1-based line number of the first trailing data line.
        line: usize,
    },
    /// The header declares more vertices or edges than the document
    /// could possibly contain. Refused **before** any allocation is
    /// sized by the untrusted header fields, so a 20-byte document
    /// claiming `usize::MAX` vertices cannot request terabytes
    /// (resource-exhaustion hardening). The budgets are structural — a
    /// vertex needs its own line, an edge two neighbor listings — not
    /// tunable limits, so no legitimate document is ever refused.
    ImplausibleHeader {
        /// Which count is implausible (`"vertices"` or `"edges"`).
        what: &'static str,
        /// The count the header declares.
        declared: usize,
        /// The most the document could actually hold.
        budget: usize,
    },
}

impl std::fmt::Display for MetisError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetisError::BadHeader(s) => write!(f, "bad METIS header: {s}"),
            MetisError::BadLine { line, what } => write!(f, "line {line}: {what}"),
            MetisError::EdgeCountMismatch { declared, found } => {
                write!(f, "header declares {declared} edges, body has {found}")
            }
            MetisError::AsymmetricAdjacency {
                listed_by,
                missing_from,
            } => write!(
                f,
                "edge {listed_by}-{missing_from} is listed by vertex {listed_by} \
                 but missing from vertex {missing_from}'s line"
            ),
            MetisError::TrailingContent { line } => {
                write!(
                    f,
                    "line {line}: unexpected content after the last vertex line"
                )
            }
            MetisError::ImplausibleHeader {
                what,
                declared,
                budget,
            } => write!(
                f,
                "header declares {declared} {what}, but the document can hold at \
                 most {budget}; refusing before allocating for an implausible header"
            ),
        }
    }
}

impl std::error::Error for MetisError {}

/// Parse a METIS `.graph` document.
///
/// Robust to the usual transport damage — CRLF line endings and
/// leading/trailing whitespace on data lines are accepted (every line is
/// trimmed) — while genuinely malformed-but-parseable input gets a typed
/// [`MetisError`] rather than a panic: a non-binary `fmt` field, a
/// neighbor listed twice on one line, an edge missing from one
/// endpoint's line ([`MetisError::AsymmetricAdjacency`]), or data lines
/// after the last declared vertex ([`MetisError::TrailingContent`]).
/// Blank lines are treated as decoration and skipped, matching
/// [`write_metis`] (which never emits them: the fmt-011 convention puts
/// at least the vertex weight on every line). Known limitation of that
/// choice: a *bare* fmt-000 document that encodes an isolated vertex as
/// an empty adjacency line cannot be distinguished from decoration and
/// is rejected with a typed error — write such graphs with vertex
/// weights (as [`write_metis`] does) so every line is non-empty.
///
/// This is a thin wrapper over [`parse_metis_reader`], which is the
/// streaming entry point for inputs too large to hold as one `&str`.
pub fn parse_metis(input: &str) -> Result<MetisGraph, MetisError> {
    parse_metis_reader(input.as_bytes())
}

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

/// Serialize to METIS `.graph` format (always writes vertex and edge
/// weights, fmt `011`).
pub fn write_metis(g: &Graph, weights: &[f64], costs: &[f64]) -> String {
    assert_eq!(weights.len(), g.num_vertices());
    assert_eq!(costs.len(), g.num_edges());
    let mut out = String::new();
    let _ = writeln!(out, "{} {} 011 1", g.num_vertices(), g.num_edges());
    for v in g.vertices() {
        let _ = write!(out, "{}", weights[v as usize]);
        for &(nb, e) in g.neighbors(v) {
            let _ = write!(out, " {} {}", nb + 1, costs[e as usize]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Serialize a partition in the `.part` convention (one class per line).
pub fn write_partition(chi: &Coloring) -> String {
    let mut out = String::new();
    for v in 0..chi.num_vertices() as u32 {
        let _ = writeln!(out, "{}", chi.get(v).map(|c| c as i64).unwrap_or(-1));
    }
    out
}

/// Parse a `.part` document into a coloring with `k` classes.
pub fn parse_partition(input: &str, k: usize) -> Result<Coloring, MetisError> {
    let mut colors = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('%') {
            continue;
        }
        let c: i64 = line.parse().map_err(|_| MetisError::BadLine {
            line: i + 1,
            what: format!("bad class id '{line}'"),
        })?;
        if c >= k as i64 {
            return Err(MetisError::BadLine {
                line: i + 1,
                what: format!("class {c} out of range for k = {k}"),
            });
        }
        colors.push(if c < 0 {
            crate::coloring::UNCOLORED
        } else {
            c as u32
        });
    }
    Ok(Coloring::from_vec(k, colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    #[test]
    fn roundtrip_weighted() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let weights = vec![1.0, 2.0, 3.0, 4.0];
        let costs = vec![1.5, 2.5, 3.5, 4.5];
        let doc = write_metis(&g, &weights, &costs);
        let back = parse_metis(&doc).unwrap();
        assert_eq!(back.graph.edge_list(), g.edge_list());
        assert_eq!(back.weights, weights);
        assert_eq!(back.costs, costs);
    }

    #[test]
    fn parses_plain_unweighted() {
        // Triangle, no weights.
        let doc = "% a comment\n3 3\n2 3\n1 3\n1 2\n";
        let m = parse_metis(doc).unwrap();
        assert_eq!(m.graph.num_vertices(), 3);
        assert_eq!(m.graph.num_edges(), 3);
        assert_eq!(m.weights, vec![1.0; 3]);
        assert_eq!(m.costs, vec![1.0; 3]);
    }

    #[test]
    fn rejects_malformed() {
        assert!(matches!(parse_metis(""), Err(MetisError::BadHeader(_))));
        // Missing second vertex line: the structural cap catches the raw
        // two-line document (2 declared vertices can't fit in 1 data
        // line); with a comment padding the line count past the cap, the
        // body loop reports the missing line itself.
        assert!(matches!(
            parse_metis("2 1\n2\n"),
            Err(MetisError::ImplausibleHeader {
                what: "vertices",
                declared: 2,
                budget: 1
            })
        ));
        assert!(matches!(
            parse_metis("2 1\n2\n% pad\n"),
            Err(MetisError::BadLine { .. })
        ));
        // Edge count mismatch: header says 2, body has 1.
        assert!(matches!(
            parse_metis("2 2\n2\n1\n"),
            Err(MetisError::EdgeCountMismatch {
                declared: 2,
                found: 1
            })
        ));
        // Out-of-range neighbor.
        assert!(matches!(
            parse_metis("2 1\n3\n1\n"),
            Err(MetisError::BadLine { .. })
        ));
        // Asymmetric edge weights.
        let doc = "2 1 011 1\n1.0 2 5.0\n1.0 1 6.0\n";
        assert!(matches!(parse_metis(doc), Err(MetisError::BadLine { .. })));
    }

    #[test]
    fn crlf_and_trailing_whitespace_roundtrip() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2)]);
        let weights = vec![1.5, 2.0, 0.5];
        let costs = vec![3.0, 4.0];
        let doc = write_metis(&g, &weights, &costs);
        // Windows transport: CRLF endings plus trailing spaces per line.
        let crlf: String = doc
            .lines()
            .map(|l| format!("{l}  \r\n"))
            .collect::<Vec<_>>()
            .concat();
        let back = parse_metis(&crlf).unwrap();
        assert_eq!(back.graph.edge_list(), g.edge_list());
        assert_eq!(back.weights, weights);
        assert_eq!(back.costs, costs);
        // Partitions survive the same treatment.
        let chi = Coloring::from_vec(2, vec![0, 1, 0]);
        let part = write_partition(&chi).replace('\n', " \r\n");
        assert_eq!(parse_partition(&part, 2).unwrap(), chi);
    }

    // The per-variant malformed-document tests for the new
    // `AsymmetricAdjacency` / `TrailingContent` paths live in the
    // canonical integration suite (`tests/metis_io.rs`), next to the
    // rest of the `MetisError` coverage.

    #[test]
    fn adversarial_headers_are_refused_before_allocation() {
        // A tiny document claiming usize::MAX vertices must come back as
        // a typed error without ever attempting the n-sized allocations.
        let huge_n = format!("{} 1\n2\n1\n", usize::MAX);
        assert!(matches!(
            parse_metis(&huge_n),
            Err(MetisError::ImplausibleHeader {
                what: "vertices",
                declared: usize::MAX,
                ..
            })
        ));
        // Same for an edge count the document cannot possibly hold.
        let huge_m = format!("2 {}\n2\n1\n", usize::MAX / 2);
        assert!(matches!(
            parse_metis(&huge_m),
            Err(MetisError::ImplausibleHeader { what: "edges", .. })
        ));
        // Moderately inflated counts are refused too — the budgets are
        // document-derived, not fixed thresholds.
        assert!(matches!(
            parse_metis("1000 1\n2\n1\n"),
            Err(MetisError::ImplausibleHeader {
                what: "vertices",
                declared: 1000,
                budget: 2
            })
        ));
        // Boundary: a header that exactly matches its document parses.
        assert!(parse_metis("2 1\n2\n1\n").is_ok());
        // The error carries a stable, human-readable rendering.
        let msg = parse_metis("9 0\n1\n").unwrap_err().to_string();
        assert!(msg.contains("9 vertices"), "{msg}");
    }

    #[test]
    fn non_binary_fmt_is_a_typed_error() {
        assert!(matches!(
            parse_metis("2 1 abc\n2\n1\n"),
            Err(MetisError::BadHeader(_))
        ));
        assert!(matches!(
            parse_metis("2 1 0110\n2\n1\n"),
            Err(MetisError::BadHeader(_))
        ));
    }

    #[test]
    fn partition_roundtrip() {
        let chi = Coloring::from_vec(3, vec![0, 2, 1, crate::coloring::UNCOLORED]);
        let doc = write_partition(&chi);
        let back = parse_partition(&doc, 3).unwrap();
        assert_eq!(back, chi);
    }

    #[test]
    fn partition_rejects_out_of_range() {
        assert!(parse_partition("0\n5\n", 3).is_err());
    }
}
