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
//! [`BufRead`] in blocks of about 1 MiB of whole lines, holding one
//! block of text at a time, parses each block on the calling thread,
//! appends its forward arcs to flat arenas (no `Vec<Vec<_>>` adjacency,
//! no per-edge hash map), and hands the arena's edges, already in
//! canonical order, to [`Graph::from_sorted_edges`]: one pass over the
//! document, then an `O(n + m)` CSR assembly with no sort of the edge
//! list. Peak memory is a small constant factor of the final CSR plus one
//! block, which is what makes `n = 10^6`–`10^7` instances ingestible;
//! the high water is recorded on the thread's [`Workspace`] as
//! `arena_peak_bytes`. [`parse_metis`] is a thin `&str` wrapper over the
//! same code path.

use std::collections::BTreeMap;
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

/// Incremental line feed over a [`BufRead`] for the header: 1-based raw
/// line numbers, running byte totals, and comment/blank skipping, holding
/// at most one line in memory.
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

/// The error a line with invalid UTF-8 gives, as `read_line` words it.
fn invalid_utf8(line: usize) -> MetisError {
    MetisError::BadLine {
        line,
        what: "read error: stream did not contain valid UTF-8".into(),
    }
}

/// Body text the reader holds at once, about: each block ends at its last
/// line end (a single longer line makes a longer block).
const BLOCK_BYTES: usize = 1 << 20;

/// `char::is_whitespace` on an ASCII byte (`u8::is_ascii_whitespace`
/// omits `\x0B`). Tokens split at every `char::is_whitespace`, as
/// `str::split_whitespace` splits them; an ASCII byte is tested here
/// directly, any other character by [`wide_char`].
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

/// Whether the character at `text[p..]`, which starts with a byte ≥ 0x80
/// (NBSP, U+3000, NEL or a full-width digit, say), is whitespace, and its
/// length in bytes: one `char` decoded, off the hot path.
#[cold]
fn wide_char(text: &str, p: usize) -> (bool, usize) {
    text[p..]
        .chars()
        .next()
        .map_or((false, 1), |c| (c.is_whitespace(), c.len_utf8()))
}

/// The first byte at or after `p` that is not whitespace other than `\n`.
fn skip_blanks(text: &str, mut p: usize) -> usize {
    let b = text.as_bytes();
    while p < b.len() && b[p] != b'\n' {
        if is_space(b[p]) {
            p += 1;
        } else if b[p].is_ascii() {
            break;
        } else {
            match wide_char(text, p) {
                (true, len) => p += len,
                (false, _) => break,
            }
        }
    }
    p
}

/// Where the line holding `b[p]` ends, past its `\n`.
fn next_line(b: &[u8], p: usize) -> usize {
    b[p..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |i| p + i + 1)
}

/// A token of at most 15 digits at `text[*p..]`, moving `*p` past it;
/// `None`, leaving `*p`, for any other token. Such a value is below
/// `2^53`, so it converts to `f64` exactly.
fn digits(text: &str, p: &mut usize) -> Option<u64> {
    let b = text.as_bytes();
    let (mut end, mut x) = (*p, 0u64);
    while end < b.len() && end - *p < 16 {
        let d = b[end].wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        x = 10 * x + u64::from(d);
        end += 1;
    }
    let whole = end > *p
        && end - *p <= 15
        && b.get(end)
            .is_none_or(|&c| is_space(c) || (!c.is_ascii() && wide_char(text, end).0));
    whole.then(|| {
        *p = end;
        x
    })
}

/// The token at `text[*p..]`, up to the whitespace that ends it, moving
/// `*p` past it.
fn token<'a>(text: &'a str, p: &mut usize) -> &'a str {
    let (b, start) = (text.as_bytes(), *p);
    while let Some(&c) = b.get(*p) {
        let (space, len) = if c.is_ascii() {
            (is_space(c), 1)
        } else {
            wide_char(text, *p)
        };
        if space {
            break;
        }
        *p += len;
    }
    &text[start..*p]
}

/// The token at `text[*p..]` as `str::parse::<f64>` reads it, moving `*p`
/// past it.
fn value(text: &str, p: &mut usize) -> Option<f64> {
    match digits(text, p) {
        Some(x) => Some(x as f64),
        None => token(text, p).parse().ok(),
    }
}

/// The token at `text[*p..]` as `str::parse::<usize>` reads it, moving
/// `*p` past it.
fn id(text: &str, p: &mut usize) -> Option<usize> {
    match digits(text, p) {
        Some(x) => usize::try_from(x).ok(),
        None => token(text, p).parse().ok(),
    }
}

/// A vertex line's error, formatted off the hot path.
#[cold]
fn bad_line(line: usize, what: std::fmt::Arguments) -> MetisError {
    MetisError::BadLine {
        line,
        what: what.to_string(),
    }
}

/// The error for the token at `text[p..]`, which does not parse: `what`,
/// then the token quoted.
#[cold]
fn bad_token(line: usize, what: &str, text: &str, mut p: usize) -> MetisError {
    bad_line(line, format_args!("{what} '{}'", token(text, &mut p)))
}

fn last_line_end(bytes: &[u8]) -> Option<usize> {
    bytes.iter().rposition(|&b| b == b'\n').map(|i| i + 1)
}

fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// What the header fixes for every vertex line.
#[derive(Clone, Copy, Default)]
struct Format {
    n: usize,
    ncon: usize,
    has_eweights: bool,
}

/// A neighbor listed by the higher endpoint of its edge, resolved once
/// the lower endpoint's forward range has joined the arenas.
struct Back {
    lo: u32,
    hi: u32,
    cost: f64,
    line: usize,
}

/// One block's parsed vertex lines, before they join the arenas. Its
/// buffers are reused block to block. On `cold-1m`, staging a block here
/// and appending it at once read a peak resident set about a quarter
/// below appending each line straight to the arenas (EXPERIMENTS,
/// 2026-10-19).
#[derive(Default)]
struct Block {
    weights: Vec<f64>,
    /// End of each parsed vertex's forward range, within `arcs`.
    ends: Vec<usize>,
    /// Forward arcs `(v, target)`, sorted per vertex.
    arcs: Vec<(u32, u32)>,
    /// Costs parallel to `arcs` (fmt `xx1` only).
    costs: Vec<f64>,
    back: Vec<Back>,
    sort: Vec<(u32, f64)>,
    half_edges: usize,
    /// Raw line of the first data line after the last vertex line.
    trailing: Option<usize>,
    /// The error parsing stopped at.
    error: Option<MetisError>,
}

impl Block {
    fn bytes(&self) -> u64 {
        fn cap<T>(v: &Vec<T>) -> u64 {
            (v.capacity() * std::mem::size_of::<T>()) as u64
        }
        cap(&self.weights)
            + cap(&self.ends)
            + cap(&self.arcs)
            + cap(&self.costs)
            + cap(&self.back)
            + cap(&self.sort)
    }

    /// Parse the vertex lines of `text`, whose first raw line follows line
    /// `*lno` and whose first data line is vertex `v`, until the first
    /// error or the first data line after the last vertex. Each raw line
    /// is read once: past its leading whitespace, a line that ends or
    /// starts with `%` is decoration, and any other line is data. Returns
    /// where it stopped, with `*lno` at the last line it read.
    fn parse(&mut self, text: &str, lno: &mut usize, mut v: usize, fmt: Format) -> usize {
        self.weights.clear();
        self.ends.clear();
        self.arcs.clear();
        self.costs.clear();
        self.back.clear();
        self.half_edges = 0;
        let b = text.as_bytes();
        let mut at = 0;
        while at < text.len() {
            *lno += 1;
            let p = skip_blanks(text, at);
            if matches!(b.get(p), None | Some(b'\n' | b'%')) {
                at = next_line(b, p);
                continue;
            }
            if v >= fmt.n {
                self.trailing = Some(*lno);
                return next_line(b, p);
            }
            match self.vertex_line(text, p, v, *lno, fmt) {
                Ok(next) => (at, v) = (next, v + 1),
                Err(e) => {
                    // The line's backward listings precede the error and
                    // are still resolved; its forward arcs lie past the
                    // last `ends` entry, where nothing reads them.
                    self.error = Some(e);
                    return next_line(b, p);
                }
            }
        }
        at
    }

    /// Record `v`'s listing of neighbor `u`: a forward arc when `u` is
    /// above `v`, else a backward listing.
    fn push_arc(&mut self, v: u32, u: u32, cost: f64, line: usize, has_eweights: bool) {
        if u > v {
            self.arcs.push((v, u));
            if has_eweights {
                self.costs.push(cost);
            }
        } else {
            self.back.push(Back {
                lo: u,
                hi: v,
                cost,
                line,
            });
        }
    }

    /// Parse vertex `v`'s line, whose first token starts at `text[p..]`, in
    /// one pass over its bytes: weights, then `(neighbor [cost])*`. Returns
    /// where the next line starts, or the first error in token order (the
    /// same-line duplicate check at the line's end comes last).
    fn vertex_line(
        &mut self,
        text: &str,
        mut p: usize,
        v: usize,
        lno: usize,
        fmt: Format,
    ) -> Result<usize, MetisError> {
        let b = text.as_bytes();
        let line_end = |p: usize| matches!(b.get(p), None | Some(b'\n'));
        let bad = |what: std::fmt::Arguments<'_>| Err(bad_line(lno, what));
        if v >= u32::MAX as usize {
            // Unreachable for plausible headers (the caps bound n by the
            // line count), but keeps the casts honest.
            return bad(format_args!("vertex {} exceeds the u32 id space", v + 1));
        }
        let vv = v as u32;
        let mut wv = 1.0;
        for c in 0..fmt.ncon {
            if line_end(p) {
                return bad(format_args!("missing vertex weight"));
            }
            let t = p;
            let Some(w) = value(text, &mut p) else {
                return Err(bad_token(lno, "bad vertex weight", text, t));
            };
            if c == 0 {
                wv = w;
            }
            p = skip_blanks(text, p);
        }
        self.weights.push(wv);
        let start = self.arcs.len();
        while !line_end(p) {
            let t = p;
            let Some(nb1) = id(text, &mut p) else {
                return Err(bad_token(lno, "expected integer, got", text, t));
            };
            if nb1 == 0 || nb1 > fmt.n {
                return bad(format_args!("neighbor {nb1} out of range 1..={}", fmt.n));
            }
            p = skip_blanks(text, p);
            let cost = if fmt.has_eweights {
                if line_end(p) {
                    return bad(format_args!("missing edge weight"));
                }
                let t = p;
                let Some(c) = value(text, &mut p) else {
                    return Err(bad_token(lno, "bad edge weight", text, t));
                };
                p = skip_blanks(text, p);
                c
            } else {
                1.0
            };
            let u = nb1 - 1;
            if u == v {
                return bad(format_args!("self-loop on vertex {}", v + 1));
            }
            self.half_edges += 1;
            if u >= u32::MAX as usize {
                return bad(format_args!("neighbor {nb1} exceeds the u32 id space"));
            }
            self.push_arc(vv, u as u32, cost, lno, fmt.has_eweights);
        }
        self.finish_line(start, vv, lno, fmt.has_eweights)?;
        self.ends.push(self.arcs.len());
        Ok((p + 1).min(b.len()))
    }

    /// Sort the forward range `arcs[start..]` of vertex `v` by target (so
    /// later backward listings can binary-search it) and reject same-line
    /// duplicate listings.
    fn finish_line(
        &mut self,
        start: usize,
        v: u32,
        lno: usize,
        has_eweights: bool,
    ) -> Result<(), MetisError> {
        let arcs = &mut self.arcs[start..];
        if arcs.windows(2).all(|w| w[0].1 < w[1].1) {
            return Ok(());
        }
        if !has_eweights {
            arcs.sort_unstable();
            return match arcs.windows(2).find(|w| w[0] == w[1]) {
                Some(w) => Err(listed_twice(lno, w[0].1 as usize + 1, v as usize)),
                None => Ok(()),
            };
        }
        self.sort.clear();
        self.sort.extend(
            arcs.iter()
                .map(|a| a.1)
                .zip(self.costs[start..].iter().copied()),
        );
        // Stable: the first listing's cost wins, as with the historical
        // first-insert-wins map.
        self.sort.sort_by_key(|&(t, _)| t);
        if let Some(w) = self.sort.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(if costs_differ(w[0].1, w[1].1) {
                asym_weight(lno, v, w[0].0, w[0].1, w[1].1)
            } else {
                listed_twice(lno, w[0].0 as usize + 1, v as usize)
            });
        }
        for (i, &(t, c)) in self.sort.iter().enumerate() {
            self.arcs[start + i].1 = t;
            self.costs[start + i] = c;
        }
        Ok(())
    }
}

/// The body pass of [`parse_metis_reader`]: flat arenas that grow with the
/// document, the deferred error, and the line and byte totals the caps
/// read at end of input.
#[derive(Default)]
struct Body {
    fmt: Format,
    /// Raw lines and bytes consumed, header included.
    lines: usize,
    bytes: usize,
    deferred: Option<MetisError>,
    /// Raw line of the first data line after the last vertex line.
    trailing: Option<usize>,
    weights: Vec<f64>,
    /// Vertex `v`'s forward arcs are `edges[off[v]..off[v + 1]]`, so the
    /// next vertex line is vertex `off.len() - 1`.
    off: Vec<usize>,
    /// Each edge once, from its lower endpoint, targets ascending per
    /// endpoint: the canonical `(lo, hi)` order.
    edges: Vec<(u32, u32)>,
    costs: Vec<f64>,
    /// Whether the higher endpoint listed the edge back.
    matched: Vec<bool>,
    /// Backward listings without a forward arc, with their first cost.
    orphans: BTreeMap<(u32, u32), f64>,
    half_edges: usize,
    block: Block,
    /// Most bytes the block buffer held.
    block_peak: u64,
}

impl Body {
    /// Pull the rest of the input through `fill_buf`/`consume` and parse it
    /// block by block. Only a read error or invalid UTF-8 returns early;
    /// every other error is deferred to [`Body::finish`].
    fn read<R: BufRead>(&mut self, reader: &mut R) -> Result<(), MetisError> {
        let mut carry: Vec<u8> = Vec::new();
        loop {
            let avail = match reader.fill_buf() {
                Ok(avail) => avail,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.read_error(&carry, &e)),
            };
            if avail.is_empty() {
                break;
            }
            if carry.is_empty() && avail.len() >= BLOCK_BYTES {
                // Whole lines straight from the reader's own buffer.
                if let Some(end) = last_line_end(&avail[..BLOCK_BYTES]) {
                    self.parse_block(&avail[..end])?;
                    reader.consume(end);
                    continue;
                }
            }
            let room = BLOCK_BYTES.saturating_sub(carry.len());
            let take = if room > 0 {
                avail.len().min(room)
            } else {
                // A line longer than a block: take it through its end.
                avail
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(avail.len(), |i| i + 1)
            };
            carry.extend_from_slice(&avail[..take]);
            reader.consume(take);
            if carry.len() >= BLOCK_BYTES {
                if let Some(end) = last_line_end(&carry) {
                    self.block_peak = self.block_peak.max(carry.capacity() as u64);
                    self.parse_block(&carry[..end])?;
                    carry.drain(..end);
                }
            }
        }
        self.block_peak = self.block_peak.max(carry.capacity() as u64);
        if !carry.is_empty() {
            self.parse_block(&carry)?;
        }
        Ok(())
    }

    /// A read error after the whole lines of `carry`, which `read_line`
    /// would have validated first.
    fn read_error(&self, carry: &[u8], e: &std::io::Error) -> MetisError {
        let whole = &carry[..last_line_end(carry).unwrap_or(0)];
        if let Err(bad) = std::str::from_utf8(whole) {
            return invalid_utf8(self.lines + newlines(&whole[..bad.valid_up_to()]) + 1);
        }
        MetisError::BadLine {
            line: self.lines + newlines(whole) + 1,
            what: format!("read error: {e}"),
        }
    }

    /// Check one block of whole lines for UTF-8 (the last block may lack
    /// its final line end), parse it, and commit it.
    fn parse_block(&mut self, bytes: &[u8]) -> Result<(), MetisError> {
        self.bytes += bytes.len();
        let text = std::str::from_utf8(bytes)
            .map_err(|e| invalid_utf8(self.lines + newlines(&bytes[..e.valid_up_to()]) + 1))?;
        let mut at = 0;
        if self.deferred.is_none() && self.trailing.is_none() {
            let v = self.off.len() - 1;
            at = self.block.parse(text, &mut self.lines, v, self.fmt);
            self.commit();
        }
        // Past the first error or the last vertex only the totals matter.
        let rest = &bytes[at..];
        self.lines += newlines(rest) + usize::from(!rest.is_empty() && !rest.ends_with(b"\n"));
        Ok(())
    }

    /// Append the block's forward ranges to the arenas, then resolve its
    /// backward listings against them, and take its first error: a
    /// backward listing's comes first, since every listing precedes the
    /// point where parsing stopped.
    fn commit(&mut self) {
        let block = &mut self.block;
        let base = self.edges.len();
        self.weights.extend_from_slice(&block.weights);
        self.off.extend(block.ends.iter().map(|&e| base + e));
        self.edges.extend_from_slice(&block.arcs);
        self.costs.extend_from_slice(&block.costs);
        self.matched.resize(self.edges.len(), false);
        self.half_edges += block.half_edges;
        self.trailing = block.trailing;
        for b in &block.back {
            let (start, end) = (self.off[b.lo as usize], self.off[b.lo as usize + 1]);
            let error = match self.edges[start..end].binary_search_by_key(&b.hi, |a| a.1) {
                Ok(i) => {
                    let idx = start + i;
                    let stored = if self.fmt.has_eweights {
                        self.costs[idx]
                    } else {
                        1.0
                    };
                    if costs_differ(stored, b.cost) {
                        asym_weight(b.line, b.lo, b.hi, stored, b.cost)
                    } else if self.matched[idx] {
                        listed_twice(b.line, b.lo as usize + 1, b.hi as usize)
                    } else {
                        self.matched[idx] = true;
                        continue;
                    }
                }
                // Only vertex `hi`'s own line can list `(lo, hi)`, so a
                // repeat is a same-line duplicate of a one-sided listing.
                Err(_) => match self.orphans.get(&(b.lo, b.hi)) {
                    Some(&first) if costs_differ(first, b.cost) => {
                        asym_weight(b.line, b.lo, b.hi, first, b.cost)
                    }
                    Some(_) => listed_twice(b.line, b.lo as usize + 1, b.hi as usize),
                    None => {
                        self.orphans.insert((b.lo, b.hi), b.cost);
                        continue;
                    }
                },
            };
            self.deferred = Some(error);
            return;
        }
        self.deferred = block.error.take();
    }

    /// End of input: the plausibility caps, then the deferred and
    /// whole-document errors, then the CSR assembly.
    fn finish(self, m: usize) -> Result<MetisGraph, MetisError> {
        let n = self.fmt.n;
        // The caps outrank every deferred error. `n` vertices need `n`
        // data lines after the header; `m` edges need two neighbor tokens
        // each, every token ≥ one byte. Both budgets come from the
        // document itself, so an adversarial header can never have made
        // the arenas exceed O(document size).
        let line_budget = self.lines.saturating_sub(1);
        if n > line_budget {
            return Err(MetisError::ImplausibleHeader {
                what: "vertices",
                declared: n,
                budget: line_budget,
            });
        }
        let edge_budget = self.bytes / 2;
        if m > edge_budget {
            return Err(MetisError::ImplausibleHeader {
                what: "edges",
                declared: m,
                budget: edge_budget,
            });
        }
        if let Some(e) = self.deferred {
            return Err(e);
        }
        let parsed = self.off.len() - 1;
        if parsed < n {
            return Err(MetisError::BadLine {
                line: self.lines,
                what: format!(
                    "missing adjacency line for vertex {} (isolated vertices must be \
                     written with vertex weights; bare empty lines are skipped)",
                    parsed + 1
                ),
            });
        }
        if let Some(line) = self.trailing {
            return Err(MetisError::TrailingContent { line });
        }

        // Every edge must have been listed from both endpoints; report the
        // smallest offending pair so the error is deterministic. Forward
        // arcs are in ascending (lo, hi) order and the one-sided listings
        // are keyed by it, so each side's first is its minimum, and no
        // one-sided listing shares a forward arc's pair.
        let forward = self
            .matched
            .iter()
            .position(|&f| !f)
            .map(|i| (self.edges[i], true));
        let orphan = self.orphans.keys().next().map(|&pair| (pair, false));
        if let Some(((lo, hi), by_lower)) = forward.into_iter().chain(orphan).min() {
            let (listed_by, missing_from) = if by_lower { (lo, hi) } else { (hi, lo) };
            return Err(MetisError::AsymmetricAdjacency {
                listed_by: listed_by as usize + 1,
                missing_from: missing_from as usize + 1,
            });
        }
        if self.half_edges != 2 * m {
            return Err(MetisError::EdgeCountMismatch {
                declared: m,
                found: self.half_edges / 2,
            });
        }

        let m_found = self.edges.len();
        debug_assert_eq!(2 * m_found, self.half_edges);
        let costs = if self.fmt.has_eweights {
            self.costs
        } else {
            vec![1.0; m_found]
        };
        // Record the ingestion high water on the thread's workspace, the
        // RSS proxy the scale-path tests budget: the arenas, the block's
        // text and parse buffers, and what the CSR assembly adds to the
        // edge list (2m adjacency entries and the `u32` offsets with their
        // fill cursor).
        let arena_bytes = vec_bytes(&self.edges)
            + vec_bytes(&self.matched)
            + vec_bytes(&self.off)
            + vec_bytes(&self.weights)
            + vec_bytes(&costs)
            + self.block_peak
            + self.block.bytes()
            + 2 * vec_bytes(&self.edges)
            + 2 * 4 * (n as u64 + 1);
        Workspace::with_local(|ws| ws.note_transient_arena_bytes(arena_bytes));
        let graph = Graph::from_sorted_edges(n, self.edges)
            .map_err(|e| MetisError::BadHeader(format!("graph exceeds the u32 id space: {e}")))?;
        Ok(MetisGraph {
            graph,
            weights: self.weights,
            costs,
        })
    }
}

/// Streaming core of [`parse_metis`]: parse a METIS `.graph` document from
/// any [`BufRead`] in a single pass over the input.
///
/// The header is read line by line. The body is pulled through
/// [`BufRead::fill_buf`] in blocks of about 1 MiB that end at a line end,
/// so the reader holds one block of text at a time; each block is checked
/// for UTF-8 and parsed on the calling thread, each line once, in one
/// pass over its bytes: tokens split at every `char::is_whitespace` (as
/// `str::split_whitespace` splits them), a token of at most 15 digits
/// converts through an integer and any other through `str::parse`, and
/// an error quotes its token. A block's forward arcs (each edge as seen
/// from its lower endpoint), sorted per vertex when its line completes,
/// then join flat arenas — the edge list itself, costs and matched flags
/// in parallel vectors, one offset per vertex — and the block's backward
/// listings (from the higher endpoint) resolve by binary search in them,
/// not through a hash map. The arena lists every edge once in canonical
/// `(lo, hi)` order, which [`Graph::from_sorted_edges`] assembles into
/// the CSR. Peak memory is a small constant factor of the output graph
/// plus one block, and is recorded on the thread-local [`Workspace`] as a
/// transient arena charge. The result does not depend on how the reader
/// delivers its bytes.
///
/// The plausibility caps of [`MetisError::ImplausibleHeader`] need the
/// document's total line and byte counts, which a stream only knows at end
/// of input. Body errors are therefore *deferred*: parsing stops at the
/// first one in document order (token order within a line, the duplicate
/// check at its end), the rest of the input is only counted, and the caps
/// are checked first — preserving the historical error precedence of the
/// eager parser, which scanned the whole document before the body pass. A
/// read error or invalid UTF-8 outranks them all and returns at once.
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

    let mut body = Body {
        fmt: Format {
            n,
            ncon,
            has_eweights,
        },
        lines: feed.line_no,
        bytes: feed.bytes,
        deferred,
        off: vec![0],
        ..Body::default()
    };
    body.read(&mut feed.reader)?;
    body.finish(m)
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
