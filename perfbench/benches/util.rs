//! Seeded randomness, timing, summary statistics, the per-layer trace
//! sink and the result record every workload returns.

use std::collections::BTreeMap;
use std::time::Instant;

/// splitmix64: a tiny seeded stream, so every generated input is a pure
/// function of the `--seed` argument.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// An independent sub-seed for the input part named by `tag`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}

/// Run `f`, returning its result and wall-clock milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100] of `xs`, with the number of
/// samples beyond it.
pub fn percentile(xs: &[f64], q: f64) -> (f64, usize) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * s.len() as f64).ceil().max(1.0) as usize;
    (
        s.get(rank - 1).copied().unwrap_or(0.0),
        s.len().saturating_sub(rank),
    )
}

pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Per-layer sink of the traced run: busy milliseconds per span name and
/// named counters, summed over every op it saw. Spans are recorded by the
/// benchmark around its own calls into each layer's public functions.
#[derive(Default)]
pub struct Trace {
    ms: BTreeMap<&'static str, f64>,
    counts: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// Time `f` as one span of layer `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = timed(f);
        self.add_ms(name, ms);
        out
    }

    pub fn add_ms(&mut self, name: &'static str, ms: f64) {
        *self.ms.entry(name).or_default() += ms;
    }

    pub fn count(&mut self, name: &'static str, x: f64) {
        *self.counts.entry(name).or_default() += x;
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.ms.get(name).copied().unwrap_or(0.0)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of every span: the op time the trace attributes to a layer.
    pub fn attributed_ms(&self) -> f64 {
        self.ms.values().sum()
    }

    pub fn absorb(&mut self, other: &Trace) {
        for (k, v) in &other.ms {
            *self.ms.entry(k).or_default() += v;
        }
        for (k, v) in &other.counts {
            *self.counts.entry(k).or_default() += v;
        }
    }
}

/// One benchmark run's outcome. `details` are extra JSON fields (input
/// fingerprints, tail percentile, per-op remainders) written to stderr.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub details: Vec<(&'static str, String)>,
}

/// One unit of measured work: the ops it completed as `(input index,
/// latency ms)`, and the busy time they took together (ops served in one
/// batch overlap, so their latencies do not add up).
pub struct Round {
    pub ops: Vec<(usize, f64)>,
    pub busy_ms: f64,
}

/// The end-to-end metrics every workload reports, from its untraced run.
///
/// The rounds are cut into `windows` consecutive windows and the latency
/// and throughput metrics come from the faster half of them. On a shared
/// host, load from other tenants slows this process down in bursts, by up
/// to a half; it never speeds it up, so the faster half measures the
/// program and the slower half mostly the neighbours.
/// Within the kept windows, `op_p50_ms` and `op_tail_ms` are geometric
/// means over inputs of each input's median and `tail_q` percentile (for
/// a mix of families a pooled percentile sits in the gap between two
/// families and jumps with the mix), and `ops_per_s` is the median
/// window's ops per busy second. `max_boundaries` are the served max
/// boundary costs the quality metric averages.
pub fn end_to_end(
    setup_s: f64,
    inputs: usize,
    rounds: &[Round],
    windows: usize,
    tail_q: f64,
    max_boundaries: &[f64],
    details: &mut Vec<(&'static str, String)>,
) -> Vec<(&'static str, f64, &'static str)> {
    let w = windows.min(rounds.len()).max(1);
    let mut windows: Vec<(f64, &[Round])> = (0..w)
        .map(|i| {
            let chunk = &rounds[i * rounds.len() / w..(i + 1) * rounds.len() / w];
            let ops: usize = chunk.iter().map(|r| r.ops.len()).sum();
            let busy: f64 = chunk.iter().map(|r| r.busy_ms).sum();
            (ops as f64 / (busy / 1e3).max(1e-12), chunk)
        })
        .collect();
    windows.sort_by(|a, b| b.0.total_cmp(&a.0));
    windows.truncate(w.div_ceil(2));
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs];
    for (_, chunk) in &windows {
        for &(i, ms) in chunk.iter().flat_map(|r| &r.ops) {
            per_input[i].push(ms);
        }
    }
    let p50s: Vec<f64> = per_input.iter().map(|x| median(x)).collect();
    let tails: Vec<(f64, usize)> = per_input.iter().map(|x| percentile(x, tail_q)).collect();
    let rates: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let ops: usize = rounds.iter().map(|r| r.ops.len()).sum();
    details.push(("ops", ops.to_string()));
    details.push(("window_rates_kept", num_list(&rates)));
    details.push(("input_p50_ms", num_list(&p50s)));
    details.push(("tail_percentile", num(tail_q)));
    details.push((
        "tail_samples_beyond",
        format!("{:?}", tails.iter().map(|t| t.1).collect::<Vec<_>>()),
    ));
    vec![
        ("setup_s", setup_s, "s"),
        ("op_p50_ms", geo_mean(&p50s), "ms"),
        (
            "op_tail_ms",
            geo_mean(&tails.iter().map(|t| t.0).collect::<Vec<_>>()),
            "ms",
        ),
        ("ops_per_s", median(&rates), "1/s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("max_boundary_gm", geo_mean(max_boundaries), "cost"),
    ]
}

/// A float as JSON: full round-trip digits, `null` if not finite.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

/// A list of floats as a JSON array.
pub fn num_list(xs: &[f64]) -> String {
    let parts: Vec<String> = xs.iter().map(|&x| num(x)).collect();
    format!("[{}]", parts.join(","))
}

/// Hex fingerprints as a JSON array of strings.
pub fn hex_list(xs: &[u64]) -> String {
    let parts: Vec<String> = xs.iter().map(|x| format!("\"{x:016x}\"")).collect();
    format!("[{}]", parts.join(","))
}
