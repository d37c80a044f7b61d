//! Reusable scratch workspaces for the decomposition hot path.
//!
//! The divide-and-conquer algorithms (shrink recursion of Section 5,
//! `BinPack1/2`, the rebalance loop) repeatedly materialize dense vertex
//! measures — boundary measures, the splitting-cost measure `π`, induced
//! degrees — over working sets `W` that shrink geometrically. Allocating
//! and zeroing a `vec![0.0; n]` for each of those costs `O(n)` per call
//! even when `vol(W)` is tiny, which is what made the implementation
//! super-linear in practice despite Theorem 4's linear-time statement.
//!
//! A [`Workspace`] fixes this with *epoch-stamped dense scratch vectors*:
//!
//! * a pool of buffers, each a dense `f64` vector kept **all-zero between
//!   uses**, plus a `u32` stamp vector and a sparse *touched list*;
//! * checking a buffer out ([`Workspace::measure`]) bumps its epoch and
//!   clears the touched list — `O(1)`;
//! * writes ([`ScratchMeasure::add`] / [`ScratchMeasure::set`]) record the
//!   first touch of each index via the epoch stamp, so the touched list
//!   stays duplicate-free;
//! * dropping the [`ScratchMeasure`] guard zeroes **only the touched
//!   entries** — `O(touched)`, not `O(n)` — and returns the buffer to the
//!   pool.
//!
//! Because untouched entries are genuinely `0.0` (not stale), a checked-out
//! buffer exposes a plain dense [`ScratchMeasure::as_slice`] view that
//! drops into every existing `&[f64]`-consuming measure function
//! unchanged; the accumulation order — and therefore every downstream
//! floating-point result — is bit-identical to the allocating path.
//!
//! A `Workspace` is single-threaded (`!Sync`, interior mutability via
//! `RefCell`) by design: parallel callers use one workspace per worker,
//! most conveniently the per-thread instance behind
//! [`Workspace::with_local`].

use std::cell::RefCell;

use crate::graph::VertexId;

/// Allocation / reuse counters of a [`Workspace`] — the "RSS proxy" that
/// the scale-path tests budget and `perfbench` reports per layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Buffer checkouts ([`Workspace::measure`] calls).
    pub acquires: u64,
    /// Checkouts that had to allocate because the pool was empty.
    pub fresh_allocs: u64,
    /// Total entries written (and later re-zeroed) across all checkouts —
    /// the `O(vol(W))` work the workspace path actually does.
    pub cells_touched: u64,
    /// High-water mark of concurrently checked-out buffers.
    pub peak_live: usize,
    /// Currently checked-out buffers.
    pub live: usize,
    /// Bytes currently charged by flat-arena users (streaming METIS
    /// ingestion, the coarsening cascade) via
    /// [`Workspace::charge_arena_bytes`].
    pub arena_live_bytes: u64,
    /// High-water mark of [`arena_live_bytes`](Self::arena_live_bytes) —
    /// the ingestion + coarsening component of the RSS proxy.
    pub arena_peak_bytes: u64,
}

impl WorkspaceStats {
    /// Bytes the live high-water mark pins per vertex of universe `n`:
    /// `peak_live × n × (8 + 4)` (values + stamps).
    pub fn peak_bytes(&self, n: usize) -> u64 {
        self.peak_live as u64 * n as u64 * 12
    }

    /// Full RSS proxy: scratch-buffer high water for universe `n` plus the
    /// arena high water charged by ingestion and coarsening.
    pub fn peak_total_bytes(&self, n: usize) -> u64 {
        self.peak_bytes(n) + self.arena_peak_bytes
    }
}

/// One pooled buffer: dense values (all-zero between uses), epoch stamps,
/// and the touched list of the current checkout.
#[derive(Default)]
struct ScratchData {
    vals: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    touched: Vec<VertexId>,
}

/// A pool of reusable scratch buffers (see the [module docs](self)).
#[derive(Default)]
pub struct Workspace {
    pool: RefCell<Vec<ScratchData>>,
    stats: RefCell<WorkspaceStats>,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats.borrow();
        f.debug_struct("Workspace")
            .field("pooled", &self.pool.borrow().len())
            .field("stats", &*stats)
            .finish()
    }
}

thread_local! {
    static LOCAL: Workspace = Workspace::new();
}

impl Workspace {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f` against this thread's shared workspace. The instance lives
    /// for the thread's lifetime, so buffers are amortized across *all*
    /// solves on the thread — including every request a serving worker
    /// processes.
    pub fn with_local<R>(f: impl FnOnce(&Workspace) -> R) -> R {
        LOCAL.with(f)
    }

    /// Check out a dense scratch measure over universe `0..n`, all-zero.
    pub fn measure(&self, n: usize) -> ScratchMeasure<'_> {
        let mut d = self.pool.borrow_mut().pop().unwrap_or_default();
        let fresh = d.vals.is_empty() && d.vals.capacity() == 0;
        if d.vals.len() < n {
            d.vals.resize(n, 0.0);
            d.stamp.resize(n, 0);
        }
        d.epoch = d.epoch.wrapping_add(1);
        if d.epoch == 0 {
            d.stamp.fill(0);
            d.epoch = 1;
        }
        d.touched.clear();
        {
            let mut s = self.stats.borrow_mut();
            s.acquires += 1;
            if fresh {
                s.fresh_allocs += 1;
            }
            s.live += 1;
            s.peak_live = s.peak_live.max(s.live);
        }
        ScratchMeasure {
            ws: self,
            data: d,
            n,
        }
    }

    /// Snapshot of the allocation/reuse counters.
    pub fn stats(&self) -> WorkspaceStats {
        *self.stats.borrow()
    }

    /// Zero all counters (buffers stay pooled). Currently-live checkouts
    /// and arena charges carry over as the new baseline.
    pub fn reset_stats(&self) {
        let (live, arena_live) = {
            let s = self.stats.borrow();
            (s.live, s.arena_live_bytes)
        };
        *self.stats.borrow_mut() = WorkspaceStats {
            live,
            peak_live: live,
            arena_live_bytes: arena_live,
            arena_peak_bytes: arena_live,
            ..Default::default()
        };
    }

    /// Charge `bytes` of flat-arena memory (streaming ingestion buffers, a
    /// coarsening level's contracted graph) against this workspace's RSS
    /// proxy. Pair with [`release_arena_bytes`](Self::release_arena_bytes)
    /// when the arena is dropped; the high water lands in
    /// [`WorkspaceStats::arena_peak_bytes`].
    pub fn charge_arena_bytes(&self, bytes: u64) {
        let mut s = self.stats.borrow_mut();
        s.arena_live_bytes += bytes;
        s.arena_peak_bytes = s.arena_peak_bytes.max(s.arena_live_bytes);
    }

    /// Release a previous [`charge_arena_bytes`](Self::charge_arena_bytes).
    pub fn release_arena_bytes(&self, bytes: u64) {
        let mut s = self.stats.borrow_mut();
        s.arena_live_bytes = s.arena_live_bytes.saturating_sub(bytes);
    }

    /// Record a transient arena high water: charge and immediately release,
    /// so only [`WorkspaceStats::arena_peak_bytes`] moves. Used by the
    /// streaming METIS parser, whose arenas die before it returns.
    pub fn note_transient_arena_bytes(&self, bytes: u64) {
        self.charge_arena_bytes(bytes);
        self.release_arena_bytes(bytes);
    }

    /// Test hook: pin the epoch of every pooled buffer, so the
    /// wraparound path (`wrapping_add` → `epoch == 0` → stamp refill) can
    /// be exercised without 2³² checkouts.
    #[cfg(test)]
    fn set_pool_epochs(&self, epoch: u32) {
        for d in self.pool.borrow_mut().iter_mut() {
            d.epoch = epoch;
        }
    }

    fn give_back(&self, mut d: ScratchData, touched_now: u64) {
        {
            let mut s = self.stats.borrow_mut();
            s.cells_touched += touched_now;
            s.live -= 1;
        }
        for &v in &d.touched {
            d.vals[v as usize] = 0.0;
        }
        d.touched.clear();
        self.pool.borrow_mut().push(d);
    }
}

/// A checked-out dense scratch measure over `0..n`; zeroes its touched
/// entries and returns to the pool on drop. See the [module docs](self).
pub struct ScratchMeasure<'ws> {
    ws: &'ws Workspace,
    data: ScratchData,
    n: usize,
}

impl ScratchMeasure<'_> {
    /// Universe size `n`.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the universe is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn touch(&mut self, i: usize) {
        // Hard assert: a pooled buffer can be longer than the current
        // universe, so an out-of-range write would otherwise land in the
        // slack silently (the allocating path it replaces panicked here).
        assert!(i < self.n, "index {i} outside scratch universe {}", self.n);
        if self.data.stamp[i] != self.data.epoch {
            self.data.stamp[i] = self.data.epoch;
            self.data.touched.push(i as VertexId);
        }
    }

    /// Accumulate `x` into entry `v`.
    #[inline]
    pub fn add(&mut self, v: VertexId, x: f64) {
        self.touch(v as usize);
        self.data.vals[v as usize] += x;
    }

    /// Overwrite entry `v` with `x`.
    #[inline]
    pub fn set(&mut self, v: VertexId, x: f64) {
        self.touch(v as usize);
        self.data.vals[v as usize] = x;
    }

    /// Read entry `v` (0.0 if never written this checkout).
    #[inline]
    pub fn get(&self, v: VertexId) -> f64 {
        assert!(
            (v as usize) < self.n,
            "index {v} outside scratch universe {}",
            self.n
        );
        self.data.vals[v as usize]
    }

    /// The dense view `&[f64]` of length `n`; untouched entries are `0.0`,
    /// so this is exactly the vector the allocating path would have built.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data.vals[..self.n]
    }

    /// Indices written this checkout, in first-touch order,
    /// duplicate-free.
    pub fn touched(&self) -> &[VertexId] {
        &self.data.touched
    }

    /// Clone the dense view into an owned measure (the legacy return
    /// shape).
    pub fn to_measure(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
}

impl Drop for ScratchMeasure<'_> {
    fn drop(&mut self) {
        let d = std::mem::take(&mut self.data);
        let touched = d.touched.len() as u64;
        self.ws.give_back(d, touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_view_matches_allocating_semantics() {
        let ws = Workspace::new();
        let mut m = ws.measure(8);
        m.add(2, 1.5);
        m.add(2, 0.5);
        m.set(5, 7.0);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 2.0, 0.0, 0.0, 7.0, 0.0, 0.0]);
        assert_eq!(m.get(2), 2.0);
        assert_eq!(m.get(0), 0.0);
        assert_eq!(m.touched(), &[2, 5]); // duplicate-free, first-touch order
        assert_eq!(m.to_measure(), vec![0.0, 0.0, 2.0, 0.0, 0.0, 7.0, 0.0, 0.0]);
    }

    #[test]
    fn buffers_are_reused_and_rezeroed() {
        let ws = Workspace::new();
        {
            let mut m = ws.measure(100);
            for v in 0..50u32 {
                m.add(v, 1.0);
            }
        }
        {
            let m = ws.measure(100);
            assert!(
                m.as_slice().iter().all(|&x| x == 0.0),
                "stale data survived"
            );
        }
        let s = ws.stats();
        assert_eq!(s.acquires, 2);
        assert_eq!(
            s.fresh_allocs, 1,
            "second checkout must reuse the pooled buffer"
        );
        assert_eq!(s.cells_touched, 50);
    }

    #[test]
    fn concurrent_checkouts_use_distinct_buffers() {
        let ws = Workspace::new();
        let mut a = ws.measure(10);
        let mut b = ws.measure(10);
        a.add(3, 1.0);
        b.add(3, 2.0);
        assert_eq!(a.get(3), 1.0);
        assert_eq!(b.get(3), 2.0);
        assert_eq!(ws.stats().peak_live, 2);
        drop(a);
        drop(b);
        assert_eq!(ws.stats().live, 0);
    }

    #[test]
    fn growing_universe_is_fine() {
        let ws = Workspace::new();
        {
            let mut m = ws.measure(4);
            m.add(3, 1.0);
        }
        {
            let mut m = ws.measure(16);
            assert_eq!(m.len(), 16);
            assert!(m.as_slice().iter().all(|&x| x == 0.0));
            m.add(15, 2.0);
            assert_eq!(m.get(15), 2.0);
        }
        // Shrinking view over a larger pooled buffer.
        {
            let m = ws.measure(2);
            assert_eq!(m.as_slice().len(), 2);
        }
    }

    #[test]
    fn thread_local_workspace_is_shared_within_a_thread() {
        Workspace::with_local(|ws| ws.reset_stats());
        Workspace::with_local(|ws| {
            let mut m = ws.measure(10);
            m.add(0, 1.0);
        });
        let allocs = Workspace::with_local(|ws| {
            let _m = ws.measure(10);
            ws.stats().fresh_allocs
        });
        assert_eq!(allocs, 1, "second local checkout must hit the pool");
    }

    #[test]
    fn epoch_wraparound_keeps_the_buffer_clean() {
        // Audit of the `wrapping_add` → `epoch == 0` re-zero path: a
        // buffer whose epoch is at `u32::MAX` wraps on the next checkout.
        // The stamps then hold values from *old* epochs (here 1 — exactly
        // the value the post-wrap epoch restarts at), so without the
        // stamp refill a stale stamp would alias the new epoch, writes
        // would go unrecorded in the touched list, and their values would
        // leak into later checkouts.
        let ws = Workspace::new();
        {
            let mut m = ws.measure(16);
            for v in 0..8u32 {
                m.add(v, 1.0); // stamps[0..8] = 1
            }
        }
        ws.set_pool_epochs(u32::MAX);
        {
            let mut m = ws.measure(16); // wraps: stamps refilled, epoch = 1
            assert!(
                m.as_slice().iter().all(|&x| x == 0.0),
                "dense view not all-zero after wrap"
            );
            assert!(m.touched().is_empty(), "touched list not empty after wrap");
            // Index 3 carried stamp 1 before the refill; its write must
            // still be recorded exactly once.
            m.add(3, 2.0);
            m.add(3, 0.5);
            assert_eq!(m.touched(), &[3], "stale stamp aliased the post-wrap epoch");
            assert_eq!(m.get(3), 2.5);
        }
        // The recorded touch was re-zeroed on drop: the next checkout is
        // clean again.
        {
            let m = ws.measure(16);
            assert!(
                m.as_slice().iter().all(|&x| x == 0.0),
                "post-wrap write leaked"
            );
            assert!(m.touched().is_empty());
        }
    }

    #[test]
    fn reset_stats_keeps_live_buffers_consistent() {
        let ws = Workspace::new();
        let guard = ws.measure(5);
        ws.reset_stats();
        assert_eq!(ws.stats().live, 1);
        drop(guard);
        assert_eq!(ws.stats().live, 0);
    }
}
