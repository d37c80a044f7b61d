//! Deterministic failpoint injection — named fault sites for the chaos
//! suite and the resilient ladder's isolation tests.
//!
//! A *failpoint* is a named site in the solve path (`pipeline::shrink`,
//! `bnb::node`, and `splitter::split` before every split of any `Solver`,
//! a cascade's coarse solve included) where a fault can be injected
//! **only** by an explicit, seeded [`FaultSchedule`] armed for the current
//! thread with [`with_faults`]. There are deliberately no environment
//! variables, no global registries and no randomness sources here: a
//! schedule is plain data, [`FaultSchedule::chaos`] derives one from a
//! caller-provided seed with an internal splitmix64 stream, and two runs
//! under the same schedule inject the same faults at the same hit
//! indices — so every chaos failure replays from its seed (and the
//! `nondeterminism` lint has nothing to flag).
//!
//! ## Cost when disarmed
//!
//! Production code never arms a schedule, so the only cost a site pays on
//! the hot path is [`armed`]: one thread-local `Cell<bool>` read behind an
//! `#[inline]` fast path — no branch taken, no allocation. The schedule
//! machinery is reached only while a test holds the arming guard.
//!
//! ## Fault actions
//!
//! * [`FaultAction::Transient`] — a retryable failure. Fallible sites
//!   surface it as [`SolveError::Transient`]; infallible sites unwind
//!   with an [`InjectedPanic`] marked `transient: true` so an isolation
//!   boundary (the resilient ladder) can classify it and retry.
//! * [`FaultAction::Panic`] — a hard panic, unwinding with an
//!   [`InjectedPanic`] payload (`transient: false`).
//! * [`FaultAction::Stall`] — the site sleeps for a fixed number of
//!   milliseconds, simulating an overrun search node or a slow stage for
//!   deadline-overshoot tests. Deterministic in *behavior* (the output
//!   never depends on it), not in wall time.
//!
//! Injected unwinds start with [`std::panic::resume_unwind`], which skips
//! the panic hook: the isolation boundary that catches one reports it
//! itself, so an injected fault prints nothing, while a genuine panic
//! still reaches the hook.

use std::cell::{Cell, RefCell};
use std::time::Duration;

use crate::api::error::SolveError;

/// The canonical failpoint sites wired into the solve path (every
/// `Solver` split passes `splitter::split`). [`FaultSchedule::chaos`]
/// draws from exactly this list; handwritten schedules may add others.
pub const SITES: &[&str] = &[
    "pipeline::multibalance",
    "pipeline::shrink",
    "pipeline::binpack",
    "splitter::split",
    "bnb::solve",
    "bnb::node",
];

/// The failpoint sites of the `mmb-service` serving layer: request
/// admission, the artifact-cache lookup, and the per-request worker.
/// Kept separate from [`SITES`] so the seeded schedules `chaos` derives
/// for the solve path stay bit-identical; service chaos tests draw from
/// this list via [`FaultSchedule::chaos_over`].
pub const SERVICE_SITES: &[&str] = &["service::admit", "service::cache", "service::worker"];

/// What an armed failpoint does when its rule matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Unwind with an [`InjectedPanic`] payload (`transient: false`).
    Panic,
    /// Retryable failure: [`SolveError::Transient`] at fallible sites, a
    /// `transient: true` [`InjectedPanic`] at infallible ones.
    Transient,
    /// Sleep for the given number of milliseconds, then continue.
    Stall {
        /// Sleep duration in milliseconds.
        millis: u64,
    },
}

/// One injection rule: fire `action` at `site` on per-site hit indices
/// `from..from + count` (hits are counted from 0 per site, per arming).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct FaultRule {
    /// The site name this rule targets.
    site: &'static str,
    /// First per-site hit index (0-based) the rule fires on.
    from: u64,
    /// Number of consecutive hits to fire on (`u64::MAX` = forever).
    count: u64,
    /// The action to take.
    action: FaultAction,
}

impl FaultRule {
    fn matches(&self, site: &str, hit: u64) -> bool {
        self.site == site && hit >= self.from && hit - self.from < self.count
    }
}

/// An explicit, replayable set of injection rules. Plain data: arming one
/// ([`with_faults`]) is the only way any failpoint ever fires.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    rules: Vec<FaultRule>,
}

impl FaultSchedule {
    /// An empty schedule (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a rule firing once, on the `hit`-th time `site` is reached.
    pub fn once(mut self, site: &'static str, hit: u64, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            site,
            from: hit,
            count: 1,
            action,
        });
        self
    }

    /// Add a rule firing on every hit of `site`.
    pub fn always(mut self, site: &'static str, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            site,
            from: 0,
            count: u64::MAX,
            action,
        });
        self
    }

    /// Derive a small adversarial schedule from `seed` with an internal
    /// splitmix64 stream: 1–3 rules over the canonical [`SITES`], mixing
    /// panics, transients and short (≤ 4 ms) stalls at early hit indices.
    /// Same seed, same schedule — every chaos failure replays.
    pub fn chaos(seed: u64) -> Self {
        Self::chaos_over(seed, SITES)
    }

    /// [`FaultSchedule::chaos`], drawing sites from a caller-chosen list
    /// instead of the canonical solve-path [`SITES`] — e.g.
    /// [`SERVICE_SITES`] for the serving layer, or a mixed slice for
    /// end-to-end chaos. `chaos(seed)` ≡ `chaos_over(seed, SITES)`
    /// bit for bit, so existing seeded schedules are unaffected.
    pub fn chaos_over(seed: u64, sites: &[&'static str]) -> Self {
        assert!(!sites.is_empty(), "chaos_over needs at least one site");
        let mut state = seed;
        let mut next = move || -> u64 {
            // splitmix64 (Steele, Lea & Flood 2014) — tiny, seedable, and
            // good enough to scatter rules; not a crypto PRNG.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut schedule = FaultSchedule::new();
        let rules = 1 + (next() % 3);
        for _ in 0..rules {
            let site = sites[(next() % sites.len() as u64) as usize];
            let action = match next() % 4 {
                0 => FaultAction::Panic,
                1 | 2 => FaultAction::Transient,
                _ => FaultAction::Stall {
                    millis: 1 + next() % 4,
                },
            };
            schedule = schedule.once(site, next() % 6, action);
        }
        schedule
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// The panic payload of an injected [`FaultAction::Panic`] (or a
/// [`FaultAction::Transient`] raised at an infallible site). Isolation
/// boundaries downcast to this to distinguish injected faults — and
/// retryable ones — from genuine bugs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The site that fired.
    pub site: &'static str,
    /// Whether the fault was [`FaultAction::Transient`] (retryable).
    pub transient: bool,
}

/// One injected fault, recorded in the log returned by [`with_faults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// The site that fired.
    pub site: &'static str,
    /// The per-site hit index at which it fired.
    pub hit: u64,
    /// The action taken.
    pub action: FaultAction,
}

struct Armed {
    schedule: FaultSchedule,
    /// Per-site hit counters; linear scan — the site list is tiny and a
    /// Vec keeps iteration order deterministic by construction.
    counts: Vec<(&'static str, u64)>,
    log: Vec<FaultEvent>,
}

thread_local! {
    static ARMED_FLAG: Cell<bool> = const { Cell::new(false) };
    static ARMED: RefCell<Option<Armed>> = const { RefCell::new(None) };
}

/// Whether a fault schedule is armed on this thread. The disarmed fast
/// path every site check takes in production.
#[inline]
pub fn armed() -> bool {
    ARMED_FLAG.with(|f| f.get())
}

/// Number of faults injected so far under the currently armed schedule
/// (0 when disarmed). Lets a harness snapshot injection activity around a
/// region without waiting for [`with_faults`] to return.
pub fn injection_count() -> usize {
    if !armed() {
        return 0;
    }
    ARMED.with(|a| a.borrow().as_ref().map_or(0, |s| s.log.len()))
}

fn check(site: &'static str) -> Option<FaultAction> {
    if !armed() {
        return None;
    }
    ARMED.with(|a| {
        let mut guard = a.borrow_mut();
        let state = guard.as_mut()?;
        let hit = match state.counts.iter_mut().find(|(s, _)| *s == site) {
            Some((_, count)) => {
                let hit = *count;
                *count += 1;
                hit
            }
            None => {
                state.counts.push((site, 1));
                0
            }
        };
        let action = state
            .schedule
            .rules
            .iter()
            .find(|r| r.matches(site, hit))
            .map(|r| r.action)?;
        state.log.push(FaultEvent { site, hit, action });
        Some(action)
    })
}

/// Check the failpoint at `site` on a **fallible** path: transients come
/// back as [`SolveError::Transient`], panics unwind with an
/// [`InjectedPanic`] payload, stalls sleep and return `Ok`. A no-op
/// (`Ok(())`) when no schedule is armed.
#[inline]
pub fn raise(site: &'static str) -> Result<(), SolveError> {
    if !armed() {
        return Ok(());
    }
    raise_slow(site)
}

#[cold]
fn raise_slow(site: &'static str) -> Result<(), SolveError> {
    match check(site) {
        None => Ok(()),
        Some(FaultAction::Transient) => Err(SolveError::Transient { site }),
        Some(FaultAction::Panic) => std::panic::resume_unwind(Box::new(InjectedPanic {
            site,
            transient: false,
        })),
        Some(FaultAction::Stall { millis }) => {
            std::thread::sleep(Duration::from_millis(millis));
            Ok(())
        }
    }
}

/// Check the failpoint at `site` on an **infallible** path: both panics
/// and transients unwind with an [`InjectedPanic`] payload (transients
/// marked `transient: true` so an isolation boundary can retry), stalls
/// sleep. A no-op when no schedule is armed.
#[inline]
pub fn raise_any(site: &'static str) {
    if !armed() {
        return;
    }
    raise_any_slow(site);
}

#[cold]
fn raise_any_slow(site: &'static str) {
    match check(site) {
        None => {}
        Some(FaultAction::Panic) => std::panic::resume_unwind(Box::new(InjectedPanic {
            site,
            transient: false,
        })),
        Some(FaultAction::Transient) => unwind_transient(site),
        Some(FaultAction::Stall { millis }) => {
            std::thread::sleep(Duration::from_millis(millis));
        }
    }
}

/// Unwind with a `transient: true` [`InjectedPanic`] for `site`, without
/// the panic hook: how infallible code passes on an injected transient,
/// including a [`SolveError::Transient`] a fallible site returned to it,
/// so an isolation boundary can retry.
pub(crate) fn unwind_transient(site: &'static str) -> ! {
    std::panic::resume_unwind(Box::new(InjectedPanic {
        site,
        transient: true,
    }))
}

/// Render a caught panic payload for error reports: [`InjectedPanic`]s
/// name their site, `&str`/`String` payloads pass through, anything else
/// becomes an opaque marker.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(inj) = payload.downcast_ref::<InjectedPanic>() {
        return format!(
            "injected {} fault at failpoint `{}`",
            if inj.transient { "transient" } else { "panic" },
            inj.site
        );
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (*s).to_owned();
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.clone();
    }
    "opaque panic payload".to_owned()
}

/// Downcast a caught payload to the injected-fault marker, if it is one.
pub fn injected(payload: &(dyn std::any::Any + Send)) -> Option<InjectedPanic> {
    payload.downcast_ref::<InjectedPanic>().copied()
}

/// Restores the previously armed state (if any) when dropped — including
/// on unwind, so a panicking closure cannot leak an armed schedule into
/// unrelated code on this thread.
struct DisarmGuard {
    previous: Option<Armed>,
    previous_flag: bool,
}

impl Drop for DisarmGuard {
    fn drop(&mut self) {
        ARMED.with(|a| *a.borrow_mut() = self.previous.take());
        ARMED_FLAG.with(|f| f.set(self.previous_flag));
    }
}

/// Arm `schedule` on this thread, run `f`, disarm, and return `f`'s
/// result together with the log of faults actually injected. Nests: an
/// inner `with_faults` shadows the outer schedule and restores it on
/// exit. If `f` unwinds, the guard still disarms before the panic
/// propagates (the log of the unwound run is discarded with it — catch
/// inside `f` if you need it).
pub fn with_faults<R>(schedule: &FaultSchedule, f: impl FnOnce() -> R) -> (R, Vec<FaultEvent>) {
    let guard = DisarmGuard {
        previous: ARMED.with(|a| a.borrow_mut().take()),
        previous_flag: ARMED_FLAG.with(|fl| fl.get()),
    };
    ARMED.with(|a| {
        *a.borrow_mut() = Some(Armed {
            schedule: schedule.clone(),
            counts: Vec::new(),
            log: Vec::new(),
        })
    });
    ARMED_FLAG.with(|fl| fl.set(true));
    let result = f();
    let log = ARMED.with(|a| a.borrow_mut().take().map_or_else(Vec::new, |s| s.log));
    drop(guard);
    (result, log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_is_chaos_over_the_canonical_sites() {
        // Pinned: generalizing the generator must not reshuffle the
        // seeded schedules the chaos suite and CI replay.
        for seed in [0u64, 1, 2, 3, 5, 8, 0xc0ffee, u64::MAX] {
            assert_eq!(
                FaultSchedule::chaos(seed),
                FaultSchedule::chaos_over(seed, SITES)
            );
        }
    }

    #[test]
    fn chaos_over_draws_only_from_the_given_sites() {
        for seed in 0..64u64 {
            let schedule = FaultSchedule::chaos_over(seed, SERVICE_SITES);
            let dump = format!("{schedule:?}");
            assert!(
                SERVICE_SITES.iter().any(|s| dump.contains(s)),
                "no service site in {dump}"
            );
            for s in SITES {
                assert!(!dump.contains(s), "solve-path site {s} leaked into {dump}");
            }
        }
    }

    #[test]
    fn disarmed_sites_are_inert() {
        assert!(!armed());
        assert!(raise("pipeline::shrink").is_ok());
        raise_any("bnb::node");
        assert_eq!(injection_count(), 0);
    }

    #[test]
    fn once_rule_fires_on_the_exact_hit() {
        let schedule = FaultSchedule::new().once("bnb::solve", 2, FaultAction::Transient);
        let (hits, log) = with_faults(&schedule, || {
            (0..5)
                .map(|_| raise("bnb::solve").is_err())
                .collect::<Vec<_>>()
        });
        assert_eq!(hits, [false, false, true, false, false]);
        assert_eq!(
            log,
            [FaultEvent {
                site: "bnb::solve",
                hit: 2,
                action: FaultAction::Transient
            }]
        );
        assert!(!armed(), "guard must disarm on exit");
    }

    #[test]
    fn always_rule_fires_forever_and_only_at_its_site() {
        let schedule = FaultSchedule::new().always("pipeline::shrink", FaultAction::Transient);
        let ((a, b), log) = with_faults(&schedule, || {
            let a = (0..3)
                .filter(|_| raise("pipeline::shrink").is_err())
                .count();
            let b = (0..3)
                .filter(|_| raise("pipeline::binpack").is_err())
                .count();
            (a, b)
        });
        assert_eq!((a, b), (3, 0));
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn transient_error_is_typed_with_the_site() {
        let schedule = FaultSchedule::new().once("bnb::solve", 0, FaultAction::Transient);
        let (err, _) = with_faults(&schedule, || raise("bnb::solve").unwrap_err());
        assert_eq!(err, SolveError::Transient { site: "bnb::solve" });
    }

    #[test]
    fn injected_panics_carry_a_downcastable_payload() {
        let schedule = FaultSchedule::new().once("pipeline::multibalance", 0, FaultAction::Panic);
        let (caught, _) = with_faults(&schedule, || {
            std::panic::catch_unwind(|| raise_any("pipeline::multibalance")).unwrap_err()
        });
        let inj = injected(caught.as_ref()).expect("payload is InjectedPanic");
        assert_eq!(inj.site, "pipeline::multibalance");
        assert!(!inj.transient);
        assert!(panic_message(caught.as_ref()).contains("pipeline::multibalance"));
    }

    #[test]
    fn transient_at_infallible_site_unwinds_marked_retryable() {
        let schedule = FaultSchedule::new().once("splitter::split", 0, FaultAction::Transient);
        let (caught, _) = with_faults(&schedule, || {
            std::panic::catch_unwind(|| raise_any("splitter::split")).unwrap_err()
        });
        assert!(injected(caught.as_ref()).unwrap().transient);
    }

    #[test]
    fn schedules_replay_bit_identically_and_chaos_is_seed_deterministic() {
        for seed in [0, 1, 7, 0xdead_beef] {
            assert_eq!(FaultSchedule::chaos(seed), FaultSchedule::chaos(seed));
            assert!(!FaultSchedule::chaos(seed).is_empty());
        }
        // Distinct seeds should not all collapse to one schedule.
        let distinct = (0..16)
            .map(FaultSchedule::chaos)
            .collect::<Vec<_>>()
            .windows(2)
            .any(|w| w[0] != w[1]);
        assert!(distinct);
    }

    #[test]
    fn arming_nests_and_restores() {
        let outer = FaultSchedule::new().always("bnb::solve", FaultAction::Transient);
        let inner = FaultSchedule::new(); // injects nothing
        let ((), _) = with_faults(&outer, || {
            assert!(raise("bnb::solve").is_err());
            let (ok, _) = with_faults(&inner, || raise("bnb::solve").is_ok());
            assert!(ok, "inner schedule shadows the outer one");
            assert!(raise("bnb::solve").is_err(), "outer schedule restored");
        });
        assert!(!armed());
    }

    #[test]
    fn guard_disarms_even_when_the_closure_unwinds() {
        let schedule = FaultSchedule::new().always("bnb::solve", FaultAction::Panic);
        let attempt = std::panic::catch_unwind(|| {
            with_faults(&schedule, || raise_any("bnb::solve"));
        });
        assert!(attempt.is_err());
        assert!(!armed(), "unwind must not leak an armed schedule");
        assert!(raise("bnb::solve").is_ok());
    }

    #[test]
    fn stall_continues_without_failing() {
        let schedule = FaultSchedule::new().once("bnb::node", 0, FaultAction::Stall { millis: 1 });
        let (ok, log) = with_faults(&schedule, || raise("bnb::node").is_ok());
        assert!(ok);
        assert_eq!(log.len(), 1);
    }
}
