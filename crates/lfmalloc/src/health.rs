//! Liveness watchdog and health reporting.
//!
//! The paper's central claim is lock-freedom — "immune to deadlock and
//! livelock regardless of scheduling" — but lock-freedom is a property of
//! the *algorithm*, not of a deployed process: a corrupted anchor, a
//! mis-seeded failpoint plan, or pathological cross-thread interference
//! shows up as a CAS retry loop that spins far past anything honest
//! contention produces, and without instrumentation it spins silently.
//! This module makes liveness observable and (optionally) enforceable:
//!
//! * Every instrumented retry loop keeps one tally
//!   (`observe::Retries`, which also feeds the `stats` build's retry
//!   histograms) and hands it to [`watch`] after each failed CAS, which
//!   compares it against the configured
//!   [`LivenessConfig::retry_ceiling`].
//! * Crossing the ceiling is a *storm*. What happens next is the
//!   [`LivenessPolicy`]: `Ignore` (count nothing), `Throttle` (inject
//!   escalated backoff so the storming thread stops saturating the
//!   contended line), `Report` (default — count it, and under the
//!   `stats` feature emit a [`LivenessStorm`](crate::stats::EventKind)
//!   event into the event ring), or `Abort` (fail-stop: panic with the
//!   site and tally, turning a silent livelock into a loud crash).
//! * [`LfMalloc::health`](crate::LfMalloc::health) aggregates the storm
//!   counters with maintenance progress (see [`crate::maintain`]),
//!   descriptor free-stack and partial-list depths, quarantine depth,
//!   last-audit outcome, and OS
//!   bytes vs. the trim watermark into a [`HealthSnapshot`] whose
//!   [`is_degraded`](HealthSnapshot::is_degraded) gives a single verdict.
//!
//! The watchdog itself is lock-free and costs nothing on the success
//! path: the check runs only after a CAS *failure*, and is one branch on
//! a thread-local tally. The counters are plain relaxed atomics — they
//! observe, never order.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::anchor::SbState;
use crate::heap::ProcHeap;
use crate::instance::{Inner, LfMalloc};
use crate::size_classes::NUM_CLASSES;
use osmem::PageSource;

/// What the watchdog does when a retry loop crosses the ceiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LivenessPolicy {
    /// No detection at all (the pure paper hot path).
    Ignore,
    /// Count the storm and inject escalated backoff each time the tally
    /// crosses another multiple of the ceiling, de-saturating the
    /// contended cache line. The loop itself stays lock-free: backoff
    /// delays the storming thread, it never blocks it.
    Throttle,
    /// Count the storm in process-wide and per-instance counters and
    /// (under `stats`) emit a structured event into the event ring.
    /// The operation continues unhindered.
    #[default]
    Report,
    /// Fail-stop: panic with the site and retry tally. For deployments
    /// that prefer a crash to a silent livelock.
    Abort,
}

impl LivenessPolicy {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LivenessPolicy::Ignore => "ignore",
            LivenessPolicy::Throttle => "throttle",
            LivenessPolicy::Report => "report",
            LivenessPolicy::Abort => "abort",
        }
    }
}

/// Default retry ceiling: honest contention on a hot anchor produces
/// tallies in the tens (see the PR-4 histograms, which bucket at 64+);
/// 4096 consecutive failed CASes of one operation is orders of magnitude
/// past that and indicates interference that is not making progress
/// *against us* so much as something pathological.
pub const DEFAULT_RETRY_CEILING: u32 = 4096;

/// Watchdog configuration: ceiling + escalation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LivenessConfig {
    /// Consecutive failed retries of one operation that count as a
    /// storm. Clamped to at least 1 at evaluation time.
    pub retry_ceiling: u32,
    /// Escalation policy once the ceiling is crossed.
    pub policy: LivenessPolicy,
}

impl LivenessConfig {
    /// Explicit configuration.
    pub const fn new(retry_ceiling: u32, policy: LivenessPolicy) -> Self {
        LivenessConfig { retry_ceiling, policy }
    }

    /// The default (`Report` at [`DEFAULT_RETRY_CEILING`]) as a `const`
    /// so [`Config`](crate::Config)'s const constructors can embed it.
    pub const fn default_const() -> Self {
        LivenessConfig { retry_ceiling: DEFAULT_RETRY_CEILING, policy: LivenessPolicy::Report }
    }
}

impl Default for LivenessConfig {
    fn default() -> Self {
        Self::default_const()
    }
}

/// The instrumented CAS retry sites, in the order their storm counters
/// appear in [`HealthSnapshot::storms`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum WatchSite {
    /// `malloc_from_active`: credit-reservation CAS on the Active word.
    ActiveReserve = 0,
    /// `malloc_from_active`: block-pop CAS on the anchor.
    ActivePop = 1,
    /// `malloc_from_partial`: credit-reservation CAS on a partial anchor.
    PartialReserve = 2,
    /// `malloc_from_partial` / `heap_get_partial`: partial block pop and
    /// heap-slot exchange.
    PartialPop = 3,
    /// `update_active`: returning unused credits to the anchor.
    UpdateActive = 4,
    /// `free`: pushing a block onto its superblock's free list.
    FreeLink = 5,
}

/// Number of [`WatchSite`]s (length of [`HealthSnapshot::storms`]).
pub const NUM_WATCH_SITES: usize = 6;

/// The sites, in [`WatchSite`] order: the label reports and the JSON use,
/// and the failpoint whose `Retry` action forces lost turns at the site
/// (DESIGN.md §6, §10) — the other two loops have no failpoint inside.
const SITES: [(&str, Option<&str>); NUM_WATCH_SITES] = [
    ("active.reserve", Some("active.reserve")),
    ("active.pop", Some("active.pop")),
    ("partial.reserve", None),
    ("partial.pop", Some("partial.get")),
    ("active.update", None),
    ("free.link", Some("free.link")),
];

impl WatchSite {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        SITES[self as usize].0
    }

    /// The failpoint that forces retries at this site, if one does: arm
    /// it with `FpAction::Retry` to seed a storm there.
    pub fn forced_by(self) -> Option<&'static str> {
        SITES[self as usize].1
    }
}

/// Process-wide storm counter (all instances), for fleet-style health
/// probes that don't hold an instance handle.
static PROCESS_STORMS: AtomicU64 = AtomicU64::new(0);
/// Process-wide throttle-activation counter.
static PROCESS_THROTTLES: AtomicU64 = AtomicU64::new(0);

/// Process-wide liveness counters: `(storms, throttle_activations)`
/// summed over every allocator instance in this process.
pub fn process_liveness_counters() -> (u64, u64) {
    (PROCESS_STORMS.load(Ordering::Relaxed), PROCESS_THROTTLES.load(Ordering::Relaxed))
}

/// Sentinel for "no full audit has run yet".
const AUDIT_NEVER: u64 = u64::MAX;

/// Always-compiled health counters, one set per allocator instance.
/// Unlike the `stats`-gated telemetry, these exist in every build: the
/// watchdog is part of the robustness story, not the profiling story.
/// (The four `pub(crate)` ones are what the crash reporter prints:
/// relaxed loads, safe from a signal handler.)
#[derive(Debug)]
pub(crate) struct HealthState {
    /// Storms detected per [`WatchSite`].
    pub(crate) storms: [AtomicU64; NUM_WATCH_SITES],
    /// Throttle activations (escalated-backoff injections).
    pub(crate) throttles: AtomicU64,
    /// Completed [`maintain`](crate::LfMalloc::maintain) passes
    /// (including reaper-driven ones).
    pub(crate) maintain_passes: AtomicU64,
    /// Maintenance passes driven by the background reaper specifically.
    reaper_passes: AtomicU64,
    /// Quarantined blocks released by maintenance.
    quarantine_flushed: AtomicU64,
    /// EMPTY descriptors pruned off heap slots / partial lists by
    /// maintenance.
    empty_pruned: AtomicU64,
    /// Descriptors checked by bounded audit slices.
    audit_slice_checked: AtomicU64,
    /// Invariant violations flagged by audit slices (advisory — see
    /// [`crate::maintain`] on why slices can be racy).
    audit_slice_flagged: AtomicU64,
    /// Violation count of the last *full* `audit()` ([`AUDIT_NEVER`] =
    /// never ran).
    last_audit_violations: AtomicU64,
    /// Child-side fork recoveries performed (see [`crate::fork`]).
    pub(crate) fork_recoveries: AtomicU64,
    /// Audit-slice cursor into the descriptor universe.
    audit_cursor: AtomicUsize,
    /// Last trim target handed to maintenance ([`usize::MAX`] = none).
    watermark: AtomicUsize,
}

impl HealthState {
    pub(crate) fn new() -> Self {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        HealthState {
            storms: [ZERO; NUM_WATCH_SITES],
            throttles: AtomicU64::new(0),
            maintain_passes: AtomicU64::new(0),
            reaper_passes: AtomicU64::new(0),
            quarantine_flushed: AtomicU64::new(0),
            empty_pruned: AtomicU64::new(0),
            audit_slice_checked: AtomicU64::new(0),
            audit_slice_flagged: AtomicU64::new(0),
            last_audit_violations: AtomicU64::new(AUDIT_NEVER),
            fork_recoveries: AtomicU64::new(0),
            audit_cursor: AtomicUsize::new(0),
            watermark: AtomicUsize::new(usize::MAX),
        }
    }

    pub(crate) fn note_maintain(
        &self,
        from_reaper: bool,
        flushed: u64,
        pruned: u64,
        slice_checked: u64,
        slice_flagged: u64,
    ) {
        self.maintain_passes.fetch_add(1, Ordering::Relaxed);
        if from_reaper {
            self.reaper_passes.fetch_add(1, Ordering::Relaxed);
        }
        self.quarantine_flushed.fetch_add(flushed, Ordering::Relaxed);
        self.empty_pruned.fetch_add(pruned, Ordering::Relaxed);
        self.audit_slice_checked.fetch_add(slice_checked, Ordering::Relaxed);
        self.audit_slice_flagged.fetch_add(slice_flagged, Ordering::Relaxed);
    }

    /// Records the outcome of a full `audit()`.
    pub(crate) fn note_full_audit(&self, violations: u64) {
        self.last_audit_violations.store(violations, Ordering::Relaxed);
    }

    /// Records a maintenance trim target (the OS-byte watermark).
    pub(crate) fn note_watermark(&self, target: usize) {
        self.watermark.store(target, Ordering::Relaxed);
    }

    /// Counts one completed child-side fork recovery.
    pub(crate) fn note_fork_recovery(&self) {
        self.fork_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Advances the audit-slice cursor by `n` modulo `universe`,
    /// returning the previous position.
    pub(crate) fn advance_audit_cursor(&self, n: usize, universe: usize) -> usize {
        let prev = self.audit_cursor.load(Ordering::Relaxed);
        let next = if universe == 0 { 0 } else { (prev + n) % universe };
        self.audit_cursor.store(next, Ordering::Relaxed);
        prev
    }
}

/// Watchdog check, called from the instrumented retry loops with the
/// operation's running retry tally. Costs one branch per *failed* CAS;
/// never touched on the success path.
#[inline]
pub(crate) fn watch<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap, site: WatchSite, tries: u64) {
    let lv = inner.config.liveness;
    if matches!(lv.policy, LivenessPolicy::Ignore) {
        return;
    }
    let ceiling = lv.retry_ceiling.max(1) as u64;
    if tries < ceiling {
        return;
    }
    storm(inner, heap, site, tries, ceiling, lv.policy);
}

/// Out-of-line escalation: by the time we are here the operation has
/// already failed `ceiling` consecutive CASes, so this path's cost is
/// irrelevant.
#[cold]
#[inline(never)]
fn storm<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    site: WatchSite,
    tries: u64,
    ceiling: u64,
    policy: LivenessPolicy,
) {
    // Exactly one storm per operation: counted at the first crossing.
    if tries == ceiling {
        inner.health.storms[site as usize].fetch_add(1, Ordering::Relaxed);
        PROCESS_STORMS.fetch_add(1, Ordering::Relaxed);
        let kind = crate::observe::EventKind::LivenessStorm;
        crate::observe::event(inner, kind, heap.class(), site as u64);
    }
    match policy {
        LivenessPolicy::Throttle => {
            // Re-escalate at every further multiple of the ceiling: a
            // saturated spin to the backoff cap plus scheduler yields.
            if tries % ceiling == 0 {
                inner.health.throttles.fetch_add(1, Ordering::Relaxed);
                PROCESS_THROTTLES.fetch_add(1, Ordering::Relaxed);
                let mut backoff = lockfree_structs::Backoff::new();
                for _ in 0..8 {
                    backoff.spin();
                    std::thread::yield_now();
                }
            }
        }
        LivenessPolicy::Abort => {
            crate::observe::failstop(inner, "liveness-abort", 0);
            panic!(
                "lfmalloc liveness watchdog: CAS retry storm at {} \
                 ({} consecutive failed retries, ceiling {}) under LivenessPolicy::Abort",
                site.label(),
                tries,
                ceiling
            );
        }
        LivenessPolicy::Report | LivenessPolicy::Ignore => {}
    }
}

/// Aggregated health verdict of one allocator instance — liveness,
/// maintenance progress, descriptor bookkeeping, audit outcome, and OS
/// footprint in one racy-but-coherent-enough snapshot.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Active watchdog policy.
    pub policy: LivenessPolicy,
    /// Active retry ceiling.
    pub retry_ceiling: u32,
    /// Storms detected per site, indexed by [`WatchSite`].
    pub storms: [u64; NUM_WATCH_SITES],
    /// Throttle activations (escalated-backoff injections).
    pub throttle_activations: u64,
    /// Completed maintenance passes (explicit + reaper).
    pub maintain_passes: u64,
    /// Maintenance passes driven by the background reaper.
    pub reaper_passes: u64,
    /// Quarantined blocks released by maintenance.
    pub quarantine_flushed: u64,
    /// EMPTY descriptors pruned by maintenance.
    pub empty_pruned: u64,
    /// Descriptors checked by bounded audit slices.
    pub audit_slice_checked: u64,
    /// Advisory flags raised by audit slices (racy; see module docs).
    pub audit_slice_flagged: u64,
    /// Violations reported by the last full `audit()`; `None` if no full
    /// audit has run.
    pub last_audit_violations: Option<u64>,
    /// Free descriptors on `DescAvail`, in the emergency reserve and on
    /// the warm stack (each of those still holding its EMPTY
    /// superblock), and descriptors on each size class's partial list:
    /// one walk of each stack at snapshot time, so hints under
    /// concurrency. Free + listed + in use = `descriptor_slots`, the
    /// slots carved so far.
    pub desc_avail: usize,
    pub desc_reserve: usize,
    pub desc_warm: usize,
    pub partial_listed: [usize; NUM_CLASSES],
    pub descriptor_slots: usize,
    /// EMPTY descriptors parked where their superblock went EMPTY — a
    /// heap's Partial slot or a partial list — each holding its 16 KiB
    /// until the class's next malloc reopens it or `maintain` moves it
    /// to the warm stack (DESIGN.md §18).
    pub parked_empty: usize,
    /// Blocks currently sitting in the hardened-mode quarantine.
    pub quarantine_depth: usize,
    /// Thread-magazine slots currently owned, by live threads or by
    /// exited ones whose slot nobody has adopted or drained yet. It
    /// follows the number of threads alive at once, not the number that
    /// ever ran.
    pub magazine_slots: usize,
    /// Leaves of the frame map: an anonymous 1 MiB mapping (outside
    /// `os_live_bytes`, resident a page at a time) per 2 GiB a
    /// superblock was ever opened in, kept until drop (DESIGN.md §19).
    pub map_leaves: usize,
    /// Freed large spans parked in the span cache for the next large
    /// malloc, and the OS bytes they hold (at most 8 spans and 4 MiB).
    pub large_cached_spans: usize,
    pub large_cached_bytes: usize,
    /// Bytes currently mapped from the OS.
    pub os_live_bytes: usize,
    /// Last maintenance trim target, if any trim has been requested.
    pub os_watermark: Option<usize>,
    /// Process-fork generation this instance has recovered to (equals
    /// [`malloc_api::procfork::generation`] unless a fork happened and
    /// no allocator call has run in the child yet).
    pub fork_generation: u64,
    /// Child-side fork recoveries this instance has performed.
    pub fork_recoveries: u64,
}

impl HealthSnapshot {
    /// Total storms across all sites.
    pub fn storms_total(&self) -> u64 {
        self.storms.iter().sum()
    }

    /// Descriptors neither free nor on a partial list: installed in a
    /// heap, owning a FULL superblock, in a thread's hands, or stranded
    /// by a kill.
    pub fn descriptors_in_use(&self) -> usize {
        let listed: usize = self.partial_listed.iter().sum();
        self.descriptor_slots
            .saturating_sub(self.desc_avail + self.desc_reserve + self.desc_warm + listed)
    }

    /// Bytes of EMPTY superblocks kept mapped for reuse: the warm ones
    /// (any class may take them; what the page pool's free stack held
    /// before PR 16) and the parked ones (their class only). `trim`
    /// returns both.
    pub fn retained_empty_bytes(&self) -> usize {
        (self.desc_warm + self.parked_empty) * crate::config::SB_SIZE
    }

    /// The single health verdict: `true` when something needs attention —
    /// a retry storm was detected, or the last full audit found
    /// violations. Quarantine depth and OS bytes
    /// above the watermark are reported but do *not* degrade: both are
    /// expected states for a live heap (quarantine is a design feature;
    /// trim only releases fully-free hyperblocks).
    pub fn is_degraded(&self) -> bool {
        self.storms_total() > 0
            || matches!(self.last_audit_violations, Some(v) if v > 0)
    }

    /// Single-line JSON fragment (object), embedded by
    /// `StatsSnapshot::to_json` and usable standalone.
    pub fn to_json(&self) -> String {
        let mut storms = String::new();
        for (i, n) in self.storms.iter().enumerate() {
            if i > 0 {
                storms.push(',');
            }
            storms.push_str(&format!("\"{}\":{}", SITES[i].0, n));
        }
        format!(
            "{{\"degraded\":{},\"policy\":\"{}\",\"retry_ceiling\":{},\
             \"storms\":{{{}}},\"throttle_activations\":{},\
             \"maintain_passes\":{},\"reaper_passes\":{},\
             \"quarantine_flushed\":{},\"empty_pruned\":{},\
             \"audit_slice_checked\":{},\"audit_slice_flagged\":{},\
             \"last_audit_violations\":{},\"desc_avail\":{},\
             \"desc_reserve\":{},\"desc_warm\":{},\"parked_empty\":{},\
             \"retained_empty_bytes\":{},\"partial_listed\":{:?},\"descriptor_slots\":{},\
             \"quarantine_depth\":{},\"magazine_slots\":{},\"map_leaves\":{},\
             \"large_cached_spans\":{},\"large_cached_bytes\":{},\
             \"os_live_bytes\":{},\"os_watermark\":{},\
             \"fork_generation\":{},\"fork_recoveries\":{}}}",
            self.is_degraded(),
            self.policy.label(),
            self.retry_ceiling,
            storms,
            self.throttle_activations,
            self.maintain_passes,
            self.reaper_passes,
            self.quarantine_flushed,
            self.empty_pruned,
            self.audit_slice_checked,
            self.audit_slice_flagged,
            match self.last_audit_violations {
                Some(v) => v.to_string(),
                None => "null".into(),
            },
            self.desc_avail,
            self.desc_reserve,
            self.desc_warm,
            self.parked_empty,
            self.retained_empty_bytes(),
            self.partial_listed,
            self.descriptor_slots,
            self.quarantine_depth,
            self.magazine_slots,
            self.map_leaves,
            self.large_cached_spans,
            self.large_cached_bytes,
            self.os_live_bytes,
            match self.os_watermark {
                Some(w) => w.to_string(),
                None => "null".into(),
            },
            self.fork_generation,
            self.fork_recoveries,
        )
    }
}

impl<S: PageSource> LfMalloc<S> {
    /// Aggregated liveness + maintenance health of this instance. Safe to
    /// call concurrently with allocation; the snapshot is racy in the
    /// usual monotonic-counter sense.
    pub fn health(&self) -> HealthSnapshot {
        let inner = self.inner();
        let h = &inner.health;
        let (desc_avail, desc_reserve, desc_warm) = inner.desc_pool.free_counts();
        let descriptor_slots = inner.desc_pool.slot_count();
        let parked_slots = (0..NUM_CLASSES * inner.nheaps)
            .map(|i| unsafe { &*inner.heaps.add(i) }.load_partial())
            .filter(|d| !d.is_null() && unsafe { (**d).load_anchor() }.state() == SbState::Empty)
            .count();
        let parked_listed: usize =
            inner.classes.iter().map(|c| c.partial.empty_hint(descriptor_slots)).sum();
        let watermark = h.watermark.load(Ordering::Relaxed);
        let last_audit = h.last_audit_violations.load(Ordering::Relaxed);
        HealthSnapshot {
            policy: inner.config.liveness.policy,
            retry_ceiling: inner.config.liveness.retry_ceiling,
            storms: core::array::from_fn(|i| h.storms[i].load(Ordering::Relaxed)),
            throttle_activations: h.throttles.load(Ordering::Relaxed),
            maintain_passes: h.maintain_passes.load(Ordering::Relaxed),
            reaper_passes: h.reaper_passes.load(Ordering::Relaxed),
            quarantine_flushed: h.quarantine_flushed.load(Ordering::Relaxed),
            empty_pruned: h.empty_pruned.load(Ordering::Relaxed),
            audit_slice_checked: h.audit_slice_checked.load(Ordering::Relaxed),
            audit_slice_flagged: h.audit_slice_flagged.load(Ordering::Relaxed),
            last_audit_violations: if last_audit == AUDIT_NEVER { None } else { Some(last_audit) },
            desc_avail,
            desc_reserve,
            desc_warm,
            partial_listed: core::array::from_fn(|ci| {
                inner.classes[ci].partial.len_hint(descriptor_slots)
            }),
            descriptor_slots,
            parked_empty: parked_slots + parked_listed,
            quarantine_depth: inner.quarantine_depth(),
            magazine_slots: crate::magazine::owned_slots(inner),
            map_leaves: inner.frames.leaf_count(),
            large_cached_spans: crate::large::cached_spans(inner),
            large_cached_bytes: crate::large::cached_bytes(inner),
            os_live_bytes: inner.source.stats().live_bytes,
            os_watermark: if watermark == usize::MAX { None } else { Some(watermark) },
            fork_generation: inner.fork.recovered_generation(),
            fork_recoveries: h.fork_recoveries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malloc_api::RawMalloc;

    #[test]
    fn policy_labels_and_default() {
        assert_eq!(LivenessPolicy::default(), LivenessPolicy::Report);
        assert_eq!(LivenessPolicy::Abort.label(), "abort");
        let lc = LivenessConfig::default();
        assert_eq!(lc.retry_ceiling, DEFAULT_RETRY_CEILING);
        assert_eq!(lc.policy, LivenessPolicy::Report);
    }

    /// The table's second column names failpoints the two files with CAS
    /// loops really have.
    #[test]
    fn every_forcing_failpoint_is_a_site() {
        let core = [include_str!("alloc.rs"), include_str!("free_impl.rs")];
        let forced: Vec<&str> = SITES.iter().filter_map(|s| s.1).collect();
        assert_eq!(forced, ["active.reserve", "active.pop", "partial.get", "free.link"]);
        for fp in forced {
            let site = format!("fail_point!(\"{fp}\")");
            assert!(core.iter().any(|f| f.contains(&site)), "{fp}");
        }
    }

    #[test]
    fn fresh_instance_is_healthy() {
        let a = crate::LfMalloc::new_default();
        let p = unsafe { a.malloc(64) };
        assert!(!p.is_null());
        unsafe { a.free(p) };
        let h = a.health();
        assert!(!h.is_degraded());
        assert_eq!(h.storms_total(), 0);
        assert_eq!(h.last_audit_violations, None);
        assert!(h.os_live_bytes > 0);
        assert!(h.os_watermark.is_none());
        assert_eq!(h.fork_recoveries, 0, "no fork happened");
        assert_eq!(
            h.fork_generation,
            malloc_api::procfork::generation(),
            "fresh instance is recovered to the current generation"
        );
        let json = h.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"degraded\":false"));
        assert!(json.contains("\"fork_recoveries\":0"));
    }

    #[test]
    fn full_audit_outcome_lands_in_snapshot() {
        let a = crate::LfMalloc::new_default();
        let p = unsafe { a.malloc(32) };
        assert!(!p.is_null());
        let rep = a.audit();
        assert!(rep.is_clean());
        let h = a.health();
        assert_eq!(h.last_audit_violations, Some(0));
        assert!(!h.is_degraded());
        unsafe { a.free(p) };
    }
}
