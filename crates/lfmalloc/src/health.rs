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
//! * Crossing the ceiling is a *storm*, counted once per operation.
//!   What happens next is the [`LivenessPolicy`]: `Report` (default —
//!   count it, and under the `stats` feature emit a
//!   [`LivenessStorm`](crate::stats::EventKind) event into the event
//!   ring; the operation goes on) or `Abort` (fail-stop: panic with the
//!   site and tally, turning a silent livelock into a loud crash).
//! * [`LfMalloc::health`](crate::LfMalloc::health) aggregates the storm
//!   counters with maintenance progress (see [`crate::maintain`]),
//!   descriptor free-stack and partial-list depths, quarantine depth,
//!   last-audit outcome, and OS
//!   bytes vs. the trim watermark into a [`HealthSnapshot`] whose
//!   [`is_degraded`](HealthSnapshot::is_degraded) gives a single verdict.
//!
//! Each number of the snapshot is declared once, as a row of
//! `schema.rs`'s `health_numbers!` (DESIGN.md §9.1). A counter row is a
//! word of `HealthState`, indexed by `HealthCount`; a gauge row names
//! what `health()` reads out of the instance. The rows generate
//! `HealthCount`, the snapshot's scalar fields, `health()` (all of it
//! but the policy and the per-class `partial_listed`) and the public
//! [`HEALTH_ROWS`], which every renderer loops over: the JSON here and in
//! the stats record, the text dump, OpenMetrics, `lfstat`, and the heap
//! dump and crash report, which print the counter rows.
//!
//! The watchdog itself is lock-free and costs nothing on the success
//! path: the check runs only after a CAS *failure*, and is one branch on
//! a thread-local tally. The counters are plain relaxed atomics — they
//! observe, never order.

use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::anchor::SbState;
use crate::heap::ProcHeap;
use crate::instance::{Inner, LfMalloc};
use crate::maintain::MaintenanceReport;
use crate::schema::{json_members, CounterInfo};
use crate::size_classes::NUM_CLASSES;
use osmem::PageSource;

/// What the watchdog does when a retry loop crosses the ceiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LivenessPolicy {
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

/// The failpoint whose `Retry` action forces lost turns at each site, in
/// [`WatchSite`] order (DESIGN.md §6, §10) — the other two loops have no
/// failpoint inside.
const FORCED_BY: [Option<&str>; NUM_WATCH_SITES] =
    [Some("active.reserve"), Some("active.pop"), None, Some("partial.get"), None, Some("free.link")];

impl WatchSite {
    /// Short label for reports: its storm row's key in `storms`.
    pub fn label(self) -> &'static str {
        SITE_LABELS[self as usize]
    }

    /// The failpoint that forces retries at this site, if one does: arm
    /// it with `FpAction::Retry` to seed a storm there.
    pub fn forced_by(self) -> Option<&'static str> {
        FORCED_BY[self as usize]
    }
}

/// Process-wide storm counter (all instances), for fleet-style health
/// probes that don't hold an instance handle.
static PROCESS_STORMS: AtomicU64 = AtomicU64::new(0);

/// Storms summed over every allocator instance in this process.
pub fn process_storms() -> u64 {
    PROCESS_STORMS.load(Ordering::Relaxed)
}

/// Sentinel for "no full audit has run yet".
const AUDIT_NEVER: u64 = u64::MAX;

/// A health number as every renderer takes it: `None` is JSON's `null`
/// and no OpenMetrics sample.
trait Reading {
    fn reading(self) -> Option<u64>;
}

macro_rules! scalar_readings {
    ($($t:ty)*) => {$(
        impl Reading for $t {
            fn reading(self) -> Option<u64> {
                Some(self as u64)
            }
        }
    )*};
}
scalar_readings!(u64 u32 usize);

impl<T: Reading> Reading for Option<T> {
    fn reading(self) -> Option<u64> {
        self.and_then(T::reading)
    }
}

macro_rules! health_snapshot {
    ($($field:ident $([$site:ident $site_label:literal])? $(($ty:ty))? $($variant:ident)?
        $({$read:expr})? $family:literal $label:literal $help:literal;)*) => {
        /// The instrumented CAS retry sites, in the order their storm counters
        /// appear in [`HealthSnapshot::storms`]: the table's storm rows.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum WatchSite { $($(#[doc = $help] $site,)?)* }

        /// Number of [`WatchSite`]s (length of [`HealthSnapshot::storms`]).
        pub const NUM_WATCH_SITES: usize = SITE_LABELS.len();

        const SITE_LABELS: &[&str] = &[$($($site_label,)?)*];

        /// A counter row of [`health_numbers!`](crate::schema::health_numbers):
        /// the index of its word in [`HealthState`]. The storm rows come first,
        /// in [`WatchSite`] order.
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum HealthCount { $($($site,)? $($variant,)?)* }

        // A storm's word is its site's: `storm` indexes by the site.
        $($(const _: () = assert!(HealthCount::$site as usize == WatchSite::$site as usize);)?)*

        const NUM_COUNTERS: usize = [$($(stringify!($site),)? $(stringify!($variant),)?)*].len();

        /// Aggregated health verdict of one allocator instance — liveness,
        /// maintenance progress, descriptor bookkeeping, audit outcome, and OS
        /// footprint in one racy-but-coherent-enough snapshot.
        #[derive(Clone, Debug)]
        pub struct HealthSnapshot {
            /// Active watchdog policy.
            pub policy: LivenessPolicy,
            /// Storms detected per site, indexed by [`WatchSite`].
            pub storms: [u64; NUM_WATCH_SITES],
            /// Descriptors on each size class's partial list (a walk of
            /// each list: a hint under concurrency).
            pub partial_listed: [usize; NUM_CLASSES],
            $($(#[doc = $help] pub $field: $ty,)?)*
        }

        /// The health numbers, in [`HealthSnapshot`]'s JSON order: what every
        /// renderer (and `lfstat`) loops over. The counter rows are the ones
        /// of kind `counter`, in `HealthState`'s word order.
        pub const HEALTH_ROWS: &[CounterInfo<HealthSnapshot, Option<u64>>] = &[$(CounterInfo {
            name: concat!(stringify!($field) $(, ".", $site_label)?),
            key: concat!("health.", stringify!($field) $(, ".", $site_label)?),
            kind: if stringify!($($site)? $($variant)?).is_empty() { "gauge" } else { "counter" },
            family: $family,
            label: $label,
            help: $help,
            get: |h| h.$field $([WatchSite::$site as usize])?.reading(),
        }),*];

        impl<S: PageSource> LfMalloc<S> {
            /// Aggregated liveness + maintenance health of this instance. Safe to
            /// call concurrently with allocation; the snapshot is racy in the
            /// usual monotonic-counter sense.
            pub fn health(&self) -> HealthSnapshot {
                let inner = self.inner();
                let slots = inner.desc_pool.slot_count();
                HealthSnapshot {
                    policy: inner.config.liveness.policy,
                    storms: [$($(inner.health.get(HealthCount::$site),)?)*],
                    partial_listed: core::array::from_fn(|ci| inner.classes[ci].partial.len_hint(slots)),
                    $($($field: inner.health.get(HealthCount::$variant),)?)*
                    // A gauge's reader, given the instance.
                    $($($field: (($read) as fn(&Inner<S>) -> _)(inner),)?)*
                }
            }
        }
    };
}
crate::schema::health_numbers!(health_snapshot);

/// Always-compiled health counters, one set per allocator instance.
/// Unlike the `stats`-gated telemetry, these exist in every build: the
/// watchdog is part of the robustness story, not the profiling story.
#[derive(Debug)]
pub(crate) struct HealthState {
    /// One word per counter row of the table, indexed by [`HealthCount`]:
    /// relaxed loads, so the crash reporter may read them too.
    pub(crate) counts: [AtomicU64; NUM_COUNTERS],
    /// Violation count of the last *full* `audit()` ([`AUDIT_NEVER`] =
    /// never ran).
    last_audit: AtomicU64,
    /// Audit-slice cursor into the descriptor universe.
    audit_cursor: AtomicUsize,
    /// Last trim target handed to maintenance ([`usize::MAX`] = none).
    watermark: AtomicUsize,
}

impl HealthState {
    pub(crate) fn new() -> Self {
        HealthState {
            counts: [const { AtomicU64::new(0) }; NUM_COUNTERS],
            last_audit: AtomicU64::new(AUDIT_NEVER),
            audit_cursor: AtomicUsize::new(0),
            watermark: AtomicUsize::new(usize::MAX),
        }
    }

    fn add(&self, c: HealthCount, n: u64) {
        self.counts[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self, c: HealthCount) -> u64 {
        self.counts[c as usize].load(Ordering::Relaxed)
    }

    /// Counts one completed maintenance pass and what it did.
    pub(crate) fn note_maintain(&self, from_reaper: bool, pass: &MaintenanceReport) {
        self.add(HealthCount::MaintainPasses, 1);
        self.add(HealthCount::ReaperPasses, u64::from(from_reaper));
        self.add(HealthCount::QuarantineFlushed, pass.quarantine_released);
        self.add(HealthCount::EmptyPruned, pass.empty_pruned);
        self.add(HealthCount::AuditSliceChecked, pass.audit_checked);
        self.add(HealthCount::AuditSliceFlagged, pass.audit_flagged);
    }

    /// Records the outcome of a full `audit()`.
    pub(crate) fn note_full_audit(&self, violations: u64) {
        self.last_audit.store(violations, Ordering::Relaxed);
    }

    fn last_audit(&self) -> Option<u64> {
        Some(self.last_audit.load(Ordering::Relaxed)).filter(|&v| v != AUDIT_NEVER)
    }

    /// Records a maintenance trim target (the OS-byte watermark).
    pub(crate) fn note_watermark(&self, target: usize) {
        self.watermark.store(target, Ordering::Relaxed);
    }

    fn watermark(&self) -> Option<usize> {
        Some(self.watermark.load(Ordering::Relaxed)).filter(|&w| w != usize::MAX)
    }

    /// Counts one completed child-side fork recovery.
    pub(crate) fn note_fork_recovery(&self) {
        self.add(HealthCount::ForkRecoveries, 1);
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

/// EMPTY descriptors parked in a heap's Partial slot or on a partial list.
pub(crate) fn parked_empty<S: PageSource>(inner: &Inner<S>) -> usize {
    let in_slots = (0..NUM_CLASSES * inner.nheaps)
        .map(|i| unsafe { &*inner.heaps.add(i) }.load_partial())
        .filter(|d| !d.is_null() && unsafe { (**d).load_anchor() }.state() == SbState::Empty)
        .count();
    let slots = inner.desc_pool.slot_count();
    in_slots + inner.classes.iter().map(|c| c.partial.empty_hint(slots)).sum::<usize>()
}

/// Watchdog check, called from the instrumented retry loops with the
/// operation's running retry tally. Costs one branch per *failed* CAS;
/// never touched on the success path.
#[inline]
pub(crate) fn watch<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap, site: WatchSite, tries: u64) {
    // The tally rises by one a lost turn, so it meets the ceiling once:
    // exactly one storm per operation.
    if tries == inner.config.liveness.retry_ceiling.max(1) as u64 {
        storm(inner, heap, site, tries);
    }
}

/// Out-of-line escalation: by the time we are here the operation has
/// already failed `ceiling` consecutive CASes, so this path's cost is
/// irrelevant.
#[cold]
#[inline(never)]
fn storm<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap, site: WatchSite, tries: u64) {
    inner.health.counts[site as usize].fetch_add(1, Ordering::Relaxed);
    PROCESS_STORMS.fetch_add(1, Ordering::Relaxed);
    let kind = crate::observe::EventKind::LivenessStorm;
    crate::observe::event(inner, kind, heap.class(), site as u64);
    if inner.config.liveness.policy == LivenessPolicy::Abort {
        crate::observe::failstop(inner, "liveness-abort", 0);
        panic!(
            "lfmalloc liveness watchdog: CAS retry storm at {} \
             (the ceiling, {tries} consecutive failed retries) under LivenessPolicy::Abort",
            site.label(),
        );
    }
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
    /// `StatsSnapshot::to_json` and usable standalone: the verdict and the
    /// policy, every row of [`HEALTH_ROWS`], and the derived and per-class
    /// readings.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"degraded\":{},\"policy\":\"{}\",",
            self.is_degraded(),
            self.policy.label()
        );
        json_members(&mut out, HEALTH_ROWS.iter().map(|r| (r.name, (r.get)(self))));
        out + &format!(
            ",\"retained_empty_bytes\":{},\"partial_listed\":{:?}}}",
            self.retained_empty_bytes(),
            self.partial_listed
        )
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
        let forced: Vec<&str> = FORCED_BY.iter().flatten().copied().collect();
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

    /// Each `desc_*` gauge walks its own stack once; read on a quiescent
    /// instance the three are what `free_counts()` walks.
    #[test]
    fn descriptor_gauges_are_the_free_counts() {
        let a = crate::LfMalloc::new_default();
        let blocks: Vec<*mut u8> = (0..4).map(|_| unsafe { a.malloc(8000) }).collect();
        for p in blocks {
            unsafe { a.free(p) };
        }
        a.flush_thread_cache();
        a.maintain(crate::maintain::MaintenanceBudget::full());
        let h = a.health();
        let gauges = (h.desc_avail, h.desc_reserve, h.desc_warm);
        assert_eq!(gauges, a.inner().desc_pool.free_counts());
        assert!(h.desc_warm >= 2 && h.desc_reserve > 0, "{h:?}");
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
