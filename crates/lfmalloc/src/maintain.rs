//! Incremental self-healing maintenance and the background reaper.
//!
//! The allocator's steady state leaves work behind by design: threads
//! that exit strand cached blocks in their magazine slots, hardened
//! frees park blocks in the quarantine, EMPTY descriptors can sit
//! beneath a non-empty partial-list head, freed large spans wait in the
//! span cache for a malloc that may never come, and freed hyperblocks
//! stay cached until a (quiescent-only) `trim()`. Each of those pools is
//! observable; this module is the driver that drains them,
//! incrementally and concurrently:
//!
//! * [`LfMalloc::maintain`] runs one bounded pass over the reclaimable
//!   backlog under a [`MaintenanceBudget`]; every pass first sends dead
//!   threads' magazines home. Every phase it runs by default is **safe
//!   under full concurrency** — each reuses an ownership protocol the
//!   hot paths already rely on (the magazine slot's owner-word CAS, the
//!   quarantine cells' `swap`, the partial-list get/put and heap-slot
//!   CAS). The one quiescence-only phase, the OS trim toward a byte
//!   watermark, must be opted into through the
//!   `unsafe` [`MaintenanceBudget::with_quiescent_trim`], which carries
//!   the same contract as [`LfMalloc::trim_to`].
//! * [`LfMalloc::start_reaper`] spawns an opt-in background thread that
//!   calls `maintain` on the period a [`ReaperConfig`] gives. The
//!   reaper never touches a malloc/free hot path and takes no locks the
//!   hot paths can see, so the allocator's lock-freedom is preserved:
//!   the reaper is an *additional* thread running ordinary lock-free
//!   operations, not a scheduler dependency. If it is descheduled
//!   forever, the allocator behaves exactly as it does without one —
//!   backlog accumulates until someone calls `maintain`/`trim`.
//!
//! The bounded audit slice deserves a caveat: its per-descriptor checks
//! (geometry, anchor count-range) are single-word invariants, but a
//! descriptor being re-initialized for a new size class is briefly
//! inconsistent between `set_class` and the anchor store, so a concurrent
//! slice can flag a false positive. Slice results are therefore
//! *advisory* — counted in [`HealthSnapshot`](crate::HealthSnapshot)
//! but excluded from [`is_degraded`](crate::HealthSnapshot::is_degraded),
//! which trusts only full (quiescent) `audit()` outcomes.

use crate::anchor::SbState;
use crate::config::SB_SIZE;
use crate::descriptor::Descriptor;
use crate::instance::{Inner, LfMalloc};
use crate::partial::PartialList;
use crate::size_classes::NUM_CLASSES;
use core::sync::atomic::{AtomicBool, Ordering};
use core::time::Duration;
use osmem::PageSource;

/// How much work one [`LfMalloc::maintain`] pass may do: [`light`]
/// (the reaper's), [`full`] (an explicit call's), either with
/// [`with_quiescent_trim`].
///
/// [`light`]: Self::light
/// [`full`]: Self::full
/// [`with_quiescent_trim`]: Self::with_quiescent_trim
#[derive(Clone, Copy, Debug)]
pub struct MaintenanceBudget {
    /// Maximum quarantined blocks released back into circulation
    /// (0 = skip; no-op when hardening is off).
    pub(crate) quarantine: u32,
    /// Maximum partial-list descriptors inspected per size class while
    /// pruning EMPTY stragglers (0 = skip).
    pub(crate) prune_partials: u32,
    /// Descriptors examined by the bounded advisory audit slice
    /// (0 = skip). The cursor persists across passes, so successive
    /// slices cover the whole descriptor universe.
    pub(crate) audit_descriptors: u32,
    /// Quiescent-only OS trim target; see
    /// [`with_quiescent_trim`](Self::with_quiescent_trim).
    trim_target: Option<usize>,
}

impl MaintenanceBudget {
    /// The reaper's default: cheap enough to run every period — a
    /// modest quarantine drain, light pruning, a small audit slice.
    pub const fn light() -> Self {
        MaintenanceBudget {
            quarantine: 64,
            prune_partials: 8,
            audit_descriptors: 64,
            trim_target: None,
        }
    }

    /// A thorough pass for explicit calls: large (but still bounded,
    /// so a concurrent producer cannot pin the pass forever) caps on
    /// every concurrent-safe phase.
    pub const fn full() -> Self {
        MaintenanceBudget {
            quarantine: 4096,
            prune_partials: 1024,
            audit_descriptors: 512,
            trim_target: None,
        }
    }

    /// Adds the OS-trim phase: after the concurrent phases, run
    /// [`LfMalloc::trim_to`]`(target_bytes)`, releasing fully free
    /// hyperblocks until at most `target_bytes` stay cached.
    ///
    /// # Safety
    ///
    /// The `maintain` call carrying this budget inherits `trim_to`'s
    /// quiescence contract: no concurrent `malloc`/`free`/`trim` on the
    /// instance for the duration of the pass. In particular, a budget
    /// with a trim target must not be handed to the background reaper
    /// unless the process guarantees the allocator is idle every period.
    pub const unsafe fn with_quiescent_trim(self, target_bytes: usize) -> Self {
        MaintenanceBudget { trim_target: Some(target_bytes), ..self }
    }

    /// Whether this budget includes the quiescent OS-trim phase.
    pub fn trims(&self) -> bool {
        self.trim_target.is_some()
    }
}

impl Default for MaintenanceBudget {
    fn default() -> Self {
        Self::light()
    }
}

/// What one maintenance pass accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Blocks returned to their superblocks out of the magazine slots
    /// (magazines and outboxes) of threads that exited (or were lost in
    /// a fork).
    pub magazines_drained: u64,
    /// Quarantined blocks released back into circulation.
    pub quarantine_released: u64,
    /// EMPTY descriptors pruned off heap slots and partial lists.
    pub empty_pruned: u64,
    /// Descriptors examined by the audit slice.
    pub audit_checked: u64,
    /// Advisory flags raised by the audit slice.
    pub audit_flagged: u64,
    /// Cached large spans returned to the OS because no malloc took them
    /// since the previous pass (the trim phase, when the budget has one,
    /// drains the rest and counts them in `bytes_trimmed`).
    pub large_spans_released: u64,
    /// Bytes released to the OS by the trim phase (0 unless the budget
    /// was built with [`MaintenanceBudget::with_quiescent_trim`]).
    pub bytes_trimmed: usize,
}

/// Background-reaper configuration: how often, and with what budget.
#[derive(Clone, Copy, Debug)]
pub struct ReaperConfig {
    /// Sleep between maintenance passes.
    pub(crate) period: Duration,
    /// Budget of each pass.
    pub(crate) budget: MaintenanceBudget,
}

impl ReaperConfig {
    /// A reaper with the [`light`](MaintenanceBudget::light) budget.
    pub const fn every(period: Duration) -> Self {
        ReaperConfig { period, budget: MaintenanceBudget::light() }
    }
}

/// Reaper control plane, embedded in `Inner`. The mutex guards only the
/// join-handle box — it is touched by `start_reaper`/`stop_reaper`/
/// `drop`/the atfork hooks, never by an allocation path, so hot-path
/// lock-freedom is unaffected.
#[derive(Debug)]
pub(crate) struct ReaperState {
    /// Tells the reaper thread to exit at its next wake-up.
    stop: AtomicBool,
    /// True while a reaper thread is installed (start-once latch).
    running: AtomicBool,
    /// Monomorphized respawn trampoline (`respawn_thunk::<S>` as a
    /// `usize`; 0 until the first `start_reaper`). Stored where the
    /// `S: Send + Sync + 'static` bounds exist so fork recovery — which
    /// only has `S: PageSource` — can restart the reaper in the child.
    respawn: core::sync::atomic::AtomicUsize,
    handle: std::sync::Mutex<ReaperBox>,
}

/// Mutex-protected reaper bookkeeping: the join handle, the config it
/// was spawned with (for child-side respawn after a fork), and the
/// process generation it was spawned in (a handle from an older
/// generation refers to a thread that died in a fork and must be
/// dropped, never joined).
#[derive(Debug)]
pub(crate) struct ReaperBox {
    pub(crate) handle: Option<std::thread::JoinHandle<()>>,
    pub(crate) cfg: Option<ReaperConfig>,
    pub(crate) spawn_gen: u64,
}

impl ReaperState {
    pub(crate) fn new() -> Self {
        ReaperState {
            stop: AtomicBool::new(false),
            running: AtomicBool::new(false),
            respawn: core::sync::atomic::AtomicUsize::new(0),
            handle: std::sync::Mutex::new(ReaperBox { handle: None, cfg: None, spawn_gen: 0 }),
        }
    }

    /// Locks the handle box (poison-ignoring: a reaper panicking while
    /// holding it must not wedge teardown or fork recovery).
    pub(crate) fn lock_handle(&self) -> std::sync::MutexGuard<'_, ReaperBox> {
        self.handle.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The stored respawn trampoline (0 = reaper never started).
    pub(crate) fn respawn_thunk(&self) -> usize {
        self.respawn.load(Ordering::Acquire)
    }

    /// With the handle box locked, clears state left by a reaper thread
    /// that died in a fork: the stale-generation handle is dropped
    /// (detached) **without joining** — the thread does not exist in
    /// this process — and the start-once latch is released so the
    /// reaper can be respawned. Returns the dead reaper's config when
    /// one was actually running at fork time; `None` when there is
    /// nothing to recover (same generation, or no reaper installed).
    pub(crate) fn clear_dead(&self, boxed: &mut ReaperBox, cur_gen: u64) -> Option<ReaperConfig> {
        if boxed.spawn_gen == cur_gen {
            return None;
        }
        boxed.spawn_gen = cur_gen;
        if !self.running.load(Ordering::Acquire) {
            return None;
        }
        drop(boxed.handle.take());
        self.stop.store(false, Ordering::Release);
        self.running.store(false, Ordering::Release);
        boxed.cfg
    }
}

/// Fork-aware reaper reconciliation: detects a handle spawned in an
/// older process generation (its thread died in the fork) and clears it
/// without joining. `try_lock` keeps this non-blocking — if the box is
/// held (the mutex was copied locked across a raw, un-hooked fork) the
/// reconcile is skipped; the hooked fork path never leaves it locked.
/// Returns the dead reaper's config so callers can respawn it.
pub(crate) fn reaper_reconcile<S: PageSource>(inner: &Inner<S>) -> Option<ReaperConfig> {
    let cur = malloc_api::procfork::generation();
    let mut boxed = match inner.reaper.handle.try_lock() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => return None,
    };
    inner.reaper.clear_dead(&mut boxed, cur)
}

/// Monomorphized respawn trampoline, stored (as a `usize`) in
/// [`ReaperState::respawn`] by `start_reaper`, where the
/// `Send + Sync + 'static` bounds on `S` are available. Fork recovery
/// calls it through the erased pointer to restart the reaper in the
/// child.
///
/// # Safety
///
/// `inner` must point at the live `Inner<S>` instance whose
/// `start_reaper` stored this exact monomorphization.
pub(crate) unsafe fn respawn_thunk<S: PageSource + Send + Sync + 'static>(
    inner: *mut (),
    cfg: ReaperConfig,
) -> bool {
    let inner = unsafe { core::ptr::NonNull::new_unchecked(inner as *mut Inner<S>) };
    let shim = unsafe { LfMalloc::<S>::borrow_raw(inner) };
    shim.start_reaper(cfg)
}

/// Shuttles the instance pointer into the reaper thread. Sound because
/// `stop_reaper_inner` joins the thread before instance teardown begins
/// (first step of `LfMalloc::drop`), so the pointer outlives every
/// dereference.
struct RawInner<S: PageSource>(core::ptr::NonNull<Inner<S>>);
unsafe impl<S: PageSource + Send + Sync> Send for RawInner<S> {}

impl<S: PageSource> LfMalloc<S> {
    /// Runs one bounded self-healing pass: drains dead threads'
    /// magazines, releases quarantined blocks, prunes EMPTY descriptors,
    /// advances the advisory audit slice, releases cached large spans
    /// that sat idle since the previous pass (the shared ones and the
    /// calling thread's own: a live thread's parked span is its own to
    /// age), and (only if the budget was
    /// built with the `unsafe` trim constructor) trims toward the OS
    /// watermark. Safe to call concurrently with `malloc`/`free` for
    /// any budget that doesn't trim; see [`MaintenanceBudget`].
    pub fn maintain(&self, budget: MaintenanceBudget) -> MaintenanceReport {
        self.maintain_impl(budget, false)
    }

    pub(crate) fn maintain_impl(
        &self,
        budget: MaintenanceBudget,
        from_reaper: bool,
    ) -> MaintenanceReport {
        let inner = self.inner();
        let t0 = crate::observe::Timer::start();
        let mut report = MaintenanceReport {
            // Before the prune below: these blocks may be all that keeps a
            // superblock from going EMPTY.
            magazines_drained: crate::magazine::drain_dead(inner) as u64,
            ..Default::default()
        };
        if budget.quarantine > 0 {
            report.quarantine_released =
                crate::harden::flush_quarantine(inner, budget.quarantine as usize) as u64;
        }
        if budget.prune_partials > 0 {
            report.empty_pruned = prune_empty(inner, budget.prune_partials);
        }
        if budget.audit_descriptors > 0 {
            let (checked, flagged) = audit_slice(inner, budget.audit_descriptors);
            report.audit_checked = checked;
            report.audit_flagged = flagged;
        }
        // Ageing of the large-span cache: two passes without a taker and a
        // span goes back to the OS. Needs no quiescence: a shared span is
        // claimed by the CAS a malloc would use, and the only thread word
        // visited is the caller's own. A dead thread's span is in the
        // shared words by now (`drain_dead` above).
        report.large_spans_released = unsafe { crate::large::release_idle_spans(inner) } as u64;
        if let Some(target) = budget.trim_target {
            inner.health.note_watermark(target);
            // Safety: the budget's `with_quiescent_trim` constructor put
            // the quiescence obligation on whoever built it.
            report.bytes_trimmed = unsafe { self.trim_to(target) };
        }
        inner.health.note_maintain(from_reaper, &report);
        let acted = report.magazines_drained + report.quarantine_released + report.empty_pruned;
        crate::observe::on_maintain(inner, t0, acted);
        report
    }

    /// Stops the background reaper (if one is running) and joins it.
    /// Returns true if a reaper was actually stopped. Called implicitly
    /// by `drop`, so teardown never races a maintenance pass.
    pub fn stop_reaper(&self) -> bool {
        stop_reaper_inner(self.inner())
    }
}

impl<S: PageSource + Send + Sync + 'static> LfMalloc<S> {
    /// Spawns a background reaper that runs a `cfg.budget` pass every
    /// `cfg.period`. Returns false if one is already running or the
    /// thread could not be spawned.
    pub fn start_reaper(&self, cfg: ReaperConfig) -> bool {
        let inner = self.inner();
        // A reaper latch left set by a pre-fork parent must not block
        // the child's (re)start: its thread died in the fork.
        reaper_reconcile(inner);
        if inner
            .reaper
            .running
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        inner.reaper.stop.store(false, Ordering::Release);
        let raw = RawInner::<S>(self.raw_inner());
        let spawned = std::thread::Builder::new()
            .name("lfmalloc-reaper".into())
            .spawn(move || {
                let raw = raw;
                // A borrowed, never-dropped view of the instance; valid
                // until `stop_reaper_inner` joins us.
                let shim = unsafe { LfMalloc::<S>::borrow_raw(raw.0) };
                loop {
                    // Sleep first: a start/stop pair shouldn't pay for a
                    // pass, and `stop` unparks us early.
                    std::thread::park_timeout(cfg.period);
                    if shim.inner().reaper.stop.load(Ordering::Acquire) {
                        break;
                    }
                    shim.maintain_impl(cfg.budget, true);
                }
            });
        match spawned {
            Ok(h) => {
                let mut boxed = inner.reaper.lock_handle();
                boxed.handle = Some(h);
                boxed.cfg = Some(cfg);
                boxed.spawn_gen = malloc_api::procfork::generation();
                drop(boxed);
                inner.reaper.respawn.store(
                    respawn_thunk::<S> as unsafe fn(*mut (), ReaperConfig) -> bool as usize,
                    Ordering::Release,
                );
                true
            }
            Err(_) => {
                inner.reaper.running.store(false, Ordering::Release);
                false
            }
        }
    }
}

/// Stop/join path shared by [`LfMalloc::stop_reaper`] and `drop` (which
/// has no `Send + Sync` bounds on `S`, so this must not require them).
pub(crate) fn stop_reaper_inner<S: PageSource>(inner: &Inner<S>) -> bool {
    // Fork-aware: a reaper that died in a fork is cleared here, never
    // joined (joining a handle whose thread was lost to `fork` would
    // block forever).
    reaper_reconcile(inner);
    if !inner.reaper.running.load(Ordering::Acquire) {
        return false;
    }
    inner.reaper.stop.store(true, Ordering::Release);
    let handle = inner.reaper.lock_handle().handle.take();
    let stopped = match handle {
        Some(h) => {
            h.thread().unpark();
            let _ = h.join();
            true
        }
        None => false,
    };
    inner.reaper.running.store(false, Ordering::Release);
    stopped
}

/// Prunes EMPTY descriptors out of the heap partial slots and (budgeted
/// per class) off the partial lists, retiring each with the superblock
/// it still owns onto the warm stack, where any class can take it
/// (DESIGN.md §18). Both moves reuse hot-path ownership protocols — a
/// descriptor CASed out of a slot or popped off a list is exclusively
/// owned, exactly the case `malloc_from_partial` handles — so this is
/// concurrent-safe, and it allocates nothing: a malloc about to map a
/// hyperblock, or refused one, prunes before it does anything else.
pub(crate) fn prune_empty<S: PageSource>(inner: &Inner<S>, per_class: u32) -> u64 {
    let mut pruned = 0u64;
    for ci in 0..NUM_CLASSES {
        for h in 0..inner.nheaps {
            let heap = unsafe { &*inner.heaps.add(ci * inner.nheaps + h) };
            let desc = heap.load_partial();
            if !desc.is_null()
                && unsafe { (*desc).load_anchor() }.state() == SbState::Empty
                && heap.cas_partial(desc, core::ptr::null_mut())
                && unsafe { retire_if_empty(inner, desc) }
            {
                pruned += 1;
            }
        }
        let list = &inner.classes[ci].partial;
        // The ones to keep wait on a private list, not in a `Vec`:
        // `malloc` runs this too (`alloc::malloc_from_new_sb`), and there
        // nothing may allocate. Popping it back restores their order.
        let keep = PartialList::new();
        let mut budget = per_class;
        while budget > 0 {
            let Some(desc) = (unsafe { list.get() }) else {
                break;
            };
            if unsafe { (*desc).load_anchor() }.state() == SbState::Empty {
                unsafe { inner.desc_pool.retire(desc) };
                pruned += 1;
            } else {
                unsafe { keep.put(desc) };
            }
            budget -= 1;
        }
        while let Some(desc) = unsafe { keep.get() } {
            unsafe { list.put(desc) };
        }
    }
    pruned
}

/// Disposes of a descriptor the caller has just taken out of a heap's
/// Partial slot because it saw it EMPTY: retires it (and says so) if it
/// still is, puts it back otherwise.
///
/// The second look is what immediate descriptor reuse costs (DESIGN.md
/// §17.3). Between the caller's look and its slot CAS a malloc may have
/// taken the EMPTY descriptor from the slot and reopened it, and the
/// superblock may have filled and been parked, PARTIAL, in the same
/// slot. The slot CAS cannot tell. But taking a descriptor out of the
/// slot makes it the caller's alone, and then its state says which life
/// it is in, as it does for `MallocFromPartial` (Figure 4, line 5).
unsafe fn retire_if_empty<S: PageSource>(inner: &Inner<S>, desc: *mut Descriptor) -> bool {
    let empty = unsafe { (*desc).load_anchor() }.state() == SbState::Empty;
    if empty {
        unsafe { inner.desc_pool.retire(desc) };
    } else {
        unsafe { crate::alloc::heap_put_partial(inner, desc) };
    }
    empty
}

/// One advisory audit slice: checks up to `max` descriptors (persistent
/// cursor, so slices rotate through the whole universe) against
/// single-word invariants. See the module docs for why a flag here is
/// advisory, not a verdict.
fn audit_slice<S: PageSource>(inner: &Inner<S>, max: u32) -> (u64, u64) {
    let descs = inner.desc_pool.all_descriptors();
    if descs.is_empty() {
        return (0, 0);
    }
    let n = (max as usize).min(descs.len());
    let start = inner.health.advance_audit_cursor(n, descs.len());
    let mut flagged = 0u64;
    for i in 0..n {
        let desc = unsafe { &*descs[(start + i) % descs.len()] };
        let sz = desc.sz() as usize;
        if sz == 0 {
            // Never initialized (fresh slab zero-fill).
            continue;
        }
        let maxcount = desc.maxcount() as usize;
        let anchor = desc.load_anchor();
        if maxcount == 0 || maxcount * sz > SB_SIZE || (anchor.count() as usize) >= maxcount {
            flagged += 1;
        }
    }
    (n as u64, flagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use malloc_api::RawMalloc;

    #[test]
    fn budgets_compose_const() {
        const L: MaintenanceBudget = MaintenanceBudget::light();
        const B: MaintenanceBudget = MaintenanceBudget { audit_descriptors: 16, prune_partials: 2, ..L };
        assert_eq!(B.audit_descriptors, 16);
        assert_eq!(B.prune_partials, 2);
        assert!(!B.trims());
        const T: MaintenanceBudget = unsafe { MaintenanceBudget::full().with_quiescent_trim(0) };
        assert!(T.trims());
    }

    #[test]
    fn maintain_reports_and_counts_passes() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
        }
        let rep = a.maintain(MaintenanceBudget::full());
        assert!(rep.audit_checked > 0, "descriptors exist, slice must check some");
        assert_eq!(rep.audit_flagged, 0, "quiescent slice must be clean");
        let h = a.health();
        assert_eq!(h.maintain_passes, 1);
        assert_eq!(h.reaper_passes, 0);
        assert!(!h.is_degraded());
    }

    #[test]
    fn maintain_with_trim_reaches_watermark() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let mut ptrs = Vec::new();
            for _ in 0..300 {
                let p = a.malloc(8_000);
                assert!(!p.is_null());
                ptrs.push(p);
            }
            for p in ptrs {
                a.free(p);
            }
        }
        let budget = unsafe { MaintenanceBudget::full().with_quiescent_trim(1 << 20) };
        let rep = a.maintain(budget);
        assert!(rep.bytes_trimmed > 0);
        assert!(a.os_stats().live_bytes <= (1 << 20) + (1 << 18), "watermark respected");
        let h = a.health();
        assert_eq!(h.os_watermark, Some(1 << 20));
        assert!(a.audit().is_clean());
    }

    #[test]
    fn reaper_runs_and_stops() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        assert!(a.start_reaper(ReaperConfig::every(Duration::from_millis(5))));
        unsafe {
            let p = a.malloc(128);
            assert!(!p.is_null());
            a.free(p);
        }
        // Wait for some passes.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while a.health().reaper_passes == 0 {
            assert!(std::time::Instant::now() < deadline, "reaper never ran");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(a.stop_reaper());
        let passes = a.health().reaper_passes;
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(a.health().reaper_passes, passes, "stopped reaper must not run");
        assert!(!a.stop_reaper(), "second stop is a no-op");
        assert!(!a.health().is_degraded());
    }

    #[test]
    fn reaper_restart_after_stop() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        assert!(a.start_reaper(ReaperConfig::every(Duration::from_millis(5))));
        assert!(!a.start_reaper(ReaperConfig::every(Duration::from_millis(5))));
        assert!(a.stop_reaper());
        assert!(a.start_reaper(ReaperConfig::every(Duration::from_millis(5))));
        // Drop stops the second reaper implicitly; reaching the end
        // without hanging is the assertion.
    }
}
