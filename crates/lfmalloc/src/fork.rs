//! Fork/exec safety: atfork hooks, child-side heap recovery, and the
//! async-signal reentrancy guard. DESIGN.md §12 is the narrative spec.
//!
//! `fork(2)` copies the whole address space but only the calling
//! thread. For this allocator that leaves three kinds of wreckage in
//! the child:
//!
//! * every other thread's magazine slot is orphaned, its cached blocks
//!   owned by a thread that does not exist (nothing else is: a
//!   descriptor is never parked on a per-thread list, DESIGN.md §17.6);
//! * the TLS thread-id registry still holds parent-era ids, and the
//!   background reaper's `JoinHandle` refers to a thread that no longer
//!   exists (joining it would block forever);
//! * none of it is corrupted: every cross-thread structure is lock-free,
//!   so the snapshot the child inherits is some linearizable state.
//!
//! Recovery therefore needs no heap surgery, only ownership repair, and
//! runs in two tiers:
//!
//! 1. **Hooked (eager)** — every instance registers prepare/parent/child
//!    hooks with [`malloc_api::procfork`] at construction. Prepare pins
//!    the reaper handle box (so the fork cannot snapshot it mid-update),
//!    parent releases it, and the child clears the dead reaper, runs
//!    [`recover`], and respawns the reaper with its pre-fork config.
//! 2. **Lazy** — the first miss after a fork compares the instance's
//!    recovered generation against [`malloc_api::procfork::generation`]:
//!    the slow entry points and magazine `attach` do. A hit cannot come
//!    first, because it compares the thread's TLS generation and a stale
//!    one is a miss. An instance that found the procfork registry full
//!    has no hooks; a child that forked through `procfork::fork`
//!    recovers it on its first malloc/free. A *raw*
//!    `fork(2)` without [`malloc_api::procfork::install`] runs no hooks
//!    and bumps no generation; such a child must call
//!    [`malloc_api::procfork::child_after_raw_fork`] before touching the
//!    allocator (the POSIX contract is stricter still: only
//!    async-signal-safe calls are allowed between a multithreaded fork
//!    and exec).
//!
//! The recovery claim is a CAS on the instance's generation stamp, so
//! exactly one thread recovers per fork; losers proceed immediately —
//! lock-freedom of the entry points is preserved.
//!
//! # Signal-safety contract
//!
//! The malloc/free fast paths are CAS loops over process-shared atomics
//! — no locks, no reentrant-unsafe library calls — so an allocation in
//! a signal handler that interrupted *non-allocator* code completes
//! normally. The one unsafe case is a handler allocating while the
//! interrupted frame is already inside this allocator on the same
//! thread (the classic `malloc`-in-handler deadlock shape). A
//! per-thread flag turns that case into a detected failure instead:
//! the nested call is counted as [`MisuseKind::ReentrantAlloc`] and
//! fails fast (null from `malloc`, leak from `free`) — it never
//! self-deadlocks and never corrupts heap state. Paths that *do* take
//! locks (reaper start/stop, `trim`, `dump_stats`) are not
//! async-signal-safe and are documented as such.

use crate::harden::{MisuseKind, MisuseReport};
use crate::instance::Inner;
use crate::maintain::{ReaperBox, ReaperConfig};
use crate::observe::{self, EventKind};
use core::cell::{Cell, UnsafeCell};
use core::sync::atomic::{AtomicU64, Ordering};
use malloc_api::procfork::{self, HookSet, HookToken};
use osmem::PageSource;

/// Per-instance fork bookkeeping, embedded in `Inner`.
#[derive(Debug)]
pub(crate) struct ForkState {
    /// Process generation this instance has recovered to. Lagging
    /// [`procfork::generation`] means a fork happened and child-side
    /// recovery is still owed; the CAS that advances it is the
    /// single-recoverer claim token.
    proc_gen: AtomicU64,
    /// Registration token of the instance's atfork hooks (`None` only
    /// when the procfork registry was full).
    token: Cell<Option<HookToken>>,
    /// The reaper handle-box guard carried across a hooked fork:
    /// written by the prepare hook, taken by exactly one of the
    /// parent/child hooks. Only the forking thread touches it, under
    /// the procfork registry lock — that protocol, not a type, is what
    /// makes the `UnsafeCell` (and the `Sync` impl) sound.
    stash: UnsafeCell<Option<std::sync::MutexGuard<'static, ReaperBox>>>,
}

unsafe impl Send for ForkState {}
unsafe impl Sync for ForkState {}

impl ForkState {
    pub(crate) fn new() -> Self {
        ForkState {
            proc_gen: AtomicU64::new(procfork::generation()),
            token: Cell::new(None),
            stash: UnsafeCell::new(None),
        }
    }

    /// The generation this instance last recovered to (telemetry).
    pub(crate) fn recovered_generation(&self) -> u64 {
        self.proc_gen.load(Ordering::Acquire)
    }
}

/// Registers the instance's atfork hooks. Called once from the
/// constructor; the data word is the `Inner` pointer, which is
/// address-stable for the instance's lifetime.
pub(crate) fn register_instance<S: PageSource>(inner: &Inner<S>) {
    let token = procfork::register(HookSet {
        prepare: Some(hook_prepare::<S>),
        parent: Some(hook_parent::<S>),
        child: Some(hook_child::<S>),
        data: inner as *const Inner<S> as usize,
    });
    // A full registry (token = None) degrades to lazy-only recovery.
    inner.fork.token.set(token);
}

/// Unregisters the instance's hooks. Must run before any teardown
/// (first step of `LfMalloc::drop`): `procfork::unregister` serializes
/// on the registry lock, which an in-flight fork holds from prepare to
/// parent/child, so once this returns no hook can see the dying
/// instance.
pub(crate) fn unregister_instance<S: PageSource>(inner: &Inner<S>) {
    if let Some(token) = inner.fork.token.take() {
        procfork::unregister(token);
    }
}

/// Prepare hook: pin the reaper handle box across the fork. Holding its
/// mutex guarantees the child's copy of the mutex is unlocked-or-ours
/// (never snapshotted mid-update by a third thread) and that no
/// start/stop is joining or spawning while the address space is
/// duplicated.
pub(crate) unsafe fn hook_prepare<S: PageSource>(data: usize) {
    let inner = unsafe { &*(data as *const Inner<S>) };
    let guard = inner.reaper.lock_handle();
    // Lifetime erasure only: the guard is dropped by the parent/child
    // hook on this same thread before the registry lock is released,
    // and the instance cannot be dropped in between (unregister blocks
    // on the registry lock).
    let guard: std::sync::MutexGuard<'static, ReaperBox> =
        unsafe { core::mem::transmute(guard) };
    unsafe { *inner.fork.stash.get() = Some(guard) };
}

/// Parent hook: the fork is over, release the reaper box.
pub(crate) unsafe fn hook_parent<S: PageSource>(data: usize) {
    let inner = unsafe { &*(data as *const Inner<S>) };
    drop(unsafe { (*inner.fork.stash.get()).take() });
    observe::event(inner, EventKind::Fork, 0, procfork::generation());
}

/// Child hook: clear the dead reaper through the still-held guard, run
/// recovery, respawn the reaper the parent had running.
pub(crate) unsafe fn hook_child<S: PageSource>(data: usize) {
    let inner = unsafe { &*(data as *const Inner<S>) };
    let cur = procfork::generation();
    let mut dead_cfg = None;
    if let Some(mut boxed) = unsafe { (*inner.fork.stash.get()).take() } {
        dead_cfg = inner.reaper.clear_dead(&mut boxed, cur);
    }
    maybe_recover(inner);
    if let Some(cfg) = dead_cfg {
        respawn(inner, cfg);
    }
}

/// Fork check: one relaxed load comparing the instance's recovered
/// generation against the process generation. At the top of the slow
/// entry points and in magazine `attach`, where each thread's first call
/// after a fork lands; a hit never runs it. The mismatch path is a cold
/// call.
#[inline]
pub(crate) fn maybe_recover<S: PageSource>(inner: &Inner<S>) {
    let cur = procfork::generation();
    if inner.fork.proc_gen.load(Ordering::Relaxed) != cur {
        recover(inner, cur);
    }
}

/// Child-side heap recovery. The generation CAS elects one recoverer;
/// losing threads return immediately and proceed with their allocation
/// (everything below is repair of *idle* state, not a prerequisite for
/// correctness of the lock-free paths).
#[cold]
fn recover<S: PageSource>(inner: &Inner<S>, cur: u64) {
    let prev = inner.fork.proc_gen.load(Ordering::Acquire);
    if prev == cur
        || inner
            .fork
            .proc_gen
            .compare_exchange(prev, cur, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
    {
        return;
    }
    // Magazines: this thread's slot crossed the fork with it and is
    // taken back under its new stamp; every other parent-era slot is an
    // orphan whose blocks go home. (Per POSIX the child is
    // single-threaded until recovery is done, so "the current thread"
    // is the only surviving owner.)
    crate::magazine::reattach_after_fork(inner);
    let drained = crate::magazine::drain_dead(inner);
    // The reaper thread (if any) died in the fork. On the hooked path
    // the child hook already cleared it; this covers lazy recovery.
    if let Some(cfg) = crate::maintain::reaper_reconcile(inner) {
        respawn(inner, cfg);
    }
    inner.health.note_fork_recovery();
    observe::event(inner, EventKind::ChildRecover, 0, drained as u64);
}

/// Restarts the reaper through the monomorphized trampoline stored by
/// `start_reaper` (fork recovery only has `S: PageSource`, not the
/// `Send + Sync + 'static` spawning bounds).
fn respawn<S: PageSource>(inner: &Inner<S>, cfg: ReaperConfig) {
    let thunk = inner.reaper.respawn_thunk();
    if thunk != 0 {
        let thunk: unsafe fn(*mut (), ReaperConfig) -> bool =
            unsafe { core::mem::transmute(thunk) };
        unsafe { thunk(inner as *const Inner<S> as *mut () as *mut (), cfg) };
    }
}

/// Counts a rejected reentrant entry. Recorded regardless of hardening
/// mode (there is no "trusting" answer to reentrancy — the call is
/// rejected either way); `Hardening::Abort` escalates to fail-stop like
/// every other misuse class.
#[cold]
pub(crate) fn reject_reentrant<S: PageSource>(inner: &Inner<S>, ptr: usize) {
    crate::harden::report(
        inner,
        MisuseReport {
            kind: MisuseKind::ReentrantAlloc,
            ptr,
            size_class: None,
            heap: 0,
            tid: crate::heap::thread_id(),
        },
    );
}

/// Test-only: simulates being inside an allocator entry point on the
/// calling thread, so tests can exercise the reentrancy rejection path
/// deterministically (without arranging a real signal to land inside
/// the fast path). Panics if the thread is already inside one.
#[doc(hidden)]
pub fn hold_reentrancy_guard_for_testing() -> impl Drop {
    crate::tls::enter_alloc().expect("thread already inside an allocator entry point")
}
