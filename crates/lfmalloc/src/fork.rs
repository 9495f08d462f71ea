//! Fork/exec safety: atfork hooks, child-side heap recovery, the
//! instance's background threads, and the async-signal reentrancy
//! guard. DESIGN.md §12 is the narrative spec.
//!
//! `fork(2)` copies the whole address space but only the calling
//! thread. For this allocator that leaves three kinds of wreckage in
//! the child:
//!
//! * every other thread's magazine slot is orphaned, its cached blocks
//!   owned by a thread that does not exist (nothing else is: a
//!   descriptor is never parked on a per-thread list, DESIGN.md §17.6);
//! * the TLS thread-id registry still holds parent-era ids, and each
//!   background `Worker` — the reaper, the metrics endpoint — holds
//!   the handle of a thread that no longer exists (joining it would
//!   block forever), and maybe a lock word taken by a thread the fork
//!   dropped mid-start or mid-stop;
//! * none of it is corrupted: every cross-thread structure is lock-free,
//!   so the snapshot the child inherits is some linearizable state.
//!
//! Recovery therefore needs no heap surgery, only ownership repair, and
//! runs in two tiers:
//!
//! 1. **Hooked (eager)** — every instance registers parent/child hooks
//!    with [`malloc_api::procfork`] at construction, and no prepare
//!    hook: nothing is locked across the fork. The parent hook records
//!    the fork; the child hook runs [`recover`] at once, which respawns
//!    the reaper the parent was running.
//! 2. **Lazy** — the first slow call after a fork compares the
//!    instance's recovered generation against
//!    [`malloc_api::procfork::generation`]: every slow call finds its
//!    slot through `magazine::slot`, whose cold path does. A hit cannot
//!    come first, because it compares the thread's TLS generation and a
//!    stale one is a miss. An instance that
//!    found the procfork registry full has no hooks; a child that forked
//!    through `procfork::fork` recovers it on its first malloc/free. A *raw*
//!    `fork(2)` without [`malloc_api::procfork::install`] runs no hooks
//!    and bumps no generation; such a child must call
//!    [`malloc_api::procfork::child_after_raw_fork`] before touching the
//!    allocator (the POSIX contract is stricter still: only
//!    async-signal-safe calls are allowed between a multithreaded fork
//!    and exec).
//!
//! The recovery claim is a CAS on the instance's generation stamp, so
//! exactly one thread recovers per fork; losers proceed immediately —
//! lock-freedom of the entry points is preserved. A worker's lock word
//! holds its holder's process generation + 1, so a child never waits on
//! a holder the fork dropped: it takes the word over.
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
//! self-deadlocks and never corrupts heap state. Paths that spawn,
//! join or wait (reaper and endpoint start/stop, `trim`, `dump_stats`)
//! are not async-signal-safe and are documented as such.

use crate::harden::{MisuseKind, MisuseReport};
use crate::instance::{Inner, LfMalloc};
use crate::observe::{self, EventKind};
use core::cell::{Cell, UnsafeCell};
use core::ptr::NonNull;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use malloc_api::procfork::{self, HookSet, HookToken};
use osmem::PageSource;
use std::thread::JoinHandle;

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
}

impl ForkState {
    pub(crate) fn new() -> Self {
        ForkState { proc_gen: AtomicU64::new(procfork::generation()), token: Cell::new(None) }
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
        prepare: None,
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

/// Parent hook: the fork is over; record it.
pub(crate) unsafe fn hook_parent<S: PageSource>(data: usize) {
    let inner = unsafe { &*(data as *const Inner<S>) };
    observe::event(inner, EventKind::Fork, 0, procfork::generation());
}

/// Child hook: recover now rather than at the first slow call.
pub(crate) unsafe fn hook_child<S: PageSource>(data: usize) {
    maybe_recover(unsafe { &*(data as *const Inner<S>) });
}

/// Fork check: one relaxed load comparing the instance's recovered
/// generation against the process generation. Outside the child hook it
/// runs in one place, `magazine::slot` on a stale slot, where each
/// thread's first slow call after a fork lands — a class or large entry's,
/// or `flush_thread_cache`; a hit, and a slow call on a warm slot, never
/// runs it. The mismatch path is a cold call.
#[inline]
pub(crate) fn maybe_recover<S: PageSource>(inner: &Inner<S>) {
    let cur = procfork::generation();
    if inner.fork.proc_gen.load(Ordering::Relaxed) != cur {
        recover(inner, cur);
    }
}

/// Child-side heap recovery, the one step after a fork for the child
/// hook and the lazy check alike. The generation CAS elects one
/// recoverer; losing threads return immediately and proceed with their
/// allocation (everything below is repair of *idle* state, not a
/// prerequisite for correctness of the lock-free paths).
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
    // The reaper thread (if any) died in the fork: start another with
    // the parent's period. (A dead metrics endpoint is forgotten by the
    // same worker step when the child next serves or stops it.)
    if let Some((period, start)) = inner.reaper.after_fork() {
        start(&*unsafe { LfMalloc::borrow_raw(NonNull::from(inner)) }, period);
    }
    inner.health.note_fork_recovery();
    observe::event(inner, EventKind::ChildRecover, 0, drained as u64);
}

/// A background thread of the instance — the reaper, the metrics
/// endpoint — and the one lifecycle both keep: start once, stop and
/// join, and a step after a fork. `P` is what the thread was started
/// with (the reaper's period and respawn entry, the endpoint's address).
///
/// The state sits behind a lock word that holds its holder's process
/// generation + 1 (0 = free). A holder of an older generation is a
/// thread a fork dropped: a child takes its word over instead of
/// waiting, and forgets the slot unread, since the holder may have been
/// halfway through writing it. So a fork that lands inside a start or
/// a stop leaves the child nothing to wait on. The word is held across
/// a stop's join, so no start can clear the stop flag before the thread
/// has read it.
#[derive(Debug)]
pub(crate) struct Worker<P> {
    lock: AtomicU64,
    /// Tells the running thread to return at its next wake-up.
    stop: AtomicBool,
    /// Guarded by `lock`.
    slot: UnsafeCell<Slot<P>>,
}

#[derive(Debug)]
struct Slot<P> {
    /// The running thread and what it was started with.
    running: Option<(JoinHandle<()>, P)>,
    /// The process generation `running` was spawned in.
    gen: u64,
}

// SAFETY: the slot is only reached through `lock`, which one thread
// holds at a time (a holder a fork dropped no longer runs).
unsafe impl<P: Send> Sync for Worker<P> {}

/// The slot, for as long as the lock word is held.
struct Held<'a, P> {
    lock: &'a AtomicU64,
    slot: &'a mut Slot<P>,
}

impl<P> Drop for Held<'_, P> {
    fn drop(&mut self) {
        // Release: the next holder's Acquire sees this holder's writes.
        self.lock.store(0, Ordering::Release);
    }
}

impl<P: Copy> Worker<P> {
    pub(crate) const fn new() -> Self {
        Worker {
            lock: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            slot: UnsafeCell::new(Slot { running: None, gen: 0 }),
        }
    }

    /// Takes the lock word unless a live thread holds it, then runs the
    /// step after a fork: a thread spawned in an older generation died
    /// in the fork, so its handle is forgotten (never joined) and what
    /// it was started with is returned. A holder of an older generation
    /// is no live thread: its word is taken over.
    fn try_lock(&self) -> Option<(Held<'_, P>, Option<P>)> {
        let gen = procfork::generation();
        let (held, ours) = (self.lock.load(Ordering::Relaxed), gen + 1);
        // Acquire: the last holder's writes to the slot.
        if held > gen
            || self.lock.compare_exchange(held, ours, Ordering::Acquire, Ordering::Relaxed).is_err()
        {
            return None;
        }
        let slot = unsafe { &mut *self.slot.get() };
        let mut dead = None;
        if held != 0 {
            // Taken over: the holder may have left it half written.
            unsafe { core::ptr::write(slot, Slot { running: None, gen }) };
        } else if slot.gen != gen {
            slot.gen = gen;
            dead = slot.running.take().map(|(thread, p)| {
                core::mem::forget(thread);
                p
            });
        }
        Some((Held { lock: &self.lock, slot }, dead))
    }

    /// [`try_lock`](Self::try_lock), waiting out a live holder.
    fn lock(&self) -> (Held<'_, P>, Option<P>) {
        loop {
            if let Some(held) = self.try_lock() {
                return held;
            }
            std::thread::yield_now();
        }
    }

    /// Starts the thread unless one runs: `spawn`, called with the word
    /// held, returns the thread and what it was started with. Returns
    /// what the running thread was started with, and whether it is new.
    pub(crate) fn start<E>(
        &self,
        spawn: impl FnOnce() -> Result<(JoinHandle<()>, P), E>,
    ) -> Result<(P, bool), E> {
        let (held, _) = self.lock();
        if let Some((_, p)) = &held.slot.running {
            return Ok((*p, false));
        }
        // Relaxed: the spawn orders it before the new thread's loads.
        self.stop.store(false, Ordering::Relaxed);
        let (thread, p) = spawn()?;
        held.slot.running = Some((thread, p));
        Ok((p, true))
    }

    /// Stops the running thread and joins it; `wake` gets it out of a
    /// blocking wait. False when none runs, or when it died in a fork.
    pub(crate) fn stop(&self, wake: impl FnOnce(&P)) -> bool {
        let (held, _) = self.lock();
        let Some((thread, p)) = held.slot.running.take() else {
            return false;
        };
        // Release: pairs with `stopping`, read after the wake-up below.
        self.stop.store(true, Ordering::Release);
        thread.thread().unpark();
        wake(&p);
        let _ = thread.join();
        true
    }

    /// The step after a fork: what the thread the fork dropped was
    /// started with, if one ran. It never waits: a live holder of the
    /// word has run the step already, and so has whoever took it first.
    pub(crate) fn after_fork(&self) -> Option<P> {
        self.try_lock()?.1
    }

    /// Whether the running thread has been told to return.
    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

/// Shuttles the instance pointer into a worker thread. Sound because the
/// worker's `stop` joins the thread before instance teardown begins
/// (the first steps of `LfMalloc::drop`), so the pointer outlives every
/// dereference.
struct RawInner<S: PageSource>(NonNull<Inner<S>>);
unsafe impl<S: PageSource + Send + Sync> Send for RawInner<S> {}

/// Spawns a worker thread named `name` running `body` over a borrowed
/// view of the instance.
pub(crate) fn spawn<S: PageSource + Send + Sync + 'static>(
    this: &LfMalloc<S>,
    name: &str,
    body: impl FnOnce(&LfMalloc<S>) + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    let raw = RawInner(this.raw_inner());
    std::thread::Builder::new().name(name.into()).spawn(move || {
        let raw = raw;
        // Never dropped; valid until the worker's `stop` joins us.
        body(&*unsafe { LfMalloc::borrow_raw(raw.0) })
    })
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
    crate::tls::enter_hit().expect("thread already inside an allocator entry point")
}
