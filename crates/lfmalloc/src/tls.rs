//! The calling thread's allocator state: one thread-local block holding
//! the reentrancy flag, the thread id and the cached magazine slot, so
//! an entry point touches thread-local storage once (DESIGN.md §15).
//! A hit — a magazine's, or a large block's on the thread's own span
//! word — reads this block, the process generation and its bin or word,
//! and nothing else ([`enter_hit`], DESIGN.md §15.1); a stale generation
//! or a missing slot sends the call to its miss, which refreshes
//! the block ([`ThreadBlock::ensure_fresh`]) and recovers the instance
//! before it reads anything else.
//!
//! The block is `const`-initialised and has no destructor: reading it
//! never allocates, never registers anything and never fails, which is
//! what lets `malloc` itself use it — also during thread teardown. The
//! one thing that must happen at thread exit, telling other threads
//! that this thread's magazine slots are up for adoption, is done by a
//! separate sentinel whose destructor writes only to this block and to
//! a static table ([`LIVE`]): an instance may be dropped before the
//! threads that used it, so no destructor may follow a pointer into one.

use crate::magazine::Slot;
use core::cell::Cell;
use core::sync::atomic::{compiler_fence, AtomicU64, AtomicUsize, Ordering};
use malloc_api::procfork;

/// Liveness tickets: `LIVE[id % TICKETS]` holds a thread's
/// [stamp](ThreadBlock::stamp) from its first allocator call until its
/// exit sentinel runs. A magazine slot names its owner by stamp, so
/// "is the owner gone?" is one load from static memory. Two live
/// threads whose ids collide modulo [`TICKETS`] cannot both hold a
/// ticket; the second runs without a magazine. A killed thread never
/// clears its ticket — that, and the slot it owned, is the bounded
/// cost of a kill.
const TICKETS: usize = 1024;
static LIVE: [AtomicU64; TICKETS] = [const { AtomicU64::new(0) }; TICKETS];

const STAMP_ID_BITS: u32 = 48;
const STAMP_ID_MASK: u64 = (1 << STAMP_ID_BITS) - 1;

/// Owner word of a slot whose blocks are being returned to their
/// superblocks; counts as alive so nobody adopts it half-drained.
pub(crate) const DRAINING: u64 = u64::MAX;

static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

/// `(process generation, thread id + 1)` in one nonzero word. Ids are
/// never reissued, so a stamp names one thread of one process for ever;
/// the generation makes every parent-era stamp dead in a forked child
/// without anyone having to visit it.
fn make_stamp(gen: u64, id: usize) -> u64 {
    (gen << STAMP_ID_BITS) | ((id as u64 + 1) & STAMP_ID_MASK)
}

fn ticket(stamp: u64) -> &'static AtomicU64 {
    &LIVE[(stamp & STAMP_ID_MASK).wrapping_sub(1) as usize % TICKETS]
}

/// Gives `stamp`'s ticket up. Release: publishes the thread's last
/// magazine writes to whoever adopts its slots (see [`stamp_alive`]).
fn release_ticket(stamp: u64) {
    let _ = ticket(stamp).compare_exchange(stamp, 0, Ordering::Release, Ordering::Relaxed);
}

/// Whether the thread that `stamp` names can still touch what it owns.
/// Acquire: pairs with the exit sentinel's release store, so an adopter
/// sees everything the dead owner wrote to its slot.
pub(crate) fn stamp_alive(stamp: u64) -> bool {
    stamp == DRAINING
        || (stamp >> STAMP_ID_BITS == procfork::generation() & (u64::MAX >> STAMP_ID_BITS)
            && ticket(stamp).load(Ordering::Acquire) == stamp)
}

/// Per-thread allocator state. All `Cell`s: only the owning thread (and
/// signal handlers running on it) ever touch it. One cache line: a hit
/// reads five of its words.
#[repr(C, align(64))]
pub(crate) struct ThreadBlock {
    /// Process generation `id` and `stamp` were issued in; `u64::MAX`
    /// before the first use (the generation counter starts at 0).
    gen: Cell<u64>,
    id: Cell<usize>,
    /// This thread's liveness stamp, 0 when it holds no ticket.
    stamp: Cell<u64>,
    /// The stamp held before the last fork: the forking thread's slots
    /// still carry it, and [`crate::magazine`] takes them back by it.
    prev_stamp: Cell<u64>,
    /// Id of the instance `mag` and `column` belong to (0 =
    /// none): the slot key. An instance id is never reused, so a dropped
    /// instance's slot pointer can sit here but is never followed.
    pub(crate) mag_inst: Cell<u64>,
    /// This thread's slot in that instance; null = runs without one.
    pub(crate) mag: Cell<*const Slot>,
    /// This thread's heap column in that instance: its heap of class
    /// `ci` is `ci * nheaps + column`, and a `free` is local when the
    /// frame's entry names it.
    pub(crate) column: Cell<u32>,
    /// True while this thread is inside an allocator entry point. Read
    /// from outside by the crash reporter alone: whether the fault
    /// interrupted the allocator itself or plain application code is one
    /// TLS flag read, async-signal-safe.
    pub(crate) in_alloc: Cell<bool>,
    /// Set by the exit sentinel: the thread is running TLS destructors
    /// and must not take a magazine slot it can no longer give up.
    exiting: Cell<bool>,
}

// Every word a hit reads is on the block's one line.
const _: () = assert!(core::mem::size_of::<ThreadBlock>() == 64);

thread_local! {
    static BLOCK: ThreadBlock = const {
        ThreadBlock {
            gen: Cell::new(u64::MAX),
            id: Cell::new(0),
            stamp: Cell::new(0),
            prev_stamp: Cell::new(0),
            mag_inst: Cell::new(0),
            mag: Cell::new(core::ptr::null()),
            column: Cell::new(0),
            in_alloc: Cell::new(false),
            exiting: Cell::new(false),
        }
    };
    /// Registered on a thread's first allocator call; see the module
    /// docs for why it is not `BLOCK`'s own destructor.
    static EXIT: ExitSentinel = const { ExitSentinel };
}

struct ExitSentinel;

impl Drop for ExitSentinel {
    fn drop(&mut self) {
        BLOCK.with(|tb| {
            tb.exiting.set(true);
            tb.forget_magazine();
            let stamp = tb.stamp.replace(0);
            if stamp != 0 {
                release_ticket(stamp);
            }
        });
    }
}

impl ThreadBlock {
    /// Brings id and stamp up to the current process generation: first
    /// use on this thread, or first use since a fork. The TLS block
    /// crosses a fork verbatim, but a parent-era id must not leak into
    /// the child (it would alias heap slots whose parent owners died
    /// mid-operation), and a parent-era stamp is dead by definition.
    #[cold]
    fn refresh(&self, cur: u64) {
        // `NEXT_THREAD_ID` keeps counting from the parent's value, so a
        // child id never collides with one stamped into heap state.
        let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
        self.id.set(id);
        self.gen.set(cur);
        self.forget_magazine();
        let old = self.stamp.replace(0);
        if old != 0 {
            self.prev_stamp.set(old);
            release_ticket(old);
        }
        // `try_with` fails only once the sentinel has been destroyed.
        if self.exiting.get() || EXIT.try_with(|_| ()).is_err() {
            self.exiting.set(true);
            return;
        }
        let stamp = make_stamp(cur, id);
        let cell = ticket(stamp);
        let seen = cell.load(Ordering::Acquire);
        if (seen == 0 || !stamp_alive(seen))
            && cell
                .compare_exchange(seen, stamp, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        {
            self.stamp.set(stamp);
        }
    }

    #[inline]
    pub(crate) fn ensure_fresh(&self) {
        let cur = procfork::generation();
        if self.gen.get() != cur {
            self.refresh(cur);
        }
    }

    /// Whether the block is of the current process generation: false on
    /// a thread's first call and on its first since a fork.
    #[inline(always)]
    pub(crate) fn is_current(&self) -> bool {
        self.gen.get() == procfork::generation()
    }

    /// A small, dense per-thread id ("Threads use their thread ids to
    /// decide which processor heap to use").
    #[inline]
    pub(crate) fn id(&self) -> usize {
        self.ensure_fresh();
        self.id.get()
    }

    /// This thread's liveness stamp; 0 when it may not own a slot (no
    /// ticket, or already running TLS destructors).
    pub(crate) fn stamp(&self) -> u64 {
        self.ensure_fresh();
        self.stamp.get()
    }

    pub(crate) fn prev_stamp(&self) -> u64 {
        self.prev_stamp.get()
    }

    pub(crate) fn forget_magazine(&self) {
        self.mag_inst.set(0);
        self.mag.set(core::ptr::null());
    }

    /// Kill simulation for tests: the thread keeps running, but what it
    /// owned is abandoned exactly as if it had been killed — its ticket
    /// stays taken and its slots keep naming it for ever.
    pub(crate) fn abandon(&self) {
        self.forget_magazine();
        self.stamp.set(0);
        self.gen.set(u64::MAX);
    }
}

/// Runs `f` on the calling thread's block.
#[inline]
pub(crate) fn with_block<R>(f: impl FnOnce(&ThreadBlock) -> R) -> R {
    BLOCK.with(f)
}

/// Proof of being inside an allocator entry point; dropping it leaves.
pub(crate) struct AllocGuard {
    tb: *const ThreadBlock,
}

impl AllocGuard {
    #[inline(always)]
    pub(crate) fn block(&self) -> &ThreadBlock {
        // SAFETY: the guard never leaves the thread whose block it
        // points at (raw pointers are `!Send`), and is dropped before
        // the entry point returns.
        unsafe { &*self.tb }
    }
}

impl Drop for AllocGuard {
    #[inline(always)]
    fn drop(&mut self) {
        // A signal handler on this thread must see every store of the
        // call before the flag clears; `compiler_fence` is the fence
        // for exactly that (no instruction is emitted).
        compiler_fence(Ordering::SeqCst);
        self.block().in_alloc.set(false);
    }
}

/// Enters an allocator entry point. `None` means the calling thread is
/// *already* inside one — a signal handler re-entered the allocator —
/// and the caller must fail fast instead of proceeding.
#[inline]
pub(crate) fn enter_alloc() -> Option<AllocGuard> {
    let entry = enter_hit()?;
    entry.block().ensure_fresh();
    Some(entry)
}

/// Enters a call that may be a hit — the small hit, and the class and
/// large entries, whose hits are a warm slot's bins and span word:
/// [`enter_alloc`] without bringing the block up to the process
/// generation, which is a stale slot's business (the hit compares it:
/// [`ThreadBlock::is_current`]; `magazine::class_slot`). `None` as there.
#[inline(always)]
pub(crate) fn enter_hit() -> Option<AllocGuard> {
    BLOCK.with(|tb| {
        if tb.in_alloc.get() {
            return None;
        }
        tb.in_alloc.set(true);
        // The magazine's plain loads and stores must stay inside the
        // flagged region for the handler's view of this thread.
        compiler_fence(Ordering::SeqCst);
        Some(AllocGuard { tb })
    })
}

/// The calling thread's id, or `None` once its exit sentinel has run
/// (the thread is in TLS teardown and its identity is being retired).
#[inline]
pub(crate) fn try_thread_id() -> Option<usize> {
    BLOCK.with(|tb| {
        let id = tb.id();
        (!tb.exiting.get()).then_some(id)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamps_are_nonzero_unique_and_generation_scoped() {
        let a = make_stamp(0, 0);
        assert_ne!(a, 0);
        assert_ne!(a, make_stamp(0, 1));
        assert_ne!(a, make_stamp(1, 0));
        assert_eq!(
            make_stamp(1 << 16, 0),
            a,
            "the generation is kept modulo 2^16"
        );
    }

    #[test]
    fn a_thread_holds_its_ticket_until_it_exits() {
        let stamp = std::thread::spawn(|| {
            let s = with_block(|tb| tb.stamp());
            assert!(s == 0 || stamp_alive(s));
            s
        })
        .join()
        .unwrap();
        // id collisions with a long-lived thread leave a thread without
        // a ticket; the property only binds threads that got one.
        if stamp != 0 {
            assert!(!stamp_alive(stamp), "exit sentinel must give the ticket up");
        }
    }

    #[test]
    fn abandoned_tickets_stay_taken() {
        let stamp = std::thread::spawn(|| {
            with_block(|tb| {
                let s = tb.stamp();
                tb.abandon();
                s
            })
        })
        .join()
        .unwrap();
        if stamp != 0 {
            assert!(
                stamp_alive(stamp),
                "a killed thread never clears its ticket"
            );
            // Give the index back so later tests in this process can use it.
            ticket(stamp).store(0, Ordering::Release);
        }
    }

    #[test]
    fn reentry_is_refused_until_the_guard_drops() {
        let g = enter_alloc().expect("first entry");
        assert!(enter_alloc().is_none());
        drop(g);
        assert!(enter_alloc().is_some());
    }
}
