//! Process-lifecycle (fork) hooks and the process generation counter.
//!
//! `fork()` in a multithreaded process copies the whole address space but
//! only the *calling* thread survives in the child. For an allocator that
//! is bad news twice over: lock-based allocators can be cloned with a
//! lock held by a thread that no longer exists (the child deadlocks on
//! first use), and even a lock-free allocator inherits per-thread state —
//! thread caches, ownership stamps, background threads — whose owners are
//! gone. POSIX answers with `pthread_atfork`; this module provides the
//! same prepare/parent/child protocol **in-tree**, so it is testable,
//! deterministic, and free of the libc allocation hazards that make
//! `pthread_atfork` unusable from inside a global allocator's
//! initialization path (glibc's `pthread_atfork` may itself `malloc`,
//! which would recurse into the allocator being constructed).
//!
//! # The three ways hooks run
//!
//! 1. **[`fork`] wrapper** (preferred, what the workspace's tests use):
//!    runs every registered prepare hook, calls the raw libc `fork`, then
//!    runs parent hooks in the parent and child hooks in the child.
//!    Fully in-tree; nothing depends on libc's handler list.
//! 2. **[`install`] bridge** (opt-in): registers the three runners with
//!    the real `pthread_atfork`, so raw `libc::fork()` calls made by
//!    foreign code also run the hooks. Must be called early from a
//!    context that may allocate (never from allocator init).
//! 3. **[`child_after_raw_fork`]** (escape hatch): a child created by a
//!    raw `fork()` with neither of the above can call this, immediately
//!    after forking and before creating threads, to bump the generation
//!    and run child hooks.
//!
//! # The generation counter
//!
//! [`generation`] starts at 0 and is incremented in the child (before
//! child hooks run). Long-lived structures stamp the generation they were
//! created under; comparing the stamp against the current generation is
//! a one-load test for "did a fork happen since?" — the mechanism behind
//! lfmalloc's lazy child-side heap recovery and its fork-aware
//! thread-id TLS.
//!
//! # Ordering and locking
//!
//! Like POSIX: prepare hooks run in **reverse** registration order,
//! parent/child hooks in registration order, so nested lock hierarchies
//! acquired by prepare are released in the opposite order. The registry
//! itself is a fixed-size slot array behind a spinlock — no allocation
//! on any path — and the spinlock is held **across** the fork (acquired
//! by prepare, released by parent/child), so the child can never observe
//! a half-registered entry and concurrent forks serialize.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Capacity of the hook registry. Each allocator instance uses one slot;
/// 64 concurrent fork-aware allocator instances is far beyond any real
/// configuration (the workspace's torture tests peak below ten).
pub const MAX_HOOKS: usize = 64;

/// One hook function: called with the `data` word its registration
/// supplied (typically a pointer to the instance, as a `usize`).
///
/// # Safety contract (for registrants)
///
/// Hooks run during [`fork`] with the registry lock held: they must not
/// register/unregister hooks or fork, and child hooks run in the
/// single-threaded child where every other parent thread is gone.
pub type Hook = unsafe fn(usize);

/// The prepare/parent/child triple plus its context word.
#[derive(Clone, Copy, Default)]
pub struct HookSet {
    /// Runs in the forking process before `fork` (reverse registration
    /// order). Acquire locks here.
    pub prepare: Option<Hook>,
    /// Runs in the parent after `fork` (registration order). Release
    /// what prepare acquired.
    pub parent: Option<Hook>,
    /// Runs in the child after `fork` (registration order), after the
    /// generation bump, while the child is still single-threaded.
    pub child: Option<Hook>,
    /// Opaque word handed to each hook (instance address, typically).
    pub data: usize,
}

#[derive(Clone, Copy)]
struct Entry {
    set: HookSet,
    /// Monotonic registration sequence; orders hook execution even when
    /// slots are reused after unregistration.
    seq: u64,
}

/// Fixed-capacity registry. All slot access happens under `lock`, which
/// doubles as the fork serialization lock (held across the fork itself).
struct Registry {
    lock: AtomicBool,
    slots: UnsafeCell<[Option<Entry>; MAX_HOOKS]>,
    next_seq: UnsafeCell<u64>,
}

// Slot data is only touched while `lock` is held.
unsafe impl Sync for Registry {}

static REGISTRY: Registry = Registry {
    lock: AtomicBool::new(false),
    slots: UnsafeCell::new([None; MAX_HOOKS]),
    next_seq: UnsafeCell::new(1),
};

/// Process generation: 0 at process start, +1 in every forked child
/// (bumped before the child hooks run).
static GENERATION: AtomicU64 = AtomicU64::new(0);

/// Whether [`install`] has bridged the runners into `pthread_atfork`.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// The current process generation. Cheap (one relaxed load) — meant for
/// hot-path "did a fork happen?" stamps.
#[inline]
pub fn generation() -> u64 {
    GENERATION.load(Ordering::Relaxed)
}

/// Proof of a successful [`register`]; pass it to [`unregister`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookToken {
    slot: usize,
    seq: u64,
}

fn lock_registry() {
    while REGISTRY
        .lock
        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        core::hint::spin_loop();
    }
}

fn unlock_registry() {
    REGISTRY.lock.store(false, Ordering::Release);
}

/// Registers a hook set. Returns `None` when all [`MAX_HOOKS`] slots are
/// taken. Never allocates. Must not be called from inside a hook.
pub fn register(set: HookSet) -> Option<HookToken> {
    lock_registry();
    let token = unsafe {
        let slots = &mut *REGISTRY.slots.get();
        let seq_cell = &mut *REGISTRY.next_seq.get();
        let mut found = None;
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                let seq = *seq_cell;
                *seq_cell += 1;
                *slot = Some(Entry { set, seq });
                found = Some(HookToken { slot: i, seq });
                break;
            }
        }
        found
    };
    unlock_registry();
    token
}

/// Unregisters a previously registered hook set. A stale token (slot
/// already reused) is detected via the sequence number and ignored.
/// Serializes against [`fork`]: an unregistration can never interleave
/// with a fork in progress, so a hook set is either fully present for
/// all three phases of a fork or absent from all three.
pub fn unregister(token: HookToken) {
    lock_registry();
    unsafe {
        let slots = &mut *REGISTRY.slots.get();
        if let Some(entry) = slots[token.slot] {
            if entry.seq == token.seq {
                slots[token.slot] = None;
            }
        }
    }
    unlock_registry();
}

/// Number of currently registered hook sets (diagnostics/tests).
pub fn registered_count() -> usize {
    lock_registry();
    let n = unsafe { (*REGISTRY.slots.get()).iter().flatten().count() };
    unlock_registry();
    n
}

/// Runs `f` on every live entry, ordered by registration sequence
/// (ascending or descending). Selection scan instead of a sort: no
/// allocation, and MAX_HOOKS² is trivially small.
///
/// # Safety
///
/// Registry lock must be held by the caller.
unsafe fn for_each_ordered(descending: bool, mut f: impl FnMut(&Entry)) {
    let slots = unsafe { &*REGISTRY.slots.get() };
    let mut last: Option<u64> = None;
    loop {
        let mut best: Option<&Entry> = None;
        for entry in slots.iter().flatten() {
            let better_than_last = match last {
                None => true,
                Some(l) => {
                    if descending {
                        entry.seq < l
                    } else {
                        entry.seq > l
                    }
                }
            };
            if !better_than_last {
                continue;
            }
            let better_than_best = match best {
                None => true,
                Some(b) => {
                    if descending {
                        entry.seq > b.seq
                    } else {
                        entry.seq < b.seq
                    }
                }
            };
            if better_than_best {
                best = Some(entry);
            }
        }
        match best {
            Some(entry) => {
                last = Some(entry.seq);
                f(entry);
            }
            None => break,
        }
    }
}

/// Prepare phase: takes the registry lock (held until `run_parent` /
/// `run_child` releases it) and runs prepare hooks newest-first.
fn run_prepare() {
    lock_registry();
    unsafe {
        for_each_ordered(true, |e| {
            if let Some(h) = e.set.prepare {
                h(e.set.data);
            }
        });
    }
}

/// Parent phase: runs parent hooks oldest-first, then releases the lock
/// taken by `run_prepare`.
fn run_parent() {
    unsafe {
        for_each_ordered(false, |e| {
            if let Some(h) = e.set.parent {
                h(e.set.data);
            }
        });
    }
    unlock_registry();
}

/// Child phase: bumps the generation, runs child hooks oldest-first,
/// then releases the lock. The lock word was copied in the *held* state
/// and the forking thread — the only one alive — is its owner, so the
/// release is sound.
fn run_child() {
    GENERATION.fetch_add(1, Ordering::Relaxed);
    unsafe {
        for_each_ordered(false, |e| {
            if let Some(h) = e.set.child {
                h(e.set.data);
            }
        });
    }
    unlock_registry();
}

extern "C" fn bridge_prepare() {
    run_prepare();
}
extern "C" fn bridge_parent() {
    run_parent();
}
extern "C" fn bridge_child() {
    run_child();
}

/// Bridges the hook runners into the real `pthread_atfork`, so raw
/// `fork()` calls made by code outside this workspace also run them.
/// Idempotent; returns `true` once the bridge is active.
///
/// Call this early (e.g. top of `main`) from a context where allocation
/// is safe — glibc's `pthread_atfork` may allocate, which is exactly why
/// allocator construction never calls this implicitly. After a
/// successful `install`, [`fork`] stops running hooks manually (libc
/// runs the bridge) so hooks never fire twice.
pub fn install() -> bool {
    if INSTALLED.load(Ordering::Acquire) {
        return true;
    }
    let rc = unsafe {
        sys::pthread_atfork(Some(bridge_prepare), Some(bridge_parent), Some(bridge_child))
    };
    if rc == 0 {
        INSTALLED.store(true, Ordering::Release);
        true
    } else {
        false
    }
}

/// Whether the `pthread_atfork` bridge is active.
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Acquire)
}

/// Forks the process with the full hook protocol.
///
/// Returns the raw `fork` result: 0 in the child, the child's pid in the
/// parent, negative on failure (in which case prepare hooks were undone
/// by the parent hooks — both run in the forking process).
///
/// # Safety
///
/// `fork` in a multithreaded process is inherently delicate: the child
/// must restrict itself to the recovered allocators and async-signal-safe
/// libc until it execs or exits (glibc's own atfork handling covers libc
/// malloc's internal locks). The caller must not hold any lock a
/// registered hook acquires (don't fork from inside an allocation).
pub unsafe fn fork() -> i32 {
    if installed() {
        // libc runs the bridge hooks itself.
        return unsafe { sys::fork() };
    }
    run_prepare();
    let pid = unsafe { sys::fork() };
    if pid == 0 {
        run_child();
    } else {
        // Parent hooks also undo prepare when the fork itself failed.
        run_parent();
    }
    pid
}

/// Recovery entry point for a child created by a **raw** `fork()` that
/// bypassed both [`fork`] and the [`install`] bridge: bumps the
/// generation and runs the child hooks.
///
/// # Safety
///
/// Must be called by the forking thread, in the child, before any other
/// thread is spawned and before the allocators are used, and only when
/// the hooks did *not* already run (calling it after [`fork`] would
/// double-bump the generation). The registry lock is forcibly taken:
/// any parent thread that held it died in the fork.
pub unsafe fn child_after_raw_fork() {
    // Steal the lock unconditionally: the child is single-threaded, so
    // a "held" lock has no live owner.
    REGISTRY.lock.store(true, Ordering::Relaxed);
    run_child();
}

/// Minimal raw libc surface for process-lifecycle work: declared
/// `extern "C"` against the already-linked libc (the same pattern as
/// `osmem`'s `mprotect`), keeping the workspace dependency-free.
pub mod sys {
    unsafe extern "C" {
        /// Raw `fork(2)`. Prefer [`super::fork`], which runs the hooks.
        pub fn fork() -> i32;
        /// `waitpid(2)`.
        pub fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        /// `_exit(2)` — exits without running atexit handlers or
        /// flushing stdio; the only safe way for a forked test child to
        /// report a verdict.
        pub fn _exit(code: i32) -> !;
        /// `kill(2)`.
        pub fn kill(pid: i32, sig: i32) -> i32;
        /// `raise(3)` — sends `sig` to the calling thread.
        pub fn raise(sig: i32) -> i32;
        /// `getpid(2)`.
        pub fn getpid() -> i32;
        /// `execv(2)`.
        pub fn execv(path: *const u8, argv: *const *const u8) -> i32;
        /// `signal(2)`; `handler` is a function address or `SIG_DFL`/
        /// `SIG_IGN` (0/1).
        pub fn signal(sig: i32, handler: usize) -> usize;
        /// `pthread_atfork(3)` — used by [`super::install`].
        pub fn pthread_atfork(
            prepare: Option<extern "C" fn()>,
            parent: Option<extern "C" fn()>,
            child: Option<extern "C" fn()>,
        ) -> i32;
        /// `write(2)` — the only output primitive that is
        /// async-signal-safe; crash reporters must use nothing else.
        pub fn write(fd: i32, buf: *const u8, len: usize) -> isize;
        /// `sigaction(2)` against the glibc `struct sigaction` layout
        /// mirrored by [`SigAction`]. Used to install `SA_SIGINFO`
        /// crash handlers while capturing the previous disposition for
        /// chaining.
        pub fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        /// `atexit(3)` — registers a normal-exit hook (leak reports).
        pub fn atexit(cb: extern "C" fn()) -> i32;
    }

    /// glibc's `struct sigaction` on Linux: handler word, 1024-bit
    /// signal mask, flags, restorer. Zero-initialised is a valid empty
    /// mask. `sa_sigaction` holds either a function address or
    /// `SIG_DFL`/`SIG_IGN` (0/1).
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct SigAction {
        pub sa_sigaction: usize,
        pub sa_mask: [u64; 16],
        pub sa_flags: i32,
        pub sa_restorer: usize,
    }

    impl SigAction {
        /// An empty (all-default) action with the given handler word
        /// and flags.
        pub fn new(handler: usize, flags: i32) -> Self {
            SigAction { sa_sigaction: handler, sa_mask: [0; 16], sa_flags: flags, sa_restorer: 0 }
        }
    }

    /// The prefix of Linux's `siginfo_t` that crash handlers need:
    /// `si_addr` (the faulting address for SIGSEGV/SIGBUS) lives at
    /// offset 16 on 64-bit Linux, after signo/errno/code + padding.
    #[repr(C)]
    pub struct SigInfo {
        pub si_signo: i32,
        pub si_errno: i32,
        pub si_code: i32,
        _pad: i32,
        pub si_addr: usize,
        _rest: [u64; 13],
    }

    /// `waitpid` option: return immediately when no child has exited.
    pub const WNOHANG: i32 = 1;
    /// `SIGUSR1` on Linux.
    pub const SIGUSR1: i32 = 10;
    /// `SIGKILL`.
    pub const SIGKILL: i32 = 9;
    /// `SIGABRT` — raised by `abort(3)`/Rust `panic=abort`.
    pub const SIGABRT: i32 = 6;
    /// `SIGBUS` on Linux.
    pub const SIGBUS: i32 = 7;
    /// `SIGSEGV` on Linux.
    pub const SIGSEGV: i32 = 11;
    /// `sigaction` flag: deliver the 3-argument `SA_SIGINFO` handler.
    pub const SA_SIGINFO: i32 = 4;

    /// Decodes a `waitpid` status: `Some(code)` if the child exited
    /// normally (the `WIFEXITED`/`WEXITSTATUS` pair).
    pub fn exit_code(status: i32) -> Option<i32> {
        if status & 0x7f == 0 {
            Some((status >> 8) & 0xff)
        } else {
            None
        }
    }

    /// Decodes a `waitpid` status: `Some(signal)` if the child was
    /// killed by a signal (the `WIFSIGNALED`/`WTERMSIG` pair).
    pub fn term_signal(status: i32) -> Option<i32> {
        let sig = status & 0x7f;
        if sig != 0 && sig != 0x7f { Some(sig) } else { None }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    // The unit tests share the process-global registry; serialize them.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    static TRACE: AtomicUsize = AtomicUsize::new(0);

    unsafe fn record(tag: usize) {
        // Shift in a nibble per hook call: a readable call-order trace.
        let mut cur = TRACE.load(Ordering::Relaxed);
        loop {
            match TRACE.compare_exchange(
                cur,
                (cur << 4) | tag,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(c) => cur = c,
            }
        }
    }

    unsafe fn p1(_d: usize) {
        unsafe { record(0x1) }
    }
    unsafe fn p2(_d: usize) {
        unsafe { record(0x2) }
    }
    unsafe fn c1(_d: usize) {
        unsafe { record(0xA) }
    }
    unsafe fn c2(_d: usize) {
        unsafe { record(0xB) }
    }

    #[test]
    fn register_unregister_roundtrip() {
        let _g = TEST_LOCK.lock().unwrap();
        let before = registered_count();
        let t = register(HookSet { prepare: Some(p1), ..Default::default() }).unwrap();
        assert_eq!(registered_count(), before + 1);
        unregister(t);
        assert_eq!(registered_count(), before);
        // Stale token against a reused slot is ignored.
        let t2 = register(HookSet { prepare: Some(p2), ..Default::default() }).unwrap();
        unregister(t);
        assert_eq!(registered_count(), before + 1, "stale token must not evict");
        unregister(t2);
    }

    #[test]
    fn prepare_reversed_parent_in_order() {
        let _g = TEST_LOCK.lock().unwrap();
        TRACE.store(0, Ordering::Relaxed);
        let t1 = register(HookSet { prepare: Some(p1), parent: Some(c1), ..Default::default() })
            .unwrap();
        let t2 = register(HookSet { prepare: Some(p2), parent: Some(c2), ..Default::default() })
            .unwrap();
        run_prepare();
        run_parent();
        unregister(t1);
        unregister(t2);
        // prepare: newest first (2 then 1); parent: oldest first (A then B).
        assert_eq!(TRACE.load(Ordering::Relaxed), 0x21AB);
    }

    #[test]
    fn fork_bumps_generation_and_reports_child_exit() {
        let _g = TEST_LOCK.lock().unwrap();
        let gen_before = generation();
        let pid = unsafe { fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            // Child: report the generation delta via the exit code.
            // Only _exit is safe here (other test threads may hold
            // arbitrary locks).
            let delta = generation().wrapping_sub(gen_before) as i32;
            unsafe { sys::_exit(40 + delta) };
        }
        let mut status = 0;
        let r = unsafe { sys::waitpid(pid, &mut status, 0) };
        assert_eq!(r, pid);
        assert_eq!(sys::exit_code(status), Some(41), "child saw generation + 1");
        assert_eq!(generation(), gen_before, "parent generation unchanged");
    }
}
