//! A census of what a piece of code executes: instructions, locked
//! read-modify-writes and `syscall`s, counted by single-stepping it.
//!
//! Timing a change of a few per cent needs a quiet machine; a count does
//! not, and it repeats exactly. [`census`] forks; the child runs `prepare`
//! untraced and then `body` between two `int3` markers, while the parent
//! steps it one instruction at a time (`PTRACE_SINGLESTEP`) and reads each
//! instruction's first bytes to tell what it is. A *locked RMW* is an
//! instruction with a `LOCK` prefix or an `xchg` with a memory operand
//! (locked without one). What the census cannot see is what an instruction
//! costs: cache misses, store-forwarding stalls and contention are the
//! timing benchmark's business.
//!
//! Linux on x86-64 only. `fork`, `ptrace` and `waitpid` are declared
//! through `extern "C"` against the libc the program links anyway, so the
//! crate stays dependency-free. On any other target, and where the kernel
//! refuses `ptrace`, [`census`] returns [`Unavailable`]: never a count of
//! zero. One child is traced at a time, whichever thread asks.
//!
//! ```no_run
//! use malloc_api::trace;
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let per_op = trace::per_op(100, || AtomicU64::new(0), |w, n| {
//!     for _ in 0..n {
//!         w.fetch_add(1, Ordering::Relaxed);
//!     }
//! });
//! match per_op {
//!     Ok(c) => assert_eq!(c.locked, 1.0),
//!     Err(e) => println!("{e}"),
//! }
//! ```

use core::fmt;

/// What the traced code executed between the markers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub instructions: u64,
    /// `LOCK`-prefixed instructions and `xchg` with a memory operand.
    pub locked: u64,
    /// `syscall` instructions.
    pub syscalls: u64,
}

/// [`Counts`] of one operation: the difference of two runs over the
/// number of operations between them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PerOp {
    pub instructions: f64,
    pub locked: f64,
    pub syscalls: f64,
}

/// Why there is no count: the target has no tracer here, or the kernel
/// refused to trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Unavailable(pub &'static str);

impl fmt::Display for Unavailable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "census unavailable: {}", self.0)
    }
}

impl std::error::Error for Unavailable {}

/// Counts what `body` executes, handed what `prepare` built. Both run in a
/// forked child, so nothing they do reaches the caller's process; only
/// `body` is counted.
///
/// # Panics
///
/// If the child dies or exits before the second marker (`prepare` or
/// `body` panicked, or faulted).
pub fn census<P>(prepare: impl FnOnce() -> P, body: impl FnOnce(P)) -> Result<Counts, Unavailable> {
    imp::census(prepare, body)
}

/// One operation's [`Counts`]: `body(state, n)` must run `n` operations,
/// and is counted at `n` and at 0 on identical states, so that what runs
/// once (the call, the loop's setup) cancels.
pub fn per_op<P>(
    n: u64,
    prepare: impl Fn() -> P,
    body: impl Fn(P, u64),
) -> Result<PerOp, Unavailable> {
    assert!(n > 0, "an operation count of 0 divides by nothing");
    let with = census(&prepare, |p| body(p, core::hint::black_box(n)))?;
    let without = census(&prepare, |p| body(p, core::hint::black_box(0)))?;
    let per = |a: u64, b: u64| (a as f64 - b as f64) / n as f64;
    Ok(PerOp {
        instructions: per(with.instructions, without.instructions),
        locked: per(with.locked, without.locked),
        syscalls: per(with.syscalls, without.syscalls),
    })
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::{Counts, Unavailable};
    use std::sync::Mutex;

    unsafe extern "C" {
        fn fork() -> i32;
        fn ptrace(request: i32, ...) -> i64;
        fn waitpid(pid: i32, status: *mut i32, options: i32) -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
        fn _exit(code: i32) -> !;
        fn __errno_location() -> *mut i32;
    }

    const PTRACE_TRACEME: i32 = 0;
    const PTRACE_PEEKTEXT: i32 = 1;
    const PTRACE_PEEKUSER: i32 = 3;
    const PTRACE_SINGLESTEP: i32 = 9;
    const SIGTRAP: i32 = 5;
    const SIGKILL: i32 = 9;
    /// `offsetof(struct user, regs.rip)`: the 17th word of `user_regs_struct`.
    const RIP: usize = 16 * 8;
    /// The child's exit codes when it never reaches its first marker.
    const DENIED: i32 = 97;
    const FAILED: i32 = 98;

    /// One traced child at a time: the steps of two would interleave in
    /// nobody's favour, and a burst of children is not what a census is for.
    static ONE_CHILD: Mutex<()> = Mutex::new(());

    /// Stops the child for its tracer; the byte a step lands on when the
    /// counted region is over.
    #[inline(always)]
    fn marker() {
        // Not `nomem`: the marker is a barrier the body's memory accesses
        // stay on their side of.
        unsafe { core::arch::asm!("int3", options(nostack)) };
    }

    pub(super) fn census<P>(
        prepare: impl FnOnce() -> P,
        body: impl FnOnce(P),
    ) -> Result<Counts, Unavailable> {
        let _one = ONE_CHILD.lock().unwrap_or_else(|e| e.into_inner());
        // SAFETY: the child only runs the caller's closures and leaves with
        // `_exit`; a panic is caught before it could unwind into code that
        // belongs to the parent's other threads.
        let pid = unsafe { fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            let code = if unsafe { ptrace(PTRACE_TRACEME, 0, 0usize, 0usize) } != 0 {
                DENIED
            } else {
                let run = std::panic::AssertUnwindSafe(|| {
                    let state = prepare();
                    marker();
                    body(state);
                    marker();
                });
                if std::panic::catch_unwind(run).is_ok() { 0 } else { FAILED }
            };
            unsafe { _exit(code) };
        }
        let traced = Traced(pid);
        match traced.wait() {
            Stop::Signal(SIGTRAP) => {}
            Stop::Exited(DENIED) => return Err(Unavailable("the kernel refused ptrace")),
            other => panic!("the traced child never reached its first marker: {}", other.says()),
        }
        let mut counts = Counts::default();
        let mut deliver = 0;
        // Code does not change under the tracer: each address is read and
        // decoded once, `None` for the second marker (`int3`).
        let mut seen = std::collections::HashMap::new();
        loop {
            let rip = traced.peek(PTRACE_PEEKUSER, RIP) as usize;
            let kind = *seen.entry(rip).or_insert_with(|| {
                let lo = traced.peek(PTRACE_PEEKTEXT, rip).to_le_bytes();
                let hi = traced.peek(PTRACE_PEEKTEXT, rip + 8).to_le_bytes();
                let bytes: [u8; 16] = core::array::from_fn(|i| if i < 8 { lo[i] } else { hi[i - 8] });
                (bytes[0] != 0xCC).then(|| classify(&bytes))
            });
            let Some((locked, syscall)) = kind else {
                break;
            };
            counts.instructions += 1;
            counts.locked += locked as u64;
            counts.syscalls += syscall as u64;
            // SAFETY: `pid` is our stopped tracee.
            let stepped = unsafe { ptrace(PTRACE_SINGLESTEP, pid, 0usize, deliver as usize) };
            assert_eq!(stepped, 0, "PTRACE_SINGLESTEP failed");
            deliver = match traced.wait() {
                Stop::Signal(SIGTRAP) => 0,
                // Not ours: the child gets it with its next step.
                Stop::Signal(sig) => sig,
                other => panic!("the traced child left between its markers: {}", other.says()),
            };
        }
        Ok(counts)
    }

    enum Stop {
        Signal(i32),
        Exited(i32),
        Killed(i32),
    }

    impl Stop {
        fn says(&self) -> String {
            match self {
                Stop::Signal(sig) => format!("stopped by signal {sig}"),
                Stop::Exited(FAILED) => "its closure panicked".into(),
                Stop::Exited(code) => format!("exited with {code}"),
                Stop::Killed(sig) => format!("killed by signal {sig}"),
            }
        }
    }

    /// A traced child, killed and reaped when dropped.
    struct Traced(i32);

    impl Traced {
        fn wait(&self) -> Stop {
            let mut status = 0;
            loop {
                // SAFETY: `status` is a valid out-pointer.
                let r = unsafe { waitpid(self.0, &mut status, 0) };
                if r == self.0 {
                    break;
                }
                assert!(r == -1 && unsafe { *__errno_location() } == 4, "waitpid failed"); // EINTR
            }
            if status & 0xff == 0x7f {
                Stop::Signal((status >> 8) & 0xff)
            } else if status & 0x7f == 0 {
                Stop::Exited((status >> 8) & 0xff)
            } else {
                Stop::Killed(status & 0x7f)
            }
        }

        /// A word of the stopped child's registers or memory.
        fn peek(&self, request: i32, addr: usize) -> u64 {
            // SAFETY: a read request on our stopped tracee; glibc returns
            // the word and sets `errno` to 0, or returns -1 with `errno` set.
            unsafe {
                *__errno_location() = 0;
                let word = ptrace(request, self.0, addr, 0usize);
                assert!(word != -1 || *__errno_location() == 0, "ptrace peek failed");
                word as u64
            }
        }
    }

    impl Drop for Traced {
        fn drop(&mut self) {
            // SAFETY: our own child; it is reaped below, once.
            unsafe { kill(self.0, SIGKILL) };
            while !matches!(self.wait(), Stop::Exited(_) | Stop::Killed(_)) {}
        }
    }

    /// Whether the instruction that starts `b` is a locked read-modify-write,
    /// and whether it is `syscall`: the legacy prefixes, one REX, the opcode.
    pub(super) fn classify(b: &[u8; 16]) -> (bool, bool) {
        let (mut i, mut lock) = (0, false);
        while i < 14 {
            match b[i] {
                0xF0 => lock = true,
                0xF2 | 0xF3 | 0x2E | 0x36 | 0x3E | 0x26 | 0x64 | 0x65 | 0x66 | 0x67 => {}
                _ => break,
            }
            i += 1;
        }
        if b[i] & 0xF0 == 0x40 {
            i += 1;
        }
        let (op, next) = (b[i], b[i + 1]);
        // `xchg` r/m, r: locked whenever the ModRM names memory.
        let xchg_mem = matches!(op, 0x86 | 0x87) && next >> 6 != 3;
        (lock || xchg_mem, op == 0x0F && next == 0x05)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::{Counts, Unavailable};

    pub(super) fn census<P>(
        _prepare: impl FnOnce() -> P,
        _body: impl FnOnce(P),
    ) -> Result<Counts, Unavailable> {
        Err(Unavailable("the tracer is Linux x86-64 only"))
    }
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn the_decoder_tells_locked_rmws_and_syscalls() {
        let of = |code: &[u8]| {
            let mut b = [0x90u8; 16];
            b[..code.len()].copy_from_slice(code);
            imp::classify(&b)
        };
        assert_eq!(of(&[0xF0, 0x48, 0x0F, 0xB1, 0x17]), (true, false)); // lock cmpxchg [rdi], rdx
        assert_eq!(of(&[0xF0, 0x48, 0x0F, 0xC1, 0x07]), (true, false)); // lock xadd [rdi], rax
        assert_eq!(of(&[0x48, 0x87, 0x07]), (true, false)); // xchg [rdi], rax
        assert_eq!(of(&[0x48, 0x87, 0xC7]), (false, false)); // xchg rdi, rax
        assert_eq!(of(&[0x48, 0x0F, 0xB1, 0x17]), (false, false)); // cmpxchg without lock
        assert_eq!(of(&[0x0F, 0x05]), (false, true)); // syscall
        assert_eq!(of(&[0x48, 0x8B, 0x07]), (false, false)); // mov rax, [rdi]
    }

    #[test]
    fn a_census_counts_each_locked_rmw_once_and_repeats_exactly() {
        let run = || {
            per_op(50, || AtomicU64::new(0), |w, n| {
                for _ in 0..n {
                    w.fetch_add(1, Ordering::Relaxed);
                    w.swap(3, Ordering::SeqCst);
                }
            })
        };
        let a = run().expect("this target traces");
        assert_eq!((a.locked, a.syscalls), (2.0, 0.0));
        assert!(a.instructions >= 2.0, "{a:?}");
        assert_eq!(run().unwrap(), a, "a census repeats exactly");
    }

    #[test]
    fn nothing_the_child_does_reaches_the_parent() {
        let w = AtomicU64::new(7);
        let c = census(|| &w, |w| w.store(1, Ordering::Relaxed)).expect("this target traces");
        assert!(c.instructions > 0);
        assert_eq!(w.load(Ordering::Relaxed), 7);
    }
}
