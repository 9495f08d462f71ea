//! The workloads' output checking, driven with allocators that are wrong on
//! purpose: every workload must count a null as a failed operation, every
//! workload that holds more than one block must catch a block handed out
//! twice, and `LfMalloc` must pass with no failure at all.

use lfmalloc::{Config, LfMalloc};
use malloc_api::RawMalloc;
use perfbench::workloads::{run, Budget, RunCfg, Tally, Workload};
use std::sync::Mutex;
use std::time::Instant;

/// Two short slices: enough for every fault below to fire many times.
fn drive<A: RawMalloc>(w: Workload, a: &A) -> Tally {
    let cfg = RunCfg {
        seed: 11,
        warmup_slices: 1,
        budget: Budget::Slices(2),
        slice_ops: w.slice_ops() / 64,
        traced: false,
    };
    let out = run(w, a, Instant::now(), &cfg);
    assert_eq!(
        out.samples.len(),
        2 * if w == Workload::Handoff2t {
            1
        } else {
            w.threads()
        }
    );
    assert!(out.samples.iter().all(|s| *s > 0.0 && s.is_finite()));
    assert!(out.setup_s > 0.0);
    out.tally
}

fn lf(w: Workload) -> LfMalloc {
    LfMalloc::with_config(Config::with_heaps(w.threads()))
}

/// Returns null on every `n`th `malloc`.
struct NullEveryNth {
    inner: LfMalloc,
    n: u64,
    calls: Mutex<u64>,
}

// SAFETY: forwards to `LfMalloc`; a null result is allowed by the contract.
unsafe impl RawMalloc for NullEveryNth {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        let mut calls = self.calls.lock().unwrap();
        *calls += 1;
        if calls.is_multiple_of(self.n) {
            return core::ptr::null_mut();
        }
        unsafe { self.inner.malloc(size) }
    }
    unsafe fn free(&self, ptr: *mut u8) {
        unsafe { self.inner.free(ptr) }
    }
    fn name(&self) -> &str {
        "null-every-nth"
    }
}

/// Breaks the contract on purpose: on every `n`th `malloc` it returns the
/// block it returned last, if that one is still live, so two holders share
/// it. The first `free` of a shared block is swallowed, which keeps the
/// allocator underneath consistent while the workload sees the fault.
struct HandsOutTwice {
    inner: LfMalloc,
    n: u64,
    state: Mutex<Twice>,
}

#[derive(Default)]
struct Twice {
    calls: u64,
    last_live: usize,
    shared: Vec<usize>,
}

// SAFETY: deliberately unsound towards its caller (that is the test); the
// caller only ever writes the first 8 bytes of a block, which every block
// has, and towards `inner` each block is freed exactly once.
unsafe impl RawMalloc for HandsOutTwice {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        let mut s = self.state.lock().unwrap();
        s.calls += 1;
        if s.calls.is_multiple_of(self.n) && s.last_live != 0 {
            let again = s.last_live;
            s.shared.push(again);
            return again as *mut u8;
        }
        let p = unsafe { self.inner.malloc(size) };
        s.last_live = p as usize;
        p
    }
    unsafe fn free(&self, ptr: *mut u8) {
        let mut s = self.state.lock().unwrap();
        if s.last_live == ptr as usize {
            s.last_live = 0;
        }
        if let Some(i) = s.shared.iter().position(|p| *p == ptr as usize) {
            s.shared.swap_remove(i);
            return;
        }
        unsafe { self.inner.free(ptr) }
    }
    fn name(&self) -> &str {
        "hands-out-twice"
    }
}

#[test]
fn lfmalloc_fails_nothing_on_any_workload() {
    for w in Workload::ALL {
        let t = drive(w, &lf(w));
        assert!(t.attempted > 0, "{}", w.name());
        assert_eq!(t.failed, 0, "{}", w.name());
        assert_eq!(t.fail_ratio(), 0.0);
    }
}

#[test]
fn every_workload_counts_null_returns() {
    for w in Workload::ALL {
        let a = NullEveryNth {
            inner: lf(w),
            n: 97,
            calls: Mutex::new(0),
        };
        let t = drive(w, &a);
        let calls = *a.calls.lock().unwrap();
        assert_eq!(t.attempted, calls, "{}: one operation per malloc", w.name());
        assert_eq!(
            t.failed,
            calls / 97,
            "{}: exactly the nulls are failures",
            w.name()
        );
        assert!(t.fail_ratio() > 0.0);
    }
}

#[test]
fn workloads_that_hold_blocks_catch_a_block_handed_out_twice() {
    // The pair loops free each block before the next malloc, so they never
    // hold two blocks and cannot be handed the same one twice.
    for w in [
        Workload::Larson2t,
        Workload::Threadtest2t,
        Workload::Sbcycle1t,
        Workload::Handoff2t,
    ] {
        let a = HandsOutTwice {
            inner: lf(w),
            n: 97,
            state: Mutex::new(Twice::default()),
        };
        let t = drive(w, &a);
        assert!(t.failed > 0, "{} did not notice", w.name());
        assert!(
            t.failed < t.attempted / 50,
            "{}: only shared blocks fail",
            w.name()
        );
        assert!(t.fail_ratio() > 0.0);
    }
}
