//! [`OracleMalloc`]: the shadow-heap verifying wrapper.
//!
//! Wraps any [`RawMalloc`] and mirrors every operation into a
//! [`ShadowMap`], checking on each op:
//!
//! * **uniqueness** — a returned pointer must not already be live
//!   (double-hand-out), and a freed pointer must be live (double free /
//!   wild free);
//! * **alignment** — results honor [`MIN_MALLOC_ALIGN`] and any
//!   explicit `malloc_aligned` request;
//! * **usable size** — `usable_size` never reports less than the
//!   request;
//! * **zeroing** — `calloc`/`malloc_zeroed` results are actually zero,
//!   and the overflow-checked multiply never "succeeds" small;
//! * **content integrity** (fill mode) — each block is filled with a
//!   position-based pattern keyed by a per-block nonce
//!   ([`testkit::fill_seeded`]) and verified at free/realloc, catching
//!   any cross-block scribble the allocator commits between the two
//!   points, plus realloc's `min(old, new)` preservation contract.
//!
//! Fill mode assumes the *oracle is the only writer* of user bytes —
//! the differential harness and the replayer own their blocks. To wrap
//! a real workload (which writes into its blocks), use
//! [`OracleMalloc::recording`], which disables fill checks and attaches
//! a [`TraceRecorder`].
//!
//! On violation, [`Mode::Panic`] aborts the test immediately with a
//! descriptive message; [`Mode::Record`] logs the violation and
//! *halts*: subsequent mallocs return null and frees become no-ops, so
//! a detected double-hand-out never cascades into real double frees of
//! the underlying allocator. The replayer uses Record mode and stops at
//! the first violation.

use crate::shadow::{InsertError, ShadowBlock, ShadowMap};
use crate::trace::{TraceOp, TraceRecorder};
use malloc_api::testkit;
use malloc_api::{AllocStats, RawMalloc, MIN_MALLOC_ALIGN};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// What the wrapper does when a check fails.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Panic at the violating call site (plain unit tests).
    Panic,
    /// Record the violation and halt the wrapper (replayer, shrinker).
    Record,
}

/// Wrapper configuration.
#[derive(Clone, Copy, Debug)]
pub struct OracleConfig {
    /// Fill blocks with seeded patterns and verify them at free and
    /// realloc. Requires that no one but the oracle writes user bytes.
    pub fill: bool,
    /// Violation handling.
    pub mode: Mode,
    /// Shadow-map capacity (live blocks).
    pub capacity: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { fill: true, mode: Mode::Panic, capacity: 1 << 16 }
    }
}

/// One detected contract violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The allocator returned a pointer that is already live.
    DoubleHandOut { ptr: usize, size: usize, existing_size: usize },
    /// A free/realloc of a pointer that is not live (double free or a
    /// pointer the oracle never saw).
    UntrackedFree { ptr: usize },
    /// A result violates its alignment contract.
    Misaligned { ptr: usize, align: usize },
    /// `usable_size` reported less than the requested size.
    UsableTooSmall { ptr: usize, requested: usize, usable: usize },
    /// A `calloc`/`malloc_zeroed` result had a nonzero byte.
    NotZeroed { ptr: usize, size: usize, index: usize },
    /// `calloc` returned non-null for an overflowing `count * size`.
    CallocOverflow { count: usize, size: usize },
    /// A block's fill pattern was damaged between hand-out and free.
    ContentCorruption { ptr: usize, size: usize, index: usize },
    /// Realloc failed to preserve `min(old, new)` bytes.
    ReallocContentLoss { old_ptr: usize, new_ptr: usize, preserved: usize, index: usize },
    /// Two live blocks overlap (found by the quiescent sweep).
    Overlap { a: usize, a_size: usize, b: usize },
}

impl Violation {
    /// The same violation with every pointer reduced to its offset in an
    /// aligned `frame` (a power of two): what two replays of one trace
    /// share when the kernel maps the heap at different addresses.
    pub fn in_frame(&self, frame: usize) -> Violation {
        let mut v = self.clone();
        let pointers: &mut [&mut usize] = match &mut v {
            Violation::DoubleHandOut { ptr, .. }
            | Violation::UntrackedFree { ptr }
            | Violation::Misaligned { ptr, .. }
            | Violation::UsableTooSmall { ptr, .. }
            | Violation::NotZeroed { ptr, .. }
            | Violation::ContentCorruption { ptr, .. } => &mut [ptr],
            Violation::ReallocContentLoss { old_ptr, new_ptr, .. } => &mut [old_ptr, new_ptr],
            Violation::Overlap { a, b, .. } => &mut [a, b],
            Violation::CallocOverflow { .. } => &mut [],
        };
        for p in pointers {
            **p &= frame - 1;
        }
        v
    }
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Violation::DoubleHandOut { ptr, size, existing_size } => write!(
                f,
                "double hand-out: {ptr:#x} returned for a {size}-byte request while still live as a {existing_size}-byte block"
            ),
            Violation::UntrackedFree { ptr } => {
                write!(f, "free of {ptr:#x}, which is not a live block (double free or wild pointer)")
            }
            Violation::Misaligned { ptr, align } => {
                write!(f, "{ptr:#x} violates its {align}-byte alignment contract")
            }
            Violation::UsableTooSmall { ptr, requested, usable } => write!(
                f,
                "usable_size({ptr:#x}) = {usable} is below the requested {requested} bytes"
            ),
            Violation::NotZeroed { ptr, size, index } => {
                write!(f, "zeroed allocation {ptr:#x} ({size} bytes) has a nonzero byte at offset {index}")
            }
            Violation::CallocOverflow { count, size } => {
                write!(f, "calloc({count}, {size}) overflows usize yet returned non-null")
            }
            Violation::ContentCorruption { ptr, size, index } => write!(
                f,
                "content corruption: byte {index} of live block {ptr:#x} ({size} bytes) changed between hand-out and free"
            ),
            Violation::ReallocContentLoss { old_ptr, new_ptr, preserved, index } => write!(
                f,
                "realloc {old_ptr:#x} -> {new_ptr:#x} lost contents: byte {index} of the {preserved} preserved bytes differs"
            ),
            Violation::Overlap { a, a_size, b } => {
                write!(f, "live blocks overlap: [{a:#x} + {a_size}) covers {b:#x}")
            }
        }
    }
}

/// The shadow-heap verifying allocator wrapper. See the module docs.
pub struct OracleMalloc<A> {
    inner: A,
    map: ShadowMap,
    cfg: OracleConfig,
    display_name: String,
    next_nonce: AtomicU64,
    next_slot: AtomicU64,
    violations: Mutex<Vec<Violation>>,
    violation_count: AtomicUsize,
    halted: AtomicBool,
    recorder: Option<TraceRecorder>,
}

impl<A: RawMalloc> OracleMalloc<A> {
    /// Panic-on-violation wrapper with fill checking — the default for
    /// oracle-driven tests that own their blocks.
    pub fn new(inner: A) -> Self {
        Self::with_config(inner, OracleConfig::default())
    }

    /// Wrapper with explicit configuration.
    pub fn with_config(inner: A, cfg: OracleConfig) -> Self {
        let display_name = format!("oracle({})", inner.name());
        OracleMalloc {
            inner,
            map: ShadowMap::new(cfg.capacity),
            cfg,
            display_name,
            next_nonce: AtomicU64::new(1),
            next_slot: AtomicU64::new(0),
            violations: Mutex::new(Vec::new()),
            violation_count: AtomicUsize::new(0),
            halted: AtomicBool::new(false),
            recorder: None,
        }
    }

    /// Recording wrapper for real workloads: fill checking off (the
    /// workload writes its blocks), violations recorded not panicked,
    /// and every op logged into a [`TraceRecorder`] whose trace
    /// [`take_trace`](Self::take_trace) returns.
    pub fn recording(inner: A, capacity: usize) -> Self {
        let mut o = Self::with_config(
            inner,
            OracleConfig { fill: false, mode: Mode::Record, capacity },
        );
        o.recorder = Some(TraceRecorder::new());
        o
    }

    /// The wrapped allocator.
    pub fn inner(&self) -> &A {
        &self.inner
    }

    /// Number of violations seen so far.
    pub fn violation_count(&self) -> usize {
        self.violation_count.load(Ordering::Acquire)
    }

    /// Snapshot of recorded violations (Record mode).
    pub fn violations(&self) -> Vec<Violation> {
        self.violations.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Live blocks currently tracked.
    pub fn live_blocks(&self) -> usize {
        self.map.len()
    }

    /// Finishes recording: the ops logged so far as a [`crate::Trace`]
    /// (empty unless built with [`recording`](Self::recording)).
    pub fn take_trace(&self, seed: u64) -> crate::Trace {
        match &self.recorder {
            Some(r) => r.finish(self.inner.name(), seed),
            None => crate::Trace::empty(self.inner.name(), seed),
        }
    }

    /// Quiescent full-heap sweep: checks that no two live blocks
    /// overlap and (fill mode) that every live block's pattern is
    /// intact. Returns the number of *new* violations found.
    ///
    /// Must only be called while no other thread is using the wrapper;
    /// a concurrent sweep can tear across a free-then-reuse and report
    /// a false overlap.
    pub fn verify_all(&self) -> usize {
        let before = self.violation_count();
        let snap = self.map.snapshot();
        for w in snap.windows(2) {
            let (a, am) = w[0];
            let (b, _) = w[1];
            if a + am.size > b {
                self.report(Violation::Overlap { a, a_size: am.size, b });
            }
        }
        if self.cfg.fill {
            for (p, m) in &snap {
                if let Some(i) = unsafe { first_pattern_mismatch(*p as *mut u8, m.size, m.nonce) } {
                    self.report(Violation::ContentCorruption { ptr: *p, size: m.size, index: i });
                }
            }
        }
        self.violation_count() - before
    }

    /// Frees every block the oracle still tracks (quiescent only).
    /// Returns how many were drained. A halted wrapper drains nothing —
    /// after a violation the underlying heap is not trustworthy.
    pub fn drain_live(&self) -> usize {
        if self.halted() {
            return 0;
        }
        let snap = self.map.snapshot();
        let n = snap.len();
        for (p, _) in snap {
            unsafe { self.free(p as *mut u8) };
        }
        n
    }

    /// True once a Record-mode violation has halted the wrapper.
    pub fn halted(&self) -> bool {
        self.halted.load(Ordering::Acquire)
    }

    fn report(&self, v: Violation) {
        self.violation_count.fetch_add(1, Ordering::AcqRel);
        match self.cfg.mode {
            Mode::Panic => panic!("[{}] oracle violation: {v}", self.display_name),
            Mode::Record => {
                self.halted.store(true, Ordering::Release);
                self.violations.lock().unwrap_or_else(|e| e.into_inner()).push(v);
            }
        }
    }

    fn fresh_nonce(&self) -> u64 {
        self.next_nonce.fetch_add(1, Ordering::Relaxed)
    }

    fn fresh_slot(&self) -> u64 {
        self.next_slot.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, op: TraceOp) {
        if let Some(r) = &self.recorder {
            r.log(op);
        }
    }

    /// Registers a fresh allocation and runs the hand-out checks.
    /// `None` means a violation was recorded (halted mode) — the caller
    /// then reports null to the application so the doubly-handed-out
    /// block is never written through. `Some(slot)` is the logical slot
    /// id assigned for trace recording (`u64::MAX` for a null result).
    unsafe fn note_alloc(&self, p: *mut u8, size: usize, align: usize, zeroed: bool) -> Option<u64> {
        if p.is_null() {
            return Some(u64::MAX);
        }
        let addr = p as usize;
        if addr % align.max(MIN_MALLOC_ALIGN) != 0 {
            self.report(Violation::Misaligned { ptr: addr, align: align.max(MIN_MALLOC_ALIGN) });
            return None;
        }
        let usable = unsafe { self.inner.usable_size(p) };
        if usable != 0 && usable < size {
            self.report(Violation::UsableTooSmall { ptr: addr, requested: size, usable });
            return None;
        }
        if zeroed && self.cfg.fill {
            for i in 0..size {
                if unsafe { *p.add(i) } != 0 {
                    self.report(Violation::NotZeroed { ptr: addr, size, index: i });
                    return None;
                }
            }
        }
        let nonce = self.fresh_nonce();
        let slot = self.fresh_slot();
        let meta = ShadowBlock { size, align, nonce, slot };
        match self.map.insert(addr, meta) {
            Ok(()) => {
                // Fill only after the insert succeeded: on a duplicate
                // we must not scribble over the first owner's pattern.
                if self.cfg.fill {
                    unsafe { testkit::fill_seeded(p, size, nonce) };
                }
                Some(slot)
            }
            Err(InsertError::Duplicate(existing)) => {
                self.report(Violation::DoubleHandOut {
                    ptr: addr,
                    size,
                    existing_size: existing.size,
                });
                None
            }
            Err(InsertError::Full) => {
                panic!(
                    "[{}] shadow map full ({} live blocks): raise OracleConfig::capacity",
                    self.display_name,
                    self.map.len()
                )
            }
        }
    }
}

unsafe impl<A: RawMalloc> RawMalloc for OracleMalloc<A> {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        if self.halted() {
            return core::ptr::null_mut();
        }
        let p = unsafe { self.inner.malloc(size) };
        let Some(slot) = (unsafe { self.note_alloc(p, size, MIN_MALLOC_ALIGN, false) }) else {
            return core::ptr::null_mut();
        };
        if !p.is_null() {
            self.record(TraceOp::Malloc { slot, size });
        }
        p
    }

    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        if self.halted() {
            return core::ptr::null_mut();
        }
        let p = unsafe { self.inner.malloc_aligned(size, align) };
        let Some(slot) = (unsafe { self.note_alloc(p, size, align, false) }) else {
            return core::ptr::null_mut();
        };
        if !p.is_null() {
            self.record(TraceOp::Aligned { slot, size, align });
        }
        p
    }

    unsafe fn malloc_zeroed(&self, size: usize) -> *mut u8 {
        if self.halted() {
            return core::ptr::null_mut();
        }
        let p = unsafe { self.inner.malloc_zeroed(size) };
        let Some(slot) = (unsafe { self.note_alloc(p, size, MIN_MALLOC_ALIGN, true) }) else {
            return core::ptr::null_mut();
        };
        if !p.is_null() {
            self.record(TraceOp::Calloc { slot, count: 1, size });
        }
        p
    }

    unsafe fn calloc(&self, count: usize, size: usize) -> *mut u8 {
        if self.halted() {
            return core::ptr::null_mut();
        }
        let p = unsafe { self.inner.calloc(count, size) };
        let Some(total) = count.checked_mul(size) else {
            if !p.is_null() {
                self.report(Violation::CallocOverflow { count, size });
            }
            return core::ptr::null_mut();
        };
        let Some(slot) = (unsafe { self.note_alloc(p, total, MIN_MALLOC_ALIGN, true) }) else {
            return core::ptr::null_mut();
        };
        if !p.is_null() {
            self.record(TraceOp::Calloc { slot, count, size });
        }
        p
    }

    unsafe fn free(&self, ptr: *mut u8) {
        if ptr.is_null() {
            unsafe { self.inner.free(ptr) };
            return;
        }
        if self.halted() {
            return; // leak rather than poke a heap already proven broken
        }
        match self.map.remove(ptr as usize) {
            Some(meta) => {
                if self.cfg.fill {
                    if let Some(i) =
                        unsafe { first_pattern_mismatch(ptr, meta.size, meta.nonce) }
                    {
                        self.report(Violation::ContentCorruption {
                            ptr: ptr as usize,
                            size: meta.size,
                            index: i,
                        });
                        return; // don't free: the block's provenance is in doubt
                    }
                }
                self.record(TraceOp::Free { slot: meta.slot });
                unsafe { self.inner.free(ptr) };
            }
            None => {
                // Never forward: freeing it again would turn a detected
                // violation into real heap corruption.
                self.report(Violation::UntrackedFree { ptr: ptr as usize });
            }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, old_size_hint: usize, new_size: usize) -> *mut u8 {
        if ptr.is_null() {
            return unsafe { self.malloc(new_size) };
        }
        if self.halted() {
            return core::ptr::null_mut();
        }
        let Some(meta) = self.map.remove(ptr as usize) else {
            self.report(Violation::UntrackedFree { ptr: ptr as usize });
            return core::ptr::null_mut();
        };
        // The old block must still be intact right up to the realloc.
        if self.cfg.fill {
            if let Some(i) = unsafe { first_pattern_mismatch(ptr, meta.size, meta.nonce) } {
                self.report(Violation::ContentCorruption {
                    ptr: ptr as usize,
                    size: meta.size,
                    index: i,
                });
                return core::ptr::null_mut();
            }
        }
        let new = unsafe { self.inner.realloc(ptr, old_size_hint.max(meta.size), new_size) };
        if new.is_null() {
            // Contract: failure leaves the old block untouched.
            let _ = self.map.insert(ptr as usize, meta);
            return core::ptr::null_mut();
        }
        // min(old, new) bytes must have survived the move, verified via
        // the position-based pattern (it is address-independent).
        let preserved = meta.size.min(new_size);
        if self.cfg.fill {
            if let Some(i) = unsafe { first_pattern_mismatch(new, preserved, meta.nonce) } {
                self.report(Violation::ReallocContentLoss {
                    old_ptr: ptr as usize,
                    new_ptr: new as usize,
                    preserved,
                    index: i,
                });
                return core::ptr::null_mut();
            }
        }
        let addr = new as usize;
        if addr % MIN_MALLOC_ALIGN != 0 {
            self.report(Violation::Misaligned { ptr: addr, align: MIN_MALLOC_ALIGN });
            return core::ptr::null_mut();
        }
        let nonce = self.fresh_nonce();
        let new_meta = ShadowBlock { size: new_size, align: MIN_MALLOC_ALIGN, nonce, slot: meta.slot };
        match self.map.insert(addr, new_meta) {
            Ok(()) => {
                if self.cfg.fill {
                    unsafe { testkit::fill_seeded(new, new_size, nonce) };
                }
                self.record(TraceOp::Realloc { slot: meta.slot, size: new_size });
                new
            }
            Err(InsertError::Duplicate(existing)) => {
                self.report(Violation::DoubleHandOut {
                    ptr: addr,
                    size: new_size,
                    existing_size: existing.size,
                });
                core::ptr::null_mut()
            }
            Err(InsertError::Full) => panic!(
                "[{}] shadow map full ({} live blocks): raise OracleConfig::capacity",
                self.display_name,
                self.map.len()
            ),
        }
    }

    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        unsafe { self.inner.usable_size(ptr) }
    }

    fn name(&self) -> &str {
        &self.display_name
    }

    fn stats(&self) -> AllocStats {
        self.inner.stats()
    }
}

/// Index of the first byte of `[p, p+size)` that does not match the
/// seeded pattern for `nonce`, or `None` when intact. The non-panicking
/// twin of [`testkit::check_seeded`].
unsafe fn first_pattern_mismatch(p: *mut u8, size: usize, nonce: u64) -> Option<usize> {
    let tag = nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD6E8_FEB8_6659_FD93;
    for i in 0..size {
        let expect = ((tag >> ((i % 8) * 8)) as u8) ^ (i as u8);
        if unsafe { *p.add(i) } != expect {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlheap::LockedHeap;
    use lfmalloc::LfMalloc;

    #[test]
    fn clean_usage_stays_clean() {
        let o = OracleMalloc::new(LfMalloc::new_default());
        unsafe {
            let mut blocks = Vec::new();
            for i in 0..200usize {
                let p = o.malloc(8 + (i * 37) % 3000);
                assert!(!p.is_null());
                blocks.push(p);
            }
            assert_eq!(o.verify_all(), 0);
            for p in blocks {
                o.free(p);
            }
        }
        assert_eq!(o.violation_count(), 0);
        assert_eq!(o.live_blocks(), 0);
    }

    #[test]
    fn record_mode_catches_untracked_free_and_halts() {
        let o = OracleMalloc::with_config(
            LockedHeap::new(),
            OracleConfig { mode: Mode::Record, ..OracleConfig::default() },
        );
        unsafe {
            let p = o.malloc(64);
            assert!(!p.is_null());
            o.free(p);
            o.free(p); // double free: caught by the shadow map, not forwarded
        }
        assert_eq!(o.violation_count(), 1);
        assert!(matches!(o.violations()[0], Violation::UntrackedFree { .. }));
        assert!(o.halted());
        unsafe { assert!(o.malloc(8).is_null(), "halted wrapper must refuse new work") };
    }

    #[test]
    #[should_panic(expected = "oracle violation")]
    fn panic_mode_panics_on_corruption() {
        let o = OracleMalloc::new(LockedHeap::new());
        unsafe {
            let p = o.malloc(64);
            *p.add(10) ^= 0xFF; // simulate a stray write from "another" block
            o.free(p);
        }
    }

    #[test]
    fn realloc_contract_is_verified() {
        let o = OracleMalloc::new(LfMalloc::new_default());
        unsafe {
            let p = o.malloc(100);
            let q = o.realloc(p, 100, 50_000); // cross-size-class move
            assert!(!q.is_null());
            let r = o.realloc(q, 50_000, 40); // big shrink
            assert!(!r.is_null());
            o.free(r);
        }
        assert_eq!(o.violation_count(), 0);
        assert_eq!(o.live_blocks(), 0);
    }

    #[test]
    fn calloc_zeroing_is_verified() {
        let o = OracleMalloc::new(LfMalloc::new_default());
        unsafe {
            let p = o.calloc(16, 250);
            assert!(!p.is_null());
            o.free(p);
            assert!(o.calloc(usize::MAX, 2).is_null());
        }
        assert_eq!(o.violation_count(), 0);
    }

    #[test]
    fn drain_live_frees_everything() {
        let o = OracleMalloc::new(LfMalloc::new_default());
        unsafe {
            for _ in 0..50 {
                assert!(!o.malloc(128).is_null());
            }
        }
        assert_eq!(o.live_blocks(), 50);
        assert_eq!(o.drain_live(), 50);
        assert_eq!(o.live_blocks(), 0);
        assert!(o.inner().audit().is_clean());
    }
}
