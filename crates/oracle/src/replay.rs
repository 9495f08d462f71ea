//! Deterministic trace replay: the turn-ticket scheduler.
//!
//! Replay re-executes a [`Trace`] against any allocator with real
//! threads (so thread-identity-dependent behavior — per-heap routing,
//! remote frees, magazine slots — is faithfully exercised) but with
//! exactly **one op in flight at a time**: a global turn counter admits
//! ops strictly in recorded `seq` order. Combined with re-arming the
//! trace's seeded failpoint plans, two replays of the same trace
//! perform the identical sequence of heap transitions, which is what
//! lets a shrunk repro assert "this exact violation, every run".
//!
//! Slot semantics make traces subset-closed: an op naming a slot with
//! no live block is a silent no-op, so the shrinker can drop any subset
//! of ops and still have a well-formed trace. After the last op the
//! replayer (single-threaded again, i.e. quiescent) runs the oracle's
//! full sweep ([`OracleMalloc::verify_all`]) and drains every live
//! block, so lost frees and leaks surface even when no per-op check
//! fired.

use crate::trace::{Trace, TraceOp};
use crate::wrapper::{Mode, OracleConfig, OracleMalloc, Violation};
use malloc_api::RawMalloc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// What one replay observed.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Oracle violations, in detection order (empty on a clean run).
    pub violations: Vec<Violation>,
    /// Ops actually executed (the tail after a halt is skipped).
    pub executed_ops: usize,
    /// Blocks drained at the end of the run (live blocks at quiescence,
    /// zero when the run halted on a violation).
    pub drained: usize,
    /// Whether the trace's failpoint plans were actually armed (false
    /// when the `failpoints` feature is compiled out).
    pub failpoints_armed: bool,
}

impl ReplayOutcome {
    /// True when the replay saw no violations.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Replays `trace` against `alloc`. See the module docs.
///
/// With the `failpoints` feature on this always takes the global
/// failpoint scenario guard for the whole replay — even for traces
/// with no plans, so a concurrently armed scenario elsewhere in the
/// process can never bleed into this replay (and vice versa). Callers
/// must NOT hold the guard already.
pub fn replay(alloc: &dyn RawMalloc, trace: &Trace) -> ReplayOutcome {
    #[cfg(feature = "failpoints")]
    let _guard = {
        let guard = malloc_api::failpoints::scenario(trace.seed);
        for plan in &trace.failpoints {
            arm_plan(plan);
        }
        guard
    };

    let oracle = OracleMalloc::with_config(
        alloc,
        OracleConfig { fill: true, mode: Mode::Record, capacity: 1 << 16 },
    );

    // Dense global order: position i in `order` is the i-th turn; the
    // value is (thread, index-into-that-thread's-op-list).
    let mut indexed: Vec<(u64, u32, TraceOp)> =
        trace.ops.iter().map(|e| (e.seq, e.thread, e.op)).collect();
    indexed.sort_unstable_by_key(|(seq, _, _)| *seq);
    let nthreads = trace.threads.max(1) as usize;
    let mut per_thread: Vec<Vec<(usize, TraceOp)>> = vec![Vec::new(); nthreads];
    for (turn, (_, t, op)) in indexed.iter().enumerate() {
        per_thread[(*t as usize) % nthreads].push((turn, *op));
    }

    let max_slot = trace.ops.iter().map(|e| e.op.slot()).max().unwrap_or(0) as usize;
    // slot -> (live user pointer or 0, its current size)
    let slots: Vec<(AtomicUsize, AtomicUsize)> =
        (0..=max_slot).map(|_| (AtomicUsize::new(0), AtomicUsize::new(0))).collect();

    let turn = AtomicU64::new(0);
    let executed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for my_ops in &per_thread {
            let oracle = &oracle;
            let slots = &slots;
            let turn = &turn;
            let executed = &executed;
            scope.spawn(move || {
                for (my_turn, op) in my_ops {
                    while turn.load(Ordering::Acquire) != *my_turn as u64 {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                    // After a violation the wrapper is halted; keep
                    // consuming turns (skipping work) so no thread
                    // deadlocks waiting for its ticket.
                    if !oracle.halted() {
                        unsafe { execute(oracle, slots, *op) };
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                    turn.store(*my_turn as u64 + 1, Ordering::Release);
                }
            });
        }
    });

    // Quiescent now: full sweep, then drain what is still live.
    oracle.verify_all();
    let drained = oracle.drain_live();

    ReplayOutcome {
        violations: oracle.violations(),
        executed_ops: executed.load(Ordering::Relaxed),
        drained,
        failpoints_armed: cfg!(feature = "failpoints") && !trace.failpoints.is_empty(),
    }
}

/// Runs one op against the oracle, updating the slot table. Ops on
/// slots in the "wrong" state are no-ops (subset-closedness).
unsafe fn execute(
    oracle: &OracleMalloc<&dyn RawMalloc>,
    slots: &[(AtomicUsize, AtomicUsize)],
    op: TraceOp,
) {
    match op {
        TraceOp::Malloc { slot, size } => {
            let p = unsafe { oracle.malloc(size) };
            if !p.is_null() {
                park(slots, oracle, slot, p as usize, size);
            }
        }
        TraceOp::Calloc { slot, count, size } => {
            let p = unsafe { oracle.calloc(count, size) };
            if !p.is_null() {
                park(slots, oracle, slot, p as usize, count.saturating_mul(size));
            }
        }
        TraceOp::Aligned { slot, size, align } => {
            let p = unsafe { oracle.malloc_aligned(size, align.max(8)) };
            if !p.is_null() {
                park(slots, oracle, slot, p as usize, size);
            }
        }
        TraceOp::Realloc { slot, size } => {
            let (ptr_cell, size_cell) = &slots[slot as usize];
            let p = ptr_cell.load(Ordering::Acquire);
            if p == 0 {
                return;
            }
            let old = size_cell.load(Ordering::Acquire);
            let new = unsafe { oracle.realloc(p as *mut u8, old, size) };
            if !new.is_null() {
                ptr_cell.store(new as usize, Ordering::Release);
                size_cell.store(size, Ordering::Release);
            }
            // On failure the old block is still live under the old
            // pointer (realloc contract); leave the slot as-is.
        }
        TraceOp::Free { slot } => {
            let (ptr_cell, _) = &slots[slot as usize];
            let p = ptr_cell.swap(0, Ordering::AcqRel);
            if p != 0 {
                unsafe { oracle.free(p as *mut u8) };
            }
        }
    }
}

/// Stores a fresh block into its slot. A shrunk trace can allocate
/// twice into one slot; the displaced block is freed rather than leaked
/// so the end-of-run drain accounting stays exact.
fn park(
    slots: &[(AtomicUsize, AtomicUsize)],
    oracle: &OracleMalloc<&dyn RawMalloc>,
    slot: u64,
    p: usize,
    size: usize,
) {
    let (ptr_cell, size_cell) = &slots[slot as usize];
    let old = ptr_cell.swap(p, Ordering::AcqRel);
    size_cell.store(size, Ordering::Release);
    if old != 0 {
        unsafe { oracle.free(old as *mut u8) };
    }
}

#[cfg(feature = "failpoints")]
fn arm_plan(plan: &crate::trace::FpPlan) {
    use crate::trace::{FpActionSpec, FpTriggerSpec};
    use malloc_api::failpoints::{arm_limited, FpAction, FpTrigger};
    let action = match plan.action {
        FpActionSpec::Yield => FpAction::Yield,
        FpActionSpec::Delay(n) => FpAction::Delay(n),
        FpActionSpec::Retry => FpAction::Retry,
        FpActionSpec::Kill => FpAction::Kill,
    };
    let trigger = match plan.trigger {
        FpTriggerSpec::Always => FpTrigger::Always,
        FpTriggerSpec::Nth(n) => FpTrigger::EveryNth(n),
        FpTriggerSpec::Chance(p) => FpTrigger::Chance(p),
    };
    arm_limited(intern(&plan.site), action, trigger, plan.budget.unwrap_or(u64::MAX));
}

/// Failpoint sites are `&'static str`; trace files carry arbitrary
/// strings. Interned once per unique name for the process lifetime.
#[cfg(feature = "failpoints")]
fn intern(name: &str) -> &'static str {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static INTERNED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    match set.get(name) {
        Some(s) => s,
        None => {
            let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use lfmalloc::LfMalloc;

    #[test]
    fn generated_trace_replays_clean() {
        let alloc = LfMalloc::new_default();
        let trace = Trace::generate(0xCAFE, 4, 800);
        let out = replay(&alloc, &trace);
        assert!(out.is_clean(), "violations: {:?}", out.violations);
        assert_eq!(out.executed_ops, 800);
        assert!(alloc.audit().is_clean());
    }

    #[test]
    fn replay_is_repeatable() {
        let trace = Trace::generate(0xBEEF, 3, 400);
        let a = replay(&LfMalloc::new_default(), &trace);
        let b = replay(&LfMalloc::new_default(), &trace);
        assert_eq!(a.executed_ops, b.executed_ops);
        assert_eq!(a.drained, b.drained);
        assert_eq!(a.is_clean(), b.is_clean());
    }

    #[test]
    fn empty_trace_is_clean() {
        let out = replay(&LfMalloc::new_default(), &Trace::empty("lfmalloc", 0));
        assert!(out.is_clean());
        assert_eq!(out.executed_ops, 0);
    }
}
