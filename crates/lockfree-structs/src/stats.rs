//! CAS-retry telemetry for the lock-free building blocks.
//!
//! Compiled only under the `stats` feature. The counters are
//! process-wide statics rather than per-structure fields so that
//! enabling telemetry changes no structure's size or cache layout — the
//! stacks here are embedded inside allocator hot structures whose
//! geometry the tests pin. A retry is one failed CAS inside a push/pop
//! loop; the first, successful attempt is not counted.

use malloc_api::telemetry::Counter;

/// Tagged stacks: push-loop retries.
pub static STACK_PUSH_RETRIES: Counter = Counter::new();
/// Tagged stacks: pop-loop retries.
pub static STACK_POP_RETRIES: Counter = Counter::new();

/// Snapshot of the process-wide CAS-retry counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StructsCasStats {
    /// Failed CAS attempts in stack push loops.
    pub stack_push_retries: u64,
    /// Failed CAS attempts in stack pop loops.
    pub stack_pop_retries: u64,
}

/// Reads both counters (racy but monotone: each field never decreases
/// between snapshots).
pub fn snapshot() -> StructsCasStats {
    StructsCasStats {
        stack_push_retries: STACK_PUSH_RETRIES.get(),
        stack_pop_retries: STACK_POP_RETRIES.get(),
    }
}
