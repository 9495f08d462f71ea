//! What the core can report, as data: the per-class counter table and the
//! small enums the observation seam ([`crate::observe`]) is called with.
//! Compiled in every build and naming no cargo feature — a `Count` or an
//! [`EventKind`] costs nothing until a `stats` build gives it somewhere
//! to go.
//!
//! [`class_counters!`] is the schema (DESIGN.md §9): one row per
//! per-class counter. [`Count`] is generated from it here; `ClassStats`,
//! the shard sums and the public `CLASS_COUNTERS` table are generated
//! from it in `stats.rs`, and every renderer — JSON, the text dump,
//! OpenMetrics, `lfstat` — loops over that table. A new counter is one
//! row here and its `observe::count` call.

/// The per-class counters: `field Variant "OpenMetrics family" "label"
/// "help";` — the field is the `ClassStats` member and the JSON key.
/// Rows of one family are adjacent.
macro_rules! class_counters {
    ($with:ident) => {
        $with! {
            malloc_cached MallocCached "lfmalloc_mallocs" "path=\"cached\""
                "Mallocs served from the calling thread's magazine (no CAS).";
            malloc_fast MallocFast "lfmalloc_mallocs" "path=\"fast\""
                "Mallocs served by MallocFromActive (reserve CAS + pop CAS): single blocks, and a magazine refill's k-block pop, which hands its first block out.";
            malloc_slow MallocSlow "lfmalloc_mallocs" "path=\"partial\""
                "Mallocs served by MallocFromPartial.";
            malloc_newsb MallocNewsb "lfmalloc_mallocs" "path=\"newsb\""
                "Mallocs served by MallocFromNewSB, or by reopening a parked EMPTY superblock.";
            free_cached FreeCached "lfmalloc_frees" "path=\"cached\""
                "Frees absorbed by the calling thread's magazine (no CAS; always local); not counted again when a flush sends the block home.";
            free_outbox FreeOutbox "lfmalloc_frees" "path=\"outbox\""
                "Remote frees parked in the freeing thread's outbox (no CAS), in the owning heap's shard; not counted again when the outbox goes home.";
            free_local FreeLocal "lfmalloc_frees" "path=\"local\""
                "Frees pushed by a thread mapped to the owning heap.";
            free_remote FreeRemote "lfmalloc_frees" "path=\"remote\""
                "Frees by a thread mapped to another heap that took the paper's one-CAS push (remote frees that could not be parked).";
            free_teardown FreeTeardown "lfmalloc_frees" "path=\"teardown\""
                "Frees issued during TLS teardown (thread identity gone); a subset of free_remote.";
            free_empty FreeEmpty "lfmalloc_superblocks_retired" ""
                "Frees that emptied their superblock (it stays on its descriptor for reuse).";
            partial_push PartialPush "lfmalloc_partial" "op=\"push\""
                "HeapPutPartial executions (superblock parked partial).";
            partial_pop PartialPop "lfmalloc_partial" "op=\"pop\""
                "HeapGetPartial successes (heap slot or class list).";
            partial_reuse PartialReuse "lfmalloc_partial" "op=\"reuse\""
                "Blocks served out of a partial superblock.";
            sb_reopen SbReopen "lfmalloc_superblocks_reopened" ""
                "EMPTY superblocks reopened where they were parked, by the malloc that took their descriptor (a subset of malloc_newsb).";
            mag_refill MagRefill "lfmalloc_magazine_batches" "op=\"refill\""
                "Magazine refills: one trip down the malloc ladder for up to k blocks.";
            mag_flush MagFlush "lfmalloc_magazine_batches" "op=\"flush\""
                "Magazine overflows: half a magazine (a whole mid bin) returned to its superblocks.";
            out_flush OutFlush "lfmalloc_magazine_batches" "op=\"outbox_flush\""
                "Full outboxes sent home, one anchor CAS per superblock in them.";
        }
    };
}
// Expanded a second time by `stats.rs`, which a default build lacks.
#[allow(unused_imports)]
pub(crate) use class_counters;

macro_rules! count_enum {
    ($($field:ident $variant:ident $family:literal $label:literal $help:literal;)*) => {
        /// A per-class counter: a row of [`class_counters!`], which says
        /// what each means.
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum Count { $($variant),* }
    };
}
class_counters!(count_enum);

/// The instance-wide counters, kept off the shards: large blocks by
/// outcome (`hit + miss == alloc`; a bypass is a large free whose span
/// went straight back to the source), failed attempts inside the OOM
/// backoff loops, and `trim`/`trim_to` calls.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Global {
    LargeAlloc,
    LargeFree,
    LargeCacheHit,
    LargeCacheMiss,
    LargeCacheBypass,
    OomBackoffs,
    Trims,
}

/// Which latency histogram a [`Timer`] stops into.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Lat {
    MallocFast,
    MallocSlow,
    MallocLarge,
    FreeFast,
    FreeSlow,
    FreeLarge,
    Maintain,
    Trim,
}

/// What happened on a slow path, recorded in the event ring.
// `CrashReport` and `HeapDump` are recorded by `forensics` builds only.
#[allow(dead_code)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A superblock was opened and installed: a fresh one
    /// (`MallocFromNewSB`), or an EMPTY one off the warm stack or out of
    /// the slot it was parked in.
    SbAcquire,
    /// A superblock went EMPTY. It stays on its descriptor — parked where
    /// it was, or retired with it onto the warm stack — for the next
    /// malloc to reopen; only `trim` returns it to the page pool.
    SbRetire,
    /// A FULL superblock re-entered circulation as PARTIAL.
    HeapTransition,
    /// An allocation attempt exhausted its OOM backoff budget.
    OomBackoff,
    /// `trim`/`trim_to` ran; `arg` is the bytes released.
    Trim,
    /// The liveness watchdog detected a CAS retry storm; `arg` is the
    /// [`WatchSite`](crate::health::WatchSite) index.
    LivenessStorm,
    /// A maintenance pass completed; `arg` is the number of objects it
    /// acted on (magazine blocks drained + flushed + pruned).
    Maintain,
    /// The process forked with this instance's atfork hooks registered
    /// (recorded parent-side); `arg` is the parent's process generation.
    Fork,
    /// Child-side fork recovery completed; `arg` is the number of
    /// blocks sent home from orphaned magazine slots (see
    /// [`crate::fork`]).
    ChildRecover,
    /// A black-box crash report was emitted (recorded by the forensics
    /// test hooks, never from the signal handler itself — the event
    /// ring records a timestamp, which is not async-signal-safe).
    CrashReport,
    /// A post-mortem heap dump was written; `arg` is the dump version.
    HeapDump,
}
