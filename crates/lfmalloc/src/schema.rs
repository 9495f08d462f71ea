//! What the core can report, as data: the three schema tables and the
//! small enums the observation seam ([`crate::observe`]) is called with.
//! Compiled in every build and naming no cargo feature — a `Count` or an
//! [`EventKind`] costs nothing until a `stats` build gives it somewhere
//! to go.
//!
//! The tables are the schema (DESIGN.md §9): [`class_counters!`] has one
//! row per per-class counter, [`instance_counters!`] one per instance-wide
//! number and [`latency_paths!`] one per latency histogram. [`Count`],
//! [`Global`] and [`Lat`] are generated from them here; `ClassStats`,
//! `StatsSnapshot`'s rows, `LatencyStats` and the public tables
//! `CLASS_COUNTERS`, `INSTANCE_COUNTERS` and `LATENCY_PATHS` are generated
//! from them in `stats.rs`, and every renderer — JSON, the text dump,
//! OpenMetrics, `lfstat` — loops over those tables. A new counter is one
//! row here and its `observe` call.

/// The per-class counters: `field Variant "OpenMetrics family" "label"
/// "help";` — the field is the `ClassStats` member and the JSON key.
/// Rows of one family are adjacent.
macro_rules! class_counters {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
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

/// The instance-wide numbers: `field Variant "JSON key" "OpenMetrics
/// family" "label" "help";` — the field is the `StatsSnapshot` member, and
/// a dotted key is a member of a JSON object. A row with a variant is a
/// counter, kept off the shards; a row without one is a gauge, read when
/// the snapshot is taken. Rows of one family, and of one object, are
/// adjacent.
macro_rules! instance_counters {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
            large_alloc LargeAlloc "large.alloc" "lfmalloc_large" "op=\"alloc\""
                "Large (direct-mmap) blocks allocated.";
            large_free LargeFree "large.free" "lfmalloc_large" "op=\"free\""
                "Large blocks freed.";
            large_live "large.live" "lfmalloc_large_live" ""
                "Large blocks live now: mapped, minus the spans parked in the span cache.";
            large_cache_hit LargeCacheHit "large.cache_hit" "lfmalloc_large_cache" "outcome=\"hit\""
                "Large mallocs served from the span cache.";
            large_cache_miss LargeCacheMiss "large.cache_miss" "lfmalloc_large_cache" "outcome=\"miss\""
                "Large mallocs served by the page source (hit + miss = large_alloc).";
            large_cache_bypass LargeCacheBypass "large.cache_bypass" "lfmalloc_large_cache" "outcome=\"bypass\""
                "Large frees whose span went straight back to the source (hardened, over a bound, or no slot).";
            oom_backoffs OomBackoffs "oom_backoffs" "lfmalloc_oom_backoffs" ""
                "Failed attempts inside the OOM backoff loops.";
            trims Trims "trims" "lfmalloc_trims" ""
                "trim and trim_to calls.";
            events_dropped "events_dropped" "lfmalloc_events_dropped" ""
                "Slow-path trace events lost to ring overflow.";
        }
    };
}
#[allow(unused_imports)]
pub(crate) use instance_counters;

/// The latency histograms: `field Variant "OpenMetrics family" "label"
/// "help";` — the field is the `LatencyStats` member and the JSON key.
/// Rows of one family are adjacent.
macro_rules! latency_paths {
    ($with:ident $($arg:tt)*) => {
        $with! { $($arg)*
            malloc_fast MallocFast "lfmalloc_malloc_latency_seconds" "path=\"fast\""
                "Trips down the malloc ladder served by MallocFromActive: a magazine refill's k-block pop, or one block for a thread without a magazine. Never a magazine hit.";
            malloc_slow MallocSlow "lfmalloc_malloc_latency_seconds" "path=\"slow\""
                "Ladder trips served by a partial or newly opened superblock.";
            malloc_large MallocLarge "lfmalloc_malloc_latency_seconds" "path=\"large\""
                "Large (direct-mmap) allocations.";
            free_fast FreeFast "lfmalloc_free_latency_seconds" "path=\"fast\""
                "Anchor pushes that were a plain free-list push: one block, or a magazine or outbox flush's chain. Never a free the magazine or the outbox absorbed.";
            free_slow FreeSlow "lfmalloc_free_latency_seconds" "path=\"slow\""
                "Pushes that emptied a superblock or relinked FULL to PARTIAL.";
            free_large FreeLarge "lfmalloc_free_latency_seconds" "path=\"large\""
                "Large-block releases.";
            maintain Maintain "lfmalloc_maintenance_latency_seconds" "pass=\"maintain\""
                "Maintenance-pass durations.";
            trim Trim "lfmalloc_maintenance_latency_seconds" "pass=\"trim\""
                "Trim-pass durations.";
        }
    };
}
#[allow(unused_imports)]
pub(crate) use latency_paths;

/// A table's enum, one variant per row that names one: invoked through
/// the table as `class_counters!(schema_enum /// docs Count)`.
macro_rules! schema_enum {
    ($(#[$doc:meta])* $name:ident $($field:ident $($variant:ident)? $($text:literal)*;)*) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum $name { $($($variant,)?)* }
    };
}
class_counters!(schema_enum
    /// A per-class counter: a row of [`class_counters!`], which says what
    /// each means.
    Count);
instance_counters!(schema_enum
    /// An instance-wide counter: a row of [`instance_counters!`] that
    /// names a variant.
    Global);
latency_paths!(schema_enum
    /// Which latency histogram a [`Timer`](crate::observe::Timer) stops
    /// into: a row of [`latency_paths!`].
    Lat);

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
