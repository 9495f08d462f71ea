//! Allocator configuration and load-bearing constants.

use crate::harden::Hardening;
use crate::health::LivenessConfig;
use crate::maintain::ReaperConfig;

/// Superblock size exponent: superblocks are `2^SB_SHIFT` = 16 KiB, the
/// paper's example size, and are carved from 1 MiB hyperblocks.
pub const SB_SHIFT: u32 = 14;

/// Superblock size in bytes.
pub const SB_SIZE: usize = 1 << SB_SHIFT;

/// Superblocks per hyperblock (§3.2.5: "batches of (e.g., 1 MB)
/// hyperblocks").
pub const SB_BATCH: usize = 64;

/// Descriptors are aligned to `2^DESC_ALIGN_SHIFT` = 64 bytes, freeing
/// the low 6 bits of a descriptor pointer for the `credits` subfield of
/// the `Active` word ("the addresses of superblock descriptors can be
/// guaranteed to be aligned to some power of 2 (e.g., 64)").
pub const DESC_ALIGN_SHIFT: u32 = 6;

/// Maximum credits held in an `Active` word: with 6 pointer bits free,
/// `credits` ranges over 0..=63, encoding 1..=64 available reservations.
pub const MAX_CREDITS: u32 = 1 << DESC_ALIGN_SHIFT;

/// The word in front of a *large* block holding its marker (offset into
/// the span, large-block bit set). Small blocks have no prefix: the
/// paper's "each block includes an 8 byte prefix (overhead)" is replaced
/// by the frame map (DESIGN.md §19).
pub const PREFIX_SIZE: usize = 8;

/// Default [`Config::oom_retries`]: enough attempts that a brief OS
/// outage (a handful of failed `mmap`s while the kernel reclaims) is
/// ridden out by backoff instead of surfacing as a spurious null.
pub const DEFAULT_OOM_RETRIES: u32 = 8;

/// How threads map to processor heaps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeapMode {
    /// One heap per "processor": thread id hashes into `n` heaps. The
    /// paper sizes this "proportional to the number of processors".
    PerCpu(usize),
    /// One heap total, skipping the thread-id lookup — the §4.2.4
    /// uniprocessor optimization ("15% increase in contention-free
    /// speedup").
    Single,
}

impl HeapMode {
    /// Number of heaps this mode uses per size class: at least 1, and at
    /// most 2^16 — a frame-map entry names the owning heap's column in
    /// 16 bits (DESIGN.md §19.1).
    pub fn heap_count(self) -> usize {
        match self {
            HeapMode::PerCpu(n) => n.clamp(1, 1 << 16),
            HeapMode::Single => 1,
        }
    }
}

/// Allocation-sampler parameters (read only when the `profile` cargo
/// feature is compiled in; carried unconditionally because two words of
/// configuration cost nothing and keep [`Config`]'s shape
/// feature-independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfileParams {
    /// Mean bytes of allocation traffic between samples. Every thread
    /// counts requested bytes down from a deterministic per-thread phase
    /// and samples the allocation that crosses zero, so each sample
    /// statistically represents ~`stride_bytes` of live traffic.
    pub stride_bytes: u64,
    /// Seed of the per-thread stride phases. Same seed + same
    /// single-threaded allocation sequence ⇒ identical samples.
    pub seed: u64,
}

impl ProfileParams {
    /// Default: one sample per ~512 KiB of allocation traffic, seeded
    /// with the splitmix64 golden-ratio increment.
    pub const fn default_const() -> Self {
        ProfileParams { stride_bytes: 512 * 1024, seed: 0x9E37_79B9_7F4A_7C15 }
    }

    /// Custom stride and seed (`stride_bytes` is clamped to ≥ 1).
    pub const fn new(stride_bytes: u64, seed: u64) -> Self {
        ProfileParams {
            stride_bytes: if stride_bytes == 0 { 1 } else { stride_bytes },
            seed,
        }
    }
}

impl Default for ProfileParams {
    fn default() -> Self {
        Self::default_const()
    }
}

/// Crash-forensics parameters (read only when the `forensics` cargo
/// feature is compiled in; carried unconditionally for the same reason
/// as [`ProfileParams`] — two words of configuration keep [`Config`]'s
/// shape feature-independent).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ForensicsParams {
    /// File descriptor crash reports and fail-stop black boxes are
    /// written to (with `write(2)` only). Default 2 (stderr).
    pub report_fd: i32,
    /// When `true`, the instance installs the chained
    /// SIGSEGV/SIGBUS/SIGABRT crash handlers at construction (the
    /// equivalent of calling
    /// [`install_crash_reporter`](crate::LfMalloc::install_crash_reporter)
    /// with `report_fd`). Default `false`: the flight recorder always
    /// runs under the feature, but taking over process signal
    /// dispositions stays an explicit opt-in.
    pub crash_handlers: bool,
}

impl ForensicsParams {
    /// Default: report to stderr, no handlers installed automatically.
    pub const fn default_const() -> Self {
        ForensicsParams { report_fd: 2, crash_handlers: false }
    }

    /// Custom report fd and handler opt-in.
    pub const fn new(report_fd: i32, crash_handlers: bool) -> Self {
        ForensicsParams { report_fd, crash_handlers }
    }
}

impl Default for ForensicsParams {
    fn default() -> Self {
        Self::default_const()
    }
}

/// Tunable allocator parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Heap topology.
    pub heap_mode: HeapMode,
    /// Cap on credits moved into the `Active` word at once
    /// (1..=[`MAX_CREDITS`]). The paper fixes this at 64 via pointer
    /// alignment; the A2 ablation sweeps it to show what credit
    /// batching buys.
    pub max_credits: u32,
    /// Bounded retries (with exponential backoff) when the page source
    /// reports transient failure on the superblock-carve and large-
    /// allocation paths. 0 makes every source failure an immediate OOM.
    pub oom_retries: u32,
    /// Deallocation hardening: [`Hardening::Off`] (default) keeps the
    /// paper's trusting hot path; `Detect`/`Abort` validate every free
    /// (provenance, double free, poison, guard pages) — see the
    /// [`harden`](crate::harden) module.
    pub hardening: Hardening,
    /// Liveness watchdog: retry ceiling + escalation policy for the
    /// instrumented CAS loops — see the [`health`](crate::health) module.
    /// Defaults to [`LivenessConfig::default_const`] (Report at a ceiling
    /// no honest contention reaches).
    pub liveness: LivenessConfig,
    /// Opt-in background reaper: when `Some`, [`crate::LfMalloc`]
    /// instances over the system page source spawn a maintenance thread
    /// that calls [`maintain`](crate::LfMalloc::maintain) on the given
    /// period/budget (custom-source instances call
    /// [`start_reaper`](crate::LfMalloc::start_reaper) explicitly).
    /// `None` (default): maintenance only runs when the caller asks.
    pub reaper: Option<ReaperConfig>,
    /// Fork awareness: when `true` (default) the instance registers
    /// prepare/parent/child hooks with [`malloc_api::procfork`] at
    /// construction, so forking through [`malloc_api::procfork::fork`]
    /// (or `fork(2)` itself once [`malloc_api::procfork::install`] has
    /// bridged the registry into `pthread_atfork`) quiesces the reaper
    /// across the fork and runs child-side heap recovery eagerly. When
    /// `false`, recovery still happens — lazily, on the child's first
    /// allocator call — but the reaper handoff is best-effort only. See
    /// the [`fork`](crate::fork) module and DESIGN.md §12.
    pub atfork: bool,
    /// Allocation-sampler stride/seed (active only with the `profile`
    /// cargo feature; see the `profile` module).
    pub profile: ProfileParams,
    /// Crash-forensics report fd and handler opt-in (active only with
    /// the `forensics` cargo feature; see the `forensics` module).
    pub forensics: ForensicsParams,
}

impl Config {
    /// Paper-shaped defaults: per-CPU heaps (detected at initialization
    /// time, as §4.2.4 suggests: "the allocator can determine the number
    /// of processors in the system at initialization time").
    pub fn detect() -> Self {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::base(HeapMode::PerCpu(cpus))
    }

    /// The defaults every constructor starts from, over `heap_mode`.
    const fn base(heap_mode: HeapMode) -> Self {
        Config {
            heap_mode,
            max_credits: MAX_CREDITS,
            oom_retries: DEFAULT_OOM_RETRIES,
            hardening: Hardening::Off,
            liveness: LivenessConfig::default_const(),
            reaper: None,
            atfork: true,
            profile: ProfileParams::default_const(),
            forensics: ForensicsParams::default_const(),
        }
    }

    /// Fixed heap count (for scalability experiments that oversubscribe,
    /// and for the global allocator, whose initialization path must not
    /// allocate — unlike [`detect`](Self::detect), this is `const`).
    pub const fn with_heaps(n: usize) -> Self {
        Self::base(HeapMode::PerCpu(n))
    }

    /// The §4.2.4 single-heap configuration.
    pub const fn uniprocessor() -> Self {
        Self::base(HeapMode::Single)
    }

    /// Clamped credit cap for the A2 ablation.
    pub fn with_max_credits(self, n: u32) -> Self {
        Config { max_credits: n.clamp(1, MAX_CREDITS), ..self }
    }

    /// Retry budget for transient page-source failure.
    pub const fn with_oom_retries(self, n: u32) -> Self {
        Config { oom_retries: n, ..self }
    }

    /// Deallocation-hardening mode (const so the global allocator's
    /// static configuration can opt in at compile time).
    pub const fn with_hardening(self, h: Hardening) -> Self {
        Config { hardening: h, ..self }
    }

    /// Liveness-watchdog policy and retry ceiling.
    pub const fn with_liveness(self, l: LivenessConfig) -> Self {
        Config { liveness: l, ..self }
    }

    /// Enables the background reaper with the given period and budget.
    pub const fn with_reaper(self, r: ReaperConfig) -> Self {
        Config { reaper: Some(r), ..self }
    }

    /// Enables or disables automatic atfork-hook registration.
    pub const fn with_atfork(self, on: bool) -> Self {
        Config { atfork: on, ..self }
    }

    /// Shorthand for `with_atfork(false)`: no hooks are registered and
    /// child-side recovery is purely lazy.
    pub const fn without_atfork(self) -> Self {
        self.with_atfork(false)
    }

    /// Allocation-sampler stride and seed (no effect unless the
    /// `profile` cargo feature is compiled in).
    pub const fn with_profile(self, p: ProfileParams) -> Self {
        Config { profile: p, ..self }
    }

    /// Crash-forensics report fd and handler opt-in (no effect unless
    /// the `forensics` cargo feature is compiled in; const so the
    /// global allocator's static configuration can opt in at compile
    /// time).
    pub const fn with_forensics(self, p: ForensicsParams) -> Self {
        Config { forensics: p, ..self }
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::detect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert_eq!(SB_SIZE, 16 * 1024);
        assert_eq!(MAX_CREDITS, 64);
        assert_eq!(1usize << DESC_ALIGN_SHIFT, 64);
        assert!(SB_BATCH * SB_SIZE == 1 << 20, "hyperblocks should be 1 MiB");
    }

    #[test]
    fn heap_mode_counts() {
        assert_eq!(HeapMode::Single.heap_count(), 1);
        assert_eq!(HeapMode::PerCpu(8).heap_count(), 8);
        assert_eq!(HeapMode::PerCpu(0).heap_count(), 1, "zero heaps is clamped");
        assert_eq!(HeapMode::PerCpu(usize::MAX).heap_count(), 1 << 16, "a column is 16 bits");
    }

    #[test]
    fn detect_gives_at_least_one_heap() {
        let c = Config::detect();
        assert!(c.heap_mode.heap_count() >= 1);
    }

    #[test]
    fn oom_retries_default_and_override() {
        assert_eq!(Config::detect().oom_retries, DEFAULT_OOM_RETRIES);
        assert_eq!(Config::with_heaps(2).oom_retries, DEFAULT_OOM_RETRIES);
        assert_eq!(Config::uniprocessor().with_oom_retries(0).oom_retries, 0);
    }

    #[test]
    fn hardening_defaults_off_and_overrides() {
        assert_eq!(Config::detect().hardening, Hardening::Off);
        assert_eq!(Config::with_heaps(2).hardening, Hardening::Off);
        let c = Config::uniprocessor().with_hardening(Hardening::Detect);
        assert_eq!(c.hardening, Hardening::Detect);
        assert_eq!(c.with_hardening(Hardening::Abort).hardening, Hardening::Abort);
    }

    #[test]
    fn liveness_defaults_and_override() {
        use crate::health::{LivenessPolicy, DEFAULT_RETRY_CEILING};
        for c in [Config::detect(), Config::with_heaps(2), Config::uniprocessor()] {
            assert_eq!(c.liveness.retry_ceiling, DEFAULT_RETRY_CEILING);
            assert_eq!(c.liveness.policy, LivenessPolicy::Report);
        }
        const CUSTOM: Config = Config::with_heaps(1)
            .with_liveness(LivenessConfig::new(16, LivenessPolicy::Abort));
        assert_eq!(CUSTOM.liveness.retry_ceiling, 16);
        assert_eq!(CUSTOM.liveness.policy, LivenessPolicy::Abort);
    }

    #[test]
    fn atfork_defaults_on_and_override() {
        for c in [Config::detect(), Config::with_heaps(2), Config::uniprocessor()] {
            assert!(c.atfork, "atfork hooks default on");
        }
        const OFF: Config = Config::with_heaps(1).without_atfork();
        assert!(!OFF.atfork);
        assert!(OFF.with_atfork(true).atfork);
    }

    #[test]
    fn profile_params_default_and_override() {
        for c in [Config::detect(), Config::with_heaps(2), Config::uniprocessor()] {
            assert_eq!(c.profile, ProfileParams::default_const());
        }
        const CUSTOM: Config =
            Config::with_heaps(1).with_profile(ProfileParams::new(4096, 7));
        assert_eq!(CUSTOM.profile.stride_bytes, 4096);
        assert_eq!(CUSTOM.profile.seed, 7);
        assert_eq!(ProfileParams::new(0, 1).stride_bytes, 1, "zero stride is clamped");
    }

    #[test]
    fn reaper_defaults_off_and_override() {
        use core::time::Duration;
        assert!(Config::detect().reaper.is_none());
        assert!(Config::uniprocessor().reaper.is_none());
        const WITH: Config =
            Config::with_heaps(1).with_reaper(ReaperConfig::every(Duration::from_millis(50)));
        let r = WITH.reaper.expect("reaper configured");
        assert_eq!(r.period, Duration::from_millis(50));
    }
}
