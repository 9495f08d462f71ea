//! Allocator configuration and load-bearing constants.
//!
//! [`Config`] holds only what callers set to different values: the heap
//! count, hardening, the liveness watchdog and the sampler. The rest is
//! fixed where it acts: the credit cap is [`MAX_CREDITS`], the OOM retry
//! count is a constant in `retry.rs`, every instance registers its
//! atfork hooks (`fork.rs`), the reaper runs once
//! [`start_reaper`](crate::LfMalloc::start_reaper) is called, and crash
//! handlers once `install_crash_reporter` is.

use crate::harden::Hardening;
use crate::health::LivenessConfig;

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

/// Most processor heaps per size class: a frame-map entry names the
/// owning heap's column in 16 bits (DESIGN.md §19.1).
pub const MAX_HEAPS: usize = 1 << 16;

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

/// Tunable allocator parameters.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Processor heaps per size class, 1..=[`MAX_HEAPS`]: thread ids map
    /// onto them, and the paper sizes them "proportional to the number
    /// of processors". One heap skips the thread-id lookup — the §4.2.4
    /// single-processor optimization.
    pub heaps: usize,
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
    /// Allocation-sampler stride/seed (active only with the `profile`
    /// cargo feature; see the `profile` module).
    pub profile: ProfileParams,
}

impl Config {
    /// Paper-shaped defaults: per-CPU heaps (detected at initialization
    /// time, as §4.2.4 suggests: "the allocator can determine the number
    /// of processors in the system at initialization time").
    pub fn detect() -> Self {
        let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_heaps(cpus)
    }

    /// `n` heaps, clamped to 1..=[`MAX_HEAPS`] (for scalability
    /// experiments that oversubscribe, and for the global allocator,
    /// whose initialization path must not allocate — unlike
    /// [`detect`](Self::detect), this is `const`).
    pub const fn with_heaps(n: usize) -> Self {
        Config {
            heaps: if n == 0 { 1 } else if n > MAX_HEAPS { MAX_HEAPS } else { n },
            hardening: Hardening::Off,
            liveness: LivenessConfig::default_const(),
            profile: ProfileParams::default_const(),
        }
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

    /// Allocation-sampler stride and seed (no effect unless the
    /// `profile` cargo feature is compiled in).
    pub const fn with_profile(self, p: ProfileParams) -> Self {
        Config { profile: p, ..self }
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
    fn heap_counts_are_clamped() {
        assert_eq!(Config::with_heaps(1).heaps, 1);
        assert_eq!(Config::with_heaps(8).heaps, 8);
        assert_eq!(Config::with_heaps(0).heaps, 1, "zero heaps is clamped");
        assert_eq!(Config::with_heaps(usize::MAX).heaps, 1 << 16, "a column is 16 bits");
        assert!(Config::detect().heaps >= 1);
    }

    #[test]
    fn hardening_defaults_off_and_overrides() {
        assert_eq!(Config::detect().hardening, Hardening::Off);
        assert_eq!(Config::with_heaps(2).hardening, Hardening::Off);
        let c = Config::with_heaps(1).with_hardening(Hardening::Detect);
        assert_eq!(c.hardening, Hardening::Detect);
        assert_eq!(c.with_hardening(Hardening::Abort).hardening, Hardening::Abort);
    }

    #[test]
    fn liveness_defaults_and_override() {
        use crate::health::{LivenessPolicy, DEFAULT_RETRY_CEILING};
        for c in [Config::detect(), Config::with_heaps(2), Config::with_heaps(1)] {
            assert_eq!(c.liveness.retry_ceiling, DEFAULT_RETRY_CEILING);
            assert_eq!(c.liveness.policy, LivenessPolicy::Report);
        }
        const CUSTOM: Config = Config::with_heaps(1)
            .with_liveness(LivenessConfig::new(16, LivenessPolicy::Abort));
        assert_eq!(CUSTOM.liveness.retry_ceiling, 16);
        assert_eq!(CUSTOM.liveness.policy, LivenessPolicy::Abort);
    }

    #[test]
    fn profile_params_default_and_override() {
        for c in [Config::detect(), Config::with_heaps(2), Config::with_heaps(1)] {
            assert_eq!(c.profile, ProfileParams::default_const());
        }
        const CUSTOM: Config =
            Config::with_heaps(1).with_profile(ProfileParams::new(4096, 7));
        assert_eq!(CUSTOM.profile.stride_bytes, 4096);
        assert_eq!(CUSTOM.profile.seed, 7);
        assert_eq!(ProfileParams::new(0, 1).stride_bytes, 1, "zero stride is clamped");
    }
}
