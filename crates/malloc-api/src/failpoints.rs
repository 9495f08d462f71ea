//! Deterministic, seedable fault injection for the lock-free stack.
//!
//! The paper's availability claim (§3, §5) is about what happens when a
//! thread is delayed, preempted, or killed *inside* a lock-free
//! operation: every CAS window must tolerate arbitrary interleavings.
//! This module gives each such window a *named failpoint* that tests can
//! arm to inject, deterministically from a seed:
//!
//! * a scheduler yield ([`FpAction::Yield`]) — widens the race window,
//! * a bounded spin delay ([`FpAction::Delay`]) — simulates preemption,
//! * a forced CAS retry ([`FpAction::Retry`]) — exercises the loop's
//!   failure arm even when no real contention exists,
//! * a simulated thread death ([`FpAction::Kill`]) — the call site
//!   abandons the operation mid-flight, exactly like a thread killed by
//!   the OS between two instructions,
//! * an indefinite stall ([`FpAction::Park`]) — the thread stays at the
//!   site until the test disarms it, so a test can run a chosen
//!   interleaving (the ABA shape) around a thread frozen mid-operation.
//!
//! A site is reached via the [`fail_point!`] macro and returns an
//! [`FpSignal`] the caller inspects:
//!
//! ```ignore
//! let fp = malloc_api::fail_point!("active.reserve");
//! if fp.retry { continue; }        // forced CAS-retry
//! if fp.kill { return abandon(); } // simulated thread death
//! ```
//!
//! With the `failpoints` cargo feature disabled (the default), the macro
//! expands to the constant [`FpSignal::NONE`]; both branches above are
//! `if false` and the optimizer removes the site entirely, so release
//! binaries carry zero failpoint code.
//!
//! Firing is decided by an [`FpTrigger`] (always / every-Nth hit /
//! probabilistic from a per-site PRNG seeded by [`ScenarioGuard`]), with
//! an optional fire budget for one-shot or bounded faults. Cumulative
//! per-site fire counts survive re-arming so a test can assert which
//! sites actually fired.
//!
//! Configuration is process-global (the sites live inside allocator
//! instances that tests construct freely), so tests that arm failpoints
//! must hold the [`scenario`] guard — it serializes such tests against
//! each other and guarantees a clean slate on entry and exit.

/// What a call site should do, decided by the armed failpoint.
///
/// Yield and delay are performed *inside* [`hit`] before returning;
/// retry and kill are returned as flags because only the call site knows
/// how to re-enter its loop or abandon its operation legally.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FpSignal {
    /// The call site should take its CAS-failure arm once.
    pub retry: bool,
    /// The call site should abandon the operation as if the thread died.
    pub kill: bool,
}

impl FpSignal {
    /// The "nothing armed" signal; what every site sees with the
    /// `failpoints` feature off.
    pub const NONE: FpSignal = FpSignal { retry: false, kill: false };
}

/// Reaches the named failpoint: expands to [`failpoints::hit`](hit) with
/// the `failpoints` feature on, and to the constant [`FpSignal::NONE`]
/// (which the optimizer folds away) with the feature off.
///
/// The feature is resolved in the *calling* crate, so every crate that
/// wires failpoints re-exports a `failpoints` feature forwarding to
/// `malloc-api/failpoints`.
#[macro_export]
macro_rules! fail_point {
    ($name:expr) => {{
        #[cfg(feature = "failpoints")]
        {
            $crate::failpoints::hit($name)
        }
        #[cfg(not(feature = "failpoints"))]
        {
            $crate::failpoints::FpSignal::NONE
        }
    }};
}

#[cfg(feature = "failpoints")]
pub use imp::*;

#[cfg(feature = "failpoints")]
mod imp {
    use super::FpSignal;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock};

    /// The fault injected when a site fires.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FpAction {
        /// `std::thread::yield_now()` at the site.
        Yield,
        /// Spin (`spin_loop` hint) for this many iterations at the site.
        Delay(u32),
        /// Ask the site to take its CAS-failure/retry arm once.
        Retry,
        /// Ask the site to abandon the operation (simulated thread death).
        Kill,
        /// Hold the thread at the site until the site is disarmed (or
        /// re-armed with another action, or the scenario ends). Arm it
        /// with a budget: every thread it fires for waits.
        Park,
    }

    /// When an armed site fires.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FpTrigger {
        /// Every time the site is reached.
        Always,
        /// On the Nth, 2Nth, 3Nth... hit (N of 0 never fires).
        EveryNth(u64),
        /// With probability `p / 65536` per hit, drawn from the site's
        /// seeded PRNG (deterministic given the scenario seed and the
        /// site's hit sequence).
        Chance(u16),
    }

    struct Site {
        action: FpAction,
        trigger: FpTrigger,
        /// Remaining fires before the site disarms itself; `None` means
        /// unlimited.
        budget: Option<u64>,
        hits: u64,
        rng: u64,
    }

    #[derive(Default)]
    struct Registry {
        sites: HashMap<&'static str, Site>,
        seed: u64,
        /// Cumulative fires per site; survives re-arming and budget
        /// exhaustion so tests can assert coverage.
        fired: HashMap<&'static str, u64>,
    }

    fn registry() -> &'static Mutex<Registry> {
        static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
    }

    fn lock_registry() -> MutexGuard<'static, Registry> {
        registry().lock().unwrap_or_else(|e| e.into_inner())
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn site_seed(scenario_seed: u64, name: &str) -> u64 {
        // FNV-1a over the site name, mixed with the scenario seed, so
        // each site draws an independent deterministic stream.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut s = scenario_seed ^ h;
        splitmix64(&mut s)
    }

    /// Arms `name` to perform `action` whenever `trigger` says so, with
    /// no fire limit.
    pub fn arm(name: &'static str, action: FpAction, trigger: FpTrigger) {
        arm_limited(name, action, trigger, u64::MAX);
    }

    /// Arms `name` with a fire budget: after `max_fires` fires the site
    /// disarms itself (one-shot faults use `max_fires == 1`).
    pub fn arm_limited(name: &'static str, action: FpAction, trigger: FpTrigger, max_fires: u64) {
        let mut reg = lock_registry();
        let rng = site_seed(reg.seed, name);
        let budget = if max_fires == u64::MAX { None } else { Some(max_fires) };
        reg.sites.insert(name, Site { action, trigger, budget, hits: 0, rng });
        ANY_ARMED.store(true, Ordering::Release);
    }

    /// False while no site is armed, so that [`hit`] can answer without
    /// the registry lock. Besides the cost, that matters after `fork`:
    /// a child forked while another thread held the lock would deadlock
    /// on its first failpoint, armed or not.
    static ANY_ARMED: AtomicBool = AtomicBool::new(false);

    /// Disarms one site (its cumulative fire count is preserved).
    pub fn disarm(name: &str) {
        lock_registry().sites.remove(name);
    }

    /// Disarms every site and zeroes all counters and the seed.
    pub fn clear() {
        let mut reg = lock_registry();
        ANY_ARMED.store(false, Ordering::Release);
        reg.sites.clear();
        reg.fired.clear();
        reg.seed = 0;
    }

    /// Sets the scenario seed and reseeds every armed site's PRNG.
    pub fn set_seed(seed: u64) {
        let mut reg = lock_registry();
        reg.seed = seed;
        let names: Vec<&'static str> = reg.sites.keys().copied().collect();
        for name in names {
            let rng = site_seed(seed, name);
            if let Some(site) = reg.sites.get_mut(name) {
                site.rng = rng;
                site.hits = 0;
            }
        }
    }

    /// Cumulative number of times `name` fired since the last [`clear`].
    pub fn fired(name: &str) -> u64 {
        lock_registry().fired.get(name).copied().unwrap_or(0)
    }

    /// Every site that fired since the last [`clear`], with counts,
    /// sorted by name for stable assertions.
    pub fn fired_sites() -> Vec<(&'static str, u64)> {
        let reg = lock_registry();
        let mut v: Vec<(&'static str, u64)> =
            reg.fired.iter().map(|(n, c)| (*n, *c)).collect();
        v.sort_unstable();
        v
    }

    /// The live decision point behind [`fail_point!`].
    pub fn hit(name: &'static str) -> FpSignal {
        if !ANY_ARMED.load(Ordering::Acquire) {
            return FpSignal::NONE;
        }
        let action = {
            let mut reg = lock_registry();
            let Some(site) = reg.sites.get_mut(name) else {
                return FpSignal::NONE;
            };
            site.hits += 1;
            let fires = match site.trigger {
                FpTrigger::Always => true,
                FpTrigger::EveryNth(n) => n != 0 && site.hits % n == 0,
                FpTrigger::Chance(p) => ((splitmix64(&mut site.rng) >> 48) as u16) < p,
            };
            if !fires {
                return FpSignal::NONE;
            }
            if let Some(budget) = &mut site.budget {
                if *budget == 0 {
                    return FpSignal::NONE;
                }
                *budget -= 1;
            }
            let action = site.action;
            *reg.fired.entry(name).or_insert(0) += 1;
            action
        };
        match action {
            FpAction::Yield => {
                std::thread::yield_now();
                FpSignal::NONE
            }
            FpAction::Delay(spins) => {
                for _ in 0..spins {
                    std::hint::spin_loop();
                }
                FpSignal::NONE
            }
            FpAction::Retry => FpSignal { retry: true, kill: false },
            FpAction::Kill => FpSignal { retry: false, kill: true },
            FpAction::Park => {
                let parked = || {
                    lock_registry().sites.get(name).is_some_and(|s| s.action == FpAction::Park)
                };
                while parked() {
                    std::thread::yield_now();
                }
                FpSignal::NONE
            }
        }
    }

    /// Serializes failpoint-using tests and guarantees a clean registry.
    ///
    /// Acquire with [`scenario`]; on drop the registry is cleared again
    /// so a later non-failpoint test never sees stale faults.
    pub struct ScenarioGuard {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for ScenarioGuard {
        fn drop(&mut self) {
            SCENARIO_ACTIVE.store(false, Ordering::Release);
            clear();
        }
    }

    static SCENARIO: Mutex<()> = Mutex::new(());
    static SCENARIO_ACTIVE: AtomicBool = AtomicBool::new(false);

    /// Keeps fault scenarios out while held, without being one: for a
    /// test that shares a binary with scenario tests and asserts on
    /// state a running scenario changes process-wide (see
    /// [`scenario_active`]).
    pub fn no_scenario() -> impl Drop {
        SCENARIO.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a [`ScenarioGuard`] is alive. Code that would keep a
    /// call from reaching the sites a plan schedules (a cache in front
    /// of them) asks this and steps aside for the scenario's duration.
    #[inline]
    pub fn scenario_active() -> bool {
        SCENARIO_ACTIVE.load(Ordering::Acquire)
    }

    /// Starts a fault scenario: takes the global scenario lock, clears
    /// all previous state, and installs `seed` for probabilistic
    /// triggers.
    pub fn scenario(seed: u64) -> ScenarioGuard {
        let lock = SCENARIO.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        set_seed(seed);
        SCENARIO_ACTIVE.store(true, Ordering::Release);
        ScenarioGuard { _lock: lock }
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_are_silent() {
        let _s = scenario(1);
        assert_eq!(hit("fp.test.unarmed"), FpSignal::NONE);
        assert_eq!(fired("fp.test.unarmed"), 0);
    }

    #[test]
    fn retry_fires_and_counts() {
        let _s = scenario(1);
        arm("fp.test.retry", FpAction::Retry, FpTrigger::Always);
        assert!(hit("fp.test.retry").retry);
        assert!(hit("fp.test.retry").retry);
        assert_eq!(fired("fp.test.retry"), 2);
    }

    #[test]
    fn every_nth_skips_between_fires() {
        let _s = scenario(1);
        arm("fp.test.nth", FpAction::Kill, FpTrigger::EveryNth(3));
        let kills: Vec<bool> = (0..9).map(|_| hit("fp.test.nth").kill).collect();
        assert_eq!(kills, [false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn budget_disarms_after_max_fires() {
        let _s = scenario(1);
        arm_limited("fp.test.oneshot", FpAction::Kill, FpTrigger::Always, 1);
        assert!(hit("fp.test.oneshot").kill);
        assert!(!hit("fp.test.oneshot").kill);
        assert_eq!(fired("fp.test.oneshot"), 1);
    }

    #[test]
    fn park_holds_the_thread_until_disarmed() {
        let _s = scenario(1);
        arm_limited("fp.test.park", FpAction::Park, FpTrigger::Always, 1);
        std::thread::scope(|s| {
            let parked = s.spawn(|| hit("fp.test.park"));
            while fired("fp.test.park") == 0 {
                std::thread::yield_now();
            }
            // The budget is spent: a second thread passes straight through.
            assert_eq!(hit("fp.test.park"), FpSignal::NONE);
            assert!(!parked.is_finished());
            disarm("fp.test.park");
            assert_eq!(parked.join().unwrap(), FpSignal::NONE);
        });
    }

    #[test]
    fn chance_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<bool> {
            let _s = scenario(seed);
            arm("fp.test.chance", FpAction::Retry, FpTrigger::Chance(32768));
            (0..64).map(|_| hit("fp.test.chance").retry).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seeds should differ");
        let fires = a.iter().filter(|x| **x).count();
        assert!(fires > 8 && fires < 56, "p=0.5 should fire roughly half: {fires}/64");
    }

    #[test]
    fn scenario_drop_clears_state() {
        {
            let _s = scenario(7);
            assert!(scenario_active());
            arm("fp.test.cleanup", FpAction::Retry, FpTrigger::Always);
            assert!(hit("fp.test.cleanup").retry);
        }
        let _s = scenario(8);
        assert_eq!(hit("fp.test.cleanup"), FpSignal::NONE);
        assert_eq!(fired("fp.test.cleanup"), 0);
    }
}
