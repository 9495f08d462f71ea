//! Liveness watchdog + maintenance subsystem, end to end: thread-churn
//! soak (dead-thread reclamation through `maintain`), watchdog storm
//! detection under seeded forced-retry plans, policy semantics
//! (Report / Abort), the background reaper, and TLS-teardown
//! frees.
//!
//! The soak and reaper scenarios run in the default tier-1 build; the
//! watchdog scenarios force CAS-retry storms with failpoint plans and
//! need `--features failpoints`. Magazines step aside process-wide while
//! a scenario runs, so in that build the churn tests hold
//! `failpoints::no_scenario()`: their threads' mallocs would otherwise
//! take the paper's path and spend the `active.pop` budget a watchdog
//! test armed for its own instance.

use lfmalloc_repro::prelude::*;
use malloc_api::testkit::{self, TestRng};
use std::sync::Arc;

/// Spawns `total` short-lived allocating threads, at most `width`
/// concurrently, each doing a seeded malloc/fill/free burst and freeing
/// four blocks of a feeder thread that has already exited — so the
/// threads on the feeder's heap exit with blocks cached, and the others
/// with blocks parked in their outboxes as well.
fn churn_threads<S: osmem::PageSource + Send + Sync + 'static>(
    a: &Arc<LfMalloc<S>>,
    seed: u64,
    total: usize,
    width: usize,
) {
    use malloc_api::testkit;
    let mut spawned = 0usize;
    while spawned < total {
        let batch = width.min(total - spawned);
        let feeder = Arc::clone(a);
        let fed: Vec<usize> = std::thread::spawn(move || {
            (0..4 * batch).map(|i| unsafe { feeder.malloc(24 + 40 * (i % 4)) } as usize).collect()
        })
        .join()
        .unwrap();
        assert!(fed.iter().all(|&p| p != 0));
        let mut handles = Vec::with_capacity(batch);
        for t in 0..batch {
            let a = Arc::clone(a);
            let tseed = seed ^ ((spawned + t + 1) as u64);
            let handed = fed[4 * t..4 * t + 4].to_vec();
            handles.push(std::thread::spawn(move || {
                let mut rng = TestRng::new(tseed);
                let mut live: Vec<(*mut u8, usize)> = Vec::new();
                for p in handed {
                    unsafe { a.free(p as *mut u8) };
                }
                for _ in 0..8 {
                    let sz = rng.range(8, 1024);
                    let p = unsafe { a.malloc(sz) };
                    assert!(!p.is_null());
                    unsafe { testkit::fill(p, sz) };
                    live.push((p, sz));
                }
                for (p, sz) in live {
                    unsafe {
                        testkit::check_fill(p, sz);
                        a.free(p);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        spawned += batch;
    }
}

/// The churn soak of the acceptance criteria: thousands of short-lived
/// allocating threads, then one maintenance pass must leave the
/// instance healthy — the descriptor universe plateaus (a descriptor an
/// exited thread retired is on the free stack at once, not on a list
/// that died with the thread), magazine slots adopted (their count
/// follows the concurrency width, not the thread count), the blocks
/// exited threads left in their magazines and outboxes sent home, OS footprint
/// trimmed under a fixed bound, and a full audit clean.
#[test]
fn thread_churn_soak_stays_healthy() {
    const THREADS: usize = 5_000;
    const WIDTH: usize = 8;
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
    testkit::for_each_seed("thread churn soak", &[0x11FE_0001, 0x11FE_0002], |seed| {
        let a = Arc::new(LfMalloc::with_config(Config::with_heaps(2)));
        churn_threads(&a, seed, THREADS / 5, WIDTH);
        let early = a.health().descriptor_slots;
        churn_threads(&a, seed ^ 0x5EC0, THREADS - THREADS / 5, WIDTH);

        let h = a.health();
        // One slab (85 slots) of slack for a busier interleaving later on.
        assert!(
            h.descriptor_slots <= early + 85,
            "descriptor universe did not plateau: {early} slots after {} threads, {} after {} \
             (seed {seed:#x})",
            THREADS / 5,
            h.descriptor_slots,
            THREADS
        );
        // Same plateau for thread magazines: a new thread adopts (and
        // drains) an exited thread's slot before taking a fresh one.
        assert!(
            h.magazine_slots <= 2 * WIDTH,
            "magazine slots did not plateau: {} owned after {} threads (seed {seed:#x})",
            h.magazine_slots,
            THREADS
        );

        // All workers are joined, so the quiescent-trim contract holds.
        let bound = 4 << 20; // 4 MiB keeps plenty of slack over the working set
        let budget = unsafe { MaintenanceBudget::full().with_quiescent_trim(bound) };
        let rep = a.maintain(budget);
        let h = a.health();
        assert!(
            h.os_live_bytes <= bound + (1 << 18),
            "live bytes {} over bound {bound} (seed {seed:#x})",
            h.os_live_bytes
        );
        assert_eq!(h.os_watermark, Some(bound));
        assert!(
            rep.magazines_drained > 0,
            "exited threads left nothing cached? {rep:?}"
        );
        let audit = a.audit();
        assert!(audit.is_clean(), "audit after soak (seed {seed:#x}):\n{audit}");
        assert_eq!(audit.magazine_blocks, 0, "exited threads' blocks leaked (seed {seed:#x})");
        assert_eq!(a.health().magazine_slots, 0);
        let h = a.health();
        assert!(!h.is_degraded(), "degraded after clean soak (seed {seed:#x}): {}", h.to_json());
    });
}

/// The background reaper keeps up with thread churn on its own: with no
/// explicit `maintain` call, what exited threads left cached is still
/// sent home.
#[test]
fn reaper_keeps_up_with_thread_churn() {
    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(2)));
    assert!(a.start_reaper(ReaperConfig::every(std::time::Duration::from_millis(2))));
    churn_threads(&a, 0x4EA9E4, 400, 8);
    // Give the reaper a few periods of quiescence, then check it both
    // ran and drained the backlog.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let h = a.health();
        if h.reaper_passes > 0 && h.magazine_slots == 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "reaper never caught up: {}",
            h.to_json()
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(a.stop_reaper());
    let audit = a.audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(!a.health().is_degraded());
}

/// Frees issued from TLS destructors (thread identity torn down) must
/// route cleanly: blocks really return to their superblocks and the
/// books still balance.
#[test]
fn frees_during_tls_teardown_are_routed() {
    struct TeardownFree {
        a: Arc<LfMalloc<osmem::SystemSource>>,
        ptrs: Vec<*mut u8>,
    }
    unsafe impl Send for TeardownFree {}
    impl Drop for TeardownFree {
        fn drop(&mut self) {
            // Runs during TLS teardown: `heap::try_thread_id` may
            // already be gone; the free path must handle either case.
            for p in self.ptrs.drain(..) {
                unsafe { self.a.free(p) };
            }
        }
    }
    thread_local! {
        static PARKED: std::cell::RefCell<Option<TeardownFree>> =
            const { std::cell::RefCell::new(None) };
    }

    #[cfg(feature = "failpoints")]
    let _quiet = malloc_api::failpoints::no_scenario();
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(2)));
    for round in 0..16usize {
        let a2 = Arc::clone(&a);
        std::thread::spawn(move || {
            let ptrs: Vec<*mut u8> =
                (0..32usize).map(|i| unsafe { a2.malloc(16 + 8 * (i % 40) + round) }).collect();
            assert!(ptrs.iter().all(|p| !p.is_null()));
            PARKED.with(|slot| *slot.borrow_mut() = Some(TeardownFree { a: a2, ptrs }));
            // Thread exits here; the destructor frees every block.
        })
        .join()
        .unwrap();
    }
    a.maintain(MaintenanceBudget::full());
    let audit = a.audit();
    assert!(audit.is_clean(), "audit after TLS-teardown frees:\n{audit}");
    assert!(!a.health().is_degraded());
    #[cfg(feature = "stats")]
    {
        let t = a.as_ref().stats().totals;
        assert_eq!(t.frees(), 16 * 32, "every teardown free was counted");
        assert_eq!(
            t.free_cached + t.free_outbox + t.free_local + t.free_remote,
            t.frees(),
            "teardown frees stay inside the cached/outbox/local/remote split"
        );
    }
}

#[cfg(feature = "failpoints")]
mod watchdog {
    use super::*;
    use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};

    /// One malloc against an Active word whose pop CAS is forced to
    /// fail `retries` consecutive times.
    fn storm_one_malloc<S: osmem::PageSource + Send + Sync>(a: &LfMalloc<S>, retries: u64) {
        // Warm up so the Active word is installed with credits and the
        // next malloc takes the `active.pop` path.
        unsafe {
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
        }
        fp::arm_limited("active.pop", FpAction::Retry, FpTrigger::Always, retries);
        unsafe {
            let p = a.malloc(64);
            assert!(!p.is_null(), "storm must delay, never fail, the operation");
            a.free(p);
        }
    }

    /// Acceptance: under `Report`, a seeded retry storm crossing the
    /// ceiling is detected within the storming operation itself and
    /// surfaces in the `HealthSnapshot`.
    #[test]
    fn report_mode_surfaces_seeded_storm() {
        testkit::for_each_seed("report-mode storm", &[0x57A2_0001, 0x57A2_0002, 0x57A2_0003], |seed| {
            let _guard = fp::scenario(seed);
            let storms_before = lfmalloc::process_storms();
            let cfg = Config::with_heaps(1)
                .with_liveness(LivenessConfig::new(8, LivenessPolicy::Report));
            let a = LfMalloc::with_config(cfg);
            assert!(!a.health().is_degraded());

            storm_one_malloc(&a, 64);

            let h = a.health();
            assert_eq!(
                h.storms[WatchSite::ActivePop as usize], 1,
                "exactly one storm per storming operation (seed {seed:#x}): {}",
                h.to_json()
            );
            assert_eq!(h.storms_total(), 1);
            assert!(h.is_degraded(), "a detected storm must degrade the verdict");
            let storms_after = lfmalloc::process_storms();
            assert!(storms_after > storms_before, "process-wide counter advanced");
            #[cfg(feature = "stats")]
            {
                let events = a.take_events();
                assert!(
                    events.iter().any(|e| e.kind == EventKind::LivenessStorm
                        && e.arg == WatchSite::ActivePop as u64),
                    "no LivenessStorm event in the ring (seed {seed:#x}): {events:?}"
                );
                let json = a.stats().to_json();
                assert!(json.contains("\"degraded\":true"), "health missing from stats JSON");
            }
        });
    }

    /// Storms below the ceiling are not storms: honest short retry
    /// bursts never trip the watchdog.
    #[test]
    fn short_retry_bursts_stay_below_ceiling() {
        let _guard = fp::scenario(0x57A2_0010);
        let cfg = Config::with_heaps(1)
            .with_liveness(LivenessConfig::new(64, LivenessPolicy::Report));
        let a = LfMalloc::with_config(cfg);
        storm_one_malloc(&a, 16); // 16 forced retries < ceiling 64
        let h = a.health();
        assert_eq!(h.storms_total(), 0, "{}", h.to_json());
        assert!(!h.is_degraded());
    }

    /// `Abort` fail-stops: the storming operation panics with the site
    /// label instead of spinning.
    #[test]
    fn abort_mode_fail_stops_on_storm() {
        let _guard = fp::scenario(0x57A2_0040);
        let cfg = Config::with_heaps(1)
            .with_liveness(LivenessConfig::new(4, LivenessPolicy::Abort));
        let a = LfMalloc::with_config(cfg);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            storm_one_malloc(&a, 64);
        }))
        .expect_err("Abort policy must fail-stop on a storm");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("liveness watchdog") && msg.contains("active.pop"),
            "panic message names the watchdog and site: {msg:?}"
        );
        assert_eq!(a.health().storms[WatchSite::ActivePop as usize], 1);
    }

    /// The free-side site: a forced-retry plan against the free-link
    /// anchor CAS is attributed to `free.link`.
    #[test]
    fn free_link_storms_are_attributed() {
        let _guard = fp::scenario(0x57A2_0050);
        let cfg = Config::with_heaps(1)
            .with_liveness(LivenessConfig::new(8, LivenessPolicy::Report));
        let a = LfMalloc::with_config(cfg);
        let p = unsafe { a.malloc(64) };
        assert!(!p.is_null());
        fp::arm_limited("free.link", FpAction::Retry, FpTrigger::Always, 32);
        unsafe { a.free(p) };
        let h = a.health();
        assert_eq!(h.storms[WatchSite::FreeLink as usize], 1, "{}", h.to_json());
        assert_eq!(h.storms_total(), 1);
    }
}
