//! Fault-injection torture: malloc/free churn under injected yields,
//! bounded delays, forced CAS retries, simulated mid-operation thread
//! kills, and OS allocation failures — with [`LfMalloc::audit`] as the
//! oracle after every scenario.
//!
//! Every scenario is seeded and prints its seed in the assertion
//! message, so a failure reproduces with a one-line test filter (see
//! EXPERIMENTS.md, "Reproducing torture failures").
//!
//! The failpoint scenarios require `--features failpoints`; the audit
//! and OS-failure-plan scenarios run in the default tier-1 build too.

use lfmalloc_repro::prelude::*;
use malloc_api::testkit;
use osmem::{FlakySource, SystemSource};
use std::sync::Arc;

/// Mixed size classes plus an occasional large block.
fn churn_size(rng: &mut testkit::TestRng) -> usize {
    match rng.range(0, 10) {
        0..=5 => rng.range(8, 256),
        6..=8 => rng.range(256, 8192),
        _ => rng.range(8192, 40_000),
    }
}

/// One thread's worth of randomized malloc/fill/check/free churn.
/// Null returns (injected OOM or kills) are tolerated; blocks are
/// verified against their fill pattern before being freed.
unsafe fn churn<S: osmem::PageSource + Send + Sync>(
    a: &LfMalloc<S>,
    seed: u64,
    ops: usize,
    drain: bool,
) {
    let mut rng = testkit::TestRng::new(seed);
    let mut live: Vec<(*mut u8, usize)> = Vec::new();
    for _ in 0..ops {
        if live.len() > 64 || (!live.is_empty() && rng.range(0, 3) == 0) {
            let (p, sz) = live.swap_remove(rng.range(0, live.len()));
            testkit::check_fill(p, sz);
            a.free(p);
        } else {
            let sz = churn_size(&mut rng);
            let p = a.malloc(sz);
            if !p.is_null() {
                testkit::fill(p, sz);
                live.push((p, sz));
            }
        }
    }
    if drain {
        for (p, sz) in live {
            testkit::check_fill(p, sz);
            a.free(p);
        }
    }
    // Without `drain` the remaining blocks stay allocated on purpose:
    // the audit must hold with live blocks outstanding, and the
    // instance reclaims them wholesale on drop.
}

fn assert_clean<S: osmem::PageSource + Send + Sync>(a: &LfMalloc<S>, scenario: &str, seed: u64) {
    let rep = a.audit();
    assert!(
        rep.is_clean(),
        "audit violations (scenario {scenario}, seed {seed:#x}):\n{rep}"
    );
}

#[test]
fn audit_clean_on_fresh_instance() {
    let a = LfMalloc::new_default();
    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(rep.descriptors_total, 0, "no slabs before the first malloc");
}

#[test]
fn audit_clean_after_mixed_churn() {
    testkit::for_each_seed("mixed churn", &[0x5EED_0001, 0x5EED_0002, 0x5EED_0003], |seed| {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe { churn(&a, seed, 20_000, false) };
        // Audit with blocks still live...
        assert_clean(&a, "mixed churn, blocks live", seed);
        let rep = a.audit();
        assert!(rep.descriptors_linked >= 1, "coverage: nothing linked\n{rep}");
        assert!(rep.free_blocks_walked >= 1, "coverage: no free list walked\n{rep}");
        // ...and the leak from `forget` is bounded to what churn left
        // behind (the instance reclaims it wholesale on drop).
    });
    // Full drain must also audit clean, with every block back on a list.
    let a = LfMalloc::with_config(Config::with_heaps(2));
    unsafe { churn(&a, 0x5EED_0004, 20_000, true) };
    assert_clean(&a, "mixed churn, drained", 0x5EED_0004);
}

#[test]
fn audit_clean_after_simulated_kills() {
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null());
        a.free(p);
        let mut kills = 0;
        for _ in 0..100 {
            if a.simulate_killed_reservation(64) {
                kills += 1;
            }
            let q = a.malloc(64);
            assert!(!q.is_null());
            a.free(q);
        }
        assert!(kills > 0, "no reservation was ever abandoned");
    }
    assert_clean(&a, "abandoned reservations", 0);
}

#[test]
fn audit_flags_seeded_freelist_corruption() {
    // The auditor must not be vacuous: scribbling over a free block's
    // next-index word is exactly the corruption a buggy free path would
    // produce, and the walk must report it — as a list that ends early
    // when the word reads as an explicit index out of range, as a virgin
    // run that starts past the end when it reads with the V bit set
    // (DESIGN.md §20).
    for (scribble, check) in [(0x0FFF, "sb.freelist-short"), (u64::MAX, "sb.virgin-range")] {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
            // A local free is cached in the thread's magazine; send it home.
            a.flush_thread_cache();
            assert!(a.audit().is_clean());
            // `p`'s block is now the head of its superblock's free list; the
            // block's first word — the pointer is the block start — holds
            // its successor.
            (p as *mut u64).write(scribble);
        }
        let rep = a.audit();
        assert!(
            rep.violations.iter().any(|v| v.check == check),
            "auditor missed planted free-list corruption {scribble:#x}:\n{rep}"
        );
    }
}

#[test]
fn audit_clean_under_intermittent_os_failure_plans() {
    // FlakySource failure plans (no failpoints feature needed): a
    // probabilistic plan layered on a fail-every-Nth plan, then a
    // one-shot outage with self-recovery.
    testkit::for_each_seed("intermittent OS failure", &[0xBAD_05, 0xBAD_06], |seed| {
        let src = Arc::new(FlakySource::reliable(SystemSource::new()));
        src.fail_with_chance(8192, seed); // ~1/8 of OS allocations fail
        src.fail_every_nth(13);
        let a = LfMalloc::with_config_and_source(Config::with_heaps(2), Arc::clone(&src));
        unsafe { churn(&a, seed, 20_000, true) };
        assert!(src.denials() > 0, "the failure plans never fired (seed {seed:#x})");
        assert_clean(&a, "intermittent OS failure", seed);

        // Outage: the next 4 OS allocations fail, then service resumes
        // on its own. Large blocks always go to the OS, so the outage is
        // squarely in the allocation path — and the bounded backoff loop
        // (8 retries, a constant of `retry.rs`) must ride it out: the caller
        // sees one successful malloc, while the source records the
        // denials that the retries absorbed.
        src.fail_every_nth(0);
        src.fail_with_chance(0, 0);
        let denials_before = src.denials();
        src.fail_next(4);
        unsafe {
            let p = a.malloc(1 << 20);
            assert!(!p.is_null(), "backoff retries failed to absorb a 4-deep outage");
            a.free(p);
        }
        assert!(
            src.denials() >= denials_before + 4,
            "outage plan never fired (seed {seed:#x})"
        );
        assert_clean(&a, "post-outage", seed);
    });
}

#[cfg(feature = "failpoints")]
mod failpoint_scenarios {
    use super::*;
    use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
    use std::collections::HashSet;

    /// Sites armed with each action category in the combined scenario,
    /// for the coverage assertion.
    const YIELD_SITES: &[&str] = &["active.reserve", "stack.pop", "desc.alloc"];
    const RETRY_SITES: &[&str] = &["active.pop", "free.link", "partial.get"];
    const KILL_SITES: &[&str] =
        &["active.reserved", "active.update", "partial.put", "desc.retire", "free.empty", "sb.reopen"];

    fn arm_combined_scenario() {
        // Yields and bounded delays: pure schedule perturbation.
        fp::arm("active.reserve", FpAction::Yield, FpTrigger::EveryNth(13));
        // `stack.pop` sits inside the ABA window of every descriptor
        // and superblock pop: a yield there invites the pop-reuse-push
        // interleaving the head tag exists for.
        fp::arm("stack.pop", FpAction::Yield, FpTrigger::Always);
        fp::arm("desc.alloc", FpAction::Delay(25), FpTrigger::EveryNth(6));
        // Forced CAS-retry arms: exercise every loop's failure path.
        fp::arm("active.pop", FpAction::Retry, FpTrigger::EveryNth(11));
        fp::arm("free.link", FpAction::Retry, FpTrigger::EveryNth(9));
        fp::arm("partial.get", FpAction::Retry, FpTrigger::Chance(6000));
        // Simulated thread deaths, bounded so leaks stay bounded.
        fp::arm_limited("active.reserved", FpAction::Kill, FpTrigger::EveryNth(301), 8);
        fp::arm_limited("active.update", FpAction::Kill, FpTrigger::EveryNth(467), 4);
        fp::arm_limited("partial.put", FpAction::Kill, FpTrigger::EveryNth(3), 3);
        fp::arm_limited("desc.retire", FpAction::Kill, FpTrigger::EveryNth(2), 3);
        fp::arm_limited("free.empty", FpAction::Kill, FpTrigger::EveryNth(3), 2);
        // Dies holding an EMPTY superblock and its descriptor, taken out
        // of a heap slot to be reopened: the pair leaks, nobody waits.
        fp::arm_limited("sb.reopen", FpAction::Kill, FpTrigger::EveryNth(2), 3);
    }

    #[test]
    fn combined_torture_across_seeds_audits_clean() {
        let mut fired_total: HashSet<&'static str> = HashSet::new();
        let seeds = [0xF00D_0001, 0xF00D_0002, 0xF00D_0003, 0xF00D_0004];
        testkit::for_each_seed("combined failpoint torture", &seeds, |seed| {
            let _guard = fp::scenario(seed);
            arm_combined_scenario();

            // The background reaper rides along: its maintenance passes
            // run concurrently with the churn *and* the failpoint storm,
            // so the self-healing paths face the same adversary.
            let a = Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
            assert!(a.start_reaper(ReaperConfig::every(std::time::Duration::from_millis(2))));
            let mut workers = Vec::new();
            for t in 0..2u64 {
                let a = Arc::clone(&a);
                workers.push(std::thread::spawn(move || unsafe {
                    churn(&a, seed ^ (t + 1), 12_000, true);
                }));
            }
            for w in workers {
                w.join().unwrap();
            }

            let fired = fp::fired_sites();
            assert!(!fired.is_empty(), "no failpoint fired (seed {seed:#x})");
            for (name, _count) in &fired {
                fired_total.insert(name);
            }
            // Quiesce the reaper before the audit walks the structures.
            a.stop_reaper();
            assert_clean(&*a, "combined failpoint torture", seed);
        });

        // Acceptance coverage: many distinct sites, and every action
        // category (yield/delay, forced retry, kill) actually fired.
        assert!(
            fired_total.len() >= 8,
            "only {} distinct failpoints fired: {fired_total:?}",
            fired_total.len()
        );
        for (category, sites) in
            [("yield", YIELD_SITES), ("retry", RETRY_SITES), ("kill", KILL_SITES)]
        {
            assert!(
                sites.iter().any(|s| fired_total.contains(s)),
                "no {category} site fired; fired = {fired_total:?}"
            );
        }
    }

    #[test]
    fn forced_retries_never_change_results() {
        // Retry arms must be invisible to callers: same single-threaded
        // allocation behavior, just slower paths.
        let _guard = fp::scenario(0xC0FFEE);
        fp::arm("active.reserve", FpAction::Retry, FpTrigger::EveryNth(2));
        fp::arm("active.pop", FpAction::Retry, FpTrigger::EveryNth(2));
        fp::arm("free.link", FpAction::Retry, FpTrigger::EveryNth(2));
        fp::arm("partial.get", FpAction::Retry, FpTrigger::EveryNth(2));
        fp::arm("stack.pop", FpAction::Retry, FpTrigger::EveryNth(2));

        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let blocks: Vec<*mut u8> = (0..2_000).map(|_| a.malloc(48)).collect();
            let unique: HashSet<usize> = blocks.iter().map(|p| *p as usize).collect();
            assert_eq!(unique.len(), blocks.len(), "duplicate blocks under forced retries");
            for p in &blocks {
                assert!(!p.is_null());
                testkit::fill(*p, 48);
            }
            for p in blocks {
                testkit::check_fill(p, 48);
                a.free(p);
            }
        }
        assert!(fp::fired("active.pop") > 0, "retry sites never fired");
        assert_clean(&a, "forced retries", 0xC0FFEE);
    }

    #[test]
    fn kill_storm_leaks_boundedly_and_audits_clean() {
        let _guard = fp::scenario(0xDEAD_01);
        fp::arm_limited("active.reserved", FpAction::Kill, FpTrigger::EveryNth(40), 16);
        fp::arm_limited("free.link", FpAction::Kill, FpTrigger::EveryNth(50), 8);
        fp::arm_limited("partial.reserve", FpAction::Kill, FpTrigger::EveryNth(2), 4);
        fp::arm_limited("free.empty", FpAction::Kill, FpTrigger::EveryNth(2), 4);

        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // Build partial superblocks (allocate a lot, free a stride)
            // so partial-path and empty-path kills have prey.
            for _ in 0..4 {
                let blocks: Vec<*mut u8> = (0..4_000).map(|_| a.malloc(64)).collect();
                for (i, p) in blocks.iter().enumerate() {
                    if !p.is_null() && i % 3 != 0 {
                        a.free(*p);
                    }
                }
            }
            // The allocator must still serve after every kill.
            let p = a.malloc(64);
            assert!(!p.is_null(), "allocation blocked after kill storm");
            a.free(p);
        }
        let kills: u64 = ["active.reserved", "free.link", "partial.reserve", "free.empty"]
            .iter()
            .map(|s| fp::fired(s))
            .sum();
        assert!(kills > 0, "no kill site fired");
        assert_clean(&a, "kill storm", 0xDEAD_01);
    }

    #[test]
    fn oom_kills_and_retries_compose() {
        // OS failure plans + failpoints at once: the descriptor- and
        // superblock-allocation failpoints ride on top of a flaky
        // source, so both OOM entry points (real and simulated) fire.
        let _guard = fp::scenario(0xA110C);
        fp::arm("pool.carve", FpAction::Retry, FpTrigger::EveryNth(3));
        fp::arm_limited("desc.alloc", FpAction::Kill, FpTrigger::EveryNth(101), 2);

        let src = Arc::new(FlakySource::reliable(SystemSource::new()));
        src.fail_with_chance(6553, 0xA110C); // ~10%
        let a = LfMalloc::with_config_and_source(Config::with_heaps(2), Arc::clone(&src));
        unsafe { churn(&a, 0xA110C, 15_000, true) };
        assert!(fp::fired("pool.carve") + fp::fired("desc.alloc") > 0);
        assert_clean(&a, "oom + failpoints", 0xA110C);
    }
}
