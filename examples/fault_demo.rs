//! Fault-injection walkthrough: FlakySource failure plans, the heap
//! integrity auditor, and (with `--features failpoints`) deterministic
//! failpoint schedules.
//!
//! ```text
//! cargo run --release --example fault_demo
//! cargo run --release --example fault_demo --features failpoints
//! ```

use lfmalloc_repro::prelude::*;
use malloc_api::testkit;
use osmem::{FlakySource, SystemSource};
use std::sync::Arc;

unsafe fn churn<S: osmem::PageSource + Send + Sync>(a: &LfMalloc<S>, seed: u64, ops: usize) {
    let mut rng = testkit::TestRng::new(seed);
    let mut live: Vec<(*mut u8, usize)> = Vec::new();
    for _ in 0..ops {
        if live.len() < 48 && rng.range(0, 3) != 0 {
            let sz = match rng.range(0, 3) {
                0 => rng.range(8, 256),
                1 => rng.range(256, 8192),
                _ => rng.range(8192, 40_000),
            };
            let p = a.malloc(sz);
            if !p.is_null() {
                testkit::fill(p, sz);
                live.push((p, sz));
            }
        } else if let Some((p, sz)) = live.pop() {
            testkit::check_fill(p, sz);
            a.free(p);
        }
    }
    for (p, _) in live {
        a.free(p);
    }
}

fn main() {
    // 1. Churn a plain instance, then ask the auditor for a verdict.
    let a = LfMalloc::with_config(Config::with_heaps(2));
    unsafe { churn(&a, 0xDEC0DE, 30_000) };
    let rep = a.audit();
    println!("== baseline churn ==\n{rep}");
    assert!(rep.is_clean());

    // 2. Layered OS-failure plans: ~1/8 of page requests fail at
    //    random (seeded), plus every 13th deterministically.
    let src = Arc::new(FlakySource::reliable(SystemSource::new()));
    src.fail_with_chance(8192, 0xF1A2);
    src.fail_every_nth(13);
    let a = LfMalloc::with_config_and_source(Config::with_heaps(2), Arc::clone(&src));
    unsafe { churn(&a, 0xF1A2, 30_000) };
    println!("== flaky OS ==\nOS denials injected: {}", src.denials());
    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    println!("audit: clean ({} descriptors linked)", rep.descriptors_linked);

    // 3. One-shot outage: the next 4 page requests fail, then the
    //    source heals itself. Large blocks always hit the OS.
    src.fail_every_nth(0);
    src.fail_with_chance(0, 0);
    src.fail_next(4);
    let mut nulls = 0;
    unsafe {
        loop {
            let p = a.malloc(1 << 20);
            if p.is_null() {
                nulls += 1;
            } else {
                a.free(p);
                break;
            }
        }
    }
    println!("== outage ==\nmalloc(1 MiB) returned null {nulls}x, then recovered");

    // 4. The auditor is not a rubber stamp: corrupt a free-list link
    //    and it must object.
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        let p = a.malloc(64);
        a.free(p);
        a.flush_thread_cache(); // out of the thread's magazine, onto the free list
        (p as *mut u64).write(u64::MAX); // smash the next-free index
    }
    let rep = a.audit();
    println!("== planted corruption ==");
    for v in &rep.violations {
        println!("caught: {v}");
    }
    assert!(!rep.is_clean(), "auditor missed planted free-list corruption");

    // 5. Deterministic failpoints (feature-gated; zero cost when off).
    #[cfg(feature = "failpoints")]
    {
        use malloc_api::failpoints::{self as fp, FpAction, FpTrigger};
        let _guard = fp::scenario(0x5EED);
        fp::arm("active.reserve", FpAction::Yield, FpTrigger::EveryNth(13));
        fp::arm("active.pop", FpAction::Retry, FpTrigger::EveryNth(11));
        fp::arm("free.link", FpAction::Retry, FpTrigger::EveryNth(9));
        fp::arm_limited("active.reserved", FpAction::Kill, FpTrigger::EveryNth(301), 8);
        fp::arm_limited("partial.put", FpAction::Kill, FpTrigger::EveryNth(3), 3);

        let a = Arc::new(LfMalloc::with_config(Config::with_heaps(1)));
        let threads: Vec<_> = (0..2)
            .map(|t| {
                let a = Arc::clone(&a);
                std::thread::spawn(move || unsafe { churn(&a, 0x5EED ^ (t + 1), 20_000) })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        println!("== failpoint schedule 0x5EED ==");
        for (site, hits) in fp::fired_sites() {
            println!("{site:>16}: fired {hits}x");
        }
        let rep = a.audit();
        assert!(rep.is_clean(), "{rep}");
        println!("audit: clean after yields, forced retries and kills");
    }
    #[cfg(not(feature = "failpoints"))]
    println!("(rebuild with --features failpoints for the scheduled-fault demo)");
}
