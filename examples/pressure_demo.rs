//! Memory-pressure walkthrough: a burst held then drained, trim-to-
//! watermark handing hyperblocks back to the OS, a total OS outage that
//! degrades to nulls while cached memory keeps serving, and recovery.
//!
//! ```text
//! cargo run --release --example pressure_demo
//! ```

use lfmalloc_repro::prelude::*;
use malloc_api::testkit;
use osmem::{CountingSource, FlakySource, PageSource, SystemSource};
use std::sync::Arc;

const MIB: usize = 1 << 20;

fn main() {
    let src = Arc::new(FlakySource::reliable(CountingSource::new(SystemSource::new())));
    let a = LfMalloc::try_with_config_and_source(Config::with_heaps(2), Arc::clone(&src))
        .expect("construction is fallible but the source is healthy");

    // 1. Pressure burst: hold 32 MiB of mixed sizes, then drain it.
    let mut rng = testkit::TestRng::new(0x9E55);
    let mut live: Vec<(*mut u8, usize)> = Vec::new();
    let mut held = 0usize;
    unsafe {
        while held < 32 * MIB {
            let sz = match rng.range(0, 10) {
                0..=5 => rng.range(8, 256),
                6..=8 => rng.range(256, 8192),
                _ => rng.range(8192, 40_000),
            };
            let p = a.malloc(sz);
            assert!(!p.is_null());
            testkit::fill(p, sz);
            live.push((p, sz));
            held += sz;
        }
        let peak = src.stats().live_bytes;
        println!("== burst ==\nheld {} MiB; OS live {} MiB", held / MIB, peak / MIB);
        // Large blocks unmap at free; superblock cache stays resident
        // until trim.
        for (p, sz) in live.drain(..) {
            testkit::check_fill(p, sz);
            a.free(p);
        }
        println!("drained: OS live {} MiB (superblock + descriptor cache)",
                 src.stats().live_bytes / MIB);

        // 2. Trim to a 2-hyperblock watermark: idle actives uninstall,
        //    EMPTY descriptors leave the partial lists, and fully-free
        //    hyperblocks and descriptor slabs unmap.
        let released = a.trim_to(2 * MIB);
        println!(
            "== trim_to(2 MiB) ==\nreleased {} MiB; OS live {} KiB across {} hyperblocks",
            released / MIB,
            src.stats().live_bytes >> 10,
            a.hyperblock_count()
        );
        assert!(src.stats().live_bytes <= 2 * MIB + MIB);

        // 3. Total outage: the next 400 page requests fail — far deeper
        //    than the retry budget (8 retries per request). Fresh
        //    hyperblock mallocs report null; the trimmed-but-warm cache
        //    keeps small requests serviceable; frees never need the OS.
        let warm = a.malloc(64);
        assert!(!warm.is_null());
        src.fail_next(400);
        let mut nulls = 0;
        for _ in 0..8 {
            let p = a.malloc(MIB);
            if p.is_null() {
                nulls += 1;
            } else {
                a.free(p);
            }
        }
        let cached = a.malloc(64);
        assert!(!cached.is_null(), "cached superblocks must serve during an outage");
        a.free(cached);
        a.free(warm);
        println!("== outage ==\n{nulls}/8 large mallocs null; small cache still serving");
        assert!(nulls > 0);

        // 4. Recovery: keep asking until the outage plan drains.
        let mut attempts = 0;
        loop {
            attempts += 1;
            let p = a.malloc(MIB);
            if !p.is_null() {
                a.free(p);
                break;
            }
        }
        println!("== recovery ==\nservice back after {attempts} attempts");
    }

    let rep = a.audit();
    assert!(rep.is_clean(), "{rep}");
    let released = unsafe { a.trim() };
    println!(
        "== final trim ==\nreleased {} KiB; OS live {} KiB; audit clean",
        released >> 10,
        src.stats().live_bytes >> 10
    );
    assert!(src.stats().live_bytes <= MIB);
}
