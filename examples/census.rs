//! Census: what one operation of the lock-free allocator executes, counted
//! instruction by instruction (`malloc_api::trace`).
//!
//! Run with `cargo run --release --example census`.
//!
//! Each shape runs on a fresh one-heap instance (two heaps for the remote
//! frees) in a forked child, warmed by one round of the same shape, and is
//! counted at N operations and at none; the difference over N is one
//! operation. The driver's loop, a `black_box`ed size and a one-byte store
//! into each block are included; the instance's teardown is not.
//! Counts repeat exactly from run to run of one binary, so any difference
//! between two builds is the code's. Prints `unavailable` (and exits 1)
//! where the tracer cannot run.

use lfmalloc_repro::prelude::*;
use malloc_api::trace::{self, PerOp};
use std::hint::black_box;

/// Pairs per count, for every pair shape.
const PAIRS: u64 = 1_000;

fn instance() -> LfMalloc {
    LfMalloc::with_config(Config::with_heaps(1))
}

/// `malloc(size)`, a store, `free`, `n` times.
fn pairs(size: usize) -> Result<PerOp, trace::Unavailable> {
    let pair = |a: &LfMalloc, n: u64| {
        for _ in 0..n {
            unsafe {
                let p = a.malloc(black_box(size));
                p.write(1);
                a.free(p);
            }
        }
    };
    trace::per_op(
        PAIRS,
        || {
            let a = instance();
            pair(&a, 2);
            a
        },
        |a, n| {
            pair(&a, n);
            std::mem::forget(a); // teardown is not the shape's
        },
    )
}

/// `blocks` × `malloc(size)` with a store each, then every `free` in
/// allocation order: one op is the whole round.
fn rounds(size: usize, blocks: usize, n: u64) -> Result<PerOp, trace::Unavailable> {
    let round = |a: &LfMalloc, live: &mut Vec<*mut u8>, n: u64| {
        for _ in 0..n {
            for slot in live.iter_mut() {
                unsafe {
                    *slot = a.malloc(black_box(size));
                    slot.write(1);
                }
            }
            for &p in live.iter() {
                unsafe { a.free(p) };
            }
        }
    };
    trace::per_op(
        n,
        || {
            let (a, mut live) = (instance(), vec![core::ptr::null_mut(); blocks]);
            round(&a, &mut live, 1);
            (a, live)
        },
        |(a, mut live), n| {
            round(&a, &mut live, n);
            std::mem::forget(a);
        },
    )
}

/// `free` of `n` blocks of `size` that a thread on the other heap
/// allocated: remote frees, parked in the outbox and sent home in runs.
fn remote_frees(size: usize) -> Result<PerOp, trace::Unavailable> {
    const BLOCKS: u64 = 2_048;
    trace::per_op(
        BLOCKS,
        || {
            let a = LfMalloc::with_config(Config::with_heaps(2));
            let mine = lfmalloc::heap::thread_id() % 2;
            // Thread ids come in sequence: the next thread or the one
            // after is on the other heap.
            let blocks = loop {
                let theirs = std::thread::scope(|s| {
                    s.spawn(|| {
                        (lfmalloc::heap::thread_id() % 2 != mine).then(|| {
                            (0..BLOCKS).map(|_| unsafe { a.malloc(size) } as usize).collect::<Vec<_>>()
                        })
                    })
                    .join()
                    .unwrap()
                });
                if let Some(blocks) = theirs {
                    break blocks;
                }
            };
            unsafe { a.free(a.malloc(size)) };
            (a, blocks)
        },
        |(a, blocks), n| {
            for &p in &blocks[..n as usize] {
                unsafe { a.free(black_box(p as *mut u8)) };
            }
            std::mem::forget(a);
        },
    )
}

fn main() {
    let shapes: [(&str, Box<dyn Fn() -> Result<PerOp, trace::Unavailable>>); 7] = [
        ("malloc(8) + free", Box::new(|| pairs(8))),
        ("malloc(1024) + free", Box::new(|| pairs(1024))),
        ("malloc(8000) + free", Box::new(|| pairs(8000))),
        ("malloc(64 KiB) + free", Box::new(|| pairs(64 * 1024))),
        ("64 x malloc(8000), 64 x free", Box::new(|| rounds(8000, 64, 20))),
        ("4096 x malloc(8), 4096 x free", Box::new(|| rounds(8, 4096, 2))),
        ("free(32) of the other heap's", Box::new(|| remote_frees(32))),
    ];
    println!("{:<32} {:>12} {:>8} {:>9}", "shape (per op)", "instructions", "locked", "syscalls");
    for (name, count) in shapes {
        match count() {
            Ok(c) => println!("{name:<32} {:>12.1} {:>8.2} {:>9.2}", c.instructions, c.locked, c.syscalls),
            Err(e) => {
                println!("{name:<32} unavailable ({})", e.0);
                std::process::exit(1);
            }
        }
    }
}
