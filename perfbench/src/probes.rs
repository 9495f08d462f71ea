//! The per-layer probes: each times calls into one layer's public functions
//! from outside, in batches, and records every batch as a span.
//!
//! The layers are this repository's modules. What cannot be reached from
//! outside (the Active reserve, the Anchor pop and push, the partial list,
//! the descriptor pool) is bracketed instead: `instance.non_cas_ns` is what a
//! pair costs beyond its three CASes, `alloc.sb_cycle_ns` is what one
//! superblock life costs beyond the blocks allocated from it.

use crate::affinity::pin_to_nth_cpu;
use crate::sampler::{interleave, quiet, Plan, Probe};
use crate::trace::{self, Trace};
use crate::workloads::{
    give, take, Tally, LARGE_SIZE, SBCYCLE_BLOCKS, SBCYCLE_SIZE, SBCYCLE_SUPERBLOCKS,
};
use lfmalloc::size_classes::class_index;
use lfmalloc::{Config, LfMalloc};
use malloc_api::sync::Mutex;
use malloc_api::testkit::TestRng;
use malloc_api::RawMalloc;
use osmem::{PagePool, PageSource, SystemSource};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Blocks in the split malloc/free probes: a quarter of a 16-byte-class
/// superblock, so the run crosses several credit refills and no superblock
/// boundary.
const RUN: usize = 256;

/// How the battery's time is spent.
#[derive(Clone, Copy, Debug)]
pub struct BatteryCfg {
    pub seed: u64,
    /// Total sampling time, shared out among the probe groups.
    pub budget: Duration,
    /// Minimum rounds and a sixteenth of every batch: a contract check, not
    /// a measurement.
    pub smoke: bool,
}

impl BatteryCfg {
    fn plan(&self, share: f64) -> Plan {
        if self.smoke {
            Plan::SMOKE
        } else {
            Plan::timed(self.budget.mul_f64(share))
        }
    }

    fn ops(&self, ops: u64) -> u64 {
        if self.smoke {
            (ops / 16).max(1)
        } else {
            ops
        }
    }
}

fn instance(heaps: usize) -> LfMalloc {
    LfMalloc::with_config(Config::with_heaps(heaps))
}

/// `n` malloc/tag/check/free pairs of `size` bytes: the loop of `pair_1t`.
fn pairs<A: RawMalloc + ?Sized>(a: &A, size: usize, n: u64, t: &mut Tally) {
    let a = &a;
    for _ in 0..n {
        // SAFETY: the block is given back once, right after it is taken.
        unsafe {
            let p = take(a, size, t);
            give(a, p, t);
        }
    }
}

/// Bytes the large path asks the page source for to serve `size`.
fn large_span(size: usize) -> usize {
    (size + 16 + 4095) & !4095
}

/// Runs every probe; returns each workload-independent per-layer metric.
/// `tally` collects the probes' own output checks.
pub fn battery(trace: &mut Trace, cfg: &BatteryCfg, tally: &mut Tally) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    yardsticks(trace, cfg, &mut out);
    let free8 = small_path(trace, cfg, tally, &mut out);
    contention(trace, cfg, tally, &mut out);
    remote_free(trace, cfg, tally, free8, &mut out);
    pages(trace, cfg, tally, &mut out);
    out
}

/// The paper's §4.2.1 units and the instrument's own cost.
fn yardsticks(trace: &mut Trace, cfg: &BatteryCfg, out: &mut Vec<(&'static str, f64)>) {
    thread_local!(static SLOT: Cell<u64> = const { Cell::new(1) });
    // Load + CAS, cycling over three private words on separate cache lines,
    // as a pair's three CASes do (Active, Anchor, Anchor). A CAS that
    // re-reads the word the previous one just wrote stalls on it and reads
    // half as much again on the reference host, which would make
    // `instance.non_cas_ns` negative.
    #[repr(align(64))]
    struct Line(AtomicU64);
    let words = [
        Line(AtomicU64::new(0)),
        Line(AtomicU64::new(0)),
        Line(AtomicU64::new(0)),
    ];
    let lock = Mutex::new(0u64);
    let mut cas = |n: u64| {
        for i in 0..n {
            let word = &words[(i % 3) as usize].0;
            let v = word.load(Ordering::Acquire);
            let _ = black_box(word.compare_exchange(
                v,
                v.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ));
        }
    };
    let mut lock_pair = |n: u64| {
        for _ in 0..n {
            let mut g = lock.lock();
            *g = black_box(*g).wrapping_add(1);
        }
    };
    let mut tls = |n: u64| {
        for _ in 0..n {
            black_box(SLOT.with(|s| black_box(s).get()));
        }
    };
    let mut clock = |n: u64| {
        for _ in 0..n {
            black_box(Instant::now());
        }
    };
    let group = trace.begin("yardstick", Trace::ROOT);
    let s = interleave(
        trace,
        group,
        cfg.plan(0.08),
        &mut [
            Probe {
                name: "yardstick.cas_ns",
                ops: cfg.ops(100_000),
                run: &mut cas,
            },
            Probe {
                name: "yardstick.lock_pair_ns",
                ops: cfg.ops(50_000),
                run: &mut lock_pair,
            },
            Probe {
                name: "yardstick.tls_ns",
                ops: cfg.ops(200_000),
                run: &mut tls,
            },
            Probe {
                name: "yardstick.clock_ns",
                ops: cfg.ops(20_000),
                run: &mut clock,
            },
        ],
    );
    trace.end(group, 0);
    for (name, samples) in [
        "yardstick.cas_ns",
        "yardstick.lock_pair_ns",
        "yardstick.tls_ns",
        "yardstick.clock_ns",
    ]
    .into_iter()
    .zip(&s)
    {
        out.push((name, quiet(samples)));
    }
}

/// Pairs across the class ladder, the split malloc/free run, the slow-path
/// loop, and the lookups; all on one thread. Returns `instance.free8_ns`.
fn small_path(
    trace: &mut Trace,
    cfg: &BatteryCfg,
    tally: &mut Tally,
    out: &mut Vec<(&'static str, f64)>,
) -> f64 {
    let a = instance(1);
    let dynamic: Arc<dyn RawMalloc + Send + Sync> = Arc::new(instance(1));
    let tally = RefCell::new(tally);
    let mut sized = [8usize, 64, 1024, 8000].map(|size| {
        let (a, tally) = (&a, &tally);
        move |n: u64| pairs(a, size, n, &mut tally.borrow_mut())
    });
    let [p8, p64, p1024, p8000] = &mut sized;
    let mut dyn8 = |n: u64| pairs(&*dynamic, 8, n, &mut tally.borrow_mut());

    // The `sbcycle_1t` loop: every second malloc opens a superblock and
    // every second free empties one.
    let mut slots = [core::ptr::null_mut::<u8>(); SBCYCLE_BLOCKS];
    let mut sbcycle = |n: u64| {
        let mut t = tally.borrow_mut();
        for _ in 0..n / SBCYCLE_BLOCKS as u64 {
            // SAFETY: each slot is taken, then given back once.
            unsafe {
                for s in slots.iter_mut() {
                    *s = take(&a, SBCYCLE_SIZE, &mut t);
                }
                for s in slots {
                    give(&a, s, &mut t);
                }
            }
        }
    };

    // SAFETY: `live` stays allocated until the probes that read it are done.
    let live = unsafe { take(&a, 8, &mut tally.borrow_mut()) };
    let mut usable = |n: u64| {
        for _ in 0..n {
            // SAFETY: `live` is a live block of `a`.
            black_box(unsafe { a.usable_size(black_box(live)) });
        }
    };
    let mut rng = TestRng::new(cfg.seed);
    let sizes: Vec<usize> = (0..4096).map(|_| rng.range(1, 8193)).collect();
    let mut lookup = |n: u64| {
        let mut sum = 0usize;
        for &s in sizes.iter().cycle().take(n as usize) {
            sum += class_index(black_box(s)).unwrap_or(0);
        }
        black_box(sum);
    };

    let group = trace.begin("instance", Trace::ROOT);
    let batch = cfg.ops(20_000);
    let s = interleave(
        trace,
        group,
        cfg.plan(0.34),
        &mut [
            Probe {
                name: "instance.pair8_ns",
                ops: batch,
                run: p8,
            },
            Probe {
                name: "instance.pair64_ns",
                ops: batch,
                run: p64,
            },
            Probe {
                name: "instance.pair1024_ns",
                ops: batch,
                run: p1024,
            },
            Probe {
                name: "instance.pair8000_ns",
                ops: batch,
                run: p8000,
            },
            Probe {
                name: "malloc-api.dyn_pair8",
                ops: batch,
                run: &mut dyn8,
            },
            Probe {
                name: "alloc.sbcycle_loop",
                ops: cfg.ops(128) * SBCYCLE_BLOCKS as u64,
                run: &mut sbcycle,
            },
            Probe {
                name: "instance.usable_size_ns",
                ops: cfg.ops(100_000),
                run: &mut usable,
            },
            Probe {
                name: "size_classes.class_index_ns",
                ops: cfg.ops(100_000),
                run: &mut lookup,
            },
        ],
    );
    let m: Vec<f64> = s.iter().map(|samples| quiet(samples)).collect();
    let (pair8, pair8000, dyn_pair8, loop_ns) = (m[0], m[3], m[4], m[5]);

    // 256 mallocs timed, then 256 frees timed. The two probes alternate, so
    // `held` is full whenever the free probe runs.
    let held = RefCell::new([core::ptr::null_mut::<u8>(); RUN]);
    let mut malloc_run = |_: u64| {
        let mut t = tally.borrow_mut();
        for s in held.borrow_mut().iter_mut() {
            // SAFETY: given back by `free_run` before the next `malloc_run`.
            *s = unsafe { take(&a, 8, &mut t) };
        }
    };
    let mut free_run = |_: u64| {
        let mut t = tally.borrow_mut();
        for s in held.borrow().iter() {
            // SAFETY: taken by the `malloc_run` just before.
            unsafe { give(&a, *s, &mut t) };
        }
    };
    let split = interleave(
        trace,
        group,
        cfg.plan(0.03),
        &mut [
            Probe {
                name: "instance.malloc8_ns",
                ops: RUN as u64,
                run: &mut malloc_run,
            },
            Probe {
                name: "instance.free8_ns",
                ops: RUN as u64,
                run: &mut free_run,
            },
        ],
    );
    trace.end(group, 0);
    // SAFETY: taken above, given back once.
    unsafe { give(&a, live, &mut tally.borrow_mut()) };
    let (malloc8, free8) = (quiet(&split[0]), quiet(&split[1]));
    let cas = out
        .iter()
        .find(|(n, _)| *n == "yardstick.cas_ns")
        .map_or(0.0, |(_, v)| *v);

    let sb_cycle = (loop_ns - pair8000) * SBCYCLE_BLOCKS as f64 / SBCYCLE_SUPERBLOCKS as f64;
    out.extend([
        ("instance.pair8_ns", pair8),
        ("instance.pair64_ns", m[1]),
        ("instance.pair1024_ns", m[2]),
        ("instance.pair8000_ns", pair8000),
        ("instance.malloc8_ns", malloc8),
        ("instance.free8_ns", free8),
        ("instance.non_cas_ns", pair8 - 3.0 * cas),
        ("instance.usable_size_ns", m[6]),
        ("size_classes.class_index_ns", m[7]),
        ("malloc-api.dyn_overhead_ns", dyn_pair8 - pair8),
        ("alloc.sb_cycle_ns", sb_cycle),
        // Share of the sbcycle loop's time that is superblock life, not blocks.
        (
            "alloc.sb_cycle_share",
            sb_cycle * SBCYCLE_SUPERBLOCKS as f64 / (loop_ns * SBCYCLE_BLOCKS as f64),
        ),
    ]);
    free8
}

/// Runs `body(0, gate)` and `body(1, gate)` on two fresh threads and returns
/// what they return with their spans, which land under `parent`. Fresh
/// threads take consecutive allocator thread ids, so on a two-heap instance
/// they never share a heap. Each is pinned to a CPU of its own.
fn duo<R: Send>(
    trace: &mut Trace,
    parent: u32,
    body: impl Fn(usize, &Barrier) -> R + Sync,
) -> [R; 2] {
    let gate = Barrier::new(2);
    let run = |i: usize| {
        pin_to_nth_cpu(i);
        (body(i, &gate), trace::take_local())
    };
    let [(r0, t0), (r1, t1)] = std::thread::scope(|s| {
        let h = [s.spawn(|| run(0)), s.spawn(|| run(1))];
        h.map(|h| h.join().expect("probe thread panicked"))
    });
    for (i, t) in [t0, t1].into_iter().enumerate() {
        if let Some(t) = t {
            trace.absorb(t, i as u32 + 1, parent);
        }
    }
    [r0, r1]
}

/// Decides, on thread 0 before a barrier both threads then cross, whether
/// the round about to start is the last.
struct RoundClock {
    plan: Plan,
    started: Instant,
    stop: AtomicBool,
}

impl RoundClock {
    fn new(plan: Plan) -> RoundClock {
        RoundClock {
            plan,
            started: Instant::now(),
            stop: AtomicBool::new(false),
        }
    }

    /// Both threads call this at the top of `round`; true means stop.
    fn done(&self, thread: usize, round: usize, gate: &Barrier) -> bool {
        if thread == 0 {
            let timed = round.saturating_sub(self.plan.warmup_rounds);
            let over = timed >= self.plan.min_rounds && self.started.elapsed() >= self.plan.budget;
            self.stop.store(over, Ordering::Release);
        }
        gate.wait();
        self.stop.load(Ordering::Acquire)
    }
}

fn timed_local(name: &'static str, ops: u64, f: impl FnOnce()) -> f64 {
    let id = trace::local(|t| t.begin(name, Trace::ROOT));
    f();
    trace::local(|t| t.end(id, ops)) as f64 / ops as f64
}

/// Two threads pairing at once: on private heaps, then on one shared heap
/// (the same Active word).
fn contention(
    trace: &mut Trace,
    cfg: &BatteryCfg,
    tally: &mut Tally,
    out: &mut Vec<(&'static str, f64)>,
) {
    let (private, shared) = (instance(2), instance(1));
    let clock = RoundClock::new(cfg.plan(0.15));
    let batch = cfg.ops(20_000);
    let group = trace.begin("heap", Trace::ROOT);
    let results = duo(trace, group, |i, gate| {
        let (mut t, mut on_private, mut on_shared) = (Tally::default(), Vec::new(), Vec::new());
        for round in 0.. {
            if clock.done(i, round, gate) {
                break;
            }
            let a = timed_local("heap.private_pair8_ns", batch, || {
                pairs(&private, 8, batch, &mut t)
            });
            gate.wait();
            let b = timed_local("heap.shared_pair8_ns", batch, || {
                pairs(&shared, 8, batch, &mut t)
            });
            if round >= clock.plan.warmup_rounds {
                on_private.push(a);
                on_shared.push(b);
            }
        }
        (t, on_private, on_shared)
    });
    trace.end(group, 0);
    let (mut on_private, mut on_shared) = (Vec::new(), Vec::new());
    for (t, a, b) in results {
        tally.add(t);
        on_private.extend(a);
        on_shared.extend(b);
    }
    out.push(("heap.private_pair8_ns", quiet(&on_private)));
    out.push(("heap.shared_pair8_ns", quiet(&on_shared)));
}

/// Thread 1 frees, timed, the 256 blocks thread 0 allocated; thread 0 waits.
fn remote_free(
    trace: &mut Trace,
    cfg: &BatteryCfg,
    tally: &mut Tally,
    local_free8: f64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let a = instance(2);
    let held: Vec<AtomicUsize> = (0..RUN).map(|_| AtomicUsize::new(0)).collect();
    let clock = RoundClock::new(cfg.plan(0.10));
    let group = trace.begin("free_impl", Trace::ROOT);
    let results = duo(trace, group, |i, gate| {
        let (mut t, mut samples) = (Tally::default(), Vec::new());
        for round in 0.. {
            if clock.done(i, round, gate) {
                break;
            }
            if i == 0 {
                for s in &held {
                    // SAFETY: thread 1 gives each block back once, below.
                    s.store(unsafe { take(&a, 8, &mut t) } as usize, Ordering::Relaxed);
                }
            }
            gate.wait(); // blocks are published
            if i == 1 {
                let ns = timed_local("free_impl.remote_free8_ns", RUN as u64, || {
                    for s in &held {
                        // SAFETY: taken by thread 0 this round.
                        unsafe { give(&a, s.load(Ordering::Relaxed) as *mut u8, &mut t) };
                    }
                });
                if round >= clock.plan.warmup_rounds {
                    samples.push(ns);
                }
            }
        }
        (t, samples)
    });
    trace.end(group, 0);
    let [(t0, _), (t1, samples)] = results;
    tally.add(t0);
    tally.add(t1);
    let remote = quiet(&samples);
    out.push(("free_impl.remote_free8_ns", remote));
    out.push(("free_impl.remote_penalty_ns", remote - local_free8));
}

/// The page layers: `PagePool`, `SystemSource`, and the large path on top.
fn pages(
    trace: &mut Trace,
    cfg: &BatteryCfg,
    tally: &mut Tally,
    out: &mut Vec<(&'static str, f64)>,
) {
    const MIB: usize = 1 << 20;
    let src = SystemSource::new();
    let pool: PagePool<14> = PagePool::new(64);
    let a = instance(1);
    let tally = RefCell::new(tally);
    // SAFETY (closures below): every region and run goes back to where it
    // came from with the size and alignment it was obtained with.
    let mut pool_pair = |n: u64| {
        for _ in 0..n {
            let r = black_box(pool.alloc(&src));
            unsafe { pool.dealloc(r) };
        }
    };
    let map_unmap = |bytes: usize| {
        let src = &src;
        move |n: u64| {
            for _ in 0..n {
                unsafe {
                    let p = black_box(src.alloc_pages(bytes, 4096));
                    src.dealloc_pages(p, bytes, 4096);
                }
            }
        }
    };
    let (mut map64k, mut map1m) = (
        map_unmap(large_span(LARGE_SIZE)),
        map_unmap(large_span(MIB)),
    );
    let mut large64k = |n: u64| pairs(&a, LARGE_SIZE, n, &mut tally.borrow_mut());
    let mut large1m = |n: u64| pairs(&a, MIB, n, &mut tally.borrow_mut());

    let group = trace.begin("pages", Trace::ROOT);
    let s = interleave(
        trace,
        group,
        cfg.plan(0.20),
        &mut [
            Probe {
                name: "pool.alloc_dealloc_ns",
                ops: cfg.ops(50_000),
                run: &mut pool_pair,
            },
            Probe {
                name: "source.map_unmap_ns.64k",
                ops: cfg.ops(500),
                run: &mut map64k,
            },
            Probe {
                name: "large.pair_ns.64k",
                ops: cfg.ops(500),
                run: &mut large64k,
            },
            Probe {
                name: "source.map_unmap_ns.1m",
                ops: cfg.ops(48),
                run: &mut map1m,
            },
            Probe {
                name: "large.pair_ns.1m",
                ops: cfg.ops(48),
                run: &mut large1m,
            },
        ],
    );
    // SAFETY: the pool's one region was returned above; nothing is live.
    unsafe { pool.release_all(&src) };

    // The first `alloc` on an empty pool maps a hyperblock and carves it
    // into 64 regions; each sample is one such call on a fresh pool.
    let plan = cfg.plan(0.05);
    let (started, mut carve) = (Instant::now(), Vec::new());
    while carve.len() < plan.min_rounds + plan.warmup_rounds || started.elapsed() < plan.budget {
        let fresh: PagePool<14> = PagePool::new(64);
        let id = trace.begin("pool.hyperblock_ns", group);
        let r = black_box(fresh.alloc(&src));
        carve.push(trace.end(id, 1) as f64);
        // SAFETY: `r` came from `fresh`, which owns nothing else.
        unsafe {
            fresh.dealloc(r);
            fresh.release_all(&src);
        }
    }
    trace.end(group, 0);

    let m: Vec<f64> = s.iter().map(|samples| quiet(samples)).collect();
    out.extend([
        ("pool.alloc_dealloc_ns", m[0]),
        ("pool.hyperblock_ns", quiet(&carve[plan.warmup_rounds..])),
        ("source.map_unmap_ns.64k", m[1]),
        ("source.map_unmap_ns.1m", m[3]),
        ("large.pair_ns.64k", m[2]),
        ("large.pair_ns.1m", m[4]),
        ("large.overhead_ns.64k", m[2] - m[1]),
    ]);
}

/// The 8-byte pair alone, for the `stats`-feature build of this binary that
/// `observer.stats_pair8_ratio` compares against.
pub fn pair8_ns(budget: Duration) -> f64 {
    let a = instance(1);
    let mut t = Tally::default();
    let mut p8 = |n: u64| pairs(&a, 8, n, &mut t);
    let mut trace = Trace::with_capacity(1 << 12);
    let s = interleave(
        &mut trace,
        Trace::ROOT,
        Plan::timed(budget),
        &mut [Probe {
            name: "instance.pair8_ns",
            ops: 20_000,
            run: &mut p8,
        }],
    );
    quiet(&s[0])
}
