//! The six workloads, their output checking, and the closed-loop runner.
//!
//! Every workload is generic over [`RawMalloc`] and is driven with the
//! concrete `LfMalloc` type, so calls are statically dispatched. Each load
//! thread runs warm-up slices, then timed slices of a *fixed operation
//! count*; a slice's sample is its wall time divided by its operations. The
//! time budget only decides how many slices are taken, so two builds that
//! are compared do identical work per sample.

use crate::affinity::pin_to_nth_cpu;
use crate::trace::{self, Trace};
use malloc_api::testkit::TestRng;
use malloc_api::RawMalloc;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::sync::Barrier;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Pair1t,
    Larson2t,
    Threadtest2t,
    Sbcycle1t,
    Handoff2t,
    Large1t,
}

/// Larson: live blocks per thread, handed over from the main thread.
const LARSON_SLOTS: usize = 1024;
/// Threadtest: blocks allocated, then freed in order, per round (paper scale).
const THREADTEST_BLOCKS: usize = 100_000;
/// Sbcycle: 8000-byte blocks per round; two fit a superblock, so a round
/// fills 32 superblocks and the frees empty them all again.
pub const SBCYCLE_BLOCKS: usize = 64;
pub const SBCYCLE_SIZE: usize = 8000;
pub const SBCYCLE_SUPERBLOCKS: usize = 32;
/// Handoff: blocks per batch sent from producer to consumer.
const HANDOFF_BATCH: usize = 256;
/// Handoff: batch buffers in circulation, which bounds the live blocks.
const HANDOFF_DEPTH: usize = 4;
pub const LARGE_SIZE: usize = 64 * 1024;

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Pair1t,
        Workload::Larson2t,
        Workload::Threadtest2t,
        Workload::Sbcycle1t,
        Workload::Handoff2t,
        Workload::Large1t,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pair1t => "pair_1t",
            Workload::Larson2t => "larson_2t",
            Workload::Threadtest2t => "threadtest_2t",
            Workload::Sbcycle1t => "sbcycle_1t",
            Workload::Handoff2t => "handoff_2t",
            Workload::Large1t => "large_1t",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads that touch the allocator, which is also its heap count.
    pub fn threads(self) -> usize {
        match self {
            Workload::Pair1t | Workload::Sbcycle1t | Workload::Large1t => 1,
            Workload::Larson2t | Workload::Threadtest2t | Workload::Handoff2t => 2,
        }
    }

    /// Why the workload is in the benchmark (one line, for `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Pair1t => "malloc(8)/free pairs on one thread: the fast path alone (guards, class lookup, Active and Anchor CAS); slow layers, large and osmem idle",
            Workload::Larson2t => "paper's Larson server loop, 2 threads x 1024 handed-over slots, random free then malloc(16..=80): five classes, random order, first frees remote",
            Workload::Threadtest2t => "paper-scale Threadtest, 2 threads x 100000 x 8 B allocated then freed in order: fast path streaming through ~200 superblocks; carries the space metrics",
            Workload::Sbcycle1t => "64 x 8000 B allocated then freed: every second malloc takes the slow path (descriptor, PagePool, partial list, EMPTY transition), which pair_1t never does",
            Workload::Handoff2t => "producer on one CPU mallocs 256-block batches (40-80, 32, 16 B), consumer on the other frees them: every free is remote and races the producer's pops on the same Anchor word",
            Workload::Large1t => "malloc(64 KiB)/free pairs: all time in large.rs and SystemSource map/unmap; no small-path code runs",
        }
    }

    /// Operations per timed slice, sized to about 80 ms on the 2-CPU host
    /// the bounds were derived on. Fixed so every sample is the same work.
    pub fn slice_ops(self) -> u64 {
        match self {
            Workload::Pair1t => 2_000_000,
            Workload::Larson2t => 2_000_000,
            Workload::Threadtest2t => 20 * THREADTEST_BLOCKS as u64,
            Workload::Sbcycle1t => 14_000 * SBCYCLE_BLOCKS as u64,
            Workload::Handoff2t => 2_560 * HANDOFF_BATCH as u64,
            Workload::Large1t => 48_000,
        }
    }
}

/// Operations attempted and operations whose output was wrong.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[inline]
fn tag_of(p: *mut u8) -> u64 {
    (p as u64) ^ 0x5bd1_e995_9e37_79b9
}

/// One operation begins: `malloc`, count a null as failed, tag the block.
///
/// # Safety
///
/// `a` must honour the [`RawMalloc`] contract for non-null results of at
/// least 8 bytes, or the tag write lands outside the block.
#[inline]
pub(crate) unsafe fn take<A: RawMalloc>(a: &A, size: usize, t: &mut Tally) -> *mut u8 {
    t.attempted += 1;
    let p = unsafe { a.malloc(black_box(size)) };
    if p.is_null() {
        t.failed += 1;
    } else {
        // SAFETY: non-null results are 8-aligned blocks of >= 8 bytes.
        unsafe { (p as *mut u64).write_volatile(tag_of(p)) };
    }
    p
}

/// The operation ends: the tag must still be there. It is then poisoned, so
/// a block that was handed out twice fails at its second holder.
///
/// # Safety
///
/// `p` must be null or a block obtained from [`take`] on `a`, not yet given
/// back.
#[inline]
pub(crate) unsafe fn give<A: RawMalloc>(a: &A, p: *mut u8, t: &mut Tally) {
    if p.is_null() {
        return; // already counted as failed when it was taken
    }
    // SAFETY: `p` is a live block of at least 8 bytes tagged by `take`.
    unsafe {
        if (p as *const u64).read_volatile() != tag_of(p) {
            t.failed += 1;
        }
        (p as *mut u64).write_volatile(!tag_of(p));
        a.free(p);
    }
}

/// How many timed slices a run takes.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    Slices(usize),
    /// As many whole slices as start within this time (at least three).
    Time(Duration),
}

#[derive(Clone, Copy, Debug)]
pub struct RunCfg {
    pub seed: u64,
    /// Untimed slices run first; they are part of set-up time.
    pub warmup_slices: usize,
    pub budget: Budget,
    pub slice_ops: u64,
    /// Record slice spans (and keep the call spans of a `Traced` allocator).
    pub traced: bool,
}

/// What one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// ns per op, one sample per timed slice, all load threads together.
    pub samples: Vec<f64>,
    pub tally: Tally,
    /// From `started` to the first timed slice: construction by the caller,
    /// hand-over population, thread start, warm-up slices.
    pub setup_s: f64,
    pub trace: Option<Trace>,
}

/// A load thread's state between slices. Blocks are held as addresses so a
/// worker built on the main thread can move to its load thread.
enum Worker {
    Pairs {
        size: usize,
    },
    /// Allocate every slot, then free every slot, `rounds` times a slice.
    Sweep {
        size: usize,
        slots: Vec<usize>,
    },
    Larson {
        slots: Vec<usize>,
        rng: TestRng,
    },
    /// The handoff consumer; the producer is a thread of its own.
    Consumer {
        batches: Receiver<Vec<usize>>,
        empties: SyncSender<Vec<usize>>,
    },
}

impl Worker {
    /// Runs one slice of about `ops` operations; returns the exact count.
    fn slice<A: RawMalloc>(&mut self, a: &A, ops: u64, t: &mut Tally) -> u64 {
        // SAFETY (every arm): each pointer passed to `give` came from `take`
        // on the same allocator and is given back exactly once.
        match self {
            Worker::Pairs { size } => {
                for _ in 0..ops {
                    unsafe {
                        let p = take(a, *size, t);
                        give(a, p, t);
                    }
                }
                ops
            }
            Worker::Sweep { size, slots } => {
                let rounds = (ops / slots.len() as u64).max(1);
                for _ in 0..rounds {
                    for s in slots.iter_mut() {
                        *s = unsafe { take(a, *size, t) } as usize;
                    }
                    for s in slots.iter() {
                        unsafe { give(a, *s as *mut u8, t) };
                    }
                }
                rounds * slots.len() as u64
            }
            Worker::Larson { slots, rng } => {
                for _ in 0..ops {
                    let i = rng.range(0, slots.len());
                    unsafe {
                        give(a, slots[i] as *mut u8, t);
                        slots[i] = take(a, rng.range(16, 81), t) as usize;
                    }
                }
                ops
            }
            Worker::Consumer { batches, empties } => {
                let n = (ops / HANDOFF_BATCH as u64).max(1);
                for _ in 0..n {
                    let mut batch =
                        spin_recv(batches).expect("producer runs until the consumer stops it");
                    for p in batch.drain(..) {
                        unsafe { give(a, p as *mut u8, t) };
                    }
                    empties
                        .send(batch)
                        .expect("producer runs until the consumer stops it");
                }
                n * HANDOFF_BATCH as u64
            }
        }
    }

    /// Gives back whatever the worker still holds.
    fn finish<A: RawMalloc>(self, a: &A, t: &mut Tally) {
        match self {
            Worker::Pairs { .. } | Worker::Sweep { .. } => {}
            Worker::Larson { slots, .. } => {
                for p in slots {
                    // SAFETY: every slot holds a block from `take`.
                    unsafe { give(a, p as *mut u8, t) };
                }
            }
            Worker::Consumer { batches, empties } => {
                // The producer has been told to stop; free what is in
                // flight until it hangs up.
                while let Ok(mut batch) = batches.recv() {
                    for p in batch.drain(..) {
                        // SAFETY: batches hold blocks from `take`.
                        unsafe { give(a, p as *mut u8, t) };
                    }
                    let _ = empties.send(batch);
                }
            }
        }
    }
}

/// Receives without sleeping. The handoff threads have a CPU each and run at
/// once, which is the point of the workload: frees race pops. A thread that
/// blocked on the channel would be woken through the kernel, and in a VM that
/// wake costs more than the batch it waits for: runs then fell into spells
/// where one side slept once a batch and spells where neither did, 150 ns and
/// 34 ns a block. The yield is for a host with one CPU, where the other side
/// needs this one to run at all.
fn spin_recv<T>(rx: &Receiver<T>) -> Option<T> {
    let mut polls = 0u32;
    loop {
        match rx.try_recv() {
            Ok(v) => return Some(v),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) => {
                polls = polls.wrapping_add(1);
                if polls & 1023 == 0 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// The handoff producer: fills each empty buffer with freshly allocated,
/// tagged blocks in the paper's producer-consumer sizes and sends it. There
/// are as many buffers as either channel holds, so a send never waits.
fn produce<A: RawMalloc>(
    a: &A,
    seed: u64,
    stop: &AtomicBool,
    batches: SyncSender<Vec<usize>>,
    empties: Receiver<Vec<usize>>,
) -> (Tally, Option<Trace>) {
    // The consumer is load thread 0, on the first CPU.
    pin_to_nth_cpu(1);
    let mut t = Tally::default();
    let mut rng = TestRng::new(seed);
    let mut spare: Vec<Vec<usize>> = (0..HANDOFF_DEPTH)
        .map(|_| Vec::with_capacity(HANDOFF_BATCH))
        .collect();
    while !stop.load(Ordering::Acquire) {
        let Some(mut batch) = spare.pop().or_else(|| spin_recv(&empties)) else {
            break;
        };
        for i in 0..HANDOFF_BATCH {
            let size = match i % 3 {
                0 => rng.range(40, 81),
                1 => 32,
                _ => 16,
            };
            // SAFETY: the consumer gives each block back exactly once.
            batch.push(unsafe { take(a, size, &mut t) } as usize);
        }
        batches
            .send(batch)
            .expect("the consumer receives until the producer hangs up");
    }
    (t, trace::take_local())
}

struct ThreadOut {
    samples: Vec<f64>,
    tally: Tally,
    setup_s: f64,
    trace: Option<Trace>,
}

/// What the load threads of one run share.
struct Shared<'a> {
    /// Load threads in the run, which is the party count of `gate`.
    loads: usize,
    gate: &'a Barrier,
    /// Raised by a load thread whose budget is spent; the producer watches it.
    stop: &'a AtomicBool,
    started: Instant,
}

fn load_thread<A: RawMalloc>(
    a: &A,
    index: usize,
    mut worker: Worker,
    cfg: &RunCfg,
    shared: &Shared<'_>,
) -> ThreadOut {
    pin_to_nth_cpu(index);
    let mut tally = Tally::default();
    if cfg.traced {
        trace::local(|_| ()); // allocate the span buffer before timing
    }
    // Load threads warm up one after the other: with both busy at once, how
    // long warm-up takes depends on whether the host has the VM's two vCPUs
    // on one core just then (0.50 s against 0.35 s for `larson_2t`), and
    // set-up time would report that.
    for turn in 0..shared.loads {
        if turn == index {
            for _ in 0..cfg.warmup_slices {
                worker.slice(a, cfg.slice_ops, &mut tally);
            }
        }
        shared.gate.wait();
    }
    let setup_s = shared.started.elapsed().as_secs_f64();
    let timed = Instant::now();
    let mut samples = Vec::with_capacity(1024);
    loop {
        let enough = match cfg.budget {
            Budget::Slices(n) => samples.len() >= n,
            Budget::Time(d) => samples.len() >= 3 && timed.elapsed() >= d,
        };
        if enough {
            break;
        }
        let span = cfg.traced.then(|| {
            trace::local(|t| {
                t.scope = t.begin("slice", Trace::ROOT);
                t.scope
            })
        });
        let t0 = Instant::now();
        let ops = worker.slice(a, cfg.slice_ops, &mut tally);
        let ns = t0.elapsed().as_nanos() as f64;
        if let Some(id) = span {
            trace::local(|t| t.end(id, ops));
        }
        samples.push(ns / ops as f64);
    }
    shared.stop.store(true, Ordering::Release);
    worker.finish(a, &mut tally);
    ThreadOut {
        samples,
        tally,
        setup_s,
        trace: trace::take_local(),
    }
}

/// Runs `w` on `a`, which the caller constructed after taking `started`.
pub fn run<A: RawMalloc>(w: Workload, a: &A, started: Instant, cfg: &RunCfg) -> Outcome {
    let mut tally = Tally::default();
    let mut rng = TestRng::new(cfg.seed);
    let stop = AtomicBool::new(false);
    // The producer's channel ends, when the workload has a producer.
    let mut producer_ends = None;

    // Workers are built here, on the main thread, so Larson's slots are
    // populated by a thread that is not the one that will free them.
    // Handoff's second thread is the producer, not a load thread.
    let loads = if w == Workload::Handoff2t {
        1
    } else {
        w.threads()
    };
    let workers: Vec<Worker> = (0..loads)
        .map(|i| match w {
            Workload::Pair1t => Worker::Pairs { size: 8 },
            Workload::Large1t => Worker::Pairs { size: LARGE_SIZE },
            Workload::Threadtest2t => Worker::Sweep {
                size: 8,
                slots: vec![0; THREADTEST_BLOCKS],
            },
            Workload::Sbcycle1t => Worker::Sweep {
                size: SBCYCLE_SIZE,
                slots: vec![0; SBCYCLE_BLOCKS],
            },
            Workload::Larson2t => Worker::Larson {
                // SAFETY: slots are given back by the worker, once each.
                slots: (0..LARSON_SLOTS)
                    .map(|_| unsafe { take(a, rng.range(16, 81), &mut tally) } as usize)
                    .collect(),
                rng: TestRng::new(cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9)),
            },
            Workload::Handoff2t => {
                let (batch_tx, batches) = sync_channel::<Vec<usize>>(HANDOFF_DEPTH);
                let (empties, empty_rx) = sync_channel::<Vec<usize>>(HANDOFF_DEPTH);
                producer_ends = Some((batch_tx, empty_rx));
                Worker::Consumer { batches, empties }
            }
        })
        .collect();

    let gate = Barrier::new(loads);
    let shared = Shared {
        loads,
        gate: &gate,
        stop: &stop,
        started,
    };
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let (shared, stop) = (&shared, &stop);
        let producer =
            producer_ends.map(|(tx, rx)| s.spawn(move || produce(a, cfg.seed, stop, tx, rx)));
        let loads: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(i, worker)| s.spawn(move || load_thread(a, i, worker, cfg, shared)))
            .collect();
        let mut outs: Vec<ThreadOut> = loads
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect();
        if let Some(p) = producer {
            // The producer's malloc calls are its whole contribution.
            let (tally, trace) = p.join().expect("producer thread panicked");
            outs.push(ThreadOut {
                samples: Vec::new(),
                tally,
                setup_s: 0.0,
                trace,
            });
        }
        outs
    });

    let mut out = Outcome {
        samples: Vec::new(),
        tally,
        setup_s: 0.0,
        trace: None,
    };
    for (i, t) in outs.into_iter().enumerate() {
        out.samples.extend(t.samples);
        out.tally.add(t.tally);
        out.setup_s = out.setup_s.max(t.setup_s);
        if let Some(tr) = t.trace {
            out.trace
                .get_or_insert_with(|| Trace::with_capacity(0))
                .absorb(tr, i as u32 + 1, Trace::ROOT);
        }
    }
    out
}
