//! Ablations of the design choices DESIGN.md calls out:
//!
//! * `uniproc` — **U1 / §4.2.4**: one heap vs per-CPU heaps; the id
//!   lookup is skipped whenever there is one heap. The paper reports a
//!   "15% increase in contention-free speedup on Linux scalability".
//! * `credits` — **A2 / §3.2.1-3.2.3**: how much the credits mechanism
//!   (batched reservations in the Active word) buys, by capping
//!   `MAXCREDITS`. With cap 1 every allocation that drains the Active
//!   word must touch the anchor — approximating a credit-free design.
//!
//! (A1, FIFO vs LIFO vs ordered-list partial lists, went with the
//! organizations it compared: the allocator keeps one, DESIGN.md §17.5;
//! its last table is a dated row in EXPERIMENTS.md.)
//!
//! Usage: `ablation [uniproc|credits|all] [--scale F] [--threads N]`.

use bench::table::Table;
use bench::{run_workload, Scale, Workload};
use lfmalloc::{Config, LfMalloc};
use std::sync::Arc;
use workloads::WorkloadResult;

fn run_lf(config: Config, w: Workload, threads: usize, scale: Scale) -> WorkloadResult {
    // Best of three fresh-instance runs (scheduler-noise defense).
    let mut best: Option<WorkloadResult> = None;
    for _ in 0..3 {
        let alloc: bench::DynAlloc = Arc::new(LfMalloc::with_config(config));
        let r = run_workload(w, alloc, threads, scale);
        best = Some(match best {
            Some(b) if b.throughput() >= r.throughput() => b,
            _ => r,
        });
    }
    best.unwrap()
}

fn uniproc(scale: Scale) {
    println!("U1 (§4.2.4): one heap vs per-CPU heaps; the id lookup is skipped whenever there is one heap");
    let multi = run_lf(Config::detect(), Workload::LinuxScalability, 1, scale);
    let single = run_lf(Config::with_heaps(1), Workload::LinuxScalability, 1, scale);
    let gain = (single.throughput() / multi.throughput() - 1.0) * 100.0;
    let mut t = Table::new(["config", "ns/op", "throughput (pairs/s)"]);
    t.row(["per-cpu heaps", &format!("{:.0}", multi.ns_per_op()), &format!("{:.0}", multi.throughput())]);
    t.row(["single heap", &format!("{:.0}", single.ns_per_op()), &format!("{:.0}", single.throughput())]);
    println!("{}", t.render());
    println!("gain: {gain:+.1}% (paper: +15% contention-free speedup on POWER3)\n");
}

fn credits(scale: Scale, threads: usize) {
    println!("A2: MAXCREDITS sweep — what credit batching buys");
    let mut t = Table::new([
        "max_credits".to_string(),
        "linux-scal 1T ns/op".to_string(),
        format!("threadtest {threads}T ops/s"),
    ]);
    for cap in [1u32, 2, 4, 8, 16, 32, 64] {
        let cfg = Config::with_heaps(threads).with_max_credits(cap);
        let ls = run_lf(cfg, Workload::LinuxScalability, 1, scale);
        let tt = run_lf(cfg, Workload::Threadtest, threads, scale);
        t.row([
            cap.to_string(),
            format!("{:.0}", ls.ns_per_op()),
            format!("{:.0}", tt.throughput()),
        ]);
    }
    println!("{}", t.render());
    println!("expected shape: higher caps amortize Anchor CASes over more allocations.\n");
}

fn main() {
    let mut which: Vec<String> = Vec::new();
    let mut scale = 1.0f64;
    let mut threads = 4usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args[i].parse().expect("--scale takes a float");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads takes an integer");
            }
            name @ ("uniproc" | "credits" | "all") => which.push(name.to_string()),
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = vec!["uniproc".into(), "credits".into()];
    }
    let scale = Scale(scale);
    for name in which {
        match name.as_str() {
            "uniproc" => uniproc(scale),
            "credits" => credits(scale, threads),
            _ => unreachable!(),
        }
    }
}
