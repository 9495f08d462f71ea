//! Ablations of the design choices DESIGN.md calls out:
//!
//! * `uniproc` — **U1 / §4.2.4**: one heap vs per-CPU heaps; the id
//!   lookup is skipped whenever there is one heap. The paper reports a
//!   "15% increase in contention-free speedup on Linux scalability".
//!
//! (A1, FIFO vs LIFO vs ordered-list partial lists, went with the
//! organizations it compared: the allocator keeps one, DESIGN.md §17.5.
//! A2, the MAXCREDITS sweep, went with the credit cap: the allocator
//! holds the paper's 64. The last table of each is a dated row in
//! EXPERIMENTS.md.)
//!
//! Usage: `ablation [uniproc|all] [--scale F]`.

use bench::table::Table;
use bench::{run_workload, Scale, Workload};
use lfmalloc::{Config, LfMalloc};
use std::sync::Arc;
use workloads::WorkloadResult;

fn run_lf(config: Config, scale: Scale) -> WorkloadResult {
    // Best of three fresh-instance runs (scheduler-noise defense).
    let mut best: Option<WorkloadResult> = None;
    for _ in 0..3 {
        let alloc: bench::DynAlloc = Arc::new(LfMalloc::with_config(config));
        let r = run_workload(Workload::LinuxScalability, alloc, 1, scale);
        best = Some(match best {
            Some(b) if b.throughput() >= r.throughput() => b,
            _ => r,
        });
    }
    best.unwrap()
}

fn uniproc(scale: Scale) {
    println!("U1 (§4.2.4): one heap vs per-CPU heaps; the id lookup is skipped whenever there is one heap");
    let multi = run_lf(Config::detect(), scale);
    let single = run_lf(Config::with_heaps(1), scale);
    let gain = (single.throughput() / multi.throughput() - 1.0) * 100.0;
    let mut t = Table::new(["config", "ns/op", "throughput (pairs/s)"]);
    t.row(["per-cpu heaps", &format!("{:.0}", multi.ns_per_op()), &format!("{:.0}", multi.throughput())]);
    t.row(["single heap", &format!("{:.0}", single.ns_per_op()), &format!("{:.0}", single.throughput())]);
    println!("{}", t.render());
    println!("gain: {gain:+.1}% (paper: +15% contention-free speedup on POWER3)\n");
}

fn main() {
    let mut scale = 1.0f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args[i].parse().expect("--scale takes a float");
            }
            "uniproc" | "all" => {}
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    uniproc(Scale(scale));
}
