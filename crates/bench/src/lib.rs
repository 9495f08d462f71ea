//! Benchmark harness regenerating every table and figure of Michael
//! (PLDI 2004) §4.
//!
//! Binaries (see DESIGN.md's experiment index):
//!
//! * `table1` — Table 1, contention-free speedup over libc malloc.
//! * `fig8`   — Figure 8(a–h), speedup vs thread count.
//! * `space`  — §4.2.5, maximum space used per allocator.
//! * `ablation` — §4.2.4 one heap vs per-CPU heaps (U1), credit
//!   batching (A2).
//!
//! Criterion micro-benches `latency` and `scalability` cover the
//! §4.2.1 latency discussion (including the lock-pair comparison).
//!
//! The registry hands out allocators as `Arc<dyn RawMalloc>` so each
//! workload binary treats all four implementations identically, the way
//! the paper swaps `malloc` shared libraries under one benchmark binary.

pub mod registry;
pub mod sweep;
pub mod table;

pub use registry::{make_allocator, AllocatorKind, DynAlloc};
pub use sweep::{run_workload, Scale, Workload};

/// Runs `w` once on an instrumented lock-free allocator and returns a
/// one-line JSON record embedding the full telemetry snapshot — the
/// payload behind the binaries' `--stats-json FILE` flag.
#[cfg(feature = "stats")]
pub fn stats_json_record(
    bench: &str,
    w: Workload,
    heaps: usize,
    threads: usize,
    scale: Scale,
) -> String {
    let (alloc, lf) = registry::make_lf_instrumented(heaps);
    let r = run_workload(w, alloc, threads, scale);
    // Headline latency percentiles and the fragmentation ratio are
    // lifted to the top level so plots and `lfstat diff` don't have to
    // dig into the embedded snapshot; the full per-path histograms stay
    // inside `stats.latency` / `stats.fragmentation`.
    let snap = lf.stats();
    let m = snap.latency.malloc_all();
    format!(
        "{{\"bench\":\"{}\",\"workload\":\"{}\",\"threads\":{},\"ops\":{},\"ns_per_op\":{:.1},\
         \"p50_malloc_ns\":{},\"p99_malloc_ns\":{},\"p999_malloc_ns\":{},\
         \"external_frag_permille\":{},\"stats\":{}}}",
        bench,
        w.label(),
        threads,
        r.ops,
        r.ns_per_op(),
        m.percentile(0.50),
        m.percentile(0.99),
        m.percentile(0.999),
        snap.fragmentation.external_frag_permille(),
        snap.to_json()
    )
}

/// Appends newline-terminated `records` to `path` (creating it), or
/// aborts with a rebuild hint when the `stats` feature is off.
pub fn write_stats_json(path: &str, records: &[String]) {
    #[cfg(feature = "stats")]
    {
        let mut body = records.join("\n");
        body.push('\n');
        std::fs::write(path, body)
            .unwrap_or_else(|e| panic!("writing --stats-json file {path}: {e}"));
        eprintln!("wrote {} telemetry record(s) to {path}", records.len());
    }
    #[cfg(not(feature = "stats"))]
    {
        let _ = (path, records);
        eprintln!("--stats-json requires a stats-enabled build:");
        eprintln!("    cargo run -p bench --features stats --bin ... -- --stats-json FILE");
        std::process::exit(2);
    }
}
