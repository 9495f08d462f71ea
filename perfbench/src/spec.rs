//! The benchmark's vocabulary: metric names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root says the same thing; a test holds
//! the two together.

use crate::workloads::Workload;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

/// The share of the parent's value by which a metric may worsen before a
/// change is rejected. This is the only table of bounds. Two protocols read
/// it, and they do not see the same noise:
///
/// * the driver compares medians of single runs, and `BENCHMARK.json`, which
///   has room for one bound a metric, carries `run`. In a bad hour on the
///   reference host (a shared 2-vCPU VM) whole 15 s runs sit inside a 30 %
///   slower spell, and ten runs of one binary then spread 11 to 25 % between
///   their quartiles where in a quiet hour they spread 2 to 4 %;
/// * `--compare` judges a record, three interleaved rounds of every workload,
///   and calls a metric `unresolved` when the rounds disagree by more than
///   the bound, so its bounds can stay at what a quiet hour repeats within:
///   4 % for one-thread timings, 12 % for two-thread ones. One-thread runs
///   map the same hyperblocks every time; two-thread runs may differ by one
///   1 MiB hyperblock.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bounds {
    pub run: f64,
    pub record_1t: f64,
    pub record_2t: f64,
}

impl Bounds {
    const fn all(b: f64) -> Bounds {
        Bounds {
            run: b,
            record_1t: b,
            record_2t: b,
        }
    }

    /// The bound on a record's value for workload `w`.
    pub fn on_record(self, w: Workload) -> f64 {
        if w.threads() == 1 {
            self.record_1t
        } else {
            self.record_2t
        }
    }
}

/// What a user of the allocator sees.
pub const END_TO_END: [(Metric, Bounds); 4] = [
    (
        lower("op_ns", "ns"),
        Bounds {
            run: 0.25,
            record_1t: 0.05,
            record_2t: 0.12,
        },
    ),
    (
        lower("peak_os_bytes", "bytes"),
        Bounds {
            run: 0.10,
            record_1t: 0.0,
            record_2t: 0.10,
        },
    ),
    (lower("peak_rss_kib", "KiB"), Bounds::all(0.12)),
    (lower("setup_s", "s"), Bounds::all(0.25)),
];

/// The fifth end-to-end number. It must be 0, so it cannot carry a relative
/// bound: a run's result line reports it as `attempted` and `failed`, records
/// carry it by this name, and any increase is a regression.
pub const FAIL_RATIO: Metric = lower("fail_ratio", "ratio");

/// The bound `--compare` applies to `metric` on `w`. `fail_ratio`, the one
/// metric not in the table, has none: any failure is a regression.
pub fn bound(metric: &str, w: Workload) -> f64 {
    END_TO_END
        .iter()
        .find(|(m, _)| m.name == metric)
        .map_or(0.0, |(_, b)| b.on_record(w))
}

/// Single-layer numbers from the traced run. No bounds: they explain an
/// end-to-end change, they do not gate one.
pub const PER_LAYER: [Metric; 38] = [
    lower("yardstick.cas_ns", "ns"),
    lower("yardstick.lock_pair_ns", "ns"),
    lower("yardstick.tls_ns", "ns"),
    lower("yardstick.clock_ns", "ns"),
    lower("instance.pair8_ns", "ns"),
    lower("instance.pair64_ns", "ns"),
    lower("instance.pair1024_ns", "ns"),
    lower("instance.pair8000_ns", "ns"),
    lower("instance.malloc8_ns", "ns"),
    lower("instance.free8_ns", "ns"),
    lower("instance.non_cas_ns", "ns"),
    lower("instance.usable_size_ns", "ns"),
    lower("size_classes.class_index_ns", "ns"),
    lower("malloc-api.dyn_overhead_ns", "ns"),
    lower("heap.private_pair8_ns", "ns"),
    lower("heap.shared_pair8_ns", "ns"),
    lower("free_impl.remote_free8_ns", "ns"),
    lower("free_impl.remote_penalty_ns", "ns"),
    lower("alloc.sb_cycle_ns", "ns"),
    lower("alloc.sb_cycle_share", "ratio"),
    lower("pool.alloc_dealloc_ns", "ns"),
    lower("pool.hyperblock_ns", "ns"),
    lower("source.map_unmap_ns.64k", "ns"),
    lower("source.map_unmap_ns.1m", "ns"),
    lower("large.pair_ns.64k", "ns"),
    lower("large.pair_ns.1m", "ns"),
    lower("large.overhead_ns.64k", "ns"),
    lower("source.os_allocs", "count"),
    lower("source.os_frees", "count"),
    lower("pool.hyperblocks", "count"),
    lower("instance.malloc_call_ns_p50", "ns"),
    lower("instance.malloc_call_ns_p99", "ns"),
    lower("instance.free_call_ns_p50", "ns"),
    lower("instance.free_call_ns_p99", "ns"),
    lower("harness.op_ns_p90", "ns"),
    lower("harness.round_spread", "ratio"),
    lower("harness.trace_overhead_ratio", "ratio"),
    lower("observer.stats_pair8_ratio", "ratio"),
];

/// The per-layer metrics that describe the workload of the traced run; the
/// rest come from the probes and are the same whatever the workload.
pub fn per_workload(name: &str) -> bool {
    name.starts_with("harness.")
        || name.contains("_call_ns_")
        || matches!(
            name,
            "source.os_allocs" | "source.os_frees" | "pool.hyperblocks"
        )
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|(m, _)| m)
        .chain(&PER_LAYER)
        .chain([&FAIL_RATIO])
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}
