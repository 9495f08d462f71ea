//! `lfstat` — offline viewer for `--stats-json` records and the live
//! profiler.
//!
//! ```text
//! cargo run --release --features stats,profile --example lfstat            # demo
//! cargo run --release --features stats --example lfstat -- print FILE     # pretty-print
//! cargo run --release --features stats --example lfstat -- diff A B       # compare runs
//! cargo run --release --features stats,profile --example lfstat -- top 5 FILE
//! ```
//!
//! `print` renders one stats-JSON record (the last line of
//! `stats_demo`, a bench `--stats-json` record, or `stats().to_json()`)
//! as the operator-facing summary: op counts, latency percentiles per
//! path, fragmentation, health. `diff` subtracts record A from record B
//! counter-by-counter — take a snapshot before and after a workload
//! phase and diff them to see only that phase. `top N` ranks the
//! embedded retention profile's allocation sites by estimated live
//! bytes. `FILE` of `-` reads stdin; records may be surrounded by other
//! output lines (the last JSON object line wins).
//!
//! Records are read with the workspace's one JSON reader
//! (`malloc_api::json`), and the counter, health and latency rows of
//! `print` and `diff` come from the allocator's public schema tables
//! (`lfmalloc::stats::CLASS_COUNTERS`, `INSTANCE_COUNTERS`,
//! `LATENCY_PATHS`, `lfmalloc::HEALTH_ROWS`): a row added there shows up
//! here with no edit.

use lfmalloc::stats::{CLASS_COUNTERS, INSTANCE_COUNTERS, LATENCY_PATHS};
use lfmalloc::HEALTH_ROWS;
use lfmalloc_repro::prelude::*;
use malloc_api::json::{self, Json};
use std::sync::Arc;

/// Loads the last JSON-object line of `path` (`-` = stdin): stats-JSON
/// records are emitted as the final stdout line by convention, so demo
/// and bench output can be piped straight in.
fn load_record(path: &str) -> Json {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s).expect("read stdin");
        s
    } else {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("lfstat: cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let line = text
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| {
            eprintln!("lfstat: no JSON object line in {path}");
            std::process::exit(2);
        });
    // Bench records wrap the allocator stats: unwrap a top-level
    // "stats" field when present.
    let v = json::parse(line.trim()).unwrap_or_else(|e| {
        eprintln!("lfstat: {path}: {e}");
        std::process::exit(2);
    });
    match v.get("stats") {
        Some(inner @ Json::Obj(_)) => inner.clone(),
        _ => v,
    }
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn human_bytes(n: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = n;
    let mut u = 0;
    while v.abs() >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{n:.0} B")
    } else {
        format!("{v:.1} {}", UNITS[u])
    }
}

fn human_nanos(n: f64) -> String {
    if n >= 1e9 {
        format!("{:.2} s", n / 1e9)
    } else if n >= 1e6 {
        format!("{:.2} ms", n / 1e6)
    } else if n >= 1e3 {
        format!("{:.2} us", n / 1e3)
    } else {
        format!("{n:.0} ns")
    }
}

fn print_record(rec: &Json) {
    let t = rec.get("totals").cloned().unwrap_or(Json::Obj(vec![]));
    // `num` reads an absent key as 0, so records from before the
    // magazine counters still print.
    let mallocs = t.num("malloc_cached")
        + t.num("malloc_fast")
        + t.num("malloc_slow")
        + t.num("malloc_newsb");
    let frees = t.num("free_cached")
        + t.num("free_outbox")
        + t.num("free_local")
        + t.num("free_remote");
    println!("== operations ==");
    println!(
        "  small mallocs {:>14}   cached {:.1}%  fast {:.1}%  partial {:.1}%  new-sb {:.1}%",
        mallocs as u64,
        100.0 * t.num("malloc_cached") / mallocs.max(1.0),
        100.0 * t.num("malloc_fast") / mallocs.max(1.0),
        100.0 * t.num("malloc_slow") / mallocs.max(1.0),
        100.0 * t.num("malloc_newsb") / mallocs.max(1.0),
    );
    println!(
        "  small frees   {:>14}   cached {:.1}%  outbox {:.1}%  local {:.1}%  remote {:.1}%  (teardown {})",
        frees as u64,
        100.0 * t.num("free_cached") / frees.max(1.0),
        100.0 * t.num("free_outbox") / frees.max(1.0),
        100.0 * t.num("free_local") / frees.max(1.0),
        100.0 * t.num("free_remote") / frees.max(1.0),
        t.u64("free_teardown"),
    );
    println!("  every per-class counter, all classes, and every instance-wide one:");
    for c in CLASS_COUNTERS {
        println!("    {:<18} {:>14}  {}", c.name, rec.u64(c.key), c.help);
    }
    for c in INSTANCE_COUNTERS {
        println!("    {:<18} {:>14}  {}", c.name, rec.u64(c.key), c.help);
    }
    if rec.get("health").is_some() {
        println!("\n== health ==");
        // A row the record lacks (an older writer's) is skipped; `null` is
        // a reading not taken yet.
        for r in HEALTH_ROWS {
            let v = match rec.get(r.key) {
                Some(Json::Num(n)) => (*n as u64).to_string(),
                Some(_) => "none".into(),
                None => continue,
            };
            println!("    {:<22} {v:>14}  {}", r.name, r.help);
        }
    }

    if rec.get("latency").is_some() {
        println!("\n== latency ==");
        println!(
            "  {:<13} {:>12} {:>10} {:>10} {:>10} {:>10}",
            "path", "count", "p50", "p90", "p99", "p99.9"
        );
        for p in LATENCY_PATHS {
            let count = rec.u64(&format!("{}.count", p.key));
            if count == 0 {
                continue;
            }
            println!(
                "  {:<13} {:>12} {:>10} {:>10} {:>10} {:>10}",
                p.name,
                count,
                human_nanos(rec.num(&format!("{}.p50", p.key))),
                human_nanos(rec.num(&format!("{}.p90", p.key))),
                human_nanos(rec.num(&format!("{}.p99", p.key))),
                human_nanos(rec.num(&format!("{}.p999", p.key))),
            );
        }
    }

    if rec.get("fragmentation").is_some() {
        println!("\n== fragmentation ==");
        println!(
            "  small heap: {} committed, {} live, external {}‰",
            human_bytes(rec.num("fragmentation.small_committed_bytes")),
            human_bytes(rec.num("fragmentation.small_live_bytes")),
            rec.u64("fragmentation.external_frag_permille"),
        );
        let mut classes: Vec<&Json> = rec.arr("fragmentation.classes").iter().collect();
        classes.sort_by(|a, b| b.u64("committed_bytes").cmp(&a.u64("committed_bytes")));
        for c in classes.iter().take(5) {
            println!(
                "    class {:>3} (size {:>6}): {:>10} committed, {:>10} live, {:>4}‰",
                c.u64("class"),
                c.u64("size"),
                human_bytes(c.num("committed_bytes")),
                human_bytes(c.num("live_bytes")),
                c.u64("frag_permille"),
            );
        }
    }

    println!(
        "\n== footprint ==\n  os live {}   peak {}   reconcile ok: {}",
        human_bytes(rec.num("os.live_bytes")),
        human_bytes(rec.num("os.peak_bytes")),
        matches!(rec.get("reconcile.ok"), Some(Json::Bool(true))),
    );

    if rec.get("profile").is_some() {
        println!(
            "\n== retention profile ==\n  stride {}   {} sampled, {} freed, {} live \
             (≈{} live), internal frag {}‰",
            human_bytes(rec.num("profile.stride_bytes")),
            rec.u64("profile.samples_taken"),
            rec.u64("profile.sampled_frees"),
            rec.u64("profile.live_samples"),
            human_bytes(rec.num("profile.live_bytes_estimate")),
            rec.u64("profile.internal_frag_permille"),
        );
        print_sites(rec, 5);
    }
}

fn print_sites(rec: &Json, n: usize) {
    let sites = rec.arr("profile.sites");
    if sites.is_empty() {
        println!("  (no live samples)");
        return;
    }
    println!(
        "  {:<52} {:>12} {:>8} {:>10}",
        "site", "live bytes", "samples", "oldest"
    );
    for s in sites.iter().take(n) {
        println!(
            "  {:<52} {:>12} {:>8} {:>10}",
            s.str("site"),
            human_bytes(s.num("live_bytes")),
            s.u64("live_samples"),
            human_nanos(s.num("oldest_age_nanos")),
        );
    }
}

fn print_diff(a: &Json, b: &Json) {
    println!("{:<34} {:>14} {:>14} {:>14}", "counter", "before", "after", "delta");
    let counters = CLASS_COUNTERS.iter().map(|c| (c.name, c.key));
    let instance = INSTANCE_COUNTERS.iter().map(|c| (c.name, c.key));
    let health = HEALTH_ROWS.iter().map(|c| (c.name, c.key));
    let rest = [
        ("os live bytes", "os.live_bytes"),
        ("os peak bytes", "os.peak_bytes"),
        ("external frag permille", "fragmentation.external_frag_permille"),
    ];
    let p99 =
        LATENCY_PATHS.iter().map(|p| (format!("p99 {} (ns)", p.name), format!("{}.p99", p.key)));
    let rows = counters
        .chain(instance)
        .chain(health)
        .chain(rest)
        .map(|(l, p)| (l.to_string(), p.to_string()))
        .chain(p99);
    for (label, path) in rows {
        let (va, vb) = (a.num(&path), b.num(&path));
        if va == 0.0 && vb == 0.0 {
            continue;
        }
        println!(
            "{:<34} {:>14} {:>14} {:>+14}",
            label,
            va as i64,
            vb as i64,
            (vb - va) as i64
        );
    }
}

// ---------------------------------------------------------------------
// Demo workload
// ---------------------------------------------------------------------

/// A few distinct allocation sites for the demo's retention report; one
/// of them leaks.
fn demo_workload(a: &Arc<LfMalloc>) -> Vec<usize> {
    let mut leaked = Vec::new();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..4 {
            let a = Arc::clone(a);
            handles.push(s.spawn(move || {
                let mut kept = Vec::new();
                for i in 0..200_000usize {
                    // Site A: short-lived mixed sizes, freed instantly.
                    let p = unsafe { a.malloc(16 + (i * 7) % 480) };
                    assert!(!p.is_null());
                    unsafe { a.free(p) };
                    if i % 10 == t {
                        // Site B: retained for the whole run — the
                        // retention report should rank this line first.
                        let q = unsafe { a.malloc(256) };
                        assert!(!q.is_null());
                        kept.push(q as usize);
                    }
                }
                kept
            }));
        }
        for h in handles {
            leaked.extend(h.join().unwrap());
        }
    });
    leaked
}

fn demo() {
    let a = Arc::new(LfMalloc::with_config(Config::with_heaps(4)));
    let leaked = demo_workload(&a);
    a.as_ref().maintain(MaintenanceBudget::light());

    let mut out = std::io::stdout();
    a.as_ref().dump_stats(&mut out).expect("stdout");

    #[cfg(feature = "profile")]
    {
        println!("\nTop retention sites (live sampled bytes):");
        let report = a.as_ref().retention_report();
        for r in report.iter().take(5) {
            println!(
                "  {:<52} {:>10} over {} samples ({} threads)",
                r.site.to_string(),
                r.live_bytes,
                r.live_samples,
                r.threads
            );
        }
    }

    // The OpenMetrics exposition, checked before printing a preview.
    let text = a.as_ref().render_openmetrics();
    lfmalloc::metrics::check_openmetrics(&text).expect("well-formed exposition");
    println!(
        "\nOpenMetrics exposition: {} bytes, {} samples (run with serve_metrics() to scrape)",
        text.len(),
        text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).count()
    );

    // Capture the record while the retained set is still live so the
    // embedded profile carries the demo's retention sites, then clean
    // up and print it last, by convention.
    let record = a.as_ref().stats().to_json();

    // With forensics on, also write a post-mortem heap dump while the
    // leak is live — `lfstat analyze <path>` should rank site B first.
    #[cfg(feature = "forensics")]
    {
        let path = std::env::temp_dir().join("lfstat-demo.heapdump.json");
        a.as_ref().dump_heap(&path).expect("heap dump");
        println!("\nHeap dump written to {} (try: lfstat analyze {})", path.display(), path.display());
    }

    for p in leaked {
        unsafe { a.free(p as *mut u8) };
    }
    println!();
    println!("{record}");
}

/// Reads a whole dump file (`-` for stdin). Heap dumps are one JSON
/// document, not a JSON-lines record, so this does not reuse
/// `load_record`'s last-line convention.
#[cfg(feature = "forensics")]
fn load_dump(path: &str) -> String {
    use std::io::Read;
    let mut text = String::new();
    if path == "-" {
        std::io::stdin().read_to_string(&mut text).expect("read stdin");
    } else {
        text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| { eprintln!("lfstat: {path}: {e}"); std::process::exit(2) });
    }
    text
}

fn usage() -> ! {
    eprintln!(
        "usage: lfstat                      run the demo workload\n\
         \x20      lfstat print FILE           pretty-print a stats-JSON record\n\
         \x20      lfstat diff A B             diff two stats-JSON records\n\
         \x20      lfstat top N FILE           top-N retention sites\n\
         \x20      lfstat analyze DUMP         analyze a heap dump (forensics builds)\n\
         \x20      lfstat diff-heap A B        diff two heap dumps (forensics builds)\n\
         FILE may be `-` for stdin; the last JSON line of the file is used."
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>().as_slice() {
        [] | ["demo"] => demo(),
        ["print", file] => print_record(&load_record(file)),
        ["diff", a, b] => print_diff(&load_record(a), &load_record(b)),
        ["top", n, file] => {
            let n: usize = n.parse().unwrap_or_else(|_| usage());
            print_sites(&load_record(file), n);
        }
        #[cfg(feature = "forensics")]
        ["analyze", dump] => match lfmalloc::analyze_dump(&load_dump(dump)) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("lfstat: {e}");
                std::process::exit(1);
            }
        },
        #[cfg(feature = "forensics")]
        ["diff-heap", a, b] => match lfmalloc::diff_dumps(&load_dump(a), &load_dump(b)) {
            Ok(report) => println!("{report}"),
            Err(e) => {
                eprintln!("lfstat: {e}");
                std::process::exit(1);
            }
        },
        #[cfg(not(feature = "forensics"))]
        ["analyze", ..] | ["diff-heap", ..] => {
            eprintln!("lfstat: this build lacks heap-dump support; rebuild with --features forensics");
            std::process::exit(2);
        }
        _ => usage(),
    }
}
