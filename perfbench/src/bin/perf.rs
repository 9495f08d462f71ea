//! `perf`: the benchmark's command line.
//!
//! * `perf --workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of output is the result (`BENCHMARK.json`'s
//!   contract). `--trace 0` measures the end-to-end metrics, `--trace 1` the
//!   per-layer ledger.
//! * `perf --seed N [--trace] [--out FILE]` — the full record: every
//!   workload, each run in a child process of its own (so peak RSS and
//!   set-up time are per workload), three interleaved rounds.
//! * `perf --compare A.json B.json` — judges record B against record A.

use perfbench::json::{self, Value};
use perfbench::measure::{self, Measured, Opts};
use perfbench::record;
use perfbench::spec::{per_workload, unit_of, END_TO_END, FAIL_RATIO, PER_LAYER};
use perfbench::workloads::{Tally, Workload};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

const USAGE: &str = "usage:
  perf --workload <name> --seed <u64> --seconds <n> --trace <0|1> [--smoke] [--trace-out FILE]
  perf --seed <u64> [--trace] [--seconds <n>] [--smoke] [--out FILE] [--trace-out FILE]
  perf --compare A.json B.json";

/// Rounds of the full record; a metric's value is the median of the rounds.
const ROUNDS: usize = 3;
/// Seconds each child measures in the full record, untraced and traced: the
/// untraced record takes about 140 s, the traced one about 100 s. Three
/// seconds a child made the 90 s the issue asked for, but on the reference
/// host a round that short too often sat inside one slow spell, and its two
/// quiet neighbours then read as a spread wider than the bound.
const RECORD_SECONDS: (f64, f64) = (5.0, 12.0);

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Hidden: set up the workload, print `setup_s attempted failed`, exit.
    setup_only: bool,
    /// Hidden: print the 8-byte pair's ns and exit (the observer probe runs
    /// this on the `stats` build).
    probe_pair8: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--probe-pair8" => {
                a.probe_pair8 = Some(
                    value("seconds")?
                        .parse()
                        .map_err(|e| format!("{flag}: {e}"))?,
                )
            }
            "--out" => a.out = Some(value("a file")?.into()),
            "--trace-out" => a.trace_out = Some(value("a file")?.into()),
            "--compare" => {
                a.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--smoke" => a.smoke = true,
            "--setup-only" => a.setup_only = true,
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                a.trace = match it.next_if(|v| v == "0" || v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 600.0)) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(a)
}

/// Turns address-space randomisation off for this process tree by setting
/// the personality flag and starting over. With it on, peak RSS of one
/// binary on one input varies by 6 % from run to run; with it off it
/// repeats to the KiB. Where the flag cannot be set the run goes on as is.
fn without_aslr() {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn personality(persona: core::ffi::c_ulong) -> core::ffi::c_int;
    }
    const QUERY: core::ffi::c_ulong = 0xffff_ffff;
    const ADDR_NO_RANDOMIZE: core::ffi::c_ulong = 0x004_0000;
    // SAFETY: `personality` only reads and sets a per-process flag word.
    let current = unsafe { personality(QUERY) };
    if current < 0 || current as core::ffi::c_ulong & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above.
    if unsafe { personality(current as core::ffi::c_ulong | ADDR_NO_RANDOMIZE) } < 0 {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // `exec` only returns on failure; then this process just carries on.
        let _ = Command::new(exe).args(std::env::args_os().skip(1)).exec();
    }
}

fn main() -> ExitCode {
    without_aslr();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let done = if let Some(seconds) = args.probe_pair8 {
        println!(
            "{}",
            perfbench::probes::pair8_ns(Duration::from_secs_f64(seconds))
        );
        Ok(())
    } else if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if let Some(name) = &args.workload {
        one_run(name, &args)
    } else {
        full_record(&args)
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn this_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

fn write_file(path: &PathBuf, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// One run of one workload. Prints the run's detail, then the result line.
fn one_run(name: &str, args: &Args) -> Result<(), String> {
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let o = Opts {
        seed: args.seed,
        seconds: args.seconds.unwrap_or(10.0),
        smoke: args.smoke,
    };
    if args.setup_only {
        let (setup_s, t) = measure::setup_only(w, &o);
        println!("{setup_s} {} {}", t.attempted, t.failed);
        return Ok(());
    }
    let Measured {
        tally,
        metrics,
        detail,
        trace,
    } = if args.trace {
        let mut m = measure::per_layer(w, &o);
        // One diagnostic ratio that needs cargo and the sources at hand; the
        // ledger's other metrics do not, and are kept when it cannot be had.
        let ratio = stats_pair8_ratio(&o).unwrap_or_else(|e| {
            eprintln!("perf: observer.stats_pair8_ratio not measured: {e}");
            f64::NAN
        });
        m.metrics.push(("observer.stats_pair8_ratio", ratio));
        m
    } else {
        measure::end_to_end(w, &o, &mut |n| setups_in_children(w, &o, n))?
    };
    if let (Some(path), Some(trace)) = (&args.trace_out, &trace) {
        write_file(path, &trace.to_json().to_string())?;
    }
    // The result line lists exactly the metrics `BENCHMARK.json` declares for
    // this kind of run, in its order.
    let declared: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    let metrics = declared.into_iter().map(|name| {
        let value = metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        (
            name,
            Value::obj([
                ("value", Value::from(value)),
                ("unit", Value::from(unit_of(name))),
            ]),
        )
    });
    println!("{detail}");
    println!(
        "{}",
        Value::obj([
            ("correct", Value::from(tally.failed == 0)),
            ("attempted", Value::from(tally.attempted)),
            ("failed", Value::from(tally.failed)),
            ("metrics", Value::obj(metrics)),
        ])
    );
    Ok(())
}

/// Sets the workload up `n` more times, each in a fresh child process.
fn setups_in_children(w: Workload, o: &Opts, n: usize) -> Result<Vec<(f64, Tally)>, String> {
    let exe = this_exe()?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &o.seed.to_string(),
                    "--setup-only",
                ])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("starting a set-up run: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let fields: Vec<f64> = text
                .split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect();
            match (out.status.success(), fields.as_slice()) {
                (true, [setup_s, attempted, failed]) => Ok((
                    *setup_s,
                    Tally {
                        attempted: *attempted as u64,
                        failed: *failed as u64,
                    },
                )),
                _ => Err(format!("a set-up run failed ({})", out.status)),
            }
        })
        .collect()
}

/// Builds this package once more with telemetry compiled into the allocator
/// and returns that build's 8-byte pair over this build's, the observer
/// effect the roadmap budgets at 1.10. The build happens on the first traced
/// run in a checkout, before any timing of this function's; later runs find
/// it made.
fn stats_pair8_ratio(o: &Opts) -> Result<f64, String> {
    let exe = this_exe()?;
    // <target>/<profile>/perf: the second build goes beside the profile
    // directory, never over the binary that is running.
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("perf binary is not inside a target directory")?
        .join("observer");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let built = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--features",
            "stats",
            "--bin",
            "perf",
        ])
        .args([
            "--manifest-path",
            concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"),
        ])
        .arg("--target-dir")
        .arg(&target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running {}: {e}", cargo.to_string_lossy()))?;
    if !built.success() {
        return Err(format!("the stats-feature build failed ({built})"));
    }
    let seconds = if o.smoke { 0.0 } else { o.seconds * 0.05 };
    let budget = Duration::from_secs_f64(seconds);
    // This build's pair before and after the other's, so drift during the
    // child's run falls on both sides.
    let before = perfbench::probes::pair8_ns(budget / 2);
    let out = Command::new(target.join("release").join("perf"))
        .args(["--probe-pair8", &seconds.to_string()])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("running the stats-feature build: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the stats-feature build's run failed ({})",
            out.status
        ));
    }
    let after = perfbench::probes::pair8_ns(budget / 2);
    let with_stats: f64 = String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|e| format!("the stats-feature build printed no number: {e}"))?;
    Ok(with_stats / ((before + after) / 2.0))
}

/// A child's detail line and result line.
struct ChildRun {
    detail: Value,
    result: Value,
    tally: Tally,
}

/// Runs one workload in a child process (this same binary).
fn child(
    w: Workload,
    args: &Args,
    seconds: f64,
    trace_out: Option<&PathBuf>,
) -> Result<ChildRun, String> {
    let exe = this_exe()?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        w.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if args.trace { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting the {} run: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("the {} run failed ({})", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = json::parse(lines.next().unwrap_or(""))?;
    let detail = json::parse(lines.next().unwrap_or(""))?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Value::as_f64)
            .map(|n| n as u64)
            .ok_or_else(|| format!("the {} run reported no {key}", w.name()))
    };
    let tally = Tally {
        attempted: count("attempted")?,
        failed: count("failed")?,
    };
    if tally.attempted == 0 {
        return Err(format!("the {} run attempted nothing", w.name()));
    }
    Ok(ChildRun {
        detail,
        result,
        tally,
    })
}

fn metric_value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN)
}

/// Every workload, each run in its own child; prints (and writes) one JSON
/// document with every metric by name and unit.
fn full_record(args: &Args) -> Result<(), String> {
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|(m, _)| m.name).collect()
    };
    let (rounds, default_seconds) = if args.trace {
        (1, RECORD_SECONDS.1)
    } else {
        (ROUNDS, RECORD_SECONDS.0)
    };
    let seconds = args.seconds.unwrap_or(default_seconds);

    // Interleaved: w1..w6, w1..w6, w1..w6, so slow drift of the host lands
    // on every workload alike.
    let mut runs: Vec<Vec<ChildRun>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..rounds {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            eprintln!("perf: round {}/{rounds} {}", round + 1, w.name());
            // One trace file per workload: `FILE.<workload>`.
            let trace_out = args.trace_out.as_ref().map(|p| {
                let mut s = p.clone().into_os_string();
                s.push(format!(".{}", w.name()));
                PathBuf::from(s)
            });
            runs[i].push(child(w, args, seconds, trace_out.as_ref())?);
        }
    }

    let mut workloads = Vec::new();
    for (w, runs) in Workload::ALL.into_iter().zip(&runs) {
        let over = |f: &dyn Fn(&ChildRun) -> f64| runs.iter().map(f).collect::<Vec<f64>>();
        let mut metrics: Vec<(&str, Value)> = names
            .iter()
            .filter(|n| !args.trace || per_workload(n))
            .map(|n| {
                (
                    *n,
                    record::over_rounds(n, &over(&|r| metric_value(&r.result, n))),
                )
            })
            .collect();
        let tallies: Vec<Tally> = runs.iter().map(|r| r.tally).collect();
        metrics.push((FAIL_RATIO.name, record::fail_ratio(&tallies)));
        let total = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>();
        workloads.push((
            w.name(),
            Value::obj([
                ("why", Value::from(w.why())),
                ("threads", Value::from(w.threads() as u64)),
                ("attempted", Value::from(total(|t| t.attempted))),
                ("failed", Value::from(total(|t| t.failed))),
                ("metrics", Value::obj(metrics)),
                (
                    "detail",
                    runs.last().map_or(Value::Null, |r| r.detail.clone()),
                ),
            ]),
        ));
    }

    let mut doc = vec![
        ("schema", Value::from("perfbench-1")),
        (
            "mode",
            Value::from(if args.trace { "traced" } else { "untraced" }),
        ),
        ("host", record::host(args.seed)),
        ("rounds", Value::from(rounds as u64)),
        ("seconds_per_run", Value::from(seconds)),
        ("smoke", Value::from(args.smoke)),
    ];
    if args.trace {
        // Probe metrics do not depend on the workload: each child measured
        // them once, so the record takes the median over the children.
        let layers = names.iter().filter(|n| !per_workload(n)).map(|n| {
            let each: Vec<f64> = runs
                .iter()
                .flatten()
                .map(|r| metric_value(&r.result, n))
                .collect();
            (*n, record::over_rounds(n, &each))
        });
        doc.push(("layers", Value::obj(layers)));
    }
    doc.push(("workloads", Value::obj(workloads)));
    let text = Value::obj(doc).pretty();
    if let Some(path) = &args.out {
        write_file(path, &text)?;
    }
    print!("{text}");
    // The record is out, with what failed or is missing in it (a value that
    // is not a number reads null); the exit code says so too.
    let failed: u64 = runs.iter().flatten().map(|r| r.tally.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} operations failed their output check"));
    }
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| {
            runs.iter()
                .flatten()
                .any(|r| metric_value(&r.result, n).is_nan())
        })
        .collect();
    if !missing.is_empty() {
        return Err(format!("not measured in every run: {}", missing.join(", ")));
    }
    Ok(())
}

fn compare(a: &PathBuf, b: &PathBuf) -> Result<(), String> {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))
            .and_then(|t| json::parse(&t))
    };
    let c = record::compare(&read(a)?, &read(b)?)?;
    print!("{}", c.table());
    if c.agrees() {
        Ok(())
    } else {
        Err("B is worse than A, or too noisy to tell, on at least one metric".into())
    }
}
