//! Holds `perf` to `BENCHMARK.json`: the same workloads, the same metric
//! names, units, directions and bounds, and result lines of the agreed shape.
//! Runs `perf --smoke`, so `cargo test` covers the benchmark end to end.

use perfbench::json::{self, Value};
use perfbench::record;
use perfbench::spec::{END_TO_END, FAIL_RATIO, PER_LAYER};
use perfbench::workloads::Workload;
use std::path::Path;
use std::process::Command;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
        .unwrap()
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect()
}

fn keys(obj: &Value) -> Vec<String> {
    obj.as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn perf(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("perf starts");
    assert!(
        out.status.success(),
        "perf {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn manifest_says_what_the_code_says() {
    let m = manifest();
    let w = m.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(w.len(), Workload::ALL.len());
    for (entry, w) in w.iter().zip(Workload::ALL) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(w.name()));
        assert_eq!(entry.get("why").unwrap().as_str(), Some(w.why()));
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }
    let e2e = m.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, (metric, bounds)) in e2e.iter().zip(END_TO_END) {
        // One table of bounds: the manifest carries its single-run column.
        let bound = bounds.run;
        assert_eq!(entry.get("name").unwrap().as_str(), Some(metric.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
        assert_eq!(entry.get("better").unwrap().as_str(), Some(metric.better));
        assert_eq!(entry.get("bound").unwrap().as_f64(), Some(bound));
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let layers = m.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (entry, metric) in layers.iter().zip(PER_LAYER) {
        assert_eq!(entry.get("name").unwrap().as_str(), Some(metric.name));
        assert_eq!(entry.get("unit").unwrap().as_str(), Some(metric.unit));
        assert_eq!(entry.get("better").unwrap().as_str(), Some(metric.better));
    }
    let all: Vec<String> = [
        names(m.get("workloads").unwrap()),
        names(&e2e_list(&m)),
        names(m.get("per_layer").unwrap()),
    ]
    .concat();
    for n in &all {
        assert!(
            n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {n}"
        );
        assert!(n.chars().next().unwrap().is_ascii_alphanumeric());
        assert_eq!(
            all.iter().filter(|o| *o == n).count(),
            1,
            "{n} is used twice"
        );
    }
    assert!(names(&e2e_list(&m)).contains(&"setup_s".to_string()));
}

fn e2e_list(m: &Value) -> Value {
    m.get("end_to_end").unwrap().clone()
}

/// The result line of one run: exactly four keys, whole-number counts, and
/// exactly the metrics the manifest lists for that kind of run.
fn check_result_line(stdout: &str, expected: &[String], units: &Value) {
    let r = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&r), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(r.get("correct"), Some(&Value::Bool(true)));
    assert!(r.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
    assert_eq!(r.get("failed").unwrap().as_f64(), Some(0.0));
    let metrics = r.get("metrics").unwrap();
    assert_eq!(&keys(metrics), expected);
    for (entry, (name, m)) in units
        .as_arr()
        .unwrap()
        .iter()
        .zip(metrics.as_obj().unwrap())
    {
        assert_eq!(keys(m), ["value", "unit"], "{name}");
        assert!(
            m.get("value").unwrap().as_f64().is_some(),
            "{name} is not a number"
        );
        assert_eq!(m.get("unit"), entry.get("unit"), "{name}");
    }
}

#[test]
fn one_run_prints_the_agreed_result_line() {
    let m = manifest();
    for w in names(m.get("workloads").unwrap()) {
        let out = perf(&[
            "--workload",
            &w,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ]);
        check_result_line(
            &out,
            &names(m.get("end_to_end").unwrap()),
            m.get("end_to_end").unwrap(),
        );
    }
    let out = perf(&[
        "--workload",
        "sbcycle_1t",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "1",
        "--smoke",
    ]);
    check_result_line(
        &out,
        &names(m.get("per_layer").unwrap()),
        m.get("per_layer").unwrap(),
    );
}

#[test]
fn full_record_names_equal_the_manifest() {
    let m = manifest();
    let workloads = names(m.get("workloads").unwrap());
    let mut e2e = names(m.get("end_to_end").unwrap());
    e2e.push(FAIL_RATIO.name.to_string());

    let doc = json::parse(&perf(&["--seed", "7", "--smoke"])).unwrap();
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("untraced"));
    for key in [
        "nproc",
        "cpu_model",
        "governor",
        "kernel",
        "rustc",
        "git_commit",
        "features",
        "seed",
    ] {
        assert!(
            doc.get("host").unwrap().get(key).is_some(),
            "host block lacks {key}"
        );
    }
    let recorded = doc.get("workloads").unwrap();
    assert_eq!(keys(recorded), workloads);
    for (name, w) in recorded.as_obj().unwrap() {
        assert_eq!(keys(w.get("metrics").unwrap()), e2e, "{name}");
        let ratio = w.get("metrics").unwrap().get("fail_ratio").unwrap();
        assert_eq!(ratio.get("value").unwrap().as_f64(), Some(0.0), "{name}");
        assert_eq!(
            ratio.get("rounds").unwrap().as_arr().unwrap().len(),
            3,
            "{name}"
        );
    }
    // A record compares as "same" against itself, whatever the noise in it.
    let c = record::compare(&doc, &doc).unwrap();
    assert!(c
        .rows
        .iter()
        .flat_map(|(_, cells)| cells)
        .all(|(_, v)| v.label() != "worse" && v.label() != "better"));

    let doc = json::parse(&perf(&["--seed", "7", "--smoke", "--trace"])).unwrap();
    assert_eq!(doc.get("mode").unwrap().as_str(), Some("traced"));
    assert_eq!(keys(doc.get("workloads").unwrap()), workloads);
    let mut seen = keys(doc.get("layers").unwrap());
    let first = &doc.get("workloads").unwrap().as_obj().unwrap()[0].1;
    seen.extend(
        keys(first.get("metrics").unwrap())
            .into_iter()
            .filter(|n| n != FAIL_RATIO.name),
    );
    let mut expected = names(m.get("per_layer").unwrap());
    seen.sort();
    expected.sort();
    assert_eq!(seen, expected);
}

#[test]
fn checked_in_baselines_agree_within_the_bounds() {
    let read = |name: &str| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("baseline")
            .join(name);
        json::parse(
            &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        )
        .unwrap()
    };
    let c = record::compare(&read("BENCH_11_a.json"), &read("BENCH_11_b.json")).unwrap();
    assert!(
        c.agrees(),
        "two records of the same code disagree:\n{}",
        c.table()
    );
}
