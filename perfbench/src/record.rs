//! The record `perf` writes (`--out`) and the comparison of two records
//! (`--compare`).
//!
//! A record holds, for each workload, the value of every metric as the
//! median of the rounds run, the round values, and their spread; and the
//! host it was measured on.

use crate::json::Value;
use crate::sampler::{median, spread};
use crate::spec::{bound, unit_of, END_TO_END, FAIL_RATIO};
use crate::workloads::{Tally, Workload};
use std::process::Command;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn tool_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and with what the record was measured.
pub fn host(seed: u64) -> Value {
    let unknown = || "unknown".to_string();
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::obj([
        ("nproc", Value::from(nproc as u64)),
        ("cpu_model", Value::from(cpu_model)),
        (
            "governor",
            Value::from(
                read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                    .unwrap_or_else(unknown),
            ),
        ),
        (
            "kernel",
            Value::from(read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Value::from(tool_line("rustc", &["--version"]).unwrap_or_else(unknown)),
        ),
        (
            "git_commit",
            Value::from(tool_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        (
            "features",
            Value::from(if cfg!(feature = "stats") {
                "stats"
            } else {
                "default"
            }),
        ),
        ("seed", Value::from(seed)),
    ])
}

/// One metric of one workload over the rounds: median, unit, spread, rounds.
pub fn over_rounds(name: &str, rounds: &[f64]) -> Value {
    Value::obj([
        ("value", Value::from(median(rounds))),
        ("unit", Value::from(unit_of(name))),
        ("spread", Value::from(spread(rounds))),
        (
            "rounds",
            Value::Arr(rounds.iter().copied().map(Value::from).collect()),
        ),
    ])
}

/// `fail_ratio` of one workload over the rounds. Its value is every failure
/// over every attempt, not the median of the rounds: one failed operation in
/// one round is a failed record.
pub fn fail_ratio(rounds: &[Tally]) -> Value {
    let mut all = Tally::default();
    for t in rounds {
        all.add(*t);
    }
    let each: Vec<f64> = rounds.iter().map(Tally::fail_ratio).collect();
    Value::obj([
        ("value", Value::from(all.fail_ratio())),
        ("unit", Value::from(FAIL_RATIO.unit)),
        ("spread", Value::from(spread(&each))),
        (
            "rounds",
            Value::Arr(each.into_iter().map(Value::from).collect()),
        ),
    ])
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The rounds of one side disagree by more than the bound, so a
    /// difference within it cannot be told from noise; or a value is missing.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's value and its rounds.
#[derive(Clone, Debug)]
pub struct Reading {
    pub value: f64,
    pub rounds: Vec<f64>,
}

impl Reading {
    fn from_record(record: &Value, workload: &str, metric: &str) -> Option<Reading> {
        let m = record
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(metric)?;
        // A measurement that was not a number was written as null.
        let number = |v: &Value| v.as_f64().unwrap_or(f64::NAN);
        Some(Reading {
            value: number(m.get("value")?),
            rounds: m.get("rounds")?.as_arr()?.iter().map(number).collect(),
        })
    }
}

/// Judges `b` against `a` for a lower-is-better metric whose regression
/// bound is `bound` (a share of `a`).
pub fn judge(a: &Reading, b: &Reading, bound: f64) -> Verdict {
    // A record writes a measurement that is not a number as null.
    if [a, b]
        .iter()
        .any(|x| x.value.is_nan() || x.rounds.iter().any(|r| r.is_nan()))
    {
        return Verdict::Unresolved;
    }
    if a.value == 0.0 {
        // fail_ratio: nothing may fail, so there is no share to take, and a
        // failure in any one round counts.
        return if b.value > 0.0 || b.rounds.iter().any(|r| *r > 0.0) {
            Verdict::Worse
        } else {
            Verdict::Same
        };
    }
    let change = (b.value - a.value) / a.value;
    let all_of = |x: &Reading, beats: fn(f64, f64) -> bool, y: &Reading| {
        x.rounds
            .iter()
            .all(|p| y.rounds.iter().all(|q| beats(*p, *q)))
    };
    if spread(&a.rounds).max(spread(&b.rounds)) > bound {
        // Too noisy for the bound, unless every round of one side beats
        // every round of the other.
        if all_of(b, |p, q| p < q, a) {
            return Verdict::Better;
        }
        if all_of(b, |p, q| p > q, a) && change > bound {
            return Verdict::Worse;
        }
        return Verdict::Unresolved;
    }
    if change > bound {
        Verdict::Worse
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub struct Comparison {
    /// One row per workload: the workload, then each metric's verdict.
    pub rows: Vec<(Workload, Vec<(&'static str, Verdict)>)>,
}

impl Comparison {
    /// True when no end-to-end metric on any workload is worse or unresolved.
    pub fn agrees(&self) -> bool {
        self.rows
            .iter()
            .flat_map(|(_, cells)| cells)
            .all(|(_, v)| matches!(v, Verdict::Same | Verdict::Better))
    }

    pub fn table(&self) -> String {
        let mut out = format!("{:<14}", "workload");
        for (m, _) in &self.rows[0].1 {
            out.push_str(&format!(" {m:<14}"));
        }
        for (w, cells) in &self.rows {
            out.push_str(&format!("\n{:<14}", w.name()));
            for (_, v) in cells {
                out.push_str(&format!(" {:<14}", v.label()));
            }
        }
        out.push('\n');
        out
    }
}

/// Compares record `b` against record `a`, metric by metric, per workload.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let metrics = END_TO_END
        .iter()
        .map(|(m, _)| m.name)
        .chain([FAIL_RATIO.name]);
    let mut rows = Vec::new();
    for w in Workload::ALL {
        let mut cells = Vec::new();
        for m in metrics.clone() {
            let side = |r: &Value, which: &str| {
                Reading::from_record(r, w.name(), m)
                    .ok_or_else(|| format!("record {which} has no {m} for {}", w.name()))
            };
            cells.push((m, judge(&side(a, "A")?, &side(b, "B")?, bound(m, w))));
        }
        rows.push((w, cells));
    }
    Ok(Comparison { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(rounds: &[f64]) -> Reading {
        Reading {
            value: median(rounds),
            rounds: rounds.to_vec(),
        }
    }

    #[test]
    fn within_bound_is_same_and_beyond_is_worse_or_better() {
        let a = r(&[100.0, 101.0, 99.0]);
        assert_eq!(judge(&a, &r(&[103.0, 104.0, 102.0]), 0.05), Verdict::Same);
        assert_eq!(judge(&a, &r(&[107.0, 108.0, 106.0]), 0.05), Verdict::Worse);
        assert_eq!(judge(&a, &r(&[90.0, 91.0, 89.0]), 0.05), Verdict::Better);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_rounds_separate() {
        let noisy = r(&[100.0, 112.0, 95.0]);
        assert_eq!(
            judge(&noisy, &r(&[101.0, 103.0, 99.0]), 0.05),
            Verdict::Unresolved
        );
        // Every round of B below every round of A: better despite the noise.
        assert_eq!(
            judge(&noisy, &r(&[80.0, 85.0, 90.0]), 0.05),
            Verdict::Better
        );
        assert_eq!(
            judge(&noisy, &r(&[130.0, 140.0, 150.0]), 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_bound_flags_any_growth_and_zero_stays_zero() {
        let a = r(&[1_048_576.0; 3]);
        assert_eq!(judge(&a, &r(&[1_048_576.0; 3]), 0.0), Verdict::Same);
        assert_eq!(judge(&a, &r(&[2_097_152.0; 3]), 0.0), Verdict::Worse);
        let none = r(&[0.0; 3]);
        assert_eq!(judge(&none, &r(&[0.0; 3]), 0.0), Verdict::Same);
        assert_eq!(
            judge(&none, &r(&[0.0, 1e-9, 0.0]), 0.0),
            Verdict::Worse,
            "failures in one round of three"
        );
        assert_eq!(judge(&none, &r(&[1e-9; 3]), 0.0), Verdict::Worse);
    }

    #[test]
    fn fail_ratio_counts_every_round_and_survives_no_attempts() {
        let t = |attempted, failed| Tally { attempted, failed };
        let clean = fail_ratio(&[t(1000, 0); 3]);
        assert_eq!(clean.get("value").unwrap().as_f64(), Some(0.0));
        let one_bad = fail_ratio(&[t(1000, 0), t(1000, 3), t(1000, 0)]);
        assert_eq!(one_bad.get("value").unwrap().as_f64(), Some(0.001));
        let reading = |v: &Value| Reading {
            value: v.get("value").unwrap().as_f64().unwrap(),
            rounds: v
                .get("rounds")
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .filter_map(Value::as_f64)
                .collect(),
        };
        assert_eq!(
            judge(&reading(&clean), &reading(&one_bad), 0.0),
            Verdict::Worse
        );
        // No attempts is a ratio of 0, not 0/0.
        let idle = fail_ratio(&[t(0, 0)]);
        assert_eq!(idle.get("value").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn a_value_that_is_not_a_number_is_unresolved() {
        let a = r(&[100.0, 101.0, 99.0]);
        let lost = Reading {
            value: f64::NAN,
            rounds: vec![100.0, f64::NAN, 99.0],
        };
        assert_eq!(judge(&a, &lost, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&lost, &a, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&r(&[0.0; 3]), &lost, 0.0), Verdict::Unresolved);
    }

    #[test]
    fn compares_whole_records_and_reports_missing_metrics() {
        let record = |op: f64| {
            Value::obj([(
                "workloads",
                Value::obj(Workload::ALL.map(|w| {
                    let metrics = END_TO_END
                        .iter()
                        .map(|(m, _)| m.name)
                        .chain([FAIL_RATIO.name])
                        .map(|m| {
                            let v = if m == "op_ns" {
                                op
                            } else if m == "fail_ratio" {
                                0.0
                            } else {
                                10.0
                            };
                            (m, over_rounds(m, &[v, v, v]))
                        });
                    (w.name(), Value::obj([("metrics", Value::obj(metrics))]))
                })),
            )])
        };
        let c = compare(&record(36.0), &record(36.5)).unwrap();
        assert!(c.agrees());
        assert_eq!(c.rows.len(), 6);
        assert_eq!(c.table().lines().count(), 7);
        let c = compare(&record(36.0), &record(45.0)).unwrap();
        assert!(!c.agrees());
        assert!(c
            .rows
            .iter()
            .all(|(_, cells)| cells[0] == ("op_ns", Verdict::Worse)));
        assert!(compare(
            &record(36.0),
            &Value::obj([("workloads", Value::Obj(vec![]))])
        )
        .is_err());
    }
}
