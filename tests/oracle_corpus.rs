//! Corpus replay: every checked-in trace in `tests/corpus/` replays
//! under the oracle on every CI run, so minimized repros of historical
//! (or planted) failures stay failures-caught forever and clean
//! regression traces stay clean.
//!
//! * `expect clean` traces replay against the *whole* differential set
//!   and must produce zero violations and clean audits.
//! * `expect violation` traces replay against their recorded allocator
//!   and must still produce at least one violation — they encode a bug
//!   reachable only through trace-embedded failpoint plans, so they are
//!   skipped (loudly) when the `failpoints` feature is compiled out.

use lfmalloc::config::SB_SIZE;
use oracle::{all_subjects, subjects::replay_named, Expectation, Trace};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn load_corpus() -> Vec<(String, Trace)> {
    let mut traces = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("tests/corpus must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("trace") {
            continue;
        }
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let trace =
            Trace::parse(&text).unwrap_or_else(|e| panic!("{name}: corpus trace must parse: {e}"));
        traces.push((name, trace));
    }
    traces.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(!traces.is_empty(), "corpus must contain at least one trace");
    traces
}

#[test]
fn clean_corpus_traces_replay_clean_on_every_subject() {
    for (name, trace) in load_corpus() {
        if trace.expect != Expectation::Clean {
            continue;
        }
        for s in all_subjects() {
            let out = s.replay(&trace);
            assert!(
                out.is_clean(),
                "{name} on {}: {:?}",
                s.name(),
                out.violations
            );
            assert_ne!(s.audit_clean(), Some(false), "{name} on {}: audit", s.name());
        }
    }
}

#[test]
fn violation_corpus_traces_still_reproduce() {
    let mut checked = 0;
    for (name, trace) in load_corpus() {
        if trace.expect != Expectation::Violation {
            continue;
        }
        if !cfg!(feature = "failpoints") {
            eprintln!("skipping {name}: needs --features failpoints");
            continue;
        }
        // Three consecutive replays: the violation must be deterministic,
        // not a lucky interleaving. Each replay's heap is a fresh kernel
        // mapping, placed wherever the kernel likes, so a pointer is
        // compared by its offset in its 16 KiB frame.
        let mut first = None;
        for run in 0..3 {
            let (out, _) = replay_named(&trace.allocator, &trace);
            assert!(
                !out.violations.is_empty(),
                "{name}: run {run} no longer reproduces its violation"
            );
            let v = out.violations[0].in_frame(SB_SIZE);
            match &first {
                None => first = Some(v),
                Some(f) => assert_eq!(*f, v, "{name}: run {run} produced a different violation"),
            }
        }
        checked += 1;
    }
    if cfg!(feature = "failpoints") {
        assert!(checked > 0, "corpus must include at least one violation trace");
    }
}
