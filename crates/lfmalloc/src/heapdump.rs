//! Post-mortems (the `forensics` cargo feature): what the crash report,
//! the heap dump and the exit leak report contain, and the offline
//! analysis that `lfstat analyze` / `lfstat diff-heap` run over a dump.
//!
//! [`crate::forensics`] owns the flight recorder, `describe_ptr` and the
//! signal and `atexit` plumbing; every decision about what a post-mortem
//! says is made here, once. The heap dump is the record. The exit leak
//! report *is* a dump, framed by two header lines. The crash report is
//! prose for a reader at a terminal, but its flight-recorder tail comes
//! from the same `newest_first` selection, its health and misuse lines
//! loop over the same rows (`health_counters`, `misuse_rows`) as
//! the dump's `health` and `misuse` objects, and its OS line over the
//! same terms (`ByteReconciliation::terms`) as the dump's `os` object.
//!
//! # Dump format
//!
//! A dump is one JSON object with `"format": "lfmalloc-heapdump"` and an
//! integer `"version"` (currently [`DUMP_VERSION`]), written one line per
//! section (and one per class, span, tail entry and profile site).
//! Consumers must reject unknown formats and major versions; producers
//! may only *add* fields within a version — removals or semantic changes
//! bump the version. Version 3 carries:
//!
//! * `os` — the byte reconciliation (superblock / slab / large / cached
//!   large bytes vs the page source's live total), keyed as the stats
//!   record's `reconcile` object;
//! * `health` — every counter row of the health table, keyed as the
//!   stats record's `health` object (`storms` an object by site);
//!   `misuse` — the misuse counters;
//! * `descriptors` — a census of the descriptor universe by superblock
//!   state (`Active`/`Full`/`Partial`/`Empty`, plus `unbound` for
//!   descriptors not currently backing a superblock, and `warm`: how
//!   many of the `Empty` ones are retired with their superblock still
//!   attached, ready for any class);
//! * `classes` — per-size-class occupancy (superblocks, blocks used vs
//!   capacity) aggregated over bound descriptors;
//! * `large` — live count/bytes, the span cache, and every span in the
//!   span registry (which only hardened instances keep; `live` counts
//!   large blocks in every mode);
//! * `quarantine_depth`, `flight` (recorder tail + dropped count);
//! * `profile.sites` — live profile samples by call site (only when the
//!   crate is also built with `profile` and the dump is quiescent).
//!
//! # Write paths
//!
//! [`LfMalloc::dump_heap`] is the quiescent path (opens a file, may
//! allocate, includes the profile section). [`LfMalloc::dump_heap_fd`]
//! is the best-effort crash-context path: it renders through the same
//! fixed-buffer [`SigBuf`]/[`FdWriter`] primitives as the crash
//! reporter — no allocation, no locks — and therefore omits the
//! profile section. The exit leak report
//! ([`crate::GlobalLfMalloc::install_exit_leak_report`]) runs at normal
//! exit, where allocating is allowed, so it writes the quiescent dump.
//! All three emit the same format/version.
//!
//! Older versions differ in `health` alone. Version 2's also held
//! `throttle_activations`, the counter of a watchdog policy that is
//! gone; version 3 dropped it. Version 1's held four members: `storms`
//! (the total over the sites), `throttles`, `maintain_passes` and
//! `fork_recoveries`. The analyzer reads no `health` member, so it reads
//! all three versions.
//!
//! Occupancy numbers are racy snapshots when the heap is not quiescent:
//! each descriptor's anchor is read once, and `Active` superblocks hold
//! reserved credits that count as used. The analyzer treats them as
//! diagnostics, not ground truth.

use std::io::{self, Write};
use std::path::Path;

use core::sync::atomic::Ordering;

use malloc_api::json::Json;
use malloc_api::procfork::{self, sys};
use osmem::source::PageSource;

use crate::anchor::SbState;
use crate::forensics::{
    describe_ptr_inner, newest_first, unpack_meta, FdWriter, OpKind, SigBuf, CLASS_LARGE,
    CLASS_UNKNOWN,
};
use crate::harden::{Hardening, MisuseCounters, MisuseKind};
use crate::health::{HealthState, HEALTH_ROWS};
use crate::instance::{Inner, LfMalloc};
use crate::schema::{json_members, Sink};
use crate::size_classes::{CLASS_SIZES, NUM_CLASSES};

/// Current dump format version. See the module docs for the
/// compatibility contract.
pub const DUMP_VERSION: u64 = 3;

/// Flight-recorder entries included in a dump.
const DUMP_TAIL: usize = 64;

/// Entries printed in a crash report's flight-recorder section.
const REPORT_TAIL: usize = 32;

impl Sink for SigBuf {
    fn push_str(&mut self, s: &str) {
        SigBuf::push_str(self, s);
    }

    fn push_dec(&mut self, v: u64) {
        SigBuf::push_dec(self, v);
    }
}

/// The health table's counter rows and their words: relaxed loads and no
/// walk, so the crash handler may print them.
fn health_counters(h: &HealthState) -> impl Iterator<Item = (&'static str, u64)> + '_ {
    let rows = HEALTH_ROWS.iter().filter(|r| r.kind == "counter");
    rows.zip(&h.counts).map(|(r, c)| (r.name, c.load(Ordering::Relaxed)))
}

/// The misuse counters, one row per [`MisuseKind`].
fn misuse_rows(m: &MisuseCounters) -> [(&'static str, u64); MisuseKind::ALL.len()] {
    MisuseKind::ALL.map(|k| (k.key(), m.count(k)))
}

/// Appends `rows` as the crash report spells them: ` key=value` each.
fn push_pairs<'a>(b: &mut SigBuf, rows: impl IntoIterator<Item = (&'a str, u64)>) {
    for (key, value) in rows {
        b.push_str(" ");
        b.push_str(key);
        b.push_str("=");
        b.push_dec(value);
    }
}

fn wline(w: &mut impl Write, b: &SigBuf) -> io::Result<()> {
    w.write_all(b.as_bytes())?;
    w.write_all(b"\n")
}

/// Aggregates built from one pass over the descriptor universe.
struct DescWalk {
    total: u64,
    by_state: [u64; 4],
    unbound: u64,
    // Per class: [superblocks, blocks_used, blocks_capacity].
    classes: [[u64; 3]; NUM_CLASSES],
}

fn walk_descriptors<S: PageSource>(inner: &Inner<S>) -> DescWalk {
    let mut w = DescWalk {
        total: 0,
        by_state: [0; 4],
        unbound: 0,
        classes: [[0; 3]; NUM_CLASSES],
    };
    inner.desc_pool.for_each_descriptor(|dp| {
        let desc = unsafe { &*dp };
        w.total += 1;
        // Bound: the frame of the superblock it names names it back.
        let sb = desc.sb() as usize;
        let entry = inner.frames.get(sb);
        if sb == 0 || entry.desc() != dp {
            w.unbound += 1;
            return;
        }
        let anchor = desc.load_anchor();
        let state = anchor.state();
        w.by_state[state as usize] += 1;
        if state == SbState::Empty {
            return; // parked or warm: no block in use, no class's capacity
        }
        let maxcount = desc.maxcount() as u64;
        let c = &mut w.classes[entry.class()];
        c[0] += 1;
        c[1] += maxcount - (anchor.count() as u64).min(maxcount);
        c[2] += maxcount;
    });
    w
}

/// Renders a version-[`DUMP_VERSION`] dump of `inner` into `w`. With
/// `include_profile == false` the rendering allocates nothing (crash
/// path); errors from the sink are reported but rendering state never
/// panics.
pub(crate) fn render_dump<S: PageSource>(
    inner: &Inner<S>,
    w: &mut impl Write,
    include_profile: bool,
) -> io::Result<()> {
    let mut b = SigBuf::new();

    b.push_str("{\"format\":\"lfmalloc-heapdump\",\"version\":");
    b.push_dec(DUMP_VERSION);
    b.push_str(",");
    wline(w, &b)?;

    b.clear();
    b.push_str("\"nheaps\":");
    b.push_dec(inner.nheaps as u64);
    b.push_str(",\"hardening\":\"");
    b.push_str(match inner.config.hardening {
        Hardening::Off => "off",
        Hardening::Detect => "detect",
        Hardening::Abort => "abort",
    });
    b.push_str("\",");
    wline(w, &b)?;

    let rec = inner.reconcile_bytes();
    b.clear();
    b.push_str("\"os\":{");
    json_members(&mut b, rec.terms().map(|(key, _, v)| (key, v)));
    b.push_str(",\"reconciles\":");
    b.push_str(if rec.reconciles() { "true" } else { "false" });
    b.push_str("},");
    wline(w, &b)?;

    b.clear();
    b.push_str("\"health\":{");
    json_members(&mut b, health_counters(&inner.health));
    b.push_str("},");
    wline(w, &b)?;

    b.clear();
    b.push_str("\"misuse\":{");
    json_members(&mut b, misuse_rows(&inner.misuse));
    b.push_str("},");
    wline(w, &b)?;

    let walk = walk_descriptors(inner);
    b.clear();
    b.push_str("\"descriptors\":{");
    json_members(
        &mut b,
        [
            ("total", walk.total),
            ("active", walk.by_state[SbState::Active as usize]),
            ("full", walk.by_state[SbState::Full as usize]),
            ("partial", walk.by_state[SbState::Partial as usize]),
            ("empty", walk.by_state[SbState::Empty as usize]),
            ("unbound", walk.unbound),
            ("warm", inner.desc_pool.free_count(2) as u64),
        ],
    );
    b.push_str("},");
    wline(w, &b)?;

    w.write_all(b"\"classes\":[\n")?;
    let mut first = true;
    for (ci, c) in walk.classes.iter().enumerate() {
        if c[0] == 0 {
            continue;
        }
        b.clear();
        if !first {
            b.push_str(",");
        }
        first = false;
        b.push_str("{");
        json_members(
            &mut b,
            [
                ("class", ci as u64),
                ("size", CLASS_SIZES[ci] as u64),
                ("superblocks", c[0]),
                ("blocks_used", c[1]),
                ("blocks_capacity", c[2]),
            ],
        );
        b.push_str("}");
        wline(w, &b)?;
    }
    w.write_all(b"],\n")?;

    b.clear();
    b.push_str("\"large\":{");
    json_members(
        &mut b,
        [
            ("live", inner.large_live().0 as u64),
            ("bytes", rec.large_bytes as u64),
            ("cached_spans", crate::large::cached_spans(inner) as u64),
            ("cached_bytes", rec.large_cached_bytes as u64),
        ],
    );
    b.push_str(",\"spans\":[");
    wline(w, &b)?;
    let mut first = true;
    let mut err = None;
    inner.large_spans.for_each(|base, bytes| {
        if err.is_some() {
            return;
        }
        let mut lb = SigBuf::new();
        if !first {
            lb.push_str(",");
        }
        first = false;
        lb.push_str("{");
        json_members(&mut lb, [("base", base as u64), ("bytes", bytes as u64)]);
        lb.push_str("}");
        if let Err(e) = wline(w, &lb) {
            err = Some(e);
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    w.write_all(b"]},\n")?;

    b.clear();
    b.push_str("\"quarantine_depth\":");
    b.push_dec(inner.quarantine_depth() as u64);
    b.push_str(",");
    wline(w, &b)?;

    let mut tail = [(0, 0, 0); DUMP_TAIL];
    let n = newest_first(inner, &mut tail);
    b.clear();
    b.push_str("\"flight\":{\"dropped\":");
    b.push_dec(inner.obs.forensics.dropped.get());
    b.push_str(",\"tail\":[");
    wline(w, &b)?;
    for (i, &(seq, meta, ptr)) in tail[..n].iter().enumerate() {
        let (op_bits, class, tid) = unpack_meta(meta);
        b.clear();
        if i != 0 {
            b.push_str(",");
        }
        b.push_str("{\"seq\":");
        b.push_dec(seq);
        b.push_str(",\"op\":\"");
        b.push_str(match OpKind::from_bits(op_bits) {
            Some(k) => k.label(),
            None => "unknown",
        });
        b.push_str("\",\"class\":");
        b.push_dec(class as u64);
        b.push_str(",\"tid\":");
        b.push_dec(tid as u64);
        b.push_str(",\"ptr\":");
        b.push_dec(ptr);
        b.push_str("}");
        wline(w, &b)?;
    }
    w.write_all(b"]}")?;

    #[cfg(feature = "profile")]
    if include_profile {
        w.write_all(b",\n\"profile\":{\"sites\":[\n")?;
        let sites = {
            let inst = unsafe {
                LfMalloc::<S>::borrow_raw(core::ptr::NonNull::new_unchecked(
                    inner as *const Inner<S> as *mut Inner<S>,
                ))
            };
            inst.retention_report()
        };
        for (i, site) in sites.iter().enumerate() {
            b.clear();
            if i != 0 {
                b.push_str(",");
            }
            b.push_str("{\"file\":\"");
            b.push_str(&malloc_api::json::escape(site.site.file));
            b.push_str("\",");
            json_members(
                &mut b,
                [
                    ("line", site.site.line as u64),
                    ("live_bytes", site.live_bytes),
                    ("live_samples", site.live_samples),
                ],
            );
            b.push_str("}");
            wline(w, &b)?;
        }
        w.write_all(b"]}")?;
    }
    #[cfg(not(feature = "profile"))]
    let _ = include_profile;

    w.write_all(b"}\n")
}

/// Writes the black-box crash report to the instance's report fd.
/// `sig == 0` means a fail-stop (reason given) rather than a signal.
/// Async-signal-safe throughout.
pub(crate) fn crash_report<S: PageSource>(
    inner: &Inner<S>,
    sig: i32,
    fault: usize,
    reason: Option<&str>,
) {
    let fd = inner.obs.forensics.report_fd.load(Ordering::Relaxed);
    if fd < 0 {
        return;
    }
    let w = FdWriter::new(fd);
    let mut b = SigBuf::new();

    b.push_str("==== lfmalloc crash report ====");
    w.line(&b);

    b.clear();
    match reason {
        Some(r) => {
            b.push_str("cause: fail-stop (");
            b.push_str(r);
            b.push_str(")");
        }
        None => {
            b.push_str("cause: signal ");
            b.push_dec(sig as u64);
            b.push_str(match sig {
                s if s == sys::SIGSEGV => " (SIGSEGV)",
                s if s == sys::SIGBUS => " (SIGBUS)",
                s if s == sys::SIGABRT => " (SIGABRT)",
                _ => "",
            });
        }
    }
    w.line(&b);

    b.clear();
    b.push_str("fault address: 0x");
    b.push_hex(fault as u64);
    w.line(&b);

    b.clear();
    describe_ptr_inner(inner, fault).render(&mut b);
    w.line(&b);

    b.clear();
    b.push_str("inside allocator entry point: ");
    b.push_str(if crate::tls::with_block(|tb| tb.in_alloc.get()) { "yes" } else { "no" });
    w.line(&b);

    b.clear();
    b.push_str("fork generation: ");
    b.push_dec(procfork::generation());
    b.push_str(" (handlers installed at ");
    b.push_dec(inner.obs.forensics.crash_generation.load(Ordering::Relaxed));
    b.push_str(")");
    w.line(&b);

    // -- Flight recorder: merged tail, newest first. -------------------
    b.clear();
    b.push_str("-- flight recorder (newest first, dropped=");
    b.push_dec(inner.obs.forensics.dropped.get());
    b.push_str(") --");
    w.line(&b);
    let mut tail = [(0, 0, 0); REPORT_TAIL];
    let n = newest_first(inner, &mut tail);
    for &(seq, meta, ptr) in &tail[..n] {
        let (op_bits, class, tid) = unpack_meta(meta);
        b.clear();
        b.push_str("  seq=");
        b.push_dec(seq);
        b.push_str(" tid=");
        b.push_dec(tid as u64);
        b.push_str(" op=");
        b.push_str(match OpKind::from_bits(op_bits) {
            Some(k) => k.label(),
            None => "?",
        });
        b.push_str(" class=");
        match class {
            CLASS_LARGE => b.push_str("large"),
            CLASS_UNKNOWN => b.push_str("?"),
            c => b.push_dec(c as u64),
        }
        b.push_str(" ptr=0x");
        b.push_hex(ptr);
        w.line(&b);
    }
    if n == 0 {
        b.clear();
        b.push_str("  (empty)");
        w.line(&b);
    }

    // -- Health. -------------------------------------------------------
    b.clear();
    b.push_str("-- health --");
    w.line(&b);
    b.clear();
    b.push_str(" ");
    push_pairs(&mut b, health_counters(&inner.health));
    w.line(&b);

    // -- OS-byte reconciliation. ---------------------------------------
    let rec = inner.reconcile_bytes();
    b.clear();
    b.push_str("  os: ");
    rec.write_sum(&mut b);
    b.push_str(", reconciles=");
    b.push_str(if rec.reconciles() { "yes" } else { "no" });
    w.line(&b);

    // -- Misuse counters. ----------------------------------------------
    b.clear();
    b.push_str("-- misuse --");
    w.line(&b);
    b.clear();
    b.push_str(" ");
    push_pairs(&mut b, misuse_rows(&inner.misuse));
    w.line(&b);

    b.clear();
    b.push_str("==== end lfmalloc crash report ====");
    w.line(&b);
}

/// Writes the exit leak report to `fd`: the quiescent heap dump between
/// two header lines. Runs at normal exit, where allocating is allowed.
pub(crate) fn exit_report<S: PageSource>(inner: &Inner<S>, fd: i32) {
    let mut w = FdWriter::new(fd);
    w.put(b"==== lfmalloc exit leak report ====\n");
    let _ = render_dump(inner, &mut w, true);
    w.put(b"==== end lfmalloc exit leak report ====\n");
}

impl<S: PageSource> LfMalloc<S> {
    /// Writes a version-[`DUMP_VERSION`] heap dump to `path`
    /// (quiescent path: opens a file, includes the live profile
    /// samples when the crate is built with `profile`).
    pub fn dump_heap(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        render_dump(self.inner(), &mut f, true)?;
        crate::observe::event(self.inner(), crate::observe::EventKind::HeapDump, 0, DUMP_VERSION);
        f.flush()
    }

    /// Writes a heap dump to an already-open raw fd using only
    /// `write(2)` and fixed buffers — the best-effort crash-context
    /// path. Omits the profile section (building it allocates).
    pub fn dump_heap_fd(&self, fd: i32) {
        let mut w = FdWriter::new(fd);
        let _ = render_dump(self.inner(), &mut w, false);
    }

    /// Renders a heap dump into any sink (tests, in-memory capture).
    pub fn dump_heap_to(&self, w: &mut impl Write) -> io::Result<()> {
        render_dump(self.inner(), w, true)
    }
}

// ---------------------------------------------------------------------
// Offline side: analyzers over `malloc_api::json`
// ---------------------------------------------------------------------

fn parse_dump(text: &str) -> Result<Json, String> {
    let v = malloc_api::json::parse(text)?;
    match v.get("format").and_then(Json::as_str) {
        Some("lfmalloc-heapdump") => {}
        Some(other) => return Err(format!("not a heap dump (format {other:?})")),
        None => return Err("not a heap dump (no format field)".into()),
    }
    let version = v.u64("version");
    if version == 0 || version > DUMP_VERSION {
        return Err(format!(
            "unsupported dump version {version} (analyzer understands <= {DUMP_VERSION})"
        ));
    }
    Ok(v)
}

/// One call site ranked as a leak candidate (live profile samples at
/// dump time, largest retained bytes first).
#[derive(Debug, Clone)]
pub struct LeakCandidate {
    /// Source file of the allocation call site.
    pub file: String,
    /// Source line of the call site.
    pub line: u64,
    /// Estimated retained bytes.
    pub live_bytes: u64,
    /// Live samples attributed to the site.
    pub live_samples: u64,
}

/// Per-size-class occupancy from the dump.
#[derive(Debug, Clone, Copy)]
pub struct ClassCensus {
    /// Size-class index.
    pub class: u64,
    /// Block size in bytes.
    pub size: u64,
    /// Superblocks bound to this class.
    pub superblocks: u64,
    /// Blocks in use (or reserved as credits) across those superblocks.
    pub blocks_used: u64,
    /// Total block capacity across those superblocks.
    pub blocks_capacity: u64,
}

impl ClassCensus {
    /// Occupied fraction of the class's block capacity.
    pub fn utilization(&self) -> f64 {
        if self.blocks_capacity == 0 {
            0.0
        } else {
            self.blocks_used as f64 / self.blocks_capacity as f64
        }
    }
}

/// Descriptor-universe census by superblock state.
#[derive(Debug, Clone, Copy, Default)]
pub struct DescriptorCensus {
    /// All descriptors ever carved.
    pub total: u64,
    /// Bound to an Active superblock.
    pub active: u64,
    /// Bound to a Full superblock.
    pub full: u64,
    /// Bound to a Partial superblock.
    pub partial: u64,
    /// Bound to an Empty superblock.
    pub empty: u64,
    /// Not currently backing a superblock.
    pub unbound: u64,
    /// Of the Empty ones: retired onto the warm stack, superblock
    /// attached (0 in dumps written before PR 16).
    pub warm: u64,
}

/// The offline analysis of one heap dump (`lfstat analyze`).
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// Dump format version.
    pub version: u64,
    /// Hardening mode the instance ran with.
    pub hardening: String,
    /// Leak candidates, largest retained bytes first (empty when the
    /// dump has no profile section).
    pub leak_candidates: Vec<LeakCandidate>,
    /// Non-empty size classes.
    pub classes: Vec<ClassCensus>,
    /// Descriptor census.
    pub descriptors: DescriptorCensus,
    /// Live large blocks at dump time (the dump's `large.live`).
    pub large_spans: u64,
    /// Bytes backing live large blocks.
    pub large_bytes: u64,
    /// Freed large spans parked in the span cache, and their bytes.
    pub large_cached_spans: u64,
    pub large_cached_bytes: u64,
    /// Freed blocks parked in quarantine.
    pub quarantine_depth: u64,
    /// Page-source live bytes.
    pub os_live_bytes: u64,
    /// Whether the component byte counts reconciled.
    pub reconciles: bool,
    /// Sum of `blocks_used * size` over all classes.
    pub small_used_bytes: u64,
    /// Sum of `blocks_capacity * size` over all classes.
    pub small_capacity_bytes: u64,
    /// Flight-recorder entries present in the dump.
    pub flight_len: u64,
    /// Flight-recorder drops.
    pub flight_dropped: u64,
    /// Total misuse reports.
    pub misuse_total: u64,
}

impl AnalyzeReport {
    /// Occupied fraction of the small-block capacity — the headline
    /// fragmentation number (1.0 = fully packed).
    pub fn small_utilization(&self) -> f64 {
        if self.small_capacity_bytes == 0 {
            0.0
        } else {
            self.small_used_bytes as f64 / self.small_capacity_bytes as f64
        }
    }
}

/// Analyzes heap-dump `text` (the engine behind `lfstat analyze`).
pub fn analyze_dump(text: &str) -> Result<AnalyzeReport, String> {
    let v = parse_dump(text)?;
    let mut leaks: Vec<LeakCandidate> = v
        .get("profile")
        .and_then(|p| p.get("sites"))
        .and_then(Json::as_arr)
        .map(|sites| {
            sites
                .iter()
                .map(|s| LeakCandidate {
                    file: s.get("file").and_then(Json::as_str).unwrap_or("?").to_string(),
                    line: s.u64("line"),
                    live_bytes: s.u64("live_bytes"),
                    live_samples: s.u64("live_samples"),
                })
                .collect()
        })
        .unwrap_or_default();
    leaks.sort_by(|a, b| b.live_bytes.cmp(&a.live_bytes));

    let classes: Vec<ClassCensus> = v
        .get("classes")
        .and_then(Json::as_arr)
        .map(|cs| {
            cs.iter()
                .map(|c| ClassCensus {
                    class: c.u64("class"),
                    size: c.u64("size"),
                    superblocks: c.u64("superblocks"),
                    blocks_used: c.u64("blocks_used"),
                    blocks_capacity: c.u64("blocks_capacity"),
                })
                .collect()
        })
        .unwrap_or_default();
    let small_used_bytes = classes.iter().map(|c| c.blocks_used * c.size).sum();
    let small_capacity_bytes = classes.iter().map(|c| c.blocks_capacity * c.size).sum();

    let descriptors = DescriptorCensus {
        total: v.u64("descriptors.total"),
        active: v.u64("descriptors.active"),
        full: v.u64("descriptors.full"),
        partial: v.u64("descriptors.partial"),
        empty: v.u64("descriptors.empty"),
        unbound: v.u64("descriptors.unbound"),
        warm: v.u64("descriptors.warm"),
    };

    let misuse_total = match v.get("misuse") {
        Some(Json::Obj(pairs)) => pairs.iter().filter_map(|(_, v)| v.as_u64()).sum(),
        _ => 0,
    };

    Ok(AnalyzeReport {
        version: v.u64("version"),
        hardening: v.get("hardening").and_then(Json::as_str).unwrap_or("?").to_string(),
        leak_candidates: leaks,
        classes,
        descriptors,
        large_spans: v.u64("large.live"),
        large_bytes: v.u64("large.bytes"),
        large_cached_spans: v.u64("large.cached_spans"),
        large_cached_bytes: v.u64("large.cached_bytes"),
        quarantine_depth: v.u64("quarantine_depth"),
        os_live_bytes: v.u64("os.source_live_bytes"),
        reconciles: v.get("os.reconciles").and_then(Json::as_bool).unwrap_or(false),
        small_used_bytes,
        small_capacity_bytes,
        flight_len: v.arr("flight.tail").len() as u64,
        flight_dropped: v.u64("flight.dropped"),
        misuse_total,
    })
}

impl core::fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "lfmalloc heap dump v{} (hardening: {})", self.version, self.hardening)?;
        writeln!(
            f,
            "os: {} live bytes ({}), large: {} spans / {} B (+ {} cached / {} B), quarantine: {}",
            self.os_live_bytes,
            if self.reconciles { "reconciles" } else { "DOES NOT RECONCILE" },
            self.large_spans,
            self.large_bytes,
            self.large_cached_spans,
            self.large_cached_bytes,
            self.quarantine_depth,
        )?;
        writeln!(
            f,
            "descriptors: {} total ({} active, {} full, {} partial, {} empty of which {} warm, \
             {} unbound)",
            self.descriptors.total,
            self.descriptors.active,
            self.descriptors.full,
            self.descriptors.partial,
            self.descriptors.empty,
            self.descriptors.warm,
            self.descriptors.unbound,
        )?;
        writeln!(
            f,
            "small blocks: {} / {} B used ({:.1}% utilization)",
            self.small_used_bytes,
            self.small_capacity_bytes,
            self.small_utilization() * 100.0,
        )?;
        if self.misuse_total > 0 {
            writeln!(f, "misuse reports: {}", self.misuse_total)?;
        }
        writeln!(f, "fragmentation by class:")?;
        for c in &self.classes {
            writeln!(
                f,
                "  class {:>2} ({:>5} B): {:>4} superblocks, {:>7}/{:<7} blocks ({:.1}%)",
                c.class,
                c.size,
                c.superblocks,
                c.blocks_used,
                c.blocks_capacity,
                c.utilization() * 100.0,
            )?;
        }
        if self.leak_candidates.is_empty() {
            writeln!(f, "leak candidates: none (dump has no live profile samples)")?;
        } else {
            writeln!(f, "leak candidates (retained bytes, largest first):")?;
            for (i, l) in self.leak_candidates.iter().enumerate().take(16) {
                writeln!(
                    f,
                    "  {:>2}. {}:{} — {} B over {} live samples",
                    i + 1,
                    l.file,
                    l.line,
                    l.live_bytes,
                    l.live_samples,
                )?;
            }
        }
        write!(
            f,
            "flight recorder: {} entries in dump, {} dropped",
            self.flight_len, self.flight_dropped
        )
    }
}

/// Per-site retained-bytes delta between two dumps.
#[derive(Debug, Clone)]
pub struct SiteDelta {
    /// Source file of the call site.
    pub file: String,
    /// Source line.
    pub line: u64,
    /// `b.live_bytes - a.live_bytes` for the site.
    pub delta_bytes: i64,
    /// `b.live_samples - a.live_samples`.
    pub delta_samples: i64,
}

/// `lfstat diff-heap`: growth between two dumps of the same process.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Per-site deltas, largest growth first (sites present in either
    /// dump).
    pub site_deltas: Vec<SiteDelta>,
    /// Per-class `blocks_used` deltas `(class, size, delta)`, non-zero
    /// only.
    pub class_deltas: Vec<(u64, u64, i64)>,
    /// Large-bytes delta.
    pub delta_large_bytes: i64,
    /// Page-source live-bytes delta.
    pub delta_os_bytes: i64,
}

/// Diffs two heap dumps (earlier `a`, later `b`).
pub fn diff_dumps(a: &str, b: &str) -> Result<DiffReport, String> {
    let ra = analyze_dump(a)?;
    let rb = analyze_dump(b)?;
    let mut deltas: Vec<SiteDelta> = Vec::new();
    for l in &rb.leak_candidates {
        let prev = ra
            .leak_candidates
            .iter()
            .find(|p| p.file == l.file && p.line == l.line);
        deltas.push(SiteDelta {
            file: l.file.clone(),
            line: l.line,
            delta_bytes: l.live_bytes as i64 - prev.map_or(0, |p| p.live_bytes as i64),
            delta_samples: l.live_samples as i64 - prev.map_or(0, |p| p.live_samples as i64),
        });
    }
    for p in &ra.leak_candidates {
        if !rb.leak_candidates.iter().any(|l| l.file == p.file && l.line == p.line) {
            deltas.push(SiteDelta {
                file: p.file.clone(),
                line: p.line,
                delta_bytes: -(p.live_bytes as i64),
                delta_samples: -(p.live_samples as i64),
            });
        }
    }
    deltas.sort_by(|x, y| y.delta_bytes.cmp(&x.delta_bytes));

    let mut class_deltas = Vec::new();
    for cb in &rb.classes {
        let used_a = ra
            .classes
            .iter()
            .find(|c| c.class == cb.class)
            .map_or(0, |c| c.blocks_used as i64);
        let d = cb.blocks_used as i64 - used_a;
        if d != 0 {
            class_deltas.push((cb.class, cb.size, d));
        }
    }
    for ca in &ra.classes {
        if !rb.classes.iter().any(|c| c.class == ca.class) && ca.blocks_used > 0 {
            class_deltas.push((ca.class, ca.size, -(ca.blocks_used as i64)));
        }
    }

    Ok(DiffReport {
        site_deltas: deltas,
        class_deltas,
        delta_large_bytes: rb.large_bytes as i64 - ra.large_bytes as i64,
        delta_os_bytes: rb.os_live_bytes as i64 - ra.os_live_bytes as i64,
    })
}

impl core::fmt::Display for DiffReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "heap growth: os {:+} B, large {:+} B",
            self.delta_os_bytes, self.delta_large_bytes
        )?;
        if self.class_deltas.is_empty() {
            writeln!(f, "class occupancy: unchanged")?;
        } else {
            writeln!(f, "class occupancy deltas:")?;
            for &(class, size, d) in &self.class_deltas {
                writeln!(f, "  class {class:>2} ({size:>5} B): {d:+} blocks")?;
            }
        }
        if self.site_deltas.is_empty() {
            write!(f, "call sites: no profile data in either dump")
        } else {
            writeln!(f, "call-site retention deltas (growth first):")?;
            for (i, s) in self.site_deltas.iter().enumerate().take(16) {
                writeln!(
                    f,
                    "  {:>2}. {}:{} — {:+} B ({:+} samples)",
                    i + 1,
                    s.file,
                    s.line,
                    s.delta_bytes,
                    s.delta_samples,
                )?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "format": "lfmalloc-heapdump", "version": 1,
        "nheaps": 4, "hardening": "detect",
        "os": {"superblock_bytes": 1048576, "descriptor_slab_bytes": 16384,
               "large_bytes": 8192, "source_live_bytes": 1073152, "reconciles": true},
        "health": {"storms": 0, "throttles": 0, "maintain_passes": 2, "fork_recoveries": 0},
        "misuse": {"invalid_free": 0, "double_free": 1, "poison_violation": 0,
                   "guard_overrun": 0, "reentrant_alloc": 0},
        "descriptors": {"total": 10, "active": 4, "full": 1, "partial": 2,
                        "empty": 1, "unbound": 2},
        "classes": [
            {"class": 0, "size": 16, "superblocks": 2, "blocks_used": 100, "blocks_capacity": 2048},
            {"class": 5, "size": 96, "superblocks": 1, "blocks_used": 170, "blocks_capacity": 170}
        ],
        "large": {"live": 1, "bytes": 8192, "spans": [{"base": 4096, "bytes": 8192}]},
        "quarantine_depth": 3,
        "flight": {"dropped": 0, "tail": [
            {"seq": 2, "op": "free", "class": 0, "tid": 0, "ptr": 64},
            {"seq": 1, "op": "alloc", "class": 0, "tid": 0, "ptr": 64}
        ]},
        "profile": {"sites": [
            {"file": "small.rs", "line": 5, "live_bytes": 128, "live_samples": 1},
            {"file": "leaky.rs", "line": 42, "live_bytes": 999999, "live_samples": 7}
        ]}
    }"#;

    /// Every counter row of the health table is in both post-mortems, with
    /// the value `health()` reads: the dump's `health` object (by key path)
    /// and the crash report's health line (` name=value`).
    #[test]
    fn every_health_counter_is_in_every_post_mortem() {
        use crate::health::HEALTH_ROWS;
        use malloc_api::RawMalloc;
        use std::os::fd::AsRawFd;
        let a = crate::LfMalloc::with_config(crate::Config::with_heaps(2));
        unsafe { a.free(a.malloc(64)) };
        a.maintain(crate::MaintenanceBudget::light());
        let mut dump = Vec::new();
        a.dump_heap_to(&mut dump).unwrap();
        let dump = malloc_api::json::parse(std::str::from_utf8(&dump).unwrap()).unwrap();
        let path = std::env::temp_dir().join(format!("lfmalloc-health-{}.txt", std::process::id()));
        let file = std::fs::File::create(&path).unwrap();
        let inner = a.inner();
        inner.obs.forensics.report_fd.store(file.as_raw_fd(), Ordering::Relaxed);
        crash_report(inner, 0, 0, Some("test"));
        inner.obs.forensics.report_fd.store(-1, Ordering::Relaxed);
        let report = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let line = report.lines().skip_while(|l| *l != "-- health --").nth(1).unwrap();
        let (h, counters) = (a.health(), HEALTH_ROWS.iter().filter(|r| r.kind == "counter"));
        for r in counters {
            let v = (r.get)(&h);
            assert_eq!(dump.get(r.key).and_then(Json::as_u64), v, "{}", r.key);
            let pair = format!("{}={}", r.name, v.unwrap());
            assert!(line.split(' ').any(|p| p == pair), "{pair} not in {line:?}");
        }
        assert_eq!((line.split('=').count(), dump.u64("health.maintain_passes")), (14, 1));
    }

    #[test]
    fn analyze_parses_and_ranks_leaks() {
        // Version 2's `health` held `throttle_activations`; the analyzer
        // still takes it.
        let v2 = SAMPLE.replace("\"version\": 1", "\"version\": 2").replace(
            "\"storms\": 0, \"throttles\": 0",
            "\"storms\": {\"active.pop\": 0}, \"throttle_activations\": 0",
        );
        assert!(v2.contains("throttle_activations"));
        assert_eq!(analyze_dump(&v2).unwrap().version, 2);
        let r = analyze_dump(SAMPLE).unwrap();
        assert_eq!(r.version, 1);
        assert_eq!(r.hardening, "detect");
        assert_eq!(r.leak_candidates[0].file, "leaky.rs");
        assert_eq!(r.leak_candidates[0].live_bytes, 999_999);
        assert_eq!(r.classes.len(), 2);
        assert_eq!(r.small_used_bytes, 100 * 16 + 170 * 96);
        assert_eq!(r.descriptors.total, 10);
        assert_eq!(r.large_spans, 1);
        assert_eq!(r.quarantine_depth, 3);
        assert_eq!(r.flight_len, 2);
        assert_eq!(r.misuse_total, 1);
        assert!(r.reconciles);
        let text = r.to_string();
        assert!(text.contains("leaky.rs:42"));
        assert!(text.contains("reconciles"));
    }

    #[test]
    fn analyze_rejects_foreign_and_future_inputs() {
        assert!(analyze_dump("{}").unwrap_err().contains("no format"));
        assert!(analyze_dump(r#"{"format":"something-else","version":1}"#)
            .unwrap_err()
            .contains("not a heap dump"));
        assert!(analyze_dump(r#"{"format":"lfmalloc-heapdump","version":99}"#)
            .unwrap_err()
            .contains("unsupported dump version"));
        assert!(analyze_dump("not json at all").is_err());
    }

    #[test]
    fn diff_reports_growth_and_disappearance() {
        let earlier = SAMPLE.replace("999999", "1000").replace("\"live_samples\": 7", "\"live_samples\": 1");
        let d = diff_dumps(&earlier, SAMPLE).unwrap();
        assert_eq!(d.site_deltas[0].file, "leaky.rs");
        assert_eq!(d.site_deltas[0].delta_bytes, 999_999 - 1000);
        assert_eq!(d.delta_os_bytes, 0);
        let text = d.to_string();
        assert!(text.contains("leaky.rs:42"));
    }
}
