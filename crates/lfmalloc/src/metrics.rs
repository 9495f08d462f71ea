//! OpenMetrics / Prometheus text exporter (cargo feature `stats`).
//!
//! [`LfMalloc::render_openmetrics`] renders the full
//! [`StatsSnapshot`](crate::stats::StatsSnapshot) — counters, latency
//! histograms, fragmentation gauges, health and (under `profile`) the
//! sampled retention profile — as OpenMetrics 1.0 text, hand-rolled
//! with no serialization dependency, mirroring the stack's hand-rolled
//! JSON. Name mapping rules (DESIGN.md §13):
//!
//! * counters end in `_total` and are declared `# TYPE <family> counter`
//!   on the family name *without* the suffix;
//! * latency histograms are exported in **seconds** with cumulative
//!   `_bucket{le="..."}` samples ending at `le="+Inf"`, plus `_count`
//!   and `_sum` — the power-of-two-nanosecond buckets map to their
//!   upper bounds in seconds;
//! * point-in-time values (live bytes, fragmentation permille, ring
//!   drops, degradation) are gauges;
//! * the exposition ends with the mandatory `# EOF` terminator.
//!
//! [`LfMalloc::serve_metrics`] optionally spawns a minimal HTTP/1.0
//! scrape endpoint on a `std::net::TcpListener` — one thread, one
//! request at a time, a `fork::Worker` like the
//! background reaper: started once, stopped and joined before instance
//! teardown, forgotten (never joined) in a forked child, which can serve
//! again. The exporter
//! renders through the system allocator-backed `String`, so scraping an
//! instance that *is* the Rust global allocator is still re-entrant-safe
//! only from other threads — the same contract as `stats()`.

use crate::health::HEALTH_ROWS;
use crate::instance::{Inner, LfMalloc};
use crate::schema::CounterInfo;
use crate::stats::{StatsSnapshot, CLASS_COUNTERS, INSTANCE_COUNTERS, LATENCY_PATHS, RETRY_HISTOGRAMS};
use malloc_api::telemetry::{LatencySnapshot, RETRY_BUCKETS, TIME_BUCKETS};
use osmem::PageSource;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};

/// Escapes a label value per the OpenMetrics ABNF (`\\`, `\"`, `\n`).
#[cfg_attr(not(feature = "profile"), allow(dead_code))]
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a nanosecond figure as seconds (shortest round-trip float).
fn secs(nanos: u64) -> String {
    format!("{}", nanos as f64 / 1e9)
}

fn write_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
    if !help.is_empty() {
        let _ = writeln!(out, "# HELP {name} {help}");
    }
}

/// A gauge family of one unlabelled sample.
fn gauge(out: &mut String, name: &str, help: &str, v: u64) {
    write_family(out, name, "gauge", help);
    let _ = writeln!(out, "{name} {v}");
}

/// Writes a schema table's rows: one family per run of rows that name it,
/// HELP assembled from the rows' help lines, and `sample` for each row.
fn write_rows<T, V>(
    out: &mut String,
    rows: &[CounterInfo<T, V>],
    mut sample: impl FnMut(&mut String, &CounterInfo<T, V>),
) {
    for (i, c) in rows.iter().enumerate() {
        if i == 0 || rows[i - 1].family != c.family {
            let run = rows.iter().filter(|r| r.family == c.family);
            let help: Vec<String> =
                run.map(|r| format!("{} {}", r.label.replace('"', ""), r.help)).collect();
            write_family(out, c.family, c.kind, help.join(" ").trim_start());
        }
        sample(out, c);
    }
}

/// The sample of a counter or gauge row.
fn write_scalar<T, V>(out: &mut String, c: &CounterInfo<T, V>, v: u64) {
    let suffix = if c.kind == "counter" { "_total" } else { "" };
    let labels = if c.label.is_empty() { String::new() } else { format!("{{{}}}", c.label) };
    let _ = writeln!(out, "{}{suffix}{labels} {v}", c.family);
}

/// Emits one latency histogram as cumulative OpenMetrics buckets in
/// seconds. `labels` is either empty or a `key="value"` list *without*
/// braces.
fn write_latency(out: &mut String, family: &str, labels: &str, s: &LatencySnapshot) {
    let sep = if labels.is_empty() { String::new() } else { format!("{labels},") };
    let mut cum = 0u64;
    for i in 0..TIME_BUCKETS {
        cum += s.buckets[i];
        // Skip runs of empty leading/inner buckets except the ones that
        // carry cumulative steps — emitting every bucket keeps parsers
        // simple but 32 buckets × 8 paths is noisy; emit a bucket only
        // when its cumulative count changes, plus the mandatory +Inf.
        if s.buckets[i] == 0 {
            continue;
        }
        let _ = writeln!(
            out,
            "{family}_bucket{{{sep}le=\"{}\"}} {cum}",
            secs(LatencySnapshot::bucket_upper_nanos(i))
        );
    }
    let _ = writeln!(out, "{family}_bucket{{{sep}le=\"+Inf\"}} {}", s.count());
    let brace = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
    let _ = writeln!(out, "{family}_count{brace} {}", s.count());
    let _ = writeln!(out, "{family}_sum{brace} {}", secs(s.sum_nanos));
}

/// Renders a snapshot as OpenMetrics text (shared by the method and the
/// scrape thread).
fn render<S: PageSource>(this: &LfMalloc<S>) -> String {
    let s: StatsSnapshot = this.stats();
    let t = &s.totals;
    let mut o = String::with_capacity(8 * 1024);

    // The per-class counters, summed over classes.
    write_rows(&mut o, CLASS_COUNTERS, |o, c| write_scalar(o, c, (c.get)(t)));
    // The CAS-retry histograms: cumulative buckets over the retry counts
    // 0 / 1 / 2–3 / ... / 64+, `le` the largest count a bucket holds.
    for (_, family, help, get) in &RETRY_HISTOGRAMS {
        write_family(&mut o, family, "histogram", help);
        let (buckets, mut cum) = (get(t), 0u64);
        for (i, n) in buckets.iter().enumerate() {
            cum += n;
            let le = if i + 1 == RETRY_BUCKETS {
                "+Inf".into()
            } else {
                ((1u64 << i) - 1).to_string()
            };
            let _ = writeln!(o, "{family}_bucket{{le=\"{le}\"}} {cum}");
        }
        let _ = writeln!(o, "{family}_count {cum}");
    }
    // The instance-wide counters, and the gauges among their rows.
    write_rows(&mut o, INSTANCE_COUNTERS, |o, c| write_scalar(o, c, (c.get)(&s)));

    // The health numbers, a row with no reading (`None`) writing no
    // sample; then the verdict and the readings derived from the rows.
    let h = &s.health;
    write_rows(&mut o, HEALTH_ROWS, |o, c| {
        if let Some(v) = (c.get)(h) {
            write_scalar(o, c, v)
        }
    });
    // The descriptor places are the table's last family; two more follow.
    let listed: usize = h.partial_listed.iter().sum();
    let _ = writeln!(o, "lfmalloc_descriptors{{place=\"partial_list\"}} {listed}");
    let _ = writeln!(o, "lfmalloc_descriptors{{place=\"in_use\"}} {}", h.descriptors_in_use());
    write_family(
        &mut o,
        "lfmalloc_partial_listed",
        "gauge",
        "Descriptors on each size class's partial list (classes with any).",
    );
    for (ci, n) in h.partial_listed.iter().enumerate().filter(|(_, n)| **n > 0) {
        let _ = writeln!(o, "lfmalloc_partial_listed{{class=\"{ci}\"}} {n}");
    }
    gauge(
        &mut o,
        "lfmalloc_degraded",
        "1 when the liveness watchdog considers the instance degraded.",
        u64::from(h.is_degraded()),
    );
    gauge(
        &mut o,
        "lfmalloc_retained_empty_bytes",
        "Bytes of EMPTY superblocks kept on their descriptors, warm or parked.",
        h.retained_empty_bytes() as u64,
    );
    gauge(&mut o, "lfmalloc_os_peak_bytes", "", s.os.peak_bytes as u64);
    #[cfg(feature = "forensics")]
    {
        write_family(
            &mut o,
            "lfmalloc_flight_recorder_dropped",
            "counter",
            "Allocator ops the crash-forensics flight recorder could not record.",
        );
        let _ = writeln!(
            o,
            "lfmalloc_flight_recorder_dropped_total {}",
            this.flight_recorder_dropped()
        );
        gauge(
            &mut o,
            "lfmalloc_crash_handler_installed",
            "1 when this instance's chained crash handlers are installed.",
            u64::from(this.crash_handler_installed()),
        );
    }

    // Latency histograms, one family per operation, path as a label.
    write_rows(&mut o, LATENCY_PATHS, |o, p| {
        write_latency(o, p.family, p.label, &(p.get)(&s.latency))
    });

    // Fragmentation gauges.
    let f = &s.fragmentation;
    gauge(
        &mut o,
        "lfmalloc_frag_external_permille",
        "External fragmentation of the small heap.",
        f.external_frag_permille() as u64,
    );
    gauge(&mut o, "lfmalloc_frag_committed_bytes", "", f.small_committed_bytes);
    gauge(&mut o, "lfmalloc_frag_live_bytes", "", f.small_live_bytes);
    write_family(&mut o, "lfmalloc_class_committed_bytes", "gauge", "");
    for c in &f.classes {
        let _ = writeln!(
            o,
            "lfmalloc_class_committed_bytes{{class=\"{}\",size=\"{}\"}} {}",
            c.class, c.block_size, c.committed_bytes
        );
    }
    write_family(&mut o, "lfmalloc_class_live_bytes", "gauge", "");
    for c in &f.classes {
        let _ = writeln!(
            o,
            "lfmalloc_class_live_bytes{{class=\"{}\",size=\"{}\"}} {}",
            c.class, c.block_size, c.live_bytes
        );
    }

    // Retention profile: per-site live-byte gauges (top sites only —
    // a site label per distinct call site keeps cardinality bounded by
    // the sample table).
    #[cfg(feature = "profile")]
    {
        let p = &s.profile;
        write_family(&mut o, "lfmalloc_profile_samples", "counter", "Sampler lifecycle.");
        let _ = writeln!(o, "lfmalloc_profile_samples_total{{event=\"taken\"}} {}", p.samples_taken);
        let _ = writeln!(
            o,
            "lfmalloc_profile_samples_total{{event=\"dropped\"}} {}",
            p.samples_dropped
        );
        let _ =
            writeln!(o, "lfmalloc_profile_samples_total{{event=\"freed\"}} {}", p.sampled_frees);
        write_family(
            &mut o,
            "lfmalloc_profile_internal_frag_permille",
            "gauge",
            "Sampled internal fragmentation.",
        );
        let _ = writeln!(
            o,
            "lfmalloc_profile_internal_frag_permille {}",
            p.internal_frag_permille()
        );
        write_family(
            &mut o,
            "lfmalloc_profile_site_live_bytes",
            "gauge",
            "Estimated live bytes by allocation site.",
        );
        let sites = p.sites();
        for r in &sites {
            let _ = writeln!(
                o,
                "lfmalloc_profile_site_live_bytes{{site=\"{}\"}} {}",
                escape_label(&r.site.to_string()),
                r.live_bytes
            );
        }
        write_family(&mut o, "lfmalloc_profile_site_live_samples", "gauge", "");
        for r in &sites {
            let _ = writeln!(
                o,
                "lfmalloc_profile_site_live_samples{{site=\"{}\"}} {}",
                escape_label(&r.site.to_string()),
                r.live_samples
            );
        }
    }

    o.push_str("# EOF\n");
    o
}

/// Structural well-formedness check of an OpenMetrics exposition —
/// the CI smoke parser. Validates the `# EOF` terminator, `# TYPE`
/// declarations, suffix rules per type (counter samples end `_total`,
/// histogram samples `_bucket`/`_count`/`_sum`), numeric sample values,
/// balanced label quoting, and cumulative histogram buckets ending at
/// `le="+Inf"`.
pub fn check_openmetrics(text: &str) -> Result<(), String> {
    if !text.ends_with("# EOF\n") {
        return Err("missing `# EOF` terminator".into());
    }
    let mut families: Vec<(String, String)> = Vec::new();
    let mut hist_cum: Option<(String, u64)> = None; // (series key, last cumulative)
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            match it.next() {
                Some("TYPE") => {
                    let name = it.next().ok_or(format!("line {ln}: TYPE without name"))?;
                    let kind = it.next().ok_or(format!("line {ln}: TYPE without kind"))?;
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "info") {
                        return Err(format!("line {ln}: unknown metric type {kind:?}"));
                    }
                    families.push((name.to_string(), kind.to_string()));
                }
                Some("HELP") | Some("UNIT") | Some("EOF") => {}
                other => return Err(format!("line {ln}: unknown comment {other:?}")),
            }
            continue;
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.find('}') {
            Some(close) => {
                let open = line.find('{').ok_or(format!("line {ln}: `}}` without `{{`"))?;
                if open > close {
                    return Err(format!("line {ln}: mismatched braces"));
                }
                let labels = &line[open + 1..close];
                if labels.matches('"').count() % 2 != 0 {
                    return Err(format!("line {ln}: unbalanced label quotes"));
                }
                (&line[..close + 1], line[close + 1..].trim())
            }
            None => {
                let sp = line.find(' ').ok_or(format!("line {ln}: sample without value"))?;
                (&line[..sp], line[sp + 1..].trim())
            }
        };
        let value: f64 = value
            .split(' ')
            .next()
            .unwrap_or("")
            .parse()
            .map_err(|_| format!("line {ln}: non-numeric sample value in {line:?}"))?;
        let name = series.split('{').next().unwrap_or(series);
        let family = families
            .iter()
            .rev()
            .find(|(f, _)| {
                name == f
                    || (name.len() > f.len()
                        && name.starts_with(f.as_str())
                        && name.as_bytes()[f.len()] == b'_')
            })
            .ok_or(format!("line {ln}: sample {name:?} has no TYPE declaration"))?;
        let suffix = &name[family.0.len()..];
        let ok = match family.1.as_str() {
            "counter" => matches!(suffix, "_total" | "_created"),
            "gauge" | "info" => suffix.is_empty(),
            "histogram" => matches!(suffix, "_bucket" | "_count" | "_sum" | "_created"),
            "summary" => matches!(suffix, "" | "_count" | "_sum" | "_created"),
            _ => unreachable!(),
        };
        if !ok {
            return Err(format!(
                "line {ln}: sample {name:?} has invalid suffix {suffix:?} for {} family",
                family.1
            ));
        }
        // Histogram bucket discipline: cumulative within a series, +Inf
        // closes it.
        if suffix == "_bucket" {
            let key = series.split("le=").next().unwrap_or(series).to_string();
            let le = series
                .split("le=\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .ok_or(format!("line {ln}: bucket without le label"))?;
            let cum = value as u64;
            match &mut hist_cum {
                Some((k, last)) if *k == key => {
                    if cum < *last {
                        return Err(format!("line {ln}: non-cumulative histogram bucket"));
                    }
                    *last = cum;
                }
                _ => hist_cum = Some((key.clone(), cum)),
            }
            if le == "+Inf" {
                hist_cum = None;
            }
        } else if hist_cum.is_some() && suffix != "_bucket" && suffix != "_count" {
            // A series ended without +Inf before _sum.
            if suffix == "_sum" {
                return Err(format!("line {ln}: histogram series missing le=\"+Inf\" bucket"));
            }
        }
    }
    if let Some((key, _)) = hist_cum {
        return Err(format!("histogram series {key:?} never closed with le=\"+Inf\""));
    }
    Ok(())
}

impl<S: PageSource> LfMalloc<S> {
    /// The full telemetry snapshot as OpenMetrics 1.0 text (ends with
    /// `# EOF`). Allocates through the Rust global allocator, like
    /// [`stats`](Self::stats).
    pub fn render_openmetrics(&self) -> String {
        render(self)
    }
}

impl<S: PageSource + Send + Sync + 'static> LfMalloc<S> {
    /// Starts a minimal HTTP scrape endpoint serving
    /// [`render_openmetrics`](Self::render_openmetrics) on `addr`
    /// (use port 0 for an OS-assigned port; the bound address is
    /// returned). One endpoint per instance: a second call returns the
    /// existing address. The serving thread is stopped and joined by
    /// [`stop_metrics`](Self::stop_metrics) or instance drop.
    pub fn serve_metrics<A: ToSocketAddrs>(&self, addr: A) -> std::io::Result<SocketAddr> {
        let served = self.inner().obs.stats.metrics.start(|| {
            let listener = TcpListener::bind(addr)?;
            let local = listener.local_addr()?;
            let thread = crate::fork::spawn(self, "lfmalloc-metrics", move |this| loop {
                let accepted = listener.accept();
                if this.inner().obs.stats.metrics.stopping() {
                    break;
                }
                if let Ok((mut stream, _)) = accepted {
                    serve_one(&mut stream, this);
                }
            })?;
            std::io::Result::Ok((thread, local))
        });
        served.map(|(local, _)| local)
    }

    /// Stops and joins the scrape endpoint; returns true if one was
    /// running. Called implicitly by drop.
    pub fn stop_metrics(&self) -> bool {
        stop_metrics_inner(self.inner())
    }
}

/// Answers one scrape: drains the request head, writes a 200 with the
/// OpenMetrics content type.
fn serve_one<S: PageSource>(stream: &mut TcpStream, this: &LfMalloc<S>) {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(500)));
    let mut buf = [0u8; 1024];
    let _ = stream.read(&mut buf); // request line + headers, ignored
    let body = render(this);
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: application/openmetrics-text; \
         version=1.0.0; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

/// Free-function form of stop so `LfMalloc::drop` (no `Send + Sync`
/// bound in scope) can call it.
pub(crate) fn stop_metrics_inner<S: PageSource>(inner: &Inner<S>) -> bool {
    // A self-connection gets the thread out of `accept`.
    inner.obs.stats.metrics.stop(|addr| drop(TcpStream::connect(addr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use malloc_api::RawMalloc;

    #[test]
    fn label_escaping() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn render_is_well_formed_openmetrics() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let mut ptrs = Vec::new();
            for i in 0..500usize {
                ptrs.push(a.malloc(16 + i % 200));
            }
            let big = a.malloc(1 << 20);
            for p in ptrs {
                a.free(p);
            }
            a.free(big);
        }
        a.maintain(crate::maintain::MaintenanceBudget::light());
        let text = a.render_openmetrics();
        check_openmetrics(&text).expect("exposition must be well-formed");
        assert!(text.contains("lfmalloc_mallocs_total{path=\"fast\"}"));
        assert!(text.contains("lfmalloc_malloc_latency_seconds_bucket"));
        assert!(text.contains("le=\"+Inf\""));
        assert!(text.contains("lfmalloc_events_dropped"));
        assert!(text.contains("lfmalloc_degraded 0"));
        assert!(text.contains("lfmalloc_frag_external_permille"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn checker_rejects_malformed_expositions() {
        assert!(check_openmetrics("lfmalloc_x 1\n").is_err(), "missing EOF");
        assert!(
            check_openmetrics("x_total 1\n# EOF\n").is_err(),
            "sample without TYPE declaration"
        );
        assert!(
            check_openmetrics("# TYPE x counter\nx 1\n# EOF\n").is_err(),
            "counter sample must end _total"
        );
        assert!(
            check_openmetrics("# TYPE x counter\nx_total nan-ish\n# EOF\n").is_err(),
            "non-numeric value"
        );
        assert!(
            check_openmetrics(
                "# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\n\
                 h_bucket{le=\"+Inf\"} 5\nh_count 5\nh_sum 1\n# EOF\n"
            )
            .is_err(),
            "non-cumulative buckets"
        );
        assert!(check_openmetrics(
            "# TYPE x counter\nx_total 1\n# TYPE g gauge\ng 0.5\n\
             # TYPE h histogram\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\n\
             h_count 2\nh_sum 0.01\n# EOF\n"
        )
        .is_ok());
    }

    #[test]
    fn serve_metrics_scrapes_over_http() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(100);
            a.free(p);
        }
        let addr = a.serve_metrics("127.0.0.1:0").expect("bind loopback");
        // Second call is idempotent.
        assert_eq!(a.serve_metrics("127.0.0.1:0").unwrap(), addr);
        let mut stream = TcpStream::connect(addr).expect("connect scrape endpoint");
        stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK"), "got: {resp}");
        assert!(resp.contains("application/openmetrics-text"));
        let body = resp.split("\r\n\r\n").nth(1).expect("body");
        check_openmetrics(body).expect("scraped exposition parses");
        assert!(a.stop_metrics());
        assert!(!a.stop_metrics(), "second stop is a no-op");
        // The endpoint can be restarted after a stop.
        let addr2 = a.serve_metrics("127.0.0.1:0").unwrap();
        let _ = TcpStream::connect(addr2);
        a.stop_metrics();
    }
}
