//! What one run hands back: the metric catalogue, the run's metric
//! values and correctness verdict, the in-memory span log, and the files
//! a traced run leaves under `.bench_out/`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats::Ledger;

/// End-to-end metrics: `(name, unit)`. Every workload measures every
/// one of them, in its own terms (see `PROVENANCE.md`), and none of
/// them can read 0 on a run that did its work.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("announces_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A run with `--trace 1` reports
/// every one of them; a layer its workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.generate_s", "s"),
    ("sim.engine.ticks", "count"),
    ("crawler.loop_ns_per_tick", "ns"),
    ("crawler.queue_ns_per_pop", "ns"),
    ("portal.rss.polls", "count"),
    ("portal.rss.ns_per_poll", "ns"),
    ("tracker.announces", "count"),
    ("tracker.announce_ns_p50", "ns"),
    ("tracker.announce_ns_p99", "ns"),
    ("tracker.announce_s", "s"),
    ("tracker.allocs_per_announce", "count"),
    ("tracker.probe.calls", "count"),
    ("crawler.identify.success_ratio", "ratio"),
    ("crawler.sink.records", "count"),
    ("crawler.sink.emit_s", "s"),
    ("stream.fold.records", "count"),
    ("stream.fold_ns_per_record", "ns"),
    ("stream.consumer_wait_s", "s"),
    ("stream.checkpoint.saved", "count"),
    ("analysis.analyze_s", "s"),
    ("analysis.estimate_sessions_s", "s"),
    ("core.render_s", "s"),
    ("report_s", "s"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("alloc.peak_crawl_mb", "MB"),
    ("alloc.peak_report_mb", "MB"),
    ("obs.trace_overhead_pct", "%"),
    ("ledger.unattributed_pct", "%"),
    ("serve.decode_ns_per_item", "ns"),
    ("serve.apply_ns_per_item", "ns"),
    ("serve.encode_ns_per_item", "ns"),
    ("serve.udp_codec_ns", "ns"),
    ("serve.http_parse_ns", "ns"),
    ("serve.in_process_share", "ratio"),
    ("serve.shard_imbalance_pct", "%"),
    ("serve.hot_shard_share", "ratio"),
    ("serve.refused_ratio", "ratio"),
    ("serve.duplicates", "count"),
    ("exchange_p99_us", "us"),
    ("udp_p99_us", "us"),
    ("http_p99_us", "us"),
    ("loadgen.achieved_per_s", "1/s"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.errors", "count"),
    ("fail_ratio", "ratio"),
];

/// One run's result.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (announces, or records crawled).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks that failed, one line each.
    pub failures: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets metric `name`, which must be in one of the catalogues.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Reads back a metric already set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Records a failed correctness check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// The result line: every metric of the chosen catalogue, in
    /// catalogue order. An end-to-end metric the run did not set, or set
    /// to 0, makes the run incorrect; a per-layer metric reads 0 where
    /// the workload bypasses the layer.
    pub fn json_line(&self, per_layer: bool) -> String {
        let mut failures = self.failures.clone();
        let mut body = String::new();
        let catalogue = if per_layer { PER_LAYER } else { END_TO_END };
        for (name, unit) in catalogue {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if !value.is_finite() {
                failures.push(format!("metric {name} is not finite: {value}"));
            } else if !per_layer && value <= 0.0 {
                failures.push(format!("end-to-end metric {name} was not measured"));
            }
            let value = if value.is_finite() { value } else { 0.0 };
            if !body.is_empty() {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            failures.is_empty(),
            self.attempted.max(1),
            self.failed
        )
    }
}

/// A benchmark-side span: one call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `crawler.run_crawl_with`.
    pub name: &'static str,
    /// Identifier; the spans of one request share it.
    pub id: u64,
    /// Id of the span that caused this one (0 = root).
    pub parent: u64,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends, then written out whole.
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Nanoseconds since the log's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to the log's clock.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span.
    pub fn push(&mut self, name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a new span under `parent` and returns its result
    /// and the span's duration in ns.
    pub fn time<R>(&mut self, name: &'static str, parent: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.next_id();
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.push(name, id, parent, start, end);
        (r, end - start)
    }

    /// An empty log on the same clock, for another thread to fill.
    pub fn fork(&self) -> SpanLog {
        SpanLog {
            epoch: self.epoch,
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Appends the spans of a log made by [`Self::fork`].
    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome trace-event JSON of every span (loadable in Perfetto).
    fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Where a run leaves its files: `.bench_out/` under the working
/// directory (the checkout the benchmark runs from).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

fn write_file(path: &Path, body: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, body)
}

/// Renders a ledger as JSON: each row with calls, self time, ns per
/// call and share, then the unattributed remainder.
pub fn ledger_json(ledger: &Ledger, info: &[(&str, f64)]) -> String {
    let mut out = String::from("{\n  \"total_s\": ");
    let _ = write!(out, "{},\n  \"rows\": [\n", ledger.total_ns as f64 / 1e9);
    let shares = ledger.shares_pct();
    for (i, (row, share)) in ledger.rows.iter().zip(shares).enumerate() {
        let _ = writeln!(
            out,
            "    {{\"layer\": \"{}\", \"source\": \"{}\", \"calls\": {}, \"self_s\": {}, \"ns_per_call\": {}, \"share_pct\": {}}}{}",
            row.layer,
            row.source,
            row.calls,
            row.self_ns as f64 / 1e9,
            row.ns_per_call(),
            share,
            if i + 1 < ledger.rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"unattributed_s\": {},\n  \"unattributed_pct\": {},\n  \"info\": {{",
        ledger.unattributed_ns() as f64 / 1e9,
        ledger.unattributed_pct()
    );
    for (i, (k, v)) in info.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    out.push_str("}\n}\n");
    out
}

/// Prints a ledger as a table on stderr.
pub fn print_ledger(title: &str, ledger: &Ledger) {
    eprintln!(
        "---- ledger: {title} (total {:.3} s) ----",
        ledger.total_ns as f64 / 1e9
    );
    eprintln!(
        "{:<22} {:>6} {:>12} {:>12} {:>10} {:>7}",
        "layer", "source", "calls", "self_s", "ns/call", "share%"
    );
    for (row, share) in ledger.rows.iter().zip(ledger.shares_pct()) {
        eprintln!(
            "{:<22} {:>6} {:>12} {:>12.4} {:>10.1} {:>7.2}",
            row.layer,
            row.source,
            row.calls,
            row.self_ns as f64 / 1e9,
            row.ns_per_call(),
            share
        );
    }
    eprintln!(
        "{:<22} {:>6} {:>12} {:>12.4} {:>10} {:>7.2}",
        "unattributed",
        "",
        "",
        ledger.unattributed_ns() as f64 / 1e9,
        "",
        ledger.unattributed_pct()
    );
}

/// Writes a traced run's artifacts: the ledger (if any), the benchmark
/// spans, and the program's own flight-recorder rings.
pub fn write_trace_artifacts(stem: &str, ledger: Option<&str>, spans: &SpanLog) {
    let dir = out_dir();
    if let Some(body) = ledger {
        let path = dir.join(format!("{stem}.ledger.json"));
        if let Err(e) = write_file(&path, body) {
            eprintln!("btbench: cannot write {}: {e}", path.display());
        }
    }
    let path = dir.join(format!("{stem}.spans.json"));
    if let Err(e) = write_file(&path, &spans.to_chrome_json()) {
        eprintln!("btbench: cannot write {}: {e}", path.display());
    }
    let path = dir.join(format!("{stem}.recorder.json"));
    match btpub_obs::trace::write_chrome_trace(&path) {
        Ok(events) => eprintln!(
            "btbench: wrote {} ({} benchmark spans) and {} ({events} recorder events)",
            dir.join(format!("{stem}.spans.json")).display(),
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("btbench: cannot write {}: {e}", path.display()),
    }
}

/// Compares `digest` with the one an earlier run of the same workload
/// and seed recorded in this checkout, recording it on first sight.
/// Returns the earlier digest when they differ.
pub fn check_against_earlier_runs(key: &str, digest: u64) -> Option<u64> {
    let path = out_dir().join("digests").join(key);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(earlier) = u64::from_str_radix(text.trim(), 16) {
            return (earlier != digest).then_some(earlier);
        }
    }
    if let Err(e) = write_file(&path, &format!("{digest:016x}\n")) {
        eprintln!("btbench: cannot record digest {}: {e}", path.display());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured() -> Outcome {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.put("peak_heap_mb", 12.5);
        o.put("announces_per_s", 800.0);
        o.put("latency_p50_ms", 1.25);
        o.put("setup_s", 0.5);
        o
    }

    #[test]
    fn json_line_lists_catalogue_metrics_in_order() {
        let line = measured().json_line(false);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"announces_per_s\": {\"value\": 800, \"unit\": \"1/s\"}, \"peak_heap_mb\": {\"value\": 12.5, \"unit\": \"MB\"}}}"
        );
        // Per-layer lines carry every per-layer metric.
        let traced = measured().json_line(true);
        for (name, _) in PER_LAYER {
            assert!(traced.contains(&format!("\"{name}\": ")), "{name} missing");
        }
        assert!(traced.starts_with("{\"correct\": true"));
    }

    #[test]
    fn failed_checks_and_non_finite_values_make_the_run_incorrect() {
        let mut o = measured();
        o.check(true, || unreachable!());
        assert!(o
            .json_line(false)
            .starts_with("{\"correct\": true, \"attempted\": 3"));
        o.put("latency_p50_ms", f64::NAN);
        assert!(o.json_line(false).starts_with("{\"correct\": false"));
        let mut o = measured();
        o.check(false, || "digest mismatch".into());
        assert!(o.json_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn an_unmeasured_end_to_end_metric_is_printed_and_fails_the_run() {
        let mut o = measured();
        o.put("announces_per_s", 0.0);
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": ")), "{name} missing");
        }
        let mut o = Outcome::default();
        o.put("setup_s", 0.5);
        assert!(o.json_line(false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        for (section, catalogue) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = text.find(section).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            let listed: Vec<&str> = text[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name closes")])
                .collect();
            let ours: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(listed, ours, "{section} differs from the catalogue");
            for (name, unit) in catalogue.iter() {
                let section = &text[start..end];
                let entry = &section[section.find(&format!("\"name\": \"{name}\"")).unwrap()..];
                let entry = &entry[..entry.find('}').expect("entry closes")];
                assert!(
                    entry.contains(&format!("\"unit\": \"{unit}\"")),
                    "{name} unit"
                );
            }
        }
    }
}
