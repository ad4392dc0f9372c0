//! The two campaign workloads: `campaign_pb10` (materialized `Study`,
//! jobs 1) and `campaign_long` (`StreamStudy` over 25x the campaign
//! length, jobs 2, spill and checkpoint directories on). A run crawls
//! several worlds drawn from its seed, one after the other, so that one
//! unusually small or large world does not set the run's figures.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use btpub::analysis::streaming::{RecordDigest, StreamAggregator, StreamConfig};
use btpub::crawler::{run_crawl_with, CollectSink, Dataset, RecordSink, TorrentRecord};
use btpub::portal::Portal;
use btpub::sim::{Ecosystem, SimTime};
use btpub::{CheckpointPolicy, Scale, Scenario, StreamOptions, StreamOutcome, StreamStudy, Study};
use btpub_stream::spill::DistinctU32;

use crate::alloc;
use crate::reg::{RegDelta, RegSnap};
use crate::report::{self, Outcome, SpanLog, PER_LAYER};
use crate::stats::{another_rep, digest, median, splitmix64, Ledger, LedgerRow};

/// Fewest worlds an untraced run crawls; `setup_s` is the median of
/// their generations.
const MIN_WORLDS: u64 = 3;
/// Re-analysis passes timed for `report_s` (the median is reported).
const REPORT_PASSES: (usize, usize, Duration) = (7, 500, Duration::from_millis(1500));
/// Folds between checkpoints in `campaign_long` (the `repro` default).
const CHECKPOINT_EVERY: u64 = 256;

/// Which campaign workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// pb10 at repro scale, materialized, jobs 1.
    Pb10,
    /// pb10 tiny x25, streamed, jobs 2.
    Long,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Pb10 => "campaign_pb10",
            Kind::Long => "campaign_long",
        }
    }

    fn jobs(self) -> usize {
        match self {
            Kind::Pb10 => 1,
            Kind::Long => 2,
        }
    }

    /// Wall time of one campaign on the reference VM (PROVENANCE.md).
    /// An untraced run crawls `--seconds` / this many worlds, so the
    /// number of worlds, and with it the inputs, depends only on the
    /// arguments.
    fn nominal_campaign_s(self) -> f64 {
        match self {
            Kind::Pb10 => 5.0,
            Kind::Long => 3.0,
        }
    }

    fn worlds(self, seconds: u64) -> u64 {
        ((seconds as f64 / self.nominal_campaign_s()).round() as u64).max(MIN_WORLDS)
    }

    /// The scenario of world `world` of `seed`. pb10 is crawled for its
    /// first 20 of 30 days, a strict prefix of the same world, so that
    /// four worlds fit in a run.
    fn scenario(self, seed: u64, world: u64) -> Scenario {
        let mut s = match self {
            Kind::Pb10 => {
                let mut s = Scenario::pb10(Scale::default_repro());
                s.crawler.horizon_secs = Some(SimTime::from_days(20.0).secs());
                s
            }
            Kind::Long => Scenario::pb10(Scale::tiny()).times(25),
        };
        s.eco.seed = splitmix64(splitmix64(seed) ^ world);
        s
    }
}

/// A ledger-bound `RecordSink`: the materialized `CollectSink`, with
/// each emit inside a program span when traced, so the crawler's tick
/// and run self times exclude it.
struct BenchSink {
    inner: CollectSink,
    traced: bool,
}

impl RecordSink for BenchSink {
    fn emit(&mut self, idx: usize, record: TorrentRecord) {
        if self.traced {
            let _span = btpub_obs::span!("bench.crawler.sink.emit");
            self.inner.emit(idx, record);
        } else {
            self.inner.emit(idx, record);
        }
    }
}

/// The finished campaign, kept for the re-analysis passes.
enum Finished {
    Materialized(Box<Study>),
    Streamed(Box<StreamStudy>),
}

impl Finished {
    fn eco(&self) -> &Ecosystem {
        match self {
            Finished::Materialized(s) => &s.eco,
            Finished::Streamed(s) => &s.eco,
        }
    }

    fn into_eco(self) -> Ecosystem {
        match self {
            Finished::Materialized(s) => s.eco,
            Finished::Streamed(s) => s.eco,
        }
    }

    /// One re-analysis pass: the report bytes from the finished campaign.
    fn report(&self) -> String {
        match self {
            Finished::Materialized(s) => s.analyze().experiments().full_report(),
            Finished::Streamed(s) => s.full_report(),
        }
    }
}

/// What one timed campaign measured.
struct Rep {
    campaign_ns: u64,
    analyze_ns: u64,
    render_ns: u64,
    digest: u64,
    records: u64,
    peak_heap_mb: f64,
    peak_crawl_mb: f64,
    peak_report_mb: f64,
    crawl_allocs: u64,
    delta: RegDelta,
    /// Streamed only: observer callbacks and the span they cover.
    folds: u64,
    callback_span_ns: u64,
}

/// Runs one campaign over `eco` and hands the ecosystem back in the
/// finished campaign.
fn run_campaign(
    kind: Kind,
    sc: &Scenario,
    eco: Ecosystem,
    traced: bool,
    scratch: &Path,
    rep_no: usize,
    spans: &mut SpanLog,
) -> Result<(Rep, Finished), String> {
    let root = spans.next_id();
    let root_start = spans.now_ns();
    let before = RegSnap::take();
    let baseline = alloc::reset_peak();
    let allocs0 = alloc::allocs();
    let t0 = Instant::now();
    let mut folds = 0u64;
    let mut first_cb: Option<Instant> = None;
    let mut last_cb: Option<Instant> = None;
    let finished = match kind {
        Kind::Pb10 => {
            let mut sink = BenchSink {
                inner: CollectSink::default(),
                traced,
            };
            spans.time("crawler.run_crawl_with", root, || {
                run_crawl_with(&eco, &sc.crawler, &mut sink)
            });
            let dataset = Dataset {
                name: sc.crawler.name.clone(),
                start: SimTime::ZERO,
                end: sc.crawler.effective_horizon(&eco),
                has_usernames: sc.crawler.collect_usernames,
                torrents: sink.inner.records,
            };
            let study = Study {
                scenario: sc.clone(),
                eco,
                dataset,
            };
            Finished::Materialized(Box::new(study))
        }
        Kind::Long => {
            let dir = scratch.join(format!("rep{rep_no}"));
            let opts = StreamOptions {
                spill_dir: Some(dir.join("spill")),
                spill_chunk: None,
                checkpoint: Some(CheckpointPolicy {
                    dir: dir.join("checkpoint"),
                    every: CHECKPOINT_EVERY,
                }),
            };
            let observer = |_: &RecordDigest| {
                folds += 1;
                if traced {
                    let now = Instant::now();
                    first_cb.get_or_insert(now);
                    last_cb = Some(now);
                }
                ControlFlow::Continue(())
            };
            let (outcome, _) = spans.time("StreamStudy::try_run_observed", root, || {
                StreamStudy::try_run_observed(sc, eco, &opts, observer)
            });
            let _ = std::fs::remove_dir_all(&dir);
            match outcome {
                Ok(StreamOutcome::Complete(study)) => Finished::Streamed(Box::new(study)),
                Ok(StreamOutcome::Interrupted { records_folded }) => {
                    return Err(format!("stream interrupted after {records_folded} folds"))
                }
                Err(e) => return Err(format!("stream checkpoint error: {e}")),
            }
        }
    };
    let crawl_allocs = alloc::allocs() - allocs0;
    let peak_crawl_abs = alloc::peak();
    let report_base = alloc::reset_peak();
    let (analyze_ns, report, render_ns) = match &finished {
        Finished::Materialized(study) => {
            let (analyses, analyze_ns) = spans.time("Study::analyze", root, || study.analyze());
            let (report, render_ns) = spans.time("Experiments::full_report", root, || {
                analyses.experiments().full_report()
            });
            (analyze_ns, report, render_ns)
        }
        Finished::Streamed(study) => {
            let (report, render_ns) =
                spans.time("StreamStudy::full_report", root, || study.full_report());
            (0, report, render_ns)
        }
    };
    let campaign_ns = t0.elapsed().as_nanos() as u64;
    let peak_report_abs = alloc::peak();
    spans.push(kind.name(), root, 0, root_start, spans.now_ns());
    let delta = before.delta(&RegSnap::take());
    let records = match &finished {
        Finished::Materialized(s) => s.dataset.torrent_count() as u64,
        Finished::Streamed(_) => folds,
    };
    let rep = Rep {
        campaign_ns,
        analyze_ns,
        render_ns,
        digest: digest(report.as_bytes()),
        records,
        peak_heap_mb: peak_crawl_abs.max(peak_report_abs).saturating_sub(baseline) as f64 / 1e6,
        peak_crawl_mb: peak_crawl_abs.saturating_sub(baseline) as f64 / 1e6,
        peak_report_mb: peak_report_abs.saturating_sub(report_base) as f64 / 1e6,
        crawl_allocs,
        delta,
        folds,
        callback_span_ns: match (first_cb, last_cb) {
            (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
            _ => 0,
        },
    };
    Ok((rep, finished))
}

/// The checks every campaign must pass: records seen equal torrents
/// discovered, and every crawler query reached the tracker.
fn check_rep(out: &mut Outcome, label: &str, rep: &Rep) {
    let discovered = rep.delta.counter("crawler.torrents.discovered");
    out.check(rep.records == discovered && discovered > 0, || {
        format!(
            "{label}: {} records reached the sink/fold but {discovered} torrents were discovered",
            rep.records
        )
    });
    let queries = rep.delta.counter("crawler.query.total");
    let announces = rep.delta.counter("tracker.announce.total");
    out.check(queries == announces && queries > 0, || {
        format!("{label}: crawler.query.total {queries} != tracker.announce.total {announces}")
    });
}

/// Times `Portal::rss` over the campaign's poll windows. Returns
/// (polls, items, ns).
fn rss_lap(eco: &Ecosystem, sc: &Scenario) -> (u64, u64, u64) {
    let portal = Portal::new(eco);
    let horizon = sc.crawler.effective_horizon(eco);
    let mut last = SimTime::ZERO;
    let mut now = SimTime::ZERO + sc.crawler.rss_poll;
    let (mut polls, mut items) = (0u64, 0u64);
    let t = Instant::now();
    while now <= horizon {
        items += black_box(portal.rss(last, now)).len() as u64;
        polls += 1;
        last = now;
        now += sc.crawler.rss_poll;
    }
    (polls, items, t.elapsed().as_nanos() as u64)
}

/// Reduces each record as it finalizes and folds the digests in
/// announcement order, timing only the reduce and fold calls.
struct FoldLapSink<'d> {
    agg: StreamAggregator<'d>,
    pending: BTreeMap<usize, RecordDigest>,
    next: usize,
    ns: u64,
    records: u64,
}

impl RecordSink for FoldLapSink<'_> {
    fn ordered(&self) -> bool {
        false
    }

    fn emit(&mut self, idx: usize, record: TorrentRecord) {
        let t = Instant::now();
        let d = RecordDigest::reduce(record);
        if idx == self.next {
            self.agg.fold(&d);
            self.next += 1;
            while let Some(d) = self.pending.remove(&self.next) {
                self.agg.fold(&d);
                self.next += 1;
            }
        } else {
            self.pending.insert(idx, d);
        }
        self.ns += t.elapsed().as_nanos() as u64;
        self.records += 1;
    }
}

/// Replays `RecordDigest::reduce` + `StreamAggregator::fold` over the
/// campaign's own records (re-crawled; the streamed run never holds
/// them). Returns (records, ns).
fn fold_lap(eco: &Ecosystem, sc: &Scenario) -> (u64, u64) {
    let cfg = StreamConfig {
        has_usernames: sc.crawler.collect_usernames,
        top_k: sc.top_k(),
    };
    let mut sink = FoldLapSink {
        agg: StreamAggregator::new(cfg, &eco.world.db, DistinctU32::in_memory()),
        pending: BTreeMap::new(),
        next: 0,
        ns: 0,
        records: 0,
    };
    run_crawl_with(eco, &sc.crawler, &mut sink);
    (sink.records, sink.ns)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Runs a campaign workload and fills `out`.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    btpub_par::set_global(btpub_par::Jobs::new(kind.jobs()));
    let scratch: PathBuf = report::out_dir().join(format!("tmp-{}", std::process::id()));
    let mut spans = SpanLog::new();

    // One campaign per world; each world is generated (the set-up) just
    // before its campaign, so only one is alive at a time. A traced run
    // crawls world 0 untraced here, then again traced below.
    let worlds = if traced { 1 } else { kind.worlds(seconds) };
    let mut gen_s = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let mut finished = None;
    for w in 0..worlds {
        let sc = kind.scenario(seed, w);
        drop(finished.take());
        let (eco, ns) = spans.time("Ecosystem::generate", 0, || {
            Ecosystem::generate(sc.eco.clone())
        });
        gen_s.push(secs(ns));
        match run_campaign(kind, &sc, eco, false, &scratch, w as usize, &mut spans) {
            Ok((rep, f)) => {
                eprintln!(
                    "btbench: {} seed {seed} world {w}: {} torrents over {:.0} days, generated in {:.3} s, campaign {:.3} s, {} records, {} announces, peak heap {:.1} MB, report {:016x}",
                    kind.name(),
                    sc.eco.torrents,
                    sc.crawler.effective_horizon(f.eco()).as_days(),
                    secs(ns),
                    secs(rep.campaign_ns),
                    rep.records,
                    rep.delta.counter("tracker.announce.total"),
                    rep.peak_heap_mb,
                    rep.digest
                );
                check_rep(out, &format!("world {w}"), &rep);
                if let Some(earlier) = report::check_against_earlier_runs(
                    &format!("{}-seed{seed}-world{w}", kind.name()),
                    rep.digest,
                ) {
                    out.failures.push(format!(
                        "world {w}: report digest {:016x} differs from an earlier run of this seed ({earlier:016x})",
                        rep.digest
                    ));
                }
                reps.push(rep);
                finished = Some(f);
            }
            Err(e) => {
                out.failures.push(e);
                let _ = std::fs::remove_dir_all(&scratch);
                return;
            }
        }
    }
    let setup_s = median(&gen_s).expect("generated at least once");
    out.attempted = reps.iter().map(|r| r.records).sum();

    if !traced {
        // Medians over the run's worlds.
        let med =
            |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>()).expect("reps");
        out.put("setup_s", setup_s);
        // The caller's request is the whole campaign: a world in, a
        // report out.
        out.put("latency_p50_ms", med(|r| r.campaign_ns as f64 / 1e6));
        out.put(
            "announces_per_s",
            med(|r| r.delta.counter("tracker.announce.total") as f64 / secs(r.campaign_ns)),
        );
        out.put("peak_heap_mb", med(|r| r.peak_heap_mb));
        out.failed = out.failures.len() as u64;
        let _ = std::fs::remove_dir_all(&scratch);
        return;
    }

    // Traced run: the untraced campaign above, then the same campaign
    // with the flight recorder armed and benchmark spans on.
    let untraced = reps.pop().expect("one untraced campaign");
    let world = finished.take().expect("finished").into_eco();
    btpub_obs::trace::set_enabled(true);
    let sc = kind.scenario(seed, 0);
    let traced_result = run_campaign(kind, &sc, world, true, &scratch, 1, &mut spans);
    btpub_obs::trace::set_enabled(false);
    let (t, finished) = match traced_result {
        Ok(r) => r,
        Err(e) => {
            out.failures.push(e);
            let _ = std::fs::remove_dir_all(&scratch);
            return;
        }
    };
    check_rep(out, "traced campaign", &t);
    out.check(t.digest == untraced.digest, || {
        format!(
            "traced report {:016x} != untraced report {:016x}",
            t.digest, untraced.digest
        )
    });

    // Re-analysis passes over the finished campaign.
    let mut report_s = Vec::new();
    let passes_start = Instant::now();
    while another_rep(
        report_s.len(),
        passes_start.elapsed(),
        REPORT_PASSES.0,
        REPORT_PASSES.1,
        REPORT_PASSES.2,
    ) {
        let (bytes, ns) = spans.time("re-analysis pass", 0, || finished.report());
        report_s.push(secs(ns));
        out.check(digest(bytes.as_bytes()) == t.digest, || {
            "a re-analysis pass changed the report bytes".into()
        });
    }
    let eco = finished.into_eco();

    // Laps on the workload's own inputs, after the timed part.
    let ((polls, rss_items, rss_ns), _) = spans.time("Portal::rss lap", 0, || rss_lap(&eco, &sc));
    let discovered = t.delta.counter("crawler.torrents.discovered");
    out.check(rss_items == discovered, || {
        format!("the RSS lap listed {rss_items} items but the crawl discovered {discovered}")
    });
    let (fold_records, fold_ns) = match kind {
        Kind::Long => {
            spans
                .time("StreamAggregator::fold lap", 0, || fold_lap(&eco, &sc))
                .0
        }
        Kind::Pb10 => (0, 0),
    };
    if kind == Kind::Long {
        out.check(fold_records == t.folds, || {
            format!(
                "fold lap saw {fold_records} records, the streamed campaign folded {}",
                t.folds
            )
        });
    }

    let d = &t.delta;
    let ticks = d.hist_count("span.sim.engine.tick.ns");
    let tick_self = d.counter("span.sim.engine.tick.self_ns");
    let run_self = d.counter("span.crawler.run.self_ns");
    let announces = d.hist_count("tracker.announce.latency_ns");
    let announce_ns = d.hist_sum("tracker.announce.latency_ns");
    let sink_calls = d.hist_count("span.bench.crawler.sink.emit.ns");
    let sink_ns = d.hist_sum("span.bench.crawler.sink.emit.ns");
    let finish_ns = d.hist_sum("span.analysis.stream_finish.ns");
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let fold_per_record = per(fold_ns, fold_records);
    // The announce and RSS time sit inside engine ticks; the loop is
    // what is left of the tick self time after both.
    let loop_ns = tick_self.saturating_sub(announce_ns + rss_ns);

    // Rows on the critical path of the traced campaign; they and the
    // remainder sum to its wall time.
    let mut rows = vec![
        LedgerRow {
            layer: "tracker.announce".into(),
            calls: announces,
            self_ns: announce_ns,
            source: "reg",
        },
        LedgerRow {
            layer: "portal.rss".into(),
            calls: polls,
            self_ns: rss_ns,
            source: "lap",
        },
        LedgerRow {
            layer: "crawler.loop".into(),
            calls: ticks,
            self_ns: loop_ns,
            source: "reg",
        },
        LedgerRow {
            layer: "crawler.queue".into(),
            calls: ticks,
            self_ns: run_self,
            source: "reg",
        },
    ];
    match kind {
        Kind::Pb10 => {
            rows.push(LedgerRow {
                layer: "crawler.sink".into(),
                calls: sink_calls,
                self_ns: sink_ns,
                source: "span",
            });
            rows.push(LedgerRow {
                layer: "analysis.analyze".into(),
                calls: 1,
                self_ns: t.analyze_ns,
                source: "span",
            });
        }
        Kind::Long => {
            rows.push(LedgerRow {
                layer: "analysis.stream_finish".into(),
                calls: 1,
                self_ns: finish_ns,
                source: "reg",
            });
        }
    }
    rows.push(LedgerRow {
        layer: "core.render".into(),
        calls: 1,
        self_ns: t.render_ns,
        source: "span",
    });
    let ledger = Ledger {
        total_ns: t.campaign_ns,
        rows,
    };

    let consumer_wait_ns = t
        .callback_span_ns
        .saturating_sub((fold_per_record * t.folds.saturating_sub(1) as f64) as u64);
    let identified = d.counter("crawler.identify.success");
    let unresolved = d.counter_sum("crawler.identify.failure.", "");
    out.put("sim.generate_s", setup_s);
    out.put("sim.engine.ticks", ticks as f64);
    out.put("crawler.loop_ns_per_tick", per(loop_ns, ticks));
    out.put("crawler.queue_ns_per_pop", per(run_self, ticks));
    out.put("portal.rss.polls", polls as f64);
    out.put("portal.rss.ns_per_poll", per(rss_ns, polls));
    out.put("tracker.announces", announces as f64);
    out.put(
        "tracker.announce_ns_p50",
        d.hist_quantile("tracker.announce.latency_ns", 0.50),
    );
    out.put(
        "tracker.announce_ns_p99",
        d.hist_quantile("tracker.announce.latency_ns", 0.99),
    );
    out.put("tracker.announce_s", secs(announce_ns));
    out.put(
        "tracker.allocs_per_announce",
        per(untraced.crawl_allocs, announces),
    );
    out.put(
        "tracker.probe.calls",
        d.counter_sum("tracker.probe.", "") as f64,
    );
    out.put(
        "crawler.identify.success_ratio",
        per(identified, identified + unresolved),
    );
    out.put("crawler.sink.records", sink_calls as f64);
    out.put("crawler.sink.emit_s", secs(sink_ns));
    out.put("stream.fold.records", fold_records as f64);
    out.put("stream.fold_ns_per_record", fold_per_record);
    out.put("stream.consumer_wait_s", secs(consumer_wait_ns));
    out.put(
        "stream.checkpoint.saved",
        d.counter("stream.checkpoint.saved") as f64,
    );
    out.put("analysis.analyze_s", secs(t.analyze_ns));
    out.put(
        "analysis.estimate_sessions_s",
        secs(d.hist_sum("span.analysis.estimate_sessions.ns")),
    );
    out.put("core.render_s", secs(t.render_ns));
    out.put("report_s", median(&report_s).expect("passes ran"));
    out.put("par.tasks", d.counter_sum("par.", ".tasks") as f64);
    out.put("par.steals", d.counter_sum("par.", ".steals") as f64);
    out.put("alloc.peak_crawl_mb", untraced.peak_crawl_mb);
    out.put("alloc.peak_report_mb", untraced.peak_report_mb);
    out.put(
        "obs.trace_overhead_pct",
        (per(t.campaign_ns, untraced.campaign_ns) - 1.0) * 100.0,
    );
    out.put("ledger.unattributed_pct", ledger.unattributed_pct());
    out.failed = out.failures.len() as u64;

    report::print_ledger(kind.name(), &ledger);
    // Beside the ledger: every per-layer value this run set, and the
    // untraced wall time the overhead row compares against.
    let info: Vec<(&str, f64)> =
        std::iter::once(("campaign_s_untraced", secs(untraced.campaign_ns)))
            .chain(
                PER_LAYER
                    .iter()
                    .filter_map(|(name, _)| out.get(name).map(|v| (*name, v))),
            )
            .collect();
    let body = report::ledger_json(&ledger, &info);
    report::write_trace_artifacts(&format!("{}-seed{seed}", kind.name()), Some(&body), &spans);
    let _ = std::fs::remove_dir_all(&scratch);
}
