//! The crawl's per-tick span is timed only while the flight recorder is
//! armed. This is the structural gate on the disarmed tax: a disarmed
//! crawl must not record a single `sim.engine.tick` span, and an armed
//! one must record exactly one per dispatched event.
//!
//! One `#[test]` in its own file (so its own process): the metric
//! registry and the recorder's on/off gate are process-global.

use btpub::{Scale, Scenario};
use btpub_sim::Ecosystem;

/// What one crawl added to the counters this test reads.
#[derive(Debug)]
struct Delta {
    tick_spans: u64,
    ticks: u64,
    queries: u64,
    announces: u64,
}

fn snapshot() -> [u64; 4] {
    let reg = btpub_obs::global();
    [
        reg.histogram("span.sim.engine.tick.ns").count(),
        reg.counter("crawler.engine.ticks").value(),
        reg.counter("crawler.query.total").value(),
        reg.counter("tracker.announce.total").value(),
    ]
}

fn crawl(eco: &Ecosystem, scenario: &Scenario, armed: bool) -> Delta {
    btpub_obs::trace::set_enabled(armed);
    let before = snapshot();
    let dataset = btpub_crawler::run_crawl(eco, &scenario.crawler);
    let after = snapshot();
    btpub_obs::trace::set_enabled(false);
    let _ = btpub_obs::trace::drain();
    assert!(!dataset.torrents.is_empty(), "the crawl monitored nothing");
    let d = |i: usize| after[i] - before[i];
    Delta {
        tick_spans: d(0),
        ticks: d(1),
        queries: d(2),
        announces: d(3),
    }
}

#[test]
fn tick_span_records_only_while_armed() {
    let scenario = Scenario::pb10(Scale::tiny());
    let eco = Ecosystem::generate(scenario.eco.clone());

    let disarmed = crawl(&eco, &scenario, false);
    assert!(disarmed.ticks > 0, "{disarmed:?}");
    assert_eq!(disarmed.tick_spans, 0, "disarmed crawl timed ticks: {disarmed:?}");
    assert_eq!(disarmed.queries, disarmed.announces, "{disarmed:?}");

    let armed = crawl(&eco, &scenario, true);
    assert_eq!(armed.tick_spans, armed.ticks, "one span per dispatch: {armed:?}");
    assert_eq!(armed.queries, armed.announces, "{armed:?}");

    // Arming the recorder changes what is timed, not what is simulated.
    assert_eq!(armed.ticks, disarmed.ticks);
    assert_eq!(armed.queries, disarmed.queries);
}
