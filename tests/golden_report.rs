//! Golden-report fixtures: the tiny-scale reports are pinned byte for
//! byte — pb10 clean and hostile, plus mn08 (no usernames, so every
//! analysis is IP-keyed) and pb09 (one tracker query per torrent) —
//! through both drivers, serial and parallel.
//!
//! The hotpath work (FxHash maps, interned symbols, scratch buffers,
//! coarsened pool tasks) is only admissible because it cannot change a
//! single report byte. The determinism tests compare `--jobs 1` against
//! `--jobs N` *within* one build, which would miss a change that shifts
//! both the same way; these fixtures compare against bytes committed to
//! the repository, so any semantic drift — faster or not — fails loudly
//! with a line-level diff.
//!
//! Regenerating (only after an *intentional* report change):
//! `./target/release/repro --scenario {pb10,mn08,pb09} --scale tiny
//! [--fault-profile hostile] 2>/dev/null` over each fixture file.

use btpub::{Scale, Scenario, StreamOptions, StreamStudy, Study};
use btpub_faults::FaultProfile;
use btpub_par::Jobs;
use std::fmt::Write as _;
use std::sync::Mutex;

/// The jobs policy and the flight-recorder gate are process-global, so
/// the test functions here take this lock rather than run concurrently
/// and fight over `set_global` / `trace::set_enabled`.
static GLOBALS: Mutex<()> = Mutex::new(());

/// Renders exactly what `repro --scenario <name> --scale tiny` prints to
/// stdout (see `run_scenario` in crates/bench/src/bin/repro.rs).
fn render_tiny(scenario: &Scenario, jobs: usize) -> String {
    btpub_par::set_global(Jobs::new(jobs));
    let study = Study::run(scenario);
    let analyses = study.analyze();
    let mut out = header(scenario);
    write!(out, "{}", analyses.experiments().full_report()).unwrap();
    out
}

/// The same report through the streaming pipeline (`repro --stream`):
/// bounded channel, record-at-a-time aggregation, quantile sketches —
/// and still not one byte of drift from the committed fixtures.
fn render_tiny_streamed(scenario: &Scenario, jobs: usize) -> String {
    btpub_par::set_global(Jobs::new(jobs));
    let study = StreamStudy::run(scenario, &StreamOptions::default());
    let mut out = header(scenario);
    write!(out, "{}", study.full_report()).unwrap();
    out
}

fn header(scenario: &Scenario) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "################ scenario {} ################",
        scenario.name
    )
    .unwrap();
    writeln!(
        out,
        "# fault-profile: {}",
        scenario.crawler.fault_profile.name
    )
    .unwrap();
    out
}

fn pb10_tiny(profile: FaultProfile) -> Scenario {
    let mut scenario = Scenario::pb10(Scale::tiny());
    scenario.crawler.fault_profile = profile;
    scenario
}

/// Points at the first diverging line so a failure is debuggable.
fn assert_matches_fixture(produced: &str, fixture: &str, what: &str) {
    if produced == fixture {
        return;
    }
    for (i, (got, want)) in produced.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "{what}: first divergence from committed fixture at line {}",
            i + 1
        );
    }
    panic!(
        "{what}: identical common prefix but different lengths ({} vs {} fixture bytes)",
        produced.len(),
        fixture.len()
    );
}

// One test function per scenario family, each holding `GLOBALS`: the
// configurations must run sequentially.
#[test]
fn pb10_reports_match_committed_fixtures_at_all_jobs_and_profiles() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let clean = include_str!("fixtures/golden_pb10_tiny_clean.txt");
    let hostile = include_str!("fixtures/golden_pb10_tiny_hostile.txt");
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_tiny(&pb10_tiny(FaultProfile::clean()), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}"),
        );
        assert_matches_fixture(
            &render_tiny(&pb10_tiny(FaultProfile::hostile()), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}"),
        );
    }
    // The streaming pipeline against the *same* fixtures: the bounded
    // channel, the record-at-a-time fold, and the quantile sketches
    // behind the box-plot sections must reproduce the committed bytes
    // exactly, serial and parallel.
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_tiny_streamed(&pb10_tiny(FaultProfile::clean()), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}, streamed"),
        );
        assert_matches_fixture(
            &render_tiny_streamed(&pb10_tiny(FaultProfile::hostile()), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}, streamed"),
        );
    }
    // Same four configurations with the flight recorder armed, against
    // the *same* fixtures: recording must not move a single report byte.
    // (The recorder writes only to per-thread rings drained here, never
    // to the registry or stdout.)
    btpub_obs::trace::set_enabled(true);
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_tiny(&pb10_tiny(FaultProfile::clean()), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}, recorder armed"),
        );
        assert_matches_fixture(
            &render_tiny(&pb10_tiny(FaultProfile::hostile()), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}, recorder armed"),
        );
    }
    let snap = btpub_obs::trace::drain();
    assert!(
        snap.event_count() > 0,
        "armed runs must actually have recorded events"
    );
    // And again with deterministic sampling installed: dropping events
    // at the recorder is just as forbidden from moving report bytes as
    // recording them.
    btpub_obs::trace::set_sample_spec("tracker.announce:3,sim.engine.tick:5,seed:7")
        .expect("sample spec parses");
    for jobs in [1, 4] {
        assert_matches_fixture(
            &render_tiny(&pb10_tiny(FaultProfile::clean()), jobs),
            clean,
            &format!("clean profile, --jobs {jobs}, recorder armed + sampled"),
        );
        assert_matches_fixture(
            &render_tiny(&pb10_tiny(FaultProfile::hostile()), jobs),
            hostile,
            &format!("hostile profile, --jobs {jobs}, recorder armed + sampled"),
        );
    }
    btpub_obs::trace::set_sample_spec("").expect("clearing sample spec");
    btpub_obs::trace::set_enabled(false);
    let snap = btpub_obs::trace::drain();
    assert!(
        snap.event_count() > 0,
        "sampled armed runs must still record the kept events"
    );
}

#[test]
fn mn08_and_pb09_reports_match_committed_fixtures_at_all_jobs() {
    let _globals = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let fixtures = [
        (
            Scenario::mn08(Scale::tiny()),
            include_str!("fixtures/golden_mn08_tiny_clean.txt"),
        ),
        (
            Scenario::pb09(Scale::tiny()),
            include_str!("fixtures/golden_pb09_tiny_clean.txt"),
        ),
    ];
    for (scenario, fixture) in &fixtures {
        for jobs in [1, 4] {
            assert_matches_fixture(
                &render_tiny(scenario, jobs),
                fixture,
                &format!("{}, --jobs {jobs}", scenario.name),
            );
            assert_matches_fixture(
                &render_tiny_streamed(scenario, jobs),
                fixture,
                &format!("{}, --jobs {jobs}, streamed", scenario.name),
            );
        }
    }
}
