//! Shared fixtures for the benchmarks and the `repro` binary.

use std::sync::OnceLock;

use btpub::{Scale, Scenario, Study};

/// A cached tiny pb10 study — benchmark setup must not dominate timings.
pub fn tiny_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::run(&Scenario::pb10(Scale::tiny())))
}
