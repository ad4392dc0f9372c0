//! Before/after snapshots of the program's own `btpub_obs` registry, so
//! the benchmark can read what one phase added to each counter and
//! histogram.

use std::collections::BTreeMap;

/// One histogram's totals and log2 bucket counts (keyed by lower bound).
#[derive(Debug, Clone, Default)]
struct Hist {
    count: u64,
    sum: u64,
    buckets: BTreeMap<u64, u64>,
}

/// A point-in-time copy of every counter and histogram.
#[derive(Debug, Clone, Default)]
pub struct RegSnap {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl RegSnap {
    /// Copies the global registry.
    pub fn take() -> RegSnap {
        let reg = btpub_obs::global();
        RegSnap {
            counters: reg.counters().into_iter().collect(),
            hists: reg
                .histograms()
                .into_iter()
                .map(|(name, h)| {
                    (
                        name,
                        Hist {
                            count: h.count(),
                            sum: h.sum(),
                            buckets: h.bucket_counts().into_iter().collect(),
                        },
                    )
                })
                .collect(),
        }
    }

    /// What happened between `self` (before) and `after`.
    pub fn delta(&self, after: &RegSnap) -> RegDelta {
        let counters = after
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v - self.counters.get(k).copied().unwrap_or(0)))
            .collect();
        let hists = after
            .hists
            .iter()
            .map(|(k, h)| {
                let before = self.hists.get(k).cloned().unwrap_or_default();
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(lo, c)| (*lo, c - before.buckets.get(lo).copied().unwrap_or(0)))
                    .filter(|(_, c)| *c > 0)
                    .collect();
                (
                    k.clone(),
                    Hist {
                        count: h.count - before.count,
                        sum: h.sum - before.sum,
                        buckets,
                    },
                )
            })
            .collect();
        RegDelta { counters, hists }
    }
}

/// Counter and histogram increments over one phase.
#[derive(Debug, Clone, Default)]
pub struct RegDelta {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Hist>,
}

impl RegDelta {
    /// Increment of counter `name` (0 when it never moved).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sum of the increments of every counter named `prefix*suffix`.
    pub fn counter_sum(&self, prefix: &str, suffix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Samples added to histogram `name`.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.count)
    }

    /// Sum of the samples added to histogram `name`.
    pub fn hist_sum(&self, name: &str) -> u64 {
        self.hists.get(name).map_or(0, |h| h.sum)
    }

    /// The `q`-quantile of the samples added to histogram `name`,
    /// interpolated inside its log2 bucket (the registry keeps no finer
    /// resolution). 0 when nothing was added.
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let Some(h) = self.hists.get(name) else {
            return 0.0;
        };
        if h.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * h.count as f64).max(1.0);
        let mut seen = 0u64;
        for (&lo, &c) in &h.buckets {
            if (seen + c) as f64 >= rank {
                let hi = if lo == 0 { 1 } else { lo.saturating_mul(2) };
                return lo as f64 + (hi - lo) as f64 * (rank - seen as f64) / c as f64;
            }
            seen += c;
        }
        0.0
    }
}
