//! Arithmetic the benchmark reports with: medians, the tail-percentile
//! rule, due-time latency accounting for the open-loop generator, the
//! per-layer ledger, and a stable digest for report bytes.

/// The median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Whether a repeated measurement runs again after `done` repetitions
/// that took `spent`: at least `min` times, then while `budget` lasts,
/// at most `max` times.
pub fn another_rep(
    done: usize,
    spent: std::time::Duration,
    min: usize,
    max: usize,
    budget: std::time::Duration,
) -> bool {
    done < min || (done < max && spent < budget)
}

/// Minimum number of samples that must lie beyond a reported tail
/// percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A percentile read from a sample set, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the chosen rank.
    pub value: u64,
    /// The percentile actually reported, in `(0, 1]`.
    pub q: f64,
    /// Samples the percentile was read from.
    pub n: usize,
}

/// Nearest-rank percentile `q` of ascending `sorted` samples.
pub fn percentile(sorted: &[u64], q: f64) -> Option<Percentile> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile {
        value: sorted[rank - 1],
        q: rank as f64 / n as f64,
        n,
    })
}

/// The tail percentile the benchmark reports: `want` (e.g. 0.99) when at
/// least [`TAIL_MIN_BEYOND`] samples lie beyond it, otherwise the
/// highest percentile that still has that many beyond it. `None` when
/// the sample set is too small to have any such percentile.
pub fn tail_percentile(sorted: &[u64], want: f64) -> Option<Percentile> {
    let n = sorted.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let wanted_rank = ((want * n as f64).ceil() as usize).clamp(1, n);
    // Samples beyond rank r (1-based) are n - r.
    let rank = wanted_rank.min(n - TAIL_MIN_BEYOND);
    Some(Percentile {
        value: sorted[rank - 1],
        q: rank as f64 / n as f64,
        n,
    })
}

/// One request of an open-loop schedule, in nanoseconds from the start
/// of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the generator actually sent it: the due time, or later when
    /// the client's previous request was still unanswered or the
    /// generator woke late.
    pub sent_ns: u64,
    /// When its reply arrived.
    pub replied_ns: u64,
}

impl Timed {
    /// Latency charged to the system: from when the request was due to
    /// when its reply arrived. Any delay before the send counts, whether
    /// the system held it (a client's earlier request unanswered) or the
    /// generator woke late because the system's threads held the CPU;
    /// [`Self::late_ns`] reports the part before the send.
    pub fn latency_ns(&self) -> u64 {
        self.replied_ns.saturating_sub(self.due_ns)
    }

    /// How late the generator sent it, for whatever reason.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// Rate the generator actually achieved: requests sent, given as
/// `(due_ns, sent_ns)`, over the span from the first due time to the
/// last send.
pub fn achieved_per_s(sent: &[(u64, u64)]) -> f64 {
    let (Some(first), Some(last)) = (
        sent.iter().map(|s| s.0).min(),
        sent.iter().map(|s| s.1).max(),
    ) else {
        return 0.0;
    };
    if sent.len() < 2 || last <= first {
        return 0.0;
    }
    // n sends span n - 1 intervals.
    (sent.len() - 1) as f64 / ((last - first) as f64 / 1e9)
}

/// One row of the per-layer ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Layer name (module-based, e.g. `tracker.announce`).
    pub layer: String,
    /// Calls (or items) the layer handled.
    pub calls: u64,
    /// Self time in nanoseconds: time not attributed to any other row.
    pub self_ns: u64,
    /// How the row was measured: `span`, `reg` or `lap`.
    pub source: &'static str,
}

impl LedgerRow {
    /// Nanoseconds per call (0 for a row with no calls).
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Disjoint layer rows that, with the unattributed remainder, make up a
/// measured wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// The wall time the rows explain, nanoseconds.
    pub total_ns: u64,
    /// Disjoint rows on the critical path.
    pub rows: Vec<LedgerRow>,
}

impl Ledger {
    /// Sum of the rows' self time.
    pub fn attributed_ns(&self) -> i128 {
        self.rows.iter().map(|r| i128::from(r.self_ns)).sum()
    }

    /// Wall time no row explains. Negative when rows overlap in time
    /// (e.g. a lap over-estimates its layer).
    pub fn unattributed_ns(&self) -> i128 {
        i128::from(self.total_ns) - self.attributed_ns()
    }

    /// [`Self::unattributed_ns`] as a percentage of the total.
    pub fn unattributed_pct(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.unattributed_ns() as f64 / self.total_ns as f64 * 100.0
    }

    /// Each row's share of the total, percent, in row order.
    pub fn shares_pct(&self) -> Vec<f64> {
        self.rows
            .iter()
            .map(|r| {
                if self.total_ns == 0 {
                    0.0
                } else {
                    r.self_ns as f64 / self.total_ns as f64 * 100.0
                }
            })
            .collect()
    }
}

/// FNV-1a over `bytes`: a digest that is stable across processes,
/// toolchains and platforms, for comparing report and snapshot bytes.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Due times (ns from the schedule start) of `n` Poisson arrivals at a
/// mean of `rate_per_s`, drawn from `seed`. Random gaps keep the
/// schedule from phase-locking with the server's own polling period.
pub fn arrival_schedule(seed: u64, n: usize, rate_per_s: f64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut t = 0.0f64;
    (0..n as u64)
        .map(|k| {
            let due = t as u64;
            // Uniform in (0, 1) from the top 53 bits.
            let u = ((splitmix64(seed ^ k.wrapping_mul(0xA24B_AED4_963E_E407)) >> 11) as f64 + 0.5)
                / (1u64 << 53) as f64;
            t -= u.ln() * mean_gap_ns;
            due
        })
        .collect()
}

/// The rate a schedule of due times offers: its arrivals over its span.
/// A short Poisson schedule strays from its mean rate, so a generator is
/// held to the rate its own schedule offered.
pub fn offered_per_s(due_ns: &[u64]) -> f64 {
    let on_time: Vec<(u64, u64)> = due_ns.iter().map(|&d| (d, d)).collect();
    achieved_per_s(&on_time)
}

/// SplitMix64: expands a benchmark `--seed` into a scenario seed.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn another_rep_honours_min_max_and_budget() {
        use std::time::Duration;
        let budget = Duration::from_secs(1);
        // The minimum runs even when the budget is spent.
        assert!(another_rep(2, Duration::from_secs(5), 3, 10, budget));
        // Past the minimum, the budget decides...
        assert!(another_rep(3, Duration::from_millis(999), 3, 10, budget));
        assert!(!another_rep(3, budget, 3, 10, budget));
        // ...up to the maximum.
        assert!(!another_rep(10, Duration::ZERO, 3, 10, budget));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=2000).collect();
        // 2000 samples: p99 is rank 1980 with 20 beyond it.
        let p = tail_percentile(&samples, 0.99).unwrap();
        assert_eq!(p.value, 1980);
        assert_eq!(p.q, 0.99);
        assert_eq!(p.n, 2000);
        // 100 samples: p99 would leave 1 beyond; fall back to rank 90.
        let samples: Vec<u64> = (1..=100).collect();
        let p = tail_percentile(&samples, 0.99).unwrap();
        assert_eq!(p.value, 90);
        assert_eq!(p.q, 0.90);
        assert_eq!(samples.len() - 90, TAIL_MIN_BEYOND);
        // Exactly 1000 samples: p99 has exactly ten beyond it.
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail_percentile(&samples, 0.99).unwrap().value, 990);
        // Too few samples for any tail.
        assert_eq!(tail_percentile(&[1, 2, 3], 0.99), None);
        assert_eq!(tail_percentile(&(1..=10).collect::<Vec<_>>(), 0.5), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&samples, 0.5).unwrap().value, 5);
        assert_eq!(percentile(&samples, 0.51).unwrap().value, 6);
        assert_eq!(percentile(&samples, 1.0).unwrap().value, 10);
        assert_eq!(percentile(&samples, 0.0).unwrap().value, 1);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn latency_counts_from_due_time() {
        // On schedule: latency is the round trip.
        let ok = Timed {
            due_ns: 1_000,
            sent_ns: 1_000,
            replied_ns: 1_150,
        };
        assert_eq!(ok.latency_ns(), 150);
        assert_eq!(ok.late_ns(), 0);
        // Sent 5 µs late, for whatever reason (the client's previous
        // request unanswered, or the generator woke late): the wait is
        // charged to the request and also reported as lateness.
        let late = Timed {
            due_ns: 2_000,
            sent_ns: 7_000,
            replied_ns: 7_150,
        };
        assert_eq!(late.latency_ns(), 5_150);
        assert_eq!(late.late_ns(), 5_000);
        // Clock reads never make latency or lateness negative.
        let odd = Timed {
            due_ns: 9,
            sent_ns: 5,
            replied_ns: 4,
        };
        assert_eq!(odd.latency_ns(), 0);
        assert_eq!(odd.late_ns(), 0);
    }

    #[test]
    fn achieved_rate_reflects_a_generator_that_fell_behind() {
        // 1000/s schedule, sent on time: 1000/s achieved.
        let on_time: Vec<(u64, u64)> = (0..1001u64)
            .map(|i| (i * 1_000_000, i * 1_000_000))
            .collect();
        assert!((achieved_per_s(&on_time) - 1000.0).abs() < 1e-6);
        // Every send slips by 1 ms per request: half the offered rate.
        let behind: Vec<(u64, u64)> = (0..1001u64)
            .map(|i| (i * 1_000_000, i * 2_000_000))
            .collect();
        assert!((achieved_per_s(&behind) - 500.0).abs() < 1e-6);
        assert_eq!(achieved_per_s(&on_time[..1]), 0.0);
    }

    #[test]
    fn ledger_rows_and_remainder_sum_to_the_total() {
        let ledger = Ledger {
            total_ns: 10_000,
            rows: vec![
                LedgerRow {
                    layer: "a".into(),
                    calls: 4,
                    self_ns: 6_000,
                    source: "reg",
                },
                LedgerRow {
                    layer: "b".into(),
                    calls: 0,
                    self_ns: 3_000,
                    source: "span",
                },
            ],
        };
        assert_eq!(ledger.attributed_ns(), 9_000);
        assert_eq!(ledger.unattributed_ns(), 1_000);
        assert!((ledger.unattributed_pct() - 10.0).abs() < 1e-12);
        let shares: f64 = ledger.shares_pct().iter().sum();
        assert!((shares + ledger.unattributed_pct() - 100.0).abs() < 1e-9);
        assert_eq!(ledger.rows[0].ns_per_call(), 1_500.0);
        assert_eq!(ledger.rows[1].ns_per_call(), 0.0);
        // Overlapping rows show up as a negative remainder, not a clamp.
        let over = Ledger {
            total_ns: 100,
            rows: vec![LedgerRow {
                layer: "x".into(),
                calls: 1,
                self_ns: 150,
                source: "lap",
            }],
        };
        assert_eq!(over.unattributed_ns(), -50);
        assert!((over.unattributed_pct() + 50.0).abs() < 1e-12);
    }

    #[test]
    fn arrival_schedule_keeps_the_mean_rate() {
        let due = arrival_schedule(7, 20_000, 1000.0);
        assert_eq!(due, arrival_schedule(7, 20_000, 1000.0));
        assert_ne!(due, arrival_schedule(8, 20_000, 1000.0));
        assert_eq!(due[0], 0);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        // 20 000 arrivals at 1000/s span about 20 s (the mean gap's
        // standard error is under 1%).
        let mean_gap_ms = due[19_999] as f64 / 19_999.0 / 1e6;
        assert!(
            (mean_gap_ms - 1.0).abs() < 0.03,
            "mean gap {mean_gap_ms} ms"
        );
        // Exponential gaps: about 1 - e^-1 of them are shorter than the
        // mean.
        let short = due.windows(2).filter(|w| w[1] - w[0] < 1_000_000).count();
        let share = short as f64 / 19_999.0;
        assert!((share - 0.632).abs() < 0.02, "short-gap share {share}");
    }

    #[test]
    fn offered_rate_is_the_schedules_own() {
        // 500 arrivals at a mean of 32/s stray from 32/s; a generator
        // that sent each one 50 us late achieved what was offered.
        let due = arrival_schedule(11, 500, 32.0);
        let offered = offered_per_s(&due);
        let sends: Vec<(u64, u64)> = due.iter().map(|&d| (d, d + 50_000)).collect();
        assert!((offered - 32.0).abs() < 32.0 * 0.2, "offered {offered}");
        assert!((achieved_per_s(&sends) - offered).abs() < 1e-3 * offered);
        assert_eq!(offered_per_s(&due[..1]), 0.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"report"), digest(b"reporT"));
    }
}
