//! Property tests for the simulator's core data structures.

use btpub_sim::intervals::IntervalSet;
use btpub_sim::publisher::PublisherId;
use btpub_sim::swarm::{PeerRecord, SampleScratch, SwarmTrace};
use btpub_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn arb_peer() -> impl Strategy<Value = PeerRecord> {
    arb_peer_arriving(0u64..500_000)
}

fn arb_peer_arriving(arrivals: std::ops::Range<u64>) -> impl Strategy<Value = PeerRecord> {
    (
        any::<u32>(),
        arrivals,
        1u64..100_000,
        0u64..100_000,
        any::<bool>(),
        proptest::option::of(Just(())),
    )
        .prop_map(|(ip, arrival, dl, linger, natted, completes)| {
            let arrival = SimTime(arrival);
            match completes {
                Some(()) => {
                    let completed = arrival + SimDuration(dl);
                    PeerRecord {
                        ip,
                        arrival,
                        completed: Some(completed),
                        departure: completed + SimDuration(linger),
                        natted,
                        abort_progress: 1.0,
                    }
                }
                None => PeerRecord {
                    ip,
                    arrival,
                    completed: None,
                    departure: arrival + SimDuration(dl),
                    natted,
                    abort_progress: 0.3,
                },
            }
        })
}

/// Which selection branch the reference sampler took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    Empty,
    Small,
    Large,
}

/// Reference sampler: the record-scanning selection the trace used before
/// it kept dense arrival/departure columns. The arrival window comes from
/// `peers()` directly and activity from `PeerRecord::active`; the branch
/// choice, Fisher-Yates subsample and rejection loop are the same, so it
/// must pick the same peers and draw the same RNG sequence.
fn reference_sample(
    trace: &SwarmTrace,
    t: SimTime,
    want: usize,
    rng: &mut StdRng,
) -> (Vec<PeerRecord>, Branch) {
    let peers = trace.peers();
    let active = peers.iter().filter(|p| p.active(t)).count();
    if active == 0 || want == 0 {
        return (Vec::new(), Branch::Empty);
    }
    let max_residency = peers
        .iter()
        .map(|p| p.departure.since(p.arrival).secs())
        .max()
        .unwrap_or(0);
    let window_start = t - SimDuration(max_residency);
    let lo = peers.partition_point(|p| p.arrival < window_start);
    let hi = peers.partition_point(|p| p.arrival <= t);
    let window = &peers[lo..hi];
    let mut idxs: Vec<usize> = Vec::new();
    if active <= want || window.len() <= want * 4 {
        idxs.extend(window.iter().enumerate().filter(|(_, p)| p.active(t)).map(|(i, _)| i));
        if idxs.len() > want {
            for i in 0..want {
                let j = rng.gen_range(i..idxs.len());
                idxs.swap(i, j);
            }
            idxs.truncate(want);
        }
        return (idxs.iter().map(|&i| window[i]).collect(), Branch::Small);
    }
    let mut picked = std::collections::HashSet::new();
    let mut attempts = 0usize;
    while idxs.len() < want && attempts < want * 40 {
        attempts += 1;
        let idx = rng.gen_range(0..window.len());
        if window[idx].active(t) && picked.insert(idx) {
            idxs.push(idx);
        }
    }
    (idxs.iter().map(|&i| window[i]).collect(), Branch::Large)
}

proptest! {
    /// The O(log n) indexed counts must agree with a brute-force scan at
    /// arbitrary probe times, for arbitrary peer traces.
    #[test]
    fn counts_match_bruteforce(
        peers in proptest::collection::vec(arb_peer(), 0..120),
        probes in proptest::collection::vec(0u64..700_000, 20),
    ) {
        let trace = SwarmTrace::new(
            PublisherId(0),
            0,
            SimTime(0),
            SimTime(0),
            IntervalSet::new(),
            None,
            peers.clone(),
        );
        for probe in probes {
            let t = SimTime(probe);
            let active = peers.iter().filter(|p| p.active(t)).count();
            let seeding = peers.iter().filter(|p| p.seeding(t)).count();
            prop_assert_eq!(trace.active_count(t), active);
            prop_assert_eq!(trace.seeder_count(t), seeding);
            prop_assert_eq!(trace.leecher_count(t), active - seeding);
        }
    }

    /// Samples are always active, distinct, and at most `want`.
    #[test]
    fn samples_are_valid(
        peers in proptest::collection::vec(arb_peer(), 1..150),
        probe in 0u64..700_000,
        want in 1usize..64,
        seed in any::<u64>(),
    ) {
        let trace = SwarmTrace::new(
            PublisherId(0), 0, SimTime(0), SimTime(0), IntervalSet::new(), None, peers,
        );
        let t = SimTime(probe);
        let mut rng = btpub_sim::rngs::derive(seed, "prop", 0);
        let sample = trace.sample_active(t, want, &mut rng);
        prop_assert!(sample.len() <= want);
        prop_assert!(sample.len() <= trace.active_count(t));
        prop_assert!(sample.iter().all(|p| p.active(t)));
        // Distinct records (by pointer identity via arrival+ip pair).
        let mut keys: Vec<(u64, u32)> = sample.iter().map(|p| (p.arrival.0, p.ip)).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        // Duplicate (arrival, ip) pairs can exist in the input; the sample
        // may legitimately contain two identical-looking records, so only
        // check when all inputs are unique.
        if before == trace.peers().iter().map(|p| (p.arrival.0, p.ip)).collect::<std::collections::HashSet<_>>().len() {
            prop_assert_eq!(keys.len(), before);
        }
    }

    /// The column-reading sampler picks exactly what the record-scanning
    /// reference picks, on both selection branches, and leaves the RNG in
    /// the same state; the columns copy the `peers` fields they mirror.
    #[test]
    fn sample_matches_reference_scan(
        // Arrivals packed into the first 20 000 s against residencies of
        // up to 200 000 s: at the early probes most of the trace overlaps,
        // so small `want`s reach the rejection branch.
        peers in proptest::collection::vec(arb_peer_arriving(0u64..20_000), 40..200),
        probes in proptest::collection::vec(0u64..250_000, 12),
        seed in any::<u64>(),
    ) {
        let trace = SwarmTrace::new(
            PublisherId(0), 0, SimTime(0), SimTime(0), IntervalSet::new(), None, peers,
        );
        let arrivals: Vec<u64> = trace.peers().iter().map(|p| p.arrival.0).collect();
        let departures: Vec<u64> = trace.peers().iter().map(|p| p.departure.0).collect();
        prop_assert_eq!(trace.arrival_column(), &arrivals[..]);
        prop_assert_eq!(trace.departure_column(), &departures[..]);

        let mut scratch = SampleScratch::default();
        let mut out = Vec::new();
        let mut branches = Vec::new();
        // 20 000 s: every peer has arrived and none can have left yet.
        // Each peer's own arrival and departure instants probe the
        // boundaries of the activity test.
        let edges: Vec<u64> = trace
            .peers()
            .iter()
            .step_by(8)
            .flat_map(|p| [p.arrival.0, p.departure.0])
            .collect();
        for (k, probe) in probes.into_iter().chain([20_000]).chain(edges).enumerate() {
            let t = SimTime(probe);
            for want in [0usize, 1, 2, 3, 8, 50, 300] {
                let mut rng_ref = btpub_sim::rngs::derive(seed, "oracle", (k * 1000 + want) as u64);
                let mut rng_col = rng_ref.clone();
                let (expected, branch) = reference_sample(&trace, t, want, &mut rng_ref);
                out.clear();
                trace.sample_active_into(t, want, &mut rng_col, &mut scratch, &mut out);
                prop_assert_eq!(&out, &expected, "t={:?} want={} branch={:?}", t, want, branch);
                prop_assert!(rng_col == rng_ref, "RNG state diverged at t={:?} want={}", t, want);
                branches.push(branch);
            }
        }
        prop_assert!(branches.contains(&Branch::Small));
        prop_assert!(branches.contains(&Branch::Large));
    }

    /// Peer completion is monotone in time and bounded.
    #[test]
    fn completion_monotone(peer in arb_peer(), a in 0u64..700_000, b in 0u64..700_000) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let c_lo = peer.completion(SimTime(lo));
        let c_hi = peer.completion(SimTime(hi));
        prop_assert!((0.0..=1.0).contains(&c_lo));
        prop_assert!((0.0..=1.0).contains(&c_hi));
        prop_assert!(c_hi >= c_lo - 1e-12);
    }
}
