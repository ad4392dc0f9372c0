//! The serving workloads against a live `ServeDaemon` on loopback:
//! `serve_replay` (closed loop, one client thread, UDP batch frames),
//! and the open-loop pair at a fixed offered rate: `serve_paced_udp`
//! (single BEP 15 UDP announces) and `serve_paced_http` (HTTP
//! keep-alive announces on one connection).

use std::collections::{HashMap, HashSet, VecDeque};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use btpub::sim::Ecosystem;
use btpub::tracker::http;
use btpub::tracker::serve::oracle::item_for;
use btpub::tracker::serve::script::{Op, Script};
use btpub::tracker::serve::shard::{CountsSnapshot, Plane, PlaneConfig};
use btpub::tracker::serve::wire::{self, AnnounceItem, Class};
use btpub::tracker::serve::{oracle, ServeConfig, ServeDaemon};
use btpub::{Scale, Scenario};
use btpub_faults::FaultProfile;
use btpub_proto::tracker::{AnnounceRequest, AnnounceResponse};
use btpub_proto::udp_tracker::{UdpRequest, UdpResponse};

use crate::alloc;
use crate::report::{self, Outcome, SpanLog};
use crate::stats::{
    achieved_per_s, another_rep, arrival_schedule, median, offered_per_s, percentile, splitmix64,
    tail_percentile, Timed,
};

/// Swarm shards of every daemon.
const SHARDS: usize = 8;
/// Full set-ups of a paced workload timed for `setup_s`: at least 3,
/// then while the budget lasts (the median is reported).
const SETUP_REPS: (usize, usize, Duration) = (3, 20, Duration::from_secs(1));
/// `serve_replay` replays several worlds drawn from the seed, so that
/// one world's traffic does not set the run's figures: `--seconds` /
/// `NOMINAL_REPLAY_WORLD_S` of them (the seconds one world's set-up and
/// laps take on the reference VM, PROVENANCE.md), at least
/// `MIN_REPLAY_WORLDS`, so their number depends only on the arguments.
const NOMINAL_REPLAY_WORLD_S: f64 = 5.0;
const MIN_REPLAY_WORLDS: u64 = 3;
/// Laps per world, each against a fresh daemon.
const REPLAY_LAPS: usize = 2;
/// Offered rate of each paced workload, announces per second: a tenth
/// of the 16,000/s the daemon sustained open loop, without a growing
/// backlog, in a sweep with this generator and half the clients on
/// each transport, and a sixth of the 10,000/s it sustained on UDP
/// alone (see PROVENANCE.md). At that load the latency measured is the
/// per-announce path, not a queue. The generators share it in
/// proportion to their ops (Poisson arrivals at each one's mean).
const PACED_RATE: f64 = 1600.0;
/// The synthetic script keeps the proportions of
/// `Script::from_ecosystem` on pb10 (seeds 1-3, small and repro scale):
/// about 8 announces per client and 56 clients per torrent.
const ANNOUNCES_PER_CLIENT: usize = 8;
const CLIENTS_PER_TORRENT: u32 = 56;
/// Retransmit timeout of the benchmark's UDP clients and how many
/// sends an exchange gets before it counts as failed.
const UDP_RTO: Duration = Duration::from_millis(250);
const UDP_TRIES: u32 = 4;
/// Garbage datagrams the replay sends before confirming, with a
/// connect round trip, that the daemon has read them.
const GARBAGE_BURST: usize = 16;
/// How long the HTTP generator waits for outstanding replies at the end.
const HTTP_DRAIN: Duration = Duration::from_secs(3);
/// How long before a send the generators stop sleeping and spin, so the
/// OS timer's wake-up slack does not make them late.
const SPIN_BEFORE: Duration = Duration::from_micros(100);
/// A paced run is invalid when either generator achieved less than this
/// share of its offered rate.
const MIN_ACHIEVED_SHARE: f64 = 0.95;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed-loop UDP batch replay of an ecosystem script.
    Replay,
    /// Open-loop single BEP 15 UDP announces of a synthetic script.
    PacedUdp,
    /// Open-loop HTTP announces of a synthetic script on one keep-alive
    /// connection.
    PacedHttp,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Replay => "serve_replay",
            Kind::PacedUdp => "serve_paced_udp",
            Kind::PacedHttp => "serve_paced_http",
        }
    }

    /// Transport of an op: HTTP for the well-behaved clients of
    /// `serve_paced_http`, UDP for everything else, adversarial traffic
    /// included.
    fn is_http(self, op: &Op) -> bool {
        self == Kind::PacedHttp && !op.garbled && op.client < 0xF000_0000
    }
}

/// Per-class outcome tallies, indexed by wire class.
type Tally = [u64; 8];

/// Announces whose class the observed tally cannot match with the
/// oracle's: the classes the observation is short of.
fn mismatched(oracle: &Tally, seen: &Tally) -> u64 {
    oracle
        .iter()
        .zip(seen)
        .map(|(o, s)| o.saturating_sub(*s))
        .sum()
}

/// Single BEP 15 and HTTP replies cannot tell an exact retransmit from a
/// first announce; fold the oracle's `Duplicate` into `Admitted` for them.
fn fold_duplicates(mut t: Tally) -> Tally {
    t[Class::Admitted as usize] += t[Class::Duplicate as usize];
    t[Class::Duplicate as usize] = 0;
    t
}

/// Maps a tracker failure message to its outcome class.
fn class_of_message(msg: &str) -> Class {
    match msg {
        "rate limited" => Class::RateLimited,
        "blacklisted" => Class::Blacklisted,
        "tracker down" => Class::Down,
        "dropped" => Class::Dropped,
        _ => Class::Unknown,
    }
}

/// The reference: the script applied in canonical order to a one-shard
/// plane (exactly `oracle::apply_script`), with each announce's class
/// tallied per transport (`false` = UDP, `true` = HTTP).
struct Reference {
    snapshot: String,
    udp: Tally,
    http: Tally,
}

fn reference(script: &Script, http_of: impl Fn(&Op) -> bool) -> Reference {
    let plane = Plane::new(PlaneConfig {
        seed: script.seed,
        shards: 1,
        torrents: script.torrents,
        profile: FaultProfile::clean(),
    });
    let (mut udp, mut http) = ([0u64; 8], [0u64; 8]);
    let mut out = Vec::with_capacity(1);
    for op in &script.ops {
        if op.garbled {
            let _ = plane.note_garbled(op.t);
            continue;
        }
        plane.apply_batch(std::slice::from_ref(&item_for(script, op)), &mut out);
        let tally = if http_of(op) { &mut http } else { &mut udp };
        tally[out[0].class as usize] += 1;
    }
    Reference {
        snapshot: plane.snapshot(),
        udp,
        http,
    }
}

/// Checks a daemon's shutdown snapshot against the reference; on a
/// mismatch both are kept under `.bench_out/` for diffing.
fn check_snapshot(out: &mut Outcome, got: &str, want: &str, label: &str) {
    if got == want {
        return;
    }
    let dir = report::out_dir();
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(format!("{label}.snapshot")), got);
    let _ = std::fs::write(dir.join(format!("{label}.oracle")), want);
    out.failures.push(format!(
        "{label}: daemon snapshot differs from the oracle (both kept in {})",
        dir.display()
    ));
}

fn start_daemon(script: &Script) -> std::io::Result<ServeDaemon> {
    ServeDaemon::start(ServeConfig::new(script.seed, SHARDS, script.torrents))
}

/// The workload's script: a replay of world `world`'s ecosystem for
/// `serve_replay`, a uniform synthetic script sized to `seconds` for the
/// paced pair. Also returns the seconds spent generating the ecosystem
/// (0 without one).
fn make_script(kind: Kind, seed: u64, seconds: u64, world: u64) -> (Script, f64) {
    match kind {
        Kind::Replay => {
            let mut sc = Scenario::pb10(Scale::small());
            sc.eco.seed = splitmix64(splitmix64(seed) ^ world);
            let t = Instant::now();
            let eco = Ecosystem::generate(sc.eco);
            let gen_s = t.elapsed().as_secs_f64();
            (Script::from_ecosystem(&eco), gen_s)
        }
        Kind::PacedUdp | Kind::PacedHttp => {
            let announces = (seconds as f64 * PACED_RATE).ceil() as usize;
            let clients = (announces / ANNOUNCES_PER_CLIENT).max(1) as u32;
            let torrents = (clients / CLIENTS_PER_TORRENT).max(1);
            (
                Script::synthetic(splitmix64(seed), torrents, clients, announces),
                0.0,
            )
        }
    }
}

/// Sends `datagram` and waits for the reply carrying `txn`, resending on
/// timeout. Returns the reply length, or `None` after `UDP_TRIES` sends.
fn exchange(
    socket: &UdpSocket,
    to: SocketAddr,
    datagram: &[u8],
    txn: u32,
    txn_of: fn(&[u8]) -> Option<u32>,
    buf: &mut [u8],
) -> std::io::Result<Option<usize>> {
    for _ in 0..UDP_TRIES {
        socket.send_to(datagram, to)?;
        let deadline = Instant::now() + UDP_RTO;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            socket.set_read_timeout(Some(left))?;
            match socket.recv_from(buf) {
                Ok((len, _)) if txn_of(&buf[..len]) == Some(txn) => return Ok(Some(len)),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e),
            }
        }
    }
    Ok(None)
}

fn batch_txn(data: &[u8]) -> Option<u32> {
    wire::decode_batch_response(data).map(|(txn, _)| txn)
}

fn bep15_txn(data: &[u8]) -> Option<u32> {
    match UdpResponse::decode(data) {
        Ok(UdpResponse::Connect { transaction_id, .. })
        | Ok(UdpResponse::Announce { transaction_id, .. })
        | Ok(UdpResponse::Scrape { transaction_id, .. })
        | Ok(UdpResponse::Error { transaction_id, .. }) => Some(transaction_id),
        Err(_) => None,
    }
}

/// One datagram of the replay.
enum Frame<'a> {
    Batch(Vec<AnnounceItem>),
    Garbled(&'a Op),
}

/// Splits the script into frames the way the replay client sends them:
/// up to `MAX_BATCH` announces, flushed before each garbled op.
fn for_each_frame<'a>(
    script: &'a Script,
    mut f: impl FnMut(Frame<'a>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut pending = Vec::with_capacity(wire::MAX_BATCH);
    for op in &script.ops {
        if op.garbled {
            if !pending.is_empty() {
                f(Frame::Batch(std::mem::take(&mut pending)))?;
            }
            f(Frame::Garbled(op))?;
            continue;
        }
        pending.push(item_for(script, op));
        if pending.len() == wire::MAX_BATCH {
            f(Frame::Batch(std::mem::take(&mut pending)))?;
        }
    }
    if !pending.is_empty() {
        f(Frame::Batch(pending))?;
    }
    Ok(())
}

/// What one replay lap saw from the client side.
#[derive(Default)]
struct ReplayLap {
    sent: u64,
    wall_ns: u64,
    exchange_ns: Vec<u64>,
    classes: Tally,
    errors: u64,
}

/// Replays the script over UDP batch frames, one frame in flight.
fn replay_lap(
    script: &Script,
    to: SocketAddr,
    spans: Option<(&mut SpanLog, u64)>,
) -> std::io::Result<ReplayLap> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let mut lap = ReplayLap::default();
    let mut buf = vec![0u8; 64 * 1024];
    let mut txn = 0u32;
    let mut unconfirmed = 0usize;
    let mut spans = spans;
    let t0 = Instant::now();
    for_each_frame(script, |frame| {
        txn = txn.wrapping_add(1);
        match frame {
            Frame::Batch(items) => {
                // The reply is a barrier too: all earlier sends were read.
                unconfirmed = 0;
                let datagram = wire::encode_batch(txn, &items);
                let sent = Instant::now();
                let reply = exchange(&socket, to, &datagram, txn, batch_txn, &mut buf)?;
                let done = Instant::now();
                lap.sent += items.len() as u64;
                match reply.and_then(|len| wire::decode_batch_response(&buf[..len])) {
                    Some((_, outcomes)) => {
                        lap.exchange_ns
                            .push(done.duration_since(sent).as_nanos() as u64);
                        for o in &outcomes {
                            lap.classes[o.class as usize] += 1;
                        }
                    }
                    None => lap.errors += items.len() as u64,
                }
                if let Some((log, parent)) = spans.as_mut() {
                    let id = u64::from(txn);
                    let (s, e) = (log.at_ns(sent), log.at_ns(done));
                    log.push("udp.batch_exchange", id, *parent, s, e);
                }
            }
            Frame::Garbled(op) => {
                // Not awaited: the daemon answers garbage only while its
                // breaker is closed. So that a burst cannot overflow the
                // daemon's socket buffer, every `GARBAGE_BURST` unanswered
                // sends are followed by a BEP 15 connect, whose reply
                // means everything sent before it was read. The
                // snapshot's garbled count checks that every one arrived.
                let mut frame = wire::garbage(script.seed, u64::from(op.client));
                wire::set_garbage_txn(&mut frame, txn);
                socket.send_to(&frame, to)?;
                unconfirmed += 1;
                if unconfirmed == GARBAGE_BURST {
                    txn = txn.wrapping_add(1);
                    let connect = UdpRequest::Connect {
                        transaction_id: txn,
                    }
                    .encode();
                    if exchange(&socket, to, &connect, txn, bep15_txn, &mut buf)?.is_none() {
                        lap.errors += 1;
                    }
                    unconfirmed = 0;
                }
            }
        }
        Ok(())
    })?;
    lap.wall_ns = t0.elapsed().as_nanos() as u64;
    Ok(lap)
}

/// Replays the workload's frames through the daemon's in-process layers
/// without sockets: `decode_batch`, `Plane::apply_batch` on a fresh
/// plane, `encode_batch_response`. Returns ns per item for each, and
/// checks the fresh plane lands on the reference snapshot.
fn replay_layer_laps(script: &Script, expected: &str, out: &mut Outcome) -> (f64, f64, f64) {
    let plane = Plane::new(PlaneConfig {
        seed: script.seed,
        shards: SHARDS,
        torrents: script.torrents,
        profile: FaultProfile::clean(),
    });
    let (mut dec, mut app, mut enc, mut items_n) = (0u64, 0u64, 0u64, 0u64);
    let mut outcomes = Vec::new();
    let mut txn = 0u32;
    for_each_frame(script, |frame| {
        txn = txn.wrapping_add(1);
        match frame {
            Frame::Batch(items) => {
                let datagram = wire::encode_batch(txn, &items);
                let t = Instant::now();
                let decoded = wire::decode_batch(black_box(&datagram));
                let t1 = Instant::now();
                let Some((_, decoded)) = decoded else {
                    return Err(std::io::Error::other("decode_batch refused its own frame"));
                };
                plane.apply_batch(&decoded, &mut outcomes);
                let t2 = Instant::now();
                black_box(wire::encode_batch_response(txn, &outcomes));
                let t3 = Instant::now();
                dec += t1.duration_since(t).as_nanos() as u64;
                app += t2.duration_since(t1).as_nanos() as u64;
                enc += t3.duration_since(t2).as_nanos() as u64;
                items_n += items.len() as u64;
            }
            Frame::Garbled(op) => {
                let _ = plane.note_garbled(op.t);
            }
        }
        Ok(())
    })
    .unwrap_or_else(|e| out.failures.push(format!("layer lap: {e}")));
    out.check(plane.snapshot() == expected, || {
        "the in-process layer lap diverged from the oracle".into()
    });
    let per = |ns: u64| ns as f64 / items_n.max(1) as f64;
    (per(dec), per(app), per(enc))
}

/// One open-loop UDP announce in flight.
struct InFlight {
    client: u32,
    due_ns: u64,
    sent_ns: u64,
    last_send: Instant,
    tries: u32,
    datagram: Vec<u8>,
}

/// What one open-loop generator saw.
#[derive(Default)]
struct PacedSide {
    /// Every announce answered.
    timed: Vec<Timed>,
    /// Every send, garbage included, as `(due_ns, sent_ns)`.
    sends: Vec<(u64, u64)>,
    classes: Tally,
    errors: u64,
    /// Announces sent (garbage not included).
    sent: u64,
    offered_per_s: f64,
}

/// State the UDP generator and its reply reader share.
#[derive(Default)]
struct UdpShared {
    inflight: HashMap<u32, InFlight>,
    busy: HashSet<u32>,
    side: PacedSide,
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("a benchmark generator thread panicked")
}

/// Waits until `at` (no-op when it has passed): sleeps until
/// `SPIN_BEFORE` ahead of it, then spins.
fn sleep_until(at: Instant) {
    let left = at.saturating_duration_since(Instant::now());
    if left > SPIN_BEFORE {
        std::thread::sleep(left - SPIN_BEFORE);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// Resends overdue announces; gives up on those out of tries.
fn udp_retransmit(
    socket: &UdpSocket,
    to: SocketAddr,
    shared: &Mutex<UdpShared>,
) -> std::io::Result<()> {
    let now = Instant::now();
    let mut s = lock(shared);
    let overdue: Vec<u32> = s
        .inflight
        .iter()
        .filter(|(_, f)| now.duration_since(f.last_send) >= UDP_RTO)
        .map(|(k, _)| *k)
        .collect();
    for txn in overdue {
        let f = s.inflight.get_mut(&txn).expect("listed above");
        if f.tries >= UDP_TRIES {
            let client = f.client;
            s.inflight.remove(&txn);
            s.busy.remove(&client);
            s.side.errors += 1;
        } else {
            socket.send_to(&f.datagram, to)?;
            f.tries += 1;
            f.last_send = now;
        }
    }
    Ok(())
}

/// Reads UDP replies as they arrive and resolves in-flight announces,
/// until `done` is set and nothing is in flight.
fn udp_reader(
    socket: &UdpSocket,
    epoch: Instant,
    shared: &Mutex<UdpShared>,
    done: &AtomicBool,
    mut spans: Option<&mut SpanLog>,
) -> std::io::Result<()> {
    let mut buf = vec![0u8; 64 * 1024];
    socket.set_read_timeout(Some(Duration::from_millis(20)))?;
    loop {
        match socket.recv_from(&mut buf) {
            Ok((len, _)) => {
                let replied_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
                let reply = UdpResponse::decode(&buf[..len]);
                let (txn, class) = match reply {
                    Ok(UdpResponse::Announce { transaction_id, .. }) => {
                        (transaction_id, Class::Admitted)
                    }
                    Ok(UdpResponse::Error {
                        transaction_id,
                        message,
                    }) => (transaction_id, class_of_message(&message)),
                    _ => continue,
                };
                let mut s = lock(shared);
                let Some(f) = s.inflight.remove(&txn) else {
                    continue;
                };
                s.busy.remove(&f.client);
                s.side.classes[class as usize] += 1;
                s.side.timed.push(Timed {
                    due_ns: f.due_ns,
                    sent_ns: f.sent_ns,
                    replied_ns,
                });
                drop(s);
                if let Some(log) = spans.as_mut() {
                    let base = log.at_ns(epoch);
                    let id = u64::from(txn);
                    log.push("udp.announce", id, 0, base + f.sent_ns, base + replied_ns);
                    if f.sent_ns > f.due_ns {
                        log.push("loadgen.late", id, 0, base + f.due_ns, base + f.sent_ns);
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if done.load(Ordering::SeqCst) && lock(shared).inflight.is_empty() {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Open-loop UDP generator: one BEP 15 announce per op, sent when due
/// whether or not earlier replies have arrived; a reader thread takes
/// the replies. A client never has two announces in flight (the
/// daemon's two UDP workers could otherwise reorder them); waiting for
/// that is charged to the announce, which is timed from when it was due. Garbled datagrams are sent and not awaited:
/// the daemon answers them only while its breaker is closed.
fn udp_generator(
    script: &Script,
    ops: &[&Op],
    to: SocketAddr,
    epoch: Instant,
    rate: f64,
    spans: Option<&mut SpanLog>,
) -> std::io::Result<PacedSide> {
    let socket = UdpSocket::bind((Ipv4Addr::LOCALHOST, 0))?;
    let mut buf = vec![0u8; 64 * 1024];
    let connect = UdpRequest::Connect { transaction_id: 0 }.encode();
    let cid = match exchange(&socket, to, &connect, 0, bep15_txn, &mut buf)? {
        Some(len) => match UdpResponse::decode(&buf[..len]) {
            Ok(UdpResponse::Connect { connection_id, .. }) => connection_id,
            _ => return Err(std::io::Error::other("unexpected connect reply")),
        },
        None => return Err(std::io::Error::other("no connect reply")),
    };
    let reader_socket = socket.try_clone()?;
    let shared = Mutex::new(UdpShared::default());
    let done = AtomicBool::new(false);
    let schedule = arrival_schedule(script.seed ^ 0x5544_5000, ops.len(), rate);
    let send_all = || -> std::io::Result<()> {
        for (k, op) in ops.iter().enumerate() {
            let txn = k as u32 + 1;
            let due_ns = schedule[k];
            sleep_until(epoch + Duration::from_nanos(due_ns));
            udp_retransmit(&socket, to, &shared)?;
            while lock(&shared).busy.contains(&op.client) {
                std::thread::sleep(Duration::from_micros(20));
                udp_retransmit(&socket, to, &shared)?;
            }
            if op.garbled {
                let mut frame = wire::garbage(script.seed, u64::from(op.client));
                wire::set_garbage_txn(&mut frame, txn);
                let sent_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
                lock(&shared).side.sends.push((due_ns, sent_ns));
                socket.send_to(&frame, to)?;
                continue;
            }
            let datagram = udp_announce(script, op, cid, txn);
            // Registered before the send, so the reader can never see a
            // reply to an announce it does not know.
            let now = Instant::now();
            let sent_ns = now.saturating_duration_since(epoch).as_nanos() as u64;
            {
                let mut s = lock(&shared);
                s.side.sent += 1;
                s.side.sends.push((due_ns, sent_ns));
                s.busy.insert(op.client);
                s.inflight.insert(
                    txn,
                    InFlight {
                        client: op.client,
                        due_ns,
                        sent_ns,
                        last_send: now,
                        tries: 1,
                        datagram: datagram.clone(),
                    },
                );
            }
            socket.send_to(&datagram, to)?;
        }
        while !lock(&shared).inflight.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            udp_retransmit(&socket, to, &shared)?;
        }
        Ok(())
    };
    let (sent, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| udp_reader(&reader_socket, epoch, &shared, &done, spans));
        let sent = send_all();
        done.store(true, Ordering::SeqCst);
        // A failed sender leaves announces in flight; drop them so the
        // reader can finish.
        lock(&shared).inflight.clear();
        (sent, reader.join())
    });
    sent?;
    read.map_err(|_| std::io::Error::other("UDP reader panicked"))??;
    let mut side = shared.into_inner().expect("generator threads joined").side;
    side.offered_per_s = offered_per_s(&schedule);
    Ok(side)
}

/// The BEP 15 announce datagram a paced op sends, with the daemon's
/// source-IP and logical-clock extensions.
fn udp_announce(script: &Script, op: &Op, connection_id: u64, transaction_id: u32) -> Vec<u8> {
    let item = item_for(script, op);
    let mut datagram = UdpRequest::Announce {
        connection_id,
        transaction_id,
        info_hash: item.info_hash,
        peer_id: item.peer_id,
        downloaded: 0,
        left: item.left,
        uploaded: 0,
        event: item.event,
        num_want: 0,
        port: item.port,
    }
    .encode();
    wire::set_announce_ip(&mut datagram, item.ip);
    wire::append_sim_time(&mut datagram, item.t);
    datagram
}

/// The HTTP request line a paced op sends (announce with the `&t=` and
/// `&ip=` logical-clock extensions).
fn http_request(script: &Script, op: &Op) -> Vec<u8> {
    let item = item_for(script, op);
    let request = AnnounceRequest {
        info_hash: item.info_hash,
        peer_id: item.peer_id,
        port: item.port,
        uploaded: 0,
        downloaded: 0,
        left: item.left,
        event: item.event,
        numwant: 0,
        compact: true,
    };
    format!(
        "GET /announce?{}&t={}&ip={} HTTP/1.1\r\nHost: tracker\r\n\r\n",
        request.to_query(),
        item.t,
        item.ip
    )
    .into_bytes()
}

/// Takes one complete `Content-Length`-framed response off the front of
/// `buf`: `Some(Ok(body))` on 200, `Some(Err(status))` otherwise, `None`
/// while incomplete.
fn take_response(buf: &mut Vec<u8>) -> Option<Result<Vec<u8>, u16>> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let end = head_end + 4 + len;
    if buf.len() < end {
        return None;
    }
    let body = buf[head_end + 4..end].to_vec();
    buf.drain(..end);
    Some(if status == 200 { Ok(body) } else { Err(status) })
}

/// Requests written but not yet answered, oldest first: (id, due, sent).
type HttpQueue = Mutex<(VecDeque<(u64, u64, u64)>, PacedSide)>;

/// Reads HTTP responses in order off the connection until `done` is set
/// and every request is answered, or the drain time runs out.
fn http_reader(
    mut stream: TcpStream,
    epoch: Instant,
    shared: &HttpQueue,
    done: &AtomicBool,
    mut spans: Option<&mut SpanLog>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(20)))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut drain_until: Option<Instant> = None;
    loop {
        while let Some(resp) = take_response(&mut buf) {
            let replied_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
            let mut s = lock(shared);
            let Some((id, due_ns, sent_ns)) = s.0.pop_front() else {
                return Err(std::io::Error::other("HTTP reply without a request"));
            };
            let side = &mut s.1;
            match resp.ok().map(|body| AnnounceResponse::decode(&body)) {
                Some(Ok(AnnounceResponse::Ok { .. })) => {
                    side.classes[Class::Admitted as usize] += 1
                }
                Some(Ok(AnnounceResponse::Failure(msg))) => {
                    side.classes[class_of_message(&msg) as usize] += 1
                }
                _ => {
                    side.errors += 1;
                    continue;
                }
            }
            side.timed.push(Timed {
                due_ns,
                sent_ns,
                replied_ns,
            });
            drop(s);
            if let Some(log) = spans.as_mut() {
                let base = log.at_ns(epoch);
                log.push("http.announce", id, 0, base + sent_ns, base + replied_ns);
            }
        }
        if done.load(Ordering::SeqCst) {
            if lock(shared).0.is_empty() {
                return Ok(());
            }
            let until = *drain_until.get_or_insert_with(|| Instant::now() + HTTP_DRAIN);
            if Instant::now() >= until {
                let mut s = lock(shared);
                s.1.errors += s.0.len() as u64;
                s.0.clear();
                return Ok(());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(std::io::Error::other("daemon closed the HTTP connection")),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Open-loop HTTP generator on one keep-alive connection: requests are
/// written when due; a reader thread takes the in-order responses.
fn http_generator(
    script: &Script,
    ops: &[&Op],
    to: SocketAddr,
    epoch: Instant,
    rate: f64,
    spans: Option<&mut SpanLog>,
) -> std::io::Result<PacedSide> {
    let mut stream = TcpStream::connect(to)?;
    let reader_stream = stream.try_clone()?;
    let shared: HttpQueue = Mutex::new((VecDeque::new(), PacedSide::default()));
    let done = AtomicBool::new(false);
    let schedule = arrival_schedule(script.seed ^ 0x4854_5450, ops.len(), rate);
    let mut send_all = || -> std::io::Result<()> {
        for (k, op) in ops.iter().enumerate() {
            let due_ns = schedule[k];
            sleep_until(epoch + Duration::from_nanos(due_ns));
            let request = http_request(script, op);
            let sent_ns = Instant::now().saturating_duration_since(epoch).as_nanos() as u64;
            {
                let mut s = lock(&shared);
                s.1.sent += 1;
                s.1.sends.push((due_ns, sent_ns));
                // HTTP span ids live above the UDP transaction ids.
                s.0.push_back(((1 << 40) + k as u64, due_ns, sent_ns));
            }
            stream.write_all(&request)?;
        }
        Ok(())
    };
    let (sent, read) = std::thread::scope(|s| {
        let reader = s.spawn(|| http_reader(reader_stream, epoch, &shared, &done, spans));
        let sent = send_all();
        done.store(true, Ordering::SeqCst);
        (sent, reader.join())
    });
    sent?;
    read.map_err(|_| std::io::Error::other("HTTP reader panicked"))??;
    let mut side = shared.into_inner().expect("generator threads joined").1;
    side.offered_per_s = offered_per_s(&schedule);
    Ok(side)
}

/// One paced window against `daemon`: a generator per transport that
/// has ops, both at once. A transport without ops reads as an empty side.
fn paced_window(
    kind: Kind,
    script: &Script,
    daemon: &ServeDaemon,
    spans: Option<&mut SpanLog>,
) -> std::io::Result<(PacedSide, PacedSide)> {
    let (http_ops, udp_ops): (Vec<&Op>, Vec<&Op>) =
        script.ops.iter().partition(|op| kind.is_http(op));
    let rate_of = |ops: &[&Op]| PACED_RATE * ops.len() as f64 / script.ops.len().max(1) as f64;
    let (udp_rate, http_rate) = (rate_of(&udp_ops), rate_of(&http_ops));
    let (udp_addr, tcp_addr) = (daemon.udp_addr(), daemon.tcp_addr());
    // Both generators start on one schedule epoch, a moment from now.
    let epoch = Instant::now() + Duration::from_millis(20);
    let traced = spans.is_some();
    let (mut udp_spans, mut http_spans) = match &spans {
        Some(log) => (log.fork(), log.fork()),
        None => (SpanLog::new(), SpanLog::new()),
    };
    let (udp, http) = std::thread::scope(|s| {
        let udp = (!udp_ops.is_empty()).then(|| {
            s.spawn(|| {
                udp_generator(
                    script,
                    &udp_ops,
                    udp_addr,
                    epoch,
                    udp_rate,
                    traced.then_some(&mut udp_spans),
                )
            })
        });
        let http = (!http_ops.is_empty()).then(|| {
            s.spawn(|| {
                http_generator(
                    script,
                    &http_ops,
                    tcp_addr,
                    epoch,
                    http_rate,
                    traced.then_some(&mut http_spans),
                )
            })
        });
        (udp.map(|h| h.join()), http.map(|h| h.join()))
    });
    if let Some(log) = spans {
        log.absorb(udp_spans);
        log.absorb(http_spans);
    }
    let udp = match udp {
        Some(r) => r.map_err(|_| std::io::Error::other("UDP generator panicked"))??,
        None => PacedSide::default(),
    };
    let http = match http {
        Some(r) => r.map_err(|_| std::io::Error::other("HTTP generator panicked"))??,
        None => PacedSide::default(),
    };
    Ok((udp, http))
}

/// A paced window's sides as (the workload's own transport, the other):
/// the other is empty, or on `serve_paced_http` carries only the
/// adversarial UDP traffic.
fn own_side(kind: Kind, (udp, http): &(PacedSide, PacedSide)) -> (&PacedSide, &PacedSide) {
    if kind == Kind::PacedHttp {
        (http, udp)
    } else {
        (udp, http)
    }
}

/// Announces answered per second of the window, over every side: from
/// the first due time to the last reply.
fn answered_per_s(sides: &[&PacedSide]) -> f64 {
    let timed = || sides.iter().flat_map(|s| s.timed.iter());
    let (Some(first), Some(last)) = (
        timed().map(|t| t.due_ns).min(),
        timed().map(|t| t.replied_ns).max(),
    ) else {
        return 0.0;
    };
    timed().count() as f64 / (last.saturating_sub(first).max(1) as f64 / 1e9)
}

/// Latency samples in ns, sorted.
fn sorted_latencies(side: &PacedSide) -> Vec<u64> {
    let mut v: Vec<u64> = side.timed.iter().map(Timed::latency_ns).collect();
    v.sort_unstable();
    v
}

fn late_tail_us(side: &PacedSide) -> f64 {
    let mut late: Vec<u64> = side.timed.iter().map(Timed::late_ns).collect();
    late.sort_unstable();
    tail_percentile(&late, 0.99).map_or(0.0, |p| p.value as f64 / 1e3)
}

/// Shard balance from a live daemon: (max deviation from the mean in
/// percent, busiest shard's share of all admitted announces).
fn shard_balance(daemon: &ServeDaemon) -> (f64, f64) {
    let counts = daemon.plane().shard_announce_counts();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return (0.0, 0.0);
    }
    let mean = total as f64 / counts.len() as f64;
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let dev = counts
        .iter()
        .map(|&c| (c as f64 - mean).abs() / mean * 100.0)
        .fold(0.0, f64::max);
    (dev, max / total as f64)
}

/// Refused share of all announces the plane judged, and its duplicates.
fn refusals(c: &CountsSnapshot) -> (f64, f64) {
    let refused = c.rate_limited + c.blacklisted + c.unknown;
    let judged = c.admitted + refused + c.down + c.dropped + c.duplicate;
    (refused as f64 / judged.max(1) as f64, c.duplicate as f64)
}

/// Times `UdpRequest::decode` + `UdpResponse::encode` and
/// `http::try_parse_request` on the workload's own requests. Returns
/// (ns per UDP request, ns per HTTP request).
fn codec_laps(kind: Kind, script: &Script) -> (f64, f64) {
    let (mut udp_ns, mut udp_n, mut http_ns, mut http_n) = (0u64, 0u64, 0u64, 0u64);
    for (k, op) in script.ops.iter().enumerate().filter(|(_, op)| !op.garbled) {
        if kind.is_http(op) {
            let bytes = http_request(script, op);
            let t = Instant::now();
            let parsed = http::try_parse_request(black_box(&bytes));
            http_ns += t.elapsed().as_nanos() as u64;
            black_box(parsed.ok());
            http_n += 1;
            continue;
        }
        let d = udp_announce(script, op, 1, k as u32);
        let t = Instant::now();
        let request = UdpRequest::decode(black_box(&d));
        let reply = UdpResponse::Announce {
            transaction_id: k as u32,
            interval: 900,
            leechers: 1,
            seeders: 1,
            peers: Vec::new(),
        }
        .encode();
        udp_ns += t.elapsed().as_nanos() as u64;
        black_box((request.ok(), reply));
        udp_n += 1;
    }
    (
        udp_ns as f64 / udp_n.max(1) as f64,
        http_ns as f64 / http_n.max(1) as f64,
    )
}

/// Times single-item `Plane::apply_batch` over the script on a fresh
/// plane. Returns ns per announce.
fn single_apply_lap(script: &Script) -> f64 {
    let plane = Plane::new(PlaneConfig {
        seed: script.seed,
        shards: SHARDS,
        torrents: script.torrents,
        profile: FaultProfile::clean(),
    });
    let mut out = Vec::with_capacity(1);
    let (mut ns, mut n) = (0u64, 0u64);
    for op in script.ops.iter().filter(|op| !op.garbled) {
        let item = item_for(script, op);
        let t = Instant::now();
        plane.apply_batch(std::slice::from_ref(&item), &mut out);
        ns += t.elapsed().as_nanos() as u64;
        n += 1;
    }
    ns as f64 / n.max(1) as f64
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Runs a serving workload and fills `out`.
pub fn run(kind: Kind, seed: u64, seconds: u64, traced: bool, out: &mut Outcome) {
    if let Err(e) = run_inner(kind, seed, seconds, traced, out) {
        out.failures.push(format!("{}: {e}", kind.name()));
    }
    out.failed = out.failed.max(out.failures.len() as u64);
}

fn run_inner(
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let mut spans = SpanLog::new();
    if kind == Kind::Replay {
        return replay(seed, seconds, traced, &mut spans, out);
    }
    // Set-up: script, oracle reference, daemon start; SETUP_REPS times,
    // keep the last.
    let mut setup_s = Vec::new();
    let mut setup = None;
    let setup_start = Instant::now();
    while another_rep(
        setup_s.len(),
        setup_start.elapsed(),
        SETUP_REPS.0,
        SETUP_REPS.1,
        SETUP_REPS.2,
    ) {
        drop(setup.take());
        let s = set_up(kind, seed, seconds, 0)?;
        setup_s.push(s.setup_s);
        setup = Some(s);
    }
    let s = setup.expect("set up at least once");
    let setups = setup_s.len();
    let setup_s = median(&setup_s).expect("setup ran");
    log_setup(
        kind,
        seed,
        &s.script,
        &format!("setup {setup_s:.3} s (median of {setups})"),
    );
    check_oracle(out, &s);
    if !traced {
        out.put("setup_s", setup_s);
    }
    paced(
        kind,
        &s.script,
        &s.reference,
        s.daemon,
        traced,
        &mut spans,
        out,
        seed,
    )
}

/// A workload's inputs, ready to serve.
struct Setup {
    script: Script,
    reference: Reference,
    daemon: ServeDaemon,
    /// Seconds the whole set-up took.
    setup_s: f64,
    /// Seconds of it spent generating the ecosystem (0 without one).
    generate_s: f64,
}

/// One set-up: the script of world `world` (and, for the replay, the
/// ecosystem behind it), its oracle reference, and a started daemon.
fn set_up(kind: Kind, seed: u64, seconds: u64, world: u64) -> std::io::Result<Setup> {
    let t = Instant::now();
    let (script, generate_s) = make_script(kind, seed, seconds, world);
    let reference = reference(&script, |op: &Op| kind.is_http(op));
    let daemon = start_daemon(&script)?;
    Ok(Setup {
        script,
        reference,
        daemon,
        setup_s: t.elapsed().as_secs_f64(),
        generate_s,
    })
}

fn log_setup(kind: Kind, seed: u64, script: &Script, what: &str) {
    let announces = script.ops.iter().filter(|o| !o.garbled).count();
    eprintln!(
        "btbench: {} seed {seed}: {} ops ({announces} announces) over {} torrents, {SHARDS} shards, {what}",
        kind.name(),
        script.ops.len(),
        script.torrents,
    );
}

/// The program's own oracle must agree with the reference replay.
fn check_oracle(out: &mut Outcome, s: &Setup) {
    out.check(
        oracle::oracle_snapshot(&s.script, FaultProfile::clean()) == s.reference.snapshot,
        || "oracle::oracle_snapshot disagrees with the reference replay".into(),
    );
}

/// What `serve_replay` measured on one world.
struct ReplayWorld {
    laps: Vec<ReplayLap>,
    /// Frame round trips of every lap, sorted.
    exchanges: Vec<u64>,
    /// Announces whose outcome class the oracle does not match.
    wrong: u64,
    peak_heap_mb: f64,
    /// Shard balance and plane counts after the traced lap.
    balance: (f64, f64),
    counts: Option<CountsSnapshot>,
}

impl ReplayWorld {
    /// The best lap's rate: one frame in flight makes a lap's wall time
    /// the sum of its round trips, and host contention only ever
    /// lengthens them, so the fastest lap is the daemon's rate with the
    /// least interference.
    fn best_rate(&self) -> f64 {
        self.laps
            .iter()
            .map(|l| l.sent as f64 / (l.wall_ns as f64 / 1e9))
            .fold(0.0, f64::max)
    }

    fn p50_us(&self) -> f64 {
        percentile(&self.exchanges, 0.5).map_or(0.0, |p| us(p.value))
    }
}

/// Replays `script` `REPLAY_LAPS` times, a fresh daemon each lap;
/// with `traced`, the second lap runs with the flight recorder armed.
fn replay_world(
    script: &Script,
    reference: &Reference,
    daemon: ServeDaemon,
    traced: bool,
    spans: &mut SpanLog,
    out: &mut Outcome,
    label: &str,
) -> std::io::Result<ReplayWorld> {
    let mut daemon = Some(daemon);
    let mut laps: Vec<ReplayLap> = Vec::new();
    let mut snapshots = Vec::new();
    let mut balance = (0.0, 0.0);
    let mut counts = None;
    let heap_base = alloc::reset_peak();
    for n in 0..REPLAY_LAPS {
        let d = match daemon.take() {
            Some(d) => d,
            None => start_daemon(script)?,
        };
        let arm = traced && n == 1;
        if arm {
            btpub_obs::trace::set_enabled(true);
        }
        let lap_id = spans.next_id();
        let lap_start = spans.now_ns();
        let lap = replay_lap(script, d.udp_addr(), arm.then_some((&mut *spans, lap_id)));
        if arm {
            btpub_obs::trace::set_enabled(false);
            spans.push("serve_replay.lap", lap_id, 0, lap_start, spans.now_ns());
            balance = shard_balance(&d);
            counts = Some(d.plane().counts());
        }
        let lap = lap?;
        let snapshot = d.shutdown();
        check_snapshot(
            out,
            &snapshot,
            &reference.snapshot,
            &format!("{label}-lap{n}"),
        );
        out.check(lap.classes == reference.udp, || {
            format!(
                "{label} lap {n}: outcome classes {:?} differ from the oracle's {:?}",
                lap.classes, reference.udp
            )
        });
        eprintln!(
            "btbench:   lap {n}: {} announces in {:.3} s = {:.0}/s, {} frames, {} errors",
            lap.sent,
            lap.wall_ns as f64 / 1e9,
            lap.sent as f64 / (lap.wall_ns as f64 / 1e9),
            lap.exchange_ns.len(),
            lap.errors
        );
        snapshots.push(snapshot);
        laps.push(lap);
    }
    let peak_heap_mb = alloc::peak().saturating_sub(heap_base) as f64 / 1e6;
    out.check(snapshots.windows(2).all(|w| w[0] == w[1]), || {
        format!("{label}: daemon snapshots differ across laps")
    });
    let wrong = laps
        .iter()
        .map(|l| mismatched(&reference.udp, &l.classes))
        .sum();
    let mut exchanges: Vec<u64> = laps
        .iter()
        .flat_map(|l| l.exchange_ns.iter().copied())
        .collect();
    exchanges.sort_unstable();
    Ok(ReplayWorld {
        laps,
        exchanges,
        wrong,
        peak_heap_mb,
        balance,
        counts,
    })
}

/// `serve_replay`: several worlds drawn from the seed, each set up and
/// then replayed `REPLAY_LAPS` times. A traced run replays world 0 once
/// untraced and once traced, then runs the layer laps on its frames.
fn replay(
    seed: u64,
    seconds: u64,
    traced: bool,
    spans: &mut SpanLog,
    out: &mut Outcome,
) -> std::io::Result<()> {
    let kind = Kind::Replay;
    let worlds = if traced {
        1
    } else {
        ((seconds as f64 / NOMINAL_REPLAY_WORLD_S).round() as u64).max(MIN_REPLAY_WORLDS)
    };
    let mut results = Vec::new();
    let mut setups = Vec::new();
    let mut generated = Vec::new();
    let mut inputs = None;
    for w in 0..worlds {
        let s = set_up(kind, seed, seconds, w)?;
        log_setup(
            kind,
            seed,
            &s.script,
            &format!(
                "world {w}, setup {:.3} s (generation {:.3} s)",
                s.setup_s, s.generate_s
            ),
        );
        check_oracle(out, &s);
        setups.push(s.setup_s);
        generated.push(s.generate_s);
        let label = format!("serve_replay-seed{seed}-world{w}");
        let world = replay_world(
            &s.script,
            &s.reference,
            s.daemon,
            traced,
            spans,
            out,
            &label,
        )?;
        let r = &world;
        if let Some(p) = tail_percentile(&r.exchanges, 0.99) {
            eprintln!(
                "btbench:   world {w}: exchange p50 {:.1} us, p{:.1} {:.1} us over {} frames; best lap {:.0}/s; peak heap {:.1} MB",
                r.p50_us(),
                p.q * 100.0,
                us(p.value),
                p.n,
                r.best_rate(),
                r.peak_heap_mb
            );
        }
        results.push(world);
        inputs = Some((s.script, s.reference));
    }
    let laps = || results.iter().flat_map(|r| &r.laps);
    let attempted: u64 = laps().map(|l| l.sent).sum();
    let errors: u64 = laps().map(|l| l.errors).sum();
    out.attempted = attempted;
    out.failed = errors + results.iter().map(|r| r.wrong).sum::<u64>();

    if !traced {
        // Medians over the run's worlds. The caller's request is one
        // batch frame.
        let med = |f: fn(&ReplayWorld) -> f64| {
            median(&results.iter().map(f).collect::<Vec<_>>()).expect("worlds ran")
        };
        out.put("setup_s", median(&setups).expect("worlds ran"));
        out.put("latency_p50_ms", med(|r| r.p50_us() / 1e3));
        out.put("announces_per_s", med(ReplayWorld::best_rate));
        out.put("peak_heap_mb", med(|r| r.peak_heap_mb));
        return Ok(());
    }

    let (script, reference) = inputs.expect("world 0 ran");
    let r = &results[0];
    out.put("sim.generate_s", generated[0]);
    // Like the paced tails, the exchange tail is a per-layer metric.
    match tail_percentile(&r.exchanges, 0.99) {
        Some(p) => out.put("exchange_p99_us", us(p.value)),
        None => out
            .failures
            .push("too few exchanges for a tail percentile".into()),
    }
    let (dec, app, enc) = spans
        .time("serve layer laps", 0, || {
            replay_layer_laps(&script, &reference.snapshot, out)
        })
        .0;
    let traced_lap = &r.laps[1];
    let items_per_frame = traced_lap.sent as f64 / traced_lap.exchange_ns.len().max(1) as f64;
    let (refused, dups) = refusals(r.counts.as_ref().expect("traced lap ran"));
    out.put("serve.decode_ns_per_item", dec);
    out.put("serve.apply_ns_per_item", app);
    out.put("serve.encode_ns_per_item", enc);
    out.put(
        "serve.in_process_share",
        (dec + app + enc) * items_per_frame / (r.p50_us() * 1e3).max(1.0),
    );
    out.put("serve.shard_imbalance_pct", r.balance.0);
    out.put("serve.hot_shard_share", r.balance.1);
    out.put("serve.refused_ratio", refused);
    out.put("serve.duplicates", dups);
    out.put(
        "loadgen.achieved_per_s",
        traced_lap.sent as f64 / (traced_lap.wall_ns as f64 / 1e9),
    );
    out.put("loadgen.late_p99_us", 0.0);
    out.put("loadgen.errors", errors as f64);
    out.put("fail_ratio", out.failed as f64 / attempted.max(1) as f64);
    report::write_trace_artifacts(&format!("serve_replay-seed{seed}"), None, spans);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn paced(
    kind: Kind,
    script: &Script,
    reference: &Reference,
    daemon: ServeDaemon,
    traced: bool,
    spans: &mut SpanLog,
    out: &mut Outcome,
    seed: u64,
) -> std::io::Result<()> {
    let name = kind.name();
    let mut daemon = Some(daemon);
    let windows = if traced { 2 } else { 1 };
    let mut results = Vec::new();
    let mut snapshots = Vec::new();
    let mut balance = (0.0, 0.0);
    let mut counts = None;
    let heap_base = alloc::reset_peak();
    for w in 0..windows {
        let d = match daemon.take() {
            Some(d) => d,
            None => start_daemon(script)?,
        };
        let arm = traced && w == 1;
        if arm {
            btpub_obs::trace::set_enabled(true);
        }
        let r = paced_window(kind, script, &d, arm.then_some(&mut *spans));
        if arm {
            btpub_obs::trace::set_enabled(false);
            balance = shard_balance(&d);
            counts = Some(d.plane().counts());
        }
        let (udp, http) = r?;
        let snapshot = d.shutdown();
        check_snapshot(
            out,
            &snapshot,
            &reference.snapshot,
            &format!("{name}-seed{seed}-window{w}"),
        );
        let (want_udp, want_http) = (
            fold_duplicates(reference.udp),
            fold_duplicates(reference.http),
        );
        out.check(udp.classes == want_udp, || {
            format!(
                "window {w}: UDP classes {:?} differ from the oracle's {want_udp:?}",
                udp.classes
            )
        });
        out.check(http.classes == want_http, || {
            format!(
                "window {w}: HTTP classes {:?} differ from the oracle's {want_http:?}",
                http.classes
            )
        });
        for (transport, side) in [("UDP", &udp), ("HTTP", &http)] {
            if side.sends.is_empty() {
                continue;
            }
            let achieved = achieved_per_s(&side.sends);
            eprintln!(
                "btbench:   window {w} {transport}: {} announces, offered {:.0}/s, achieved {achieved:.1}/s, late p99 {:.1} us, {} errors",
                side.sent,
                side.offered_per_s,
                late_tail_us(side),
                side.errors
            );
            out.check(achieved >= MIN_ACHIEVED_SHARE * side.offered_per_s, || {
                format!("window {w}: the {transport} generator fell behind: {achieved:.1}/s of {:.0}/s offered", side.offered_per_s)
            });
        }
        snapshots.push(snapshot);
        results.push((udp, http));
    }
    // Reported by untraced runs only, which have one window.
    let peak_heap_mb = alloc::peak().saturating_sub(heap_base) as f64 / 1e6;
    out.check(snapshots.windows(2).all(|w| w[0] == w[1]), || {
        "traced snapshot differs from untraced".into()
    });
    let attempted: u64 = results.iter().map(|(u, h)| u.sent + h.sent).sum();
    let errors: u64 = results.iter().map(|(u, h)| u.errors + h.errors).sum();
    let wrong: u64 = results
        .iter()
        .map(|(u, h)| {
            mismatched(&fold_duplicates(reference.udp), &u.classes)
                + mismatched(&fold_duplicates(reference.http), &h.classes)
        })
        .sum();
    out.attempted = attempted;
    out.failed = errors + wrong;
    let (main, other) = own_side(kind, &results[0]);
    let transport = if kind == Kind::PacedHttp {
        "http"
    } else {
        "udp"
    };
    let lat = sorted_latencies(main);
    let p50 = percentile(&lat, 0.5).map_or(0.0, |p| us(p.value));
    let p99 = tail_percentile(&lat, 0.99);
    if let Some(p) = p99 {
        eprintln!(
            "btbench:   {transport} p50 {p50:.1} us, p{:.1} {:.1} us over {} announces (timed from due)",
            p.q * 100.0,
            us(p.value),
            p.n
        );
    }

    if !traced {
        // The caller's request is one announce, timed from when it was
        // due; the rate is every announce answered, both transports.
        out.put("latency_p50_ms", p50 / 1e3);
        out.put("announces_per_s", answered_per_s(&[main, other]));
        out.put("peak_heap_mb", peak_heap_mb);
        return Ok(());
    }

    // The tail is a per-layer metric: on a shared VM, host contention
    // moves it several-fold from one run to the next (see
    // PROVENANCE.md), too much for an end-to-end bound. Like the
    // median, it comes from the untraced window.
    match p99 {
        Some(p) if kind == Kind::PacedHttp => out.put("http_p99_us", us(p.value)),
        Some(p) => out.put("udp_p99_us", us(p.value)),
        None => out
            .failures
            .push("too few samples for a tail percentile".into()),
    }
    let (main_t, _) = own_side(kind, &results[1]);
    let ((udp_codec, http_parse), _) = spans.time("codec laps", 0, || codec_laps(kind, script));
    let (apply, _) = spans.time("apply lap", 0, || single_apply_lap(script));
    let traced_p50 = percentile(&sorted_latencies(main_t), 0.5).map_or(0.0, |p| us(p.value));
    let codec = if kind == Kind::PacedHttp {
        http_parse
    } else {
        udp_codec
    };
    let (refused, dups) = refusals(&counts.expect("traced window ran"));
    out.put("serve.udp_codec_ns", udp_codec);
    out.put("serve.http_parse_ns", http_parse);
    out.put("serve.apply_ns_per_item", apply);
    out.put(
        "serve.in_process_share",
        (codec + apply) / (traced_p50 * 1e3).max(1.0),
    );
    out.put("serve.shard_imbalance_pct", balance.0);
    out.put("serve.hot_shard_share", balance.1);
    out.put("serve.refused_ratio", refused);
    out.put("serve.duplicates", dups);
    out.put("loadgen.achieved_per_s", achieved_per_s(&main_t.sends));
    out.put("loadgen.late_p99_us", late_tail_us(main_t));
    out.put("loadgen.errors", errors as f64);
    out.put("fail_ratio", out.failed as f64 / attempted.max(1) as f64);
    report::write_trace_artifacts(&format!("{name}-seed{seed}"), None, spans);
    Ok(())
}
