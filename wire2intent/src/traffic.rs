//! The load generator: a seeded, pre-encoded RFC 7854 BMP stream and the
//! thread that writes it on the collector side of a loopback socket.
//!
//! The stream is a cyclic *noise template* (full-table-like churn plus
//! legitimate owned-space updates, [`EVENTS_PER_MSG`] events per
//! message) with *specials* spliced in at scheduled instants: one
//! hijack every ~[`Mix::hijack_spacing`] on a distinct victim, alternating
//! exact-prefix and /25-inside-/24 attacks, each followed by a recovery
//! announcement [`RECOVERY_DELAY`] later so the incident resolves.
//! Everything is encoded before the clock starts; the program only ever
//! sees the bytes.

use artemis_bgp::{AsPath, Asn, BgpMessage, OpenMessage, PathAttributes, Prefix, UpdateMessage};
use artemis_bmp::{BmpMessage, BmpWriter, InfoTlv, PeerHeader};
use artemis_simnet::SimRng;
use std::io::{self, Write};
use std::net::{IpAddr, Ipv4Addr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The operator's AS: the only legitimate origin of the fleet.
pub const OPERATOR: u32 = 65_001;
/// The hijacker's AS.
pub const ROGUE: u32 = 64_666;
/// BMP peers whose routes the operator monitors (the pipeline's
/// vantage points). Hijacks rotate among them.
pub const MONITORED_PEERS: [u32; 4] = [174, 3356, 2914, 1299];
/// A collector peer the operator does not monitor: its routes are
/// discarded by the feed's pre-ring filter on the reader thread.
pub const UNMONITORED_PEER: u32 = 6939;
/// Transit hops between a peer and a legitimate origin.
const TRANSITS: [u32; 4] = [701, 7018, 6453, 3257];
// The shape of the noise stream. These four values are assumptions, not
// measurements: they were not taken from, or checked against, published
// statistics of full-table BMP or MRT update streams. They set how much
// per-message decode and framing is spread over each event, so they move
// `capacity_eps` and `bmp.scan_ns_per_event` directly; every run
// records them in its `# env` line (see [`shape`]).
/// NLRI (or withdrawn) prefixes per noise UPDATE. Assumed.
pub const EVENTS_PER_MSG: u64 = 4;
/// Share of noise messages that withdraw instead of announce. Assumed.
const WITHDRAW_SHARE: f64 = 0.1;
/// Share of noise prefixes that are /24s; the rest are /16–/23.
/// Assumed.
const SLASH24_SHARE: f64 = 0.6;
/// Share of messages from [`UNMONITORED_PEER`]. Assumed.
const UNMONITORED_SHARE: f64 = 0.05;
/// Messages in the cyclic noise template.
const TEMPLATE_MSGS: usize = 1 << 16;
/// Upper bound of the seeded jitter added to each hijack's instant.
const HIJACK_JITTER_US: u64 = 5_000;
/// Delay from a hijack to the recovery announcement that resolves it.
pub const RECOVERY_DELAY: Duration = Duration::from_millis(10);
/// Quiet margin at both ends of the run: no hijack is due before it,
/// and every recovery is due at least this long before the end.
const MARGIN: Duration = Duration::from_millis(50);
/// Messages per write in the closed loop.
const CLOSED_CHUNK_MSGS: usize = 256;
/// Events per special: each announces exactly one prefix.
const SPECIAL_EVENTS: u64 = 1;
/// Tick of the open-loop generator's noise writes.
const GEN_TICK: Duration = Duration::from_micros(100);
/// Back-off of a closed-loop generator whose window is full (the
/// window holds milliseconds of work).
const GEN_IDLE: Duration = Duration::from_micros(200);
/// Poll interval of a closed-loop generator settling the pipe around a
/// hijack. The pipe holds only the hijack while it is timed, so the
/// poll adds no latency to it.
const SETTLE_POLL: Duration = Duration::from_micros(20);

/// The assumed stream shape, as recorded with every run.
pub fn shape() -> String {
    format!(
        "assumed: {EVENTS_PER_MSG} prefixes/update, {}% withdrawals, {}% /24, {}% unmonitored peer",
        WITHDRAW_SHARE * 100.0,
        SLASH24_SHARE * 100.0,
        UNMONITORED_SHARE * 100.0
    )
}

/// The `i`-th owned prefix: consecutive /24s from 10.0.0.0 up, so a
/// 100k fleet spans 10.0.0.0–11.134.159.0.
pub fn fleet_prefix(i: usize) -> Prefix {
    let base = 0x0A00_0000u32 + ((i as u32) << 8);
    Prefix::v4(Ipv4Addr::from(base), 24).expect("fleet /24 is valid")
}

/// Which disjoint role an owned prefix plays in a run, so that the
/// traffic classes never interfere: hijack victims receive only their
/// attack and its recovery, legitimate churn never touches a victim,
/// and operator offboard/onboard cycles never touch either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    /// Hijack victims (`i % 8 == 0`).
    Victim,
    /// Operator offboard/onboard cycles (`i % 8 == 4`).
    Churn,
    /// Legitimate owned-space updates (the rest).
    Legit,
}

/// The pool of fleet index `i`.
pub fn pool_of(i: usize) -> Pool {
    match i % 8 {
        0 => Pool::Victim,
        4 => Pool::Churn,
        _ => Pool::Legit,
    }
}

/// The two attack shapes the workloads alternate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Attack {
    /// The rogue origin announces the victim /24 itself.
    Exact,
    /// The rogue origin announces a /25 inside the victim /24.
    SubPrefix,
}

/// One scheduled hijack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hijack {
    /// The owned /24 under attack.
    pub victim: Prefix,
    /// The prefix the rogue origin announces.
    pub announced: Prefix,
    /// Exact or sub-prefix.
    pub attack: Attack,
    /// The BMP peer that observes it.
    pub peer: u32,
    /// When its bytes are due, from the start of traffic.
    pub due: Duration,
}

/// A pre-encoded message spliced into the noise at a fixed instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Special {
    /// When the bytes are due, from the start of traffic.
    pub due: Duration,
    /// The encoded BMP message.
    pub bytes: Vec<u8>,
    /// The hijack this message attacks with (`None` for a recovery).
    pub hijack: Option<usize>,
}

/// The traffic mix of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of messages that are legitimate owned-space updates.
    pub owned_share: f64,
    /// Mean spacing of hijacks.
    pub hijack_spacing: Duration,
}

/// A whole run's pre-encoded input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Traffic {
    /// Initiation plus one peer-up per peer, written first.
    pub preamble: Vec<u8>,
    /// The cyclic noise template.
    pub template: Vec<u8>,
    /// Message boundaries in `template` (`TEMPLATE_MSGS + 1` offsets).
    pub offsets: Vec<usize>,
    /// Hijacks and recoveries in due order.
    pub specials: Vec<Special>,
    /// The scheduled hijacks (indexed by [`Special::hijack`]).
    pub hijacks: Vec<Hijack>,
}

fn peer_header(asn: u32, micros: u64) -> PeerHeader {
    let ip = Ipv4Addr::new(192, 0, 2, (asn % 250) as u8 + 1);
    PeerHeader::global(IpAddr::V4(ip), Asn(asn), ip, micros)
}

fn announce(peer: u32, micros: u64, path: &[u32], nlri: Vec<Prefix>) -> BmpMessage {
    let next_hop = IpAddr::V4(Ipv4Addr::new(192, 0, 2, (peer % 250) as u8 + 1));
    BmpMessage::RouteMonitoring {
        peer: peer_header(peer, micros),
        update: BgpMessage::Update(UpdateMessage::announce(
            PathAttributes::with_path(AsPath::from_sequence(path.iter().copied()), next_hop),
            nlri,
        )),
    }
}

fn encode(msg: &BmpMessage) -> Vec<u8> {
    let mut w = BmpWriter::new();
    w.write(msg).expect("generated messages encode");
    w.into_bytes()
}

/// A prefix far outside the fleet (first octet 12–223, never 127),
/// /16–/24 with /24 the most common ([`SLASH24_SHARE`]).
fn noise_prefix(rng: &mut SimRng) -> Prefix {
    let len = if rng.chance(SLASH24_SHARE) {
        24
    } else {
        rng.range_u64(16, 24) as u8
    };
    let mut first = rng.range_u64(12, 224) as u32;
    if first == 127 {
        first = 128;
    }
    let addr = (first << 24) | (rng.range_u64(0, 1 << 24) as u32);
    Prefix::v4(Ipv4Addr::from(addr & (u32::MAX << (32 - len))), len).expect("noise prefix")
}

/// A random fleet index in the [`Pool::Legit`] pool.
fn legit_index(rng: &mut SimRng, fleet: usize) -> usize {
    const OFFSETS: [usize; 6] = [1, 2, 3, 5, 6, 7];
    rng.index(fleet / 8) * 8 + OFFSETS[rng.index(OFFSETS.len())]
}

fn open_message(asn: u32) -> OpenMessage {
    OpenMessage {
        version: 4,
        asn: Asn(asn),
        hold_time: 180,
        bgp_id: Ipv4Addr::new(192, 0, 2, (asn % 250) as u8 + 1),
        four_octet_capable: true,
    }
}

/// Build a run's input from `seed`: the same seed, fleet, mix and
/// duration give byte-identical traffic.
pub fn build(seed: u64, fleet: usize, mix: Mix, run_for: Duration) -> Traffic {
    assert!(
        fleet >= 64 && fleet.is_multiple_of(8),
        "fleet must be a multiple of 8 and at least 64"
    );
    let root = SimRng::new(seed);

    let mut preamble = BmpWriter::new();
    preamble
        .write(&BmpMessage::Initiation {
            info: vec![InfoTlv::string(2, "wire2intent")],
        })
        .expect("initiation encodes");
    for peer in MONITORED_PEERS.iter().chain([UNMONITORED_PEER].iter()) {
        preamble
            .write(&BmpMessage::PeerUp {
                peer: peer_header(*peer, 0),
                local_ip: IpAddr::V4(Ipv4Addr::new(192, 0, 2, 254)),
                local_port: 179,
                remote_port: 40_000,
                sent_open: open_message(64_500),
                recv_open: open_message(*peer),
            })
            .expect("peer-up encodes");
    }

    // --- The noise template.
    let mut rng = root.fork("template");
    let mut template = BmpWriter::new();
    let mut offsets = Vec::with_capacity(TEMPLATE_MSGS + 1);
    offsets.push(0);
    for m in 0..TEMPLATE_MSGS as u64 {
        let micros = m * 5;
        let roll = rng.unit();
        let msg = if roll < mix.owned_share {
            let peer = MONITORED_PEERS[rng.index(MONITORED_PEERS.len())];
            let transit = TRANSITS[rng.index(TRANSITS.len())];
            let nlri = (0..EVENTS_PER_MSG)
                .map(|_| fleet_prefix(legit_index(&mut rng, fleet)))
                .collect();
            announce(peer, micros, &[peer, transit, OPERATOR], nlri)
        } else {
            let peer = if roll < mix.owned_share + UNMONITORED_SHARE {
                UNMONITORED_PEER
            } else {
                MONITORED_PEERS[rng.index(MONITORED_PEERS.len())]
            };
            let nlri: Vec<Prefix> = (0..EVENTS_PER_MSG)
                .map(|_| noise_prefix(&mut rng))
                .collect();
            if rng.chance(WITHDRAW_SHARE) {
                BmpMessage::RouteMonitoring {
                    peer: peer_header(peer, micros),
                    update: BgpMessage::Update(UpdateMessage::withdraw(nlri)),
                }
            } else {
                let transit = TRANSITS[rng.index(TRANSITS.len())];
                let origin = rng.range_u64(1_000, 60_000) as u32;
                announce(peer, micros, &[peer, transit, origin], nlri)
            }
        };
        template.write(&msg).expect("noise encodes");
        offsets.push(template.as_bytes().len());
    }

    // --- The hijack schedule: distinct victims in seeded order.
    let mut rng = root.fork("hijacks");
    let mut victims: Vec<usize> = (0..fleet).filter(|i| pool_of(*i) == Pool::Victim).collect();
    rng.shuffle(&mut victims);
    let mut hijacks = Vec::new();
    let mut specials = Vec::new();
    for (k, victim_idx) in victims.into_iter().enumerate() {
        let due = MARGIN
            + mix.hijack_spacing * k as u32
            + Duration::from_micros(rng.range_u64(0, HIJACK_JITTER_US));
        if due + RECOVERY_DELAY + MARGIN > run_for {
            break;
        }
        let victim = fleet_prefix(victim_idx);
        let (attack, announced) = if k % 2 == 0 {
            (Attack::Exact, victim)
        } else {
            let (lo, hi) = victim.split().expect("a /24 splits");
            (Attack::SubPrefix, if rng.chance(0.5) { lo } else { hi })
        };
        let peer = MONITORED_PEERS[rng.index(MONITORED_PEERS.len())];
        let micros = due.as_micros() as u64;
        specials.push(Special {
            due,
            bytes: encode(&announce(peer, micros, &[peer, ROGUE], vec![announced])),
            hijack: Some(hijacks.len()),
        });
        let recover = due + RECOVERY_DELAY;
        let transit = TRANSITS[rng.index(TRANSITS.len())];
        specials.push(Special {
            due: recover,
            bytes: encode(&announce(
                peer,
                recover.as_micros() as u64,
                &[peer, transit, OPERATOR],
                vec![announced],
            )),
            hijack: None,
        });
        hijacks.push(Hijack {
            victim,
            announced,
            attack,
            peer,
            due,
        });
    }
    specials.sort_by_key(|s| s.due);

    Traffic {
        preamble: preamble.into_bytes(),
        template: template.into_bytes(),
        offsets,
        specials,
        hijacks,
    }
}

/// How the generator paces the noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Noise message `m` is due at `m · EVENTS_PER_MSG / rate_eps`,
    /// regardless of how fast the program consumes it.
    Open {
        /// Offered events per second.
        rate_eps: f64,
    },
    /// Write whenever fewer than `window` events are outstanding
    /// (written but neither delivered nor dropped by the program).
    Closed {
        /// Outstanding-event window.
        window: u64,
    },
}

/// Counters shared between the generator and the pump.
#[derive(Debug, Default)]
pub struct GenShared {
    /// Events written to the socket.
    pub sent: AtomicU64,
    /// Events the program has delivered or dropped (published by the
    /// pump; read by the closed loop).
    pub accounted: AtomicU64,
    /// The generator has written its last byte.
    pub done: AtomicBool,
}

/// What the generator did.
#[derive(Debug, Clone, Default)]
pub struct GenReport {
    /// How late each write round started, in ms after the due instant
    /// of the first message it wrote (open loop: every round; closed
    /// loop: every special).
    pub late_ms: Vec<f64>,
    /// Events written.
    pub events: u64,
    /// When each hijack's bytes were handed to the socket.
    pub hijack_written: Vec<Option<Instant>>,
}

impl GenReport {
    fn mark(&mut self, special: &Special) {
        if let Some(h) = special.hijack {
            self.hijack_written[h] = Some(Instant::now());
        }
    }
}

/// Events written but neither delivered nor dropped by the program.
fn outstanding(shared: &GenShared) -> u64 {
    shared
        .sent
        .load(Ordering::SeqCst)
        .saturating_sub(shared.accounted.load(Ordering::SeqCst))
}

/// Wait, in a closed loop, until every written event is accounted for,
/// or the run is over.
fn settle(shared: &GenShared, start: Instant, run_for: Duration) {
    while outstanding(shared) > 0 && start.elapsed() < run_for {
        std::thread::sleep(SETTLE_POLL);
    }
}

/// Write `traffic` on `sock` for `run_for` from `start`, paced by
/// `load`. Specials still unwritten at the end are written before
/// returning, so every scheduled hijack reaches the wire.
pub fn generate(
    sock: &mut TcpStream,
    traffic: &Traffic,
    load: Load,
    start: Instant,
    run_for: Duration,
    shared: &GenShared,
) -> io::Result<GenReport> {
    let result = write_stream(sock, traffic, load, start, run_for, shared);
    shared.done.store(true, Ordering::SeqCst);
    result
}

fn write_stream(
    sock: &mut TcpStream,
    traffic: &Traffic,
    load: Load,
    start: Instant,
    run_for: Duration,
    shared: &GenShared,
) -> io::Result<GenReport> {
    let msgs = traffic.offsets.len() - 1;
    let mut report = GenReport {
        hijack_written: vec![None; traffic.hijacks.len()],
        ..GenReport::default()
    };
    let mut m = 0u64; // next noise message (global count)
    let mut s = 0usize; // next special
    let send = |sock: &mut TcpStream, bytes: &[u8], events: u64| -> io::Result<()> {
        sock.write_all(bytes)?;
        shared.sent.fetch_add(events, Ordering::SeqCst);
        Ok(())
    };
    sock.write_all(&traffic.preamble)?;
    // A contiguous run of noise messages `[from, to)` (global counts,
    // not crossing a template wrap).
    let noise = |from: u64, to: u64| {
        let i = (from % msgs as u64) as usize;
        let j = i + (to - from) as usize;
        &traffic.template[traffic.offsets[i]..traffic.offsets[j]]
    };
    let wrap_end = |m: u64| m - m % msgs as u64 + msgs as u64;

    match load {
        Load::Open { rate_eps } => {
            // Integer nanoseconds keep "due by now" and "due before the
            // next special" consistent with each other.
            let interval_ns = ((EVENTS_PER_MSG as f64 * 1e9 / rate_eps) as u64).max(1);
            let due_of = |m: u64| Duration::from_nanos(m * interval_ns);
            loop {
                let now = start.elapsed();
                if now >= run_for {
                    break;
                }
                let mut first_due = None;
                loop {
                    let noise_due = due_of(m);
                    let special_due = traffic.specials.get(s).map(|x| x.due);
                    if let Some(sd) = special_due.filter(|sd| *sd <= now && *sd <= noise_due) {
                        first_due.get_or_insert(sd);
                        report.mark(&traffic.specials[s]);
                        send(sock, &traffic.specials[s].bytes, SPECIAL_EVENTS)?;
                        s += 1;
                    } else if noise_due <= now {
                        first_due.get_or_insert(noise_due);
                        let due_by_now = now.as_nanos() as u64 / interval_ns + 1;
                        let before_special = special_due
                            .map(|sd| (sd.as_nanos() as u64).div_ceil(interval_ns))
                            .unwrap_or(u64::MAX);
                        let end = due_by_now.min(before_special).min(wrap_end(m)).max(m + 1);
                        send(sock, noise(m, end), (end - m) * EVENTS_PER_MSG)?;
                        m = end;
                    } else {
                        break;
                    }
                }
                if let Some(d) = first_due {
                    report.late_ms.push((now - d).as_secs_f64() * 1e3);
                }
                // Noise goes out on a fixed grid of ticks, so the reader
                // wakes a fixed number of times a second whatever the
                // timer slack; a special goes out at its own instant.
                let elapsed = start.elapsed();
                let tick = GEN_TICK * (elapsed.as_nanos() / GEN_TICK.as_nanos() + 1) as u32;
                let noise_next = due_of(m).max(tick);
                let next = traffic
                    .specials
                    .get(s)
                    .map_or(noise_next, |x| x.due.min(noise_next));
                let wait = next.saturating_sub(start.elapsed());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
            }
        }
        Load::Closed { window } => loop {
            let now = start.elapsed();
            if now >= run_for {
                break;
            }
            while let Some(sp) = traffic.specials.get(s).filter(|x| x.due <= now) {
                // A hijack enters a settled pipe and is alone in it until
                // delivered, so its intent time is the path's, not the
                // window's queue (which only restates the throughput).
                if sp.hijack.is_some() {
                    settle(shared, start, run_for);
                }
                report
                    .late_ms
                    .push(start.elapsed().saturating_sub(sp.due).as_secs_f64() * 1e3);
                report.mark(sp);
                send(sock, &sp.bytes, SPECIAL_EVENTS)?;
                if sp.hijack.is_some() {
                    settle(shared, start, run_for);
                }
                s += 1;
            }
            let outstanding = outstanding(shared);
            let chunk = CLOSED_CHUNK_MSGS as u64 * EVENTS_PER_MSG;
            if outstanding + chunk <= window {
                let end = (m + CLOSED_CHUNK_MSGS as u64).min(wrap_end(m));
                send(sock, noise(m, end), (end - m) * EVENTS_PER_MSG)?;
                m = end;
            } else {
                std::thread::sleep(GEN_IDLE);
            }
        },
    }
    // Flush the specials whose instant fell inside the run.
    while s < traffic.specials.len() {
        let sp = &traffic.specials[s];
        report
            .late_ms
            .push(start.elapsed().saturating_sub(sp.due).as_secs_f64() * 1e3);
        report.mark(sp);
        send(sock, &sp.bytes, SPECIAL_EVENTS)?;
        s += 1;
    }
    sock.flush()?;
    report.events = shared.sent.load(Ordering::SeqCst);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_schedule() {
        let mix = Mix {
            owned_share: 0.25,
            hijack_spacing: Duration::from_millis(25),
        };
        let a = build(7, 4096, mix, Duration::from_secs(2));
        let b = build(7, 4096, mix, Duration::from_secs(2));
        assert_eq!(a, b);
        let c = build(8, 4096, mix, Duration::from_secs(2));
        assert_ne!(a.template, c.template);
        assert_ne!(a.hijacks, c.hijacks);
    }

    #[test]
    fn schedule_fits_the_run_and_uses_distinct_victims() {
        let mix = Mix {
            owned_share: 0.01,
            hijack_spacing: Duration::from_millis(25),
        };
        let t = build(3, 4096, mix, Duration::from_secs(2));
        // (2 s − 2·50 ms − 10 ms) / 25 ms ≈ 75 hijacks.
        assert!((70..=76).contains(&t.hijacks.len()), "{}", t.hijacks.len());
        assert_eq!(t.specials.len(), 2 * t.hijacks.len());
        assert!(t.specials.windows(2).all(|w| w[0].due <= w[1].due));
        let mut victims: Vec<Prefix> = t.hijacks.iter().map(|h| h.victim).collect();
        victims.sort();
        victims.dedup();
        assert_eq!(victims.len(), t.hijacks.len());
        for (k, h) in t.hijacks.iter().enumerate() {
            assert!(h.due + RECOVERY_DELAY + MARGIN <= Duration::from_secs(2));
            assert!(h.victim.contains(h.announced));
            let expect = if k % 2 == 0 {
                Attack::Exact
            } else {
                Attack::SubPrefix
            };
            assert_eq!(h.attack, expect);
            assert_eq!(h.announced.len(), if k % 2 == 0 { 24 } else { 25 });
        }
    }

    #[test]
    fn pools_are_disjoint_and_noise_avoids_the_fleet() {
        let fleet_space = Prefix::v4(Ipv4Addr::new(10, 0, 0, 0), 7).unwrap();
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            assert!(!noise_prefix(&mut rng).overlaps(fleet_space));
            assert_eq!(pool_of(legit_index(&mut rng, 4096)), Pool::Legit);
        }
        assert_eq!(pool_of(8), Pool::Victim);
        assert_eq!(pool_of(12), Pool::Churn);
    }
}
