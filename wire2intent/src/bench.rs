//! The pump side: sets up an in-process [`ArtemisService`] guarding the
//! fleet, connects its live BMP feed to the generator over loopback,
//! and pumps it the way the daemon's feed pump does — timing each
//! public call from outside.
//!
//! The daemon's pump calls [`ArtemisService::pump_feeds`], which is
//! exactly [`Pipeline::poll_feeds`] followed by
//! [`Pipeline::deliver_due`], and then polls the event stream
//! ([`ArtemisService::poll_events`] delegates to
//! [`Pipeline::poll_events`]). To time those three calls separately the
//! pump thread holds the service's parts between operator calls and
//! reassembles the service (no side effects) for every
//! [`ArtemisService::apply`] / [`ArtemisService::query`], which run
//! between pumps on the same thread — the serialization the daemon's
//! single service mutex imposes.

use crate::cpu;
use crate::stats::{max, median, percentile, percentile_or_max};
use crate::traffic::{
    self, fleet_prefix, pool_of, Attack, GenReport, GenShared, Load, Mix, Pool, Traffic,
    MONITORED_PEERS, OPERATOR,
};
use artemis_bgp::{Asn, BgpMessage, Prefix};
use artemis_bmp::{BmpMessage, BmpScanner};
use artemis_controller::{Controller, IntentKind};
use artemis_core::{
    AlertId, ArtemisConfig, ArtemisService, CommandOutcome, HijackType, IncidentEvent, OwnedPrefix,
    Pipeline, PipelineConfig, ServiceCommand, ServiceError, ServiceQuery, ServiceReply,
    StageMetrics, StageStat,
};
use artemis_feeds::{FeedFilter, FeedHandle, FeedSpec};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Ring capacity of the live feed, in events: 1.3 s of the open-loop
/// rate. A 65536-event ring (0.33 s) shed, and lost hijacks, in
/// `operator_mix` when the process was paused for 400 ms: the generator
/// catches up in one burst while a status call blocks the pump. The
/// open-loop workloads must not lose events to a host stall.
pub const RING_CAPACITY: usize = 1 << 18;
/// Outstanding-event window of the closed loop: a thirty-second of the
/// ring, so the ring can never fill and a shed can only mean a bug. The
/// closed loop drains it before each hijack, so it is kept small.
pub const CLOSED_WINDOW: u64 = (RING_CAPACITY / 32) as u64;
/// Offered rate of the open-loop workloads, events per second.
pub const OPEN_RATE_EPS: f64 = 200_000.0;
/// Mean hijack spacing of the open-loop workloads.
const STORM_HIJACK_SPACING: Duration = Duration::from_millis(25);
/// Mean hijack spacing of the closed loop, which drains its window
/// before each hijack: sparse enough that the drains leave the reader
/// busy most of the time, dense enough for 200 incidents in 20 s of
/// traffic.
const FIREHOSE_HIJACK_SPACING: Duration = Duration::from_millis(80);
/// Spacing of operator calls in `operator_mix`. A status query comes
/// every fourth call and, at 100k prefixes, grows to ~190 ms as
/// incidents accumulate; at 800 ms apart the pump stays unblocked for
/// well over half of the hijacks even on a slowed host, so the median
/// stays off the blocked tail.
const OP_PERIOD: Duration = Duration::from_millis(200);
/// The operator's calls, in turn: `operator_mix` under load, and the
/// idle probes of every workload.
const OP_PLAN: [OpKind; 4] = [
    OpKind::Status,
    OpKind::Cycle,
    OpKind::Incidents,
    OpKind::Cycle,
];
/// Share of the run given to each of the two idle control-plane probe
/// phases, one before the traffic and one after it. Every workload runs
/// them, back to back, on each freshly set-up instance while nothing
/// else runs: the calls cost what they cost on an idle service, the
/// medians span many heap layouts, and the two phases sample the host
/// apart in time.
const PROBE_SHARE: f64 = 0.1;
/// Offboard+onboard cycles per probe cycle call: it offboards its
/// prefixes one by one, then onboards them back, and is timed per
/// operation.
const PROBE_GROUP_SIZE: usize = 8;
/// Tick of the grid an idle pump sleeps to after a pump that delivered
/// nothing.
const PUMP_IDLE: Duration = Duration::from_micros(100);
/// How long the pump keeps draining after the generator stops.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Minimum share of the pump's busy time the layers must explain
/// ([`breakdown_check`]).
pub const MIN_EXPLAINED: f64 = 0.9;
/// Passes of the wire-decode measurement over the template.
const SCAN_PASSES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop full-table firehose: front-half capacity.
    Firehose,
    /// Open-loop hijack storm: commit, monitors and mitigation.
    HijackStorm,
    /// The storm plus an operator interleaving writes and reads.
    OperatorMix,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::Firehose,
        Workload::HijackStorm,
        Workload::OperatorMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Firehose => "firehose",
            Workload::HijackStorm => "hijack_storm",
            Workload::OperatorMix => "operator_mix",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn mix(self) -> Mix {
        match self {
            Workload::Firehose => Mix {
                owned_share: 0.01,
                hijack_spacing: FIREHOSE_HIJACK_SPACING,
            },
            Workload::HijackStorm | Workload::OperatorMix => Mix {
                owned_share: 0.25,
                hijack_spacing: STORM_HIJACK_SPACING,
            },
        }
    }

    fn load(self) -> Load {
        match self {
            Workload::Firehose => Load::Closed {
                window: CLOSED_WINDOW,
            },
            Workload::HijackStorm | Workload::OperatorMix => Load::Open {
                rate_eps: OPEN_RATE_EPS,
            },
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which traffic.
    pub workload: Workload,
    /// Seed of the generated input.
    pub seed: u64,
    /// Measured traffic duration.
    pub run_for: Duration,
    /// Record spans and report the per-layer breakdown.
    pub trace: bool,
    /// Owned prefixes guarded by the service.
    pub fleet: usize,
    /// Times the service is set up before the traffic, and again after
    /// it; `setup_s` is the median of all of them.
    pub setup_reps: usize,
}

/// A named measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A correctness gate's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Gate name.
    pub name: &'static str,
    /// Whether it held.
    pub passed: bool,
    /// What was checked, with the numbers.
    pub detail: String,
}

/// Everything a run produced.
#[derive(Debug, Clone)]
pub struct Report {
    /// Correctness gates, all of which must pass.
    pub gates: Vec<Gate>,
    /// Checks of the program's instrumentation rather than its outputs
    /// (traced runs): reported, but not part of [`Report::correct`].
    pub checks: Vec<Gate>,
    /// Operations attempted: hijacks injected plus operator calls.
    pub attempted: u64,
    /// Operations that failed: hijacks without exactly one correct
    /// intent plus operator calls that errored or answered wrongly.
    pub failed: u64,
    /// End-to-end metrics (reported with tracing off).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported with tracing on).
    pub per_layer: Vec<Metric>,
    /// End-to-end figures printed with every run but not bounded.
    pub info: Vec<Metric>,
    /// The environment, for like-for-like comparison.
    pub env: Vec<(&'static str, String)>,
    /// Human-readable span summary (tracing on).
    pub span_summary: Vec<String>,
}

impl Report {
    /// True when every gate passed.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }
}

/// The service between operator calls: its parts, so each pump call
/// can be timed on its own.
struct Stack {
    parts: Option<(Pipeline, Controller, Vec<Controller>)>,
}

impl Stack {
    fn pipeline(&mut self) -> &mut Pipeline {
        &mut self.parts.as_mut().expect("stack is assembled").0
    }

    fn parts(&mut self) -> (&mut Pipeline, &mut Controller, &mut Vec<Controller>) {
        let (p, c, h) = self.parts.as_mut().expect("stack is assembled");
        (p, c, h)
    }

    /// Run `f` against the reassembled service.
    fn service<R>(&mut self, f: impl FnOnce(&mut ArtemisService) -> R) -> R {
        let (p, c, h) = self.parts.take().expect("stack is assembled");
        let mut svc = ArtemisService::new(p, c).with_helpers(h);
        let r = f(&mut svc);
        self.parts = Some(svc.into_parts());
        r
    }
}

/// A set-up service with its feed connected to the generator's socket.
struct Setup {
    stack: Stack,
    feed: FeedHandle,
    sock: TcpStream,
}

/// Build the service guarding `fleet` prefixes under the default
/// (explicitly passed) pipeline configuration, attach the live BMP feed
/// through the command surface, and accept its connection.
fn set_up(fleet: usize, seed: u64, listener: &TcpListener) -> Result<Setup, String> {
    let owned = (0..fleet)
        .map(|i| OwnedPrefix::new(fleet_prefix(i), Asn(OPERATOR)))
        .collect();
    let config = ArtemisConfig::new(Asn(OPERATOR), owned);
    let vantage_points = MONITORED_PEERS.iter().map(|a| Asn(*a)).collect();
    let pipeline =
        Pipeline::bare(config, vantage_points).with_pipeline_config(PipelineConfig::default());
    let controller = Controller::new(
        Asn(OPERATOR),
        LatencyModel::const_secs(15),
        SimRng::new(seed),
    );
    let mut svc = ArtemisService::new(pipeline, controller);
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let filter = FeedFilter {
        vantages: MONITORED_PEERS.iter().map(|a| Asn(*a)).collect(),
        ..FeedFilter::any()
    };
    let attach = ServiceCommand::AttachFeed {
        feed: FeedSpec::BmpLive {
            name: "bmp0".into(),
            addr: addr.to_string(),
            ring_capacity: Some(RING_CAPACITY),
            filter: Some(filter),
        },
    };
    let feed = match svc.apply(attach, SimTime::ZERO) {
        Ok(CommandOutcome::FeedAttached { handle }) => handle,
        other => return Err(format!("attaching the BMP feed failed: {other:?}")),
    };
    let (sock, _) = listener.accept().map_err(|e| format!("accept feed: {e}"))?;
    sock.set_nodelay(true)
        .map_err(|e| format!("TCP_NODELAY: {e}"))?;
    Ok(Setup {
        stack: Stack {
            parts: Some(svc.into_parts()),
        },
        feed,
        sock,
    })
}

/// Per-incident timing, all from the incident's start: the instant
/// its bytes were due (open loop) or written (closed loop).
#[derive(Debug, Clone, Copy)]
struct IncidentTiming {
    /// Start → return of the pump whose event poll held the intent.
    intent_ms: f64,
    /// Start → start of that pump (socket, decode, ring, wait).
    wire_ms: f64,
    /// That pump's `poll_feeds`.
    poll_ms: f64,
    /// That pump's `deliver_due`.
    deliver_ms: f64,
    /// That pump's `poll_events`.
    events_ms: f64,
}

impl IncidentTiming {
    fn new(from: Instant, pump: &PumpSpan) -> Self {
        let from_start = |t: Instant| ms(since(t, from));
        IncidentTiming {
            intent_ms: from_start(pump.end),
            wire_ms: from_start(pump.start),
            poll_ms: ms(since(pump.polled, pump.start)),
            deliver_ms: ms(since(pump.delivered, pump.polled)),
            events_ms: ms(since(pump.end, pump.delivered)),
        }
    }
}

/// The correctness ledger, filled from the event stream.
#[derive(Debug, Default)]
struct Ledger {
    by_announced: HashMap<Prefix, usize>,
    hijack_of_alert: HashMap<AlertId, usize>,
    alerts: Vec<u32>,
    intents: Vec<u32>,
    announced_by_plan: Vec<Vec<Prefix>>,
    /// The pump whose event poll returned each hijack's intent.
    intent_pump: Vec<Option<PumpSpan>>,
    mismatched: u64,
    stray_alerts: u64,
    alerts_total: u64,
    resolved: u64,
}

impl Ledger {
    fn new(traffic: &Traffic) -> Self {
        let n = traffic.hijacks.len();
        Ledger {
            by_announced: traffic
                .hijacks
                .iter()
                .enumerate()
                .map(|(i, h)| (h.announced, i))
                .collect(),
            alerts: vec![0; n],
            intents: vec![0; n],
            announced_by_plan: vec![Vec::new(); n],
            intent_pump: vec![None; n],
            ..Ledger::default()
        }
    }
}

/// One pump's span boundaries, read by the pump thread around each public
/// call (untraced runs read the clock only at `start` and `end`).
#[derive(Debug, Clone, Copy)]
struct PumpSpan {
    start: Instant,
    polled: Instant,
    delivered: Instant,
    end: Instant,
    events: u64,
}

/// The plain facts the correctness gates judge, kept separate from the
/// run so the gates can be tested on fabricated evidence.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evidence {
    /// `AlertRaised` records per injected hijack.
    pub alerts_per_hijack: Vec<u32>,
    /// `MitigationTriggered` records per injected hijack.
    pub intents_per_hijack: Vec<u32>,
    /// Alerts or intents naming the wrong owned prefix, hijack type or
    /// target, and intents the controller never received.
    pub mismatched: u64,
    /// Alerts raised by noise or legitimate updates.
    pub stray_alerts: u64,
    /// Events the generator wrote.
    pub sent: u64,
    /// Events delivered to the detector.
    pub delivered: u64,
    /// Events shed by the backpressure ring.
    pub shed: u64,
    /// Events discarded by the pre-ring filter.
    pub filtered: u64,
    /// Routing-epoch advance of each offboard+onboard cycle.
    pub epoch_advances: Vec<u64>,
    /// The generator ran a closed loop (a shed is then a bug).
    pub closed_loop: bool,
    /// Incident events evicted before the pump thread polled them.
    pub log_missed: u64,
    /// Operator calls that errored or answered inconsistently.
    pub op_errors: u64,
}

fn gate(name: &'static str, passed: bool, detail: String) -> Gate {
    Gate {
        name,
        passed,
        detail,
    }
}

/// Judge a run's evidence.
pub fn judge(e: &Evidence) -> Vec<Gate> {
    let hijacks = e.alerts_per_hijack.len();
    let exact = e
        .alerts_per_hijack
        .iter()
        .zip(&e.intents_per_hijack)
        .filter(|(a, i)| **a == 1 && **i == 1)
        .count();
    vec![
        gate(
            "one_intent_per_hijack",
            exact == hijacks && e.mismatched == 0 && hijacks > 0,
            format!(
                "{exact}/{hijacks} hijacks with exactly one alert and one intent, {} mismatched",
                e.mismatched
            ),
        ),
        gate(
            "no_false_alerts",
            e.stray_alerts == 0,
            format!("{} alerts from noise or legitimate updates", e.stray_alerts),
        ),
        gate(
            "event_accounting",
            e.sent == e.delivered + e.shed + e.filtered,
            format!(
                "sent {} = delivered {} + shed {} + filtered {}",
                e.sent, e.delivered, e.shed, e.filtered
            ),
        ),
        gate(
            "epoch_two_per_cycle",
            !e.epoch_advances.is_empty() && e.epoch_advances.iter().all(|a| *a == 2),
            format!(
                "{} cycles, advances {:?}",
                e.epoch_advances.len(),
                e.epoch_advances
                    .iter()
                    .copied()
                    .collect::<std::collections::BTreeSet<_>>()
            ),
        ),
        gate(
            "closed_loop_never_sheds",
            !e.closed_loop || e.shed == 0,
            format!("closed loop: {}, shed {}", e.closed_loop, e.shed),
        ),
        gate(
            "event_log_complete",
            e.log_missed == 0,
            format!("{} incident events evicted before polling", e.log_missed),
        ),
        gate(
            "operator_calls",
            e.op_errors == 0,
            format!("{} operator calls failed", e.op_errors),
        ),
    ]
}

/// The breakdown check of a traced run: the layers must explain at
/// least [`MIN_EXPLAINED`] of the pump thread's busy time. `explained`
/// counts `Pipeline::poll_feeds`, the program's own stage sum for
/// non-empty `Pipeline::deliver_due` calls (not the bench-timed call),
/// empty `deliver_due` calls, `ArtemisService::poll_events` and operator
/// calls.
pub fn breakdown_check(explained: f64) -> Gate {
    gate(
        "layers_explain_pump",
        explained >= MIN_EXPLAINED,
        format!(
            "layers explain {:.1}% of pump busy time, {:.0}% required",
            explained * 100.0,
            MIN_EXPLAINED * 100.0
        ),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn since(later: Instant, earlier: Instant) -> Duration {
    later.saturating_duration_since(earlier)
}

/// Peak resident set size in MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Operator-call latencies and the checks made on their answers. An
/// offboard/onboard entry is the mean per operation of one call's group.
#[derive(Debug, Default)]
struct OperatorLog {
    status_ms: Vec<f64>,
    incidents_ms: Vec<f64>,
    offboard_ms: Vec<f64>,
    onboard_ms: Vec<f64>,
    epoch_advances: Vec<u64>,
    status_rows: usize,
    calls: u64,
    errors: u64,
}

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Status,
    Incidents,
    Cycle,
}

/// The clock an operator call is timed on.
#[derive(Debug, Clone, Copy)]
enum Clock {
    /// Wall time: what a call under load costs the pump.
    Wall,
    /// The calling thread's CPU time: what an idle call costs, without
    /// the time a shared host withholds the core ([`cpu`]).
    Cpu,
}

impl Clock {
    fn time<R>(self, f: impl FnOnce() -> R) -> (R, Duration) {
        match self {
            Clock::Wall => {
                let t = Instant::now();
                let r = f();
                (r, t.elapsed())
            }
            Clock::Cpu => {
                let t = cpu::thread_now();
                let r = f();
                (r, cpu::thread_now().saturating_sub(t))
            }
        }
    }
}

/// The churn-pool prefixes, cycled through by offboard/onboard calls.
fn churn_pool(fleet: usize) -> Vec<Prefix> {
    (0..fleet)
        .filter(|i| pool_of(*i) == Pool::Churn)
        .map(fleet_prefix)
        .collect()
}

/// Run one operator call against the service between pumps. A cycle
/// offboards each prefix of `churn` and then onboards them back.
#[allow(clippy::too_many_arguments)]
fn operator_call(
    stack: &mut Stack,
    op: OpKind,
    churn: &[Prefix],
    now: SimTime,
    fleet: usize,
    alerts_so_far: u64,
    clock: Clock,
    log: &mut OperatorLog,
) {
    log.calls += 1;
    let ok = match op {
        OpKind::Status => {
            let (reply, took) =
                clock.time(|| stack.service(|svc| svc.query(ServiceQuery::Status, now)));
            log.status_ms.push(ms(took));
            match black_box(reply) {
                ServiceReply::Status(s) => {
                    log.status_rows = s.owned.len() + s.incidents.len() + s.feeds.len();
                    s.owned.len() == fleet && s.incidents.len() as u64 == alerts_so_far
                }
                _ => false,
            }
        }
        OpKind::Incidents => {
            let (reply, took) =
                clock.time(|| stack.service(|svc| svc.query(ServiceQuery::Incidents, now)));
            log.incidents_ms.push(ms(took));
            matches!(black_box(reply), ServiceReply::Incidents(rows) if rows.len() as u64 == alerts_so_far)
        }
        OpKind::Cycle => {
            let epoch = |svc: &ArtemisService| svc.pipeline().detector().routing_epoch().epoch();
            let result = stack.service(|svc| {
                // Each prefix's routing-epoch advance: its offboard
                // plus its onboard.
                let mut advances = vec![0u64; churn.len()];
                let (off, off_took) = clock.time(|| -> Result<(), ServiceError> {
                    for (p, advance) in churn.iter().zip(&mut advances) {
                        let before = epoch(svc);
                        svc.apply(ServiceCommand::RemoveOwnedPrefix { prefix: *p }, now)?;
                        *advance += epoch(svc) - before;
                    }
                    Ok(())
                });
                let (on, on_took) = clock.time(|| -> Result<(), ServiceError> {
                    for (p, advance) in churn.iter().zip(&mut advances) {
                        let before = epoch(svc);
                        let owned = OwnedPrefix::new(*p, Asn(OPERATOR));
                        svc.apply(ServiceCommand::AddOwnedPrefix { owned, policy: None }, now)?;
                        *advance += epoch(svc) - before;
                    }
                    Ok(())
                });
                off.and(on).map(|()| (off_took, on_took, advances))
            });
            match result {
                Ok((off, on, advances)) => {
                    let n = churn.len().max(1) as u32;
                    log.offboard_ms.push(ms(off / n));
                    log.onboard_ms.push(ms(on / n));
                    log.epoch_advances.extend(advances);
                    true
                }
                Err(_) => false,
            }
        }
    };
    if !ok {
        log.errors += 1;
    }
}

/// The idle control-plane probes: calls in [`OP_PLAN`] order on `stack`,
/// back to back for `phase`, timed on the calling thread's CPU clock.
/// `cursor` walks the churn pool across phases.
fn probe_idle(
    stack: &mut Stack,
    churn: &[Prefix],
    cursor: &mut usize,
    fleet: usize,
    phase: Duration,
    log: &mut OperatorLog,
) {
    let start = Instant::now();
    for op in OP_PLAN.into_iter().cycle() {
        if start.elapsed() >= phase {
            break;
        }
        let group: Vec<Prefix> = match op {
            OpKind::Cycle => (0..PROBE_GROUP_SIZE)
                .map(|i| churn[(*cursor + i) % churn.len()])
                .collect(),
            OpKind::Status | OpKind::Incidents => Vec::new(),
        };
        *cursor += group.len();
        operator_call(stack, op, &group, SimTime::ZERO, fleet, 0, Clock::Cpu, log);
    }
}

/// Stage totals accumulated between two snapshots.
fn stage_delta(after: &StageStat, before: &StageStat) -> (u64, u64) {
    (
        after.nanos.saturating_sub(before.nanos),
        after.events.saturating_sub(before.events),
    )
}

fn ns_per_event(after: &StageStat, before: &StageStat) -> f64 {
    let (nanos, events) = stage_delta(after, before);
    if events == 0 {
        0.0
    } else {
        nanos as f64 / events as f64
    }
}

/// Decode the workload's own template with [`BmpScanner`]: ns per
/// event of the wire-decode layer, measured off the pump.
fn scan_ns_per_event(traffic: &Traffic) -> f64 {
    let start = Instant::now();
    let mut events = 0u64;
    for _ in 0..SCAN_PASSES {
        for item in BmpScanner::new(black_box(&traffic.template)) {
            let raw = item.expect("the template is well-formed");
            if let Ok(BmpMessage::RouteMonitoring {
                update: BgpMessage::Update(u),
                ..
            }) = raw.decode()
            {
                events += (u.nlri.len() + u.withdrawn.len()) as u64;
            }
        }
    }
    start.elapsed().as_nanos() as f64 / black_box(events).max(1) as f64
}

/// Run one workload end to end.
pub fn run(opts: &Options) -> Result<Report, String> {
    let workload = opts.workload;
    let load = workload.load();

    // --- Set-up, repeated; the last one is driven. Every instance is
    // probed idle right after its set-up, so the probe medians span many
    // heap layouts; more instances are set up and probed after the
    // traffic, so `setup_s` and the probes also span two moments.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    // Placement: this thread, which sets up, probes and pumps, and the
    // generator it spawns on one core; the driven instance's own threads
    // (its feed reader) on another. Skipped on a single core.
    let cpus = cpu::allowed_cpus();
    let cores = match cpus[..] {
        [feed, pump, ..] if cpu::pin(0, pump) => Some((feed, pump)),
        _ => None,
    };
    let reps = opts.setup_reps.max(1);
    let probe_for = opts.run_for.mul_f64(PROBE_SHARE) / reps as u32;
    let run_for = opts.run_for.saturating_sub(opts.run_for.mul_f64(2.0 * PROBE_SHARE));
    let churn = churn_pool(opts.fleet);
    let mut probe_cursor = 0usize;
    let mut setup_s = Vec::new();
    let mut probes = OperatorLog::default();
    let mut set_up_and_probe = |probes: &mut OperatorLog| -> Result<(Setup, HashSet<u32>), String> {
        let threads_before = cpu::tasks();
        let t = Instant::now();
        let mut s = set_up(opts.fleet, opts.seed, &listener)?;
        setup_s.push(t.elapsed().as_secs_f64());
        // Threads the set-up started (its feed reader; pool workers if
        // configured).
        let threads = cpu::tasks()
            .into_keys()
            .filter(|tid| !threads_before.contains_key(tid))
            .collect();
        probe_idle(
            &mut s.stack,
            &churn,
            &mut probe_cursor,
            opts.fleet,
            probe_for,
            probes,
        );
        Ok((s, threads))
    };
    let mut setup: Option<(Setup, HashSet<u32>)> = None;
    for _ in 0..reps {
        drop(setup.take());
        setup = Some(set_up_and_probe(&mut probes)?);
    }
    let (
        Setup {
            mut stack,
            feed,
            mut sock,
        },
        program_threads,
    ) = setup.expect("at least one set-up");
    let mut churn_next = 0usize;
    let mut next_churn = |n: usize| -> Vec<Prefix> {
        let group = (0..n)
            .map(|k| churn[(churn_next + k) % churn.len()])
            .collect();
        churn_next += n;
        group
    };

    let placement = match cores {
        Some((feed, pump)) => {
            let feed = if program_threads.iter().all(|tid| cpu::pin(*tid, feed)) {
                format!("cpu {feed}")
            } else {
                "unpinned".to_string()
            };
            format!("feed threads on {feed}; set-up, probes, pump and generator on cpu {pump}")
        }
        None => "unpinned".to_string(),
    };

    // --- Input: generated and encoded before the traffic clock starts,
    // and after set-up so the service's heap layout does not depend on
    // the seed.
    let traffic = traffic::build(opts.seed, opts.fleet, workload.mix(), run_for);
    let origin = Instant::now();
    let sim = |t: Instant| SimTime::from_micros(since(t, origin).as_micros() as u64);

    // --- Traffic.
    let shared = GenShared::default();
    let mut ledger = Ledger::new(&traffic);
    let mut ops = OperatorLog::default();
    let mut next_op = 0usize;
    let mut spans: Vec<PumpSpan> = Vec::new();
    let mut backlog: Vec<f64> = Vec::new();
    let mut monitors_max = 0usize;
    // Pump-thread time outside sleeps, and the part spent in operator
    // calls (traced runs).
    let mut loop_busy = Duration::ZERO;
    let mut op_busy = Duration::ZERO;
    let mut log_missed = 0u64;
    let mut cursor = stack.pipeline().event_log().live_cursor();
    let stages_before: StageMetrics = *stack.pipeline().stage_metrics();
    let delivered_before = stack.pipeline().events_delivered();
    let trace = opts.trace;

    let pump_tid = cpu::thread_id();
    let cpu_before = cpu::tasks();
    let start = Instant::now();
    let (gen_result, gen_cpu, drained_at, cpu_after) = std::thread::scope(|scope| {
        let traffic_ref = &traffic;
        let shared_ref = &shared;
        let sock_ref = &mut sock;
        let generator = scope.spawn(move || {
            let report = traffic::generate(sock_ref, traffic_ref, load, start, run_for, shared_ref);
            (report, cpu::thread_now())
        });

        let deadline = start + run_for + DRAIN_TIMEOUT;
        let mut delivered = 0u64;
        let drained_at = loop {
            let t0 = Instant::now();
            let now = sim(t0);
            let (pipeline, controller, helpers) = stack.parts();
            pipeline.poll_feeds(now);
            let t1 = if trace { Instant::now() } else { t0 };
            let n = pipeline.deliver_due(now, controller, helpers);
            let t2 = if trace { Instant::now() } else { t0 };
            let batch = pipeline.poll_events(cursor);
            let t3 = Instant::now();
            cursor = batch.next;
            log_missed += batch.missed;
            delivered += n;

            for ev in &batch.events {
                record_event(
                    ev,
                    &traffic,
                    &mut ledger,
                    PumpSpan {
                        start: t0,
                        polled: t1,
                        delivered: t2,
                        end: t3,
                        events: n,
                    },
                );
            }

            let lag = pipeline.hub().feed_lag(feed).unwrap_or_default();
            let accounted = delivered + lag.dropped_events;
            if matches!(load, Load::Closed { .. }) {
                shared.accounted.store(accounted, Ordering::SeqCst);
            }
            if trace {
                spans.push(PumpSpan {
                    start: t0,
                    polled: t1,
                    delivered: t2,
                    end: t3,
                    events: n,
                });
                let (queued, monitors) = trace_sample(pipeline, feed, &shared);
                backlog.push(queued);
                monitors_max = monitors_max.max(monitors);
            }

            // Operator calls at fixed instants, between pumps.
            if workload == Workload::OperatorMix
                && since(t3, start) >= OP_PERIOD * (next_op as u32 + 1)
                && since(t3, start) < run_for
            {
                let t = Instant::now();
                operator_call(
                    &mut stack,
                    OP_PLAN[next_op % OP_PLAN.len()],
                    &next_churn(1),
                    sim(t),
                    opts.fleet,
                    ledger.alerts_total,
                    Clock::Wall,
                    &mut ops,
                );
                op_busy += t.elapsed();
                next_op += 1;
            }

            let t4 = Instant::now();
            loop_busy += since(t4, t0);
            if t4 > deadline
                || (shared.done.load(Ordering::SeqCst)
                    && accounted >= shared.sent.load(Ordering::SeqCst))
            {
                break t4;
            }
            if n == 0 {
                // To the next tick of a fixed grid: an idle pump wakes a
                // fixed number of times a second, whatever the timer
                // slack, so its idle cost per second holds still.
                let ticks = since(t4, start).as_nanos() / PUMP_IDLE.as_nanos() + 1;
                let tick = start + PUMP_IDLE * ticks as u32;
                std::thread::sleep(tick.saturating_duration_since(Instant::now()));
            }
        };
        let cpu_after = cpu::tasks();
        let (gen, gen_cpu): (std::io::Result<GenReport>, Duration) =
            generator.join().expect("generator thread");
        (gen, gen_cpu, drained_at, cpu_after)
    });
    let gen = gen_result.map_err(|e| format!("generator: {e}"))?;
    let elapsed = since(drained_at, start);

    // --- More set-ups, each probed idle and then dropped.
    for _ in 0..reps {
        drop(set_up_and_probe(&mut probes)?);
    }
    // On-CPU time of each thread over the traffic: the pump, and the
    // program's own threads (the live feed's reader; pool workers if
    // configured). The generator is paced by the bench, so it is not a
    // candidate for the busiest thread.
    let cpu_of = |tid: &u32| {
        let before = cpu_before.get(tid).copied().unwrap_or(Duration::ZERO);
        cpu_after[tid].saturating_sub(before)
    };
    let pump_cpu = if cpu_after.contains_key(&pump_tid) {
        cpu_of(&pump_tid)
    } else {
        Duration::ZERO
    };
    let feed_cpu: Vec<Duration> = cpu_after
        .keys()
        .filter(|tid| program_threads.contains(tid) && cpu_before.contains_key(tid))
        .map(cpu_of)
        .collect();
    let busiest = feed_cpu.iter().copied().fold(pump_cpu, Duration::max);

    // --- Final accounting and controller cross-check.
    let pipeline = stack.pipeline();
    let lag = pipeline.hub().feed_lag(feed).unwrap_or_default();
    let delivered = pipeline.events_delivered() - delivered_before;
    let stages_after: StageMetrics = *pipeline.stage_metrics();
    let (_, controller, _) = stack.parts();
    let installed: HashSet<Prefix> = controller
        .intents()
        .filter(|i| i.kind == IntentKind::Announce)
        .map(|i| i.prefix)
        .collect();
    for (h, plan) in ledger.announced_by_plan.iter().enumerate() {
        if ledger.intents[h] > 0 && !plan.iter().all(|p| installed.contains(p)) {
            ledger.mismatched += 1;
        }
    }

    let mut epoch_advances = probes.epoch_advances.clone();
    epoch_advances.extend(&ops.epoch_advances);
    let evidence = Evidence {
        alerts_per_hijack: ledger.alerts.clone(),
        intents_per_hijack: ledger.intents.clone(),
        mismatched: ledger.mismatched,
        stray_alerts: ledger.stray_alerts,
        sent: gen.events,
        delivered,
        shed: lag.shed_events,
        filtered: lag.dropped_events - lag.shed_events,
        epoch_advances,
        closed_loop: matches!(load, Load::Closed { .. }),
        log_missed,
        op_errors: probes.errors + ops.errors,
    };

    let hijacks = traffic.hijacks.len();
    let missed = ledger.intents.iter().filter(|i| **i == 0).count();
    // Each incident's clock starts when its bytes were due (open loop)
    // or written (closed loop, where the generator waits on the window).
    let timing: Vec<IncidentTiming> = ledger
        .intent_pump
        .iter()
        .enumerate()
        .filter_map(|(h, pump)| {
            let from = match load {
                Load::Open { .. } => start + traffic.hijacks[h].due,
                Load::Closed { .. } => gen.hijack_written[h]?,
            };
            pump.map(|p| IncidentTiming::new(from, &p))
        })
        .collect();
    let intent_ms: Vec<f64> = timing.iter().map(|t| t.intent_ms).collect();
    let intent_p50 = median(&intent_ms);
    let intent_p95 = percentile(&intent_ms, 0.95);

    // The end-to-end control-plane figures are the idle probes on the
    // CPU clock, the same on every workload: under load their medians
    // follow the incident count and host noise too closely to bound. The
    // calls a workload makes under load are reported per layer (`ctl.*`,
    // wall time).
    let ctl = if ops.calls > 0 { &ops } else { &probes };
    let ctl_median = |v: &[f64]| median(v).unwrap_or(0.0);
    let throughput = delivered as f64 / elapsed.as_secs_f64();
    // Events per second of the busiest program thread's on-CPU time:
    // the rate the ingest path sustains when its bottleneck thread has a
    // core, which wall throughput on a shared host does not isolate.
    let capacity = delivered as f64 / busiest.as_secs_f64().max(1e-9);
    let cpu_per_event = |d: Duration| d.as_nanos() as f64 / delivered.max(1) as f64;

    let mut report = Report {
        gates: Vec::new(),
        checks: Vec::new(),
        attempted: hijacks as u64 + probes.calls + ops.calls,
        failed: 0,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        info: Vec::new(),
        env: vec![
            ("workload", workload.name().to_string()),
            ("seed", opts.seed.to_string()),
            ("run_seconds", format!("{}", opts.run_for.as_secs_f64())),
            ("traffic_seconds", format!("{}", run_for.as_secs_f64())),
            (
                "probes",
                format!(
                    "2 x {reps} instances x {} s, before and after the traffic",
                    probe_for.as_secs_f64()
                ),
            ),
            ("fleet", opts.fleet.to_string()),
            (
                "host_cores",
                std::thread::available_parallelism()
                    .map_or(0, |n| n.get())
                    .to_string(),
            ),
            (
                "workers",
                stack.pipeline().pipeline_config().workers.to_string(),
            ),
            ("ring_capacity", RING_CAPACITY.to_string()),
            ("placement", placement),
            (
                "load",
                match load {
                    Load::Open { rate_eps } => format!("open loop, {rate_eps} events/s offered"),
                    Load::Closed { window } => format!("closed loop, window {window} events"),
                },
            ),
            ("traffic_shape", traffic::shape()),
            ("generator_threads", "1".to_string()),
            ("connections", "1".to_string()),
            ("hijacks", hijacks.to_string()),
            ("trace", u8::from(trace).to_string()),
        ],
        span_summary: Vec::new(),
    };

    let wrong_hijacks = ledger
        .alerts
        .iter()
        .zip(&ledger.intents)
        .filter(|(a, i)| !(**a == 1 && **i == 1))
        .count() as u64;
    report.failed = wrong_hijacks + probes.errors + ops.errors;

    report.end_to_end = vec![
        metric("setup_s", median(&setup_s).unwrap_or(0.0), "s"),
        metric("rss_mb", peak_rss_mb(), "MiB"),
        metric("capacity_eps", capacity, "events/s"),
        metric("intent_ms_p50", intent_p50.unwrap_or(0.0), "ms"),
        metric("status_cpu_ms_p50", ctl_median(&probes.status_ms), "ms"),
        metric("offboard_cpu_ms_p50", ctl_median(&probes.offboard_ms), "ms"),
        metric(
            "onboard_cpu_us_p50",
            ctl_median(&probes.onboard_ms) * 1e3,
            "us",
        ),
    ];
    let tail_ok = intent_p95.is_some();
    // Named end-to-end figures that are not bounded: wall throughput
    // and the tail swing with host noise, and the miss and shed shares
    // are 0 by design (gated). They are printed with every run and
    // reported per layer.
    report.info = vec![
        metric("throughput_eps", throughput, "events/s"),
        metric("intent_ms_p95", intent_p95.unwrap_or(0.0), "ms"),
        metric(
            "missed_frac",
            missed as f64 / hijacks.max(1) as f64,
            "ratio",
        ),
        metric(
            "shed_frac",
            evidence.shed as f64 / evidence.sent.max(1) as f64,
            "ratio",
        ),
    ];
    if trace {
        let poll: Duration = spans.iter().map(|s| since(s.polled, s.start)).sum();
        let events: Duration = spans.iter().map(|s| since(s.end, s.delivered)).sum();
        // `deliver_due` records its stages only for non-empty batches;
        // empty calls are their own bench-timed span.
        let (full, empty): (Vec<&PumpSpan>, Vec<&PumpSpan>) =
            spans.iter().partition(|s| s.events > 0);
        let deliver: Duration = full.iter().map(|s| since(s.delivered, s.polled)).sum();
        let deliver_empty: Duration = empty.iter().map(|s| since(s.delivered, s.polled)).sum();
        let b = &stages_before;
        let a = &stages_after;
        let stage_ns = [
            stage_delta(&a.drain, &b.drain).0,
            stage_delta(&a.classify, &b.classify).0,
            stage_delta(&a.commit, &b.commit).0,
        ]
        .iter()
        .sum::<u64>() as f64;
        // The layers explain the pump thread's busy time through the
        // bench-timed public calls, except that a non-empty
        // `deliver_due` counts only as far as the program's own stage
        // sum reaches: what the call spends outside its recorded stages
        // is unexplained, and so is the pump loop's bookkeeping.
        let busy_ns = loop_busy.as_nanos() as f64;
        let deliver_ns = deliver.as_nanos() as f64;
        let explained = ((poll + deliver_empty + events + op_busy).as_nanos() as f64 + stage_ns)
            / busy_ns.max(1.0);
        report.checks.push(breakdown_check(explained));
        let per_event = |d: Duration| {
            if delivered == 0 {
                0.0
            } else {
                d.as_nanos() as f64 / delivered as f64
            }
        };
        let batches: Vec<f64> = full.iter().map(|s| s.events as f64).collect();
        let part = |f: fn(&IncidentTiming) -> f64| {
            median(&timing.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };

        report.per_layer = vec![
            metric(
                "bmp.scan_ns_per_event",
                scan_ns_per_event(&traffic),
                "ns/event",
            ),
            metric(
                "wire.backlog_events_p50",
                median(&backlog).unwrap_or(0.0),
                "events",
            ),
            metric("wire.backlog_events_max", max(&backlog), "events"),
            metric("wire.filtered", evidence.filtered as f64, "count"),
            metric("poll.ns_per_event", per_event(poll), "ns/event"),
            metric(
                "drain.ns_per_event",
                ns_per_event(&a.drain, &b.drain),
                "ns/event",
            ),
            metric(
                "drain_merge.ns_per_event",
                ns_per_event(&a.drain_merge, &b.drain_merge),
                "ns/event",
            ),
            metric(
                "classify.ns_per_event",
                ns_per_event(&a.classify, &b.classify),
                "ns/event",
            ),
            metric(
                "classify_prepare.ns_per_event",
                ns_per_event(&a.classify_prepare, &b.classify_prepare),
                "ns/event",
            ),
            metric(
                "commit.ns_per_event",
                ns_per_event(&a.commit, &b.commit),
                "ns/event",
            ),
            metric(
                "commit.detect_ns_per_event",
                ns_per_event(&a.detect, &b.detect),
                "ns/event",
            ),
            metric(
                "commit.monitor_route_ns_per_event",
                ns_per_event(&a.monitor_route, &b.monitor_route),
                "ns/event",
            ),
            metric(
                "commit.monitor_ingest_ns_per_event",
                ns_per_event(&a.monitor_ingest, &b.monitor_ingest),
                "ns/event",
            ),
            metric(
                "commit.resolve_ns_per_event",
                ns_per_event(&a.resolve, &b.resolve),
                "ns/event",
            ),
            metric(
                "commit.mitigate_ns_per_event",
                ns_per_event(&a.mitigate, &b.mitigate),
                "ns/event",
            ),
            metric("deliver.ns_per_event", per_event(deliver), "ns/event"),
            metric(
                "deliver.batch_events_p50",
                median(&batches).unwrap_or(0.0),
                "events",
            ),
            metric(
                "deliver.empty_ns_per_call",
                deliver_empty.as_nanos() as f64 / empty.len().max(1) as f64,
                "ns/call",
            ),
            metric(
                "deliver.unexplained_frac",
                if deliver_ns > 0.0 {
                    (1.0 - stage_ns / deliver_ns).max(0.0)
                } else {
                    0.0
                },
                "ratio",
            ),
            metric(
                "pump.busy_frac",
                busy_ns / elapsed.as_nanos() as f64,
                "ratio",
            ),
            metric("pump.explained_frac", explained, "ratio"),
            metric("incident.wire_ms_p50", part(|t| t.wire_ms), "ms"),
            metric("incident.poll_ms_p50", part(|t| t.poll_ms), "ms"),
            metric("incident.deliver_ms_p50", part(|t| t.deliver_ms), "ms"),
            metric("incident.events_ms_p50", part(|t| t.events_ms), "ms"),
            metric(
                "events.poll_ns_per_call",
                events.as_nanos() as f64 / spans.len().max(1) as f64,
                "ns/call",
            ),
            metric("ctl.status_ms_p50", ctl_median(&ctl.status_ms), "ms"),
            metric("ctl.incidents_ms_p50", ctl_median(&ctl.incidents_ms), "ms"),
            metric("ctl.offboard_ms_p50", ctl_median(&ctl.offboard_ms), "ms"),
            metric("ctl.onboard_ms_p50", ctl_median(&ctl.onboard_ms), "ms"),
            metric("ctl.status_rows", ctl.status_rows as f64, "rows"),
            metric("alerts.raised", ledger.alerts_total as f64, "count"),
            metric("monitors.active_max", monitors_max as f64, "count"),
            metric("incidents.resolved", ledger.resolved as f64, "count"),
            metric(
                "gen.late_ms_p99",
                percentile_or_max(&gen.late_ms, 0.99),
                "ms",
            ),
            metric("gen.late_ms_max", max(&gen.late_ms), "ms"),
            metric(
                "thread.pump_cpu_ns_per_event",
                cpu_per_event(pump_cpu),
                "ns/event",
            ),
            metric(
                "thread.feed_cpu_ns_per_event",
                cpu_per_event(feed_cpu.iter().sum()),
                "ns/event",
            ),
            metric(
                "thread.gen_cpu_ns_per_event",
                cpu_per_event(gen_cpu),
                "ns/event",
            ),
            metric("trace.intent_ms_p50", intent_p50.unwrap_or(0.0), "ms"),
            metric("trace.intent_ms_p95", intent_p95.unwrap_or(0.0), "ms"),
            metric("trace.throughput_eps", throughput, "events/s"),
            metric("trace.capacity_eps", capacity, "events/s"),
        ];
        report.span_summary = vec![
            span_line("pump thread, busy", spans.len(), loop_busy),
            span_line("  Pipeline::poll_feeds", spans.len(), poll),
            span_line("  Pipeline::deliver_due (events)", full.len(), deliver),
            span_line(
                "  Pipeline::deliver_due (empty)",
                empty.len(),
                deliver_empty,
            ),
            span_line("  ArtemisService::poll_events", spans.len(), events),
            span_line("  ArtemisService::apply/query", ops.calls as usize, op_busy),
            format!(
                "    stage sum (drain + classify + commit) {:.1} ms",
                stage_ns / 1e6
            ),
        ];
    }

    report.gates = judge(&evidence);
    report.gates.push(gate(
        "intent_tail_supported",
        tail_ok,
        format!(
            "{} intents; p95 needs at least 200 (10 beyond it)",
            intent_ms.len()
        ),
    ));
    Ok(report)
}

fn span_line(name: &str, calls: usize, total: Duration) -> String {
    format!(
        "{name:<48} {calls:>9} calls {:>10.1} ms {:>9.0} ns/call",
        ms(total),
        total.as_nanos() as f64 / calls.max(1) as f64
    )
}

/// The traced per-pump samples: events on the wire side (sent but
/// neither emitted to the hub nor dropped) and active monitors.
fn trace_sample(pipeline: &Pipeline, feed: FeedHandle, shared: &GenShared) -> (f64, usize) {
    let dropped = pipeline
        .hub()
        .feed_lag(feed)
        .unwrap_or_default()
        .dropped_events;
    let emitted = pipeline
        .hub()
        .handles()
        .map(|(_, f)| f.events_emitted())
        .sum::<u64>();
    let sent = shared.sent.load(Ordering::SeqCst);
    let queued = sent.saturating_sub(emitted + dropped) as f64;
    (queued, pipeline.monitors().count())
}

/// Fold one incident event into the ledger.
fn record_event(ev: &IncidentEvent, traffic: &Traffic, ledger: &mut Ledger, pump: PumpSpan) {
    match ev {
        IncidentEvent::AlertRaised {
            alert,
            owned_prefix,
            observed_prefix,
            hijack_type,
            ..
        } => {
            ledger.alerts_total += 1;
            let Some(&h) = ledger.by_announced.get(observed_prefix) else {
                ledger.stray_alerts += 1;
                return;
            };
            let hijack = &traffic.hijacks[h];
            let expected = match hijack.attack {
                Attack::Exact => HijackType::ExactOrigin,
                Attack::SubPrefix => HijackType::SubPrefix,
            };
            if *owned_prefix != hijack.victim || *hijack_type != expected {
                ledger.mismatched += 1;
            }
            ledger.alerts[h] += 1;
            ledger.hijack_of_alert.insert(*alert, h);
        }
        IncidentEvent::MitigationTriggered { alert, plan, .. } => {
            let Some(&h) = ledger.hijack_of_alert.get(alert) else {
                ledger.mismatched += 1;
                return;
            };
            if plan.target != traffic.hijacks[h].announced {
                ledger.mismatched += 1;
            }
            ledger.intents[h] += 1;
            ledger.announced_by_plan[h] = plan.announce.clone();
            ledger.intent_pump[h] = Some(pump);
        }
        IncidentEvent::Resolved { .. } => ledger.resolved += 1,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good() -> Evidence {
        Evidence {
            alerts_per_hijack: vec![1; 5],
            intents_per_hijack: vec![1; 5],
            sent: 100,
            delivered: 90,
            shed: 0,
            filtered: 10,
            epoch_advances: vec![2; 3],
            closed_loop: true,
            ..Evidence::default()
        }
    }

    fn failing(e: &Evidence) -> Vec<&'static str> {
        judge(e)
            .into_iter()
            .filter(|g| !g.passed)
            .map(|g| g.name)
            .collect()
    }

    #[test]
    fn clean_evidence_passes_every_gate() {
        assert!(failing(&good()).is_empty(), "{:?}", judge(&good()));
    }

    #[test]
    fn each_defect_trips_its_gate() {
        let mut e = good();
        e.intents_per_hijack[2] = 0;
        assert_eq!(failing(&e), ["one_intent_per_hijack"]);

        let mut e = good();
        e.intents_per_hijack[2] = 2;
        assert_eq!(failing(&e), ["one_intent_per_hijack"]);

        let mut e = good();
        e.alerts_per_hijack[0] = 2;
        assert_eq!(failing(&e), ["one_intent_per_hijack"]);

        let mut e = good();
        e.mismatched = 1;
        assert_eq!(failing(&e), ["one_intent_per_hijack"]);

        let mut e = good();
        e.stray_alerts = 1;
        assert_eq!(failing(&e), ["no_false_alerts"]);

        let mut e = good();
        e.delivered -= 1;
        assert_eq!(failing(&e), ["event_accounting"]);

        let mut e = good();
        e.epoch_advances[1] = 3;
        assert_eq!(failing(&e), ["epoch_two_per_cycle"]);

        let mut e = good();
        e.shed = 1;
        e.delivered -= 1;
        assert_eq!(failing(&e), ["closed_loop_never_sheds"]);
        e.closed_loop = false;
        assert!(failing(&e).is_empty(), "open loops may shed under overload");

        let mut e = good();
        e.log_missed = 4;
        assert_eq!(failing(&e), ["event_log_complete"]);

        let mut e = good();
        e.op_errors = 1;
        assert_eq!(failing(&e), ["operator_calls"]);
    }

    #[test]
    fn breakdown_check_needs_ninety_percent() {
        assert!(breakdown_check(0.9).passed);
        assert!(breakdown_check(0.97).passed);
        assert!(!breakdown_check(0.89).passed);
    }

    /// A smoke-sized pass of every workload: small fleet, short run,
    /// traced so the breakdown check is computed too.
    #[test]
    fn smoke_every_workload_passes_its_gates() {
        for workload in Workload::ALL {
            let report = run(&Options {
                workload,
                seed: 11,
                run_for: Duration::from_millis(1_500),
                trace: true,
                fleet: 4_096,
                setup_reps: 2,
            })
            .expect("smoke run");
            let failed: Vec<&Gate> = report
                .gates
                .iter()
                .filter(|g| !g.passed && g.name != "intent_tail_supported")
                .collect();
            assert!(failed.is_empty(), "{}: {failed:?}", workload.name());
            assert_eq!(report.failed, 0, "{}", workload.name());
            assert!(report.attempted > 0);
            assert_eq!(report.end_to_end.len(), 7);
            assert!(report.per_layer.iter().all(|m| m.value.is_finite()));
            assert_eq!(report.checks.len(), 1, "{}", workload.name());
        }
    }
}
