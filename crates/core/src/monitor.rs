//! The monitoring service: per-vantage-point origin tracking.
//!
//! "In parallel to the mitigation, a monitoring service is running to
//! provide real-time information about the mitigation process." (§2)
//! The demo (§4) visualizes vantage points around the globe switching
//! between the legitimate and illegitimate origin — this module keeps
//! that state and declares the incident resolved when every vantage
//! point routes to a legitimate origin again.

use crate::alert::AlertId;
use artemis_bgp::{Asn, Prefix, PrefixTrie};
use artemis_feeds::FeedEvent;
use artemis_simnet::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// What a vantage point currently selects for the monitored space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpState {
    /// No route observed yet.
    Unknown,
    /// Routes to a legitimate origin.
    Legitimate,
    /// Routes to the offending origin.
    Hijacked,
}

/// A snapshot row of the monitoring timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimelinePoint {
    /// When.
    pub time: SimTime,
    /// Vantage points currently on a legitimate origin.
    pub legitimate: usize,
    /// Vantage points currently on the offending origin.
    pub hijacked: usize,
    /// Vantage points with no information yet.
    pub unknown: usize,
}

/// Tracks, per vantage point, the origin selected for a monitored
/// prefix (longest-prefix-match over everything that VP reported).
#[derive(Debug)]
pub struct MonitorService {
    /// The monitored (owned) prefix.
    target: Prefix,
    legitimate_origins: BTreeSet<Asn>,
    /// Expected vantage points (fixed population for percentages).
    vantage_points: BTreeSet<Asn>,
    /// vp -> (prefix -> origin) observations within the target space.
    observations: BTreeMap<Asn, BTreeMap<Prefix, Option<Asn>>>,
    /// Recorded timeline (one point per state change).
    timeline: Vec<TimelinePoint>,
}

impl MonitorService {
    /// Monitor `target` with the given legitimacy rules across a fixed
    /// vantage-point population.
    pub fn new(
        target: Prefix,
        legitimate_origins: BTreeSet<Asn>,
        vantage_points: BTreeSet<Asn>,
    ) -> Self {
        MonitorService {
            target,
            legitimate_origins,
            vantage_points,
            observations: BTreeMap::new(),
            timeline: Vec::new(),
        }
    }

    /// The monitored prefix.
    pub fn target(&self) -> Prefix {
        self.target
    }

    /// True when `prefix` concerns the monitored space: the target
    /// contains it (mitigation de-aggregates, hijacker sub-prefixes)
    /// or it contains the target (covering announcements). This is the
    /// relevance relation the pipeline's [`MonitorIndex`] evaluates
    /// once per event over *all* active monitors instead of once per
    /// `(event, monitor)` pair.
    pub fn is_relevant(&self, prefix: Prefix) -> bool {
        self.target.contains(prefix) || prefix.contains(self.target)
    }

    /// Ingest a monitoring event; records a timeline point when the
    /// reporting vantage point's selection changed.
    ///
    /// This is the *checked* entry point for direct callers: events
    /// outside the monitored space (see [`MonitorService::is_relevant`])
    /// are silently ignored. The pipeline's hot path routes events
    /// through the [`MonitorIndex`] instead, which guarantees relevance
    /// up front and calls the crate-private `ingest_routed` directly.
    ///
    /// The change test is **per-VP**, not aggregate: it compares the
    /// reporting VP's `(state, selected origin)` before and after the
    /// observation. Comparing aggregate `(legitimate, hijacked,
    /// unknown)` counts — the previous behaviour — suppressed every
    /// transition that left the totals untouched: a vantage point
    /// switching from one hijacker origin to another (or between two
    /// legitimate anycast origins) stayed inside its bucket, and
    /// opposite per-VP flips netting out across a recorded point
    /// vanished from the timeline entirely.
    pub fn ingest(&mut self, event: &FeedEvent) {
        // Only events about the monitored space matter.
        if !self.is_relevant(event.prefix) {
            return;
        }
        self.ingest_routed(event);
    }

    /// [`MonitorService::ingest`] minus the relevance check: the
    /// caller asserts the event concerns the monitored space (it was
    /// routed here by the [`MonitorIndex`]). Relevance is re-verified
    /// only in debug builds — a routing-layer bug trips the assert in
    /// tests instead of silently corrupting observations in
    /// production.
    pub(crate) fn ingest_routed(&mut self, event: &FeedEvent) {
        debug_assert!(
            self.is_relevant(event.prefix),
            "event {} routed to monitor {} without relevance",
            event.prefix,
            self.target
        );
        if !self.vantage_points.contains(&event.vantage) {
            return;
        }
        let before = self.vp_observation(event.vantage);
        let slot = self.observations.entry(event.vantage).or_default();
        match (&event.as_path, event.origin_as) {
            (Some(_), origin) => {
                slot.insert(event.prefix, origin);
            }
            (None, _) => {
                slot.remove(&event.prefix);
            }
        }
        let after = self.vp_observation(event.vantage);
        if self.timeline.is_empty() || before != after {
            self.timeline.push(self.snapshot(event.emitted_at));
        }
    }

    /// The state of one vantage point together with the origin its
    /// LPM-selected observation points at (`None` when the VP has no
    /// data, or its best route carries an AS_SET origin).
    pub fn vp_observation(&self, vp: Asn) -> (VpState, Option<Asn>) {
        let Some(obs) = self.observations.get(&vp) else {
            return (VpState::Unknown, None);
        };
        // Longest prefix match across everything the VP reported that
        // covers (part of) the target. For the paper's measurement the
        // address under test is the target prefix itself (its first
        // address).
        let best = obs
            .iter()
            .filter(|(p, _)| p.contains(self.target) || self.target.contains(**p))
            .max_by_key(|(p, _)| p.len());
        match best {
            None => (VpState::Unknown, None),
            Some((_, Some(origin))) if self.legitimate_origins.contains(origin) => {
                (VpState::Legitimate, Some(*origin))
            }
            Some((_, Some(origin))) => (VpState::Hijacked, Some(*origin)),
            Some((_, None)) => (VpState::Hijacked, None), // AS_SET origin: suspicious
        }
    }

    /// The state of one vantage point (LPM over its observations).
    pub fn vp_state(&self, vp: Asn) -> VpState {
        self.vp_observation(vp).0
    }

    /// Drop everything `vp` ever reported about the monitored space:
    /// its BGP session to the collector went down (BMP `peer_down`),
    /// so its routes are no longer current. The vantage point returns
    /// to [`VpState::Unknown`] until it reports again; a timeline
    /// point is recorded when the purge changed its state. Returns
    /// `true` when the VP actually had observations to drop.
    ///
    /// Purging never *resolves* an incident by itself — resolution is
    /// evaluated on the next ingested event, exactly like any other
    /// state change — so a flapping session cannot silently close an
    /// alert.
    pub fn purge_vantage(&mut self, vp: Asn, at: SimTime) -> bool {
        let before = self.vp_observation(vp);
        if self.observations.remove(&vp).is_none() {
            return false;
        }
        let after = self.vp_observation(vp);
        if before != after {
            self.timeline.push(self.snapshot(at));
        }
        true
    }

    /// Aggregate counts now.
    pub fn snapshot(&self, time: SimTime) -> TimelinePoint {
        let mut legitimate = 0;
        let mut hijacked = 0;
        let mut unknown = 0;
        for vp in &self.vantage_points {
            match self.vp_state(*vp) {
                VpState::Legitimate => legitimate += 1,
                VpState::Hijacked => hijacked += 1,
                VpState::Unknown => unknown += 1,
            }
        }
        TimelinePoint {
            time,
            legitimate,
            hijacked,
            unknown,
        }
    }

    /// True when every vantage point that has data selects a
    /// legitimate origin (the paper's "mitigation completed": *all*
    /// vantage points switched back) and at least one VP has data.
    pub fn all_legitimate(&self) -> bool {
        let snap = self.snapshot(SimTime::ZERO);
        snap.hijacked == 0 && snap.legitimate > 0
    }

    /// True when at least one vantage point selects the hijacker.
    pub fn any_hijacked(&self) -> bool {
        self.vantage_points
            .iter()
            .any(|vp| self.vp_state(*vp) == VpState::Hijacked)
    }

    /// The recorded timeline.
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }

    /// Number of monitored vantage points.
    pub fn vantage_count(&self) -> usize {
        self.vantage_points.len()
    }

    /// Freeze this monitor into its compact retirement record,
    /// dropping the per-VP observation maps (the part of monitor state
    /// that grows with every ingested event). `at` stamps the final
    /// snapshot. See [`RetiredMonitor`].
    pub fn retire(self, at: SimTime) -> RetiredMonitor {
        let final_point = self.snapshot(at);
        RetiredMonitor {
            target: self.target,
            vantage_count: self.vantage_points.len(),
            final_point,
            timeline: self.timeline,
        }
    }
}

/// Compact record of a monitor whose incident is over (resolved, or
/// closed by offboarding its prefix).
///
/// Keeps what reporting needs — the target, the recorded timeline (one
/// point per state *change*, so bounded by transitions rather than
/// event volume) and the final aggregate counts — while dropping the
/// per-VP, per-prefix observation maps that grow with feed volume.
/// Long-running daemons therefore pay a small frozen record per
/// lifetime incident instead of leaking full monitor state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetiredMonitor {
    target: Prefix,
    vantage_count: usize,
    final_point: TimelinePoint,
    timeline: Vec<TimelinePoint>,
}

impl RetiredMonitor {
    /// The prefix the monitor tracked.
    pub fn target(&self) -> Prefix {
        self.target
    }

    /// Number of vantage points the monitor tracked.
    pub fn vantage_count(&self) -> usize {
        self.vantage_count
    }

    /// Aggregate counts at retirement time.
    pub fn final_point(&self) -> &TimelinePoint {
        &self.final_point
    }

    /// The recorded timeline (identical to what the live monitor had).
    pub fn timeline(&self) -> &[TimelinePoint] {
        &self.timeline
    }
}

/// Prefix-routed index over the active monitors.
///
/// Maps each monitor's target prefix to the alerts monitoring it, so
/// the pipeline can answer "which monitors care about this event?" in
/// one trie walk ([`PrefixTrie::visit_relevant`]: an LPM-style
/// ancestor walk plus the subtree at the event prefix) instead of
/// scanning every active monitor per event. Kept in sync by the
/// pipeline on monitor create, retire (resolution) and offboard.
///
/// Several alerts can monitor the same target (e.g. an exact-prefix
/// and a sub-prefix hijack against one owned prefix), so each trie
/// node holds a sorted list of alert ids.
#[derive(Debug, Default)]
pub struct MonitorIndex {
    targets: PrefixTrie<Vec<AlertId>>,
    len: usize,
    /// Bumped on every successful `insert`/`remove`; versions the
    /// cached covering-set partition below.
    epoch: u64,
    /// Memoized [`MonitorIndex::covering_shards`] result, valid while
    /// the stored epoch matches. Steady-state delivery (no monitor
    /// births/retirements between batches) reuses it for free; the
    /// `Arc` lets the pipeline hold the partition across a batch while
    /// the index itself is mutably borrowed.
    shards_cache: Option<(u64, Arc<Vec<Vec<AlertId>>>)>,
}

impl MonitorIndex {
    /// An empty index.
    pub fn new() -> Self {
        MonitorIndex::default()
    }

    /// Number of indexed `(target, alert)` pairs (= active monitors).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no monitor is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutation counter: bumped whenever the indexed monitor set
    /// actually changes. No-op inserts/removes leave it untouched.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Index `alert`'s monitor under its target prefix.
    pub fn insert(&mut self, target: Prefix, alert: AlertId) {
        let ids = match self.targets.get_mut(target) {
            Some(ids) => ids,
            None => {
                self.targets.insert(target, Vec::new());
                self.targets.get_mut(target).expect("just inserted")
            }
        };
        match ids.binary_search(&alert) {
            Ok(_) => return, // already indexed
            Err(pos) => ids.insert(pos, alert),
        }
        self.len += 1;
        self.epoch += 1;
    }

    /// Drop `alert` from the index. Returns `false` when it was not
    /// indexed under `target`.
    pub fn remove(&mut self, target: Prefix, alert: AlertId) -> bool {
        let Some(ids) = self.targets.get_mut(target) else {
            return false;
        };
        let Ok(pos) = ids.binary_search(&alert) else {
            return false;
        };
        ids.remove(pos);
        if ids.is_empty() {
            self.targets.remove(target);
        }
        self.len -= 1;
        self.epoch += 1;
        true
    }

    /// The alerts whose monitors are relevant to an event on `prefix`
    /// (target contains the prefix, or the prefix contains the
    /// target), appended to `out` in ascending alert order — the same
    /// order the pre-index pipeline visited monitors in its
    /// all-monitors `BTreeMap` scan. `out` is cleared first; reuse one
    /// buffer across events to keep the hot path allocation-free.
    pub fn route(&self, prefix: Prefix, out: &mut Vec<AlertId>) {
        out.clear();
        self.targets.visit_relevant(prefix, |_, ids| {
            out.extend_from_slice(ids);
        });
        // Distinct targets hold distinct sorted runs; a merged view
        // must be globally sorted (and each id appears under exactly
        // one target, so no dedup is needed).
        out.sort_unstable();
    }

    /// Partition the active monitors into covering-set shards: targets
    /// that can share events (one contains the other) land in the same
    /// shard, keyed by the outermost indexed target above each. Two
    /// prefixes either nest or are disjoint, so nested targets form
    /// exact components. Monitors are per-alert state, so each shard
    /// ingests its events without regard to the others (a short
    /// covering announcement may still be routed to several shards —
    /// each ingests it into its own monitors independently).
    ///
    /// Shards are returned in address order of their outermost target,
    /// ids ascending within a shard — deterministic.
    pub fn covering_shards(&self) -> Vec<Vec<AlertId>> {
        let mut shards: Vec<Vec<AlertId>> = Vec::new();
        let mut current_root: Option<Prefix> = None;
        for (target, ids) in self.targets.iter() {
            let nested = current_root.is_some_and(|root| root.contains(target));
            if !nested {
                // Address-order iteration visits a covering prefix
                // before everything under it, so a target outside the
                // current root starts a new component.
                current_root = Some(target);
                shards.push(Vec::new());
            }
            let shard = shards.last_mut().expect("component started");
            shard.extend_from_slice(ids);
        }
        shards
    }

    /// [`MonitorIndex::covering_shards`], memoized against the index's
    /// epoch: recomputed only after a monitor was indexed or dropped
    /// since the last call.
    pub fn covering_shards_cached(&mut self) -> Arc<Vec<Vec<AlertId>>> {
        if let Some((at, shards)) = &self.shards_cache {
            if *at == self.epoch {
                return Arc::clone(shards);
            }
        }
        let shards = Arc::new(self.covering_shards());
        self.shards_cache = Some((self.epoch, Arc::clone(&shards)));
        shards
    }
}

/// One monitor checked out of the pipeline for a batch-ingest pass.
/// Everything the pass needs travels with the task; nothing borrows
/// the pipeline.
#[derive(Debug)]
pub(crate) struct MonitorTask {
    /// The alert this monitor belongs to.
    pub alert: AlertId,
    /// The monitor itself, moved out of the registry for the batch.
    pub monitor: MonitorService,
    /// Whether the alert's mitigation has executed. Constant for the
    /// whole batch: pre-existing alerts only flip this through
    /// operator commands (confirm/resume), which never run mid-batch.
    pub mitigated: bool,
    /// First batch index to consider (nonzero only when the pipeline's
    /// recheck pre-pass already consumed earlier events).
    pub start: usize,
}

/// What a batch-ingest pass decided for one monitor.
#[derive(Debug)]
pub(crate) struct MonitorOutcome {
    /// The alert the monitor belongs to.
    pub alert: AlertId,
    /// The monitor, with the batch's relevant events ingested up to
    /// (and including) the resolving event when one exists.
    pub monitor: MonitorService,
    /// Batch index of the event whose ingest completed the recovery
    /// (`mitigated` and every reporting vantage point legitimate), or
    /// `None` when the batch does not resolve this alert.
    pub resolved_at: Option<usize>,
}

/// Ingest one covering-set shard's slice of a batch into its monitor
/// tasks, sequentially and in batch order.
///
/// `indices` lists the batch positions routed to this shard (ascending;
/// a superset of each individual monitor's relevant events, since a
/// shard unions nested targets). Each task ingests its relevant events
/// in order and stops at the first event after which the alert
/// resolves — the pipeline applies the recorded resolution point
/// during the ordered commit walk, so log/action ordering is
/// independent of the order shards ran in.
pub(crate) fn run_monitor_tasks(
    events: &[FeedEvent],
    indices: &[u32],
    tasks: Vec<MonitorTask>,
    out: &mut Vec<MonitorOutcome>,
) {
    for mut task in tasks {
        let mut resolved_at = None;
        for &i in indices {
            let i = i as usize;
            if i < task.start {
                continue;
            }
            let event = &events[i];
            if !task.monitor.is_relevant(event.prefix) {
                continue;
            }
            task.monitor.ingest_routed(event);
            // `all_legitimate` only changes when an ingested
            // observation changes, so checking after each relevant
            // ingest visits every state-change point the old
            // per-event scan checked.
            if task.mitigated && task.monitor.all_legitimate() {
                resolved_at = Some(i);
                break;
            }
        }
        out.push(MonitorOutcome {
            alert: task.alert,
            monitor: task.monitor,
            resolved_at,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bgp::AsPath;
    use artemis_feeds::FeedKind;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
    }

    fn event(vp: u32, prefix: &str, origin: Option<u32>, t: u64) -> FeedEvent {
        FeedEvent {
            emitted_at: SimTime::from_secs(t),
            observed_at: SimTime::from_secs(t),
            source: FeedKind::RisLive,
            collector: "rrc00".into(),
            vantage: Asn(vp),
            prefix: pfx(prefix),
            as_path: origin.map(|o| AsPath::from_sequence([vp, o])),
            origin_as: origin.map(Asn),
            raw: None,
        }
    }

    fn service() -> MonitorService {
        MonitorService::new(
            pfx("10.0.0.0/23"),
            [Asn(65001)].into_iter().collect(),
            [Asn(174), Asn(3356), Asn(2914)].into_iter().collect(),
        )
    }

    #[test]
    fn initial_state_unknown() {
        let m = service();
        assert_eq!(m.vp_state(Asn(174)), VpState::Unknown);
        assert!(!m.all_legitimate());
        assert!(!m.any_hijacked());
    }

    #[test]
    fn legitimate_observation_counts() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        assert_eq!(m.vp_state(Asn(174)), VpState::Legitimate);
        let snap = m.snapshot(SimTime::from_secs(10));
        assert_eq!((snap.legitimate, snap.hijacked, snap.unknown), (1, 0, 2));
    }

    #[test]
    fn hijack_flips_vp() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 20));
        assert_eq!(m.vp_state(Asn(174)), VpState::Hijacked);
        assert!(m.any_hijacked());
    }

    #[test]
    fn more_specific_wins_within_vp() {
        let mut m = service();
        // Hijacked on the /23 but the mitigation /24s take precedence.
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 20));
        assert_eq!(m.vp_state(Asn(174)), VpState::Hijacked);
        m.ingest(&event(174, "10.0.0.0/24", Some(65001), 30));
        assert_eq!(m.vp_state(Asn(174)), VpState::Legitimate);
    }

    #[test]
    fn all_legitimate_requires_every_vp_clean() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(3356, "10.0.0.0/23", Some(666), 12));
        m.ingest(&event(2914, "10.0.0.0/23", Some(65001), 13));
        assert!(!m.all_legitimate());
        m.ingest(&event(3356, "10.0.0.0/24", Some(65001), 40));
        assert!(
            m.all_legitimate(),
            "unknown VPs do not block resolution; hijacked ones do"
        );
    }

    #[test]
    fn peer_down_purge_resets_vp_to_unknown() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        m.ingest(&event(3356, "10.0.0.0/23", Some(65001), 11));
        assert_eq!(m.vp_state(Asn(174)), VpState::Hijacked);
        let points_before = m.timeline().len();

        // The hijacked VP's session to the collector drops: its stale
        // routes are purged, the VP returns to Unknown, and the state
        // change lands on the timeline.
        assert!(m.purge_vantage(Asn(174), SimTime::from_secs(20)));
        assert_eq!(m.vp_state(Asn(174)), VpState::Unknown);
        assert_eq!(m.timeline().len(), points_before + 1);
        let last = m.timeline().last().unwrap();
        assert_eq!(last.time, SimTime::from_secs(20));
        assert_eq!((last.legitimate, last.hijacked, last.unknown), (1, 0, 2));

        // A VP with nothing recorded purges to nothing — no timeline
        // noise from flapping sessions that never reported.
        assert!(!m.purge_vantage(Asn(174), SimTime::from_secs(21)));
        assert!(!m.purge_vantage(Asn(2914), SimTime::from_secs(22)));
        assert_eq!(m.timeline().len(), points_before + 1);

        // Purging alone never resolves: the legitimate VP still has
        // data, but `all_legitimate` is only *acted on* at the next
        // ingest (here it merely reads true, as any snapshot would).
        assert!(m.all_legitimate());
    }

    #[test]
    fn withdrawal_clears_observation() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        assert_eq!(m.vp_state(Asn(174)), VpState::Hijacked);
        m.ingest(&event(174, "10.0.0.0/23", None, 20));
        assert_eq!(m.vp_state(Asn(174)), VpState::Unknown);
    }

    #[test]
    fn unrelated_events_ignored() {
        let mut m = service();
        m.ingest(&event(174, "8.8.8.0/24", Some(15169), 10));
        m.ingest(&event(9999, "10.0.0.0/23", Some(666), 11)); // not a VP
        assert_eq!(m.vp_state(Asn(174)), VpState::Unknown);
        assert!(!m.any_hijacked());
    }

    #[test]
    fn timeline_records_changes_only() {
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 11)); // no change
        m.ingest(&event(3356, "10.0.0.0/23", Some(666), 12));
        assert_eq!(m.timeline().len(), 2);
        assert_eq!(m.timeline()[1].hijacked, 1);
    }

    #[test]
    fn hijacker_origin_swap_records_a_timeline_point() {
        // Regression: the old aggregate-count comparison suppressed
        // every per-VP transition that left (legitimate, hijacked,
        // unknown) untouched — a vantage point moving from one
        // hijacker to another stayed "1 hijacked" and vanished from
        // the timeline.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        assert_eq!(m.timeline().len(), 1);
        m.ingest(&event(174, "10.0.0.0/23", Some(667), 20));
        assert_eq!(
            m.timeline().len(),
            2,
            "origin 666 → 667 is a state transition even though the \
             aggregate counts are unchanged"
        );
        assert_eq!(m.timeline()[1].time, SimTime::from_secs(20));
        assert_eq!(
            m.vp_observation(Asn(174)),
            (VpState::Hijacked, Some(Asn(667)))
        );
    }

    #[test]
    fn legitimate_anycast_origin_swap_records_a_timeline_point() {
        let mut m = MonitorService::new(
            pfx("10.0.0.0/23"),
            [Asn(65001), Asn(65002)].into_iter().collect(),
            [Asn(174)].into_iter().collect(),
        );
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(174, "10.0.0.0/23", Some(65002), 20));
        assert_eq!(m.timeline().len(), 2, "anycast swap is visible");
        assert!(m.all_legitimate());
    }

    #[test]
    fn simultaneous_opposite_flips_both_appear() {
        // Two VPs flip in opposite directions at the same instant; the
        // aggregate counts net out to the pre-flip values, but the
        // timeline must still carry both transitions.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(65001), 10));
        m.ingest(&event(3356, "10.0.0.0/23", Some(666), 11));
        let len_before = m.timeline().len();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 30)); // legit → hijacked
        m.ingest(&event(3356, "10.0.0.0/23", Some(65001), 30)); // hijacked → legit
        assert_eq!(
            m.timeline().len(),
            len_before + 2,
            "both opposite flips are recorded"
        );
        let last = m.timeline().last().unwrap();
        let prior = &m.timeline()[m.timeline().len() - 3];
        assert_eq!(
            (last.legitimate, last.hijacked, last.unknown),
            (prior.legitimate, prior.hijacked, prior.unknown),
            "net aggregate change is zero — exactly why the aggregate \
             comparison lost these"
        );
    }

    fn id(n: u64) -> AlertId {
        AlertId(n)
    }

    #[test]
    fn index_routes_by_containment_in_alert_order() {
        let mut idx = MonitorIndex::new();
        idx.insert(pfx("10.0.0.0/23"), id(3));
        idx.insert(pfx("10.0.0.0/24"), id(1));
        idx.insert(pfx("10.0.0.0/23"), id(2)); // second alert, same target
        idx.insert(pfx("172.16.0.0/23"), id(4));
        assert_eq!(idx.len(), 4);

        let mut out = Vec::new();
        // Sub-prefix event: both covering targets, not the sibling.
        idx.route(pfx("10.0.0.0/25"), &mut out);
        assert_eq!(out, vec![id(1), id(2), id(3)]);
        // Covering event: everything under it.
        idx.route(pfx("10.0.0.0/8"), &mut out);
        assert_eq!(out, vec![id(1), id(2), id(3)]);
        // Exact target match is routed once.
        idx.route(pfx("172.16.0.0/23"), &mut out);
        assert_eq!(out, vec![id(4)]);
        // Disjoint space routes nowhere.
        idx.route(pfx("192.0.2.0/24"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn index_remove_unindexes_exactly_one_alert() {
        let mut idx = MonitorIndex::new();
        idx.insert(pfx("10.0.0.0/23"), id(1));
        idx.insert(pfx("10.0.0.0/23"), id(2));
        assert!(idx.remove(pfx("10.0.0.0/23"), id(1)));
        assert!(!idx.remove(pfx("10.0.0.0/23"), id(1)), "already gone");
        assert!(!idx.remove(pfx("10.0.0.0/24"), id(2)), "wrong target");
        let mut out = Vec::new();
        idx.route(pfx("10.0.0.0/23"), &mut out);
        assert_eq!(out, vec![id(2)]);
        assert!(idx.remove(pfx("10.0.0.0/23"), id(2)));
        assert!(idx.is_empty());
        idx.route(pfx("10.0.0.0/23"), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn covering_shards_group_nested_targets() {
        let mut idx = MonitorIndex::new();
        idx.insert(pfx("10.0.0.0/8"), id(1));
        idx.insert(pfx("10.0.0.0/24"), id(2));
        idx.insert(pfx("10.1.0.0/24"), id(3));
        idx.insert(pfx("172.16.0.0/23"), id(4));
        idx.insert(pfx("172.16.0.0/24"), id(5));
        idx.insert(pfx("192.0.2.0/24"), id(6));
        let shards = idx.covering_shards();
        assert_eq!(
            shards,
            vec![vec![id(1), id(2), id(3)], vec![id(4), id(5)], vec![id(6)]]
        );
        // Disjoint-only fleets shard one monitor each — commit cost
        // stays flat as incident count grows.
        let mut flat = MonitorIndex::new();
        for i in 0..8u64 {
            flat.insert(pfx(&format!("10.{i}.0.0/24")), id(i));
        }
        assert_eq!(flat.covering_shards().len(), 8);
    }

    #[test]
    fn checked_ingest_still_filters_irrelevant_events() {
        // The public wrapper keeps direct callers safe after the
        // relevance check moved into the routing layer.
        let mut m = service();
        m.ingest(&event(174, "8.8.8.0/24", Some(666), 10));
        assert!(m.timeline().is_empty());
        assert!(!m.is_relevant(pfx("8.8.8.0/24")));
        assert!(m.is_relevant(pfx("10.0.0.0/24")));
        assert!(m.is_relevant(pfx("0.0.0.0/0")));
    }

    #[test]
    fn run_monitor_tasks_matches_per_event_ingest() {
        let events: Vec<FeedEvent> = vec![
            event(174, "10.0.0.0/23", Some(666), 10),
            event(3356, "8.8.8.0/24", Some(15169), 11), // irrelevant
            event(3356, "10.0.0.0/23", Some(65001), 12),
            event(174, "10.0.0.0/24", Some(65001), 13), // resolves
            event(174, "10.0.0.0/23", Some(666), 14),   // after resolution
        ];
        let mut reference = service();
        for ev in &events[..4] {
            reference.ingest(ev);
        }
        let indices: Vec<u32> = vec![0, 2, 3, 4];
        let mut out = Vec::new();
        run_monitor_tasks(
            &events,
            &indices,
            vec![MonitorTask {
                alert: id(1),
                monitor: service(),
                mitigated: true,
                start: 0,
            }],
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].resolved_at, Some(3), "stops at the resolving event");
        assert_eq!(out[0].monitor.timeline(), reference.timeline());

        // Unmitigated: the same recovery never resolves.
        out.clear();
        run_monitor_tasks(
            &events,
            &indices,
            vec![MonitorTask {
                alert: id(1),
                monitor: service(),
                mitigated: false,
                start: 0,
            }],
            &mut out,
        );
        assert_eq!(out[0].resolved_at, None);
    }

    #[test]
    fn redundant_reannouncement_still_suppressed() {
        // The fix must not regress the dedup property: an event that
        // changes nothing for its VP records nothing.
        let mut m = service();
        m.ingest(&event(174, "10.0.0.0/23", Some(666), 10));
        // Same VP, same origin, via a different (less specific) covering
        // route: LPM selection unchanged.
        m.ingest(&event(174, "10.0.0.0/16", Some(666), 11));
        assert_eq!(m.timeline().len(), 1);
    }
}
