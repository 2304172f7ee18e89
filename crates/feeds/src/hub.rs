//! The [`FeedHub`]: fan-out of routing changes to all configured feeds
//! and time-ordered aggregation of their events.

use crate::event::{FeedEvent, FeedKind};
use crate::filter::FeedFilter;
use crate::source::{FeedSource, RibView};
use artemis_bgpsim::RouteChange;
use artemis_simnet::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stable identity of a feed inside a [`FeedHub`].
///
/// Returned by [`FeedHub::add`] and never reused, so drivers can
/// attach, address and detach feeds at runtime without the positional
/// fragility of index-based access (a detach shifts every later
/// index; handles are immune).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FeedHandle(u64);

impl FeedHandle {
    /// Reserved pseudo-handle for events put back into the queue via
    /// [`FeedHub::requeue`]. Requeued events were already drained once
    /// — their feed attribution is deliberately severed, so a later
    /// [`FeedHub::remove`] never drops them (they were due for
    /// delivery before the detach).
    pub const REQUEUED: FeedHandle = FeedHandle(0);

    /// The raw numeric id (stable, serializable).
    pub fn id(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for FeedHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "feed#{}", self.0)
    }
}

/// Hub-observed health of one attached feed: how many of its events
/// sit undrained in the merge queue, and the emission instant of the
/// newest event it ever queued. This is the single source of truth
/// behind both `ServiceStatus` feed health and daemon `/metrics` —
/// they must agree because they both read it from here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedLag {
    /// Events queued (not yet drained) attributed to this feed.
    pub queued_events: usize,
    /// Emission instant of the newest event this feed queued, if any.
    pub last_event_at: Option<SimTime>,
    /// Events discarded before they could reach the merge heap:
    /// pre-heap [`crate::FeedFilter`] rejections at the hub boundary
    /// plus everything the feed itself reports dropping (backpressure
    /// sheds, feed-local filters, outage windows). Monotone;
    /// `shed_events` is a subset.
    pub dropped_events: u64,
    /// The backpressure subset of `dropped_events`: events shed from a
    /// bounded ring because the consumer fell behind. Monotone.
    pub shed_events: u64,
}

/// A queued event's ordering key: `(emitted_at, ingestion sequence)` —
/// the sequence number makes simultaneous emissions deterministic —
/// plus the slab slot holding the event payload. Keeping the payload
/// out of the ordering structures makes every key move a 24-byte copy
/// instead of a full `FeedEvent` (collector name, AS path, raw JSON)
/// move.
#[derive(Clone, Copy, PartialEq, Eq)]
struct QueuedKey(SimTime, u64, u32);

impl Ord for QueuedKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0).then(self.1.cmp(&other.1))
    }
}
impl PartialOrd for QueuedKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One feed's pending keys, kept as a *sorted run* with a reusable
/// buffer: appends land at the tail in ingestion order (per-feed
/// streams are near-sorted already — a constant export delay makes
/// them exactly sorted), a cheap flag records whether an append ever
/// broke `(time, seq)` order, and [`Lane::seal`] sorts the run lazily
/// at drain time only when it has to. Draining consumes from the front
/// through a cursor so the allocation is reused wave after wave.
#[derive(Default)]
struct Lane {
    /// Pending keys; `keys[head..]` is the live run.
    keys: Vec<QueuedKey>,
    /// Consumption cursor into `keys` (compacted at seal time).
    head: usize,
    /// True when an append broke `(time, seq)` order since the last
    /// seal; the run must be sorted before merging.
    unsorted: bool,
    /// Earliest emission instant among pending keys (exact even while
    /// the run is unsorted), `None` when the lane is empty.
    min_time: Option<SimTime>,
}

impl Lane {
    /// Append a key in ingestion order.
    fn push(&mut self, key: QueuedKey) {
        if let Some(last) = self.keys.last() {
            if key < *last {
                self.unsorted = true;
            }
        }
        self.min_time = Some(self.min_time.map_or(key.0, |t| t.min(key.0)));
        self.keys.push(key);
    }

    /// Make the live run contiguous-from-zero and sorted by
    /// `(time, seq)`. Cheap when nothing is out of order (the common
    /// case): a drain of the consumed prefix and no sort.
    fn seal(&mut self) {
        if self.head > 0 {
            self.keys.drain(..self.head);
            self.head = 0;
        }
        if self.unsorted {
            self.keys.sort_unstable();
            self.unsorted = false;
        }
    }

    /// The earliest pending key. Only meaningful after [`Lane::seal`].
    fn front(&self) -> Option<QueuedKey> {
        self.keys.get(self.head).copied()
    }

    /// Consume the front key (lane must be sealed).
    fn pop_front(&mut self) -> QueuedKey {
        let key = self.keys[self.head];
        self.head += 1;
        self.min_time = self.keys.get(self.head).map(|k| k.0);
        key
    }
}

/// Wall-clock timing breakdown of one [`FeedHub::drain_batch_timed`]
/// call, split into the drain's two sub-stages: sealing the per-feed
/// sorted runs (lazy sort of any lane an append disordered) and the
/// k-way merge that moves due events out in global `(time, seq)`
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainBreakdown {
    /// Nanoseconds spent sealing (compacting + lazily sorting) lanes.
    pub seal_nanos: u64,
    /// Nanoseconds spent merging due events into the output buffer.
    pub merge_nanos: u64,
}

/// Aggregates any number of [`FeedSource`]s behind one interface.
///
/// The hub supports two consumption styles:
///
/// * **Batched (preferred)** — the driver calls
///   [`FeedHub::ingest_route_changes`] / [`FeedHub::poll_and_queue`];
///   the hub merge-sorts every produced event by `emitted_at` into an
///   internal queue, and [`FeedHub::drain_batch`] moves everything due
///   up to an instant into a caller-owned reusable buffer. One scratch
///   buffer is threaded through all feeds, so the hot path performs no
///   per-route-change allocation.
/// * **Per-event** — [`FeedHub::on_route_change_into`] /
///   [`FeedHub::poll_into`] append raw feed output to a caller-owned
///   buffer and leave ordering to the caller.
///
/// Feeds are identified by the stable [`FeedHandle`] returned from
/// [`FeedHub::add`]; [`FeedHub::remove`] detaches a feed at runtime and
/// **drops** its queued, undelivered events (see `remove` docs).
///
/// # Per-feed RNG streams
///
/// Every feed draws its export-delay samples from its **own** RNG
/// stream, forked deterministically from the hub's master stream at
/// attach time (`fork_indexed("feed", handle)`). A feed's draw
/// sequence therefore depends only on the hub seed, its handle and its
/// own event history — never on which other feeds are attached or how
/// their work interleaves with its own.
pub struct FeedHub {
    /// Attached feeds with their stable handle and private RNG stream.
    feeds: Vec<(FeedHandle, SimRng, Box<dyn FeedSource>)>,
    /// Master stream: only forked at attach time, never drawn from on
    /// the event path.
    rng: SimRng,
    /// Per-feed sorted runs of pending event keys, keyed by handle id
    /// (including [`FeedHandle::REQUEUED`]'s own lane at id 0). The
    /// global drain order is recovered by a k-way merge over the lane
    /// fronts — per-feed streams are already (near-)time-ordered, so
    /// the merge pays O(feeds) per event where a global heap paid
    /// O(log total-events) sifts.
    lanes: BTreeMap<u64, Lane>,
    /// Total pending (undrained) events across all lanes.
    pending: usize,
    /// Event payloads with their source-feed attribution, indexed by
    /// the slot in each queued key.
    slots: Vec<Option<(FeedHandle, FeedEvent)>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Monotone ingestion counter (tie-break for equal emission times).
    seq: u64,
    /// Monotone handle allocator (0 is [`FeedHandle::REQUEUED`]).
    next_handle: u64,
    /// Reusable fan-out buffer shared by the batch ingestion paths.
    scratch: Vec<FeedEvent>,
    /// Per-feed lag bookkeeping, keyed by handle id. Entries live
    /// exactly as long as the feed is attached.
    lag: BTreeMap<u64, FeedLag>,
    /// Per-feed pre-heap filters, keyed by handle id. Only non-trivial
    /// filters are stored (the wildcard costs nothing by absence).
    filters: BTreeMap<u64, FeedFilter>,
}

impl FeedHub {
    /// An empty hub with its own RNG stream.
    pub fn new(rng: SimRng) -> Self {
        FeedHub {
            feeds: Vec::new(),
            rng,
            lanes: BTreeMap::new(),
            pending: 0,
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
            next_handle: 1,
            scratch: Vec::new(),
            lag: BTreeMap::new(),
            filters: BTreeMap::new(),
        }
    }

    /// Add a feed, returning its stable [`FeedHandle`]. Handles are
    /// never reused, even after [`FeedHub::remove`]. The feed gets its
    /// own RNG stream, forked from the hub's master stream by handle —
    /// so its delay draws are a pure function of (hub seed, handle,
    /// its own event history), independent of other feeds.
    pub fn add(&mut self, feed: Box<dyn FeedSource>) -> FeedHandle {
        let handle = FeedHandle(self.next_handle);
        self.next_handle += 1;
        let feed_rng = self.rng.fork_indexed("feed", handle.0);
        self.feeds.push((handle, feed_rng, feed));
        self.lag.insert(handle.0, FeedLag::default());
        handle
    }

    /// Add a feed with a pre-heap [`FeedFilter`]: events failing the
    /// predicate are discarded at the enqueue boundary — before they
    /// cost a slab slot or a heap key — and counted in
    /// [`FeedLag::dropped_events`].
    pub fn add_filtered(&mut self, feed: Box<dyn FeedSource>, filter: FeedFilter) -> FeedHandle {
        let handle = self.add(feed);
        self.set_feed_filter(handle, Some(filter));
        handle
    }

    /// Install, replace, or clear (`None`) a feed's pre-heap filter at
    /// runtime. Returns `false` when the handle is not attached.
    /// Wildcard filters are normalized away so the hot path pays
    /// nothing for unfiltered feeds.
    pub fn set_feed_filter(&mut self, handle: FeedHandle, filter: Option<FeedFilter>) -> bool {
        if !self.lag.contains_key(&handle.0) {
            return false;
        }
        match filter {
            Some(f) if !f.matches_everything() => {
                self.filters.insert(handle.0, f);
            }
            _ => {
                self.filters.remove(&handle.0);
            }
        }
        true
    }

    /// The pre-heap filter currently installed for a feed, if any
    /// non-trivial one is.
    pub fn feed_filter(&self, handle: FeedHandle) -> Option<&FeedFilter> {
        self.filters.get(&handle.0)
    }

    /// Detach a feed at runtime, returning the feed and the number of
    /// its queued, undelivered events.
    ///
    /// **Detach semantics (deliberate, deterministic):** every event
    /// the detached feed emitted that is still waiting in the merge
    /// queue is *dropped* — a detached feed's telemetry is considered
    /// untrustworthy from the detach instant, and dropping (rather
    /// than delivering a dying feed's tail) keeps the delivered stream
    /// a pure function of the attach/detach schedule. Events from
    /// other feeds keep their exact relative order. Events restored
    /// via [`FeedHub::requeue`] carry [`FeedHandle::REQUEUED`] and are
    /// never dropped by a detach (they were already due for delivery).
    pub fn remove(&mut self, handle: FeedHandle) -> Option<(Box<dyn FeedSource>, usize)> {
        let pos = self.feeds.iter().position(|(h, _, _)| *h == handle)?;
        let (_, _, feed) = self.feeds.remove(pos);
        // The detached feed's pending events all live in its own lane:
        // dropping them is freeing that lane's slots — other feeds'
        // lanes (and the requeued lane) are untouched, so their exact
        // relative order is preserved by construction.
        let mut dropped = 0usize;
        if let Some(lane) = self.lanes.remove(&handle.0) {
            for QueuedKey(_, _, slot) in &lane.keys[lane.head..] {
                self.slots[*slot as usize] = None;
                self.free.push(*slot);
                dropped += 1;
            }
            self.pending -= dropped;
        }
        self.lag.remove(&handle.0);
        self.filters.remove(&handle.0);
        Some((feed, dropped))
    }

    /// Number of feeds.
    pub fn len(&self) -> usize {
        self.feeds.len()
    }

    /// True when no feeds are configured.
    pub fn is_empty(&self) -> bool {
        self.feeds.is_empty()
    }

    /// Move everything in the scratch buffer into the merge queue,
    /// attributed to `handle`. This is the pre-heap boundary: events
    /// rejected by the feed's [`FeedFilter`] are dropped *here*,
    /// before any slab slot or heap key is allocated for them.
    fn queue_scratch(&mut self, handle: FeedHandle) {
        if self.scratch.is_empty() {
            return;
        }
        let filter = self.filters.get(&handle.0);
        let lane = self.lanes.entry(handle.0).or_default();
        for ev in self.scratch.drain(..) {
            if let Some(f) = filter {
                if !f.matches(&ev) {
                    if let Some(lag) = self.lag.get_mut(&handle.0) {
                        lag.dropped_events += 1;
                    }
                    continue;
                }
            }
            let emitted_at = ev.emitted_at;
            if let Some(lag) = self.lag.get_mut(&handle.0) {
                lag.queued_events += 1;
                lag.last_event_at =
                    Some(lag.last_event_at.map_or(emitted_at, |t| t.max(emitted_at)));
            }
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s as usize] = Some((handle, ev));
                    s
                }
                None => {
                    let s = self.slots.len() as u32;
                    self.slots.push(Some((handle, ev)));
                    s
                }
            };
            lane.push(QueuedKey(emitted_at, self.seq, slot));
            self.pending += 1;
            self.seq += 1;
        }
    }

    /// Fan one routing change out to all push feeds and queue the
    /// resulting events for [`FeedHub::drain_batch`].
    pub fn ingest_route_change(&mut self, change: &RouteChange) {
        for i in 0..self.feeds.len() {
            let handle = {
                let (h, rng, feed) = &mut self.feeds[i];
                feed.on_route_change_into(change, rng, &mut self.scratch);
                *h
            };
            self.queue_scratch(handle);
        }
    }

    /// Fan a batch of routing changes out to all push feeds, in order,
    /// queueing every resulting event.
    pub fn ingest_route_changes(&mut self, changes: &[RouteChange]) {
        for change in changes {
            self.ingest_route_change(change);
        }
    }

    /// Run every feed whose poll is due at `at` and queue the results.
    pub fn poll_and_queue(&mut self, at: SimTime, view: &dyn RibView) {
        for i in 0..self.feeds.len() {
            let handle = {
                let (h, rng, feed) = &mut self.feeds[i];
                if feed.next_poll(at).is_some_and(|t| t <= at) {
                    self.scratch.extend(feed.poll(at, view, rng));
                }
                *h
            };
            self.queue_scratch(handle);
        }
    }

    /// Put drained-but-unprocessed events back into the merge queue
    /// (e.g. when a driver stops mid-batch and wants a later drain to
    /// resume losslessly). Relative order among requeued events is
    /// preserved: they re-enter in iteration order with fresh
    /// ingestion sequence numbers, and everything at their emission
    /// instants has already been drained. Requeued events are
    /// attributed to [`FeedHandle::REQUEUED`], so a later
    /// [`FeedHub::remove`] does not drop them.
    pub fn requeue(&mut self, events: impl IntoIterator<Item = FeedEvent>) {
        self.scratch.extend(events);
        self.queue_scratch(FeedHandle::REQUEUED);
    }

    /// Emission instant of the earliest queued event, if any.
    pub fn next_emission(&self) -> Option<SimTime> {
        self.lanes.values().filter_map(|l| l.min_time).min()
    }

    /// Number of queued (not yet drained) events.
    pub fn pending_events(&self) -> usize {
        self.pending
    }

    /// Drain every queued event with `emitted_at <= upto` into `out`
    /// (cleared first), globally merge-sorted by `(emitted_at,
    /// ingestion order)` across push and pull feeds. Returns the number
    /// of drained events. `out` is caller-owned so one buffer can be
    /// reused across the whole run.
    ///
    /// Internally this seals each feed's sorted run (a lazy sort, paid
    /// only by lanes an append actually disordered) and then k-way
    /// merges the lane fronts by `(emitted_at, ingestion sequence)` —
    /// sequence numbers are globally unique, so the merged order is
    /// byte-identical to what a single global ordered queue would
    /// produce.
    pub fn drain_batch(&mut self, upto: SimTime, out: &mut Vec<FeedEvent>) -> usize {
        out.clear();
        self.seal_lanes();
        self.merge_due(upto, out)
    }

    /// [`FeedHub::drain_batch`] with a wall-clock sub-stage breakdown
    /// (seal vs merge), for pipelines exporting drain-stage latency
    /// histograms.
    pub fn drain_batch_timed(
        &mut self,
        upto: SimTime,
        out: &mut Vec<FeedEvent>,
    ) -> (usize, DrainBreakdown) {
        out.clear();
        let t0 = std::time::Instant::now();
        self.seal_lanes();
        let t1 = std::time::Instant::now();
        let n = self.merge_due(upto, out);
        let t2 = std::time::Instant::now();
        (
            n,
            DrainBreakdown {
                seal_nanos: (t1 - t0).as_nanos() as u64,
                merge_nanos: (t2 - t1).as_nanos() as u64,
            },
        )
    }

    /// Seal every lane's sorted run ahead of a merge.
    fn seal_lanes(&mut self) {
        for lane in self.lanes.values_mut() {
            lane.seal();
        }
    }

    /// K-way merge of due events (lanes must be sealed): repeatedly
    /// take the lane whose front key is globally smallest. With a
    /// handful of feeds the linear scan over lane fronts beats both a
    /// loser tree and the old global heap's O(log pending) sifts per
    /// event.
    fn merge_due(&mut self, upto: SimTime, out: &mut Vec<FeedEvent>) -> usize {
        loop {
            let mut best: Option<(QueuedKey, u64)> = None;
            for (&id, lane) in &self.lanes {
                if let Some(key) = lane.front() {
                    if key.0 <= upto && best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, id));
                    }
                }
            }
            let Some((_, id)) = best else {
                break;
            };
            let QueuedKey(_, _, slot) = self
                .lanes
                .get_mut(&id)
                .expect("winning lane exists")
                .pop_front();
            self.pending -= 1;
            let (owner, ev) = self.slots[slot as usize]
                .take()
                .expect("queued slot filled");
            if let Some(lag) = self.lag.get_mut(&owner.0) {
                lag.queued_events = lag.queued_events.saturating_sub(1);
            }
            self.free.push(slot);
            out.push(ev);
        }
        out.len()
    }

    /// Fan a routing change out to all push feeds, appending the
    /// resulting events to `out` (not queueing them; ordering is left
    /// to the caller). The zero-extra-allocation per-event surface.
    pub fn on_route_change_into(&mut self, change: &RouteChange, out: &mut Vec<FeedEvent>) {
        for (_, rng, feed) in &mut self.feeds {
            feed.on_route_change_into(change, rng, out);
        }
    }

    /// Earliest pending poll across all pull feeds.
    pub fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        self.feeds
            .iter()
            .filter_map(|(_, _, f)| f.next_poll(now))
            .min()
    }

    /// Run every feed whose poll is due at `at`, appending the events
    /// to `out` (not queueing them).
    pub fn poll_into(&mut self, at: SimTime, view: &dyn RibView, out: &mut Vec<FeedEvent>) {
        for (_, rng, feed) in &mut self.feeds {
            if feed.next_poll(at).is_some_and(|t| t <= at) {
                out.extend(feed.poll(at, view, rng));
            }
        }
    }

    /// Per-feed event counters (monitoring overhead of E3).
    pub fn emission_stats(&self) -> BTreeMap<(FeedKind, String), u64> {
        self.feeds
            .iter()
            .map(|(_, _, f)| ((f.kind(), f.name().to_string()), f.events_emitted()))
            .collect()
    }

    /// Every attached feed with its stable handle, in insertion order.
    pub fn handles(&self) -> impl Iterator<Item = (FeedHandle, &dyn FeedSource)> {
        self.feeds.iter().map(|(h, _, f)| (*h, f.as_ref()))
    }

    /// Drain the peers whose BGP sessions went down (BMP `peer_down`)
    /// across every attached wire feed since the last call, deduped in
    /// first-seen order. The pipeline purges each returned vantage
    /// point from its monitors' per-VP views.
    pub fn take_peer_downs(&mut self) -> Vec<artemis_bgp::Asn> {
        let mut downs: Vec<artemis_bgp::Asn> = Vec::new();
        for (_, _, feed) in &mut self.feeds {
            for asn in feed.take_peer_downs() {
                if !downs.contains(&asn) {
                    downs.push(asn);
                }
            }
        }
        downs
    }

    /// Access a feed by its stable handle (for feed-specific accessors
    /// like MRT archive bytes).
    pub fn feed_by_handle(&self, handle: FeedHandle) -> Option<&dyn FeedSource> {
        self.feeds
            .iter()
            .find(|(h, _, _)| *h == handle)
            .map(|(_, _, f)| f.as_ref())
    }

    /// The handle of the feed at `index` (current insertion order).
    pub fn handle_at(&self, index: usize) -> Option<FeedHandle> {
        self.feeds.get(index).map(|(h, _, _)| *h)
    }

    /// Hub-observed lag of an attached feed (see [`FeedLag`]).
    /// `None` once the feed is detached.
    ///
    /// Drop accounting is composed at read time: the hub's own
    /// pre-heap filter rejections (tracked here) plus whatever the
    /// feed reports discarding on its side of the boundary
    /// ([`FeedSource::dropped_events`] / [`FeedSource::shed_events`] —
    /// backpressure sheds, outage windows). Both inputs are monotone,
    /// so the composed counters are too.
    pub fn feed_lag(&self, handle: FeedHandle) -> Option<FeedLag> {
        let mut lag = *self.lag.get(&handle.0)?;
        if let Some(feed) = self.feed_by_handle(handle) {
            lag.dropped_events += feed.dropped_events();
            lag.shed_events += feed.shed_events();
        }
        Some(lag)
    }

    /// Total pull queries issued across feeds (LG overhead).
    pub fn polls_executed(&self) -> u64 {
        self.feeds.iter().map(|(_, _, f)| f.polls_executed()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::StreamFeed;
    use crate::vantage::group_into_collectors;
    use artemis_bgp::{AsPath, Asn};
    use artemis_bgpsim::BestRoute;
    use std::str::FromStr;

    fn change(asn: u32, t: u64) -> RouteChange {
        RouteChange {
            time: SimTime::from_secs(t),
            asn: Asn(asn),
            prefix: artemis_bgp::Prefix::from_str("10.0.0.0/23").unwrap(),
            old: None,
            new: Some(BestRoute {
                as_path: AsPath::from_sequence([3356u32, 65001]),
                origin_as: Asn(65001),
                neighbor: Some(Asn(3356)),
                learned_from: Some(artemis_topology::RelKind::Provider),
                local_pref: 100,
            }),
        }
    }

    #[test]
    fn hub_fans_out_to_all_feeds() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        hub.add(Box::new(StreamFeed::bgpmon(group_into_collectors(
            "bmp", &vps, 1,
        ))));
        assert_eq!(hub.len(), 2);
        let mut evs = Vec::new();
        hub.on_route_change_into(&change(174, 10), &mut evs);
        assert_eq!(evs.len(), 2);
        let kinds: std::collections::BTreeSet<FeedKind> = evs.iter().map(|e| e.source).collect();
        assert!(kinds.contains(&FeedKind::RisLive));
        assert!(kinds.contains(&FeedKind::BgpMon));
    }

    #[test]
    fn empty_hub_is_silent() {
        let mut hub = FeedHub::new(SimRng::new(1));
        assert!(hub.is_empty());
        let mut evs = Vec::new();
        hub.on_route_change_into(&change(1, 1), &mut evs);
        assert!(evs.is_empty());
        assert_eq!(hub.next_poll(SimTime::ZERO), None);
        hub.ingest_route_change(&change(1, 1));
        assert_eq!(hub.pending_events(), 0);
        assert_eq!(hub.next_emission(), None);
    }

    #[test]
    fn handles_are_stable_and_unique() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let h1 = hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        let h2 = hub.add(Box::new(StreamFeed::bgpmon(group_into_collectors(
            "bmp", &vps, 1,
        ))));
        assert_ne!(h1, h2);
        assert_ne!(h1, FeedHandle::REQUEUED);
        assert_eq!(hub.handle_at(0), Some(h1));
        assert_eq!(hub.handle_at(1), Some(h2));
        assert_eq!(hub.feed_by_handle(h1).unwrap().kind(), FeedKind::RisLive);
        assert_eq!(hub.feed_by_handle(h2).unwrap().kind(), FeedKind::BgpMon);

        // Detach the first feed: the second keeps its handle even
        // though its position shifted, and the handle is never reused.
        let (removed, dropped) = hub.remove(h1).expect("attached");
        assert_eq!(removed.kind(), FeedKind::RisLive);
        assert_eq!(dropped, 0);
        assert_eq!(hub.len(), 1);
        assert_eq!(hub.handle_at(0), Some(h2));
        assert!(hub.feed_by_handle(h1).is_none());
        let h3 = hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        assert!(h3 != h1 && h3 != h2, "handles are never recycled");
        assert!(hub.remove(h1).is_none(), "double-detach is a no-op");
    }

    #[test]
    fn feed_lag_tracks_queue_depth_and_last_emission() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let h = hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        assert_eq!(hub.feed_lag(h), Some(FeedLag::default()));

        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        let lag = hub.feed_lag(h).unwrap();
        assert_eq!(lag.queued_events, 2);
        assert_eq!(lag.last_event_at, Some(SimTime::from_secs(25)));

        // Partial drain decrements the queue depth but keeps the
        // high-water emission instant.
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(15), &mut buf);
        let lag = hub.feed_lag(h).unwrap();
        assert_eq!(lag.queued_events, 1);
        assert_eq!(lag.last_event_at, Some(SimTime::from_secs(25)));

        // Requeued events are attributed to REQUEUED, not the feed.
        hub.requeue(buf.drain(..));
        assert_eq!(hub.feed_lag(h).unwrap().queued_events, 1);

        // Detach removes the bookkeeping entirely.
        hub.remove(h).expect("attached");
        assert_eq!(hub.feed_lag(h), None);
    }

    #[test]
    fn remove_drops_only_the_detached_feeds_queued_events() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let _ris = hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(60)),
        ));
        let bmon = hub.add(Box::new(
            StreamFeed::bgpmon(group_into_collectors("bmp", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        assert_eq!(hub.pending_events(), 4);

        let (_, dropped) = hub.remove(bmon).expect("attached");
        assert_eq!(dropped, 2, "both queued bgpmon events dropped");
        assert_eq!(hub.pending_events(), 2);
        assert_eq!(
            hub.next_emission(),
            Some(SimTime::from_secs(70)),
            "next emission reflects the surviving feed"
        );
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(buf.len(), 2);
        assert!(buf.iter().all(|e| e.source == FeedKind::RisLive));
    }

    #[test]
    fn requeued_events_survive_detach() {
        let mut hub = FeedHub::new(SimRng::new(4));
        let vps = vec![Asn(174)];
        let h = hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10)]);
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(buf.len(), 1);
        // The driver could not process the event; it goes back — and a
        // subsequent detach must NOT drop it (it was already due).
        hub.requeue(buf.drain(..));
        let (_, dropped) = hub.remove(h).expect("attached");
        assert_eq!(dropped, 0);
        assert_eq!(hub.pending_events(), 1);
    }

    #[test]
    fn drain_batch_is_sorted_and_respects_upto() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        // Skewed constant delays: the later observation (t=20, 5 s
        // delay) is emitted *before* the earlier one (t=10, 60 s).
        hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(60)),
        ));
        hub.add(Box::new(
            StreamFeed::bgpmon(group_into_collectors("bmp", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10), change(174, 20)]);
        assert_eq!(hub.pending_events(), 4);
        assert_eq!(hub.next_emission(), Some(SimTime::from_secs(15)));

        let mut buf = Vec::new();
        // Partial drain: only events emitted by t=30 (the two bgpmon).
        let n = hub.drain_batch(SimTime::from_secs(30), &mut buf);
        assert_eq!(n, 2);
        assert!(buf.iter().all(|e| e.source == FeedKind::BgpMon));
        assert_eq!(hub.pending_events(), 2);

        // The rest drains in emission order despite reversed ingestion.
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        let times: Vec<SimTime> = buf.iter().map(|e| e.emitted_at).collect();
        assert_eq!(times, vec![SimTime::from_secs(70), SimTime::from_secs(80)]);
        assert_eq!(hub.pending_events(), 0);
    }

    #[test]
    fn requeue_restores_undelivered_events() {
        let mut hub = FeedHub::new(SimRng::new(4));
        let vps = vec![Asn(174)];
        hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(5)),
        ));
        hub.ingest_route_changes(&[change(174, 10), change(174, 10), change(174, 20)]);
        let mut buf = Vec::new();
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(buf.len(), 3);
        assert_eq!(hub.pending_events(), 0);

        // A driver consumed only the first event; the rest goes back.
        let undelivered: Vec<FeedEvent> = buf.drain(1..).collect();
        hub.requeue(undelivered.clone());
        assert_eq!(hub.pending_events(), 2);
        assert_eq!(hub.next_emission(), Some(SimTime::from_secs(15)));
        hub.drain_batch(SimTime::from_secs(1_000), &mut buf);
        assert_eq!(
            buf, undelivered,
            "resumed drain sees the same events in order"
        );
    }

    #[test]
    fn batch_and_per_event_paths_emit_the_same_events() {
        let vps = vec![Asn(174), Asn(3356)];
        let changes: Vec<RouteChange> = (0..20u64)
            .map(|i| change(if i % 2 == 0 { 174 } else { 3356 }, i))
            .collect();
        let build = || {
            let mut hub = FeedHub::new(SimRng::new(9));
            hub.add(Box::new(
                StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
                    .with_export_delay(artemis_simnet::LatencyModel::const_secs(3)),
            ));
            hub
        };

        let mut per_event = Vec::new();
        let mut hub = build();
        for c in &changes {
            hub.on_route_change_into(c, &mut per_event);
        }

        let mut batch = Vec::new();
        let mut hub = build();
        hub.ingest_route_changes(&changes);
        hub.drain_batch(SimTime::from_secs(10_000), &mut batch);

        let mut per_event_sorted = per_event.clone();
        per_event_sorted.sort_by_key(|e| e.emitted_at);
        assert_eq!(batch, per_event_sorted);
    }

    #[test]
    fn emission_stats_track_feeds() {
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        let mut sink = Vec::new();
        hub.on_route_change_into(&change(174, 10), &mut sink);
        hub.on_route_change_into(&change(174, 20), &mut sink);
        let stats = hub.emission_stats();
        assert_eq!(stats[&(FeedKind::RisLive, "ris-live".to_string())], 2);
    }

    #[test]
    fn pre_heap_filter_rejects_before_the_slab() {
        use crate::filter::FeedFilter;
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        // Watch a disjoint prefix: every ingested change must be
        // rejected at the enqueue boundary.
        let h = hub.add_filtered(
            Box::new(StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))),
            FeedFilter::any().prefix(artemis_bgp::Prefix::from_str("192.0.2.0/24").unwrap()),
        );
        hub.ingest_route_change(&change(174, 10));
        hub.ingest_route_change(&change(174, 20));
        assert_eq!(hub.pending_events(), 0, "rejected events cost no slab slot");
        let lag = hub.feed_lag(h).unwrap();
        assert_eq!(lag.dropped_events, 2);
        assert_eq!(lag.queued_events, 0);
        // Feed-side emission counting still ran (the feed *did* emit).
        assert_eq!(hub.feed_by_handle(h).unwrap().events_emitted(), 2);
    }

    #[test]
    fn matching_filter_passes_events_through() {
        use crate::filter::FeedFilter;
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let h = hub.add_filtered(
            Box::new(StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))),
            FeedFilter::any()
                .prefix(artemis_bgp::Prefix::from_str("10.0.0.0/24").unwrap())
                .origin(Asn(65001)),
        );
        // 10.0.0.0/23 overlaps the watched /24 and origin matches.
        hub.ingest_route_change(&change(174, 10));
        assert_eq!(hub.pending_events(), 1);
        assert_eq!(hub.feed_lag(h).unwrap().dropped_events, 0);
    }

    #[test]
    fn set_feed_filter_swaps_at_runtime() {
        use crate::filter::FeedFilter;
        let mut hub = FeedHub::new(SimRng::new(1));
        let vps = vec![Asn(174)];
        let h = hub.add(Box::new(StreamFeed::ris_live(group_into_collectors(
            "rrc", &vps, 1,
        ))));
        assert_eq!(hub.feed_filter(h), None, "plain add has no filter");
        hub.ingest_route_change(&change(174, 10));
        assert_eq!(hub.pending_events(), 1);

        let deny = FeedFilter::any().vantage(Asn(9999));
        assert!(hub.set_feed_filter(h, Some(deny.clone())));
        assert_eq!(hub.feed_filter(h), Some(&deny));
        hub.ingest_route_change(&change(174, 20));
        assert_eq!(hub.pending_events(), 1, "new filter rejects");
        assert_eq!(hub.feed_lag(h).unwrap().dropped_events, 1);

        // Clearing (or installing a wildcard) restores pass-through.
        assert!(hub.set_feed_filter(h, Some(FeedFilter::any())));
        assert_eq!(hub.feed_filter(h), None, "wildcard is normalized away");
        hub.ingest_route_change(&change(174, 30));
        assert_eq!(hub.pending_events(), 2);

        // Detached handles refuse the swap.
        hub.remove(h);
        assert!(!hub.set_feed_filter(h, Some(FeedFilter::any())));
    }
}
