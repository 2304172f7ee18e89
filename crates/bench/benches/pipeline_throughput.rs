//! Macro-bench: feed-event ingestion throughput through the
//! `FeedHub` → sharded `Detector` pipeline, batch vs per-event — plus
//! the assembled `Pipeline`'s batched delivery.
//!
//! Both paths must deliver events to the detector in emission order
//! (its contract). The batch path is the pipeline's implementation:
//! `ingest_route_changes` threads one reusable buffer through every
//! feed and merge-sorts lightweight `(time, seq, slot)` keys inside
//! the hub, then `drain_batch` moves everything due into one reusable
//! output buffer. The per-event path reproduces the shape the old
//! `Experiment::run` loop had: a fresh `Vec<FeedEvent>` per route
//! change, pushed into a caller-side binary heap that carries the full
//! event payload, popped one event at a time. ≥100k synthetic events
//! per iteration.
//!
//! The pipeline bench queues the same 100k events into the hub and
//! delivers them through `Pipeline::deliver_due`: ingest, drain,
//! classify and the staged commit, all on one thread.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_bgpsim::{BestRoute, RouteChange};
use artemis_controller::Controller;
use artemis_core::{ArtemisConfig, Detector, OwnedPrefix, Pipeline};
use artemis_feeds::vantage::group_into_collectors;
use artemis_feeds::{FeedEvent, FeedHub, StreamFeed};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemis_topology::RelKind;
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The old experiment-loop queue entry: the payload rides in the heap.
struct QueuedEvent(SimTime, u64, FeedEvent);

impl PartialEq for QueuedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for QueuedEvent {}
impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0).then(self.1.cmp(&other.1))
    }
}
impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// 50k route changes at two vantage ASes × 2 feeds = 100k feed events.
const CHANGES: usize = 50_000;
const EVENTS: u64 = (CHANGES as u64) * 2;

fn config() -> ArtemisConfig {
    ArtemisConfig::new(
        Asn(65001),
        (0..64u32)
            .map(|i| {
                OwnedPrefix::new(
                    Prefix::v4(std::net::Ipv4Addr::from(10 << 24 | i << 16), 23).expect("valid"),
                    Asn(65001),
                )
            })
            .collect(),
    )
}

fn changes() -> Vec<RouteChange> {
    (0..CHANGES as u64)
        .map(|i| {
            // The realistic firehose mix: mostly unrelated prefixes,
            // occasional touches of owned space, occasional hijacks.
            let prefix = if i % 100 == 0 {
                Prefix::v4(std::net::Ipv4Addr::new(10, (i % 64) as u8, 0, 0), 23)
            } else {
                Prefix::v4(std::net::Ipv4Addr::from((i as u32) << 8), 24)
            }
            .expect("valid");
            let vantage = if i % 2 == 0 { Asn(174) } else { Asn(3356) };
            let path = AsPath::from_sequence([3356u32, 65001 + (i % 7 == 0) as u32]);
            RouteChange {
                time: SimTime::from_micros(i * 50),
                asn: vantage,
                prefix,
                old: None,
                new: Some(BestRoute {
                    origin_as: path.origin().expect("non-empty"),
                    as_path: path,
                    neighbor: Some(Asn(3356)),
                    learned_from: Some(RelKind::Provider),
                    local_pref: 100,
                }),
            }
        })
        .collect()
}

fn hub() -> FeedHub {
    let vps = vec![Asn(174), Asn(3356)];
    let mut hub = FeedHub::new(SimRng::new(1));
    hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(3)),
    ));
    hub.add(Box::new(
        StreamFeed::bgpmon(group_into_collectors("bmon", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(9)),
    ));
    hub
}

fn bench_pipeline(c: &mut Criterion) {
    let changes = changes();
    let mut group = c.benchmark_group("pipeline");
    group.throughput(Throughput::Elements(EVENTS));

    group.bench_function("ingest_100k_events_batched", |b| {
        let mut batch: Vec<FeedEvent> = Vec::new();
        b.iter(|| {
            let mut hub = hub();
            let mut detector = Detector::new(config());
            hub.ingest_route_changes(&changes);
            hub.drain_batch(SimTime::from_micros(u64::MAX), &mut batch);
            for ev in &batch {
                black_box(detector.process(ev));
            }
            assert_eq!(detector.events_processed(), EVENTS);
            black_box(detector.events_processed())
        })
    });

    group.bench_function("ingest_100k_events_per_event", |b| {
        b.iter(|| {
            let mut hub = hub();
            let mut detector = Detector::new(config());
            // The old driver: one Vec per route change, full events
            // sifted through the caller's heap, popped one at a time.
            let mut queue: BinaryHeap<Reverse<QueuedEvent>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut scratch = Vec::new();
            for change in &changes {
                hub.on_route_change_into(change, &mut scratch);
                for ev in scratch.drain(..) {
                    queue.push(Reverse(QueuedEvent(ev.emitted_at, seq, ev)));
                    seq += 1;
                }
            }
            while let Some(Reverse(QueuedEvent(_, _, ev))) = queue.pop() {
                black_box(detector.process(&ev));
            }
            assert_eq!(detector.events_processed(), EVENTS);
            black_box(detector.events_processed())
        })
    });

    // ---- The assembled Pipeline ---------------------------------------
    group.bench_function("deliver_due_100k_events", |b| {
        b.iter(|| {
            let mut pipeline =
                Pipeline::new(hub(), config(), [Asn(174), Asn(3356)].into_iter().collect());
            let mut ctrl =
                Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
            pipeline.ingest_route_changes(&changes);
            let delivered =
                pipeline.deliver_due(SimTime::from_micros(u64::MAX), &mut ctrl, &mut []);
            assert_eq!(delivered, EVENTS);
            black_box(pipeline.detector().events_processed())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
