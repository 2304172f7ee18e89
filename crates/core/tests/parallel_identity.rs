//! Property: delivering a backlog as **one** batch through
//! [`Pipeline::deliver_due`] is byte-identical to delivering the same
//! events one at a time through [`Pipeline::deliver`].
//!
//! The batch path classifies every event up front and commits through
//! a staged walk (pre-existing monitors ingest their routed events
//! first); the per-event path classifies each event as it commits it.
//! Randomized traffic exercises where the two could part: benign
//! noise, exact/sub-prefix hijacks, forged origins, withdrawals, and
//! mitigation echoes that mutate shard rules mid-batch (the dirty-
//! shard recompute path).

use artemis_bgp::{AsPath, Asn};
use artemis_bgpsim::{BestRoute, RouteChange};
use artemis_core::config::OwnedPrefix;
use artemis_core::{ArtemisConfig, EventCursor, Pipeline};
use artemis_feeds::vantage::group_into_collectors;
use artemis_feeds::{FeedHub, StreamFeed};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemis_topology::RelKind;
use proptest::prelude::*;

fn pipeline(seed: u64) -> (Pipeline, artemis_controller::Controller) {
    let vps = vec![Asn(174), Asn(3356), Asn(2914)];
    let mut hub = FeedHub::new(SimRng::new(seed));
    hub.add(Box::new(
        StreamFeed::ris_live(group_into_collectors("rrc", &vps, 2))
            .with_export_delay(LatencyModel::uniform_secs(2, 8)),
    ));
    hub.add(Box::new(
        StreamFeed::bgpmon(group_into_collectors("bmon", &vps, 1))
            .with_export_delay(LatencyModel::const_secs(12)),
    ));
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![
            OwnedPrefix::new("10.0.0.0/23".parse().unwrap(), Asn(65001)),
            // Nested inside 10.0.0.0/23: concurrent incidents on the
            // pair produce nested monitor targets, so the staged
            // commit's covering-set shards actually share events.
            OwnedPrefix::new("10.0.1.0/24".parse().unwrap(), Asn(65001)),
            OwnedPrefix::new("172.16.0.0/22".parse().unwrap(), Asn(65001)),
            OwnedPrefix::new("192.0.2.0/24".parse().unwrap(), Asn(65001)),
            OwnedPrefix::new("203.0.113.0/24".parse().unwrap(), Asn(65001)).dormant(),
        ],
    );
    let p = Pipeline::new(
        hub,
        config,
        [Asn(174), Asn(3356), Asn(2914)].into_iter().collect(),
    );
    let ctrl = artemis_controller::Controller::new(
        Asn(65001),
        LatencyModel::const_secs(15),
        SimRng::new(seed ^ 0xC0),
    );
    (p, ctrl)
}

/// Decode one randomized `(kind, slot, t)` triple into a route change.
fn change(kind: u8, slot: u8, t: u64) -> RouteChange {
    let vantage = [Asn(174), Asn(3356), Asn(2914)][(slot % 3) as usize];
    let (prefix, origin): (&str, u32) = match kind % 10 {
        0 => ("10.0.0.0/23", 65001),     // benign exact
        1 => ("10.0.0.0/23", 666),       // exact-origin hijack
        2 => ("10.0.0.0/24", 666),       // sub-prefix hijack
        3 => ("172.16.1.0/24", 65001),   // forged-origin sub-prefix
        4 => ("192.0.2.0/24", 667),      // /24 hijack (infeasible deagg)
        5 => ("203.0.113.0/24", 31337),  // squat on the dormant prefix
        6 => ("8.8.8.0/24", 15169),      // unrelated noise
        7 => ("10.0.1.0/24", 666),       // hijack on the nested owned /24
        8 => ("10.0.1.0/24", 65001),     // benign on the nested owned /24
        _ => ("198.51.100.0/24", 65001), // unrelated, "our" origin
    };
    let withdrawal = kind >= 240; // rare withdrawals
    let path = AsPath::from_sequence([vantage.value(), 3356, origin]);
    RouteChange {
        time: SimTime::from_micros(t),
        asn: vantage,
        prefix: prefix.parse().unwrap(),
        old: if withdrawal {
            Some(BestRoute {
                origin_as: path.origin().unwrap(),
                as_path: path.clone(),
                neighbor: Some(Asn(3356)),
                learned_from: Some(RelKind::Provider),
                local_pref: 100,
            })
        } else {
            None
        },
        new: if withdrawal {
            None
        } else {
            Some(BestRoute {
                origin_as: path.origin().unwrap(),
                as_path: path,
                neighbor: Some(Asn(3356)),
                learned_from: Some(RelKind::Provider),
                local_pref: 100,
            })
        },
    }
}

/// Deliver the backlog generated from `spec`: as one `deliver_due`
/// batch, or (`per_event`) drained by hand and handed to
/// `Pipeline::deliver` one event at a time. Returns the event-log
/// history, alert store, monitor state, delivered count and the
/// controller's intents, each rendered for byte comparison.
fn run(seed: u64, spec: &[(u8, u8, u64)], per_event: bool) -> [String; 5] {
    let (mut p, mut ctrl) = pipeline(seed);
    let mut changes: Vec<RouteChange> = spec.iter().map(|(k, s, t)| change(*k, *s, *t)).collect();
    changes.sort_by_key(|c| c.time);
    p.ingest_route_changes(&changes);
    let upto = SimTime::from_secs(1 << 40);
    let delivered = if per_event {
        let mut backlog = Vec::new();
        p.hub_mut().drain_batch(upto, &mut backlog);
        for event in &backlog {
            p.deliver(event, &mut ctrl, &mut []);
        }
        backlog.len() as u64
    } else {
        p.deliver_due(upto, &mut ctrl, &mut [])
    };
    let history = serde_json::to_string(&p.poll_events(EventCursor::START).events).unwrap();
    let alerts = format!("{:?}", p.detector().alerts().all());
    // Active monitor state and retired timelines: the staged commit
    // checks monitors out of the registry, ingests them shard by shard
    // and merges them back — their per-vantage state and retirement
    // records must come back byte-identical.
    let monitors = format!(
        "{:?} | {:?}",
        p.monitors().collect::<Vec<_>>(),
        p.retired_monitors().collect::<Vec<_>>()
    );
    let intents = format!("{:?}", ctrl.intents().collect::<Vec<_>>());
    [
        history,
        alerts,
        monitors,
        format!("{delivered} / {}", p.events_delivered()),
        intents,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backlog_drain_matches_per_event_delivery(
        seed in 1u64..10_000,
        spec in prop::collection::vec((0u8..=255, 0u8..=255, 0u64..5_000_000), 1..300),
    ) {
        let batched = run(seed, &spec, false);
        let per_event = run(seed, &spec, true);
        let what = ["event-log history", "alert store", "monitor/retired state", "delivered count", "controller intents"];
        for ((b, e), what) in batched.iter().zip(&per_event).zip(what) {
            prop_assert_eq!(b, e, "{} differs", what);
        }
    }
}
