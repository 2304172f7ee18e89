//! Golden JSON forms of `FeedEvent` and `AsPath`. The serialized shape
//! is part of the audit log, the daemon's HTTP API and the replay
//! formats, so it must not depend on the in-memory representation:
//! shared (`Arc`) collector names and paths serialize exactly as plain
//! strings and arrays.

use artemis_bgp::{AsPath, Asn, Prefix, Segment};
use artemis_feeds::{FeedEvent, FeedKind};
use artemis_simnet::SimTime;
use std::str::FromStr;

fn mixed_path() -> AsPath {
    AsPath::from_segments([
        Segment::Sequence(vec![Asn(174), Asn(3356)]),
        Segment::Set(vec![Asn(1299), Asn(2914)]),
    ])
}

fn announcement() -> FeedEvent {
    FeedEvent {
        emitted_at: SimTime::from_micros(5_000_250),
        observed_at: SimTime::from_micros(4_000_000),
        source: FeedKind::BmpLive,
        collector: "rrc00".into(),
        vantage: Asn(174),
        prefix: Prefix::from_str("10.0.0.0/24").unwrap(),
        as_path: Some(mixed_path()),
        origin_as: Some(Asn(65001)),
        raw: Some("{\"type\":\"UPDATE\"}".into()),
    }
}

fn withdrawal() -> FeedEvent {
    FeedEvent {
        emitted_at: SimTime::from_secs(7),
        observed_at: SimTime::from_secs(6),
        source: FeedKind::RisLive,
        collector: "lg-03".into(),
        vantage: Asn(3356),
        prefix: Prefix::from_str("192.0.2.0/23").unwrap(),
        as_path: None,
        origin_as: None,
        raw: None,
    }
}

#[test]
fn as_path_json_is_unchanged() {
    let cases = [
        (
            mixed_path(),
            r#"{"segments":[{"Sequence":[174,3356]},{"Set":[1299,2914]}]}"#,
        ),
        (AsPath::empty(), r#"{"segments":[]}"#),
        (
            AsPath::from_sequence([174u32, 65001]),
            r#"{"segments":[{"Sequence":[174,65001]}]}"#,
        ),
    ];
    for (path, golden) in cases {
        assert_eq!(serde_json::to_string(&path).unwrap(), golden);
        let back: AsPath = serde_json::from_str(golden).unwrap();
        assert_eq!(back, path);
    }
}

#[test]
fn feed_event_json_is_unchanged() {
    let cases = [
        (
            announcement(),
            concat!(
                r#"{"emitted_at":5000250,"observed_at":4000000,"source":"BmpLive","#,
                r#""collector":"rrc00","vantage":174,"prefix":"10.0.0.0/24","#,
                r#""as_path":{"segments":[{"Sequence":[174,3356]},{"Set":[1299,2914]}]},"#,
                r#""origin_as":65001,"raw":"{\"type\":\"UPDATE\"}"}"#
            ),
        ),
        (
            withdrawal(),
            concat!(
                r#"{"emitted_at":7000000,"observed_at":6000000,"source":"RisLive","#,
                r#""collector":"lg-03","vantage":3356,"prefix":"192.0.2.0/23","#,
                r#""as_path":null,"origin_as":null,"raw":null}"#
            ),
        ),
    ];
    for (event, golden) in cases {
        assert_eq!(serde_json::to_string(&event).unwrap(), golden);
        let back: FeedEvent = serde_json::from_str(golden).unwrap();
        assert_eq!(back, event);
    }
}
