//! End-to-end wire tests: every [`ServiceCommand`] variant travels
//! through the daemon's HTTP API with explicit service-clock stamps,
//! and the resulting incident-event history is byte-identical to an
//! in-process twin applying the same script. Also covers `/metrics`
//! content, the audit trail, and webhook alert delivery.

use artemis_bgp::{AsPath, Asn, Prefix};
use artemis_controller::Controller;
use artemis_core::service::MitigationPhase;
use artemis_core::wire::CommandResult;
use artemis_core::{
    AlertId, ArtemisConfig, ArtemisService, CommandOutcome, EventCursor, MitigationPolicy,
    OwnedPrefix, Pipeline, ServiceCommand, ServiceError,
};
use artemis_feeds::{FeedEvent, FeedKind, FeedSpec};
use artemis_simnet::{LatencyModel, SimRng, SimTime};
use artemisd::daemon::AlertPayload;
use artemisd::{CtlClient, Daemon, DaemonConfig};
use std::str::FromStr;

fn pfx(s: &str) -> Prefix {
    Prefix::from_str(s).unwrap()
}

fn service() -> ArtemisService {
    let config = ArtemisConfig::new(
        Asn(65001),
        vec![OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001))],
    );
    let pipeline = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
    let controller = Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1));
    ArtemisService::new(pipeline, controller)
}

fn event(vp: u32, prefix: &str, path: &[u32], t: u64) -> FeedEvent {
    let as_path = AsPath::from_sequence(path.iter().copied());
    let origin = as_path.origin();
    FeedEvent {
        emitted_at: SimTime::from_secs(t),
        observed_at: SimTime::from_secs(t.saturating_sub(5)),
        source: FeedKind::RisLive,
        collector: "rrc00".into(),
        vantage: Asn(vp),
        prefix: pfx(prefix),
        as_path: Some(as_path),
        origin_as: origin,
        raw: None,
    }
}

/// Apply `cmd` over the wire and to the in-process twin at the same
/// instant; the two results must agree exactly.
fn apply_both(
    client: &CtlClient,
    twin: &mut ArtemisService,
    cmd: ServiceCommand,
    at_secs: u64,
) -> CommandResult {
    let at = SimTime::from_secs(at_secs);
    let wire = client
        .apply(cmd.clone(), Some(at))
        .expect("wire command failed");
    assert_eq!(wire.at, at, "daemon must honor the explicit at");
    let local = match twin.apply(cmd, at) {
        Ok(outcome) => CommandResult::Outcome(outcome),
        Err(error) => CommandResult::Rejected(error),
    };
    assert_eq!(wire.result, local, "wire and in-process outcomes differ");
    wire.result
}

#[test]
fn every_command_round_trips_with_identical_history() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    let mut twin = service();

    client.healthz().expect("daemon must be live");

    // 1–3: policy swap, onboarding, feed attach.
    let r = apply_both(
        &client,
        &mut twin,
        ServiceCommand::SetMitigationPolicy {
            prefix: pfx("10.0.0.0/23"),
            policy: MitigationPolicy::ConfirmFirst,
        },
        1,
    );
    assert!(matches!(r, CommandResult::Outcome(_)));
    apply_both(
        &client,
        &mut twin,
        ServiceCommand::AddOwnedPrefix {
            owned: OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
            policy: Some(MitigationPolicy::Auto),
        },
        2,
    );
    let attached = apply_both(
        &client,
        &mut twin,
        ServiceCommand::AttachFeed {
            feed: FeedSpec::ris_live("rrc", vec![Asn(174)]),
        },
        3,
    );
    let CommandResult::Outcome(CommandOutcome::FeedAttached { handle }) = attached else {
        panic!("expected FeedAttached, got {attached:?}");
    };

    // 4: a sub-prefix hijack arrives through both paths.
    let hijack = event(174, "10.0.0.0/23", &[174, 666], 45);
    let injected = client.inject(vec![hijack.clone()]).expect("inject failed");
    assert_eq!(injected.delivered, 1);
    assert_eq!(injected.alerts_raised, 1);
    twin.deliver(&hijack);

    // Mid-flight scrape: feed attached, incident pending confirmation.
    let metrics = client.metrics_text().expect("metrics scrape failed");
    assert!(metrics.contains("artemis_stage_batches_total{stage=\"drain\"}"));
    assert!(metrics.contains("artemis_stage_mean_batch_nanos{stage=\"classify\"}"));
    assert!(metrics.contains("artemis_incidents{phase=\"pending_confirmation\"} 1"));
    assert!(metrics.contains(&format!("artemis_feed_queued_events{{feed=\"{handle}\"")));
    assert!(metrics.contains("artemis_events_delivered_total 1"));
    assert!(metrics.contains("artemis_audit_records_total 3"));

    // The raised alert has the same id on both sides.
    let status = client.status().expect("status failed");
    assert_eq!(status.incidents.len(), 1);
    assert_eq!(
        status.incidents[0].phase,
        MitigationPhase::PendingConfirmation
    );
    let alert = status.incidents[0].alert;
    assert_eq!(
        twin.status(SimTime::from_secs(50)).incidents[0].alert,
        alert
    );

    // 5–6: confirm executes the held plan once, then rejects.
    let confirmed = apply_both(
        &client,
        &mut twin,
        ServiceCommand::ConfirmMitigation { alert },
        60,
    );
    assert!(matches!(
        confirmed,
        CommandResult::Outcome(CommandOutcome::MitigationConfirmed { .. })
    ));
    let again = apply_both(
        &client,
        &mut twin,
        ServiceCommand::ConfirmMitigation { alert },
        61,
    );
    assert_eq!(
        again,
        CommandResult::Rejected(ServiceError::NothingPending(alert))
    );

    // 7–9: pause (twice; second rejects), resume.
    apply_both(&client, &mut twin, ServiceCommand::Pause, 62);
    let double_pause = apply_both(&client, &mut twin, ServiceCommand::Pause, 63);
    assert_eq!(
        double_pause,
        CommandResult::Rejected(ServiceError::AlreadyPaused)
    );
    apply_both(&client, &mut twin, ServiceCommand::Resume, 64);

    // 10–11: detach the feed once, then reject.
    let detached = apply_both(
        &client,
        &mut twin,
        ServiceCommand::DetachFeed { handle },
        65,
    );
    assert!(matches!(
        detached,
        CommandResult::Outcome(CommandOutcome::FeedDetached { .. })
    ));
    let redetached = apply_both(
        &client,
        &mut twin,
        ServiceCommand::DetachFeed { handle },
        66,
    );
    assert_eq!(
        redetached,
        CommandResult::Rejected(ServiceError::UnknownFeed(handle))
    );

    // 12–13: offboard once, then reject an unknown prefix.
    apply_both(
        &client,
        &mut twin,
        ServiceCommand::RemoveOwnedPrefix {
            prefix: pfx("172.16.0.0/23"),
        },
        67,
    );
    let unknown = apply_both(
        &client,
        &mut twin,
        ServiceCommand::RemoveOwnedPrefix {
            prefix: pfx("8.8.8.0/24"),
        },
        68,
    );
    assert_eq!(
        unknown,
        CommandResult::Rejected(ServiceError::UnknownPrefix(pfx("8.8.8.0/24")))
    );

    // The histories are byte-identical once serialized.
    let wire_history = client.events(EventCursor::START, 0).expect("events failed");
    let local_history = twin.poll_events(EventCursor::START);
    assert!(!wire_history.events.is_empty());
    assert_eq!(wire_history.missed, 0);
    assert_eq!(wire_history.next, local_history.next);
    assert_eq!(
        serde_json::to_string(&wire_history.events).unwrap(),
        serde_json::to_string(&local_history.events).unwrap(),
        "wire and in-process event histories must serialize identically"
    );

    // The audit trail recorded every command — accepted and rejected —
    // in order, with the explicit instants.
    let audit = client.audit(0).expect("audit failed");
    assert_eq!(audit.len(), 12, "12 commands were posted");
    assert_eq!(audit[0].at, SimTime::from_secs(1));
    assert_eq!(audit[11].at, SimTime::from_secs(68));
    let rejected: Vec<u64> = audit
        .iter()
        .filter(|r| !r.accepted())
        .map(|r| r.seq)
        .collect();
    assert_eq!(rejected, vec![4, 6, 9, 11], "exactly the four rejections");
    for (i, rec) in audit.iter().enumerate() {
        assert_eq!(rec.seq, i as u64, "audit sequence is gapless");
    }

    daemon.shutdown();
}

#[test]
fn schema_version_mismatch_is_rejected() {
    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let http = minihttp::Client::new(daemon.addr().to_string());
    let body = "{\"schema_version\":999,\"at\":null,\"command\":\"Pause\"}";
    let resp = http
        .post("/v1/command", "application/json", body)
        .expect("request failed");
    assert_eq!(resp.status, 400);
    assert!(resp.body_utf8().contains("schema_version"));
    // Nothing was applied or audited.
    let client = CtlClient::new(daemon.addr().to_string());
    assert!(client.audit(0).unwrap().is_empty());
    daemon.shutdown();
}

#[test]
fn webhook_sink_receives_alert_payloads() {
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    // A capturing webhook receiver.
    let received: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let receiver = minihttp::Server::bind("127.0.0.1:0").unwrap();
    let receiver_addr = receiver.local_addr().unwrap();
    let receiver_switch = receiver.shutdown_switch().unwrap();
    let store = Arc::clone(&received);
    let receiver_thread = std::thread::spawn(move || {
        let _ = receiver.serve(move |req| {
            if let Ok(body) = req.body_utf8() {
                store.lock().unwrap().push(body.to_string());
            }
            minihttp::Response::json("{}")
        });
    });

    let daemon = Daemon::start("127.0.0.1:0", service(), DaemonConfig::default()).unwrap();
    let client = CtlClient::new(daemon.addr().to_string());
    let sinks = client
        .add_webhook(&format!("http://{receiver_addr}/hook"))
        .expect("add-sink failed");
    assert_eq!(sinks.len(), 1);

    // Default policy is auto-mitigate: one hijack produces AlertRaised
    // and MitigationTriggered payloads.
    client
        .inject(vec![event(174, "10.0.0.0/23", &[174, 666], 45)])
        .expect("inject failed");

    let deadline = Instant::now() + Duration::from_secs(10);
    let payloads = loop {
        let got = received.lock().unwrap().clone();
        if got.len() >= 2 || Instant::now() >= deadline {
            break got;
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    assert!(
        payloads.len() >= 2,
        "expected at least 2 alert payloads, got {}",
        payloads.len()
    );
    let first: AlertPayload = serde_json::from_str(&payloads[0]).expect("payload must parse");
    assert!(matches!(
        first.event,
        artemis_core::IncidentEvent::AlertRaised { alert, .. } if alert == AlertId(0)
    ));

    daemon.shutdown();
    receiver_switch.trigger();
    let _ = receiver_thread.join();
}
