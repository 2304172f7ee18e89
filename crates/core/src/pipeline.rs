//! The batched multi-prefix detection pipeline.
//!
//! A [`Pipeline`] is the reusable event loop that used to live inside
//! the experiment harness: it owns the [`FeedHub`], the sharded
//! multi-prefix [`Detector`], the per-alert [`MonitorService`]
//! registry and the [`Mitigator`], and consumes feed events in
//! **batches** ([`FeedHub::drain_batch`] merge-sorts everything due by
//! `emitted_at` into one reusable buffer).
//!
//! Because the detector shards its state per owned prefix and every
//! alert gets its own monitor, several concurrent incidents on
//! different prefixes each run an independent
//! alert → mitigation → resolution lifecycle — the multi-victim /
//! simultaneous-attack operator configurations of the journal version
//! of the paper ("ARTEMIS: Neutralizing BGP Hijacking within a
//! Minute"), which the old single-alert experiment loop structurally
//! could not represent.
//!
//! Since the control-plane redesign the pipeline is also **runtime
//! reconfigurable**: owned prefixes onboard/offboard mid-run
//! ([`Pipeline::add_owned_prefix`] / [`Pipeline::remove_owned_prefix`]),
//! feeds attach/detach by stable handle, per-prefix
//! [`MitigationPolicy`] swaps at any instant, and mitigation can
//! pause/resume without stopping detection. Everything noteworthy is
//! additionally recorded as an owned, serializable
//! [`IncidentEvent`] record in an internal
//! [`EventLog`] — poll it with [`Pipeline::poll_events`]; any number
//! of cursors replay the same history independently. The borrowing
//! [`PipelineEvent`] observer callback remains as a thin inline
//! adapter for drivers that want zero-copy progress reporting.
//!
//! Drivers have two entry points:
//!
//! * [`Pipeline::run`] — the full interleaved loop across the four
//!   clock domains (BGP engine, controller installs, pull-feed polls,
//!   feed-event deliveries), reporting progress through an observer
//!   callback. The experiment harness and the multi-prefix examples
//!   are thin wrappers around this.
//! * [`Pipeline::deliver`] — hand-feed single events (what
//!   [`crate::ArtemisApp`] exposes for deployments that bring their
//!   own transport).
//!
//! Deployments that want typed commands/queries over these primitives
//! should use [`crate::service::ArtemisService`].
//!
//! # Threading model
//!
//! The pipeline runs on the thread that calls it. A live wire feed
//! decodes BMP on its own reader thread and hands events over through
//! a bounded ring; from there one thread drains, classifies and
//! commits. [`Pipeline::deliver_due`] splits a drained batch into
//! stages on that one thread: drain (merge the per-feed runs), classify
//! (one tight [`Detector::prepare`] pass over the batch) and commit
//! (monitor routing, monitor ingest, then the ordered detection walk
//! with mitigation and resolution). Each stage records its own
//! [`StageMetrics`] entry.

use crate::alert::{AlertId, AlertState};
use crate::app::AppAction;
use crate::config::{ArtemisConfig, OwnedPrefix};
use crate::detector::{Detection, Detector, PreparedEvent};
use crate::event_log::{EventCursor, EventLog, IncidentEvent, PollBatch};
use crate::metrics::StageMetrics;
use crate::mitigation::{MitigationPlan, MitigationPolicy, Mitigator};
use crate::monitor::{
    run_monitor_tasks, MonitorIndex, MonitorOutcome, MonitorService, MonitorTask, RetiredMonitor,
};
use artemis_bgp::{Asn, Prefix};
use artemis_bgpsim::Engine;
use artemis_controller::{Controller, IntentKind};
use artemis_feeds::{EmptyRibView, EngineView, FeedEvent, FeedHandle, FeedHub, FeedSource};
use artemis_simnet::{SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::ControlFlow;

/// Execution parameters of the [`Pipeline`] itself (as opposed to the
/// operator's [`ArtemisConfig`], which describes *what* to protect).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Threads that drain, classify and commit. The pipeline runs on
    /// the calling thread, so the only supported value is `1` (the
    /// default); benchmark records report it alongside host cores.
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { workers: 1 }
    }
}

/// Progress notifications emitted by [`Pipeline::run`].
///
/// This is the *inline* observer surface: it borrows into the pipeline
/// and lives only for one callback. The owned, replayable equivalent
/// is the [`IncidentEvent`] stream behind [`Pipeline::poll_events`].
#[derive(Debug)]
pub enum PipelineEvent<'a> {
    /// An action produced while delivering feed events (alert raised,
    /// mitigation triggered, incident resolved).
    App(&'a AppAction),
    /// A controller intent finished installing and entered the routing
    /// plane.
    ControllerApplied {
        /// Announce or withdraw.
        kind: IntentKind,
        /// The affected prefix.
        prefix: Prefix,
        /// Installation instant.
        at: SimTime,
    },
}

/// How a [`Pipeline::run`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunEnd {
    /// Every clock domain drained — nothing left to do.
    Drained,
    /// The time horizon was reached first.
    Horizon,
    /// The observer returned [`ControlFlow::Break`].
    Stopped,
}

/// Summary of one [`Pipeline::run`] invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Virtual time when the loop exited.
    pub ended_at: SimTime,
    /// Why the loop exited.
    pub end: RunEnd,
    /// Feed events delivered to the detector during this run.
    pub events_delivered: u64,
}

/// What [`Pipeline::remove_owned_prefix`] did while winding the
/// prefix down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OffboardReport {
    /// The removed prefix's configuration at offboard time.
    pub owned: OwnedPrefix,
    /// Alerts that were still open and got closed (their monitors are
    /// frozen for reporting, exactly like naturally resolved ones).
    pub closed_alerts: Vec<AlertId>,
    /// Executed mitigation plans that were withdrawn through the
    /// controller so no intent keeps originating offboarded space.
    pub withdrawn_plans: usize,
    /// Feed events the removed shard processed over its lifetime.
    pub shard_events: u64,
}

/// The assembled ARTEMIS pipeline: feeds → sharded detection →
/// per-alert monitoring → automatic mitigation.
pub struct Pipeline {
    hub: FeedHub,
    detector: Detector,
    mitigator: Mitigator,
    /// One monitor per alert, created when the alert is raised.
    monitors: BTreeMap<AlertId, MonitorService>,
    /// Prefix index over the active monitors' targets: routes an event
    /// to its covering set of relevant monitors instead of scanning the
    /// whole registry. Kept in lockstep with `monitors` (insert on
    /// alert raise, remove on retire/offboard).
    monitor_index: MonitorIndex,
    /// Alerts whose mitigation executed *outside* event delivery
    /// (operator confirm, or resume after a pause). Their monitors may
    /// already be all-legitimate, so the resolution condition must be
    /// re-evaluated at the next delivered event even when that event is
    /// irrelevant to them — exactly what the historical full-registry
    /// scan did implicitly.
    recheck: BTreeSet<AlertId>,
    /// Reusable routing buffer for [`MonitorIndex::route`].
    route_buf: Vec<AlertId>,
    /// Vantage population handed to new monitors.
    vantage_points: BTreeSet<Asn>,
    config: ArtemisConfig,
    mitigated: BTreeSet<AlertId>,
    /// Compact records of incidents that are over (resolved, or closed
    /// by offboarding). Their full monitors are retired on resolution,
    /// so per-event cost *and* memory track active incidents, not
    /// lifetime incident count.
    retired: BTreeMap<AlertId, RetiredMonitor>,
    /// Plans computed but held (confirm-first policy, or paused).
    pending: BTreeMap<AlertId, MitigationPlan>,
    /// Plans that were executed, for withdrawal on offboard.
    executed_plans: BTreeMap<AlertId, MitigationPlan>,
    /// True while mitigation is paused (detection continues).
    paused: bool,
    /// Owned, replayable record of everything noteworthy.
    log: EventLog,
    /// Reusable drain buffer for batched feed consumption.
    batch: Vec<FeedEvent>,
    /// Reusable per-event action buffer.
    actions: Vec<AppAction>,
    events_delivered: u64,
    /// Execution parameters.
    pconfig: PipelineConfig,
    /// Batch-aligned classification cache for [`Pipeline::deliver_due`].
    prepared: Vec<PreparedEvent>,
    /// Wall-clock per-stage batch latency (observability only; never
    /// part of deterministic snapshots).
    stage_metrics: StageMetrics,
}

impl Pipeline {
    /// Assemble a pipeline around a configured feed hub.
    pub fn new(hub: FeedHub, config: ArtemisConfig, vantage_points: BTreeSet<Asn>) -> Self {
        Pipeline {
            hub,
            detector: Detector::new(config.clone()),
            mitigator: Mitigator::new(config.clone()),
            monitors: BTreeMap::new(),
            monitor_index: MonitorIndex::new(),
            recheck: BTreeSet::new(),
            route_buf: Vec::new(),
            vantage_points,
            config,
            mitigated: BTreeSet::new(),
            retired: BTreeMap::new(),
            pending: BTreeMap::new(),
            executed_plans: BTreeMap::new(),
            paused: false,
            log: EventLog::new(),
            batch: Vec::new(),
            actions: Vec::new(),
            events_delivered: 0,
            pconfig: PipelineConfig::default(),
            prepared: Vec::new(),
            stage_metrics: StageMetrics::default(),
        }
    }

    /// A pipeline with no feeds attached — for drivers that deliver
    /// events by hand through [`Pipeline::deliver`] (the
    /// [`crate::ArtemisApp`] facade).
    pub fn bare(config: ArtemisConfig, vantage_points: BTreeSet<Asn>) -> Self {
        Pipeline::new(FeedHub::new(SimRng::new(0)), config, vantage_points)
    }

    /// Replace the event log's retention (builder style; events pushed
    /// so far are dropped).
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        self.log = EventLog::with_capacity(capacity);
        self
    }

    /// Set the execution parameters (builder style).
    ///
    /// # Panics
    ///
    /// When `pconfig.workers` is not 1: the pipeline drains, classifies
    /// and commits on the calling thread.
    pub fn with_pipeline_config(mut self, pconfig: PipelineConfig) -> Self {
        assert_eq!(
            pconfig.workers, 1,
            "the pipeline runs on one thread; PipelineConfig::workers must be 1"
        );
        self.pconfig = pconfig;
        self
    }

    /// The execution parameters in force.
    pub fn pipeline_config(&self) -> &PipelineConfig {
        &self.pconfig
    }

    /// Read access to the feed hub.
    pub fn hub(&self) -> &FeedHub {
        &self.hub
    }

    /// Mutable access to the feed hub (add feeds before running).
    pub fn hub_mut(&mut self) -> &mut FeedHub {
        &mut self.hub
    }

    /// Read access to the detector.
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// Read access to the mitigation history.
    pub fn mitigator(&self) -> &Mitigator {
        &self.mitigator
    }

    /// The operator configuration as currently in force (kept current
    /// across runtime onboarding/offboarding).
    pub fn config(&self) -> &ArtemisConfig {
        &self.config
    }

    /// The live monitor attached to an *active* alert, if any. Once
    /// the incident is over the monitor retires — see
    /// [`Pipeline::retired_monitor`].
    pub fn monitor_for(&self, alert: AlertId) -> Option<&MonitorService> {
        self.monitors.get(&alert)
    }

    /// Every active `(alert, monitor)` pair, in alert-raise order.
    pub fn monitors(&self) -> impl Iterator<Item = (AlertId, &MonitorService)> {
        self.monitors.iter().map(|(id, m)| (*id, m))
    }

    /// The compact retirement record of an alert whose incident is
    /// over (resolved, or closed by offboarding), if any.
    pub fn retired_monitor(&self, alert: AlertId) -> Option<&RetiredMonitor> {
        self.retired.get(&alert)
    }

    /// Every retired `(alert, record)` pair, in alert-raise order.
    pub fn retired_monitors(&self) -> impl Iterator<Item = (AlertId, &RetiredMonitor)> {
        self.retired.iter().map(|(id, m)| (*id, m))
    }

    /// Number of retired (over) incidents (capacity gauge).
    pub fn retired_count(&self) -> usize {
        self.retired.len()
    }

    /// Wall-clock per-stage batch latency of the delivery path
    /// (observability only; see [`StageMetrics`] for why this is kept
    /// out of deterministic snapshots).
    pub fn stage_metrics(&self) -> &StageMetrics {
        &self.stage_metrics
    }

    /// Feed events delivered to the detector so far.
    pub fn events_delivered(&self) -> u64 {
        self.events_delivered
    }

    // ---- Owned event stream -----------------------------------------

    /// Everything recorded since `cursor` (owned, serializable
    /// events). Any number of consumers poll with independent cursors
    /// and replay identical histories.
    pub fn poll_events(&self, cursor: EventCursor) -> PollBatch {
        self.log.poll(cursor)
    }

    /// Read access to the event log (capacity/len accounting).
    pub fn event_log(&self) -> &EventLog {
        &self.log
    }

    // ---- Runtime reconfiguration ------------------------------------

    /// Onboard an owned prefix mid-run: a fresh detector shard, an
    /// optional per-prefix [`MitigationPolicy`] override, and a
    /// `PrefixOnboarded` event. Returns `false` (no change) when the
    /// prefix is already configured.
    pub fn add_owned_prefix(
        &mut self,
        owned: OwnedPrefix,
        policy: Option<MitigationPolicy>,
        now: SimTime,
    ) -> bool {
        if !self.detector.add_shard(owned.clone()) {
            return false;
        }
        if let Some(p) = policy {
            self.mitigator.set_policy(owned.prefix, p);
        }
        self.log.push(IncidentEvent::PrefixOnboarded {
            prefix: owned.prefix,
            at: now,
        });
        self.config.owned.push(owned);
        true
    }

    /// Offboard an owned prefix mid-run.
    ///
    /// In-flight incidents on the prefix are closed: their monitors
    /// freeze (kept for reporting, skipped on ingestion), their held
    /// plans are discarded, and every *executed* mitigation plan is
    /// withdrawn through the controller — so no helper or operator
    /// intent keeps originating offboarded address space. Returns
    /// `None` when the prefix is not configured.
    pub fn remove_owned_prefix(
        &mut self,
        prefix: Prefix,
        now: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Option<OffboardReport> {
        let removed = self.detector.remove_shard(prefix)?;
        self.config.owned.retain(|o| o.prefix != prefix);
        self.mitigator.clear_policy(prefix);
        let mut closed_alerts = Vec::new();
        let mut withdrawn_plans = 0usize;
        for id in &removed.alerts {
            self.pending.remove(id);
            self.recheck.remove(id);
            // Withdraw every plan ever executed on this shard — a
            // naturally resolved incident keeps its de-aggregated
            // announcements installed by design, so resolved alerts
            // need the withdrawal just as much as open ones.
            if let Some(plan) = self.executed_plans.remove(id) {
                self.mitigator
                    .withdraw(&plan, now, controller, helper_controllers);
                withdrawn_plans += 1;
            }
            let open = self
                .detector
                .alerts()
                .get(*id)
                .map(|a| a.state != AlertState::Resolved)
                .unwrap_or(false);
            if !open {
                continue;
            }
            self.detector.alerts_mut().mark_resolved(*id, now);
            if let Some(monitor) = self.monitors.remove(id) {
                self.monitor_index.remove(monitor.target(), *id);
                self.retired.insert(*id, monitor.retire(now));
            }
            closed_alerts.push(*id);
        }
        self.log.push(IncidentEvent::PrefixOffboarded {
            prefix,
            closed_alerts: closed_alerts.clone(),
            at: now,
        });
        Some(OffboardReport {
            owned: removed.owned,
            closed_alerts,
            withdrawn_plans,
            shard_events: removed.events,
        })
    }

    /// Attach a feed mid-run, returning its stable handle.
    pub fn attach_feed(&mut self, feed: Box<dyn FeedSource>, now: SimTime) -> FeedHandle {
        let handle = self.hub.add(feed);
        self.log
            .push(IncidentEvent::FeedAttached { handle, at: now });
        handle
    }

    /// Detach a feed mid-run, dropping its queued undelivered events
    /// (see `FeedHub::remove` for the exact semantics). Returns how
    /// many were dropped, or `None` for an unknown handle.
    pub fn detach_feed(&mut self, handle: FeedHandle, now: SimTime) -> Option<usize> {
        let (_, dropped_events) = self.hub.remove(handle)?;
        self.log.push(IncidentEvent::FeedDetached {
            handle,
            dropped_events,
            at: now,
        });
        Some(dropped_events)
    }

    /// Run every pull feed that is ready at `now`, queueing whatever
    /// they return into the hub's merge heap. Live wire feeds
    /// ([`artemis_feeds::BmpLiveFeed`]) report readiness exactly when
    /// their socket ring holds events, so a daemon pump loop can call
    /// this every tick at negligible idle cost. Uses an
    /// [`EmptyRibView`]: wire feeds never inspect simulated routing
    /// state (RIB-inspecting pull feeds belong to simulation drivers,
    /// which poll through [`Pipeline::run`] with a real engine view).
    pub fn poll_feeds(&mut self, now: SimTime) {
        if self.hub.next_poll(now).is_some() {
            self.hub.poll_and_queue(now, &EmptyRibView);
        }
    }

    /// Swap the mitigation policy of an owned prefix. Returns `false`
    /// for prefixes not currently configured.
    pub fn set_mitigation_policy(
        &mut self,
        prefix: Prefix,
        policy: MitigationPolicy,
        now: SimTime,
    ) -> bool {
        if self.detector.owned_rules(prefix).is_none() {
            return false;
        }
        self.mitigator.set_policy(prefix, policy);
        self.log.push(IncidentEvent::PolicyChanged {
            prefix,
            policy,
            at: now,
        });
        true
    }

    /// The mitigation policy in force for an owned prefix.
    pub fn mitigation_policy(&self, prefix: Prefix) -> MitigationPolicy {
        self.mitigator.policy_for(prefix)
    }

    /// Pause mitigation service-wide: detection and monitoring keep
    /// running; new plans are computed and *held* as pending instead
    /// of executing. Idempotent.
    pub fn pause_mitigation(&mut self, now: SimTime) {
        if !self.paused {
            self.paused = true;
            self.log.push(IncidentEvent::MitigationPaused { at: now });
        }
    }

    /// Resume mitigation: held plans whose prefix policy is
    /// [`MitigationPolicy::Auto`] execute now (confirm-first plans
    /// keep waiting for their confirmation). Returns the alerts whose
    /// plans executed. No-op when not paused.
    pub fn resume_mitigation(
        &mut self,
        now: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Vec<AlertId> {
        if !self.paused {
            return Vec::new();
        }
        self.paused = false;
        let to_run: Vec<AlertId> = self
            .pending
            .iter()
            .filter(|(id, _)| {
                self.detector.alerts().get(**id).is_some_and(|a| {
                    self.mitigator.policy_for(a.owned_prefix) == MitigationPolicy::Auto
                })
            })
            .map(|(id, _)| *id)
            .collect();
        for id in &to_run {
            let plan = self.pending.remove(id).expect("listed as pending");
            self.execute_held_plan(*id, plan, now, controller, helper_controllers);
            // The monitor may already be all-legitimate (the hijack
            // could have withered while the plan was held), so the
            // resolution condition must be evaluated at the next
            // delivered event even if that event is irrelevant.
            if self.monitors.contains_key(id) {
                self.recheck.insert(*id);
            }
        }
        self.log.push(IncidentEvent::MitigationResumed {
            executed_alerts: to_run.clone(),
            at: now,
        });
        to_run
    }

    /// True while mitigation is paused.
    pub fn mitigation_paused(&self) -> bool {
        self.paused
    }

    /// Execute the held plan of a confirm-first (or paused-era) alert.
    /// Returns the executed plan, or `None` when nothing is pending
    /// for the alert.
    pub fn confirm_mitigation(
        &mut self,
        alert: AlertId,
        now: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Option<MitigationPlan> {
        let plan = self.pending.remove(&alert)?;
        self.execute_held_plan(alert, plan.clone(), now, controller, helper_controllers);
        // Same rationale as in `resume_mitigation`: the mitigated flag
        // flipped outside delivery, so the next delivered event must
        // re-evaluate this alert's resolution condition.
        if self.monitors.contains_key(&alert) {
            self.recheck.insert(alert);
        }
        Some(plan)
    }

    /// Every alert with a computed-but-held plan, in alert order.
    pub fn pending_mitigations(&self) -> impl Iterator<Item = (AlertId, &MitigationPlan)> {
        self.pending.iter().map(|(id, p)| (*id, p))
    }

    /// The executed plan of a mitigated alert, if any.
    pub fn executed_plan(&self, alert: AlertId) -> Option<&MitigationPlan> {
        self.executed_plans.get(&alert)
    }

    // ---- Event delivery ---------------------------------------------

    /// Tell the detector that a prefix announcement of ours is
    /// expected (phase-1 setup, planned anycast, …).
    pub fn expect_announcement(&mut self, prefix: Prefix) {
        self.detector.expect_announcement(prefix);
    }

    /// Fan a batch of routing changes out to the push feeds; the
    /// resulting events queue inside the hub until due.
    pub fn ingest_route_changes(&mut self, changes: &[artemis_bgpsim::RouteChange]) {
        self.hub.ingest_route_changes(changes);
    }

    /// Drain pending BMP `peer_down` signals from the hub's wire feeds
    /// and purge each downed peer from every active monitor's per-VP
    /// view: a vantage point whose session to the collector is gone no
    /// longer has current routes, so it returns to `Unknown` until it
    /// reports again. Called automatically at each delivery boundary
    /// ([`Pipeline::deliver_due`] and [`Pipeline::run`]); exposed for
    /// drivers that pump wire feeds without delivering. Returns the
    /// number of `(peer, monitor)` purges applied.
    pub fn apply_peer_downs(&mut self, at: SimTime) -> usize {
        let downs = self.hub.take_peer_downs();
        if downs.is_empty() {
            return 0;
        }
        let mut purged = 0;
        for vp in &downs {
            for monitor in self.monitors.values_mut() {
                purged += usize::from(monitor.purge_vantage(*vp, at));
            }
        }
        purged
    }

    /// Emission instant of the earliest queued feed event.
    pub fn next_feed_time(&self) -> Option<SimTime> {
        self.hub.next_emission()
    }

    /// Earliest pending pull-feed poll.
    pub fn next_poll(&self, now: SimTime) -> Option<SimTime> {
        self.hub.next_poll(now)
    }

    /// Feed one monitoring event through detection, monitoring and
    /// (policy permitting) automatic mitigation. `controller` (and
    /// optional helpers) receive mitigation intents when a new alert
    /// fires.
    pub fn deliver(
        &mut self,
        event: &FeedEvent,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> Vec<AppAction> {
        let mut actions = Vec::new();
        self.deliver_into(event, controller, helper_controllers, &mut actions);
        actions
    }

    /// [`Pipeline::deliver`] into a caller-owned buffer (cleared
    /// first) — the batch loop reuses one allocation per run.
    pub fn deliver_into(
        &mut self,
        event: &FeedEvent,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
        actions: &mut Vec<AppAction>,
    ) {
        self.deliver_impl(event, controller, helper_controllers, actions);
    }

    /// Steps 1–3 of delivering one event: commit detection (using the
    /// precomputed classification when one exists), and — on a new
    /// alert — record it, spin up and index its monitor, and run the
    /// policy-gated mitigation. Returns the newly raised alert (if
    /// any) plus the wall-clock nanoseconds the mitigation sub-stage
    /// took (0 on the overwhelmingly common no-alert path, which never
    /// reads the clock).
    fn detect_and_arm(
        &mut self,
        event: &FeedEvent,
        prepared: Option<PreparedEvent>,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
        actions: &mut Vec<AppAction>,
    ) -> (Option<AlertId>, u64) {
        // 1. Detection: route the event to the responsible shard. A
        // prepared classification (from the batch's classify pass) is
        // committed via the detector's two-phase path, which
        // re-classifies against live state whenever the owning shard's
        // rules changed mid-batch — so both arms produce identical
        // outcomes.
        let detection = match prepared {
            Some(prep) => self.detector.process_prepared(event, prep),
            None => self.detector.process(event),
        };

        let Detection::NewAlert(id) = detection else {
            return (None, 0);
        };
        actions.push(AppAction::AlertRaised(id));

        let alert = self.detector.alerts().get(id).expect("just created");
        let hijack_type = alert.hijack_type;
        let owned_prefix = alert.owned_prefix;
        let observed_prefix = alert.observed_prefix;
        let at = event.emitted_at;
        self.log.push(IncidentEvent::AlertRaised {
            alert: id,
            owned_prefix,
            observed_prefix,
            hijack_type,
            at,
        });

        // 2. Spin up a monitor scoped to the attacked prefix. Each
        // alert gets its own, so concurrent incidents on different
        // prefixes track independent recovery timelines. The rules
        // come from the detector's routing structure — a keyed
        // lookup, not a scan over the whole owned portfolio.
        let legitimate_origins = self
            .detector
            .owned_rules(owned_prefix)
            .expect("alert references configured prefix")
            .legitimate_origins
            .clone();
        let monitor = MonitorService::new(
            owned_prefix,
            legitimate_origins,
            self.vantage_points.clone(),
        );
        self.monitors.insert(id, monitor);
        self.monitor_index.insert(owned_prefix, id);

        // 3. Mitigation, governed by the prefix's policy.
        let policy = self.mitigator.policy_for(owned_prefix);
        let mut mitigate_ns = 0u64;
        if policy != MitigationPolicy::DetectOnly && !self.mitigated.contains(&id) {
            let clock = std::time::Instant::now();
            if policy == MitigationPolicy::Auto && !self.paused {
                let alert = self.detector.alerts().get(id).expect("just created");
                let plan = self.mitigator.plan(alert);
                self.execute_held_plan(id, plan.clone(), at, controller, helper_controllers);
                actions.push(AppAction::MitigationTriggered {
                    alert: id,
                    plan,
                    at,
                });
            } else {
                // Confirm-first policy, or Auto while paused: the
                // plan is computed and held for the operator.
                let alert = self.detector.alerts().get(id).expect("just created");
                let plan = self.mitigator.plan(alert);
                self.pending.insert(id, plan.clone());
                self.log.push(IncidentEvent::MitigationPending {
                    alert: id,
                    plan: plan.clone(),
                    at,
                });
                actions.push(AppAction::MitigationPending {
                    alert: id,
                    plan,
                    at,
                });
            }
            mitigate_ns = u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
        }
        (Some(id), mitigate_ns)
    }

    /// Resolve one alert's incident: retire its monitor into the
    /// compact record and drop it from the prefix index. A missing
    /// monitor would mean the routing layer and the registry disagree
    /// — debug builds assert; release builds skip gracefully instead
    /// of aborting the daemon mid-incident.
    fn retire_monitor(&mut self, id: AlertId, at: SimTime) {
        if let Some(monitor) = self.monitors.remove(&id) {
            self.monitor_index.remove(monitor.target(), id);
            self.retired.insert(id, monitor.retire(at));
        } else {
            debug_assert!(false, "resolved alert {id:?} has no live monitor");
        }
    }

    /// The per-event delivery path ([`Pipeline::deliver`] and
    /// [`Pipeline::run`]): fused detection, then monitoring and
    /// mitigation for this one event.
    fn deliver_impl(
        &mut self,
        event: &FeedEvent,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
        actions: &mut Vec<AppAction>,
    ) {
        actions.clear();
        self.events_delivered += 1;

        self.detect_and_arm(event, None, controller, helper_controllers, actions);

        // 4. Monitoring: the prefix index routes the event to its
        // covering set of relevant monitors (a freshly armed monitor is
        // already indexed, so it sees its triggering event — identical
        // to the historical full-registry scan). On full recovery,
        // resolve that monitor's alert and retire the monitor into its
        // compact record, so both per-event cost and memory track
        // active incidents only.
        let mut route = std::mem::take(&mut self.route_buf);
        self.monitor_index.route(event.prefix, &mut route);
        if !self.recheck.is_empty() {
            // Externally mitigated alerts re-evaluate their resolution
            // condition at this event even when it is irrelevant to
            // them (see the `recheck` field docs).
            let recheck = std::mem::take(&mut self.recheck);
            for id in recheck {
                if route.binary_search(&id).is_err() {
                    route.push(id);
                }
            }
            route.sort_unstable();
        }
        let mut newly_resolved: Vec<AlertId> = Vec::new();
        for id in &route {
            // A recheck entry can outlive its incident (offboarded
            // mid-wait); skip gracefully.
            let Some(monitor) = self.monitors.get_mut(id) else {
                continue;
            };
            if monitor.is_relevant(event.prefix) {
                monitor.ingest_routed(event);
            }
            if self.mitigated.contains(id) && monitor.all_legitimate() {
                self.detector
                    .alerts_mut()
                    .mark_resolved(*id, event.emitted_at);
                self.log.push(IncidentEvent::Resolved {
                    alert: *id,
                    at: event.emitted_at,
                });
                actions.push(AppAction::Resolved {
                    alert: *id,
                    at: event.emitted_at,
                });
                newly_resolved.push(*id);
            }
        }
        route.clear();
        self.route_buf = route;
        for id in newly_resolved {
            self.retire_monitor(id, event.emitted_at);
        }
    }

    /// Drain every queued feed event due by `upto` and deliver it as
    /// **one** batch, using the service's controllers but no observer.
    /// Returns the number of events delivered.
    ///
    /// This is the bulk-ingestion surface for drivers that replay
    /// pre-queued streams (benchmarks, archive replays) and for the
    /// live feed pump: unlike [`Pipeline::run`], which batches per
    /// emission instant, the whole backlog becomes a single batch —
    /// exactly the `drain_batch` contract — preserving the global
    /// `(emitted_at, ingestion order)` delivery order.
    ///
    /// The batch is classified up front in one pass (see the
    /// [module docs](self)). The commit stage is **staged**: monitors
    /// that pre-exist the batch consume their routed events up front,
    /// one covering-set shard at a time, and the ordered walk then only
    /// runs detection, in-batch-born monitors, and the pre-computed
    /// resolution points. This is byte-identical to delivering the
    /// batch one event at a time — a pre-existing monitor's state
    /// evolution depends only on the event sequence, never on in-batch
    /// detection, and its `mitigated` flag cannot change mid-batch
    /// (confirm/resume happen between deliveries) — which the identity
    /// and property tests lock in. Each sub-stage records its own
    /// [`crate::StageStat`] (see [`StageMetrics`]).
    pub fn deliver_due(
        &mut self,
        upto: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) -> u64 {
        use std::time::Instant;

        self.apply_peer_downs(upto);
        let t0 = Instant::now();
        let (_, drain_split) = self.hub.drain_batch_timed(upto, &mut self.batch);
        let delivered = self.batch.len() as u64;
        if delivered == 0 {
            return 0;
        }
        let t1 = Instant::now();
        self.detector.begin_batch();
        let t_snapshot = Instant::now();
        // Classify in one tight pass before committing anything. The
        // flat trie and the shard rules stay hot in cache across the
        // whole batch — measurably cheaper than re-entering the fused
        // classify-and-commit path per event — and the dirty-shard
        // recompute in `process_prepared` keeps the outcome
        // byte-identical to the fused path by construction.
        self.prepared.clear();
        self.prepared
            .extend(self.batch.iter().map(|event| self.detector.prepare(event)));
        let t2 = Instant::now();

        // --- monitor-route: partition the active monitors into
        // covering-set shards and route every event once through the
        // prefix index, building each shard's (deduplicated, ordered)
        // relevant-event index list. The partition is cached inside
        // the index and invalidated by its epoch, so steady-state
        // batches (no onboard/offboard in between) skip the recompute.
        let shards = self.monitor_index.covering_shards_cached();
        let mut group_of: BTreeMap<AlertId, u32> = BTreeMap::new();
        for (g, ids) in shards.iter().enumerate() {
            for id in ids {
                group_of.insert(*id, g as u32);
            }
        }
        let mut shard_events: Vec<Vec<u32>> = vec![Vec::new(); shards.len()];
        {
            let mut route = std::mem::take(&mut self.route_buf);
            for (i, event) in self.batch.iter().enumerate() {
                self.monitor_index.route(event.prefix, &mut route);
                for id in &route {
                    let list = &mut shard_events[group_of[id] as usize];
                    if list.last() != Some(&(i as u32)) {
                        list.push(i as u32);
                    }
                }
            }
            route.clear();
            self.route_buf = route;
        }
        let t3 = Instant::now();

        // --- monitor-ingest. Recheck pre-pass first: externally
        // mitigated alerts evaluate their resolution condition at the
        // batch's first event regardless of relevance (mirroring the
        // per-event path); survivors rejoin the shard scan from event
        // 1 so the first event is not ingested twice.
        let mut resolutions: BTreeMap<usize, Vec<(AlertId, MonitorService)>> = BTreeMap::new();
        let mut starts: BTreeMap<AlertId, usize> = BTreeMap::new();
        if !self.recheck.is_empty() {
            let recheck = std::mem::take(&mut self.recheck);
            let first = &self.batch[0];
            for id in recheck {
                let Some(mut monitor) = self.monitors.remove(&id) else {
                    continue;
                };
                if monitor.is_relevant(first.prefix) {
                    monitor.ingest_routed(first);
                }
                if self.mitigated.contains(&id) && monitor.all_legitimate() {
                    resolutions.entry(0).or_default().push((id, monitor));
                } else {
                    self.monitors.insert(id, monitor);
                    starts.insert(id, 1);
                }
            }
        }

        // Check the pre-existing monitors out of the registry, shard by
        // shard (shards with no routed events stay put), and ingest
        // each shard's routed events; the outcomes are then merged
        // back in alert order.
        let mut outcomes: Vec<MonitorOutcome> = Vec::new();
        for (g, ids) in shards.iter().enumerate() {
            let indices = std::mem::take(&mut shard_events[g]);
            if indices.is_empty() {
                continue;
            }
            let mut tasks = Vec::with_capacity(ids.len());
            for id in ids {
                let Some(monitor) = self.monitors.remove(id) else {
                    continue; // resolved by the recheck pre-pass
                };
                tasks.push(MonitorTask {
                    alert: *id,
                    monitor,
                    mitigated: self.mitigated.contains(id),
                    start: starts.get(id).copied().unwrap_or(0),
                });
            }
            if !tasks.is_empty() {
                run_monitor_tasks(&self.batch, &indices, tasks, &mut outcomes);
            }
        }
        outcomes.sort_unstable_by_key(|o| o.alert);
        for outcome in outcomes {
            match outcome.resolved_at {
                Some(i) => resolutions
                    .entry(i)
                    .or_default()
                    .push((outcome.alert, outcome.monitor)),
                None => {
                    self.monitors.insert(outcome.alert, outcome.monitor);
                }
            }
        }
        // A recheck resolution and a shard resolution can share event
        // 0; resolutions at one event must apply in ascending alert
        // order like the per-event path.
        for entry in resolutions.values_mut() {
            entry.sort_unstable_by_key(|(id, _)| *id);
        }
        let t4 = Instant::now();

        // --- commit walk: detection in delivery order, events into
        // monitors born earlier in this batch, and the pre-computed
        // resolutions applied at their exact event indices (before the
        // next event's detection, so dedup against resolved alerts —
        // a re-hijack is a NEW alert — behaves identically).
        let mut batch = std::mem::take(&mut self.batch);
        let prep = std::mem::take(&mut self.prepared);
        let mut actions = std::mem::take(&mut self.actions);
        let mut live_new: Vec<AlertId> = Vec::new();
        let mut mitigate_ns = 0u64;
        let mut resolve_ns = 0u64;
        for (i, event) in batch.iter().enumerate() {
            actions.clear();
            self.events_delivered += 1;
            let (new_alert, mit_ns) = self.detect_and_arm(
                event,
                Some(prep[i]),
                controller,
                helper_controllers,
                &mut actions,
            );
            mitigate_ns += mit_ns;
            if let Some(id) = new_alert {
                live_new.push(id);
            }

            // Monitors born earlier in this batch could not be
            // pre-staged; they ingest inline (their count is bounded
            // by in-batch alerts, not registry size).
            let mut resolved_new: Vec<AlertId> = Vec::new();
            for id in &live_new {
                let Some(monitor) = self.monitors.get_mut(id) else {
                    continue;
                };
                if !monitor.is_relevant(event.prefix) {
                    continue;
                }
                monitor.ingest_routed(event);
                if self.mitigated.contains(id) && monitor.all_legitimate() {
                    resolved_new.push(*id);
                }
            }

            let scheduled = resolutions.remove(&i);
            if scheduled.is_some() || !resolved_new.is_empty() {
                let clock = Instant::now();
                let at = event.emitted_at;
                // Pre-existing alerts carry smaller ids than any alert
                // born in this batch, so scheduled-then-new preserves
                // the ascending order of the per-event path.
                if let Some(entries) = scheduled {
                    for (id, monitor) in entries {
                        self.detector.alerts_mut().mark_resolved(id, at);
                        self.log.push(IncidentEvent::Resolved { alert: id, at });
                        actions.push(AppAction::Resolved { alert: id, at });
                        self.monitor_index.remove(monitor.target(), id);
                        self.retired.insert(id, monitor.retire(at));
                    }
                }
                for id in resolved_new {
                    self.detector.alerts_mut().mark_resolved(id, at);
                    self.log.push(IncidentEvent::Resolved { alert: id, at });
                    actions.push(AppAction::Resolved { alert: id, at });
                    self.retire_monitor(id, at);
                    live_new.retain(|x| *x != id);
                }
                resolve_ns += u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        }
        // Clearing frees every event's collector name and AS path: part
        // of the commit stage's cost, so it runs before the timer stops.
        batch.clear();
        actions.clear();
        let t5 = Instant::now();

        let m = &mut self.stage_metrics;
        m.drain.record(delivered, t1 - t0);
        m.drain_seal.record(
            delivered,
            std::time::Duration::from_nanos(drain_split.seal_nanos),
        );
        m.drain_merge.record(
            delivered,
            std::time::Duration::from_nanos(drain_split.merge_nanos),
        );
        m.classify.record(delivered, t2 - t1);
        m.classify_snapshot.record(delivered, t_snapshot - t1);
        m.classify_prepare.record(delivered, t2 - t_snapshot);
        m.commit.record(delivered, t5 - t2);
        m.monitor_route.record(delivered, t3 - t2);
        m.monitor_ingest.record(delivered, t4 - t3);
        let walk_ns = u64::try_from((t5 - t4).as_nanos()).unwrap_or(u64::MAX);
        let detect_ns = walk_ns.saturating_sub(mitigate_ns + resolve_ns);
        m.detect
            .record(delivered, std::time::Duration::from_nanos(detect_ns));
        m.resolve
            .record(delivered, std::time::Duration::from_nanos(resolve_ns));
        m.mitigate
            .record(delivered, std::time::Duration::from_nanos(mitigate_ns));

        self.actions = actions;
        self.batch = batch;
        self.prepared = prep;
        delivered
    }

    /// Shared tail of the auto/confirm/resume execution paths for a
    /// plan that was computed earlier and held.
    fn execute_held_plan(
        &mut self,
        id: AlertId,
        plan: MitigationPlan,
        now: SimTime,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
    ) {
        for p in &plan.announce {
            self.detector.expect_announcement(*p);
        }
        // A Squatting plan announces the dormant prefix itself: from
        // now on it is active, and the echo of our own announcement
        // must classify under normal rules.
        let squat_target = self
            .detector
            .alerts()
            .get(id)
            .filter(|a| a.hijack_type == crate::classify::HijackType::Squatting)
            .map(|a| a.owned_prefix);
        if let Some(prefix) = squat_target {
            self.detector.activate_prefix(prefix);
        }
        self.mitigator
            .execute(&plan, now, controller, helper_controllers);
        self.detector.alerts_mut().mark_mitigating(id, now);
        self.mitigated.insert(id);
        self.executed_plans.insert(id, plan.clone());
        self.log.push(IncidentEvent::MitigationTriggered {
            alert: id,
            plan,
            at: now,
        });
    }

    /// Drive the four interleaved clock domains — BGP engine,
    /// controller installs, pull-feed polls, batched feed deliveries —
    /// from `start` until `horizon`, everything drains, or the
    /// observer breaks.
    ///
    /// Tie-break at equal instants (deterministic, and identical to
    /// the historical experiment loop): engine first so RIB views are
    /// current, then controller installs, then polls, then feed
    /// deliveries. Feed events due at the same instant are delivered
    /// as one batch in `(emitted_at, ingestion order)`.
    ///
    /// The observer sees every [`AppAction`] and every applied
    /// controller intent, together with the engine (for ground-truth
    /// measurements); returning [`ControlFlow::Break`] stops the run.
    pub fn run<F>(
        &mut self,
        engine: &mut Engine,
        controller: &mut Controller,
        start: SimTime,
        horizon: SimTime,
        observer: F,
    ) -> RunReport
    where
        F: FnMut(&mut Engine, PipelineEvent<'_>) -> ControlFlow<()>,
    {
        self.run_with_helpers(engine, controller, &mut [], start, horizon, observer)
    }

    /// [`Pipeline::run`] with helper-AS controllers: mitigation plans
    /// that outsource co-announcements reach the helpers, and the
    /// helpers' install queues participate in the controller clock
    /// domain (the operator's controller installs first at equal
    /// instants, then helpers in order).
    pub fn run_with_helpers<F>(
        &mut self,
        engine: &mut Engine,
        controller: &mut Controller,
        helper_controllers: &mut [Controller],
        start: SimTime,
        horizon: SimTime,
        mut observer: F,
    ) -> RunReport
    where
        F: FnMut(&mut Engine, PipelineEvent<'_>) -> ControlFlow<()>,
    {
        let delivered_before = self.events_delivered;
        let mut now = start;
        let end = loop {
            if now > horizon {
                break RunEnd::Horizon;
            }
            // Candidate times across the four clock domains.
            let t_engine = engine.next_event_time();
            let t_feed = self.hub.next_emission();
            let t_poll = self.hub.next_poll(now);
            let t_ctrl = std::iter::once(controller.next_action_time())
                .chain(helper_controllers.iter().map(|h| h.next_action_time()))
                .flatten()
                .min();
            let candidates = [t_engine, t_feed, t_ctrl, t_poll];
            let Some(next) = candidates.iter().flatten().min().copied() else {
                break RunEnd::Drained;
            };
            if next > horizon {
                break RunEnd::Horizon;
            }
            now = next;

            if t_engine == Some(next) {
                // Engine first at equal times so RIB views are current.
                if let Some(changes) = engine.step() {
                    self.hub.ingest_route_changes(&changes);
                }
                continue;
            }
            if t_ctrl == Some(next) {
                // Apply every due intent to the engine *before* the
                // observer runs: `due_actions` already removed them
                // from the controller's queue, so an early Break must
                // not lose installs. (The announcements only enter
                // RIBs when the engine processes them, so ground-truth
                // reads in the observer are unaffected.)
                let mut due = controller.due_actions(next);
                for helper in helper_controllers.iter_mut() {
                    due.extend(helper.due_actions(next));
                }
                for action in &due {
                    match action.kind {
                        IntentKind::Announce => {
                            engine.announce_at(action.origin_as, action.prefix, next);
                        }
                        IntentKind::Withdraw => {
                            engine.withdraw_at(action.origin_as, action.prefix, next);
                        }
                    }
                }
                let mut stopped = false;
                for action in &due {
                    self.log.push(IncidentEvent::ControllerApplied {
                        kind: action.kind,
                        prefix: action.prefix,
                        at: next,
                    });
                    let flow = observer(
                        engine,
                        PipelineEvent::ControllerApplied {
                            kind: action.kind,
                            prefix: action.prefix,
                            at: next,
                        },
                    );
                    if flow.is_break() {
                        stopped = true;
                        break;
                    }
                }
                if stopped {
                    break RunEnd::Stopped;
                }
                continue;
            }
            if t_poll == Some(next) {
                let view = EngineView(engine);
                self.hub.poll_and_queue(next, &view);
                continue;
            }

            // Otherwise: deliver the batch of feed events due now, one
            // by one in `(emitted_at, ingestion order)`; each event is
            // classified as it commits.
            self.apply_peer_downs(next);
            let t0 = std::time::Instant::now();
            self.hub.drain_batch(next, &mut self.batch);
            let drained = self.batch.len() as u64;
            let t1 = std::time::Instant::now();
            let mut batch = std::mem::take(&mut self.batch);
            let mut actions = std::mem::take(&mut self.actions);
            let mut stopped_at: Option<usize> = None;
            'events: for (i, event) in batch.iter().enumerate() {
                self.deliver_impl(event, controller, helper_controllers, &mut actions);
                for action in &actions {
                    if observer(engine, PipelineEvent::App(action)).is_break() {
                        stopped_at = Some(i);
                        break 'events;
                    }
                }
            }
            if drained > 0 {
                let t2 = std::time::Instant::now();
                self.stage_metrics.drain.record(drained, t1 - t0);
                self.stage_metrics.commit.record(drained, t2 - t1);
            }
            if let Some(i) = stopped_at {
                // Hand undelivered events back to the hub so a later
                // `run` resumes without losing them.
                self.hub.requeue(batch.drain(i + 1..));
            }
            batch.clear();
            actions.clear();
            self.batch = batch;
            self.actions = actions;
            if stopped_at.is_some() {
                break RunEnd::Stopped;
            }
        };
        RunReport {
            ended_at: now,
            end,
            events_delivered: self.events_delivered - delivered_before,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::AlertState;
    use crate::config::OwnedPrefix;
    use crate::event_log::EventCursor;
    use artemis_bgp::AsPath;
    use artemis_feeds::FeedKind;
    use artemis_simnet::LatencyModel;
    use std::str::FromStr;

    fn pfx(s: &str) -> Prefix {
        Prefix::from_str(s).unwrap()
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

    fn two_prefix_pipeline() -> Pipeline {
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![
                OwnedPrefix::new(pfx("10.0.0.0/23"), Asn(65001)),
                OwnedPrefix::new(pfx("172.16.0.0/23"), Asn(65001)),
            ],
        );
        Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect())
    }

    fn controller() -> Controller {
        Controller::new(Asn(65001), LatencyModel::const_secs(15), SimRng::new(1))
    }

    /// Minimal wire-feed stand-in: contributes no events, only queued
    /// `peer_down` signals.
    struct PeerDownFeed {
        downs: Vec<Asn>,
    }

    impl artemis_feeds::FeedSource for PeerDownFeed {
        fn kind(&self) -> FeedKind {
            FeedKind::BmpLive
        }
        fn name(&self) -> &str {
            "stub-bmp"
        }
        fn on_route_change_into(
            &mut self,
            _change: &artemis_bgpsim::RouteChange,
            _rng: &mut SimRng,
            _out: &mut Vec<FeedEvent>,
        ) {
        }
        fn next_poll(&self, _now: SimTime) -> Option<SimTime> {
            None
        }
        fn poll(
            &mut self,
            _at: SimTime,
            _view: &dyn artemis_feeds::RibView,
            _rng: &mut SimRng,
        ) -> Vec<FeedEvent> {
            Vec::new()
        }
        fn events_emitted(&self) -> u64 {
            0
        }
        fn take_peer_downs(&mut self) -> Vec<Asn> {
            std::mem::take(&mut self.downs)
        }
    }

    #[test]
    fn peer_down_purges_vantage_from_live_monitors() {
        use crate::monitor::VpState;
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(alert) = acts[0] else {
            panic!("hijack must alert");
        };
        assert_eq!(
            p.monitor_for(alert).unwrap().vp_state(Asn(174)),
            VpState::Hijacked
        );

        p.hub_mut().add(Box::new(PeerDownFeed {
            downs: vec![Asn(174)],
        }));
        let purged = p.apply_peer_downs(SimTime::from_secs(50));
        assert_eq!(purged, 1, "one (peer, monitor) purge");
        assert_eq!(
            p.monitor_for(alert).unwrap().vp_state(Asn(174)),
            VpState::Unknown,
            "the downed peer's routes are gone from the per-VP view"
        );
        assert_eq!(
            p.apply_peer_downs(SimTime::from_secs(51)),
            0,
            "the signal drains on first application"
        );
    }

    #[test]
    fn concurrent_incidents_on_distinct_prefixes_are_independent() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();

        // Two overlapping hijacks on different owned prefixes.
        let acts1 = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        let acts2 = p.deliver(
            &event(3356, "172.16.0.0/23", &[3356, 667], 50),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(a1) = acts1[0] else {
            panic!("first hijack must alert");
        };
        let AppAction::AlertRaised(a2) = acts2[0] else {
            panic!("second hijack must alert");
        };
        assert_ne!(a1, a2);
        assert_eq!(p.detector().shard_events(pfx("10.0.0.0/23")), Some(1));
        assert_eq!(p.detector().shard_events(pfx("172.16.0.0/23")), Some(1));

        // Both mitigations triggered independently (4 intents: 2 × /24s).
        assert_eq!(ctrl.intents().count(), 4);
        assert_eq!(p.monitors().count(), 2);

        // Resolve incident 2 first; incident 1 stays active. The
        // monitor judges the hijacked vantage by LPM, so the echoed
        // mitigation /24 flips it back.
        let acts = p.deliver(
            &event(3356, "172.16.0.0/24", &[3356, 65001], 80),
            &mut ctrl,
            &mut [],
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, AppAction::Resolved { alert, at }
                    if *alert == a2 && *at == SimTime::from_secs(80))),
            "incident on 172.16.0.0/23 resolves alone: {acts:?}"
        );
        let alert1 = p.detector().alerts().get(a1).unwrap();
        assert_ne!(alert1.state, AlertState::Resolved);

        // Now resolve incident 1, on its own timeline.
        let acts = p.deliver(
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
            &mut [],
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, AppAction::Resolved { alert, at }
                if *alert == a1 && *at == SimTime::from_secs(120))));

        // Independent timelines on independent monitors. Both
        // incidents are over, so their monitors retired into compact
        // records; live monitors are gone.
        assert!(p.monitor_for(a1).is_none());
        assert!(p.monitor_for(a2).is_none());
        let t1 = p.retired_monitor(a1).unwrap();
        let t2 = p.retired_monitor(a2).unwrap();
        assert_eq!(t1.target(), pfx("10.0.0.0/23"));
        assert_eq!(t2.target(), pfx("172.16.0.0/23"));
        assert!(!t1.timeline().is_empty());
        assert!(!t2.timeline().is_empty());
        assert_eq!(t1.final_point().hijacked, 0);
        assert_eq!(p.retired_count(), 2);
    }

    #[test]
    fn squatting_mitigation_echo_does_not_realert() {
        // Regression: the echo of a Squatting mitigation's own
        // announcement used to re-enter detection and raise/update a
        // squatting alert against ourselves.
        let config = ArtemisConfig::new(
            Asn(65001),
            vec![OwnedPrefix::new(pfx("203.0.113.0/24"), Asn(65001)).dormant()],
        );
        let mut p = Pipeline::bare(config, [Asn(174), Asn(3356)].into_iter().collect());
        let mut ctrl = controller();

        // Attacker squats the dormant prefix → alert + mitigation
        // (announce the prefix ourselves).
        let acts = p.deliver(
            &event(174, "203.0.113.0/24", &[174, 31337], 45),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(alert) = acts[0] else {
            panic!("squat must alert, got {acts:?}");
        };
        assert!(matches!(
            &acts[1],
            AppAction::MitigationTriggered { plan, .. }
                if plan.announce == vec![pfx("203.0.113.0/24")]
        ));

        // Our own announcement echoes back through the feeds: no new
        // alert, and the vantage point flipping to the legitimate
        // origin resolves the incident.
        let acts = p.deliver(
            &event(174, "203.0.113.0/24", &[174, 65001], 80),
            &mut ctrl,
            &mut [],
        );
        assert!(
            acts.iter().all(|a| !matches!(a, AppAction::AlertRaised(_))),
            "echo must not self-alert: {acts:?}"
        );
        assert!(
            acts.iter()
                .any(|a| matches!(a, AppAction::Resolved { alert: a2, .. } if *a2 == alert)),
            "legitimate echo resolves the squat: {acts:?}"
        );
        assert_eq!(p.detector().alerts().all().len(), 1, "exactly one alert");
    }

    #[test]
    fn bare_pipeline_has_empty_hub() {
        let p = two_prefix_pipeline();
        assert!(p.hub().is_empty());
        assert_eq!(p.next_feed_time(), None);
        assert_eq!(p.events_delivered(), 0);
    }

    #[test]
    fn confirm_first_policy_holds_the_plan_until_confirmed() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        assert!(p.set_mitigation_policy(
            pfx("10.0.0.0/23"),
            MitigationPolicy::ConfirmFirst,
            SimTime::from_secs(1),
        ));

        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(id) = acts[0] else {
            panic!("must alert");
        };
        assert!(
            matches!(&acts[1], AppAction::MitigationPending { alert, .. } if *alert == id),
            "plan held, not executed: {acts:?}"
        );
        assert_eq!(ctrl.intents().count(), 0, "no intents before confirmation");
        assert_eq!(p.pending_mitigations().count(), 1);

        // More witnesses update the alert but cannot resolve anything
        // yet (nothing is mitigated).
        let acts = p.deliver(
            &event(3356, "10.0.0.0/23", &[3356, 666], 60),
            &mut ctrl,
            &mut [],
        );
        assert!(acts
            .iter()
            .all(|a| !matches!(a, AppAction::Resolved { .. })));
        assert_eq!(p.pending_mitigations().count(), 1, "still one held plan");

        // Operator confirms: the held plan executes verbatim.
        let plan = p
            .confirm_mitigation(id, SimTime::from_secs(70), &mut ctrl, &mut [])
            .expect("plan was pending");
        assert_eq!(plan.announce, vec![pfx("10.0.0.0/24"), pfx("10.0.1.0/24")]);
        assert_eq!(ctrl.intents().count(), 2);
        assert_eq!(p.pending_mitigations().count(), 0);
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Mitigating
        );
        assert!(
            p.confirm_mitigation(id, SimTime::from_secs(71), &mut ctrl, &mut [])
                .is_none(),
            "double-confirm is a no-op"
        );

        // Now recovery resolves the incident as usual once every
        // witnessing vantage point flips back.
        p.deliver(
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
            &mut [],
        );
        let acts = p.deliver(
            &event(3356, "10.0.0.0/24", &[3356, 65001], 121),
            &mut ctrl,
            &mut [],
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, AppAction::Resolved { alert, .. } if *alert == id)));
    }

    #[test]
    fn pause_holds_auto_plans_and_resume_executes_them() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        p.pause_mitigation(SimTime::from_secs(10));
        assert!(p.mitigation_paused());

        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(id) = acts[0] else {
            panic!("detection keeps running while paused");
        };
        assert!(matches!(&acts[1], AppAction::MitigationPending { .. }));
        assert_eq!(ctrl.intents().count(), 0);

        let executed = p.resume_mitigation(SimTime::from_secs(90), &mut ctrl, &mut []);
        assert_eq!(executed, vec![id]);
        assert!(!p.mitigation_paused());
        assert_eq!(ctrl.intents().count(), 2, "held plan executed on resume");
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Mitigating
        );
        assert!(
            p.resume_mitigation(SimTime::from_secs(91), &mut ctrl, &mut [])
                .is_empty(),
            "resume is idempotent"
        );
    }

    #[test]
    fn detect_only_policy_never_computes_a_plan() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        assert!(p.set_mitigation_policy(
            pfx("10.0.0.0/23"),
            MitigationPolicy::DetectOnly,
            SimTime::ZERO,
        ));
        // Unknown prefixes are rejected.
        assert!(!p.set_mitigation_policy(pfx("8.8.8.0/24"), MitigationPolicy::Auto, SimTime::ZERO,));

        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        assert_eq!(acts.len(), 1, "alert only: {acts:?}");
        assert_eq!(ctrl.intents().count(), 0);
        assert_eq!(p.pending_mitigations().count(), 0);

        // The second prefix still mitigates automatically.
        let acts = p.deliver(
            &event(174, "172.16.0.0/23", &[174, 666], 50),
            &mut ctrl,
            &mut [],
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, AppAction::MitigationTriggered { .. })));
    }

    #[test]
    fn onboard_offboard_roundtrip_with_active_incident() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();

        // Onboard a third prefix mid-run…
        let onboarded = p.add_owned_prefix(
            OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(65001)),
            Some(MitigationPolicy::DetectOnly),
            SimTime::from_secs(5),
        );
        assert!(onboarded);
        assert!(!p.add_owned_prefix(
            OwnedPrefix::new(pfx("192.0.2.0/24"), Asn(65001)),
            None,
            SimTime::from_secs(6),
        ));
        assert_eq!(p.detector().shard_count(), 3);
        assert_eq!(
            p.mitigation_policy(pfx("192.0.2.0/24")),
            MitigationPolicy::DetectOnly
        );

        // …hijack the first prefix (auto-mitigates: 2 announce intents)…
        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(id) = acts[0] else {
            panic!("must alert");
        };
        assert_eq!(ctrl.intents().count(), 2);

        // …then offboard it while the incident is still active.
        let report = p
            .remove_owned_prefix(
                pfx("10.0.0.0/23"),
                SimTime::from_secs(60),
                &mut ctrl,
                &mut [],
            )
            .expect("prefix configured");
        assert_eq!(report.closed_alerts, vec![id]);
        assert_eq!(report.withdrawn_plans, 1);
        assert_eq!(report.shard_events, 1);
        assert!(p
            .remove_owned_prefix(
                pfx("10.0.0.0/23"),
                SimTime::from_secs(61),
                &mut ctrl,
                &mut []
            )
            .is_none());

        // The alert is closed, its monitor frozen, and every announce
        // intent has a matching withdraw — nothing orphaned.
        assert_eq!(
            p.detector().alerts().get(id).unwrap().state,
            AlertState::Resolved
        );
        let announces = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Announce)
            .count();
        let withdraws = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Withdraw)
            .count();
        assert_eq!(announces, withdraws, "offboard must not orphan intents");

        // Events for the offboarded space are no longer ours.
        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 667], 70),
            &mut ctrl,
            &mut [],
        );
        assert!(acts.is_empty());
        // The retired record froze at close time and ignored the new
        // event.
        assert!(p.monitor_for(id).is_none());
        let monitor = p.retired_monitor(id).expect("kept for reporting");
        let last = monitor.timeline().last().map(|t| t.time);
        assert!(last.is_none_or(|t| t < SimTime::from_secs(70)));
    }

    #[test]
    fn offboard_after_natural_resolution_still_withdraws_the_plan() {
        // A resolved incident keeps its de-aggregated announcements
        // installed by design; offboarding the prefix must withdraw
        // them anyway, or the operator keeps originating space it no
        // longer owns.
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        let acts = p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        let AppAction::AlertRaised(id) = acts[0] else {
            panic!("must alert");
        };
        // The mitigation /24 echo resolves the incident naturally.
        let acts = p.deliver(
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
            &mut [],
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, AppAction::Resolved { alert, .. } if *alert == id)));

        let report = p
            .remove_owned_prefix(
                pfx("10.0.0.0/23"),
                SimTime::from_secs(200),
                &mut ctrl,
                &mut [],
            )
            .expect("prefix configured");
        assert!(report.closed_alerts.is_empty(), "nothing was still open");
        assert_eq!(report.withdrawn_plans, 1, "resolved plan still withdrawn");
        let announces = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Announce)
            .count();
        let withdraws = ctrl
            .intents()
            .filter(|i| i.kind == IntentKind::Withdraw)
            .count();
        assert_eq!(announces, withdraws, "no intent keeps originating");
        assert!(p.executed_plan(id).is_none(), "plan bookkeeping cleared");
    }

    // ---- Batched delivery -------------------------------------------

    /// A hub-backed pipeline over several owned prefixes, fed with a
    /// deterministic mix of benign, hijack and mitigation-echo
    /// traffic.
    fn hub_pipeline(workers: usize) -> (Pipeline, Controller) {
        use artemis_feeds::vantage::group_into_collectors;
        use artemis_feeds::StreamFeed;
        let vps = vec![Asn(174), Asn(3356)];
        let mut hub = FeedHub::new(SimRng::new(11));
        hub.add(Box::new(
            StreamFeed::ris_live(group_into_collectors("rrc", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(3)),
        ));
        hub.add(Box::new(
            StreamFeed::bgpmon(group_into_collectors("bmon", &vps, 1))
                .with_export_delay(artemis_simnet::LatencyModel::const_secs(9)),
        ));
        let config = ArtemisConfig::new(
            Asn(65001),
            (0..8u32)
                .map(|i| {
                    OwnedPrefix::new(
                        Prefix::v4(std::net::Ipv4Addr::new(10, i as u8, 0, 0), 23).unwrap(),
                        Asn(65001),
                    )
                })
                .collect(),
        );
        let p = Pipeline::new(hub, config, [Asn(174), Asn(3356)].into_iter().collect())
            .with_pipeline_config(PipelineConfig { workers });
        (p, controller())
    }

    fn synthetic_changes(n: u64) -> Vec<artemis_bgpsim::RouteChange> {
        use artemis_bgp::AsPath;
        use artemis_bgpsim::BestRoute;
        (0..n)
            .map(|i| {
                // Mostly unrelated prefixes, periodic touches of owned
                // space, periodic hijack origins.
                let prefix = if i % 5 == 0 {
                    Prefix::v4(std::net::Ipv4Addr::new(10, (i % 8) as u8, 0, 0), 23).unwrap()
                } else {
                    Prefix::v4(std::net::Ipv4Addr::from((i as u32) << 8), 24).unwrap()
                };
                let origin = if i % 7 == 0 { 666 } else { 65001 };
                let path = AsPath::from_sequence([3356u32, origin]);
                artemis_bgpsim::RouteChange {
                    time: SimTime::from_micros(i * 50),
                    asn: if i % 2 == 0 { Asn(174) } else { Asn(3356) },
                    prefix,
                    old: None,
                    new: Some(BestRoute {
                        origin_as: path.origin().unwrap(),
                        as_path: path,
                        neighbor: Some(Asn(3356)),
                        learned_from: Some(artemis_topology::RelKind::Provider),
                        local_pref: 100,
                    }),
                }
            })
            .collect()
    }

    #[test]
    fn deliver_due_is_equivalent_to_per_event_delivery() {
        let changes = synthetic_changes(40);
        // Reference: drain by hand, deliver one event at a time.
        let (mut a, mut ctrl_a) = hub_pipeline(1);
        a.ingest_route_changes(&changes);
        let mut buf = Vec::new();
        a.hub_mut()
            .drain_batch(SimTime::from_secs(1 << 30), &mut buf);
        for ev in &buf {
            a.deliver(ev, &mut ctrl_a, &mut []);
        }
        // Bulk path.
        let (mut b, mut ctrl_b) = hub_pipeline(1);
        b.ingest_route_changes(&changes);
        b.deliver_due(SimTime::from_secs(1 << 30), &mut ctrl_b, &mut []);
        assert_eq!(a.detector().alerts().all(), b.detector().alerts().all());
        assert_eq!(
            a.poll_events(EventCursor::START).events,
            b.poll_events(EventCursor::START).events
        );
    }

    #[test]
    fn event_log_mirrors_the_lifecycle_for_independent_cursors() {
        let mut p = two_prefix_pipeline();
        let mut ctrl = controller();
        p.deliver(
            &event(174, "10.0.0.0/23", &[174, 666], 45),
            &mut ctrl,
            &mut [],
        );
        p.deliver(
            &event(174, "10.0.0.0/24", &[174, 65001], 120),
            &mut ctrl,
            &mut [],
        );
        let batch = p.poll_events(EventCursor::START);
        let kinds: Vec<&'static str> = batch
            .events
            .iter()
            .map(|e| match e {
                IncidentEvent::AlertRaised { .. } => "alert",
                IncidentEvent::MitigationTriggered { .. } => "mitigate",
                IncidentEvent::Resolved { .. } => "resolve",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["alert", "mitigate", "resolve"]);

        // A second cursor polled later sees the identical history.
        let batch2 = p.poll_events(EventCursor::START);
        assert_eq!(batch.events, batch2.events);
        // And an incremental cursor sees nothing new.
        assert!(p.poll_events(batch.next).events.is_empty());
    }
}
