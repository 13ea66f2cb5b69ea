//! The edge tier: N [`ServingRuntime`] replicas behind placement, live
//! handoff and bounded re-dispatch.
//!
//! Every device reaches the edge through an `EdgeFleet` (via
//! [`crate::edge::SharedEdge`]). The paper's single edge is a one-replica
//! fleet under [`ServingConfig::serial_fifo`]: with one edge, placement
//! always picks it, nothing hands off, and a crash-lost request has no
//! other replica to go to, so the fleet computes exactly what the bare
//! runtime does (a property test below holds the two equal). More
//! replicas add what one edge cannot do — survive its own crash:
//!
//! 1. **Placement** — rendezvous (highest-random-weight) hashing gives
//!    every device a deterministic home edge and a deterministic failover
//!    order ([`rendezvous_rank`]); the optional load-aware policy
//!    overrides home when its backlog exceeds a horizon.
//! 2. **Live handoff** — a device is steered to the next ranked edge when
//!    its current edge is scripted down, or when its own resilience state
//!    machine reports an outage ([`EdgeFleet::report_health`]). Voluntary
//!    moves are cooldown-gated so placement flapping cannot thrash the
//!    warm state; crash-driven moves bypass the cooldown.
//! 3. **Warm/cold start** — the destination edge pays
//!    [`ServingConfig::residency_transfer_ms`] for its new tenant (the
//!    fleet marks the device cold there on every handoff), modeling model
//!    residency/state transfer.
//! 4. **Bounded re-dispatch** — a request lost to a crash (detected by
//!    the runtime's crash-loss counter advancing) is re-dispatched to the
//!    next alive ranked edge up to `max_redispatch` times, as a frontend
//!    that still holds the request buffer would. Exhausted re-dispatch
//!    degrades to a lost request: the mobile deadline reaps it and MAMT
//!    coasts, as on a single edge.
//!
//! All of it runs on the virtual clock and is bit-deterministic: edges
//! are *replicas* (same model seed, same base seed), so a response's
//! payload depends only on `(obs, guidance, device, seq)` — never on
//! which edge served it. Faults come from the purely deterministic
//! [`EdgeFaultScript`], which is also what the chaos checker reasons
//! about when deciding which edges were clean.

use crate::edge::{EdgeFaultConfig, PendingResponse};
use crate::serving::{ServingConfig, ServingRuntime, ServingStats};
use crate::system::LinkHealth;
use crate::wire::ENVELOPE_LEN;
use edgeis_netsim::{EdgeFaultScript, Link, SimMs};
use edgeis_segnet::{EdgeModel, FrameObservation, Guidance, ModelKind};
use edgeis_telemetry::{ArgValue, BurnTracker, Gauge, Telemetry};
use std::collections::BTreeMap;

/// How the fleet picks an edge for a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// Pure rendezvous hashing: a device sticks to its home edge unless
    /// the home is down (or its own outage steers it away). The only
    /// policy whose placement is independent of cross-edge timing, hence
    /// the one chaos-differential runs use.
    #[default]
    ConsistentHash,
    /// Rendezvous default with a load-aware override: when the target's
    /// backlog for this device exceeds `overload_horizon_ms`, the request
    /// goes to the least-loaded alive edge instead (ties broken in
    /// rendezvous order).
    LoadAware,
}

impl PlacementPolicy {
    /// Canonical lowercase name for reports and bench JSON.
    pub fn as_str(&self) -> &'static str {
        match self {
            PlacementPolicy::ConsistentHash => "consistent_hash",
            PlacementPolicy::LoadAware => "load_aware",
        }
    }
}

/// Fleet-tier knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Edge replicas in the fleet.
    pub edges: usize,
    /// Per-edge serving configuration (every replica gets a copy).
    pub serving: ServingConfig,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Scripted per-edge faults (crash / warm crash / brownout windows).
    pub script: EdgeFaultScript,
    /// Master failover switch. Off = the no-failover baseline: devices
    /// stay pinned to their home edge no matter what, requests to a dead
    /// edge are simply lost.
    pub failover_enabled: bool,
    /// Minimum spacing of *voluntary* handoffs per device, ms (crash
    /// evacuations bypass it).
    pub handoff_cooldown_ms: f64,
    /// Crash-lost requests are re-dispatched to the next ranked alive
    /// edge at most this many times.
    pub max_redispatch: u32,
    /// Load-aware policy: backlog beyond this horizon triggers the
    /// least-loaded override, ms.
    pub overload_horizon_ms: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            edges: 3,
            serving: ServingConfig::default(),
            placement: PlacementPolicy::ConsistentHash,
            script: EdgeFaultScript::new(),
            failover_enabled: true,
            handoff_cooldown_ms: 250.0,
            max_redispatch: 2,
            overload_horizon_ms: 400.0,
        }
    }
}

impl FleetConfig {
    /// A one-replica fleet serving under `serving`: the single edge of
    /// `EdgeIsSystem::new` and of a multi-device run without a fleet.
    pub fn one_edge(serving: ServingConfig) -> Self {
        Self {
            edges: 1,
            serving,
            ..Self::default()
        }
    }
}

/// One recorded device→edge move.
#[derive(Debug, Clone, PartialEq)]
pub struct HandoffRecord {
    /// The device that moved.
    pub device: u64,
    /// Edge it left.
    pub from: usize,
    /// Edge it landed on.
    pub to: usize,
    /// Virtual time of the move, ms.
    pub at_ms: SimMs,
    /// Why: `edge_crash`, `outage_steer`, `redispatch`, `rebalance`.
    pub reason: &'static str,
}

/// Fleet-level accounting (on top of the per-edge [`ServingStats`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetStats {
    /// Device→edge moves (all reasons, including re-dispatch moves).
    pub handoffs: u64,
    /// Crash-lost requests re-dispatched to another edge.
    pub redispatches: u64,
    /// Crash-lost requests dropped after exhausting re-dispatch.
    pub redispatch_drops: u64,
    /// Invariant self-check: responses produced by an edge the script
    /// says was dead at arrival. Must stay 0 — the chaos sweep asserts it.
    pub dead_edge_responses: u64,
    /// Served (non-shed) responses per edge.
    pub per_edge_served: Vec<u64>,
    /// Every handoff, in order.
    pub handoff_log: Vec<HandoffRecord>,
}

/// Salt folded into the rendezvous hash so fleet placement is not
/// correlated with any other FNV use of (device, edge) words.
const RENDEZVOUS_SALT: u64 = 0x5eed_f1ee_7b1e_55ed;

/// Rendezvous (highest-random-weight) ranking of `edges` for a device:
/// `rank[0]` is the home edge, `rank[1]` the first failover target, and
/// so on. Deterministic, uniform, and minimally disruptive — removing an
/// edge only moves the devices that were homed on it.
pub fn rendezvous_rank(device: u64, edges: usize) -> Vec<usize> {
    let mut scored: Vec<(u64, usize)> = (0..edges)
        .map(|e| {
            (
                crate::hash::fnv1a64_words([device, e as u64, RENDEZVOUS_SALT]),
                e,
            )
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, e)| e).collect()
}

/// N serving replicas behind a placement layer. Devices reach it through
/// a [`crate::edge::SharedEdge`], so `EdgeIsSystem` needs no
/// fleet-specific code beyond reporting its health transitions.
#[derive(Debug)]
pub struct EdgeFleet {
    config: FleetConfig,
    edges: Vec<ServingRuntime>,
    /// Where each device's requests currently go.
    assignment: BTreeMap<u64, usize>,
    /// Last handoff instant per device (voluntary-move cooldown).
    last_handoff_ms: BTreeMap<u64, SimMs>,
    /// Edge a device is steering away from after reporting an outage.
    avoid: BTreeMap<u64, usize>,
    stats: FleetStats,
    telemetry: Telemetry,
    /// Per-edge SLO burn tracker + fast-burn gauge (`None` while
    /// telemetry is off — pure observability, one branch when disabled).
    burn: Option<Vec<(BurnTracker, Gauge)>>,
}

impl EdgeFleet {
    /// Builds a fleet of identical replicas of one model. `model_seed`
    /// and `base_seed` are shared across edges on purpose: replicas of
    /// the same trained model must produce the same outputs, which is
    /// what makes a handoff invisible in payload bytes.
    pub fn new(
        kind: ModelKind,
        width: u32,
        height: u32,
        model_seed: u64,
        base_seed: u64,
        config: FleetConfig,
    ) -> Self {
        let n = config.edges.max(1);
        let edges: Vec<ServingRuntime> = (0..n)
            .map(|e| {
                let mut rt = ServingRuntime::new(
                    EdgeModel::new(kind, width, height, model_seed),
                    base_seed,
                    config.serving.clone(),
                );
                rt.set_faults(EdgeFaultConfig::from_script(&config.script, e));
                rt
            })
            .collect();
        Self {
            stats: FleetStats {
                per_edge_served: vec![0; n],
                ..FleetStats::default()
            },
            config,
            edges,
            assignment: BTreeMap::new(),
            last_handoff_ms: BTreeMap::new(),
            avoid: BTreeMap::new(),
            telemetry: Telemetry::disabled(),
            burn: None,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Fleet-level accounting so far.
    pub fn stats(&self) -> &FleetStats {
        &self.stats
    }

    /// Fleet-wide serving accounting (sum over edges).
    pub fn merged_serving_stats(&self) -> ServingStats {
        let mut total = ServingStats::default();
        for e in &self.edges {
            total.merge(e.stats());
        }
        total
    }

    /// The edge `device`'s requests currently go to (home if it never
    /// submitted yet).
    pub fn assigned_edge(&self, device: u64) -> usize {
        self.assignment
            .get(&device)
            .copied()
            .unwrap_or_else(|| rendezvous_rank(device, self.edges.len())[0])
    }

    /// Applies one fault config to every edge (the script in
    /// [`FleetConfig`] is the targeted alternative).
    pub fn set_faults_all(&mut self, faults: EdgeFaultConfig) {
        for e in &mut self.edges {
            e.set_faults(faults.clone());
        }
    }

    /// Installs a telemetry hub on the fleet and every edge.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for e in &mut self.edges {
            e.set_telemetry(telemetry.clone());
        }
        self.burn = match (telemetry.burn_config(), telemetry.registry()) {
            (Some(cfg), Some(registry)) => Some(
                (0..self.edges.len())
                    .map(|e| {
                        let label = e.to_string();
                        let gauge =
                            registry.gauge("edgeis_slo_burn_rate", &[("edge", label.as_str())]);
                        (BurnTracker::new(cfg.clone()), gauge)
                    })
                    .collect(),
            ),
            _ => None,
        };
        self.telemetry = telemetry;
    }

    /// Feeds one served/failed request into edge `edge`'s burn tracker:
    /// good = a non-shed response came back, bad = shed or crash-lost.
    /// Exports the fast-window burn as `edgeis_slo_burn_rate{edge=..}`
    /// and emits one edge-triggered `slo.burn` event per episode.
    fn observe_burn(&mut self, edge: usize, device: u64, now_ms: SimMs, good: bool) {
        let Some(burn) = &mut self.burn else {
            return;
        };
        let (tracker, gauge) = &mut burn[edge];
        let sample = tracker.observe(now_ms, good);
        gauge.set(sample.fast_burn);
        if sample.fired {
            self.telemetry.emit_event_current(
                "slo.burn",
                device,
                now_ms,
                vec![
                    ("edge", ArgValue::U64(edge as u64)),
                    ("fast_burn", ArgValue::F64(sample.fast_burn)),
                    ("slow_burn", ArgValue::F64(sample.slow_burn)),
                ],
            );
        }
    }

    /// When `device`'s lane on its current edge frees up (mobile-side
    /// backlog admission).
    pub fn busy_until_for(&self, device: u64) -> SimMs {
        self.edges[self.assigned_edge(device)].busy_until_for(device)
    }

    /// A device's resilience state machine moved: an outage steers it
    /// away from its current edge (the device cannot tell a dead link
    /// from a dead edge — trying the next replica costs one cooldown
    /// window and wins whenever the edge was the problem); a return to
    /// `Healthy` lets placement take it home again.
    pub fn report_health(&mut self, device: u64, health: LinkHealth, _now_ms: SimMs) {
        if !self.config.failover_enabled {
            return;
        }
        match health {
            LinkHealth::Outage => {
                let current = self.assigned_edge(device);
                self.avoid.insert(device, current);
            }
            LinkHealth::Healthy => {
                self.avoid.remove(&device);
            }
            LinkHealth::Degraded | LinkHealth::Recovering => {}
        }
    }

    /// The edge `device`'s next request should target at `now`, with the
    /// reason a move (if any) would carry.
    fn place(&self, device: u64, now: SimMs) -> (usize, &'static str) {
        let rank = rendezvous_rank(device, self.edges.len());
        if !self.config.failover_enabled {
            return (rank[0], "rebalance");
        }
        let avoid = self.avoid.get(&device).copied();
        let mut target = rank[0];
        let mut reason = "rebalance";
        if let Some(e) = rank
            .iter()
            .copied()
            .find(|&e| Some(e) != avoid && !self.config.script.crashed_at(e, now))
        {
            if e != rank[0] {
                reason = if self.config.script.crashed_at(rank[0], now) {
                    "edge_crash"
                } else {
                    "outage_steer"
                };
            }
            target = e;
        }
        if self.config.placement == PlacementPolicy::LoadAware {
            let backlog = self.edges[target].busy_until_for(device) - now;
            if backlog > self.config.overload_horizon_ms {
                let mut best = target;
                let mut best_busy = self.edges[target].busy_until_for(device);
                for &e in &rank {
                    if Some(e) == avoid || self.config.script.crashed_at(e, now) {
                        continue;
                    }
                    let busy = self.edges[e].busy_until_for(device);
                    if busy < best_busy - 1e-9 {
                        best = e;
                        best_busy = busy;
                    }
                }
                if best != target {
                    target = best;
                    reason = "rebalance";
                }
            }
        }
        (target, reason)
    }

    fn record_handoff(
        &mut self,
        device: u64,
        from: usize,
        to: usize,
        at_ms: SimMs,
        reason: &'static str,
    ) {
        self.stats.handoffs += 1;
        self.stats.handoff_log.push(HandoffRecord {
            device,
            from,
            to,
            at_ms,
            reason,
        });
        self.last_handoff_ms.insert(device, at_ms);
        self.assignment.insert(device, to);
        // The destination is cold for its new tenant: next request pays
        // the residency transfer, and no stale guidance entry survives
        // from an earlier stay.
        self.edges[to].mark_cold(device);
        if self.telemetry.is_enabled() {
            self.telemetry.emit_event_current(
                "fleet.handoff",
                device,
                at_ms,
                vec![
                    ("from", ArgValue::U64(from as u64)),
                    ("to", ArgValue::U64(to as u64)),
                    ("reason", ArgValue::Str(reason.to_string())),
                ],
            );
            // A handoff is a resilience incident worth forensics: dump
            // the device's recent span/event ring alongside it.
            self.telemetry.flight_dump(device, "handoff", at_ms);
        }
    }

    /// Submits a request from `device`, placing (and if needed moving) it
    /// first, re-dispatching on crash loss. Returns `None` when no
    /// response will ever reach the device.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_traced(
        &mut self,
        device: u64,
        frame_id: u64,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
        arrival_ms: SimMs,
        link: &mut Link,
        envelope: Option<[u8; ENVELOPE_LEN]>,
        tier_cap: Option<usize>,
    ) -> Option<PendingResponse> {
        let (target, reason) = self.place(device, arrival_ms);
        let edge = match self.assignment.get(&device).copied() {
            None => {
                self.assignment.insert(device, target);
                target
            }
            Some(current) if current == target => current,
            Some(current) => {
                let current_dead = self.config.script.crashed_at(current, arrival_ms);
                let cooled = arrival_ms
                    - self
                        .last_handoff_ms
                        .get(&device)
                        .copied()
                        .unwrap_or(f64::NEG_INFINITY)
                    >= self.config.handoff_cooldown_ms;
                if self.config.failover_enabled && (current_dead || cooled) {
                    let reason = if current_dead { "edge_crash" } else { reason };
                    self.record_handoff(device, current, target, arrival_ms, reason);
                    target
                } else {
                    current
                }
            }
        };

        let mut at_edge = edge;
        let mut tries = 0u32;
        loop {
            let losses_before = self.edges[at_edge].stats().crash_losses;
            let response = self.edges[at_edge].submit_traced(
                device, frame_id, obs, guidance, arrival_ms, link, envelope, tier_cap,
            );
            match response {
                Some(resp) => {
                    if self.config.script.crashed_at(at_edge, arrival_ms) {
                        // Should be unreachable: the runtime's own fault
                        // config refuses crashed arrivals. Counted (not
                        // panicked) so the chaos sweep can assert it.
                        self.stats.dead_edge_responses += 1;
                    }
                    if !resp.shed {
                        self.stats.per_edge_served[at_edge] += 1;
                    }
                    self.observe_burn(at_edge, device, arrival_ms, !resp.shed);
                    return Some(resp);
                }
                None => {
                    let crash_lost = self.edges[at_edge].stats().crash_losses > losses_before;
                    if !crash_lost {
                        // Downlink loss: the edge served fine, the link ate
                        // the response. Another edge cannot help — and the
                        // edge's own SLO is unharmed.
                        self.observe_burn(at_edge, device, arrival_ms, true);
                        return None;
                    }
                    // A crash-lost request burns this edge's budget.
                    self.observe_burn(at_edge, device, arrival_ms, false);
                    if !self.config.failover_enabled || tries >= self.config.max_redispatch {
                        if self.config.failover_enabled {
                            self.stats.redispatch_drops += 1;
                        }
                        return None;
                    }
                    // The frontend still holds the request buffer: evacuate
                    // to the next ranked alive edge and run it there.
                    let next = rendezvous_rank(device, self.edges.len())
                        .into_iter()
                        .find(|&e| e != at_edge && !self.config.script.crashed_at(e, arrival_ms));
                    match next {
                        None => {
                            self.stats.redispatch_drops += 1;
                            return None;
                        }
                        Some(e) => {
                            tries += 1;
                            self.stats.redispatches += 1;
                            self.record_handoff(device, at_edge, e, arrival_ms, "redispatch");
                            at_edge = e;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::tests::{clean_link, guidance, observation};
    use edgeis_rng::for_each_case;
    use edgeis_segnet::ZooConfig;

    fn fleet(config: FleetConfig) -> EdgeFleet {
        EdgeFleet::new(edgeis_segnet::ModelKind::MaskRcnn, 160, 120, 7, 42, config)
    }

    /// The fold behind [`crate::edge::SharedEdge`]: a one-replica fleet
    /// with the same model and base seeds computes exactly what a bare
    /// runtime does — every response and every serving counter — and
    /// never hands off. Each case draws a serving preset (serial FIFO,
    /// default, zoo with a tight admission deadline), an edge fault (none,
    /// a crash window, a brownout, a finite shed horizon) and 16 requests
    /// from 3 devices with random gaps, guidance and tier caps; the fleet
    /// also hears random health reports.
    #[test]
    fn one_replica_fleet_equals_a_bare_runtime() {
        let obs = observation();
        let guidance = guidance(50.0);
        for_each_case(|rng| {
            let serving = match rng.random_range(0..3u32) {
                0 => ServingConfig::serial_fifo(),
                1 => ServingConfig::default(),
                _ => ServingConfig {
                    zoo: Some(ZooConfig::standard()),
                    admission_deadline_ms: rng.random_range(60.0..300.0),
                    ..ServingConfig::default()
                },
            };
            let opens = rng.random_range(0.0..400.0);
            let faults = match rng.random_range(0..4u32) {
                0 => EdgeFaultConfig::default(),
                1 => EdgeFaultConfig {
                    crash_windows: vec![(opens, opens + rng.random_range(20.0..200.0))],
                    restart_ms: rng.random_range(0.0..100.0),
                    cold_restart: rng.random_bool(0.5),
                    ..Default::default()
                },
                2 => EdgeFaultConfig {
                    brownout_windows: vec![(opens, opens + 300.0, rng.random_range(1.5..4.0))],
                    ..Default::default()
                },
                _ => EdgeFaultConfig {
                    shed_queue_horizon_ms: rng.random_range(10.0..80.0),
                    ..Default::default()
                },
            };
            let model = EdgeModel::new(ModelKind::MaskRcnn, 160, 120, 7);
            let mut bare = ServingRuntime::new(model, 42, serving.clone());
            bare.set_faults(faults.clone());
            let mut one = fleet(FleetConfig::one_edge(serving));
            one.set_faults_all(faults);

            let link_seed = rng.random_range(0..1000u64);
            let mut links: Vec<(Link, Link)> = (0..3)
                .map(|d| (clean_link(link_seed + d), clean_link(link_seed + d)))
                .collect();
            let mut at = 0.0;
            for frame in 0..16u64 {
                at += rng.random_range(0.0..60.0);
                let device = rng.random_range(0..3u64);
                let guidance = rng.random_bool(0.5).then_some(&guidance);
                let tier_cap = rng.random_bool(0.2).then_some(0);
                if rng.random_bool(0.2) {
                    let health =
                        [LinkHealth::Outage, LinkHealth::Healthy][rng.random_range(0..2usize)];
                    one.report_health(device, health, at);
                }
                let (bare_link, fleet_link) = &mut links[device as usize];
                let expected = bare
                    .submit_traced(device, frame, &obs, guidance, at, bare_link, None, tier_cap);
                let got = one.submit_traced(
                    device, frame, &obs, guidance, at, fleet_link, None, tier_cap,
                );
                assert_eq!(got, expected, "request {frame} diverged");
            }
            assert_eq!(one.merged_serving_stats(), *bare.stats());
            assert_eq!(one.stats().handoffs, 0);
        });
    }

    #[test]
    fn rendezvous_rank_is_deterministic_and_complete() {
        for device in 0..32u64 {
            let rank = rendezvous_rank(device, 5);
            assert_eq!(rank.len(), 5);
            let mut sorted = rank.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "rank must be a permutation");
            assert_eq!(rank, rendezvous_rank(device, 5));
        }
        // Placement is reasonably balanced: with 64 devices over 4 edges
        // no edge should be empty or hold the majority.
        let mut counts = [0usize; 4];
        for device in 0..64u64 {
            counts[rendezvous_rank(device, 4)[0]] += 1;
        }
        for (e, &c) in counts.iter().enumerate() {
            assert!(c > 0, "edge {e} homed no devices");
            assert!(c < 40, "edge {e} homed {c}/64 devices");
        }
    }

    #[test]
    fn devices_stick_to_their_home_edge_when_healthy() {
        let mut f = fleet(FleetConfig {
            edges: 3,
            ..FleetConfig::default()
        });
        let obs = observation();
        for i in 0..4u64 {
            let at = i as f64 * 500.0;
            f.submit_traced(9, i, &obs, None, at, &mut clean_link(1), None, None)
                .unwrap();
        }
        let home = rendezvous_rank(9, 3)[0];
        assert_eq!(f.assigned_edge(9), home);
        assert_eq!(f.stats().handoffs, 0);
        assert_eq!(f.stats().per_edge_served[home], 4);
        assert_eq!(f.stats().dead_edge_responses, 0);
    }

    #[test]
    fn crash_evacuates_to_next_ranked_edge_and_redispatches() {
        let home = rendezvous_rank(9, 3)[0];
        let script = EdgeFaultScript::new().crash(home, 1000.0, 2000.0, 100.0);
        let mut f = fleet(FleetConfig {
            edges: 3,
            script,
            ..FleetConfig::default()
        });
        let obs = observation();
        // Healthy warm-up on the home edge.
        f.submit_traced(9, 0, &obs, None, 0.0, &mut clean_link(2), None, None)
            .unwrap();
        assert_eq!(f.assigned_edge(9), home);
        // A request inside the crash window is evacuated and still served.
        let resp = f
            .submit_traced(9, 1, &obs, None, 1500.0, &mut clean_link(2), None, None)
            .expect("failover must save the request");
        assert!(!resp.shed);
        let next = rendezvous_rank(9, 3)[1];
        assert_eq!(f.assigned_edge(9), next, "device must land on rank[1]");
        assert!(f.stats().handoffs >= 1);
        assert_eq!(f.stats().dead_edge_responses, 0);
        assert_eq!(f.stats().per_edge_served[next], 1);
    }

    #[test]
    fn no_failover_baseline_loses_crash_window_requests() {
        let home = rendezvous_rank(9, 3)[0];
        let script = EdgeFaultScript::new().crash(home, 1000.0, 2000.0, 100.0);
        let mut f = fleet(FleetConfig {
            edges: 3,
            script,
            failover_enabled: false,
            ..FleetConfig::default()
        });
        let obs = observation();
        f.submit_traced(9, 0, &obs, None, 0.0, &mut clean_link(3), None, None)
            .unwrap();
        assert!(
            f.submit_traced(9, 1, &obs, None, 1500.0, &mut clean_link(3), None, None)
                .is_none(),
            "no-failover baseline must lose the request"
        );
        assert_eq!(f.assigned_edge(9), home, "pinned despite the crash");
        assert_eq!(f.stats().handoffs, 0);
        assert!(f.merged_serving_stats().crash_losses >= 1);
    }

    #[test]
    fn handoff_payloads_match_home_edge_payloads() {
        // Replica determinism: the same request served by a failover edge
        // yields the same bytes the home edge would have produced.
        let home = rendezvous_rank(9, 2)[0];
        let script = EdgeFaultScript::new().crash(home, 1000.0, 2000.0, 50.0);
        let mut faulted = fleet(FleetConfig {
            edges: 2,
            script,
            ..FleetConfig::default()
        });
        let mut clean = fleet(FleetConfig {
            edges: 2,
            ..FleetConfig::default()
        });
        let obs = observation();
        let a = faulted
            .submit_traced(9, 0, &obs, None, 1500.0, &mut clean_link(4), None, None)
            .unwrap();
        let b = clean
            .submit_traced(9, 0, &obs, None, 1500.0, &mut clean_link(4), None, None)
            .unwrap();
        assert_eq!(a.payload, b.payload, "replicas must be output-identical");
        let away = rendezvous_rank(9, 2)[1];
        assert_eq!(faulted.assigned_edge(9), away, "served by the live replica");
    }

    #[test]
    fn outage_report_steers_and_recovery_returns_home() {
        let mut f = fleet(FleetConfig {
            edges: 3,
            handoff_cooldown_ms: 0.0,
            ..FleetConfig::default()
        });
        let obs = observation();
        let home = rendezvous_rank(9, 3)[0];
        f.submit_traced(9, 0, &obs, None, 0.0, &mut clean_link(5), None, None)
            .unwrap();
        // The device reports an outage: placement avoids its current edge.
        f.report_health(9, LinkHealth::Outage, 600.0);
        f.submit_traced(9, 1, &obs, None, 700.0, &mut clean_link(5), None, None)
            .unwrap();
        let away = f.assigned_edge(9);
        assert_ne!(away, home, "outage must steer the device off its edge");
        // Recovery clears the steer: the device goes home again.
        f.report_health(9, LinkHealth::Healthy, 1200.0);
        f.submit_traced(9, 2, &obs, None, 1300.0, &mut clean_link(5), None, None)
            .unwrap();
        assert_eq!(f.assigned_edge(9), home);
        assert!(f.stats().handoffs >= 2);
        let reasons: Vec<&str> = f.stats().handoff_log.iter().map(|h| h.reason).collect();
        assert!(reasons.contains(&"outage_steer"));
    }

    #[test]
    fn voluntary_handoffs_respect_the_cooldown() {
        let mut f = fleet(FleetConfig {
            edges: 3,
            handoff_cooldown_ms: 10_000.0,
            ..FleetConfig::default()
        });
        let obs = observation();
        let home = rendezvous_rank(9, 3)[0];
        f.submit_traced(9, 0, &obs, None, 0.0, &mut clean_link(6), None, None)
            .unwrap();
        f.report_health(9, LinkHealth::Outage, 500.0);
        f.submit_traced(9, 1, &obs, None, 600.0, &mut clean_link(6), None, None)
            .unwrap();
        assert_ne!(f.assigned_edge(9), home, "first steer is allowed");
        f.report_health(9, LinkHealth::Healthy, 900.0);
        // Going home is voluntary and inside the cooldown: held.
        f.submit_traced(9, 2, &obs, None, 1000.0, &mut clean_link(6), None, None)
            .unwrap();
        assert_ne!(f.assigned_edge(9), home, "cooldown must hold the return");
        assert_eq!(f.stats().handoffs, 1);
    }

    #[test]
    fn redispatch_is_bounded() {
        // Both edges crashed: re-dispatch must give up, not spin.
        let script = EdgeFaultScript::new()
            .crash(0, 1000.0, 2000.0, 50.0)
            .crash(1, 1000.0, 2000.0, 50.0);
        let mut f = fleet(FleetConfig {
            edges: 2,
            script,
            ..FleetConfig::default()
        });
        let obs = observation();
        assert!(f
            .submit_traced(9, 0, &obs, None, 1500.0, &mut clean_link(7), None, None)
            .is_none());
        assert!(f.stats().redispatch_drops >= 1);
        assert!(f.stats().redispatches <= f.config().max_redispatch as u64);
    }

    #[test]
    fn load_aware_overrides_a_backlogged_home() {
        let mut serving = ServingConfig::serial_fifo();
        serving.admission_deadline_ms = f64::INFINITY;
        let mut f = fleet(FleetConfig {
            edges: 2,
            serving,
            placement: PlacementPolicy::LoadAware,
            handoff_cooldown_ms: 0.0,
            overload_horizon_ms: 50.0,
            ..FleetConfig::default()
        });
        let obs = observation();
        let home = rendezvous_rank(9, 2)[0];
        f.submit_traced(9, 0, &obs, None, 0.0, &mut clean_link(8), None, None)
            .unwrap();
        assert_eq!(f.assigned_edge(9), home, "first request lands on home");
        // Convoy the home edge far beyond the horizon: with no cooldown,
        // load-aware placement must spill the overflow to the idle edge
        // instead of letting the home queue grow without bound.
        for i in 1..13u64 {
            f.submit_traced(9, i, &obs, None, 0.0, &mut clean_link(8), None, None);
        }
        assert!(
            f.stats()
                .handoff_log
                .iter()
                .any(|h| h.reason == "rebalance"),
            "load-aware never rebalanced off the backlogged home edge"
        );
        assert!(
            f.stats().per_edge_served.iter().all(|&n| n > 0),
            "convoy must be spread across both edges: {:?}",
            f.stats().per_edge_served
        );
    }
}
