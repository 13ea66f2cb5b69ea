//! What every edge engine shares: the response a device receives, the
//! edge-side fault model (crash/restart, overload shedding, brownout) and
//! the [`SharedEdge`] handle that devices submit through. The engines
//! themselves are [`crate::serving::ServingRuntime`] (the paper's serial
//! FIFO edge is its [`crate::serving::ServingConfig::serial_fifo`] preset)
//! and the multi-edge [`crate::fleet::EdgeFleet`].
//!
//! Responses travel as *wire-encoded bytes* (see [`crate::wire`]): the
//! mobile side must decode them, so corrupted payloads are rejected by the
//! real framing checks instead of being silently trusted.

use crate::wire::ENVELOPE_LEN;
use edgeis_netsim::{Link, SimMs};
use edgeis_rng::StdRng;
use edgeis_segnet::{FrameObservation, Guidance, InferenceStats};
use edgeis_telemetry::{Telemetry, TraceContext};
use std::sync::{Arc, Mutex, MutexGuard};

/// An inference response travelling back to the mobile device.
#[derive(Debug, Clone)]
pub struct PendingResponse {
    /// The mobile frame id the request was made for.
    pub frame_id: u64,
    /// The wire-encoded response message (possibly corrupted en route).
    pub payload: Vec<u8>,
    /// Inference accounting.
    pub stats: InferenceStats,
    /// Virtual time the response reaches the mobile device.
    pub arrive_ms: SimMs,
    /// The edge shed this request (queue beyond its horizon or past its
    /// admission deadline) and returned a cheap reject instead of results.
    pub shed: bool,
    /// Virtual time the request waited in the edge queue before its GPU
    /// work started (0 for shed rejects, which never queue), ms.
    pub queue_wait_ms: f64,
    /// Stable name of the zoo tier that served this response; empty for
    /// shed rejects and for edges running a single fixed model (no zoo).
    pub tier: &'static str,
    /// Zoo routing degraded this request to a smaller tier than tier 0:
    /// the response is usable (the resilience policy counts it as partial
    /// success) but less accurate than the full model's answer.
    pub degraded_tier: bool,
}

impl PendingResponse {
    /// Decodes the wire payload.
    ///
    /// # Errors
    ///
    /// Returns a [`crate::wire::WireError`] when the payload is truncated,
    /// misframed or carries a corrupt mask — exactly what a fault-injected
    /// corruption produces.
    pub fn decode(&self) -> Result<(u64, Vec<crate::wire::WireDetection>), crate::wire::WireError> {
        crate::wire::decode_response(&self.payload)
    }
}

/// Edge-side fault model: scripted crash windows and overload shedding.
#[derive(Debug, Clone)]
pub struct EdgeFaultConfig {
    /// Crash windows `[start, end)` on the virtual clock. Requests that
    /// arrive inside a window, or whose processing is in flight when a
    /// window opens, are lost without a response; the restarted server
    /// comes back with an empty queue at `end + restart_ms`.
    pub crash_windows: Vec<(SimMs, SimMs)>,
    /// Extra model-reload time after a crash, ms.
    pub restart_ms: f64,
    /// Overload shedding: a request that would wait longer than this in
    /// the GPU queue is rejected with a cheap shed response instead of
    /// being processed. `f64::INFINITY` disables shedding.
    pub shed_queue_horizon_ms: f64,
    /// Brownout windows `(start, end, factor)`: GPU work whose execution
    /// starts inside a window runs `factor`× slower (thermal throttling,
    /// co-tenant pressure). Factors of overlapping windows multiply.
    pub brownout_windows: Vec<(SimMs, SimMs, f64)>,
    /// Whether a restart after a crash comes back with a cold guidance
    /// cache and no warm device residency (the serving backend drops both).
    pub cold_restart: bool,
}

impl Default for EdgeFaultConfig {
    fn default() -> Self {
        Self {
            crash_windows: Vec::new(),
            restart_ms: 0.0,
            shed_queue_horizon_ms: f64::INFINITY,
            brownout_windows: Vec::new(),
            cold_restart: true,
        }
    }
}

impl EdgeFaultConfig {
    /// Whether virtual time `at` falls inside a crash window.
    pub fn crashed_at(&self, at: SimMs) -> bool {
        self.crash_windows.iter().any(|&(s, e)| at >= s && at < e)
    }

    /// Combined brownout slowdown factor at virtual time `at` (1.0 when no
    /// window is active).
    pub fn slowdown_at(&self, at: SimMs) -> f64 {
        self.brownout_windows
            .iter()
            .filter(|&&(s, e, _)| at >= s && at < e)
            .map(|&(_, _, f)| f.max(1.0))
            .product()
    }

    /// Extracts the fault windows addressed to `edge` from a fleet-level
    /// [`edgeis_netsim::EdgeFaultScript`] into this per-server config.
    pub fn from_script(script: &edgeis_netsim::EdgeFaultScript, edge: usize) -> Self {
        let mut config = Self::default();
        let mut any_warm = false;
        for w in script.windows_for(edge) {
            match w.kind {
                edgeis_netsim::EdgeFaultKind::Crash {
                    restart_ms,
                    cold_cache,
                } => {
                    config.crash_windows.push((w.start_ms, w.end_ms));
                    config.restart_ms = config.restart_ms.max(restart_ms);
                    if !cold_cache {
                        any_warm = true;
                    }
                }
                edgeis_netsim::EdgeFaultKind::Brownout(factor) => {
                    config.brownout_windows.push((w.start_ms, w.end_ms, factor));
                }
            }
        }
        // A single scripted warm restart keeps the whole server warm: the
        // script models "process survived, GPU context did not".
        config.cold_restart = !any_warm;
        config
    }

    /// The first crash window opening inside `[from, to)`, if any.
    pub(crate) fn crash_opening_in(&self, from: SimMs, to: SimMs) -> Option<(SimMs, SimMs)> {
        self.crash_windows
            .iter()
            .copied()
            .filter(|&(s, _)| s >= from && s < to)
            .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Decodes the optional observability envelope riding a request into the
/// trace context the edge should parent its spans under. A mangled or
/// absent envelope yields `None`: telemetry degrades to unparented edge
/// spans, never to a request failure.
pub(crate) fn envelope_context(envelope: Option<[u8; ENVELOPE_LEN]>) -> Option<TraceContext> {
    envelope.and_then(|e| {
        crate::wire::RequestEnvelope::decode(&e)
            .ok()
            .map(|env| env.context())
    })
}

/// Deterministically damages a wire payload: a handful of byte flips at
/// seeded positions (sometimes the header, sometimes the mask runs).
pub(crate) fn corrupt_payload(mut raw: Vec<u8>, rng: &mut StdRng) -> Vec<u8> {
    if raw.is_empty() {
        return raw;
    }
    let flips = 1 + rng.random_range(0..4usize).min(raw.len() - 1);
    for _ in 0..flips {
        let pos = rng.random_range(0..raw.len());
        raw[pos] ^= 1 << rng.random_range(0..8u32);
    }
    raw
}

/// The engine behind a [`SharedEdge`] handle: one serving runtime (the
/// paper's single-tenant FIFO edge under `ServingConfig::serial_fifo`),
/// or a fleet of them.
// One instance per harness, always behind `Arc<Mutex<..>>` — the
// variant size spread never multiplies across a collection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum EdgeBackend {
    Serving(crate::serving::ServingRuntime),
    Fleet(crate::fleet::EdgeFleet),
}

/// A shareable handle to one edge node, so several mobile devices can
/// contend for the same GPU (the paper's field study attaches 8 devices to
/// a single Jetson AGX Xavier). The edge is one
/// [`crate::serving::ServingRuntime`] (serial FIFO, or with cross-request
/// batching, sharded lanes, guidance caching and admission control) or a
/// multi-edge [`crate::fleet::EdgeFleet`].
#[derive(Debug, Clone)]
pub struct SharedEdge {
    inner: Arc<Mutex<EdgeBackend>>,
}

impl SharedEdge {
    /// Wraps a serving runtime for sharing.
    pub fn serving(runtime: crate::serving::ServingRuntime) -> Self {
        Self {
            inner: Arc::new(Mutex::new(EdgeBackend::Serving(runtime))),
        }
    }

    /// Wraps a multi-edge fleet for sharing.
    pub fn fleet(fleet: crate::fleet::EdgeFleet) -> Self {
        Self {
            inner: Arc::new(Mutex::new(EdgeBackend::Fleet(fleet))),
        }
    }

    /// The locked backend.
    fn backend(&self) -> MutexGuard<'_, EdgeBackend> {
        self.inner
            .lock()
            .expect("a device thread panicked while holding the edge backend")
    }

    /// Installs the edge fault model on the shared backend. For a fleet
    /// the same config is applied to every edge (the per-edge fault script
    /// in [`crate::fleet::FleetConfig`] is the targeted alternative).
    pub fn set_faults(&self, faults: EdgeFaultConfig) {
        match &mut *self.backend() {
            EdgeBackend::Serving(s) => s.set_faults(faults),
            EdgeBackend::Fleet(f) => f.set_faults_all(faults),
        }
    }

    /// Installs a telemetry hub on the shared backend. Idempotent; each
    /// device's `EdgeIsSystem::set_telemetry` calls this, and all clones
    /// of one `SharedEdge` see the same backend.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        match &mut *self.backend() {
            EdgeBackend::Serving(s) => s.set_telemetry(telemetry),
            EdgeBackend::Fleet(f) => f.set_telemetry(telemetry),
        }
    }

    /// Feeds a device's link-health transition to the backend. Only the
    /// fleet acts on it (outage steers the device away from its current
    /// edge; a return to health lets it go home); the single-edge backends
    /// have nowhere to move a device and ignore the signal.
    pub fn report_health(&self, device: u64, health: crate::system::LinkHealth, now_ms: SimMs) {
        if let EdgeBackend::Fleet(f) = &mut *self.backend() {
            f.report_health(device, health, now_ms);
        }
    }

    /// Submits a request from `device`. The backend uses the device for
    /// per-request seeding, lane affinity and the guidance cache (the
    /// serial FIFO preset has one lane and no cache), and the fleet also
    /// for placement. The optional
    /// observability envelope attaches edge-side spans to the originating
    /// mobile frame's trace, and the optional zoo tier cap (`Some(0)`
    /// demands the full model — used by CFRS recovery keyframes; ignored
    /// by backends without a zoo).
    #[allow(clippy::too_many_arguments)]
    pub fn submit_traced_from(
        &self,
        device: u64,
        frame_id: u64,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
        arrival_ms: SimMs,
        link: &mut Link,
        envelope: Option<[u8; ENVELOPE_LEN]>,
        tier_cap: Option<usize>,
    ) -> Option<PendingResponse> {
        match &mut *self.backend() {
            EdgeBackend::Serving(s) => s.submit_traced(
                device, frame_id, obs, guidance, arrival_ms, link, envelope, tier_cap,
            ),
            EdgeBackend::Fleet(f) => f.submit_traced(
                device, frame_id, obs, guidance, arrival_ms, link, envelope, tier_cap,
            ),
        }
    }

    /// When `device`'s queue (its lane on its assigned edge, for the
    /// serving and fleet backends) frees up.
    pub fn busy_until_for(&self, device: u64) -> SimMs {
        match &*self.backend() {
            EdgeBackend::Serving(s) => s.busy_until_for(device),
            EdgeBackend::Fleet(f) => f.busy_until_for(device),
        }
    }

    /// Serving accounting (summed across edges for the fleet).
    pub fn serving_stats(&self) -> crate::serving::ServingStats {
        match &*self.backend() {
            EdgeBackend::Serving(s) => s.stats().clone(),
            EdgeBackend::Fleet(f) => f.merged_serving_stats(),
        }
    }

    /// Fleet accounting (`None` for a single serving runtime).
    pub fn fleet_stats(&self) -> Option<crate::fleet::FleetStats> {
        match &*self.backend() {
            EdgeBackend::Fleet(f) => Some(f.stats().clone()),
            EdgeBackend::Serving(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::{ServingConfig, ServingRuntime};
    use edgeis_imaging::LabelMap;
    use edgeis_netsim::LinkKind;
    use edgeis_segnet::{EdgeModel, ModelKind};
    use std::collections::BTreeMap;

    fn observation() -> FrameObservation {
        let mut labels = LabelMap::new(160, 120);
        for y in 40..90 {
            for x in 50..110 {
                labels.set(x, y, 1);
            }
        }
        let mut classes = BTreeMap::new();
        classes.insert(1u16, 2u8);
        FrameObservation::pristine(labels, classes)
    }

    /// The paper's edge: one GPU serving requests in FIFO order.
    fn serial_edge(seed: u64) -> ServingRuntime {
        let model = EdgeModel::new(ModelKind::MaskRcnn, 160, 120, seed);
        ServingRuntime::new(model, seed, ServingConfig::serial_fifo())
    }

    #[test]
    fn fifo_queueing() {
        let mut edge = serial_edge(2);
        let mut link = Link::of_kind(LinkKind::Wifi5, 2);
        let obs = observation();
        let r1 = edge.submit(0, 0, &obs, None, 0.0, &mut link).unwrap();
        let busy_after_first = edge.busy_until();
        let r2 = edge.submit(0, 1, &obs, None, 1.0, &mut link).unwrap();
        // Second inference starts only after the first finished.
        assert!(edge.busy_until() >= busy_after_first + r2.stats.total_ms() - 1e-9);
        assert!((r2.queue_wait_ms - (busy_after_first - 1.0)).abs() < 1e-9);
        assert!(r2.arrive_ms > r1.arrive_ms);
    }

    #[test]
    fn crash_window_loses_requests_and_restarts() {
        let mut edge = serial_edge(3);
        edge.set_faults(EdgeFaultConfig {
            crash_windows: vec![(1000.0, 2000.0)],
            restart_ms: 100.0,
            ..Default::default()
        });
        let mut link = Link::of_kind(LinkKind::Wifi5, 3);
        let obs = observation();
        // Before the crash: fine.
        assert!(edge.submit(0, 0, &obs, None, 0.0, &mut link).is_some());
        // During the crash: lost.
        assert!(edge.submit(0, 1, &obs, None, 1500.0, &mut link).is_none());
        assert_eq!(edge.crash_losses(), 1);
        // After restart (window end + restart), the edge serves again but
        // cannot start before the restart completed.
        let resp = edge.submit(0, 2, &obs, None, 2050.0, &mut link).unwrap();
        assert!(resp.arrive_ms >= 2100.0);
    }

    #[test]
    fn overload_sheds_beyond_queue_horizon() {
        let mut edge = serial_edge(5);
        edge.set_faults(EdgeFaultConfig {
            shed_queue_horizon_ms: 50.0,
            ..Default::default()
        });
        let mut link = Link::of_kind(LinkKind::Wifi5, 5);
        let obs = observation();
        // Pile up requests at the same arrival time until the queue horizon
        // is exceeded.
        let mut shed_seen = false;
        for i in 0..20 {
            if let Some(resp) = edge.submit(0, i, &obs, None, 0.0, &mut link) {
                if resp.shed {
                    shed_seen = true;
                    let (_, detections) = resp.decode().unwrap();
                    assert!(detections.is_empty(), "shed reject carries no results");
                }
            }
        }
        assert!(shed_seen, "queue never exceeded the shed horizon");
        assert!(edge.shed_count() > 0);
    }

    #[test]
    fn brownout_stretches_inference_but_delivers() {
        let obs = observation();
        let mut baseline = serial_edge(7);
        let mut link = Link::of_kind(LinkKind::Wifi5, 7);
        let clean = baseline.submit(0, 0, &obs, None, 100.0, &mut link).unwrap();
        let clean_busy = baseline.busy_until();

        let mut slowed = serial_edge(7);
        slowed.set_faults(EdgeFaultConfig {
            brownout_windows: vec![(0.0, 10_000.0, 3.0)],
            ..Default::default()
        });
        let mut link = Link::of_kind(LinkKind::Wifi5, 7);
        let resp = slowed.submit(0, 0, &obs, None, 100.0, &mut link).unwrap();
        assert!(
            slowed.busy_until() > clean_busy + resp.stats.total_ms(),
            "brownout did not stretch occupancy: {} vs {}",
            slowed.busy_until(),
            clean_busy
        );
        assert!(resp.arrive_ms > clean.arrive_ms);
        assert!(resp.decode().is_ok(), "brownout slows, never corrupts");
    }

    #[test]
    fn brownout_windows_multiply_inside_and_vanish_outside() {
        let stacked = EdgeFaultConfig {
            brownout_windows: vec![(0.0, 100.0, 2.0), (50.0, 100.0, 1.5)],
            ..Default::default()
        };
        assert_eq!(stacked.slowdown_at(10.0), 2.0);
        assert!((stacked.slowdown_at(60.0) - 3.0).abs() < 1e-12);
        assert_eq!(stacked.slowdown_at(100.0), 1.0);
    }

    #[test]
    fn fault_config_from_script_is_per_edge() {
        use edgeis_netsim::EdgeFaultScript;
        let script = EdgeFaultScript::new()
            .crash(0, 1000.0, 1500.0, 120.0)
            .brownout(0, 2000.0, 2500.0, 2.0)
            .warm_crash(1, 3000.0, 3200.0, 40.0);
        let edge0 = EdgeFaultConfig::from_script(&script, 0);
        assert_eq!(edge0.crash_windows, vec![(1000.0, 1500.0)]);
        assert_eq!(edge0.restart_ms, 120.0);
        assert_eq!(edge0.brownout_windows, vec![(2000.0, 2500.0, 2.0)]);
        assert!(edge0.cold_restart);
        let edge1 = EdgeFaultConfig::from_script(&script, 1);
        assert_eq!(edge1.crash_windows, vec![(3000.0, 3200.0)]);
        assert!(!edge1.cold_restart, "warm_crash keeps the cache");
        let edge2 = EdgeFaultConfig::from_script(&script, 2);
        assert!(edge2.crash_windows.is_empty());
        assert!(edge2.brownout_windows.is_empty());
    }
}
