//! Batched, sharded edge-serving runtime.
//!
//! This is the only single-edge engine. Its [`ServingConfig::serial_fifo`]
//! preset is the paper's single-tenant edge: one GPU, one FIFO. The field
//! deployment (§VI-G) instead parks eight devices on one Jetson, and the
//! roadmap's "heavy traffic" goal needs an edge that behaves like a
//! serving system, not a mutex. The other presets add the three classic
//! serving levers on the same virtual clock:
//!
//! 1. **Cross-request batching** — requests landing on a lane while a
//!    batch is still waiting to execute join it and pay only the marginal
//!    batched cost (see `ModelProfile::batched_member_ms`). Outputs are
//!    *bit-identical* to the unbatched path because inference is seeded
//!    per request (`EdgeModel::infer_seeded`), never by batch placement.
//! 2. **Sharded lanes** — N virtual GPU lanes with per-device affinity
//!    (`device % lanes`), so one device's burst convoys its own lane, not
//!    the fleet. The crash fault model stalls every lane; the overload
//!    shed horizon is evaluated per lane.
//! 3. **Guidance-keyed caching** — when a device's CIIA guidance is
//!    unchanged within a coordinate tolerance, the RPN/anchor work is
//!    charged as reused. The cache only discounts *latency*; detections
//!    are recomputed bit-identically either way.
//!
//! On top sits deadline-aware **admission control**: a request whose
//! completion estimate (known exactly on the virtual clock) blows its
//! response deadline is shed immediately with a cheap reject, instead of
//! poisoning the lane with work nobody will wait for.
//!
//! The per-batch timing model is *causal-incremental*: a batch holds its
//! execution start and current finish; each joining member extends the
//! finish by its marginal cost and completes at the new finish. Member
//! `i`'s completion never depends on members that join later, so the
//! simulation can answer each submit synchronously. The serial config
//! (1 lane, batch 1, window 0) reduces exactly to the FIFO formula
//! `start = max(arrival, busy_until)`, `done = start + total_ms`.

use crate::edge::{corrupt_payload, envelope_context, EdgeFaultConfig, PendingResponse};
use crate::wire::ENVELOPE_LEN;
use edgeis_netsim::{Direction, LaneSet, Link, SimMs};
use edgeis_rng::StdRng;
use edgeis_segnet::{
    EdgeModel, FrameObservation, Guidance, InferenceResult, InferenceStats, TierSet, ZooConfig,
};
use edgeis_telemetry::{ArgValue, Telemetry};
use std::collections::{BTreeMap, BTreeSet};

/// Serving-runtime knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Virtual GPU lanes (shards). Devices map to lanes by
    /// `device % lanes`.
    pub lanes: usize,
    /// Largest cross-request batch per lane (further clamped by the
    /// model profile's `max_batch`). 1 disables batching.
    pub max_batch: usize,
    /// How long a freshly opened batch waits before executing, so
    /// near-simultaneous requests can coalesce, ms. 0 executes
    /// immediately (requests can still join while the lane drains
    /// earlier work).
    pub batch_window_ms: f64,
    /// Reuse RPN/anchor work when a device's guidance is unchanged
    /// within tolerance.
    pub cache_enabled: bool,
    /// Guidance boxes whose coordinates moved less than this many pixels
    /// count as unchanged for the cache key.
    pub cache_tolerance_px: f64,
    /// Deadline-aware admission control: shed a request immediately when
    /// its (exactly known) completion would land later than
    /// `arrival + admission_deadline_ms`. `INFINITY` disables.
    pub admission_deadline_ms: f64,
    /// Cold-start surcharge: the first request a device sends to this
    /// runtime (and the first after a fleet handoff or cold restart) pays
    /// this extra compute time for model-residency/state transfer, ms.
    /// 0 disables the model.
    pub residency_transfer_ms: f64,
    /// Model-zoo anytime routing: when set, admission *routes* each
    /// request to the largest tier whose exactly-known completion meets
    /// the deadline (and the shed horizon), shedding only when even the
    /// smallest tier misses. `None` (the default) serves every request
    /// from the single primary model — the pre-zoo behaviour, bit-exact.
    pub zoo: Option<ZooConfig>,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            lanes: 4,
            max_batch: 4,
            batch_window_ms: 4.0,
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            // ~9 camera intervals at 30 fps, below the mobile side's
            // 400 ms edge-backlog horizon: a mask arriving later than this
            // is staler than what VO propagation already renders, so
            // serving it is pure waste — shed at admission and let the
            // resilience policy treat it as a miss.
            admission_deadline_ms: 300.0,
            residency_transfer_ms: 0.0,
            zoo: None,
        }
    }
}

impl ServingConfig {
    /// The paper's edge: one lane, no batching, no window, no cache,
    /// infinite admission horizon — one GPU serving requests in FIFO order.
    /// `EdgeIsSystem::new`, the baselines and a multi-device run without a
    /// serving config all use it.
    pub fn serial_fifo() -> Self {
        Self {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        }
    }
}

/// Serving-side accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingStats {
    /// Requests that produced a (non-shed) response.
    pub served: u64,
    /// Batches opened.
    pub batches: u64,
    /// Served requests that joined an already-open batch.
    pub batch_joins: u64,
    /// GPU milliseconds saved by batching (marginal vs unbatched cost).
    pub batch_saved_ms: f64,
    /// Guidance-cache hits (RPN work reused).
    pub cache_hits: u64,
    /// Guidance-cache misses (guided requests whose key changed).
    pub cache_misses: u64,
    /// GPU milliseconds saved by cache hits.
    pub cache_saved_ms: f64,
    /// Requests shed by deadline-aware admission control.
    pub admission_sheds: u64,
    /// Requests shed by the per-lane queue-wait horizon (fault model).
    pub horizon_sheds: u64,
    /// Requests lost to crash windows.
    pub crash_losses: u64,
    /// Served requests per zoo tier (index = tier, largest first; empty
    /// when the runtime has no zoo).
    pub tier_served: Vec<u64>,
    /// Served requests routed to a smaller tier than tier 0 (degraded
    /// but not shed).
    pub degraded_served: u64,
}

impl ServingStats {
    /// All sheds (admission + horizon).
    pub fn sheds(&self) -> u64 {
        self.admission_sheds + self.horizon_sheds
    }

    /// Mean served requests per batch (1.0 when nothing ever coalesced).
    pub fn batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }

    /// Cache hits over guided requests.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Accumulates another runtime's counters into this one (fleet-wide
    /// totals across edges).
    pub fn merge(&mut self, other: &ServingStats) {
        self.served += other.served;
        self.batches += other.batches;
        self.batch_joins += other.batch_joins;
        self.batch_saved_ms += other.batch_saved_ms;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_saved_ms += other.cache_saved_ms;
        self.admission_sheds += other.admission_sheds;
        self.horizon_sheds += other.horizon_sheds;
        self.crash_losses += other.crash_losses;
        if self.tier_served.len() < other.tier_served.len() {
            self.tier_served.resize(other.tier_served.len(), 0);
        }
        for (mine, theirs) in self.tier_served.iter_mut().zip(&other.tier_served) {
            *mine += theirs;
        }
        self.degraded_served += other.degraded_served;
    }
}

/// An open batch on one lane: executing (or waiting to execute) work that
/// later requests may still join.
#[derive(Debug, Clone, Copy)]
struct OpenBatch {
    /// When the GPU starts (started) executing the batch. Requests
    /// arriving at or before this instant may join.
    exec_start: SimMs,
    /// Completion time of the batch as currently composed.
    finish: SimMs,
    /// Members so far.
    size: usize,
    /// Zoo tier the batch executes on (0 without a zoo). Batched kernels
    /// run one model, so only same-tier requests may coalesce.
    tier: usize,
}

/// A fully costed, uncommitted schedule for serving one request from one
/// zoo tier: everything admission needs to accept, fall through to a
/// smaller tier, or shed. Committing a plan is what mutates the runtime.
struct TierPlan {
    /// Zoo tier index (0 without a zoo).
    tier: usize,
    /// The tier's seeded inference output (also the cost source).
    result: InferenceResult,
    /// Whether the guidance cache discounts this tier's RPN pass.
    cache_hit: bool,
    /// Unbatched compute (backbone + stages + residency), ms.
    unbatched_ms: f64,
    /// Open batch joined plus the marginal cost, if joining.
    join: Option<(OpenBatch, f64)>,
    /// When the GPU (lane) starts executing this request's batch.
    exec_start: SimMs,
    /// Exactly-known completion time.
    completion: SimMs,
    /// Compute charged to the lane when opening a new batch (0 on join).
    solo_compute_ms: f64,
    /// Lane wait before execution starts, ms.
    queue_wait_ms: f64,
}

/// Quantized guidance signature: a cache key that tolerates sub-tolerance
/// coordinate drift. The sorted, quantized box tuples are folded into one
/// FNV-1a word via [`crate::hash`] so the per-device cache stores 8 bytes
/// instead of a boxed tuple list; hits and misses are unchanged modulo
/// 64-bit hash collisions.
type GuidanceKey = u64;

fn guidance_key(guidance: &Guidance, tolerance_px: f64) -> GuidanceKey {
    let q = tolerance_px.max(1e-6);
    let mut boxes: Vec<[u64; 6]> = guidance
        .boxes
        .iter()
        .map(|b| {
            [
                // Option fields biased by 1 so None and Some(0) differ.
                b.instance.map_or(0, |v| v as u64 + 1),
                b.class_id.map_or(0, |v| v as u64 + 1),
                (b.bbox.x0 / q).round() as i64 as u64,
                (b.bbox.y0 / q).round() as i64 as u64,
                (b.bbox.x1 / q).round() as i64 as u64,
                (b.bbox.y1 / q).round() as i64 as u64,
            ]
        })
        .collect();
    boxes.sort_unstable();
    crate::hash::fnv1a64_words(boxes.into_iter().flatten())
}

/// Per-request seed: a pure function of the runtime's base seed, the
/// requesting device and that device's request sequence number — never of
/// batch or lane placement, which is what makes batched and unbatched
/// outputs bit-identical.
fn request_seed(base: u64, device: u64, seq: u64) -> u64 {
    base ^ device.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// The serving runtime: a tier set (one model without a zoo), N lanes,
/// per-lane batching, a per-device guidance cache and deadline admission,
/// sharing [`EdgeFaultConfig`]'s crash/shed fault model.
#[derive(Debug)]
pub struct ServingRuntime {
    models: TierSet,
    config: ServingConfig,
    faults: EdgeFaultConfig,
    lanes: LaneSet,
    open: Vec<Option<OpenBatch>>,
    /// Per-device request sequence (advanced only for served requests).
    seq: BTreeMap<u64, u64>,
    /// Per-device last guidance key *and the tier that computed it*: a
    /// cache hit requires both to match, so a tier switch (routing,
    /// handoff, restart) can never reuse RPN work from another tier's
    /// anchor grid.
    cache: BTreeMap<u64, (GuidanceKey, usize)>,
    /// Devices whose model residency/state already lives on this runtime
    /// (they have been served at least once since the last cold event).
    warm: BTreeSet<u64>,
    corrupt_rng: StdRng,
    stats: ServingStats,
    base_seed: u64,
    /// Telemetry hub handle (disabled by default).
    telemetry: Telemetry,
    /// Response-payload buffer pool (see [`crate::wire::encode_response_pooled`]).
    encode_scratch: Vec<u8>,
}

impl ServingRuntime {
    /// Builds a runtime around a model. `base_seed` drives per-request
    /// seeding (outputs), not timing. With `config.zoo` set, the model
    /// becomes tier 0's *frame size* donor and one sibling is built per
    /// zoo tier; seeded inference does not depend on construction seeds,
    /// so fleet replicas resolve identical tier sets.
    pub fn new(model: EdgeModel, base_seed: u64, config: ServingConfig) -> Self {
        let lanes = config.lanes.max(1);
        let models = TierSet::resolve(model, config.zoo.as_ref(), base_seed);
        Self {
            models,
            config,
            faults: EdgeFaultConfig::default(),
            lanes: LaneSet::new(lanes),
            open: vec![None; lanes],
            seq: BTreeMap::new(),
            cache: BTreeMap::new(),
            warm: BTreeSet::new(),
            corrupt_rng: StdRng::seed_from_u64(base_seed ^ 0xe6fa),
            stats: ServingStats::default(),
            base_seed,
            telemetry: Telemetry::disabled(),
            encode_scratch: Vec::new(),
        }
    }

    /// Installs the edge fault model (crash windows stall every lane; the
    /// shed horizon is evaluated per lane).
    pub fn set_faults(&mut self, faults: EdgeFaultConfig) {
        self.faults = faults;
    }

    /// Installs a telemetry hub: queue-wait and inference spans (with
    /// lane, batch and cache annotations) are parented under the trace
    /// context decoded from each request's wire envelope.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Serving accounting so far.
    pub fn stats(&self) -> &ServingStats {
        &self.stats
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Lane a device is pinned to.
    pub fn lane_of(&self, device: u64) -> usize {
        (device % self.lanes.len() as u64) as usize
    }

    /// When `device`'s lane frees up (for mobile-side backlog admission).
    pub fn busy_until_for(&self, device: u64) -> SimMs {
        self.lanes.busy_until(self.lane_of(device))
    }

    /// The earliest any lane frees up.
    pub fn busy_until(&self) -> SimMs {
        (0..self.lanes.len())
            .map(|l| self.lanes.busy_until(l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Requests lost to crash windows so far.
    pub fn crash_losses(&self) -> u64 {
        self.stats.crash_losses
    }

    /// Requests shed (admission + horizon) so far.
    pub fn shed_count(&self) -> u64 {
        self.stats.sheds()
    }

    fn recover_from_crash(&mut self, at: SimMs) {
        let window_end = self
            .faults
            .crash_windows
            .iter()
            .filter(|&&(s, e)| at >= s && at <= e)
            .map(|&(_, e)| e)
            .fold(at, f64::max);
        self.lanes.bump_all(window_end + self.faults.restart_ms);
        // The process died: whatever was coalescing died with it.
        for b in &mut self.open {
            *b = None;
        }
        if self.faults.cold_restart {
            // So did the guidance cache and per-device residency: a
            // restarted edge must never serve stale pre-crash cache state.
            self.cache.clear();
            self.warm.clear();
        }
    }

    /// Drops `device`'s warm residency and cached guidance — called by the
    /// fleet on handoff so the destination edge pays the cold-start
    /// transfer cost for its new tenant.
    pub(crate) fn mark_cold(&mut self, device: u64) {
        self.warm.remove(&device);
        self.cache.remove(&device);
    }

    fn shed_response(
        &mut self,
        frame_id: u64,
        arrival_ms: SimMs,
        link: &mut Link,
    ) -> Option<PendingResponse> {
        let payload = crate::wire::encode_response_pooled(frame_id, &[], &mut self.encode_scratch);
        let bytes = payload.len();
        let delivery = link.transmit_faulty(bytes, arrival_ms, Direction::Downlink)?;
        Some(PendingResponse {
            frame_id,
            payload,
            stats: InferenceStats::default(),
            arrive_ms: delivery.arrive_ms,
            shed: true,
            queue_wait_ms: 0.0,
            tier: "",
            degraded_tier: false,
        })
    }

    /// Costs and schedules a request *as if* served by `tier`, without
    /// committing anything: runs the tier's seeded inference (outputs are
    /// needed to know the actual cost), probes the guidance cache under
    /// the `(key, tier)` rule, and computes the causal-incremental batch
    /// timing on the device's lane. The float arithmetic is the pre-zoo
    /// admission math verbatim, so a one-tier zoo plans bit-identically
    /// to the single-model runtime.
    #[allow(clippy::too_many_arguments)]
    fn plan_tier(
        &self,
        tier: usize,
        device: u64,
        lane: usize,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
        key: Option<GuidanceKey>,
        seed: u64,
        arrival_ms: SimMs,
    ) -> TierPlan {
        // Outputs first: a pure function of (obs, guidance, seed), so
        // nothing below — batching, caching, shedding — can change them.
        let result = self.models.model(tier).infer_seeded(obs, guidance, seed);

        // Guidance cache: a hit reuses the RPN/anchor pass, charging only
        // backbone + heads. Probe only — committed once the request is
        // actually served. The stored tier must match: another tier's
        // cached anchor work is useless to this tier's grid.
        let cache_hit = key.is_some_and(|k| self.cache.get(&device) == Some(&(k, tier)));
        let stage_ms = if cache_hit {
            result.stats.head_ms
        } else {
            result.stats.rpn_ms + result.stats.head_ms
        };
        let backbone_ms = result.stats.backbone_ms;
        // Cold-start surcharge: a device without residency here (first
        // contact, fleet handoff, cold restart) pays the transfer cost.
        let residency_ms =
            if self.config.residency_transfer_ms > 0.0 && !self.warm.contains(&device) {
                self.config.residency_transfer_ms
            } else {
                0.0
            };
        let unbatched_ms = backbone_ms + stage_ms + residency_ms;

        // Timing: join the lane's open batch when it is the same tier and
        // has not started executing past this request's arrival, else
        // open a new one. Brownout windows stretch compute (never
        // outputs) by the factor active at execution start.
        let profile = self.models.profile(tier);
        let max_batch = self.config.max_batch.clamp(1, profile.max_batch.max(1));
        let join = self.open[lane]
            .filter(|b| b.tier == tier && arrival_ms <= b.exec_start && b.size < max_batch)
            .map(|b| {
                let marginal = (profile.batched_member_ms(b.size, backbone_ms, stage_ms)
                    + residency_ms)
                    * self.faults.slowdown_at(b.exec_start);
                (b, marginal)
            });
        let (exec_start, completion, solo_compute_ms) = match join {
            Some((batch, marginal)) => (batch.exec_start, batch.finish + marginal, 0.0),
            None => {
                let exec_start =
                    arrival_ms.max(self.lanes.busy_until(lane)) + self.config.batch_window_ms;
                let compute_ms = unbatched_ms * self.faults.slowdown_at(exec_start);
                (exec_start, exec_start + compute_ms, compute_ms)
            }
        };
        let queue_wait_ms = exec_start - arrival_ms;
        TierPlan {
            tier,
            result,
            cache_hit,
            unbatched_ms,
            join,
            exec_start,
            completion,
            solo_compute_ms,
            queue_wait_ms,
        }
    }

    /// The routing admission rule: a plan is admissible when it clears
    /// both the per-lane overload horizon and the response deadline.
    fn admissible(&self, plan: &TierPlan, arrival_ms: SimMs) -> bool {
        plan.queue_wait_ms <= self.faults.shed_queue_horizon_ms
            && plan.completion - arrival_ms <= self.config.admission_deadline_ms
    }

    /// Submits a request from `device` arriving (fully received) at
    /// `arrival_ms`; the response rides back over `link`. Returns `None`
    /// when no response will ever reach the device (crash at arrival,
    /// crash while in flight, downlink loss).
    pub fn submit(
        &mut self,
        device: u64,
        frame_id: u64,
        obs: &FrameObservation,
        guidance: Option<&Guidance>,
        arrival_ms: SimMs,
        link: &mut Link,
    ) -> Option<PendingResponse> {
        self.submit_traced(
            device, frame_id, obs, guidance, arrival_ms, link, None, None,
        )
    }

    /// [`Self::submit`] with an optional observability envelope (see
    /// [`crate::wire::RequestEnvelope`]): when telemetry is enabled, the
    /// lane's queue-wait and batched-inference spans are emitted as
    /// children of the originating mobile frame's trace.
    ///
    /// `tier_cap` restricts zoo routing to tiers `0..=cap` — the mobile
    /// side uses `Some(0)` to demand the full model for recovery
    /// keyframes (shed rather than degrade). Ignored without a zoo.
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
        let ctx = if self.telemetry.is_enabled() {
            envelope_context(envelope)
        } else {
            None
        };
        if self.faults.crashed_at(arrival_ms) {
            self.recover_from_crash(arrival_ms);
            self.stats.crash_losses += 1;
            if let Some(ctx) = &ctx {
                self.telemetry
                    .emit_event(ctx, "edge.crash_lost", arrival_ms, Vec::new());
            }
            return None;
        }

        let lane = self.lane_of(device);

        let seq = self.seq.get(&device).copied().unwrap_or(0);
        let seed = request_seed(self.base_seed, device, seq);
        let key = match (self.config.cache_enabled, guidance) {
            (true, Some(g)) if !g.is_empty() => {
                Some(guidance_key(g, self.config.cache_tolerance_px))
            }
            _ => None,
        };

        // Routing admission: walk the zoo largest-tier-first (a single
        // iteration without a zoo) and serve from the first tier whose
        // exactly-known completion clears both the shed horizon and the
        // deadline. Tiers are evaluated lazily — a request the full model
        // can serve never costs a smaller tier's inference.
        let tier_limit = tier_cap
            .unwrap_or(usize::MAX)
            .min(self.models.tier_count() - 1);
        let mut plan = self.plan_tier(0, device, lane, obs, guidance, key, seed, arrival_ms);
        while !self.admissible(&plan, arrival_ms) && plan.tier < tier_limit {
            let next = plan.tier + 1;
            plan = self.plan_tier(next, device, lane, obs, guidance, key, seed, arrival_ms);
        }
        if !self.admissible(&plan, arrival_ms) {
            // Even the smallest allowed tier misses. Shed, classifying by
            // that tier's plan in the pre-zoo precedence: lane-overload
            // horizon first, then the response deadline.
            if plan.queue_wait_ms > self.faults.shed_queue_horizon_ms {
                self.stats.horizon_sheds += 1;
                if let Some(ctx) = &ctx {
                    self.telemetry.emit_event(
                        ctx,
                        "edge.shed",
                        arrival_ms,
                        vec![
                            ("kind", ArgValue::Str("horizon".to_string())),
                            ("queue_wait_ms", ArgValue::F64(plan.queue_wait_ms)),
                        ],
                    );
                }
            } else {
                self.stats.admission_sheds += 1;
                if let Some(ctx) = &ctx {
                    self.telemetry.emit_event(
                        ctx,
                        "edge.shed",
                        arrival_ms,
                        vec![
                            ("kind", ArgValue::Str("admission".to_string())),
                            (
                                "est_latency_ms",
                                ArgValue::F64(plan.completion - arrival_ms),
                            ),
                        ],
                    );
                }
            }
            return self.shed_response(frame_id, arrival_ms, link);
        }
        let TierPlan {
            tier,
            result,
            cache_hit,
            unbatched_ms,
            join,
            exec_start,
            completion,
            solo_compute_ms,
            queue_wait_ms,
        } = plan;

        // Crash-in-flight: processing caught by an opening window is lost
        // with the process (per request).
        if let Some((_, crash_end)) = self.faults.crash_opening_in(exec_start, completion) {
            self.recover_from_crash(crash_end);
            self.stats.crash_losses += 1;
            if let Some(ctx) = &ctx {
                self.telemetry
                    .emit_event(ctx, "edge.crash_lost", exec_start, Vec::new());
            }
            return None;
        }

        // Commit: sequence, cache, lane occupancy, batch bookkeeping.
        self.seq.insert(device, seq + 1);
        let guided = key.is_some();
        if let Some(k) = key {
            self.cache.insert(device, (k, tier));
        } else {
            self.cache.remove(&device);
        }
        match join {
            Some((batch, marginal)) => {
                self.lanes.extend(lane, marginal, queue_wait_ms);
                self.open[lane] = Some(OpenBatch {
                    exec_start: batch.exec_start,
                    finish: completion,
                    size: batch.size + 1,
                    tier,
                });
                self.stats.batch_joins += 1;
                self.stats.batch_saved_ms +=
                    unbatched_ms * self.faults.slowdown_at(exec_start) - marginal;
            }
            None => {
                self.lanes.occupy(
                    lane,
                    arrival_ms,
                    self.config.batch_window_ms + solo_compute_ms,
                );
                self.open[lane] = Some(OpenBatch {
                    exec_start,
                    finish: completion,
                    size: 1,
                    tier,
                });
                self.stats.batches += 1;
            }
        }
        self.warm.insert(device);
        self.stats.served += 1;
        if cache_hit {
            self.stats.cache_hits += 1;
            self.stats.cache_saved_ms += result.stats.rpn_ms;
        } else if guided {
            self.stats.cache_misses += 1;
        }
        let zoo_enabled = self.config.zoo.is_some();
        let tier_name = if zoo_enabled {
            self.models.tier_name(tier)
        } else {
            ""
        };
        if zoo_enabled {
            if self.stats.tier_served.len() < self.models.tier_count() {
                self.stats.tier_served.resize(self.models.tier_count(), 0);
            }
            self.stats.tier_served[tier] += 1;
            if tier > 0 {
                self.stats.degraded_served += 1;
            }
            // Per-tier serving telemetry: routing distribution and the
            // end-to-end latency each tier actually delivered.
            if let Some(registry) = self.telemetry.registry() {
                let labels: &[(&str, &str)] = &[("tier", tier_name)];
                registry.counter("edgeis_tier_served_total", labels).inc();
                registry
                    .histogram("edgeis_tier_latency_ms", labels)
                    .observe(completion - arrival_ms);
            }
        }

        if let Some(ctx) = &ctx {
            if queue_wait_ms > 0.0 {
                self.telemetry.emit_child_span(
                    ctx,
                    "edge.queue",
                    arrival_ms,
                    exec_start,
                    vec![("lane", ArgValue::U64(lane as u64))],
                );
            }
            let batch_size = self.open[lane].map_or(1, |b| b.size) as u64;
            let mut args = vec![
                ("frame_id", ArgValue::U64(frame_id)),
                ("lane", ArgValue::U64(lane as u64)),
                ("batch_size", ArgValue::U64(batch_size)),
                ("cache_hit", ArgValue::U64(cache_hit as u64)),
                ("detections", ArgValue::U64(result.detections.len() as u64)),
            ];
            if zoo_enabled {
                args.push(("tier", ArgValue::Str(tier_name.to_string())));
            }
            self.telemetry
                .emit_child_span(ctx, "edge.infer", exec_start, completion, args);
        }

        let payload = crate::wire::encode_response_pooled(
            frame_id,
            &result.detections,
            &mut self.encode_scratch,
        );
        let bytes = payload.len();
        let delivery = link.transmit_faulty(bytes, completion, Direction::Downlink)?;
        let payload = if delivery.corrupted {
            corrupt_payload(payload, &mut self.corrupt_rng)
        } else {
            payload
        };
        Some(PendingResponse {
            frame_id,
            payload,
            stats: result.stats,
            arrive_ms: delivery.arrive_ms,
            shed: false,
            queue_wait_ms,
            tier: tier_name,
            degraded_tier: zoo_enabled && tier > 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeis_imaging::LabelMap;
    use edgeis_netsim::LinkKind;
    use edgeis_segnet::{BBox, GuidanceBox, ModelKind};
    use std::collections::BTreeMap as Map;

    fn observation() -> FrameObservation {
        let mut labels = LabelMap::new(160, 120);
        for y in 40..90 {
            for x in 50..110 {
                labels.set(x, y, 1);
            }
        }
        let mut classes = Map::new();
        classes.insert(1u16, 2u8);
        FrameObservation::pristine(labels, classes)
    }

    fn guidance(x0: f64) -> Guidance {
        Guidance {
            boxes: vec![GuidanceBox {
                bbox: BBox::new(x0, 40.0, x0 + 60.0, 90.0),
                class_id: Some(2),
                instance: Some(1),
            }],
        }
    }

    fn model(seed: u64) -> EdgeModel {
        EdgeModel::new(ModelKind::MaskRcnn, 160, 120, seed)
    }

    fn clean_link(seed: u64) -> Link {
        Link::of_kind(LinkKind::Wifi5, seed)
    }

    #[test]
    fn serial_config_matches_fifo_queueing_formula() {
        // Every request starts at max(arrival, busy), waits start -
        // arrival and holds the single lane until start + total_ms, in
        // arrival order across devices.
        let mut rt = ServingRuntime::new(model(1), 1, ServingConfig::serial_fifo());
        let obs = observation();
        let mut busy = 0.0f64;
        let mut waited = 0;
        for (i, (device, at)) in [(0u64, 10.0), (1, 20.0), (0, 600.0), (2, 605.0), (1, 5000.0)]
            .into_iter()
            .enumerate()
        {
            let r = rt
                .submit(device, i as u64, &obs, None, at, &mut clean_link(1))
                .unwrap();
            let start = at.max(busy);
            assert!(
                (r.queue_wait_ms - (start - at)).abs() < 1e-9,
                "request {i}: queue wait {} != FIFO formula {}",
                r.queue_wait_ms,
                start - at
            );
            busy = start + r.stats.total_ms();
            assert!((rt.busy_until_for(device) - busy).abs() < 1e-9);
            assert!((rt.busy_until() - busy).abs() < 1e-9);
            waited += (r.queue_wait_ms > 0.0) as u32;
        }
        assert!(waited > 0, "no request ever queued behind another");
        assert_eq!(rt.stats().served, 5);
        assert_eq!(rt.stats().batches, 5);
        assert_eq!(rt.stats().batch_joins, 0);
    }

    #[test]
    fn responses_arrive_after_inference_plus_downlink() {
        let mut rt = ServingRuntime::new(model(2), 2, ServingConfig::serial_fifo());
        let obs = observation();
        let r = rt
            .submit(0, 0, &obs, None, 10.0, &mut clean_link(2))
            .unwrap();
        assert!(r.arrive_ms > 10.0 + r.stats.total_ms());
        let (frame_id, detections) = r.decode().unwrap();
        assert_eq!(frame_id, 0);
        assert!(!detections.is_empty());
    }

    #[test]
    fn in_flight_processing_lost_when_crash_opens() {
        let obs = observation();
        // Price the request first, so the window opens mid-inference.
        let mut probe = ServingRuntime::new(model(4), 4, ServingConfig::serial_fifo());
        let infer_ms = probe
            .submit(0, 0, &obs, None, 0.0, &mut clean_link(4))
            .unwrap()
            .stats
            .total_ms();
        assert!(infer_ms > 1.0, "model too fast to test in-flight crash");

        let mut rt = ServingRuntime::new(model(4), 4, ServingConfig::serial_fifo());
        let start = 5000.0;
        let opens = start + infer_ms * 0.5;
        rt.set_faults(EdgeFaultConfig {
            crash_windows: vec![(opens, opens + 50.0)],
            ..Default::default()
        });
        assert!(rt
            .submit(0, 0, &obs, None, start, &mut clean_link(4))
            .is_none());
        assert_eq!(rt.crash_losses(), 1);
        assert_eq!(rt.stats().served, 0);
    }

    #[test]
    fn corrupted_delivery_fails_decode() {
        use edgeis_netsim::FaultSchedule;
        let mut rt = ServingRuntime::new(model(6), 6, ServingConfig::serial_fifo());
        let mut link = clean_link(6);
        link.set_faults(FaultSchedule::new(6).corruption(0.0, 1e9, 1.0));
        let obs = observation();
        let mut rejected = 0;
        for i in 0..8u64 {
            let r = rt
                .submit(0, i, &obs, None, i as f64 * 500.0, &mut link)
                .expect("corruption delivers, never drops");
            rejected += r.decode().is_err() as u32;
        }
        // Byte flips overwhelmingly break framing/RLE checks; a flip can
        // land in a don't-care float without breaking decode, so require
        // most, not all, to be rejected.
        assert!(
            rejected >= 6,
            "only {rejected}/8 corrupted payloads rejected"
        );
    }

    #[test]
    fn batched_payloads_bit_identical_to_unbatched() {
        // Same devices, same request order, same base seed: one runtime
        // batches aggressively, the other is serial FIFO. Per-request
        // payload bytes must match bit for bit.
        let batched_cfg = ServingConfig {
            lanes: 1,
            max_batch: 8,
            batch_window_ms: 50.0,
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut batched = ServingRuntime::new(model(7), 42, batched_cfg);
        let mut serial = ServingRuntime::new(model(7), 42, ServingConfig::serial_fifo());
        let obs = observation();
        let g = guidance(50.0);
        let mut joined = 0;
        for (i, dev) in [0u64, 1, 2, 0, 1, 2].iter().enumerate() {
            let at = i as f64 * 5.0;
            let guide = (i % 2 == 0).then_some(&g);
            let b = batched
                .submit(*dev, i as u64, &obs, guide, at, &mut clean_link(9))
                .unwrap();
            let s = serial
                .submit(*dev, i as u64, &obs, guide, at, &mut clean_link(9))
                .unwrap();
            assert_eq!(b.payload, s.payload, "request {i}: payload diverged");
            joined += (b.queue_wait_ms > 0.0) as u32;
        }
        assert!(batched.stats().batch_joins > 0, "nothing ever coalesced");
        assert!(joined > 0);
    }

    #[test]
    fn batching_finishes_a_burst_sooner_than_serial() {
        let batched_cfg = ServingConfig {
            lanes: 1,
            max_batch: 8,
            batch_window_ms: 5.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut batched = ServingRuntime::new(model(3), 3, batched_cfg);
        let mut serial = ServingRuntime::new(model(3), 3, ServingConfig::serial_fifo());
        let obs = observation();
        // Six devices fire at (almost) the same instant.
        for dev in 0..6u64 {
            let at = dev as f64 * 0.5;
            batched.submit(dev, dev, &obs, None, at, &mut clean_link(4));
            serial.submit(dev, dev, &obs, None, at, &mut clean_link(4));
        }
        let batched_done = batched.busy_until_for(0);
        let serial_done = serial.busy_until_for(0);
        assert!(
            batched_done < serial_done,
            "batched burst finished at {batched_done} ms, serial at {serial_done} ms"
        );
        assert!(batched.stats().batch_saved_ms > 0.0);
        assert!(batched.stats().batch_occupancy() > 1.0);
    }

    #[test]
    fn lanes_isolate_devices_by_affinity() {
        let cfg = ServingConfig {
            lanes: 2,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut rt = ServingRuntime::new(model(5), 5, cfg);
        let obs = observation();
        assert_eq!(rt.lane_of(0), 0);
        assert_eq!(rt.lane_of(1), 1);
        assert_eq!(rt.lane_of(2), 0);
        // Device 0 convoys lane 0 with a burst...
        for i in 0..4u64 {
            rt.submit(0, i, &obs, None, 0.0, &mut clean_link(5));
        }
        let lane0_busy = rt.busy_until_for(0);
        // ...but device 1's lane is idle: its request starts immediately.
        let r = rt
            .submit(1, 100, &obs, None, 1.0, &mut clean_link(5))
            .unwrap();
        assert!(
            (r.queue_wait_ms - 0.0).abs() < 1e-9,
            "lane 1 should be idle"
        );
        assert!(rt.busy_until_for(1) < lane0_busy);
    }

    #[test]
    fn guidance_cache_hits_within_tolerance_and_discounts_rpn() {
        let cfg = ServingConfig {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut rt = ServingRuntime::new(model(6), 6, cfg);
        let obs = observation();
        let before = rt.busy_until_for(0);
        let r1 = rt
            .submit(0, 0, &obs, Some(&guidance(50.0)), 0.0, &mut clean_link(6))
            .unwrap();
        let first_cost = rt.busy_until_for(0) - before;
        assert_eq!(rt.stats().cache_misses, 1);
        // Guidance drifted < tolerance: hit; lane charged less than the
        // full pipeline by exactly the RPN share.
        let t2 = rt.busy_until_for(0);
        let r2 = rt
            .submit(0, 1, &obs, Some(&guidance(51.5)), t2, &mut clean_link(6))
            .unwrap();
        let second_cost = rt.busy_until_for(0) - t2;
        assert_eq!(rt.stats().cache_hits, 1);
        assert!(
            (first_cost - second_cost - r2.stats.rpn_ms).abs() < 1e-6,
            "hit must discount exactly the RPN cost"
        );
        assert!(rt.stats().cache_saved_ms > 0.0);
        // Outputs are unaffected by the cache: same request, same seed
        // stream position, recomputed bit-identically.
        assert_eq!(r1.frame_id, 0);
        assert_eq!(r2.frame_id, 1);
        // Guidance moved beyond tolerance: miss again.
        let t3 = rt.busy_until_for(0);
        rt.submit(0, 2, &obs, Some(&guidance(80.0)), t3, &mut clean_link(6))
            .unwrap();
        assert_eq!(rt.stats().cache_misses, 2);
        // Unguided request invalidates the entry.
        let t4 = rt.busy_until_for(0);
        rt.submit(0, 3, &obs, None, t4, &mut clean_link(6)).unwrap();
        let t5 = rt.busy_until_for(0);
        rt.submit(0, 4, &obs, Some(&guidance(80.0)), t5, &mut clean_link(6))
            .unwrap();
        assert_eq!(rt.stats().cache_misses, 3, "unguided frame must invalidate");
    }

    #[test]
    fn cache_does_not_change_payloads() {
        let cached_cfg = ServingConfig {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut uncached_cfg = cached_cfg.clone();
        uncached_cfg.cache_enabled = false;
        let mut cached = ServingRuntime::new(model(8), 11, cached_cfg);
        let mut uncached = ServingRuntime::new(model(8), 11, uncached_cfg);
        let obs = observation();
        let g = guidance(50.0);
        for i in 0..4u64 {
            let c = cached
                .submit(0, i, &obs, Some(&g), i as f64 * 1000.0, &mut clean_link(12))
                .unwrap();
            let u = uncached
                .submit(0, i, &obs, Some(&g), i as f64 * 1000.0, &mut clean_link(12))
                .unwrap();
            assert_eq!(c.payload, u.payload, "request {i}: cache changed output");
        }
        assert!(cached.stats().cache_hits >= 3);
        assert_eq!(uncached.stats().cache_hits, 0);
    }

    #[test]
    fn admission_control_sheds_doomed_requests() {
        let cfg = ServingConfig {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: 100.0,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut rt = ServingRuntime::new(model(9), 9, cfg);
        let obs = observation();
        let mut sheds = 0;
        let mut served = 0;
        for i in 0..20u64 {
            if let Some(r) = rt.submit(0, i, &obs, None, 0.0, &mut clean_link(9)) {
                if r.shed {
                    sheds += 1;
                    // The reject is cheap and immediate: an empty response
                    // sent at arrival time, not after the queue drains.
                    let (_, dets) = r.decode().unwrap();
                    assert!(dets.is_empty());
                    assert!(r.arrive_ms < rt.busy_until_for(0));
                } else {
                    served += 1;
                }
            }
        }
        assert!(sheds > 0, "overload never tripped admission control");
        assert!(served >= 1);
        assert_eq!(rt.stats().admission_sheds, sheds);
        assert_eq!(rt.stats().sheds(), sheds);
        // Shed work is never admitted: every served completion met the
        // deadline, so (with all arrivals at 0) the lane cannot be busy
        // past the deadline ceiling.
        assert!(rt.busy_until_for(0) <= rt.config().admission_deadline_ms + 1e-9);
    }

    #[test]
    fn serial_preset_reduces_to_edge_server_queue_math() {
        // One device issuing back-to-back requests on the serial_fifo
        // preset sees the single-server FIFO formula on every request:
        // start = max(arrival, busy), wait = start - arrival,
        // busy = start + total_ms.
        let mut rt = ServingRuntime::new(model(12), 12, ServingConfig::serial_fifo());
        let obs = observation();
        let mut expected_busy = 0.0f64;
        for i in 0..5u64 {
            let at = i as f64 * 100.0;
            let r = rt
                .submit(0, i, &obs, None, at, &mut clean_link(13))
                .unwrap();
            let start = at.max(expected_busy);
            assert!(
                (r.queue_wait_ms - (start - at)).abs() < 1e-9,
                "request {i}: queue wait {} != FIFO formula {}",
                r.queue_wait_ms,
                start - at
            );
            expected_busy = start + r.stats.total_ms();
            assert!((rt.busy_until_for(0) - expected_busy).abs() < 1e-9);
        }
    }

    #[test]
    fn shed_horizon_is_per_lane() {
        let cfg = ServingConfig {
            lanes: 2,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut rt = ServingRuntime::new(model(10), 10, cfg);
        rt.set_faults(EdgeFaultConfig {
            shed_queue_horizon_ms: 50.0,
            ..Default::default()
        });
        let obs = observation();
        // Saturate lane 0 (device 0) until it sheds.
        let mut lane0_shed = false;
        for i in 0..20u64 {
            if let Some(r) = rt.submit(0, i, &obs, None, 0.0, &mut clean_link(10)) {
                lane0_shed |= r.shed;
            }
        }
        assert!(lane0_shed, "lane 0 never exceeded its horizon");
        assert!(rt.stats().horizon_sheds > 0);
        // Lane 1 is empty: device 1 is served, not shed.
        let r = rt
            .submit(1, 100, &obs, None, 0.0, &mut clean_link(10))
            .unwrap();
        assert!(!r.shed, "an idle lane must not shed");
    }

    #[test]
    fn crash_stalls_every_lane_and_drops_open_batches() {
        let cfg = ServingConfig {
            lanes: 2,
            max_batch: 4,
            batch_window_ms: 10.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        let mut rt = ServingRuntime::new(model(11), 11, cfg);
        rt.set_faults(EdgeFaultConfig {
            crash_windows: vec![(1000.0, 2000.0)],
            restart_ms: 100.0,
            ..Default::default()
        });
        let obs = observation();
        // A request arriving mid-crash is lost...
        assert!(rt
            .submit(0, 0, &obs, None, 1500.0, &mut clean_link(11))
            .is_none());
        assert_eq!(rt.crash_losses(), 1);
        // ...and BOTH lanes restart only after window end + restart.
        assert!(rt.busy_until_for(0) >= 2100.0);
        assert!(rt.busy_until_for(1) >= 2100.0);
        // Post-restart requests are served again.
        let r = rt
            .submit(1, 1, &obs, None, 2050.0, &mut clean_link(11))
            .unwrap();
        assert!(r.arrive_ms >= 2100.0);
    }

    #[test]
    fn max_batch_respects_model_profile() {
        let cfg = ServingConfig {
            lanes: 1,
            max_batch: 64,
            batch_window_ms: 1000.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        };
        // MobileLite's profile caps batches at 1: nothing may coalesce no
        // matter what the serving config asks for.
        let m = EdgeModel::new(ModelKind::MobileLite, 160, 120, 13);
        let mut rt = ServingRuntime::new(m, 13, cfg);
        let obs = observation();
        for i in 0..3u64 {
            rt.submit(0, i, &obs, None, 0.0, &mut clean_link(14));
        }
        assert_eq!(rt.stats().batch_joins, 0);
        assert_eq!(rt.stats().batches, 3);
    }

    fn cache_cfg() -> ServingConfig {
        ServingConfig {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: None,
        }
    }

    #[test]
    fn crash_restart_invalidates_guidance_cache() {
        // Regression: a restarted edge must not serve cache state from its
        // pre-crash life. Warm the cache, crash, and verify the same
        // guidance misses afterwards.
        let mut rt = ServingRuntime::new(model(14), 14, cache_cfg());
        rt.set_faults(EdgeFaultConfig {
            crash_windows: vec![(5000.0, 5500.0)],
            restart_ms: 100.0,
            ..Default::default()
        });
        let obs = observation();
        let g = guidance(50.0);
        rt.submit(0, 0, &obs, Some(&g), 0.0, &mut clean_link(15))
            .unwrap();
        let t = rt.busy_until_for(0);
        rt.submit(0, 1, &obs, Some(&g), t, &mut clean_link(15))
            .unwrap();
        assert_eq!(rt.stats().cache_hits, 1, "cache never warmed up");
        assert_eq!(rt.stats().cache_misses, 1);
        // The crash clears the cache with the process.
        assert!(rt
            .submit(0, 2, &obs, Some(&g), 5200.0, &mut clean_link(15))
            .is_none());
        assert_eq!(rt.crash_losses(), 1);
        // Identical guidance after the restart: must miss, not hit stale
        // pre-crash state.
        let r = rt
            .submit(0, 3, &obs, Some(&g), 6000.0, &mut clean_link(15))
            .unwrap();
        assert!(!r.shed);
        assert_eq!(
            rt.stats().cache_hits,
            1,
            "restarted edge served stale cache"
        );
        assert_eq!(rt.stats().cache_misses, 2);
    }

    #[test]
    fn warm_restart_keeps_guidance_cache() {
        // The scripted warm_crash kind models a supervisor restart where
        // cache state survives: cold_restart=false keeps the entry.
        let mut rt = ServingRuntime::new(model(15), 15, cache_cfg());
        rt.set_faults(EdgeFaultConfig {
            crash_windows: vec![(5000.0, 5500.0)],
            restart_ms: 50.0,
            cold_restart: false,
            ..Default::default()
        });
        let obs = observation();
        let g = guidance(50.0);
        rt.submit(0, 0, &obs, Some(&g), 0.0, &mut clean_link(16))
            .unwrap();
        assert!(rt
            .submit(0, 1, &obs, Some(&g), 5200.0, &mut clean_link(16))
            .is_none());
        let r = rt
            .submit(0, 2, &obs, Some(&g), 6000.0, &mut clean_link(16))
            .unwrap();
        assert!(!r.shed);
        assert_eq!(rt.stats().cache_hits, 1, "warm restart must keep the cache");
    }

    #[test]
    fn residency_transfer_charges_cold_devices_once() {
        let mut cfg = ServingConfig::serial_fifo();
        cfg.residency_transfer_ms = 30.0;
        let mut rt = ServingRuntime::new(model(16), 16, cfg);
        let obs = observation();
        // First contact pays the transfer cost on top of inference...
        let r1 = rt
            .submit(0, 0, &obs, None, 0.0, &mut clean_link(17))
            .unwrap();
        let first_cost = rt.busy_until_for(0);
        assert!(
            (first_cost - (r1.stats.total_ms() + 30.0)).abs() < 1e-9,
            "cold request must pay the residency surcharge"
        );
        // ...the second is warm.
        let t = rt.busy_until_for(0);
        let r2 = rt.submit(0, 1, &obs, None, t, &mut clean_link(17)).unwrap();
        assert!((rt.busy_until_for(0) - (t + r2.stats.total_ms())).abs() < 1e-9);
        // A handoff eviction makes the device cold again.
        rt.mark_cold(0);
        let t = rt.busy_until_for(0);
        let r3 = rt.submit(0, 2, &obs, None, t, &mut clean_link(17)).unwrap();
        assert!(
            (rt.busy_until_for(0) - (t + r3.stats.total_ms() + 30.0)).abs() < 1e-9,
            "evicted device must pay the surcharge again"
        );
        // The surcharge is timing-only: payloads match a zero-surcharge run.
        let mut plain = ServingRuntime::new(model(16), 16, ServingConfig::serial_fifo());
        let p1 = plain
            .submit(0, 0, &obs, None, 0.0, &mut clean_link(17))
            .unwrap();
        assert_eq!(r1.payload, p1.payload);
    }

    #[test]
    fn brownout_stretches_lane_occupancy() {
        let mut rt = ServingRuntime::new(model(17), 17, ServingConfig::serial_fifo());
        rt.set_faults(EdgeFaultConfig {
            brownout_windows: vec![(0.0, 100_000.0, 2.0)],
            ..Default::default()
        });
        let obs = observation();
        let r = rt
            .submit(0, 0, &obs, None, 0.0, &mut clean_link(18))
            .unwrap();
        assert!(
            (rt.busy_until_for(0) - 2.0 * r.stats.total_ms()).abs() < 1e-9,
            "brownout factor 2 must double the lane occupancy"
        );
        assert!(r.decode().is_ok());
    }

    fn zoo_cfg(deadline_ms: f64) -> ServingConfig {
        ServingConfig {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: false,
            cache_tolerance_px: 0.0,
            admission_deadline_ms: deadline_ms,
            residency_transfer_ms: 0.0,
            zoo: Some(ZooConfig::standard()),
        }
    }

    #[test]
    fn zoo_routing_serves_the_full_model_when_idle() {
        let mut rt = ServingRuntime::new(model(7), 42, zoo_cfg(f64::INFINITY));
        let obs = observation();
        let r = rt
            .submit(0, 0, &obs, None, 0.0, &mut clean_link(1))
            .unwrap();
        assert_eq!(r.tier, "mask_rcnn", "idle routing must pick tier 0");
        assert!(!r.degraded_tier);
        assert_eq!(rt.stats().tier_served, vec![1, 0, 0, 0]);
        assert_eq!(rt.stats().degraded_served, 0);
    }

    #[test]
    fn zoo_routing_degrades_instead_of_shedding_under_load() {
        // Self-calibrating deadline: the full model fits when idle, but a
        // convoyed lane pushes later requests down the zoo instead of
        // shedding them outright as the single-model runtime would.
        let obs = observation();
        let oracle = TierSet::resolve(model(7), Some(&ZooConfig::standard()), 0);
        let c0 = oracle
            .model(0)
            .infer_seeded(&obs, None, request_seed(42, 0, 0))
            .stats
            .total_ms();
        let deadline = c0 * 1.4;
        let mut routed = ServingRuntime::new(model(7), 42, zoo_cfg(deadline));
        let mut shed_only = ServingRuntime::new(
            model(7),
            42,
            ServingConfig {
                zoo: None,
                ..zoo_cfg(deadline)
            },
        );
        for dev in 0..10u64 {
            routed.submit(dev, dev, &obs, None, 0.0, &mut clean_link(1));
            shed_only.submit(dev, dev, &obs, None, 0.0, &mut clean_link(1));
        }
        assert!(
            routed.stats().served > shed_only.stats().served,
            "routing must serve requests the single-model runtime sheds: \
             routed {} vs shed-only {}",
            routed.stats().served,
            shed_only.stats().served
        );
        assert!(routed.stats().degraded_served > 0);
        let distinct = routed
            .stats()
            .tier_served
            .iter()
            .filter(|&&n| n > 0)
            .count();
        assert!(distinct >= 2, "burst must exercise at least two tiers");
        // Shedding only begins once even the smallest tier misses.
        assert!(
            routed.stats().sheds() < shed_only.stats().sheds(),
            "routing must shed strictly less than shed-at-admission"
        );
    }

    #[test]
    fn zoo_with_one_tier_is_bit_identical_to_no_zoo() {
        let one_tier = ServingConfig {
            zoo: Some(ZooConfig::single(ModelKind::MaskRcnn)),
            ..ServingConfig::default()
        };
        let mut zoo = ServingRuntime::new(model(7), 42, one_tier);
        let mut bare = ServingRuntime::new(model(7), 42, ServingConfig::default());
        let obs = observation();
        let g = guidance(50.0);
        for (i, dev) in [0u64, 1, 2, 0, 1, 2, 0, 1].iter().enumerate() {
            let at = i as f64 * 6.0;
            let guide = (i % 2 == 0).then_some(&g);
            let a = zoo.submit(*dev, i as u64, &obs, guide, at, &mut clean_link(9));
            let b = bare.submit(*dev, i as u64, &obs, guide, at, &mut clean_link(9));
            match (a, b) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.payload, b.payload, "request {i}: payload diverged");
                    assert_eq!(a.shed, b.shed, "request {i}: shed decision diverged");
                    assert!(
                        (a.queue_wait_ms - b.queue_wait_ms).abs() < 1e-12,
                        "request {i}: queue wait diverged"
                    );
                    // The only permitted difference: the zoo names its tier.
                    if !a.shed {
                        assert_eq!(a.tier, "mask_rcnn");
                        assert_eq!(b.tier, "");
                    }
                }
                (a, b) => panic!("request {i}: delivery diverged ({a:?} vs {b:?})"),
            }
        }
        assert_eq!(zoo.stats().served, bare.stats().served);
        assert_eq!(zoo.stats().sheds(), bare.stats().sheds());
    }

    #[test]
    fn routing_soundness_serves_largest_feasible_tier_or_sheds() {
        // Property: against an LCG-driven schedule, the runtime serves a
        // request iff *some* tier's exactly-predicted completion meets the
        // deadline, and always from the largest such tier. The oracle
        // recomputes each tier's completion independently from sibling
        // models + the documented per-request seed.
        let obs = observation();
        let oracle = TierSet::resolve(model(7), Some(&ZooConfig::standard()), 0xDEAD);
        let c0 = oracle
            .model(0)
            .infer_seeded(&obs, None, request_seed(42, 0, 0))
            .stats
            .total_ms();
        let deadline = c0 * 1.3;
        let mut rt = ServingRuntime::new(model(7), 42, zoo_cfg(deadline));
        let mut lcg: u64 = 0x1234_5678;
        let mut next = || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 33
        };
        let mut t = 0.0;
        let mut seqs: Map<u64, u64> = Map::new();
        for i in 0..48u64 {
            t += (next() % 24) as f64;
            let dev = next() % 3;
            let seed = request_seed(42, dev, seqs.get(&dev).copied().unwrap_or(0));
            let busy = rt.busy_until();
            let expect = (0..oracle.tier_count()).find(|&k| {
                let cost = oracle
                    .model(k)
                    .infer_seeded(&obs, None, seed)
                    .stats
                    .total_ms();
                t.max(busy) + cost - t <= deadline
            });
            let resp = rt
                .submit(dev, i, &obs, None, t, &mut clean_link(1))
                .unwrap();
            match expect {
                None => assert!(resp.shed, "request {i}: no tier fits but runtime served"),
                Some(k) => {
                    assert!(!resp.shed, "request {i}: tier {k} fits but runtime shed");
                    assert_eq!(resp.tier, oracle.tier_name(k), "request {i}: wrong tier");
                    *seqs.entry(dev).or_insert(0) += 1;
                }
            }
        }
        let s = rt.stats();
        assert!(
            s.tier_served[0] > 0 && s.degraded_served > 0 && s.sheds() > 0,
            "schedule failed to exercise full-tier serving, degradation and \
             shedding together: {s:?}"
        );
    }

    #[test]
    fn tier_cap_sheds_rather_than_degrading_recovery_keyframes() {
        let obs = observation();
        let oracle = TierSet::resolve(model(7), Some(&ZooConfig::standard()), 0);
        let c0 = oracle
            .model(0)
            .infer_seeded(&obs, None, request_seed(42, 0, 0))
            .stats
            .total_ms();
        let mut rt = ServingRuntime::new(model(7), 42, zoo_cfg(c0 * 1.4));
        // Convoy the lane so tier 0 no longer fits...
        rt.submit(0, 0, &obs, None, 0.0, &mut clean_link(1));
        // ...an uncapped request degrades; a capped one must shed.
        let free = rt
            .submit_traced(1, 1, &obs, None, 0.0, &mut clean_link(1), None, None)
            .unwrap();
        assert!(!free.shed && free.degraded_tier);
        let capped = rt
            .submit_traced(2, 2, &obs, None, 0.0, &mut clean_link(1), None, Some(0))
            .unwrap();
        assert!(
            capped.shed,
            "tier-capped recovery keyframe must shed, not degrade"
        );
    }

    #[test]
    fn tier_switch_never_serves_a_cross_tier_cache_hit() {
        // Regression: the guidance cache is keyed by (signature, tier). A
        // mid-run tier switch must invalidate it — another tier's cached
        // anchor work is useless — and a later switch back must also miss,
        // because the stored entry now belongs to the smaller tier.
        let obs = observation();
        let g = guidance(50.0);
        // Calibrate the deadline so that, behind another device's convoy,
        // device 0's first guided request misses tier 0 but meets tier 1.
        let oracle = TierSet::resolve(model(7), Some(&ZooConfig::standard()), 0);
        let convoy_ms = oracle
            .model(0)
            .infer_seeded(&obs, None, request_seed(42, 9, 0))
            .stats
            .total_ms();
        let seed0 = request_seed(42, 0, 0);
        let c0 = oracle
            .model(0)
            .infer_seeded(&obs, Some(&g), seed0)
            .stats
            .total_ms();
        let c1 = oracle
            .model(1)
            .infer_seeded(&obs, Some(&g), seed0)
            .stats
            .total_ms();
        assert!(
            c1 < c0,
            "INT8 tier must be cheaper for the calibration to hold"
        );
        let cfg = ServingConfig {
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            ..zoo_cfg(convoy_ms + (c0 + c1) / 2.0)
        };
        let mut rt = ServingRuntime::new(model(7), 42, cfg);
        // Convoy the single lane with an unguided request from device 9.
        rt.submit(9, 0, &obs, None, 0.0, &mut clean_link(1));
        // 1: device 0's guided request degrades to the INT8 tier and
        // primes the cache with (signature, tier 1).
        let r1 = rt
            .submit(0, 1, &obs, Some(&g), 0.0, &mut clean_link(1))
            .unwrap();
        assert!(
            !r1.shed && r1.degraded_tier,
            "first request must degrade, not {r1:?}"
        );
        assert_eq!(r1.tier, "mask_rcnn_int8");
        assert_eq!((rt.stats().cache_hits, rt.stats().cache_misses), (0, 1));
        // 2: lane drained -> routing switches back to tier 0. The cached
        // entry belongs to tier 1: same signature, different tier, MUST
        // miss — a cross-tier hit would discount RPN work of the wrong
        // anchor grid.
        let at = rt.busy_until() + 1.0;
        let r2 = rt
            .submit(0, 2, &obs, Some(&g), at, &mut clean_link(1))
            .unwrap();
        assert_eq!(r2.tier, "mask_rcnn");
        assert_eq!(rt.stats().cache_hits, 0, "cross-tier cache hit served");
        assert_eq!(rt.stats().cache_misses, 2);
        // 3: same tier, same signature -> finally a legitimate hit.
        let at = rt.busy_until() + 1.0;
        let r3 = rt
            .submit(0, 3, &obs, Some(&g), at, &mut clean_link(1))
            .unwrap();
        assert_eq!(r3.tier, "mask_rcnn");
        assert_eq!(rt.stats().cache_hits, 1);
        // Payloads are seed-pure: caching and tier bookkeeping never
        // change bytes for the same (device, seq).
        assert!(r1.decode().is_ok() && r3.decode().is_ok());
    }

    #[test]
    fn mark_cold_invalidates_the_guidance_cache() {
        let cfg = ServingConfig {
            lanes: 1,
            max_batch: 1,
            batch_window_ms: 0.0,
            cache_enabled: true,
            cache_tolerance_px: 4.0,
            admission_deadline_ms: f64::INFINITY,
            residency_transfer_ms: 0.0,
            zoo: Some(ZooConfig::standard()),
        };
        let mut rt = ServingRuntime::new(model(7), 42, cfg);
        let obs = observation();
        let g = guidance(50.0);
        rt.submit(0, 0, &obs, Some(&g), 0.0, &mut clean_link(1));
        let at = rt.busy_until() + 1.0;
        rt.submit(0, 1, &obs, Some(&g), at, &mut clean_link(1));
        assert_eq!(rt.stats().cache_hits, 1, "warm same-tier repeat must hit");
        rt.mark_cold(0);
        let at = rt.busy_until() + 1.0;
        rt.submit(0, 2, &obs, Some(&g), at, &mut clean_link(1));
        assert_eq!(
            rt.stats().cache_hits,
            1,
            "mark_cold must invalidate the cache"
        );
        assert_eq!(rt.stats().cache_misses, 2);
    }
}
