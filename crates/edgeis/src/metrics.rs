//! Per-frame scoring and report aggregation (Eq. 8 and the §VI metrics).

/// Wall-clock time actually spent in each pipeline stage for one frame, ms.
///
/// Unlike [`FrameRecord::mobile_ms`] (the *modeled* mobile latency used by
/// the simulation clock), these are host-side measurements of where the
/// reproduction's compute goes — the instrumentation behind the
/// `BENCH_pipeline.json` stage profile. Stages that did not run this frame
/// (e.g. `encode` on a held frame) stay at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageBreakdownMs {
    /// ORB keypoint detection (FAST scan + NMS + descriptors).
    pub detect: f64,
    /// Descriptor matching against the map.
    pub matching: f64,
    /// Bundle adjustment / camera pose refinement.
    pub ba: f64,
    /// Per-object tracking + mask transfer (includes per-object BA).
    pub transfer: f64,
    /// Choosing what to send and encoding it: the CFRS tile plan (with its
    /// dilated object masks), the CIIA guidance and the tile encoding of
    /// the offloaded frame.
    pub encode: f64,
    /// Host cost of simulating the edge: building the ground-truth
    /// observation of the frame and submitting the request through the
    /// simulated edge server, which runs the actual segnet model.
    pub edge_infer: f64,
    /// Decoding responses off the wire and applying masks to the tracker
    /// (measured at the start of the frame, covering everything that
    /// arrived since the previous one).
    pub decode_apply: f64,
}

impl StageBreakdownMs {
    /// Stage names, in pipeline order (matches [`Self::as_array`]).
    pub const NAMES: [&'static str; 7] = [
        "detect",
        "match",
        "ba",
        "transfer",
        "encode",
        "edge_infer",
        "decode_apply",
    ];

    /// The stage values in the same order as [`Self::NAMES`].
    pub fn as_array(&self) -> [f64; 7] {
        [
            self.detect,
            self.matching,
            self.ba,
            self.transfer,
            self.encode,
            self.edge_infer,
            self.decode_apply,
        ]
    }

    /// Total measured time across all stages, ms.
    pub fn total_ms(&self) -> f64 {
        self.as_array().iter().sum()
    }
}

/// p50/p95 summary for one pipeline stage over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSummary {
    /// Stage name (one of [`StageBreakdownMs::NAMES`]).
    pub stage: String,
    /// Median per-frame time, ms.
    pub p50_ms: f64,
    /// 95th-percentile per-frame time, ms.
    pub p95_ms: f64,
    /// Mean per-frame time, ms.
    pub mean_ms: f64,
}

/// Nearest-rank percentile of an unsorted sample set (`q` in `[0, 1]`).
///
/// Edge cases (all tested):
/// - empty input → `0.0` (no samples, no latency — callers treat the run
///   as "nothing measured");
/// - `q = 0.0` → the minimum (rank clamps to 1, never 0);
/// - `q = 1.0` → the maximum;
/// - a single sample is returned for every `q`;
/// - `NaN` samples sort *after* every finite value and `+∞`
///   (IEEE 754 `total_cmp` order), so they can only surface at the very
///   top ranks instead of poisoning the sort with incomparable pairs.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Causal outcome label for one rendered frame: *why* the frame looked
/// the way it did. Derived from state the system already tracks (VO
/// tracking state, resilience health, delivery flags, fleet handoffs) —
/// the forensics layer observes, it never feeds back into behaviour.
///
/// Exactly one label per frame; when several causes overlap the most
/// upstream one wins (a lost map explains more than a shed response):
/// `Bootstrapping` → `TrackingLost` → `Reinit` → `CoastingMamt` →
/// `HandoffCold` → `Shed` → `DegradedTier` → `RetryRecovered` →
/// `StaleGuidance` → `Healthy`.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FrameOutcome {
    /// Nothing noteworthy: the frame rendered from live tracking with
    /// fresh-enough guidance.
    #[default]
    Healthy,
    /// Masks are dead-reckoned MAMT/MV predictions: the resilience
    /// policy believes the link is out, so nothing fresh can arrive.
    CoastingMamt,
    /// A degraded-tier (model-zoo) response was applied this frame:
    /// usable, but not the full model's answer.
    DegradedTier {
        /// Zoo tier that served the response.
        tier: String,
    },
    /// The edge's guidance has gone stale: transmissions went out since
    /// the last applied annotation, but nothing usable came back for
    /// longer than the staleness horizon.
    StaleGuidance {
        /// Time since the last applied annotation, ms.
        age_ms: f64,
    },
    /// The VO map is lost (was tracking earlier, is not now): masks are
    /// cache replays at best, and accuracy collapses until re-init.
    TrackingLost,
    /// The cold start: the tracker has never held a map (VO) or a mask
    /// cache (MV) since the run began, so the frame shows at most the
    /// last edge answer as it came, not live tracking.
    Bootstrapping,
    /// Tracking just came back after a loss: the map is rebuilding, so
    /// accuracy is still recovering (the "rebirth" half of the map
    /// death/rebirth cycle).
    Reinit,
    /// The edge shed this device's request for overload this frame.
    Shed,
    /// First frames on a new edge after a fleet handoff: the replica is
    /// cold for this tenant (residency transfer, no cached guidance).
    HandoffCold,
    /// A response was applied that only arrived thanks to the retry
    /// machinery — the frame is fine, but the link was not.
    RetryRecovered,
}

impl FrameOutcome {
    /// Canonical label order for reports (most upstream cause first).
    pub const LABELS: [&'static str; 10] = [
        "bootstrapping",
        "tracking_lost",
        "reinit",
        "coasting_mamt",
        "handoff_cold",
        "shed",
        "degraded_tier",
        "retry_recovered",
        "stale_guidance",
        "healthy",
    ];

    /// Stable snake_case label (aggregation key; variant payloads like
    /// the tier or staleness age do not split the group).
    pub fn label(&self) -> &'static str {
        match self {
            FrameOutcome::Healthy => "healthy",
            FrameOutcome::CoastingMamt => "coasting_mamt",
            FrameOutcome::DegradedTier { .. } => "degraded_tier",
            FrameOutcome::StaleGuidance { .. } => "stale_guidance",
            FrameOutcome::TrackingLost => "tracking_lost",
            FrameOutcome::Bootstrapping => "bootstrapping",
            FrameOutcome::Reinit => "reinit",
            FrameOutcome::Shed => "shed",
            FrameOutcome::HandoffCold => "handoff_cold",
            FrameOutcome::RetryRecovered => "retry_recovered",
        }
    }
}

/// Per-outcome-label aggregates over one report (see
/// [`Report::outcome_breakdown`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeSummary {
    /// Outcome label ([`FrameOutcome::label`]).
    pub label: String,
    /// Frames carrying this label.
    pub frames: u64,
    /// Scored IoU samples on those frames.
    pub iou_samples: u64,
    /// Mean IoU over those samples (0 when none were scored).
    pub mean_iou: f64,
    /// Mean mobile-side latency on those frames, ms.
    pub mean_mobile_ms: f64,
    /// Mean request→response round-trip on those frames, ms (over frames
    /// that applied a response; 0 when none did).
    pub mean_response_latency_ms: f64,
}

/// Everything recorded about one rendered frame.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Frame index.
    pub frame: u64,
    /// Virtual time, ms.
    pub time_ms: f64,
    /// IoU per scored ground-truth instance in this frame.
    pub ious: Vec<(u16, f64)>,
    /// Mobile-side processing latency, ms.
    pub mobile_ms: f64,
    /// Bytes sent uplink for this frame (0 when not transmitted).
    pub tx_bytes: usize,
    /// Whether this frame was offloaded.
    pub transmitted: bool,
    /// How many frames behind the rendered result was (backlog staleness).
    pub stale_frames: usize,
    /// Measured wall-clock per pipeline stage (zero for dropped frames).
    pub stages: StageBreakdownMs,
    /// Virtual time a delivered edge response spent waiting in the edge
    /// queue before its GPU work started, ms (worst response applied this
    /// frame). `None` when no response arrived this frame. This is
    /// simulated-clock time, so it lives beside — not inside — the
    /// host-wall-clock [`Self::stages`] breakdown.
    pub edge_queue_wait_ms: Option<f64>,
    /// Virtual request→response round-trip of a delivered edge response
    /// (uplink + queue + inference + downlink), ms (worst response applied
    /// this frame). `None` when no response arrived this frame.
    pub response_latency_ms: Option<f64>,
    /// Deterministic conformance trace of this frame (all-default for
    /// dropped frames).
    /// Virtual-clock only — see [`crate::trace::FrameTrace`].
    pub trace: crate::trace::FrameTrace,
    /// Causal outcome of this frame (forensics). Deliberately *not* part of
    /// [`crate::trace::FrameTrace`]: goldens and trace digests stay
    /// byte-identical whether forensics runs or not.
    pub outcome: FrameOutcome,
}

/// Resilience accounting: what the mobile-side policy did about faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceStats {
    /// Requests that hit their response deadline without a usable answer.
    pub timeouts: u64,
    /// Requests re-sent after a timeout (bounded, backed off).
    pub retries: u64,
    /// Responses that arrived but were discarded as too stale.
    pub stale_drops: u64,
    /// Responses rejected by the wire decoder (corrupted payloads).
    pub corrupt_responses: u64,
    /// Overload-shed rejects received from the edge.
    pub shed_responses: u64,
    /// Applied responses the zoo served from a smaller tier than the full
    /// model (partial successes: usable, less accurate, never a miss).
    pub degraded_tier_responses: u64,
    /// Link probes sent while in the outage state.
    pub probes_sent: u64,
    /// Frames processed while the policy believed the link was down.
    pub outage_frames: u64,
    /// Outages detected (transitions into the outage state).
    pub outages_detected: u64,
    /// Recoveries completed (first good mask applied after an outage).
    pub recoveries: u64,
    /// Summed time from link-heal detection to the first good mask, ms.
    pub recovery_ms_total: f64,
}

impl ResilienceStats {
    /// Mean time from link-heal detection to the first applied mask, ms.
    pub fn mean_recovery_ms(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.recovery_ms_total / self.recoveries as f64
        }
    }

    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.stale_drops += other.stale_drops;
        self.corrupt_responses += other.corrupt_responses;
        self.shed_responses += other.shed_responses;
        self.degraded_tier_responses += other.degraded_tier_responses;
        self.probes_sent += other.probes_sent;
        self.outage_frames += other.outage_frames;
        self.outages_detected += other.outages_detected;
        self.recoveries += other.recoveries;
        self.recovery_ms_total += other.recovery_ms_total;
    }
}

/// Aggregated results of one experiment run.
#[derive(Debug, Clone)]
pub struct Report {
    /// System under test.
    pub system: String,
    /// Scenario description.
    pub scenario: String,
    /// Per-frame records.
    pub records: Vec<FrameRecord>,
    /// Resilience counters (all zero for systems without the policy).
    pub resilience: ResilienceStats,
}

impl Report {
    /// All per-instance IoU samples.
    pub fn iou_samples(&self) -> Vec<f64> {
        self.records
            .iter()
            .flat_map(|r| r.ious.iter().map(|&(_, v)| v))
            .collect()
    }

    /// Mean IoU over all instance samples (0 when nothing was scored).
    pub fn mean_iou(&self) -> f64 {
        let s = self.iou_samples();
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// Fraction of samples below an IoU threshold — the paper's "false
    /// rate" (strict threshold 0.75, loose 0.5).
    pub fn false_rate(&self, threshold: f64) -> f64 {
        let s = self.iou_samples();
        if s.is_empty() {
            return 1.0;
        }
        s.iter().filter(|&&v| v < threshold).count() as f64 / s.len() as f64
    }

    /// Empirical CDF of IoU, sampled at `bins` evenly spaced thresholds in
    /// `[0, 1]`; returns `(threshold, fraction ≤ threshold)` pairs
    /// (Fig. 9's axes).
    pub fn iou_cdf(&self, bins: usize) -> Vec<(f64, f64)> {
        let mut s = self.iou_samples();
        s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = s.len().max(1) as f64;
        (0..=bins)
            .map(|i| {
                let thr = i as f64 / bins as f64;
                let count = s.iter().filter(|&&v| v <= thr).count();
                (thr, count as f64 / n)
            })
            .collect()
    }

    /// Mean mobile-side latency per frame, ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.mobile_ms).sum::<f64>() / self.records.len() as f64
    }

    /// Total uplink traffic in bytes.
    pub fn total_tx_bytes(&self) -> usize {
        self.records.iter().map(|r| r.tx_bytes).sum()
    }

    /// Fraction of frames transmitted.
    pub fn transmit_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.transmitted).count() as f64 / self.records.len() as f64
    }

    /// Mean uplink bandwidth in Mbit/s given the camera frame rate.
    pub fn mean_uplink_mbps(&self, fps: f64) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let seconds = self.records.len() as f64 / fps;
        self.total_tx_bytes() as f64 * 8.0 / 1e6 / seconds
    }

    /// Mean IoU over samples whose frame time falls in `[t0_ms, t1_ms)` —
    /// e.g. the accuracy inside a scripted outage window.
    pub fn mean_iou_in_window(&self, t0_ms: f64, t1_ms: f64) -> f64 {
        let samples: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.time_ms >= t0_ms && r.time_ms < t1_ms)
            .flat_map(|r| r.ious.iter().map(|&(_, v)| v))
            .collect();
        if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        }
    }

    /// Frames after `after_ms` until the per-frame mean IoU first reaches
    /// `target_iou` (`None` if it never does). Frames without scored
    /// instances are skipped, not counted as recovered.
    pub fn frames_to_recover(&self, after_ms: f64, target_iou: f64) -> Option<usize> {
        self.records
            .iter()
            .filter(|r| r.time_ms >= after_ms)
            .position(|r| {
                !r.ious.is_empty()
                    && r.ious.iter().map(|&(_, v)| v).sum::<f64>() / r.ious.len() as f64
                        >= target_iou
            })
    }

    /// Per-stage p50/p95/mean over frames that were actually processed
    /// (dropped frames carry all-zero stage rows and are excluded so they
    /// do not drag the percentiles down).
    /// Percentiles come from the shared log-scale
    /// [`edgeis_telemetry::Histogram`] (one merge-able type for every
    /// latency aggregate in the repo): exact at the extremes (min/max),
    /// within one ~7.5% bucket width mid-distribution.
    pub fn stage_summaries(&self) -> Vec<StageSummary> {
        let rows: Vec<[f64; 7]> = self
            .records
            .iter()
            .map(|r| r.stages.as_array())
            .filter(|row| row.iter().any(|&v| v > 0.0))
            .collect();
        StageBreakdownMs::NAMES
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let samples: Vec<f64> = rows.iter().map(|row| row[i]).collect();
                let hist = edgeis_telemetry::Histogram::from_samples(&samples);
                StageSummary {
                    stage: (*name).to_string(),
                    p50_ms: hist.quantile(0.5),
                    p95_ms: hist.quantile(0.95),
                    mean_ms: hist.mean(),
                }
            })
            .collect()
    }

    /// Mean measured wall-clock per frame (sum of all stages), ms — the
    /// end-to-end compute cost the stage timers account for.
    pub fn mean_stage_total_ms(&self) -> f64 {
        let totals: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.stages.total_ms())
            .filter(|&v| v > 0.0)
            .collect();
        if totals.is_empty() {
            0.0
        } else {
            totals.iter().sum::<f64>() / totals.len() as f64
        }
    }

    /// Edge queue-wait samples of every frame that applied a response, ms.
    pub fn edge_queue_wait_samples(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.edge_queue_wait_ms)
            .collect()
    }

    /// Mean edge queue wait over frames that applied a response, ms.
    pub fn mean_edge_queue_wait_ms(&self) -> f64 {
        let s = self.edge_queue_wait_samples();
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// Request→response round-trip samples of every frame that applied a
    /// response, ms.
    pub fn response_latency_samples(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.response_latency_ms)
            .collect()
    }

    /// Nearest-rank percentile of the response round-trip, ms (0 when no
    /// responses were delivered). Served by the shared log-scale
    /// [`edgeis_telemetry::Histogram`]: exact at the extremes, within one
    /// ~7.5% bucket width mid-distribution.
    pub fn response_latency_percentile(&self, q: f64) -> f64 {
        edgeis_telemetry::Histogram::from_samples(&self.response_latency_samples()).quantile(q)
    }

    /// Duration of every completed outage episode visible in the frame
    /// traces, ms: from the frame whose post-delivery health first reads
    /// `"outage"` to the next frame whose health reads `"healthy"` again.
    /// Episodes still open at the end of the run are excluded — recovery
    /// SLOs are about recoveries that happened.
    pub fn outage_recovery_times_ms(&self) -> Vec<f64> {
        let mut times = Vec::new();
        let mut outage_since: Option<f64> = None;
        for r in &self.records {
            match (&outage_since, r.trace.health.as_str()) {
                (None, "outage") => outage_since = Some(r.time_ms),
                (Some(t0), "healthy") => {
                    times.push(r.time_ms - t0);
                    outage_since = None;
                }
                _ => {}
            }
        }
        times
    }

    /// Duration of every completed service-degradation episode, ms: from
    /// the frame whose post-delivery health first leaves `"healthy"`
    /// (degraded, outage or recovering) to the frame where it reads
    /// `"healthy"` again. A crash of a *remote edge* behind a healthy
    /// link never sits in trace-level `"outage"` — the link probe
    /// succeeds on the very frame the outage is declared, so the machine
    /// oscillates degraded/recovering instead — which is why the
    /// failover SLO pools this broader episode definition rather than
    /// [`Report::outage_recovery_times_ms`]. Open episodes at run end
    /// are excluded.
    pub fn unhealthy_episode_times_ms(&self) -> Vec<f64> {
        let mut times = Vec::new();
        let mut unhealthy_since: Option<f64> = None;
        for r in &self.records {
            match (&unhealthy_since, r.trace.health.as_str()) {
                (_, "") => {}
                (None, "healthy") => {}
                (None, _) => unhealthy_since = Some(r.time_ms),
                (Some(t0), "healthy") => {
                    times.push(r.time_ms - t0);
                    unhealthy_since = None;
                }
                _ => {}
            }
        }
        times
    }

    /// Per-outcome-label aggregates (frames, IoU, latency), in the
    /// canonical [`FrameOutcome::LABELS`] order; labels with no frames
    /// are omitted. This is the forensics summary `edgeis_ops` builds
    /// its attribution from.
    pub fn outcome_breakdown(&self) -> Vec<OutcomeSummary> {
        FrameOutcome::LABELS
            .iter()
            .filter_map(|&label| {
                let frames: Vec<&FrameRecord> = self
                    .records
                    .iter()
                    .filter(|r| r.outcome.label() == label)
                    .collect();
                if frames.is_empty() {
                    return None;
                }
                let ious: Vec<f64> = frames
                    .iter()
                    .flat_map(|r| r.ious.iter().map(|&(_, v)| v))
                    .collect();
                let latencies: Vec<f64> = frames
                    .iter()
                    .filter_map(|r| r.response_latency_ms)
                    .collect();
                let mean = |s: &[f64]| {
                    if s.is_empty() {
                        0.0
                    } else {
                        s.iter().sum::<f64>() / s.len() as f64
                    }
                };
                Some(OutcomeSummary {
                    label: label.to_string(),
                    frames: frames.len() as u64,
                    iou_samples: ious.len() as u64,
                    mean_iou: mean(&ious),
                    mean_mobile_ms: mean(&frames.iter().map(|r| r.mobile_ms).collect::<Vec<f64>>()),
                    mean_response_latency_ms: mean(&latencies),
                })
            })
            .collect()
    }

    /// Merges several runs (e.g. different seeds) into one pooled report.
    pub fn pooled(system: &str, scenario: &str, reports: &[Report]) -> Report {
        let mut resilience = ResilienceStats::default();
        for r in reports {
            resilience.merge(&r.resilience);
        }
        Report {
            system: system.to_string(),
            scenario: scenario.to_string(),
            records: reports.iter().flat_map(|r| r.records.clone()).collect(),
            resilience,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(ious: &[f64], mobile_ms: f64, tx: usize) -> FrameRecord {
        FrameRecord {
            frame: 0,
            time_ms: 0.0,
            ious: ious.iter().map(|&v| (1u16, v)).collect(),
            mobile_ms,
            tx_bytes: tx,
            transmitted: tx > 0,
            stale_frames: 0,
            stages: StageBreakdownMs::default(),
            edge_queue_wait_ms: None,
            response_latency_ms: None,
            trace: crate::trace::FrameTrace::default(),
            outcome: FrameOutcome::default(),
        }
    }

    fn report(records: Vec<FrameRecord>) -> Report {
        Report {
            system: "t".into(),
            scenario: "s".into(),
            records,
            resilience: ResilienceStats::default(),
        }
    }

    #[test]
    fn outage_recovery_times_span_outage_to_healthy() {
        let health_record = |time_ms: f64, health: &str| {
            let mut r = record(&[], 10.0, 0);
            r.time_ms = time_ms;
            r.trace.health = health.to_string();
            r
        };
        // healthy → outage(100..400) → healthy → degraded noise →
        // outage(900..) never recovered: exactly one closed episode.
        let r = report(vec![
            health_record(0.0, "healthy"),
            health_record(100.0, "outage"),
            health_record(200.0, "outage"),
            health_record(300.0, "recovering"),
            health_record(400.0, "healthy"),
            health_record(500.0, "degraded"),
            health_record(900.0, "outage"),
            health_record(1000.0, "outage"),
        ]);
        assert_eq!(r.outage_recovery_times_ms(), vec![300.0]);
        // Two fully recovered episodes count separately.
        let r2 = report(vec![
            health_record(100.0, "outage"),
            health_record(250.0, "healthy"),
            health_record(600.0, "outage"),
            health_record(1000.0, "healthy"),
        ]);
        assert_eq!(r2.outage_recovery_times_ms(), vec![150.0, 400.0]);
        assert!(report(vec![]).outage_recovery_times_ms().is_empty());
    }

    #[test]
    fn unhealthy_episodes_span_any_degradation_to_healthy() {
        let health_record = |time_ms: f64, health: &str| {
            let mut r = record(&[], 10.0, 0);
            r.time_ms = time_ms;
            r.trace.health = health.to_string();
            r
        };
        // A remote-edge crash pattern: degraded → recovering churn with
        // no trace-level outage frame at all, then healed; later a noise
        // blip; finally an open episode that must not count.
        let r = report(vec![
            health_record(0.0, "healthy"),
            health_record(100.0, "degraded"),
            health_record(200.0, "recovering"),
            health_record(300.0, "degraded"),
            health_record(600.0, "healthy"),
            health_record(700.0, ""),
            health_record(800.0, "degraded"),
            health_record(900.0, "healthy"),
            health_record(1000.0, "degraded"),
        ]);
        assert_eq!(r.unhealthy_episode_times_ms(), vec![500.0, 100.0]);
        // The same trace shows zero closed trace-level outages.
        assert!(r.outage_recovery_times_ms().is_empty());
        assert!(report(vec![]).unhealthy_episode_times_ms().is_empty());
    }

    #[test]
    fn mean_and_false_rate() {
        let r = report(vec![record(&[0.9, 0.8], 10.0, 0), record(&[0.4], 10.0, 0)]);
        assert!((r.mean_iou() - 0.7).abs() < 1e-12);
        assert!((r.false_rate(0.75) - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.false_rate(0.5) - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.false_rate(0.95) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_degenerates_safely() {
        let r = report(vec![]);
        assert_eq!(r.mean_iou(), 0.0);
        assert_eq!(r.false_rate(0.5), 1.0);
        assert_eq!(r.mean_latency_ms(), 0.0);
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let r = report(vec![record(&[0.2, 0.5, 0.9, 0.95], 0.0, 0)]);
        let cdf = r.iou_cdf(10);
        assert_eq!(cdf.first().unwrap().1, 0.0);
        assert_eq!(cdf.last().unwrap().1, 1.0);
        for w in cdf.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    fn traffic_accounting() {
        let r = report(vec![record(&[1.0], 20.0, 50_000), record(&[1.0], 30.0, 0)]);
        assert_eq!(r.total_tx_bytes(), 50_000);
        assert_eq!(r.transmit_fraction(), 0.5);
        assert!((r.mean_latency_ms() - 25.0).abs() < 1e-12);
        // 2 frames at 30 fps = 1/15 s; 50 kB = 0.4 Mbit -> 6 Mbps.
        assert!((r.mean_uplink_mbps(30.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_iou_and_recovery() {
        let mut records = Vec::new();
        for i in 0..10u64 {
            let v = if i < 5 { 0.2 } else { 0.8 };
            let mut rec = record(&[v], 0.0, 0);
            rec.frame = i;
            rec.time_ms = i as f64 * 100.0;
            records.push(rec);
        }
        let r = report(records);
        assert!((r.mean_iou_in_window(0.0, 500.0) - 0.2).abs() < 1e-12);
        assert!((r.mean_iou_in_window(500.0, 1000.0) - 0.8).abs() < 1e-12);
        assert_eq!(r.frames_to_recover(0.0, 0.75), Some(5));
        assert_eq!(r.frames_to_recover(500.0, 0.75), Some(0));
        assert_eq!(r.frames_to_recover(0.0, 0.95), None);
    }

    #[test]
    fn resilience_merge_adds_counters() {
        let mut a = ResilienceStats {
            timeouts: 2,
            retries: 1,
            recoveries: 1,
            recovery_ms_total: 300.0,
            ..Default::default()
        };
        let b = ResilienceStats {
            timeouts: 3,
            stale_drops: 4,
            recoveries: 1,
            recovery_ms_total: 100.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.timeouts, 5);
        assert_eq!(a.stale_drops, 4);
        assert!((a.mean_recovery_ms() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let s = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.5), 2.0);
        assert_eq!(percentile(&s, 0.95), 4.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn percentile_edge_cases() {
        // q = 0.0 is the minimum (rank clamps to 1, never an OOB rank 0)
        // and q = 1.0 the maximum.
        let s = [5.0, 9.0, 7.0];
        assert_eq!(percentile(&s, 0.0), 5.0);
        assert_eq!(percentile(&s, 1.0), 9.0);
        // A single sample answers every quantile.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], q), 42.0);
        }
        // NaN sorts after every finite value and +inf (total_cmp order):
        // it can only surface at the top ranks, and the rest of the
        // distribution stays correct.
        let with_nan = [2.0, f64::NAN, 1.0, 3.0];
        assert_eq!(percentile(&with_nan, 0.25), 1.0);
        assert_eq!(percentile(&with_nan, 0.5), 2.0);
        assert_eq!(percentile(&with_nan, 0.75), 3.0);
        assert!(percentile(&with_nan, 1.0).is_nan());
    }

    #[test]
    fn stage_summaries_skip_dropped_frames() {
        let mut a = record(&[1.0], 10.0, 0);
        a.stages = StageBreakdownMs {
            detect: 2.0,
            matching: 1.0,
            ..Default::default()
        };
        let mut b = record(&[1.0], 10.0, 0);
        b.stages = StageBreakdownMs {
            detect: 4.0,
            matching: 3.0,
            ..Default::default()
        };
        // All-zero row = dropped frame, must not dilute the stats.
        let dropped = record(&[1.0], 10.0, 0);
        let r = report(vec![a, b, dropped]);
        let summaries = r.stage_summaries();
        assert_eq!(summaries.len(), StageBreakdownMs::NAMES.len());
        let detect = summaries.iter().find(|s| s.stage == "detect").unwrap();
        assert_eq!(detect.p50_ms, 2.0);
        assert_eq!(detect.p95_ms, 4.0);
        assert!((detect.mean_ms - 3.0).abs() < 1e-12);
        assert!((r.mean_stage_total_ms() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn stage_breakdown_array_matches_names() {
        let s = StageBreakdownMs {
            detect: 1.0,
            matching: 2.0,
            ba: 3.0,
            transfer: 4.0,
            encode: 5.0,
            edge_infer: 6.0,
            decode_apply: 7.0,
        };
        assert_eq!(s.as_array(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(StageBreakdownMs::NAMES.len(), s.as_array().len());
        assert!((s.total_ms() - 28.0).abs() < 1e-12);
        assert_eq!(StageBreakdownMs::default().total_ms(), 0.0);
    }

    #[test]
    fn edge_latency_aggregates_skip_frames_without_responses() {
        let mut a = record(&[1.0], 10.0, 0);
        a.edge_queue_wait_ms = Some(4.0);
        a.response_latency_ms = Some(100.0);
        let mut b = record(&[1.0], 10.0, 0);
        b.edge_queue_wait_ms = Some(8.0);
        b.response_latency_ms = Some(300.0);
        // No response this frame: must not drag the means to zero.
        let idle = record(&[1.0], 10.0, 0);
        let r = report(vec![a, b, idle]);
        assert_eq!(r.edge_queue_wait_samples().len(), 2);
        assert!((r.mean_edge_queue_wait_ms() - 6.0).abs() < 1e-12);
        assert_eq!(r.response_latency_samples(), vec![100.0, 300.0]);
        assert_eq!(r.response_latency_percentile(0.5), 100.0);
        assert_eq!(r.response_latency_percentile(0.99), 300.0);
        let empty = report(vec![record(&[1.0], 0.0, 0)]);
        assert_eq!(empty.mean_edge_queue_wait_ms(), 0.0);
        assert_eq!(empty.response_latency_percentile(0.99), 0.0);
    }

    #[test]
    fn outcome_breakdown_groups_and_orders_labels() {
        let mut lost = record(&[0.0, 0.1], 12.0, 0);
        lost.outcome = FrameOutcome::TrackingLost;
        let mut reinit = record(&[0.3], 10.0, 0);
        reinit.outcome = FrameOutcome::Reinit;
        let mut degraded = record(&[0.6], 8.0, 0);
        degraded.outcome = FrameOutcome::DegradedTier {
            tier: "yolact".into(),
        };
        degraded.response_latency_ms = Some(120.0);
        let healthy_a = record(&[0.9], 10.0, 0);
        let healthy_b = record(&[0.7], 14.0, 0);
        let r = report(vec![lost, reinit, degraded, healthy_a, healthy_b]);
        let rows = r.outcome_breakdown();
        let labels: Vec<&str> = rows.iter().map(|s| s.label.as_str()).collect();
        // Canonical order, absent labels omitted.
        assert_eq!(
            labels,
            vec!["tracking_lost", "reinit", "degraded_tier", "healthy"]
        );
        let lost_row = &rows[0];
        assert_eq!(lost_row.frames, 1);
        assert_eq!(lost_row.iou_samples, 2);
        assert!((lost_row.mean_iou - 0.05).abs() < 1e-12);
        assert!((lost_row.mean_mobile_ms - 12.0).abs() < 1e-12);
        let degraded_row = rows.iter().find(|s| s.label == "degraded_tier").unwrap();
        assert!((degraded_row.mean_response_latency_ms - 120.0).abs() < 1e-12);
        let healthy_row = rows.iter().find(|s| s.label == "healthy").unwrap();
        assert_eq!(healthy_row.frames, 2);
        assert!((healthy_row.mean_iou - 0.8).abs() < 1e-12);
        // Payload variants aggregate under one label.
        assert_eq!(
            FrameOutcome::StaleGuidance { age_ms: 5.0 }.label(),
            FrameOutcome::StaleGuidance { age_ms: 900.0 }.label()
        );
        assert_eq!(FrameOutcome::default().label(), "healthy");
        assert_eq!(FrameOutcome::LABELS.len(), 10);
    }

    #[test]
    fn pooled_concatenates() {
        let a = report(vec![record(&[0.9], 0.0, 0)]);
        let b = report(vec![record(&[0.5], 0.0, 0)]);
        let p = Report::pooled("x", "y", &[a, b]);
        assert_eq!(p.records.len(), 2);
        assert!((p.mean_iou() - 0.7).abs() < 1e-12);
    }
}
