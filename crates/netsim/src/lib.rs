//! Network link models over a virtual clock.
//!
//! The paper evaluates under WiFi 2.4 GHz, WiFi 5 GHz and LTE (§VI-C2,
//! §VI-G). Transmission latency — the quantity the evaluation varies — is
//! modeled as queueing + serialization + propagation with deterministic
//! seeded jitter and loss-induced retransmission, over a virtual clock so
//! every experiment is reproducible.
//!
//! Beyond the benign model, a [`FaultSchedule`] scripts hostile link
//! behaviour — total outage windows, bandwidth collapse, RTT spikes,
//! response drops and payload corruption — all seeded, so a run under
//! faults is exactly as reproducible as a clean one.
//!
//! A [`Link`] can carry an [`edgeis_telemetry::Telemetry`] handle
//! ([`Link::set_telemetry`]): every shaped transfer then emits a
//! `net.uplink`/`net.downlink` span under the ambient frame context.
//! Telemetry is a pure observer — it reads the computed times and never
//! touches the RNG stream, the queues, or the arrival math.

use edgeis_rng::StdRng;
use edgeis_telemetry::{ArgValue, Telemetry};

/// Virtual time in milliseconds.
pub type SimMs = f64;

/// The network types of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// 2.4 GHz WiFi: moderate bandwidth, more contention jitter.
    Wifi24,
    /// 5 GHz WiFi: high bandwidth, low jitter.
    Wifi5,
    /// LTE: lower uplink bandwidth, higher RTT (the oil-field deployment).
    Lte,
    /// A custom link.
    Custom,
}

/// Link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkProfile {
    /// Which preset this is.
    pub kind: LinkKind,
    /// Uplink bandwidth in Mbit/s.
    pub uplink_mbps: f64,
    /// Downlink bandwidth in Mbit/s.
    pub downlink_mbps: f64,
    /// One-way base latency, ms.
    pub base_latency_ms: f64,
    /// Uniform jitter half-width, ms.
    pub jitter_ms: f64,
    /// Packet/burst loss probability per transfer (triggers one
    /// retransmission of the affected tail).
    pub loss: f64,
}

impl LinkProfile {
    /// Preset for a link kind (calibrated to typical effective-throughput
    /// figures for a busy single client: WiFi-5 ≈ 120 Mbps, WiFi-2.4 ≈ 35
    /// Mbps, LTE uplink ≈ 12 Mbps).
    pub fn of(kind: LinkKind) -> Self {
        match kind {
            LinkKind::Wifi24 => Self {
                kind,
                uplink_mbps: 35.0,
                downlink_mbps: 35.0,
                base_latency_ms: 4.0,
                jitter_ms: 4.0,
                loss: 0.015,
            },
            LinkKind::Wifi5 => Self {
                kind,
                uplink_mbps: 120.0,
                downlink_mbps: 120.0,
                base_latency_ms: 2.0,
                jitter_ms: 1.5,
                loss: 0.004,
            },
            LinkKind::Lte => Self {
                kind,
                uplink_mbps: 12.0,
                downlink_mbps: 40.0,
                base_latency_ms: 28.0,
                jitter_ms: 10.0,
                loss: 0.02,
            },
            LinkKind::Custom => Self {
                kind,
                uplink_mbps: 50.0,
                downlink_mbps: 50.0,
                base_latency_ms: 5.0,
                jitter_ms: 2.0,
                loss: 0.0,
            },
        }
    }
}

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Mobile → edge (frames).
    Uplink,
    /// Edge → mobile (masks / contours).
    Downlink,
}

/// One kind of scripted link fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkFault {
    /// Total outage: every transfer started inside the window is lost.
    Outage,
    /// Both directions' bandwidth is multiplied by this factor (< 1).
    BandwidthFactor(f64),
    /// Extra one-way latency added to every transfer, ms.
    ExtraLatencyMs(f64),
    /// Each downlink transfer is silently dropped with this probability
    /// (the uplink request succeeded; the response never arrives).
    DropResponse(f64),
    /// Each transfer is delivered but its payload is bit-corrupted with
    /// this probability.
    Corrupt(f64),
}

/// A fault active over `[start_ms, end_ms)` of the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive), ms.
    pub start_ms: SimMs,
    /// Window end (exclusive), ms.
    pub end_ms: SimMs,
    /// What goes wrong inside the window.
    pub fault: LinkFault,
}

impl FaultWindow {
    /// Whether the window covers virtual time `at`.
    pub fn contains(&self, at: SimMs) -> bool {
        at >= self.start_ms && at < self.end_ms
    }
}

/// A scripted, seeded fault plan for one link. Faults are evaluated at the
/// send time of each transfer; probabilistic faults (drops, corruption)
/// draw from a dedicated RNG so the jitter stream is not perturbed and the
/// whole schedule is reproducible from its seed.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    windows: Vec<FaultWindow>,
    rng: StdRng,
}

impl FaultSchedule {
    /// An empty schedule drawing probabilistic faults from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            windows: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Adds an arbitrary fault window.
    pub fn with_window(mut self, window: FaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Adds a total outage over `[start_ms, end_ms)`.
    pub fn outage(self, start_ms: SimMs, end_ms: SimMs) -> Self {
        self.with_window(FaultWindow {
            start_ms,
            end_ms,
            fault: LinkFault::Outage,
        })
    }

    /// Adds a bandwidth collapse (both directions scaled by `factor`).
    pub fn bandwidth_collapse(self, start_ms: SimMs, end_ms: SimMs, factor: f64) -> Self {
        self.with_window(FaultWindow {
            start_ms,
            end_ms,
            fault: LinkFault::BandwidthFactor(factor),
        })
    }

    /// Adds an RTT spike (`extra_ms` added one-way).
    pub fn rtt_spike(self, start_ms: SimMs, end_ms: SimMs, extra_ms: f64) -> Self {
        self.with_window(FaultWindow {
            start_ms,
            end_ms,
            fault: LinkFault::ExtraLatencyMs(extra_ms),
        })
    }

    /// Adds probabilistic downlink response drops.
    pub fn drop_responses(self, start_ms: SimMs, end_ms: SimMs, probability: f64) -> Self {
        self.with_window(FaultWindow {
            start_ms,
            end_ms,
            fault: LinkFault::DropResponse(probability),
        })
    }

    /// Adds probabilistic payload corruption.
    pub fn corruption(self, start_ms: SimMs, end_ms: SimMs, probability: f64) -> Self {
        self.with_window(FaultWindow {
            start_ms,
            end_ms,
            fault: LinkFault::Corrupt(probability),
        })
    }

    /// The scripted windows.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// The same scripted windows with a fresh probabilistic stream — use
    /// when installing one plan on several links (e.g. a device fleet) so
    /// their drop/corruption rolls stay independent.
    pub fn reseeded(&self, seed: u64) -> Self {
        Self {
            windows: self.windows.clone(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Whether a total outage covers virtual time `at`.
    pub fn is_outage(&self, at: SimMs) -> bool {
        self.windows
            .iter()
            .any(|w| matches!(w.fault, LinkFault::Outage) && w.contains(at))
    }

    /// Deterministic (bandwidth factor, extra latency) modifiers at `at`.
    fn modifiers(&self, at: SimMs) -> (f64, f64) {
        let mut bw = 1.0;
        let mut extra = 0.0;
        for w in self.windows.iter().filter(|w| w.contains(at)) {
            match w.fault {
                LinkFault::BandwidthFactor(f) => bw *= f.max(1e-6),
                LinkFault::ExtraLatencyMs(ms) => extra += ms,
                _ => {}
            }
        }
        (bw, extra)
    }

    /// Rolls the probabilistic drop fault for a transfer sent at `at`.
    fn roll_drop(&mut self, at: SimMs, dir: Direction) -> bool {
        if dir != Direction::Downlink {
            return false;
        }
        let mut p = 0.0f64;
        for w in self.windows.iter().filter(|w| w.contains(at)) {
            if let LinkFault::DropResponse(q) = w.fault {
                p = p.max(q);
            }
        }
        p > 0.0 && self.rng.random_bool(p.clamp(0.0, 1.0))
    }

    /// Rolls the probabilistic corruption fault for a transfer sent at `at`.
    fn roll_corrupt(&mut self, at: SimMs) -> bool {
        let mut p = 0.0f64;
        for w in self.windows.iter().filter(|w| w.contains(at)) {
            if let LinkFault::Corrupt(q) = w.fault {
                p = p.max(q);
            }
        }
        p > 0.0 && self.rng.random_bool(p.clamp(0.0, 1.0))
    }
}

/// One kind of scripted fault against a *named edge node* (as opposed to
/// [`LinkFault`], which scripts a device's link). Edge faults drive the
/// fleet tier: a crash takes the whole node down for its window, a
/// brownout slows it without killing it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeFaultKind {
    /// The node's process dies for the window; it serves again
    /// `restart_ms` after the window ends. `cold_cache` restarts come
    /// back with no warm per-device state (model residency must be paid
    /// again); warm restarts keep residency but still lose in-flight
    /// work.
    Crash {
        /// Extra model-reload time after the window closes, ms.
        restart_ms: SimMs,
        /// Whether the restart wipes per-device warm state.
        cold_cache: bool,
    },
    /// Service times on the node are multiplied by this factor (≥ 1)
    /// inside the window — thermal throttling, a noisy co-tenant.
    Brownout(f64),
}

/// An edge fault active on one named edge over `[start_ms, end_ms)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeFaultWindow {
    /// Index of the edge node the fault applies to.
    pub edge: usize,
    /// Window start (inclusive), ms.
    pub start_ms: SimMs,
    /// Window end (exclusive), ms.
    pub end_ms: SimMs,
    /// What goes wrong inside the window.
    pub kind: EdgeFaultKind,
}

impl EdgeFaultWindow {
    /// Whether the window covers virtual time `at`.
    pub fn contains(&self, at: SimMs) -> bool {
        at >= self.start_ms && at < self.end_ms
    }
}

/// A scripted fault plan for a *fleet of named edges*: the edge-side
/// sibling of [`FaultSchedule`]. Purely deterministic (no probabilistic
/// faults — a node is either scripted down/slow at `t` or it is not), so
/// a chaos run is exactly reproducible and the checker can reason about
/// which edges were clean.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeFaultScript {
    windows: Vec<EdgeFaultWindow>,
}

impl EdgeFaultScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary fault window.
    pub fn with_window(mut self, window: EdgeFaultWindow) -> Self {
        self.windows.push(window);
        self
    }

    /// Scripts a cold-cache crash of `edge` over `[start_ms, end_ms)`,
    /// restarting `restart_ms` after the window.
    pub fn crash(self, edge: usize, start_ms: SimMs, end_ms: SimMs, restart_ms: SimMs) -> Self {
        self.with_window(EdgeFaultWindow {
            edge,
            start_ms,
            end_ms,
            kind: EdgeFaultKind::Crash {
                restart_ms,
                cold_cache: true,
            },
        })
    }

    /// Scripts a warm-cache crash (residency survives the restart).
    pub fn warm_crash(
        self,
        edge: usize,
        start_ms: SimMs,
        end_ms: SimMs,
        restart_ms: SimMs,
    ) -> Self {
        self.with_window(EdgeFaultWindow {
            edge,
            start_ms,
            end_ms,
            kind: EdgeFaultKind::Crash {
                restart_ms,
                cold_cache: false,
            },
        })
    }

    /// Scripts a brownout of `edge` (service times × `factor`).
    pub fn brownout(self, edge: usize, start_ms: SimMs, end_ms: SimMs, factor: f64) -> Self {
        self.with_window(EdgeFaultWindow {
            edge,
            start_ms,
            end_ms,
            kind: EdgeFaultKind::Brownout(factor.max(1.0)),
        })
    }

    /// All scripted windows.
    pub fn windows(&self) -> &[EdgeFaultWindow] {
        &self.windows
    }

    /// The windows scripted against one edge.
    pub fn windows_for(&self, edge: usize) -> impl Iterator<Item = &EdgeFaultWindow> {
        self.windows.iter().filter(move |w| w.edge == edge)
    }

    /// Whether `edge` has any scripted fault at all.
    pub fn touches(&self, edge: usize) -> bool {
        self.windows.iter().any(|w| w.edge == edge)
    }

    /// Whether `edge` is crashed (scripted down) at virtual time `at`.
    pub fn crashed_at(&self, edge: usize, at: SimMs) -> bool {
        self.windows_for(edge)
            .any(|w| matches!(w.kind, EdgeFaultKind::Crash { .. }) && w.contains(at))
    }

    /// Compound brownout slowdown factor on `edge` at `at` (1.0 when
    /// nothing is scripted).
    pub fn slowdown_at(&self, edge: usize, at: SimMs) -> f64 {
        self.windows_for(edge)
            .filter(|w| w.contains(at))
            .map(|w| match w.kind {
                EdgeFaultKind::Brownout(f) => f.max(1.0),
                _ => 1.0,
            })
            .product()
    }

    /// The last instant any scripted fault (including restart spill-over)
    /// is still active — chaos generators keep this before the quiet tail
    /// so every device can return to `Healthy`.
    pub fn last_fault_ms(&self) -> SimMs {
        self.windows
            .iter()
            .map(|w| match w.kind {
                EdgeFaultKind::Crash { restart_ms, .. } => w.end_ms + restart_ms,
                EdgeFaultKind::Brownout(_) => w.end_ms,
            })
            .fold(0.0, f64::max)
    }
}

/// Outcome of a transfer routed through the fault schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delivery {
    /// Virtual arrival time.
    pub arrive_ms: SimMs,
    /// The payload arrived but its bytes are damaged; the receiver must
    /// reject it at decode time.
    pub corrupted: bool,
}

/// A bidirectional link with per-direction FIFO queues.
///
/// `transmit` returns the virtual arrival time of the payload, accounting
/// for the queue (a transfer cannot start before the previous one on the
/// same direction finished), serialization at the link bandwidth, base
/// propagation latency, jitter and loss-induced retransmission.
/// `transmit_faulty` additionally consults the installed [`FaultSchedule`].
#[derive(Debug, Clone)]
pub struct Link {
    profile: LinkProfile,
    rng: StdRng,
    up_busy_until: SimMs,
    down_busy_until: SimMs,
    faults: Option<FaultSchedule>,
    telemetry: Telemetry,
    telemetry_device: u64,
}

impl Link {
    /// Creates a link from a profile with a deterministic jitter seed.
    pub fn new(profile: LinkProfile, seed: u64) -> Self {
        Self {
            profile,
            rng: StdRng::seed_from_u64(seed),
            up_busy_until: 0.0,
            down_busy_until: 0.0,
            faults: None,
            telemetry: Telemetry::disabled(),
            telemetry_device: 0,
        }
    }

    /// Attaches a telemetry handle; shaped transfers emit
    /// `net.uplink`/`net.downlink` spans tagged with `device`.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, device: u64) {
        self.telemetry = telemetry;
        self.telemetry_device = device;
    }

    /// Preset constructor.
    pub fn of_kind(kind: LinkKind, seed: u64) -> Self {
        Self::new(LinkProfile::of(kind), seed)
    }

    /// The link profile.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Installs a scripted fault schedule consulted by `transmit_faulty`.
    pub fn set_faults(&mut self, schedule: FaultSchedule) {
        self.faults = Some(schedule);
    }

    /// The installed fault schedule, if any.
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// Whether the link is up (no outage window) at virtual time `at`.
    pub fn is_up(&self, at: SimMs) -> bool {
        self.faults.as_ref().is_none_or(|f| !f.is_outage(at))
    }

    /// Sends `bytes` at virtual time `now`; returns the arrival time.
    /// Ignores any installed fault schedule (benign path).
    pub fn transmit(&mut self, bytes: usize, now: SimMs, dir: Direction) -> SimMs {
        self.transmit_shaped(bytes, now, dir, 1.0, 0.0)
    }

    /// Sends `bytes` at virtual time `now` through the fault schedule.
    /// Returns `None` when the transfer is lost (outage at send time, or a
    /// probabilistic response drop); otherwise the delivery carries the
    /// arrival time and whether the payload was corrupted en route.
    /// Without an installed schedule this is `transmit` with a clean
    /// delivery.
    pub fn transmit_faulty(
        &mut self,
        bytes: usize,
        now: SimMs,
        dir: Direction,
    ) -> Option<Delivery> {
        let Some(mut faults) = self.faults.take() else {
            let arrive_ms = self.transmit(bytes, now, dir);
            return Some(Delivery {
                arrive_ms,
                corrupted: false,
            });
        };
        let result = if faults.is_outage(now) {
            // The radio is gone: nothing is serialized, the queue does not
            // advance, the payload is simply lost.
            None
        } else if faults.roll_drop(now, dir) {
            // The transfer occupies the channel before being lost.
            let (bw, extra) = faults.modifiers(now);
            let _ = self.transmit_shaped(bytes, now, dir, bw, extra);
            None
        } else {
            let (bw, extra) = faults.modifiers(now);
            let arrive_ms = self.transmit_shaped(bytes, now, dir, bw, extra);
            let corrupted = faults.roll_corrupt(now);
            Some(Delivery {
                arrive_ms,
                corrupted,
            })
        };
        self.faults = Some(faults);
        result
    }

    /// The shared queue/serialization/propagation model, with fault-window
    /// modifiers applied.
    fn transmit_shaped(
        &mut self,
        bytes: usize,
        now: SimMs,
        dir: Direction,
        bandwidth_factor: f64,
        extra_latency_ms: f64,
    ) -> SimMs {
        let (mbps, busy) = match dir {
            Direction::Uplink => (self.profile.uplink_mbps, &mut self.up_busy_until),
            Direction::Downlink => (self.profile.downlink_mbps, &mut self.down_busy_until),
        };
        let mbps = (mbps * bandwidth_factor).max(1e-6);
        let start = now.max(*busy);
        let serialize_ms = (bytes as f64 * 8.0) / (mbps * 1000.0);
        let mut finish = start + serialize_ms;
        // Loss: retransmit a random tail fraction once.
        if self.profile.loss > 0.0 && self.rng.random_bool(self.profile.loss.clamp(0.0, 1.0)) {
            let tail: f64 = self.rng.random_range(0.1..0.6);
            finish += serialize_ms * tail + self.profile.base_latency_ms;
        }
        *busy = finish;
        let jitter = if self.profile.jitter_ms > 0.0 {
            self.rng.random_range(0.0..self.profile.jitter_ms)
        } else {
            0.0
        };
        let arrive = finish + self.profile.base_latency_ms + extra_latency_ms + jitter;
        if self.telemetry.is_enabled() {
            let name = match dir {
                Direction::Uplink => "net.uplink",
                Direction::Downlink => "net.downlink",
            };
            self.telemetry.emit_span_current(
                name,
                self.telemetry_device,
                start,
                arrive,
                vec![
                    ("bytes", ArgValue::U64(bytes as u64)),
                    ("queue_ms", ArgValue::F64(start - now)),
                    ("serialize_ms", ArgValue::F64(serialize_ms)),
                ],
            );
        }
        arrive
    }

    /// Expected (jitter-free, loss-free) one-way latency for a payload.
    pub fn nominal_latency_ms(&self, bytes: usize, dir: Direction) -> SimMs {
        let mbps = match dir {
            Direction::Uplink => self.profile.uplink_mbps,
            Direction::Downlink => self.profile.downlink_mbps,
        };
        (bytes as f64 * 8.0) / (mbps * 1000.0) + self.profile.base_latency_ms
    }
}

/// A fixed set of virtual service lanes (e.g. GPU streams on a shared
/// edge) with per-lane FIFO occupancy and cumulative queue accounting on
/// the virtual clock.
///
/// A lane is a one-at-a-time server: `occupy` starts service at
/// `max(arrival, busy_until)` like [`Link::transmit`]'s direction queues,
/// and `extend` stretches the current occupancy outward (a batch member
/// joining an in-flight batch). The struct only does time bookkeeping —
/// what "service" means (inference, serialization, …) is the caller's
/// business.
#[derive(Debug, Clone)]
pub struct LaneSet {
    busy_until: Vec<SimMs>,
    served: Vec<u64>,
    wait_ms: Vec<f64>,
    busy_ms: Vec<f64>,
}

impl LaneSet {
    /// Creates `n` idle lanes (`n` is clamped to at least 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        Self {
            busy_until: vec![0.0; n],
            served: vec![0; n],
            wait_ms: vec![0.0; n],
            busy_ms: vec![0.0; n],
        }
    }

    /// Number of lanes.
    pub fn len(&self) -> usize {
        self.busy_until.len()
    }

    /// Always false: `new` clamps to at least one lane.
    pub fn is_empty(&self) -> bool {
        self.busy_until.is_empty()
    }

    /// When `lane` frees up.
    pub fn busy_until(&self, lane: usize) -> SimMs {
        self.busy_until[lane]
    }

    /// FIFO-occupies `lane` for `service_ms`, starting no earlier than
    /// `arrival`. Returns `(start, finish)`; the queue wait
    /// `start - arrival` and the busy time are added to the lane's
    /// cumulative accounting.
    pub fn occupy(&mut self, lane: usize, arrival: SimMs, service_ms: f64) -> (SimMs, SimMs) {
        let start = arrival.max(self.busy_until[lane]);
        let finish = start + service_ms;
        self.busy_until[lane] = finish;
        self.served[lane] += 1;
        self.wait_ms[lane] += start - arrival;
        self.busy_ms[lane] += service_ms;
        (start, finish)
    }

    /// Stretches `lane`'s current occupancy by `extra_ms` (a request
    /// joining an in-flight batch), charging `wait_ms` of queue wait to
    /// the joiner. Returns the new finish time.
    pub fn extend(&mut self, lane: usize, extra_ms: f64, wait_ms: f64) -> SimMs {
        self.busy_until[lane] += extra_ms;
        self.served[lane] += 1;
        self.wait_ms[lane] += wait_ms;
        self.busy_ms[lane] += extra_ms;
        self.busy_until[lane]
    }

    /// Raises every lane's horizon to at least `until` (an edge crash
    /// stalls all lanes until the restart completes).
    pub fn bump_all(&mut self, until: SimMs) {
        for b in &mut self.busy_until {
            *b = b.max(until);
        }
    }

    /// Requests served by `lane`.
    pub fn served(&self, lane: usize) -> u64 {
        self.served[lane]
    }

    /// Requests served across all lanes.
    pub fn total_served(&self) -> u64 {
        self.served.iter().sum()
    }

    /// Cumulative queue wait endured by requests on `lane`, ms.
    pub fn queue_wait_ms(&self, lane: usize) -> f64 {
        self.wait_ms[lane]
    }

    /// Cumulative service time charged to `lane`, ms.
    pub fn busy_ms(&self, lane: usize) -> f64 {
        self.busy_ms[lane]
    }

    /// Cumulative service time across all lanes, ms.
    pub fn total_busy_ms(&self) -> f64 {
        self.busy_ms.iter().sum()
    }

    /// Mean lane utilization over `[0, horizon_ms]` of the virtual clock.
    pub fn utilization(&self, horizon_ms: SimMs) -> f64 {
        if horizon_ms <= 0.0 {
            return 0.0;
        }
        self.total_busy_ms() / (horizon_ms * self.len() as f64)
    }

    /// The lane that frees up first (ties break to the lowest index).
    pub fn least_loaded(&self) -> usize {
        let mut best = 0;
        for (i, &b) in self.busy_until.iter().enumerate().skip(1) {
            if b < self.busy_until[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_fault_script_is_per_edge_and_deterministic() {
        let script = EdgeFaultScript::new()
            .crash(0, 1000.0, 1500.0, 100.0)
            .brownout(1, 2000.0, 3000.0, 2.5)
            .warm_crash(2, 500.0, 700.0, 20.0);
        assert_eq!(script.windows().len(), 3);
        assert_eq!(script.windows_for(0).count(), 1);
        assert_eq!(script.windows_for(3).count(), 0);
        assert!(script.touches(1));
        assert!(!script.touches(3));
        // Crash state is half-open per edge: [start, end).
        assert!(script.crashed_at(0, 1000.0));
        assert!(script.crashed_at(0, 1499.9));
        assert!(!script.crashed_at(0, 1500.0));
        assert!(
            !script.crashed_at(1, 1200.0),
            "crash must not leak to edge 1"
        );
        // Brownouts slow without crashing.
        assert!(!script.crashed_at(1, 2500.0));
        assert!((script.slowdown_at(1, 2500.0) - 2.5).abs() < 1e-12);
        assert_eq!(script.slowdown_at(1, 3000.0), 1.0);
        assert_eq!(
            script.slowdown_at(0, 1200.0),
            1.0,
            "crash is not a slowdown"
        );
        // Restart spill-over counts toward the quiet-tail horizon.
        assert!((script.last_fault_ms() - 3000.0).abs() < 1e-9);
        let crash_heavy = EdgeFaultScript::new().crash(0, 2800.0, 3000.0, 500.0);
        assert!((crash_heavy.last_fault_ms() - 3500.0).abs() < 1e-9);
    }

    #[test]
    fn edge_fault_script_overlapping_brownouts_compound() {
        let script = EdgeFaultScript::new()
            .brownout(0, 0.0, 100.0, 2.0)
            .brownout(0, 50.0, 150.0, 3.0)
            // A sub-1 factor is clamped at construction: brownouts never
            // speed a node up.
            .brownout(0, 200.0, 300.0, 0.25);
        assert!((script.slowdown_at(0, 75.0) - 6.0).abs() < 1e-12);
        assert!((script.slowdown_at(0, 25.0) - 2.0).abs() < 1e-12);
        assert_eq!(script.slowdown_at(0, 250.0), 1.0);
    }

    #[test]
    fn serialization_time_scales_with_bytes() {
        let mut link = Link::new(
            LinkProfile {
                jitter_ms: 0.0,
                loss: 0.0,
                ..LinkProfile::of(LinkKind::Wifi5)
            },
            1,
        );
        let t1 = link.transmit(120_000, 0.0, Direction::Uplink);
        // 120 kB at 120 Mbps = 8 ms + 2 ms base.
        assert!((t1 - 10.0).abs() < 1e-9, "t1 = {t1}");
    }

    #[test]
    fn queueing_serializes_back_to_back_transfers() {
        let mut link = Link::new(
            LinkProfile {
                jitter_ms: 0.0,
                loss: 0.0,
                ..LinkProfile::of(LinkKind::Wifi5)
            },
            1,
        );
        let a = link.transmit(120_000, 0.0, Direction::Uplink);
        let b = link.transmit(120_000, 0.0, Direction::Uplink);
        assert!((b - a - 8.0).abs() < 1e-9, "second transfer must queue");
    }

    #[test]
    fn directions_do_not_block_each_other() {
        let mut link = Link::new(
            LinkProfile {
                jitter_ms: 0.0,
                loss: 0.0,
                ..LinkProfile::of(LinkKind::Wifi5)
            },
            1,
        );
        let up = link.transmit(1_200_000, 0.0, Direction::Uplink);
        let down = link.transmit(1_000, 0.0, Direction::Downlink);
        assert!(down < up, "downlink should not queue behind uplink");
    }

    #[test]
    fn wifi24_slower_than_wifi5() {
        let mut w24 = Link::of_kind(LinkKind::Wifi24, 3);
        let mut w5 = Link::of_kind(LinkKind::Wifi5, 3);
        let payload = 200_000;
        let mut sum24 = 0.0;
        let mut sum5 = 0.0;
        for i in 0..20 {
            let t0 = i as f64 * 1000.0;
            sum24 += w24.transmit(payload, t0, Direction::Uplink) - t0;
            sum5 += w5.transmit(payload, t0, Direction::Uplink) - t0;
        }
        assert!(sum24 > sum5 * 2.0, "wifi2.4 {sum24} vs wifi5 {sum5}");
    }

    #[test]
    fn lte_has_highest_rtt() {
        let lte = LinkProfile::of(LinkKind::Lte);
        assert!(lte.base_latency_ms > LinkProfile::of(LinkKind::Wifi24).base_latency_ms);
        assert!(lte.uplink_mbps < lte.downlink_mbps);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut link = Link::of_kind(LinkKind::Wifi24, 42);
            (0..50)
                .map(|i| link.transmit(50_000, i as f64 * 33.0, Direction::Uplink))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn outage_window_loses_transfers_and_heals() {
        let mut link = Link::of_kind(LinkKind::Lte, 7);
        link.set_faults(FaultSchedule::new(7).outage(1000.0, 3000.0));
        assert!(link.is_up(500.0));
        assert!(!link.is_up(1000.0));
        assert!(!link.is_up(2999.0));
        assert!(link.is_up(3000.0));
        assert!(link
            .transmit_faulty(10_000, 500.0, Direction::Uplink)
            .is_some());
        assert!(link
            .transmit_faulty(10_000, 1500.0, Direction::Uplink)
            .is_none());
        assert!(link
            .transmit_faulty(10_000, 3500.0, Direction::Uplink)
            .is_some());
    }

    #[test]
    fn bandwidth_collapse_slows_transfers() {
        let profile = LinkProfile {
            jitter_ms: 0.0,
            loss: 0.0,
            ..LinkProfile::of(LinkKind::Wifi5)
        };
        let mut clean = Link::new(profile, 1);
        let mut faulty = Link::new(profile, 1);
        faulty.set_faults(FaultSchedule::new(1).bandwidth_collapse(0.0, 10_000.0, 0.1));
        let t_clean = clean
            .transmit_faulty(120_000, 0.0, Direction::Uplink)
            .unwrap();
        let t_slow = faulty
            .transmit_faulty(120_000, 0.0, Direction::Uplink)
            .unwrap();
        // 10x less bandwidth: 8 ms serialization becomes 80 ms.
        assert!(t_slow.arrive_ms > t_clean.arrive_ms + 60.0);
    }

    #[test]
    fn rtt_spike_adds_latency() {
        let profile = LinkProfile {
            jitter_ms: 0.0,
            loss: 0.0,
            ..LinkProfile::of(LinkKind::Wifi5)
        };
        let mut link = Link::new(profile, 1);
        link.set_faults(FaultSchedule::new(1).rtt_spike(0.0, 1000.0, 150.0));
        let spiked = link.transmit_faulty(1_000, 0.0, Direction::Uplink).unwrap();
        let normal = link
            .transmit_faulty(1_000, 2000.0, Direction::Uplink)
            .unwrap();
        assert!((spiked.arrive_ms - (normal.arrive_ms - 2000.0) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn response_drops_only_affect_downlink() {
        let mut link = Link::of_kind(LinkKind::Wifi5, 3);
        link.set_faults(FaultSchedule::new(3).drop_responses(0.0, 1e9, 1.0));
        assert!(link
            .transmit_faulty(1_000, 0.0, Direction::Uplink)
            .is_some());
        assert!(link
            .transmit_faulty(1_000, 0.0, Direction::Downlink)
            .is_none());
    }

    #[test]
    fn corruption_marks_but_delivers() {
        let mut link = Link::of_kind(LinkKind::Wifi5, 4);
        link.set_faults(FaultSchedule::new(4).corruption(0.0, 1e9, 1.0));
        let d = link.transmit_faulty(1_000, 0.0, Direction::Uplink).unwrap();
        assert!(d.corrupted);
        let mut clean = Link::of_kind(LinkKind::Wifi5, 4);
        clean.set_faults(FaultSchedule::new(4).corruption(5000.0, 6000.0, 1.0));
        assert!(
            !clean
                .transmit_faulty(1_000, 0.0, Direction::Uplink)
                .unwrap()
                .corrupted
        );
    }

    #[test]
    fn faulty_transmit_without_schedule_is_clean_transmit() {
        let profile = LinkProfile {
            jitter_ms: 0.0,
            loss: 0.0,
            ..LinkProfile::of(LinkKind::Lte)
        };
        let mut a = Link::new(profile, 9);
        let mut b = Link::new(profile, 9);
        let d = a.transmit_faulty(60_000, 0.0, Direction::Uplink).unwrap();
        assert_eq!(d.arrive_ms, b.transmit(60_000, 0.0, Direction::Uplink));
        assert!(!d.corrupted);
    }

    #[test]
    fn fault_schedule_deterministic_given_seed() {
        let run = || {
            let mut link = Link::of_kind(LinkKind::Lte, 11);
            link.set_faults(
                FaultSchedule::new(11)
                    .outage(1000.0, 2000.0)
                    .drop_responses(0.0, 10_000.0, 0.3)
                    .corruption(0.0, 10_000.0, 0.2),
            );
            (0..200)
                .map(|i| link.transmit_faulty(20_000, i as f64 * 33.0, Direction::Downlink))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lanes_queue_independently() {
        let mut lanes = LaneSet::new(2);
        let (s0, f0) = lanes.occupy(0, 0.0, 100.0);
        let (s1, f1) = lanes.occupy(1, 0.0, 100.0);
        assert_eq!((s0, f0), (0.0, 100.0));
        assert_eq!((s1, f1), (0.0, 100.0), "lane 1 must not queue behind 0");
        let (s2, f2) = lanes.occupy(0, 10.0, 50.0);
        assert_eq!((s2, f2), (100.0, 150.0));
        assert!((lanes.queue_wait_ms(0) - 90.0).abs() < 1e-9);
        assert_eq!(lanes.queue_wait_ms(1), 0.0);
        assert_eq!(lanes.total_served(), 3);
    }

    #[test]
    fn extend_stretches_current_occupancy() {
        let mut lanes = LaneSet::new(1);
        lanes.occupy(0, 0.0, 100.0);
        let finish = lanes.extend(0, 30.0, 5.0);
        assert!((finish - 130.0).abs() < 1e-9);
        assert_eq!(lanes.served(0), 2);
        assert!((lanes.busy_ms(0) - 130.0).abs() < 1e-9);
        assert!((lanes.queue_wait_ms(0) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bump_all_models_a_crash_stall() {
        let mut lanes = LaneSet::new(3);
        lanes.occupy(1, 0.0, 500.0);
        lanes.bump_all(200.0);
        assert_eq!(lanes.busy_until(0), 200.0);
        assert_eq!(lanes.busy_until(1), 500.0, "longer occupancy not clipped");
        assert_eq!(lanes.busy_until(2), 200.0);
    }

    #[test]
    fn least_loaded_breaks_ties_low() {
        let mut lanes = LaneSet::new(3);
        assert_eq!(lanes.least_loaded(), 0);
        lanes.occupy(0, 0.0, 100.0);
        lanes.occupy(2, 0.0, 50.0);
        assert_eq!(lanes.least_loaded(), 1);
    }

    #[test]
    fn utilization_averages_over_lanes() {
        let mut lanes = LaneSet::new(2);
        lanes.occupy(0, 0.0, 500.0);
        assert!((lanes.utilization(1000.0) - 0.25).abs() < 1e-9);
        assert_eq!(lanes.utilization(0.0), 0.0);
    }

    #[test]
    fn nominal_latency_matches_zero_jitter_transmit() {
        let profile = LinkProfile {
            jitter_ms: 0.0,
            loss: 0.0,
            ..LinkProfile::of(LinkKind::Lte)
        };
        let mut link = Link::new(profile, 9);
        let nominal = link.nominal_latency_ms(60_000, Direction::Uplink);
        let actual = link.transmit(60_000, 0.0, Direction::Uplink);
        assert!((nominal - actual).abs() < 1e-9);
    }

    #[test]
    fn telemetry_observes_transfers_without_perturbing_them() {
        // Two identically-seeded links, one instrumented: every arrival
        // time must match bit-for-bit, and the instrumented link must
        // emit one net.* span per shaped transfer under the ambient
        // frame context.
        let mut plain = Link::of_kind(LinkKind::Wifi5, 77);
        let mut traced = Link::of_kind(LinkKind::Wifi5, 77);
        let telemetry = edgeis_telemetry::Telemetry::new(
            edgeis_telemetry::TelemetryConfig::enabled("netsim_unit"),
        );
        traced.set_telemetry(telemetry.clone(), 4);
        let ctx = telemetry.frame_context(0xbeef, 4).unwrap();
        telemetry.set_current(ctx);
        let mut now = 0.0;
        for i in 0..20 {
            let bytes = 10_000 + i * 777;
            let dir = if i % 2 == 0 {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            let a = plain.transmit(bytes, now, dir);
            let b = traced.transmit(bytes, now, dir);
            assert_eq!(a.to_bits(), b.to_bits(), "transfer {i} perturbed");
            now += 33.0;
        }
        let spans = telemetry.spans_snapshot();
        assert_eq!(spans.len(), 20);
        assert!(spans.iter().any(|s| s.name == "net.uplink"));
        assert!(spans.iter().any(|s| s.name == "net.downlink"));
        for s in &spans {
            assert_eq!(s.trace_id, 0xbeef);
            assert_eq!(s.parent_id, Some(ctx.span_id));
            assert_eq!(s.device, 4);
            assert!(s.end_ms > s.start_ms);
        }
    }
}
