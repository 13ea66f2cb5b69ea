//! Unified telemetry for the edgeIS reproduction: causal spans, a typed
//! metrics registry, exporters (JSONL / Prometheus text / Chrome
//! `trace_event`), and a fault flight recorder.
//!
//! The entry point is [`Telemetry`], a cheap clone-able handle shared by
//! every subsystem of a run (mobile systems, the shared edge backend,
//! netsim links). A handle is either *enabled* — backed by one shared
//! [`Hub`](struct@Telemetry) holding span/event sinks, the registry and
//! the flight recorder — or *disabled*, in which case every call is a
//! single `Option` discriminant check and returns immediately. The
//! disabled path allocates nothing and is the default everywhere, so
//! telemetry-off runs are behaviorally and (to within noise) temporally
//! identical to pre-telemetry builds; `crates/edgeis/tests/telemetry_e2e.rs`
//! enforces both.
//!
//! Telemetry is strictly an *observer*: it never touches the virtual
//! clock, the RNG streams, payload bytes, or `tx_bytes` accounting, so
//! conformance goldens are byte-identical with telemetry on or off.
//! See DESIGN.md §12 for the span taxonomy and wire propagation.

#![forbid(unsafe_code)]

pub mod burn;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod span;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use burn::{BurnConfig, BurnSample, BurnTracker, BurnWindow, BURN_WINDOW_BUCKETS};
pub use metrics::{Counter, Gauge, Histogram, Registry};
pub use span::{ArgValue, EventRecord, SpanRecord, TraceContext};

/// Configuration for one telemetry hub.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Master switch. `false` (the default) yields a disabled handle with
    /// near-zero call overhead.
    pub enabled: bool,
    /// Run identifier; output lands in `target/telemetry/<run_id>/`
    /// unless `output_dir` overrides it.
    pub run_id: String,
    /// Explicit output directory override.
    pub output_dir: Option<PathBuf>,
    /// Whether emitted spans/events also feed the flight recorder.
    pub flight_recorder: bool,
    /// Ring capacity (lines) per device for the flight recorder.
    pub flight_capacity: usize,
    /// Minimum virtual-clock spacing between dumps of one device.
    pub flight_min_spacing_ms: f64,
    /// SLO burn-rate alerting knobs shared by every per-device/per-edge
    /// [`BurnTracker`] built against this hub (see [`burn`]).
    pub burn: BurnConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            run_id: "run".to_string(),
            output_dir: None,
            flight_recorder: true,
            flight_capacity: 512,
            flight_min_spacing_ms: 500.0,
            burn: BurnConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// An enabled config writing under `target/telemetry/<run_id>/`.
    pub fn enabled(run_id: &str) -> Self {
        Self {
            enabled: true,
            run_id: run_id.to_string(),
            ..Self::default()
        }
    }
}

#[derive(Debug)]
struct Hub {
    config: TelemetryConfig,
    next_span_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
    registry: Registry,
    recorder: recorder::FlightRecorder,
    current: Mutex<Option<TraceContext>>,
}

/// Shared telemetry handle. Clone freely; all clones observe into the
/// same hub. [`Telemetry::disabled`] (and `Default`) produce a no-op
/// handle whose every method is one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    hub: Option<Arc<Hub>>,
}

impl Telemetry {
    /// A no-op handle: every emission is a single branch and returns.
    pub fn disabled() -> Self {
        Self { hub: None }
    }

    /// Builds a handle from `config`; disabled configs yield a no-op
    /// handle indistinguishable from [`Telemetry::disabled`].
    pub fn new(config: TelemetryConfig) -> Self {
        if !config.enabled {
            return Self::disabled();
        }
        let recorder =
            recorder::FlightRecorder::new(config.flight_capacity, config.flight_min_spacing_ms);
        Self {
            hub: Some(Arc::new(Hub {
                next_span_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                events: Mutex::new(Vec::new()),
                registry: Registry::new(),
                recorder,
                current: Mutex::new(None),
                config,
            })),
        }
    }

    /// True when this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.hub.is_some()
    }

    /// The directory this hub writes exports and dumps into, when enabled.
    pub fn output_dir(&self) -> Option<PathBuf> {
        let hub = self.hub.as_ref()?;
        Some(match &hub.config.output_dir {
            Some(d) => d.clone(),
            None => Path::new("target")
                .join("telemetry")
                .join(&hub.config.run_id),
        })
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.hub.as_ref().map(|h| &h.registry)
    }

    /// This hub's burn-rate configuration (`None` when disabled).
    /// Integrations build one [`BurnTracker`] per device/edge from it.
    pub fn burn_config(&self) -> Option<BurnConfig> {
        self.hub.as_ref().map(|h| h.config.burn.clone())
    }

    /// Allocates a fresh span id.
    fn alloc_span_id(&self, hub: &Hub) -> u64 {
        hub.next_span_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a frame-scoped context: the caller supplies the
    /// deterministic `trace_id` (e.g. FNV over device id + frame index);
    /// the hub allocates the frame root span id. Returns `None` when
    /// disabled — all per-frame telemetry work should hang off that.
    #[inline]
    pub fn frame_context(&self, trace_id: u64, device: u64) -> Option<TraceContext> {
        let hub = self.hub.as_ref()?;
        Some(TraceContext {
            trace_id,
            span_id: self.alloc_span_id(hub),
            device,
        })
    }

    /// Installs `ctx` as the ambient current context (used by layers that
    /// cannot thread a context parameter, e.g. netsim links).
    #[inline]
    pub fn set_current(&self, ctx: TraceContext) {
        if let Some(hub) = self.hub.as_ref() {
            *hub.current.lock().expect("telemetry poisoned") = Some(ctx);
        }
    }

    /// Clears the ambient current context.
    #[inline]
    pub fn clear_current(&self) {
        if let Some(hub) = self.hub.as_ref() {
            *hub.current.lock().expect("telemetry poisoned") = None;
        }
    }

    /// The ambient current context, when one is installed.
    #[inline]
    pub fn current(&self) -> Option<TraceContext> {
        let hub = self.hub.as_ref()?;
        *hub.current.lock().expect("telemetry poisoned")
    }

    fn push_span(&self, hub: &Hub, rec: SpanRecord) {
        if hub.config.flight_recorder {
            hub.recorder.record(rec.device, rec.to_json());
        }
        hub.spans.lock().expect("telemetry poisoned").push(rec);
    }

    fn push_event(&self, hub: &Hub, rec: EventRecord) {
        if hub.config.flight_recorder {
            hub.recorder.record(rec.device, rec.to_json());
        }
        hub.events.lock().expect("telemetry poisoned").push(rec);
    }

    /// Emits the frame root span for `ctx` (span id = `ctx.span_id`,
    /// no parent).
    pub fn emit_root_span(
        &self,
        ctx: &TraceContext,
        name: &'static str,
        start_ms: f64,
        end_ms: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(hub) = self.hub.as_ref() {
            self.push_span(
                hub,
                SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span_id,
                    parent_id: None,
                    device: ctx.device,
                    name,
                    start_ms,
                    end_ms,
                    args,
                },
            );
        }
    }

    /// Emits a child span under `ctx` and returns its span id (0 when
    /// disabled).
    pub fn emit_child_span(
        &self,
        ctx: &TraceContext,
        name: &'static str,
        start_ms: f64,
        end_ms: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> u64 {
        let Some(hub) = self.hub.as_ref() else {
            return 0;
        };
        let span_id = self.alloc_span_id(hub);
        self.push_span(
            hub,
            SpanRecord {
                trace_id: ctx.trace_id,
                span_id,
                parent_id: Some(ctx.span_id),
                device: ctx.device,
                name,
                start_ms,
                end_ms,
                args,
            },
        );
        span_id
    }

    /// Emits a child span under the ambient current context (or an
    /// orphan span with trace id 0 when none is installed). Used by
    /// netsim links, which see transfers but not frames.
    #[inline]
    pub fn emit_span_current(
        &self,
        name: &'static str,
        device: u64,
        start_ms: f64,
        end_ms: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(hub) = self.hub.as_ref() else {
            return;
        };
        let ctx = self.current();
        let span_id = self.alloc_span_id(hub);
        self.push_span(
            hub,
            SpanRecord {
                trace_id: ctx.map_or(0, |c| c.trace_id),
                span_id,
                parent_id: ctx.map(|c| c.span_id),
                device,
                name,
                start_ms,
                end_ms,
                args,
            },
        );
    }

    /// Emits an instant event under `ctx`.
    pub fn emit_event(
        &self,
        ctx: &TraceContext,
        name: &'static str,
        ts_ms: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(hub) = self.hub.as_ref() {
            self.push_event(
                hub,
                EventRecord {
                    trace_id: ctx.trace_id,
                    parent_id: Some(ctx.span_id),
                    device: ctx.device,
                    name,
                    ts_ms,
                    args,
                },
            );
        }
    }

    /// Emits an instant event under the ambient context when one is
    /// installed, or bare (trace id 0) otherwise.
    #[inline]
    pub fn emit_event_current(
        &self,
        name: &'static str,
        device: u64,
        ts_ms: f64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        let Some(hub) = self.hub.as_ref() else {
            return;
        };
        let ctx = self.current();
        self.push_event(
            hub,
            EventRecord {
                trace_id: ctx.map_or(0, |c| c.trace_id),
                parent_id: ctx.map(|c| c.span_id),
                device,
                name,
                ts_ms,
                args,
            },
        );
    }

    /// Dumps `device`'s flight-recorder ring (rate-limited; see
    /// [`recorder::FlightRecorder::dump`]). Returns the dump path when
    /// one was written.
    pub fn flight_dump(&self, device: u64, reason: &str, now_ms: f64) -> Option<PathBuf> {
        let hub = self.hub.as_ref()?;
        if !hub.config.flight_recorder {
            return None;
        }
        let dir = self.output_dir()?;
        hub.recorder.dump(&dir, device, reason, now_ms)
    }

    /// Snapshot of every span emitted so far, in emission order.
    pub fn spans_snapshot(&self) -> Vec<SpanRecord> {
        self.hub.as_ref().map_or_else(Vec::new, |h| {
            h.spans.lock().expect("telemetry poisoned").clone()
        })
    }

    /// Snapshot of every event emitted so far, in emission order.
    pub fn events_snapshot(&self) -> Vec<EventRecord> {
        self.hub.as_ref().map_or_else(Vec::new, |h| {
            h.events.lock().expect("telemetry poisoned").clone()
        })
    }

    /// Prometheus text snapshot of the registry ("" when disabled).
    pub fn prometheus_text(&self) -> String {
        self.hub
            .as_ref()
            .map_or_else(String::new, |h| h.registry.prometheus_text())
    }

    /// Writes `spans.jsonl`, `metrics.prom` and `trace.json` into the
    /// output directory; returns their paths. No-op (`None`) when
    /// disabled.
    pub fn export_all(&self) -> Option<std::io::Result<ExportedFiles>> {
        self.hub.as_ref()?;
        let dir = self.output_dir()?;
        let spans = self.spans_snapshot();
        let events = self.events_snapshot();
        let write = || -> std::io::Result<ExportedFiles> {
            std::fs::create_dir_all(&dir)?;
            let jsonl_path = dir.join("spans.jsonl");
            std::fs::write(&jsonl_path, export::render_jsonl(&spans, &events))?;
            let prom_path = dir.join("metrics.prom");
            std::fs::write(&prom_path, self.prometheus_text())?;
            let chrome_path = dir.join("trace.json");
            std::fs::write(&chrome_path, export::render_chrome_trace(&spans, &events))?;
            Ok(ExportedFiles {
                jsonl: jsonl_path,
                prometheus: prom_path,
                chrome_trace: chrome_path,
            })
        };
        Some(write())
    }
}

/// Paths written by [`Telemetry::export_all`].
#[derive(Debug, Clone)]
pub struct ExportedFiles {
    /// JSONL span/event log.
    pub jsonl: PathBuf,
    /// Prometheus text snapshot.
    pub prometheus: PathBuf,
    /// Chrome `trace_event` JSON document.
    pub chrome_trace: PathBuf,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_hub(run: &str) -> Telemetry {
        let mut cfg = TelemetryConfig::enabled(run);
        cfg.output_dir = Some(std::env::temp_dir().join(format!("edgeis_telemetry_{run}")));
        Telemetry::new(cfg)
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.frame_context(1, 0).is_none());
        t.emit_span_current("x", 0, 0.0, 1.0, Vec::new());
        t.emit_event_current("y", 0, 0.0, Vec::new());
        assert!(t.spans_snapshot().is_empty());
        assert!(t.events_snapshot().is_empty());
        assert!(t.flight_dump(0, "r", 0.0).is_none());
        assert!(t.export_all().is_none());
        assert_eq!(t.prometheus_text(), "");
        let off = Telemetry::new(TelemetryConfig::default());
        assert!(!off.is_enabled(), "default config is off");
    }

    #[test]
    fn contexts_parent_spans_and_events() {
        let t = enabled_hub("ctx_test");
        let ctx = t.frame_context(0xfeed, 3).expect("enabled");
        assert_eq!(ctx.trace_id, 0xfeed);
        assert_eq!(ctx.device, 3);
        let child = t.emit_child_span(&ctx, "mobile.detect", 1.0, 2.0, Vec::new());
        assert_ne!(child, 0);
        assert_ne!(child, ctx.span_id);
        t.emit_root_span(&ctx, "frame", 0.0, 5.0, Vec::new());
        t.emit_event(&ctx, "deadline.missed", 4.0, Vec::new());
        let spans = t.spans_snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent_id, Some(ctx.span_id));
        assert_eq!(spans[1].span_id, ctx.span_id);
        assert_eq!(spans[1].parent_id, None);
        let events = t.events_snapshot();
        assert_eq!(events[0].parent_id, Some(ctx.span_id));
        assert_eq!(events[0].trace_id, 0xfeed);
    }

    #[test]
    fn ambient_context_feeds_link_style_emitters() {
        let t = enabled_hub("ambient_test");
        t.emit_span_current("net.uplink", 1, 0.0, 1.0, Vec::new());
        let ctx = t.frame_context(0xabc, 1).unwrap();
        t.set_current(ctx);
        t.emit_span_current("net.uplink", 1, 2.0, 3.0, Vec::new());
        t.clear_current();
        t.emit_span_current("net.uplink", 1, 4.0, 5.0, Vec::new());
        let spans = t.spans_snapshot();
        assert_eq!(spans[0].trace_id, 0, "no ambient context yet");
        assert_eq!(spans[1].trace_id, 0xabc);
        assert_eq!(spans[1].parent_id, Some(ctx.span_id));
        assert_eq!(spans[2].trace_id, 0, "cleared");
    }

    #[test]
    fn export_all_writes_three_parseable_files() {
        let t = enabled_hub("export_test");
        let ctx = t.frame_context(42, 0).unwrap();
        t.emit_root_span(&ctx, "frame", 0.0, 3.0, vec![("n", ArgValue::U64(1))]);
        t.emit_child_span(&ctx, "edge.infer", 1.0, 2.0, Vec::new());
        t.emit_event(&ctx, "edge.shed", 1.5, Vec::new());
        t.registry()
            .unwrap()
            .counter("edgeis_frames_total", &[("device", "0")])
            .inc();
        let files = t.export_all().unwrap().unwrap();
        let jsonl = std::fs::read_to_string(&files.jsonl).unwrap();
        assert_eq!(export::validate_jsonl(&jsonl).unwrap(), 3);
        let prom = std::fs::read_to_string(&files.prometheus).unwrap();
        assert!(export::validate_prometheus(&prom).unwrap() >= 1);
        let chrome = std::fs::read_to_string(&files.chrome_trace).unwrap();
        export::validate_json(&chrome).unwrap();
        std::fs::remove_dir_all(t.output_dir().unwrap()).ok();
    }

    #[test]
    fn flight_dump_goes_through_the_hub() {
        let t = enabled_hub("dump_test");
        let ctx = t.frame_context(7, 2).unwrap();
        t.emit_root_span(&ctx, "frame", 0.0, 1.0, Vec::new());
        let path = t.flight_dump(2, "Degraded", 100.0).expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"type\":\"meta\""));
        assert!(text.contains("\"reason\":\"Degraded\""));
        std::fs::remove_dir_all(t.output_dir().unwrap()).ok();
    }
}
