//! Typed metrics: counters, gauges, and a merge-able fixed-bucket
//! log-scale histogram, plus a registry keyed by name + labels.
//!
//! All hot-path updates are lock-free: counters and histogram buckets are
//! `AtomicU64`s, floating-point sums/extrema use CAS loops on the f64 bit
//! pattern. The registry takes a lock only at registration time; callers
//! cache the returned handles (they are cheap `Arc` clones) and update
//! through them. For fork-join workloads (`edgeis-parallel`) a
//! [`LocalHistogram`] accumulates into plain per-thread arrays and merges
//! into the shared histogram once at the join point.
//!
//! The histogram uses fixed logarithmic buckets: [`HIST_PER_DECADE`]
//! buckets per decade over [`HIST_MIN_MS`]..[`HIST_MAX_MS`] (milliseconds),
//! plus an underflow bucket and an overflow bucket. Bucket boundaries are
//! identical for every histogram, which is what makes merging a plain
//! element-wise add — associative and commutative by construction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Lower edge of the histogram range, in milliseconds. Values at or below
/// this land in the underflow bucket (index 0).
pub const HIST_MIN_MS: f64 = 1e-3;
/// Number of decades covered above [`HIST_MIN_MS`].
pub const HIST_DECADES: usize = 8;
/// Buckets per decade; bucket width is a factor of `10^(1/32)` ≈ 1.0746
/// (about 7.5% relative width).
pub const HIST_PER_DECADE: usize = 32;
/// Number of finite bucket edges (`HIST_DECADES * HIST_PER_DECADE`).
pub const HIST_EDGES: usize = HIST_DECADES * HIST_PER_DECADE;
/// Upper edge of the histogram range (1e5 ms); larger values land in the
/// overflow bucket.
pub const HIST_MAX_MS: f64 = 1e5;
/// Total bucket count: underflow + one per finite edge + overflow.
pub const HIST_BUCKETS: usize = HIST_EDGES + 2;

/// Upper edge (inclusive) of bucket `i`, in milliseconds.
/// Bucket `0` is `(-inf, HIST_MIN_MS]`, bucket `HIST_EDGES + 1` is
/// `(HIST_MAX_MS, +inf)` and reports `f64::INFINITY`.
pub fn bucket_upper_edge(i: usize) -> f64 {
    if i > HIST_EDGES {
        f64::INFINITY
    } else {
        HIST_MIN_MS * 10f64.powf(i as f64 / HIST_PER_DECADE as f64)
    }
}

/// Bucket index for a sample value. Non-finite samples (NaN, ±inf) are
/// routed to the overflow bucket so they are visible rather than lost.
pub fn bucket_index(v: f64) -> usize {
    if !v.is_finite() {
        return HIST_EDGES + 1;
    }
    if v <= HIST_MIN_MS {
        return 0;
    }
    if v > HIST_MAX_MS {
        return HIST_EDGES + 1;
    }
    // First guess from the logarithm, then correct for float fuzz so the
    // invariant `edge(i-1) < v <= edge(i)` holds exactly at boundaries.
    let mut i = ((v / HIST_MIN_MS).log10() * HIST_PER_DECADE as f64).ceil() as usize;
    i = i.clamp(1, HIST_EDGES);
    while i > 1 && v <= bucket_upper_edge(i - 1) {
        i -= 1;
    }
    while i < HIST_EDGES && v > bucket_upper_edge(i) {
        i += 1;
    }
    i
}

fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn atomic_f64_min(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if v >= f64::from_bits(cur) {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        if v <= f64::from_bits(cur) {
            return;
        }
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Creates a standalone counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable floating-point gauge. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Default for Gauge {
    fn default() -> Self {
        Self {
            cell: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }
}

impl Gauge {
    /// Creates a standalone gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` to the gauge.
    #[inline]
    pub fn add(&self, delta: f64) {
        atomic_f64_add(&self.cell, delta);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramCore {
    fn new() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

/// A fixed-bucket log-scale histogram with lock-free observation and
/// element-wise merge. Cloning shares the underlying cells, so a clone is
/// a handle, not a snapshot.
///
/// Every histogram shares the same bucket layout (see module docs), so
/// [`Histogram::merge_from`] is a plain vector add: associative,
/// commutative, and safe across devices, threads, and runs.
///
/// [`Histogram::quantile`] returns the upper edge of the bucket containing
/// the nearest-rank sample, clamped to the observed `[min, max]` — i.e. an
/// estimate within one bucket width (≈7.5%) of the exact nearest-rank
/// percentile, with exact answers at `q = 0.0` and `q = 1.0`.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            core: Arc::new(HistogramCore::new()),
        }
    }

    /// Builds a histogram from a sample slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        let h = Self::new();
        for &v in samples {
            h.observe(v);
        }
        h
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&self, v: f64) {
        let i = bucket_index(v);
        self.core.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            atomic_f64_add(&self.core.sum_bits, v);
            atomic_f64_min(&self.core.min_bits, v);
            atomic_f64_max(&self.core.max_bits, v);
        }
    }

    /// Adds every bucket/aggregate of `other` into `self`. Both sides may
    /// keep observing concurrently; the merge is element-wise atomic adds.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.core.buckets.iter().zip(other.core.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        let n = other.core.count.load(Ordering::Relaxed);
        if n > 0 {
            self.core.count.fetch_add(n, Ordering::Relaxed);
            atomic_f64_add(
                &self.core.sum_bits,
                f64::from_bits(other.core.sum_bits.load(Ordering::Relaxed)),
            );
            atomic_f64_min(
                &self.core.min_bits,
                f64::from_bits(other.core.min_bits.load(Ordering::Relaxed)),
            );
            atomic_f64_max(
                &self.core.max_bits,
                f64::from_bits(other.core.max_bits.load(Ordering::Relaxed)),
            );
        }
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all finite observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Mean of all finite observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Smallest finite observation (+inf when none).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.core.min_bits.load(Ordering::Relaxed))
    }

    /// Largest finite observation (-inf when none).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.core.max_bits.load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile estimate: the upper edge of the bucket that
    /// contains the rank-`ceil(q*n)` sample, clamped to the observed
    /// `[min, max]`. Returns 0.0 on an empty histogram. The estimate is
    /// within one bucket width of the exact nearest-rank percentile.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        // Rank 1 is the minimum sample and rank n the maximum, both of
        // which are tracked exactly — answer those without estimation.
        if rank == 1 && self.min().is_finite() {
            return self.min();
        }
        if rank == n && self.max().is_finite() {
            return self.max();
        }
        let mut seen = 0u64;
        let mut bucket = HIST_BUCKETS - 1;
        for (i, b) in self.core.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                bucket = i;
                break;
            }
        }
        let est = bucket_upper_edge(bucket);
        let (min, max) = (self.min(), self.max());
        if min.is_finite() && max.is_finite() {
            est.clamp(min, max)
        } else {
            est
        }
    }

    /// Snapshot of raw bucket counts (for exporters).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Plain (non-atomic) histogram accumulator for per-thread use inside
/// fork-join sections: observe with no synchronization, then
/// [`LocalHistogram::flush`] into a shared [`Histogram`] at the join point.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// Creates an empty local accumulator.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample with no synchronization.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Number of samples accumulated locally.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Merges the local counts into `target` and resets this accumulator.
    pub fn flush(&mut self, target: &Histogram) {
        if self.count == 0 {
            return;
        }
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                target.core.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        target.core.count.fetch_add(self.count, Ordering::Relaxed);
        atomic_f64_add(&target.core.sum_bits, self.sum);
        atomic_f64_min(&target.core.min_bits, self.min);
        atomic_f64_max(&target.core.max_bits, self.max);
        *self = Self::new();
    }
}

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style snake case).
    pub name: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let mut out = format!("{}{{", self.name);
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{k}=\"{v}\""));
        }
        out.push('}');
        out
    }

    fn render_with(&self, extra: &[(&str, &str)]) -> String {
        let mut out = format!("{}{{", self.name);
        let mut first = true;
        for (k, v) in self.labels.iter() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{k}=\"{v}\""));
        }
        for (k, v) in extra {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("{k}=\"{v}\""));
        }
        out.push('}');
        out
    }
}

/// Help text for the known metric families; unknown names get a generic
/// line so every family still carries a `# HELP` comment (required by
/// promtool-style consumers).
fn help_for(name: &str) -> &'static str {
    match name {
        "edgeis_frames_total" => "Frames processed by the mobile pipeline",
        "edgeis_transmits_total" => "Keyframes offloaded to the edge",
        "edgeis_tx_bytes_total" => "Uplink payload bytes transmitted",
        "edgeis_timeouts_total" => "Requests that missed their response deadline",
        "edgeis_stale_drops_total" => "Responses discarded as too stale to apply",
        "edgeis_corrupt_responses_total" => "Responses rejected by wire decode checks",
        "edgeis_shed_responses_total" => "Requests shed by edge admission/overload control",
        "edgeis_degraded_tier_responses_total" => {
            "Responses served by a smaller zoo tier than requested"
        }
        "edgeis_tier_served_total" => "Requests served per model-zoo tier",
        "edgeis_mobile_frame_ms" => "Mobile per-frame wall-clock, ms",
        "edgeis_edge_queue_wait_ms" => "Edge queue wait before GPU start, ms",
        "edgeis_response_latency_ms" => "Request to response round trip, ms",
        "edgeis_tier_latency_ms" => "Edge inference latency per zoo tier, ms",
        "edgeis_link_health" => "Link-health state (0 Healthy, 1 Recovering, 2 Degraded, 3 Outage)",
        "edgeis_slo_burn_rate" => {
            "Fast-window SLO error-budget burn rate (1.0 = sustainable spend)"
        }
        _ => "edgeis metric",
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<MetricKey, Counter>,
    gauges: BTreeMap<MetricKey, Gauge>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// Get-or-create registry of named metrics. Registration takes a lock;
/// the returned handles are lock-free. Handles registered twice under the
/// same name + labels share one cell.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name` + `labels`, creating
    /// it on first use.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(key).or_default().clone()
    }

    /// Returns the gauge registered under `name` + `labels`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(key).or_default().clone()
    }

    /// Returns the histogram registered under `name` + `labels`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let key = MetricKey::new(name, labels);
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.histograms.entry(key).or_default().clone()
    }

    /// Renders every registered metric as a Prometheus text-format
    /// snapshot: `# HELP` + `# TYPE` comments for every metric family,
    /// and cumulative `_bucket{le=...}`/`_sum`/`_count` series ending in
    /// `le="+Inf"` for histograms — the shape `promtool check metrics`
    /// expects (see [`crate::export::validate_prometheus`]).
    pub fn prometheus_text(&self) -> String {
        let inner = self.inner.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for (key, c) in inner.counters.iter() {
            if typed.insert(key.name.as_str()) {
                out.push_str(&format!("# HELP {} {}\n", key.name, help_for(&key.name)));
                out.push_str(&format!("# TYPE {} counter\n", key.name));
            }
            out.push_str(&format!("{} {}\n", key.render(), c.get()));
        }
        typed.clear();
        for (key, g) in inner.gauges.iter() {
            if typed.insert(key.name.as_str()) {
                out.push_str(&format!("# HELP {} {}\n", key.name, help_for(&key.name)));
                out.push_str(&format!("# TYPE {} gauge\n", key.name));
            }
            out.push_str(&format!("{} {}\n", key.render(), g.get()));
        }
        typed.clear();
        for (key, h) in inner.histograms.iter() {
            if typed.insert(key.name.as_str()) {
                out.push_str(&format!("# HELP {} {}\n", key.name, help_for(&key.name)));
                out.push_str(&format!("# TYPE {} histogram\n", key.name));
            }
            let counts = h.bucket_counts();
            let mut cumulative = 0u64;
            let bucket_name = format!("{}_bucket", key.name);
            let bucket_key = MetricKey {
                name: bucket_name,
                labels: key.labels.clone(),
            };
            for (i, n) in counts.iter().enumerate() {
                cumulative += n;
                // Emit only occupied edges plus the mandatory +Inf bucket to
                // keep snapshots compact (256 buckets are mostly empty).
                let last = i == counts.len() - 1;
                if *n == 0 && !last {
                    continue;
                }
                let le = if last {
                    "+Inf".to_string()
                } else {
                    format!("{:.6}", bucket_upper_edge(i))
                };
                out.push_str(&format!(
                    "{} {}\n",
                    bucket_key.render_with(&[("le", le.as_str())]),
                    cumulative
                ));
            }
            let sum_key = MetricKey {
                name: format!("{}_sum", key.name),
                labels: key.labels.clone(),
            };
            let count_key = MetricKey {
                name: format!("{}_count", key.name),
                labels: key.labels.clone(),
            };
            out.push_str(&format!("{} {:.6}\n", sum_key.render(), h.sum()));
            out.push_str(&format!("{} {}\n", count_key.render(), h.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_nearest_rank(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Deterministic pseudo-random stream (splitmix64) for fixtures.
    fn splitmix_stream(seed: u64, n: usize) -> Vec<f64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                // Log-uniform over [0.01, 1000) ms.
                let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                0.01 * 10f64.powf(u * 5.0)
            })
            .collect()
    }

    #[test]
    fn bucket_boundaries_are_inclusive_upper_edges() {
        // Exact decade values land exactly on an edge: v <= edge(i) puts
        // the value in bucket i, and the next representable value above
        // goes to bucket i + 1.
        for (v, expect_edge) in [(1e-3, 0), (1e-2, 32), (1.0, 96), (100.0, 160), (1e5, 256)] {
            let i = bucket_index(v);
            assert_eq!(
                i, expect_edge,
                "value {v} should land on edge {expect_edge}"
            );
            assert!(v <= bucket_upper_edge(i) || i == 0);
            let above = v * (1.0 + 1e-12);
            if above <= HIST_MAX_MS && i < HIST_EDGES {
                assert_eq!(bucket_index(above), i + 1, "just above {v}");
            }
        }
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(1e9), HIST_EDGES + 1);
        assert_eq!(bucket_index(f64::NAN), HIST_EDGES + 1);
        assert_eq!(bucket_index(f64::INFINITY), HIST_EDGES + 1);
    }

    #[test]
    fn every_sample_lands_in_its_bucket_interval() {
        for v in splitmix_stream(7, 2000) {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_edge(i), "v={v} above bucket {i} edge");
            if i > 0 {
                assert!(v > bucket_upper_edge(i - 1), "v={v} below bucket {i} floor");
            }
        }
    }

    #[test]
    fn quantile_agrees_with_exact_percentile_within_one_bucket() {
        let samples = splitmix_stream(42, 10_000);
        let h = Histogram::from_samples(&samples);
        assert_eq!(h.count(), 10_000);
        let width = 10f64.powf(1.0 / HIST_PER_DECADE as f64);
        for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_nearest_rank(&samples, q);
            let est = h.quantile(q);
            assert!(
                est >= exact / width - 1e-12 && est <= exact * width + 1e-12,
                "q={q}: estimate {est} not within one bucket width of exact {exact}"
            );
        }
        // Extremes are exact thanks to min/max clamping.
        assert_eq!(h.quantile(0.0), exact_nearest_rank(&samples, 0.0));
        assert_eq!(h.quantile(1.0), exact_nearest_rank(&samples, 1.0));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let a = splitmix_stream(1, 3000);
        let b = splitmix_stream(2, 2000);
        let c = splitmix_stream(3, 1000);

        // (a + b) + c
        let left = Histogram::from_samples(&a);
        left.merge_from(&Histogram::from_samples(&b));
        left.merge_from(&Histogram::from_samples(&c));
        // a + (b + c)
        let bc = Histogram::from_samples(&b);
        bc.merge_from(&Histogram::from_samples(&c));
        let right = Histogram::from_samples(&a);
        right.merge_from(&bc);
        // c + b + a (commuted)
        let commuted = Histogram::from_samples(&c);
        commuted.merge_from(&Histogram::from_samples(&b));
        commuted.merge_from(&Histogram::from_samples(&a));

        for h in [&right, &commuted] {
            assert_eq!(left.bucket_counts(), h.bucket_counts());
            assert_eq!(left.count(), h.count());
            assert_eq!(left.min(), h.min());
            assert_eq!(left.max(), h.max());
            assert!((left.sum() - h.sum()).abs() < 1e-6 * left.sum().abs().max(1.0));
        }
        // And merging equals observing everything in one histogram.
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let whole = Histogram::from_samples(&all);
        assert_eq!(left.bucket_counts(), whole.bucket_counts());
        assert_eq!(left.count(), whole.count());
    }

    #[test]
    fn local_histogram_flush_matches_direct_observation() {
        let samples = splitmix_stream(9, 500);
        let direct = Histogram::from_samples(&samples);
        let shared = Histogram::new();
        let mut local = LocalHistogram::new();
        for &v in &samples {
            local.observe(v);
        }
        assert_eq!(local.count(), 500);
        local.flush(&shared);
        assert_eq!(local.count(), 0, "flush resets the local accumulator");
        assert_eq!(shared.bucket_counts(), direct.bucket_counts());
        assert_eq!(shared.count(), direct.count());
        assert_eq!(shared.min(), direct.min());
        assert_eq!(shared.max(), direct.max());
    }

    #[test]
    fn local_histograms_merge_cleanly_across_threads() {
        let shared = Histogram::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut local = LocalHistogram::new();
                    for v in splitmix_stream(100 + t, 1000) {
                        local.observe(v);
                    }
                    local.flush(shared);
                });
            }
        });
        assert_eq!(shared.count(), 4000);
        let total: u64 = shared.bucket_counts().iter().sum();
        assert_eq!(total, 4000);
    }

    #[test]
    fn registry_returns_shared_handles_and_renders_prometheus() {
        let reg = Registry::new();
        let c1 = reg.counter("edgeis_frames_total", &[("device", "0")]);
        let c2 = reg.counter("edgeis_frames_total", &[("device", "0")]);
        c1.add(3);
        c2.inc();
        assert_eq!(c1.get(), 4, "same key shares one cell");
        reg.gauge("edgeis_health_state", &[("device", "0")])
            .set(2.0);
        let h = reg.histogram("edgeis_mobile_ms", &[]);
        h.observe(5.0);
        h.observe(7.0);
        let text = reg.prometheus_text();
        assert!(text.contains("# TYPE edgeis_frames_total counter"));
        assert!(text.contains("edgeis_frames_total{device=\"0\"} 4"));
        assert!(text.contains("# TYPE edgeis_health_state gauge"));
        assert!(text.contains("# TYPE edgeis_mobile_ms histogram"));
        assert!(text.contains("edgeis_mobile_ms_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("edgeis_mobile_ms_count 2"));
        crate::export::validate_prometheus(&text).expect("snapshot parses");
    }

    #[test]
    fn quantile_handles_small_and_empty_inputs() {
        let empty = Histogram::new();
        assert_eq!(empty.quantile(0.5), 0.0);
        let one = Histogram::from_samples(&[42.0]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(one.quantile(q), 42.0, "single sample is every quantile");
        }
        let two = Histogram::from_samples(&[100.0, 300.0]);
        assert_eq!(two.quantile(0.5), 100.0, "rank 1 is the exact minimum");
        assert_eq!(two.quantile(1.0), 300.0, "rank n is the exact maximum");
    }
}
