//! The metrics registry: striped counters/histograms, control-plane
//! gauges, the logical clock, and the enable switch.

use crate::recorder::{Recorder, DEFAULT_RECORDER_CAP};
use crate::span::SpanLog;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of metric stripes. Ranks map onto stripes by
/// `rank & (STRIPES - 1)` — the same folding rule `capi-xray` uses for
/// its dispatch counters, so per-stripe folds between the two line up
/// one-to-one.
pub const STRIPES: usize = 64;

/// Index of the extra stripe reserved for control-plane updates
/// (publish counts, span-adjacent metrics), mirroring the xray
/// runtime's control stripe.
pub(crate) const CONTROL_STRIPE: usize = STRIPES;

/// Maximum counters the registry can hold. Registration past the cap
/// panics: the metric set is a fixed, internal vocabulary, not
/// user-extensible cardinality.
pub const MAX_COUNTERS: usize = 64;

/// Maximum gauges the registry can hold.
pub const MAX_GAUGES: usize = 64;

/// Maximum histograms the registry can hold.
pub const MAX_HISTOGRAMS: usize = 16;

/// Power-of-two buckets per histogram: bucket `b` holds values whose
/// bit length is `b` (value 0 lands in bucket 0, values ≥ 2³⁰ saturate
/// into the last bucket).
pub const HIST_BUCKETS: usize = 32;

/// Handle to a registered counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(pub(crate) usize);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(pub(crate) usize);

/// Handle to a registered histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(pub(crate) usize);

/// What a histogram's samples mean for the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistogramKind {
    /// Values are virtual/logical quantities: fully deterministic, the
    /// text exporter renders count, sum and buckets.
    Logical,
    /// Values are wall-clock measurements: the text exporter renders
    /// only the (deterministic) sample count; sums and buckets go to
    /// the Chrome trace alone.
    Wall,
}

/// One cache-line-aligned stripe of metric slots. A rank's updates land
/// on its own stripe, so concurrent ranks never contend; totals are the
/// sum over stripes, which is interleaving-independent by
/// commutativity.
#[repr(align(64))]
pub(crate) struct MetricStripe {
    pub(crate) counters: [AtomicU64; MAX_COUNTERS],
    pub(crate) hist_count: [AtomicU64; MAX_HISTOGRAMS],
    pub(crate) hist_sum: [AtomicU64; MAX_HISTOGRAMS],
    pub(crate) hist_buckets: [[AtomicU64; HIST_BUCKETS]; MAX_HISTOGRAMS],
    /// Mutations applied through this stripe — the registry's
    /// self-overhead ledger.
    pub(crate) self_updates: AtomicU64,
}

impl MetricStripe {
    fn new() -> Self {
        Self {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_count: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_sum: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            self_updates: AtomicU64::new(0),
        }
    }
}

/// Name directory — cold path only, behind a mutex. Registration is
/// idempotent by name so repeated wiring (e.g. an engine bound afresh
/// every epoch) reuses the same slots.
pub(crate) struct Directory {
    pub(crate) counters: Vec<String>,
    pub(crate) gauges: Vec<String>,
    pub(crate) histograms: Vec<(String, HistogramKind)>,
}

pub(crate) struct Inner {
    pub(crate) enabled: AtomicBool,
    /// The logical clock: advanced only by span/instant events on the
    /// control thread, never by metric updates.
    pub(crate) clock: AtomicU64,
    pub(crate) span_events: AtomicU64,
    pub(crate) directory: Mutex<Directory>,
    /// `STRIPES` rank stripes plus the control stripe.
    pub(crate) stripes: Box<[MetricStripe]>,
    pub(crate) gauges: [AtomicU64; MAX_GAUGES],
    pub(crate) spans: Mutex<SpanLog>,
    /// The bounded flight recorder (see [`crate::recorder`]).
    pub(crate) recorder: Recorder,
}

/// Registry self-accounting counters (see the crate docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelfStats {
    /// Metric mutations performed (counter adds/stores, histogram
    /// observations, gauge sets).
    pub metric_updates: u64,
    /// Span and instant events recorded.
    pub span_events: u64,
}

/// A telemetry handle — cheap to clone ([`Arc`] inside), shared by
/// every wired subsystem of one adaptive run.
#[derive(Clone)]
pub struct Telemetry {
    pub(crate) inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = self.inner.directory.lock();
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.enabled.load(Ordering::Relaxed))
            .field("clock", &self.inner.clock.load(Ordering::Relaxed))
            .field("counters", &dir.counters.len())
            .field("gauges", &dir.gauges.len())
            .field("histograms", &dir.histograms.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    fn with_enabled(enabled: bool) -> Self {
        Self {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(enabled),
                clock: AtomicU64::new(0),
                span_events: AtomicU64::new(0),
                directory: Mutex::new(Directory {
                    counters: Vec::new(),
                    gauges: Vec::new(),
                    histograms: Vec::new(),
                }),
                stripes: (0..=STRIPES).map(|_| MetricStripe::new()).collect(),
                gauges: std::array::from_fn(|_| AtomicU64::new(0)),
                spans: Mutex::new(SpanLog::default()),
                recorder: Recorder::new(DEFAULT_RECORDER_CAP),
            }),
        }
    }

    /// A new, enabled telemetry instance. Explicit construction implies
    /// the caller wants the data; use [`Self::disabled`] to wire the
    /// call sites while keeping the fast-path cost at one relaxed load.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A new instance with recording switched off: every metric and
    /// span operation reduces to a single relaxed load and an early
    /// return.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// The instance requested by the environment: `Some` (enabled) when
    /// `CAPI_TELEMETRY` is truthy (`1`/`true`/`on`/`yes`) **or** any of
    /// `CAPI_TRACE_OUT` / `CAPI_METRICS_OUT` / `CAPI_DUMP_OUT` names an
    /// output file (asking for an artifact implies wanting the data),
    /// `None` otherwise. A `CAPI_RECORDER_CAP` knob is applied to the
    /// returned instance's flight recorder.
    pub fn from_env() -> Option<Self> {
        let truthy = |v: String| matches!(v.trim(), "1" | "true" | "on" | "yes");
        let wanted = std::env::var("CAPI_TELEMETRY").map(truthy).unwrap_or(false)
            || crate::trace_out_from_env().is_some()
            || crate::metrics_out_from_env().is_some()
            || crate::dump_out_from_env().is_some();
        wanted.then(|| {
            let tel = Self::new();
            if let Some(cap) = crate::recorder_cap_from_env() {
                tel.set_recorder_cap(cap);
            }
            tel
        })
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off. Already-recorded data is kept.
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.enabled.store(enabled, Ordering::Relaxed);
    }

    // ---- registration (cold path) ------------------------------------

    /// Registers (or finds) a counter by name.
    ///
    /// Panics when more than [`MAX_COUNTERS`] distinct counters are
    /// registered — the metric vocabulary is fixed by the runtime, not
    /// data-driven.
    pub fn counter(&self, name: &str) -> CounterId {
        let mut dir = self.inner.directory.lock();
        if let Some(i) = dir.counters.iter().position(|n| n == name) {
            return CounterId(i);
        }
        assert!(
            dir.counters.len() < MAX_COUNTERS,
            "capi-obs: counter capacity ({MAX_COUNTERS}) exhausted registering {name:?}"
        );
        dir.counters.push(name.to_string());
        CounterId(dir.counters.len() - 1)
    }

    /// Registers (or finds) a gauge by name. Panics past [`MAX_GAUGES`].
    pub fn gauge(&self, name: &str) -> GaugeId {
        let mut dir = self.inner.directory.lock();
        if let Some(i) = dir.gauges.iter().position(|n| n == name) {
            return GaugeId(i);
        }
        assert!(
            dir.gauges.len() < MAX_GAUGES,
            "capi-obs: gauge capacity ({MAX_GAUGES}) exhausted registering {name:?}"
        );
        dir.gauges.push(name.to_string());
        GaugeId(dir.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram by name. The kind is fixed at
    /// first registration. Panics past [`MAX_HISTOGRAMS`].
    pub fn histogram(&self, name: &str, kind: HistogramKind) -> HistogramId {
        let mut dir = self.inner.directory.lock();
        if let Some(i) = dir.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        assert!(
            dir.histograms.len() < MAX_HISTOGRAMS,
            "capi-obs: histogram capacity ({MAX_HISTOGRAMS}) exhausted registering {name:?}"
        );
        dir.histograms.push((name.to_string(), kind));
        HistogramId(dir.histograms.len() - 1)
    }

    // ---- mutation (hot path) -----------------------------------------

    #[inline]
    pub(crate) fn stripe(&self, rank: u32) -> &MetricStripe {
        &self.inner.stripes[rank as usize & (STRIPES - 1)]
    }

    /// Adds `n` to a counter on `rank`'s stripe. Disabled: one relaxed
    /// load. Enabled: two relaxed RMWs on the rank's own cache lines.
    #[inline]
    pub fn add(&self, c: CounterId, rank: u32, n: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let s = self.stripe(rank);
        s.counters[c.0].fetch_add(n, Ordering::Relaxed);
        s.self_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores an absolute per-stripe total into a counter slot — the
    /// fold primitive for subsystems (like the xray dispatch stripes)
    /// that already count on their own striped atomics and sync their
    /// running totals into the registry at control points. Stripe
    /// totals, not deltas: folding is idempotent.
    #[inline]
    pub fn store(&self, c: CounterId, rank: u32, total: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let s = self.stripe(rank);
        s.counters[c.0].store(total, Ordering::Relaxed);
        s.self_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a full set of absolute per-rank totals into a counter,
    /// grouping ranks onto the fixed stripe set (`rank & (STRIPES-1)`)
    /// and storing each stripe's *sum*. With more distinct ranks than
    /// stripes, plain [`Self::store`] calls would overwrite each other
    /// (last writer wins within a stripe); this fold keeps the stored
    /// values exact — `counter_value` still returns the true total.
    /// Every stripe is rewritten (including to zero), so repeated folds
    /// are idempotent like `store`.
    pub fn store_folded<I>(&self, c: CounterId, totals: I)
    where
        I: IntoIterator<Item = (u32, u64)>,
    {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut per_stripe = [0u64; STRIPES];
        for (rank, total) in totals {
            per_stripe[rank as usize & (STRIPES - 1)] += total;
        }
        for (i, &total) in per_stripe.iter().enumerate() {
            let s = &self.inner.stripes[i];
            s.counters[c.0].store(total, Ordering::Relaxed);
            s.self_updates.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one sample into a histogram on `rank`'s stripe.
    #[inline]
    pub fn observe(&self, h: HistogramId, rank: u32, value: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let s = self.stripe(rank);
        s.hist_count[h.0].fetch_add(1, Ordering::Relaxed);
        s.hist_sum[h.0].fetch_add(value, Ordering::Relaxed);
        s.hist_buckets[h.0][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        s.self_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Control-plane variants of [`Self::observe`]/[`Self::add`]: land
    /// on the control stripe instead of a rank stripe.
    #[inline]
    pub fn observe_control(&self, h: HistogramId, value: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let s = &self.inner.stripes[CONTROL_STRIPE];
        s.hist_count[h.0].fetch_add(1, Ordering::Relaxed);
        s.hist_sum[h.0].fetch_add(value, Ordering::Relaxed);
        s.hist_buckets[h.0][bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        s.self_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter on the control stripe.
    #[inline]
    pub fn add_control(&self, c: CounterId, n: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        let s = &self.inner.stripes[CONTROL_STRIPE];
        s.counters[c.0].fetch_add(n, Ordering::Relaxed);
        s.self_updates.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets a gauge (control-plane, last-writer-wins). Each set is also
    /// recorded with its logical-clock position so the Chrome trace can
    /// plot the gauge over time.
    pub fn set(&self, g: GaugeId, value: u64) {
        if !self.inner.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.inner.gauges[g.0].store(value, Ordering::Relaxed);
        self.inner.stripes[CONTROL_STRIPE]
            .self_updates
            .fetch_add(1, Ordering::Relaxed);
        let tick = self.inner.clock.load(Ordering::Relaxed);
        self.inner
            .spans
            .lock()
            .gauge_points
            .push((g.0, tick, value));
    }

    // ---- readback -----------------------------------------------------

    /// The merged total of a counter: sum over all stripes —
    /// deterministic for any rank interleaving, because addition
    /// commutes.
    pub fn counter_value(&self, c: CounterId) -> u64 {
        self.inner
            .stripes
            .iter()
            .map(|s| s.counters[c.0].load(Ordering::Relaxed))
            .sum()
    }

    /// The last value stored into a gauge.
    pub fn gauge_value(&self, g: GaugeId) -> u64 {
        self.inner.gauges[g.0].load(Ordering::Relaxed)
    }

    /// Merged sample count of a histogram.
    pub fn histogram_count(&self, h: HistogramId) -> u64 {
        self.inner
            .stripes
            .iter()
            .map(|s| s.hist_count[h.0].load(Ordering::Relaxed))
            .sum()
    }

    /// Merged sample sum of a histogram.
    pub fn histogram_sum(&self, h: HistogramId) -> u64 {
        self.inner
            .stripes
            .iter()
            .map(|s| s.hist_sum[h.0].load(Ordering::Relaxed))
            .sum()
    }

    /// The registry's self-accounting counters.
    pub fn self_stats(&self) -> SelfStats {
        SelfStats {
            metric_updates: self
                .inner
                .stripes
                .iter()
                .map(|s| s.self_updates.load(Ordering::Relaxed))
                .sum(),
            span_events: self.inner.span_events.load(Ordering::Relaxed),
        }
    }

    /// Measures the wall cost of one [`Self::add`] in the instance's
    /// *current* enabled state, in nanoseconds per operation, by timing
    /// `iters` updates of a scratch counter (`obs.calibration`). This
    /// is the registry measuring itself — the number `table8` multiplies
    /// against [`SelfStats::metric_updates`] to report total telemetry
    /// self-cost.
    pub fn calibrate_update_ns(&self, iters: u64) -> f64 {
        let scratch = self.counter("obs.calibration");
        let iters = iters.max(1);
        let start = std::time::Instant::now();
        for i in 0..iters {
            self.add(scratch, (i & 63) as u32, 1);
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    }
}

/// Bucket index for a histogram value: its bit length, saturated to the
/// last bucket.
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_folded_is_exact_past_the_stripe_count() {
        let t = Telemetry::new();
        let c = t.counter("folded");
        // 130 ranks with total i each: ranks 0, 64 and 128 share stripe
        // 0, yet the folded store keeps the aggregate exact — and a
        // second fold with the same totals is idempotent.
        let totals: Vec<(u32, u64)> = (0..130).map(|r| (r, u64::from(r))).collect();
        let expected: u64 = totals.iter().map(|&(_, v)| v).sum();
        t.store_folded(c, totals.iter().copied());
        assert_eq!(t.counter_value(c), expected);
        t.store_folded(c, totals.iter().copied());
        assert_eq!(t.counter_value(c), expected);
        // A plain per-rank `store` of the same totals would alias:
        // stripe 0 would hold only rank 128's value.
        for &(r, v) in &totals {
            t.store(c, r, v);
        }
        assert_ne!(t.counter_value(c), expected);
        // Folding again repairs it (idempotent overwrite of every
        // stripe, including back down to the exact sums).
        t.store_folded(c, totals.iter().copied());
        assert_eq!(t.counter_value(c), expected);
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let t = Telemetry::new();
        let a = t.counter("x");
        let b = t.counter("x");
        assert_eq!(a, b);
        assert_ne!(t.counter("y"), a);
        let h = t.histogram("h", HistogramKind::Logical);
        assert_eq!(t.histogram("h", HistogramKind::Logical), h);
    }

    #[test]
    fn counters_merge_as_sums_over_stripes() {
        let t = Telemetry::new();
        let c = t.counter("events");
        t.add(c, 0, 3);
        t.add(c, 1, 4);
        t.add(c, 64, 5); // folds onto stripe 0, still summed once
        assert_eq!(t.counter_value(c), 12);
    }

    #[test]
    fn disabled_instances_record_nothing() {
        let t = Telemetry::disabled();
        let c = t.counter("events");
        let h = t.histogram("h", HistogramKind::Logical);
        let g = t.gauge("g");
        t.add(c, 0, 3);
        t.observe(h, 0, 9);
        t.set(g, 7);
        assert_eq!(t.counter_value(c), 0);
        assert_eq!(t.histogram_count(h), 0);
        assert_eq!(t.gauge_value(g), 0);
        assert_eq!(t.self_stats().metric_updates, 0);
        // Flipping the switch re-arms the same instance.
        t.set_enabled(true);
        t.add(c, 0, 3);
        assert_eq!(t.counter_value(c), 3);
    }

    #[test]
    fn store_folds_absolute_totals_idempotently() {
        let t = Telemetry::new();
        let c = t.counter("dispatches");
        t.store(c, 0, 100);
        t.store(c, 1, 50);
        t.store(c, 0, 120); // re-fold: absolute, not additive
        assert_eq!(t.counter_value(c), 170);
    }

    #[test]
    fn histogram_buckets_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        let t = Telemetry::new();
        let h = t.histogram("h", HistogramKind::Logical);
        for v in [0u64, 1, 3, 1024] {
            t.observe(h, 2, v);
        }
        assert_eq!(t.histogram_count(h), 4);
        assert_eq!(t.histogram_sum(h), 1028);
    }

    #[test]
    fn self_stats_count_every_mutation() {
        let t = Telemetry::new();
        let c = t.counter("c");
        let h = t.histogram("h", HistogramKind::Logical);
        let g = t.gauge("g");
        t.add(c, 0, 1);
        t.store(c, 1, 5);
        t.observe(h, 0, 2);
        t.set(g, 9);
        assert_eq!(t.self_stats().metric_updates, 4);
    }

    #[test]
    fn calibration_returns_a_finite_cost() {
        let t = Telemetry::new();
        let ns = t.calibrate_update_ns(10_000);
        assert!(ns.is_finite() && ns >= 0.0);
    }
}
