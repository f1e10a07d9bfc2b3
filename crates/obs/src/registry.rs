//! The metrics registry: named counters, gauges, histograms and span
//! timings, serializable to a stable JSON document.

use crate::histogram::{Histogram, HistogramInner};
use crate::manifest::RunManifest;
use crate::span::{SpanGuard, SpanStat, SpanStore, LATENCY_BOUNDS_NS};
use crate::trace::{TraceBuffer, TraceEvent, TracePhase};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// A cloneable handle onto one registered monotonic counter.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A cloneable handle onto one registered gauge (a settable `i64`).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A registry of named metrics.
///
/// Handles ([`Counter`], [`Gauge`], [`Histogram`]) are created on first
/// use of a name and shared thereafter; recording through a handle is a
/// few relaxed atomics and never locks. Span timing locks a `Mutex` per
/// span open/close — spans mark pipeline *stages*, not inner loops.
///
/// Serialization ([`MetricsRegistry::to_json`]) is deterministic: keys
/// are `BTreeMap`-ordered and no wall-clock timestamp appears anywhere.
/// The run-to-run variation is duration data and execution shape —
/// fields suffixed `_ns`, the `timing/latency_ns` subtree, trace-event
/// timestamps and sequence numbers, allocator (`alloc/`) and worker-pool
/// (`par/`) gauges, and the manifest thread count — all of which
/// [`MetricsRegistry::to_json_redacted`] zeroes for byte-comparison.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    spans: Mutex<SpanStore>,
    trace: Mutex<TraceBuffer>,
    manifest: Mutex<Option<RunManifest>>,
    /// The instant of the first recorded trace event; every event's
    /// `t_ns` is an offset from it, so no wall-clock value is stored.
    epoch: OnceLock<Instant>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding one of these locks cannot leave the maps in a
    // torn state (every mutation is a single insert or field update), so
    // recover the data instead of poisoning the whole pipeline's metrics.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let cell = Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0))),
        );
        Counter { cell }
    }

    /// The gauge registered under `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let cell = Arc::clone(
            lock(&self.gauges)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0))),
        );
        Gauge { cell }
    }

    /// The histogram registered under `name`. Bucket bounds freeze on
    /// first registration; later calls with different bounds get the
    /// original histogram (bounds are part of the metric's identity and
    /// must not drift mid-run).
    #[must_use]
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let inner = Arc::clone(
            lock(&self.histograms)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(HistogramInner::new(bounds))),
        );
        Histogram { inner }
    }

    /// Opens a span named `name`, nested under any span already live on
    /// this thread.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        let path = crate::span::push_scope(name);
        let t_ns = self.epoch_ns();
        {
            let mut spans = lock(&self.spans);
            spans.note_start(&path);
        }
        lock(&self.trace).record(TracePhase::Begin, &path, t_ns, 0);
        SpanGuard {
            registry: self,
            path,
            start: Instant::now(),
            #[cfg(feature = "alloc")]
            alloc_at_open: tweetmob_alloc::is_counting().then(tweetmob_alloc::snapshot),
        }
    }

    pub(crate) fn record_span(&self, path: &str, elapsed_ns: u64, child_ns: u64) {
        let t_ns = self.epoch_ns();
        lock(&self.spans).record(path, elapsed_ns, child_ns);
        lock(&self.trace).record(TracePhase::End, path, t_ns, elapsed_ns);
    }

    /// Nanoseconds since the registry's first trace event (the epoch is
    /// initialized on first call, so the first event reads ~0).
    fn epoch_ns(&self) -> u64 {
        let elapsed = self.epoch.get_or_init(Instant::now).elapsed().as_nanos();
        u64::try_from(elapsed).unwrap_or(u64::MAX)
    }

    /// Current value of a counter, or `None` if never registered.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        lock(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Current value of a gauge, or `None` if never registered.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        lock(&self.gauges)
            .get(name)
            .map(|g| g.load(Ordering::Relaxed))
    }

    /// Aggregated timing of a span path, if it ever completed.
    #[must_use]
    pub fn span_stat(&self, path: &str) -> Option<SpanStat> {
        lock(&self.spans).stats.get(path).copied()
    }

    /// Every span path seen, in first-start order.
    #[must_use]
    pub fn span_paths(&self) -> Vec<String> {
        lock(&self.spans).order.clone()
    }

    /// A snapshot of the trace ring buffer, oldest event first.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        lock(&self.trace).events()
    }

    /// How many trace events have been dropped by the bounded buffer.
    #[must_use]
    pub fn trace_dropped(&self) -> u64 {
        lock(&self.trace).dropped()
    }

    /// Resizes the trace ring buffer (default
    /// [`crate::trace::DEFAULT_TRACE_CAPACITY`] events); shrinking drops
    /// the oldest events. Capacity 0 disables event recording entirely.
    pub fn set_trace_capacity(&self, capacity: usize) {
        lock(&self.trace).set_capacity(capacity);
    }

    /// Attaches the run's provenance manifest; it serializes as the
    /// document's `manifest` section (rendered as `null` until set).
    pub fn set_manifest(&self, manifest: RunManifest) {
        *lock(&self.manifest) = Some(manifest);
    }

    /// The attached provenance manifest, if any.
    #[must_use]
    pub fn manifest(&self) -> Option<RunManifest> {
        lock(&self.manifest).clone()
    }

    /// Zeroes every counter and histogram, clears gauges, spans, trace
    /// events and the manifest. Handles already handed out stay valid
    /// (they share the cells).
    pub fn reset(&self) {
        for cell in lock(&self.counters).values() {
            cell.store(0, Ordering::Relaxed);
        }
        for cell in lock(&self.gauges).values() {
            cell.store(0, Ordering::Relaxed);
        }
        for hist in lock(&self.histograms).values() {
            for bucket in &hist.buckets {
                bucket.store(0, Ordering::Relaxed);
            }
            hist.count.store(0, Ordering::Relaxed);
            hist.sum.store(0, Ordering::Relaxed);
        }
        *lock(&self.spans) = SpanStore::default();
        *lock(&self.trace) = TraceBuffer::default();
        *lock(&self.manifest) = None;
    }

    /// Serializes the registry to its stable JSON document. Two runs of
    /// the same deterministic pipeline differ only in duration data:
    /// fields suffixed `_ns` and the `timing/latency_ns` subtree.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// [`MetricsRegistry::to_json`] with every duration field zeroed —
    /// two identical runs serialize byte-identically under this mode,
    /// which is what the determinism tests and the CI smoke compare.
    #[must_use]
    pub fn to_json_redacted(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, redact: bool) -> String {
        let mut out = String::from("{\n");
        // counters
        out.push_str("  \"counters\": {");
        let counters = lock(&self.counters);
        write_entries(&mut out, counters.iter(), 4, |out, cell| {
            let _ = write!(out, "{}", cell.load(Ordering::Relaxed));
        });
        drop(counters);
        out.push_str("},\n");
        // gauges — redaction zeroes everything that varies run to run or
        // with execution shape: `_ns`-suffixed durations (e.g.
        // cache/pairgeo/build_ns), allocator accounting (`alloc/`), and
        // worker-pool shape (`par/`, the documented thread-variant
        // exception of DESIGN.md §10).
        out.push_str("  \"gauges\": {");
        let gauges = lock(&self.gauges);
        write_entries(
            &mut out,
            gauges.iter().map(|(name, cell)| {
                let shape =
                    name.ends_with("_ns") || name.starts_with("alloc/") || name.starts_with("par/");
                let shown = if redact && shape {
                    0
                } else {
                    cell.load(Ordering::Relaxed)
                };
                (name, shown)
            }),
            4,
            |out, shown| {
                let _ = write!(out, "{shown}");
            },
        );
        drop(gauges);
        out.push_str("},\n");
        // histograms — values of `_ns`-named histograms are duration
        // samples, so their value-derived fields redact; counts stay.
        out.push_str("  \"histograms\": {");
        let histograms = lock(&self.histograms);
        write_entries(
            &mut out,
            histograms.iter().map(|(name, hist)| (name, (name, hist))),
            4,
            |out, (name, hist)| {
                let duration_valued = redact && name.ends_with("_ns");
                let counts: Vec<u64> = hist
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                let (overflow, bucket_counts) = counts
                    .split_last()
                    .map_or((0, &counts[..]), |(o, rest)| (*o, rest));
                let zeroed = vec![0u64; bucket_counts.len()];
                let (shown_buckets, overflow, sum, p50, p90, p99) = if duration_valued {
                    (&zeroed[..], 0, 0, 0, 0, 0)
                } else {
                    (
                        bucket_counts,
                        overflow,
                        hist.sum.load(Ordering::Relaxed),
                        hist.quantile(0.50),
                        hist.quantile(0.90),
                        hist.quantile(0.99),
                    )
                };
                let _ = write!(
                    out,
                    "{{\"bounds\": {}, \"buckets\": {}, \"overflow\": {overflow}, \
                     \"count\": {}, \"sum\": {sum}, \"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}}",
                    json_u64_array(&hist.bounds),
                    json_u64_array(shown_buckets),
                    hist.count.load(Ordering::Relaxed),
                );
            },
        );
        drop(histograms);
        out.push_str("},\n");
        // manifest — run provenance, when the host attached one.
        out.push_str("  \"manifest\": ");
        match lock(&self.manifest).as_ref() {
            Some(manifest) => out.push_str(&manifest.render(redact, false, 2)),
            None => out.push_str("null"),
        }
        out.push_str(",\n");
        // timing (spans + latency histograms) — the duration-bearing part.
        out.push_str("  \"timing\": {\n    \"latency_bounds_ns\": ");
        out.push_str(&json_u64_array(&LATENCY_BOUNDS_NS));
        out.push_str(",\n    \"latency_ns\": {");
        let spans = lock(&self.spans);
        write_entries(&mut out, spans.latency.iter(), 6, |out, buckets| {
            let zeroed = [0u64; LATENCY_BOUNDS_NS.len() + 1];
            let shown: &[u64] = if redact { &zeroed } else { &buckets[..] };
            out.push_str(&json_u64_array(shown));
        });
        out.push_str("},\n    \"spans\": {");
        write_entries(&mut out, spans.stats.iter(), 6, |out, stat| {
            let (total, min, max, child, own) = if redact {
                (0, 0, 0, 0, 0)
            } else {
                (
                    stat.total_ns,
                    stat.min_ns,
                    stat.max_ns,
                    stat.child_ns,
                    stat.self_ns(),
                )
            };
            let _ = write!(
                out,
                "{{\"calls\": {}, \"child_ns\": {child}, \"max_ns\": {max}, \
                 \"min_ns\": {min}, \"self_ns\": {own}, \"total_ns\": {total}}}",
                stat.calls,
            );
        });
        drop(spans);
        out.push_str("}\n  },\n");
        // trace — the bounded deterministic event log.
        let trace = lock(&self.trace);
        let _ = write!(
            out,
            "  \"trace\": {{\n    \"capacity\": {},\n    \"dropped\": {},\n    \"events\": [",
            trace.capacity(),
            trace.dropped(),
        );
        let events = trace.events();
        drop(trace);
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (seq, t_ns, dur_ns) = if redact {
                (0, 0, 0)
            } else {
                (e.seq, e.t_ns, e.dur_ns)
            };
            let _ = write!(
                out,
                "\n      {{\"dur_ns\": {dur_ns}, \"path\": \"{}\", \"phase\": \"{}\", \
                 \"seq\": {seq}, \"t_ns\": {t_ns}}}",
                crate::json::escape(&e.path),
                e.phase.code(),
            );
        }
        if events.is_empty() {
            out.push_str("]\n  }\n}\n");
        } else {
            out.push_str("\n    ]\n  }\n}\n");
        }
        out
    }

    /// Exports the trace ring buffer as a Chrome `trace_event` JSON
    /// document (see [`crate::trace::render_chrome_trace`]).
    #[must_use]
    pub fn to_chrome_trace(&self, redact: bool) -> String {
        crate::trace::render_chrome_trace(&self.trace_events(), redact)
    }

    /// Exports span aggregates as collapsed stacks for flamegraph
    /// tooling (see [`crate::trace::render_collapsed`]).
    #[must_use]
    pub fn to_collapsed_stacks(&self, redact: bool) -> String {
        let spans = lock(&self.spans);
        let order = spans.order.clone();
        let stats: Vec<(String, SpanStat)> = spans
            .stats
            .iter()
            .map(|(path, stat)| (path.clone(), *stat))
            .collect();
        drop(spans);
        crate::trace::render_collapsed(&order, &stats, redact)
    }

    /// Renders the span tree as human-readable text, one line per path
    /// in first-start order, indented by nesting depth — the `--trace`
    /// output.
    #[must_use]
    pub fn render_trace(&self) -> String {
        let spans = lock(&self.spans);
        if spans.order.is_empty() {
            return String::from("(no spans recorded)\n");
        }
        let mut out = String::new();
        for path in &spans.order {
            let Some(stat) = spans.stats.get(path) else {
                continue;
            };
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let _ = write!(out, "{:indent$}{name}", "", indent = depth * 2);
            let pad = 40usize.saturating_sub(depth * 2 + name.len());
            let _ = writeln!(
                out,
                "{:pad$} {:>10}  x{}",
                "",
                format_ns(stat.total_ns),
                stat.calls,
            );
        }
        out
    }
}

/// Writes `"key": <value>` entries (already-sorted iterator) with the
/// given indent, comma-separated, closing back at `indent - 2`.
fn write_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl ExactSizeIterator<Item = (&'a String, V)>,
    indent: usize,
    mut write_value: impl FnMut(&mut String, V),
) {
    let n = entries.len();
    if n == 0 {
        return;
    }
    for (i, (key, value)) in entries.enumerate() {
        let _ = write!(out, "\n{:indent$}\"{}\": ", "", crate::json::escape(key));
        write_value(out, value);
        if i + 1 < n {
            out.push(',');
        }
    }
    let _ = write!(out, "\n{:width$}", "", width = indent - 2);
}

fn json_u64_array(values: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// Formats nanoseconds as a human-friendly duration.
fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.incr();
        assert_eq!(r.counter_value("x"), Some(4));
        assert_eq!(a.value(), 4);
    }

    #[test]
    fn nested_spans_build_slash_paths() {
        let r = MetricsRegistry::new();
        {
            let _outer = r.span("mobility");
            {
                let _inner = r.span("fit/gravity4");
            }
            {
                let _inner = r.span("evaluate");
            }
        }
        {
            let _top = r.span("load");
        }
        assert_eq!(
            r.span_paths(),
            vec![
                "mobility",
                "mobility/fit/gravity4",
                "mobility/evaluate",
                "load"
            ]
        );
        let stat = r.span_stat("mobility/fit/gravity4").unwrap();
        assert_eq!(stat.calls, 1);
        assert!(stat.max_ns >= stat.min_ns);
    }

    #[test]
    fn span_calls_aggregate() {
        let r = MetricsRegistry::new();
        for _ in 0..3 {
            let _g = r.span("fit");
        }
        let stat = r.span_stat("fit").unwrap();
        assert_eq!(stat.calls, 3);
        assert!(stat.total_ns >= stat.max_ns);
    }

    #[test]
    fn reset_zeroes_but_keeps_handles() {
        let r = MetricsRegistry::new();
        let c = r.counter("n");
        c.add(7);
        let h = r.histogram("h", &[10]);
        h.record(3);
        {
            let _g = r.span("s");
        }
        r.reset();
        assert_eq!(r.counter_value("n"), Some(0));
        assert_eq!(h.count(), 0);
        assert!(r.span_paths().is_empty());
        c.add(2);
        assert_eq!(r.counter_value("n"), Some(2));
    }

    #[test]
    fn trace_renders_indented_tree() {
        let r = MetricsRegistry::new();
        {
            let _a = r.span("load");
            let _b = r.span("read_jsonl");
        }
        let trace = r.render_trace();
        let lines: Vec<&str> = trace.lines().collect();
        assert!(lines[0].starts_with("load"));
        assert!(lines[1].starts_with("  read_jsonl"));
        assert!(MetricsRegistry::new().render_trace().contains("no spans"));
    }

    #[test]
    fn format_ns_scales_units() {
        assert_eq!(format_ns(500), "500 ns");
        assert_eq!(format_ns(1_500), "1.5 µs");
        assert_eq!(format_ns(2_000_000), "2.00 ms");
        assert_eq!(format_ns(3_000_000_000), "3.00 s");
    }

    #[test]
    fn json_escapes_hostile_names() {
        let r = MetricsRegistry::new();
        r.counter("we\"ird\\name").incr();
        let json = r.to_json();
        assert!(json.contains("we\\\"ird\\\\name"));
    }

    #[test]
    fn child_time_accrues_to_the_parent_span() {
        let r = MetricsRegistry::new();
        {
            let _outer = r.span("outer");
            {
                let _inner = r.span("inner");
            }
            {
                let _inner = r.span("inner");
            }
        }
        let outer = r.span_stat("outer").unwrap();
        let inner = r.span_stat("outer/inner").unwrap();
        // The parent's child time is exactly the children's total time.
        assert_eq!(outer.child_ns, inner.total_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - outer.child_ns);
        assert_eq!(inner.child_ns, 0, "leaf spans have no child time");
        assert_eq!(inner.self_ns(), inner.total_ns);
    }

    #[test]
    fn trace_events_pair_begin_and_end_in_sequence_order() {
        let r = MetricsRegistry::new();
        {
            let _a = r.span("load");
            let _b = r.span("parse");
        }
        let events = r.trace_events();
        let shape: Vec<(u64, &str, String)> = events
            .iter()
            .map(|e| (e.seq, e.phase.code(), e.path.clone()))
            .collect();
        assert_eq!(
            shape,
            vec![
                (1, "B", "load".to_string()),
                (2, "B", "load/parse".to_string()),
                (3, "E", "load/parse".to_string()),
                (4, "E", "load".to_string()),
            ]
        );
        assert_eq!(r.trace_dropped(), 0);
        // End events carry the span duration; begins do not.
        assert_eq!(events[0].dur_ns, 0);
        assert!(events[3].t_ns >= events[0].t_ns);
    }

    #[test]
    fn document_carries_trace_and_manifest_sections() {
        let r = MetricsRegistry::new();
        {
            let _s = r.span("stage");
        }
        let json = r.to_json();
        assert!(json.contains("\"trace\": {"));
        assert!(json.contains("\"phase\": \"B\""));
        assert!(json.contains("\"manifest\": null"));
        r.set_manifest(RunManifest {
            subcommand: "fit".into(),
            outcome: "ok".into(),
            ..RunManifest::default()
        });
        let json = r.to_json();
        assert!(json.contains("\"subcommand\": \"fit\""));
        assert_eq!(r.manifest().unwrap().subcommand, "fit");
    }

    #[test]
    fn redacted_document_is_identical_across_runs_with_trace() {
        let run = || {
            let r = MetricsRegistry::new();
            {
                let _a = r.span("load");
                let _b = r.span("parse");
            }
            r.set_manifest(RunManifest {
                subcommand: "summary".into(),
                threads: 3,
                outcome: "ok".into(),
                ..RunManifest::default()
            });
            r
        };
        let a = run();
        let b = run();
        assert_eq!(a.to_json_redacted(), b.to_json_redacted());
        let redacted = a.to_json_redacted();
        assert!(redacted.contains("\"seq\": 0"));
        assert!(redacted.contains("\"t_ns\": 0"));
        assert!(redacted.contains("\"threads\": 0"));
        assert!(redacted.contains("\"child_ns\": 0"));
        assert!(redacted.contains("\"self_ns\": 0"));
    }

    #[test]
    fn redaction_zeroes_alloc_and_par_gauges() {
        let r = MetricsRegistry::new();
        r.gauge("alloc/load/peak_bytes").set(4096);
        r.gauge("par/trips/threads").set(8);
        r.gauge("odmatrix/cells").set(400);
        let redacted = r.to_json_redacted();
        assert!(redacted.contains("\"alloc/load/peak_bytes\": 0"));
        assert!(redacted.contains("\"par/trips/threads\": 0"));
        assert!(redacted.contains("\"odmatrix/cells\": 400"));
    }

    #[test]
    fn duration_valued_histograms_redact_values_keep_counts() {
        let r = MetricsRegistry::new();
        let h = r.histogram("io/write_ns", &[1_000, 1_000_000]);
        h.record(500);
        h.record(2_000_000);
        let full = r.to_json();
        assert!(full.contains("\"sum\": 2000500"));
        let redacted = r.to_json_redacted();
        assert!(
            redacted.contains("\"count\": 2"),
            "counts are deterministic"
        );
        assert!(redacted.contains("\"sum\": 0"));
        assert!(redacted.contains("\"p99\": 0"));
    }

    #[test]
    fn histogram_json_carries_interpolated_quantiles() {
        let r = MetricsRegistry::new();
        let h = r.histogram("tweets_per_user", &[10, 20]);
        for v in [2, 4, 6, 8, 12, 14, 16, 18] {
            h.record(v);
        }
        let json = r.to_json();
        assert!(json.contains("\"p50\": 10"), "boundary-pinned p50: {json}");
        assert!(json.contains("\"p90\": 18"));
        assert!(json.contains("\"p99\": 20"));
    }

    #[test]
    fn saturated_quantiles_render_with_a_visible_overflow_count() {
        let r = MetricsRegistry::new();
        // Bounds far too narrow for the tail: every quantile rank that
        // lands in the overflow bucket saturates at the last finite
        // bound, so the rendered document must carry the overflow count
        // right next to the quantiles as the under-reporting signal.
        let h = r.histogram("serve_latency_demo", &[10, 100]);
        h.record(5);
        for _ in 0..9 {
            h.record(50_000); // far beyond the last bound
        }
        assert_eq!(h.overflow(), 9);
        assert_eq!(h.quantile(0.99), 100, "p99 saturates at the last bound");
        let json = r.to_json();
        assert!(json.contains("\"overflow\": 9"), "overflow visible: {json}");
        assert!(
            json.contains("\"p99\": 100"),
            "saturated p99 rendered: {json}"
        );
    }

    #[test]
    fn serve_latency_bounds_keep_cold_start_requests_finite() {
        let r = MetricsRegistry::new();
        let h = r.histogram("serve_cold_start", &crate::SERVE_LATENCY_BOUNDS_NS);
        // A multi-second first request against a cold artifact must land
        // in a finite bucket, not the overflow cell — otherwise serve
        // p99 silently saturates (the failure mode pinned above).
        h.record(4_000_000_000);
        assert_eq!(h.overflow(), 0);
        let p99 = h.quantile(0.99);
        assert!(
            p99 > 2_000_000_000 && p99 <= 30_000_000_000,
            "cold start interpolates inside the finite buckets, got {p99}"
        );
    }

    #[test]
    fn timer_yields_monotonic_nanosecond_samples() {
        let t = crate::Timer::start();
        let first = t.elapsed_ns();
        std::hint::black_box((0..10_000u64).sum::<u64>());
        let second = t.elapsed_ns();
        assert!(second >= first, "{second} >= {first}");
    }

    #[test]
    fn chrome_trace_and_collapsed_exports_come_from_the_registry() {
        let r = MetricsRegistry::new();
        {
            let _a = r.span("fit");
            let _b = r.span("gravity4");
        }
        let chrome = r.to_chrome_trace(false);
        assert!(chrome.contains("\"name\": \"fit/gravity4\""));
        let folded = r.to_collapsed_stacks(false);
        assert!(folded.contains("fit;gravity4 "));
        // Redacted exports are stable across identical runs.
        let again = MetricsRegistry::new();
        {
            let _a = again.span("fit");
            let _b = again.span("gravity4");
        }
        assert_eq!(r.to_chrome_trace(true), again.to_chrome_trace(true));
        assert_eq!(r.to_collapsed_stacks(true), again.to_collapsed_stacks(true));
    }

    #[test]
    fn trace_capacity_bounds_the_registry_buffer() {
        let r = MetricsRegistry::new();
        r.set_trace_capacity(2);
        for _ in 0..3 {
            let _s = r.span("s");
        }
        assert_eq!(r.trace_events().len(), 2);
        assert_eq!(r.trace_dropped(), 4, "3 begins + 3 ends, 2 kept");
    }
}
