//! Point-in-time snapshots and the two exporters.
//!
//! A [`Snapshot`] is the *only* way metric state leaves a registry: a
//! sorted, owned copy of every metric. Sorting is by `(name, labels)`
//! with labels compared key-then-value, so two snapshots of equal state
//! serialize to identical bytes — the property the determinism tests and
//! the ci golden-file gate assert.
//!
//! Exporters:
//!
//! * [`Snapshot::to_jsonl`] / [`Snapshot::parse_jsonl`] — one JSON object
//!   per line, byte-exact round trip, written and read by
//!   `fancy_trace::json`, the codec the trace and the cell cache share.
//!   This module adds only what makes a line a sample: its kind, its
//!   keys, its required fields, a consistent histogram and sample order.
//! * [`Snapshot::to_prometheus`] — Prometheus text exposition: counters
//!   and gauges as single samples, histograms as cumulative
//!   `_bucket{le="…"}` series with integer bounds (`2^i − 1`) plus
//!   `_sum`/`_count`.

use std::cmp::Ordering;
use std::fmt;

use fancy_trace::json::{parse_object, ObjectWriter};

use crate::histogram::{bucket_le, Histogram};
use crate::Labels;

/// The value of one metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic count. Merges by addition.
    Counter(u64),
    /// Last-written level. Merges by `max` (the only commutative choice
    /// that keeps high-water semantics across cells).
    Gauge(u64),
    /// Exact-merge log2 histogram. Boxed: the fixed bucket array is
    /// ~70× the scalar variants, and most samples are scalars.
    Histogram(Box<Histogram>),
}

impl Value {
    /// Fold the same metric's value from another snapshot into this one.
    fn fold_in(&mut self, other: &Value, name: &str, labels: &Labels) {
        match (self, other) {
            (Value::Counter(c), Value::Counter(o)) => *c += o,
            (Value::Gauge(g), Value::Gauge(o)) => *g = (*g).max(*o),
            (Value::Histogram(h), Value::Histogram(o)) => h.merge(o),
            (mine, theirs) => panic!(
                "metric {name}{labels} is a {} on one side and a {} on the other",
                mine.kind(),
                theirs.kind()
            ),
        }
    }

    /// The kind tag used in JSONL and error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(_) => "histogram",
        }
    }
}

/// One metric of a snapshot: name, labels, value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (`fancy_detection_latency_ns`, …).
    pub name: String,
    /// Label set (possibly empty).
    pub labels: Labels,
    /// The value at snapshot time.
    pub value: Value,
}

/// A sorted point-in-time copy of a registry.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Samples in `(name, labels)` order.
    pub samples: Vec<Sample>,
}

/// Where a snapshot parse failed: line number (1-based) and reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number within the JSONL text.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseError {}

impl Snapshot {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Is the snapshot empty?
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Look one metric up.
    pub fn get(&self, name: &str, labels: &Labels) -> Option<&Value> {
        self.samples
            .binary_search_by(|s| (s.name.as_str(), &s.labels).cmp(&(name, labels)))
            .ok()
            .map(|i| &self.samples[i].value)
    }

    /// Counter value, if `name`+`labels` is a counter.
    pub fn counter(&self, name: &str, labels: &Labels) -> Option<u64> {
        match self.get(name, labels) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value, if `name`+`labels` is a gauge.
    pub fn gauge(&self, name: &str, labels: &Labels) -> Option<u64> {
        match self.get(name, labels) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram, if `name`+`labels` is a histogram.
    pub fn histogram(&self, name: &str, labels: &Labels) -> Option<&Histogram> {
        match self.get(name, labels) {
            Some(Value::Histogram(h)) => Some(&**h),
            _ => None,
        }
    }

    /// Every label set of `name` that is a histogram, in label order —
    /// the per-edge quantile walk of the netwide report.
    pub fn histograms_of<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a Labels, &'a Histogram)> + 'a {
        self.samples.iter().filter_map(move |s| match &s.value {
            Value::Histogram(h) if s.name == name => Some((&s.labels, &**h)),
            _ => None,
        })
    }

    /// All label sets of `name` merged into one histogram (for summary
    /// lines that want "detection latency across every edge").
    pub fn merged_histogram(&self, name: &str) -> Option<Histogram> {
        let mut out: Option<Histogram> = None;
        for (_, h) in self.histograms_of(name) {
            out.get_or_insert_with(Histogram::new).merge(h);
        }
        out
    }

    /// Distinct metric names in order (each yielded once).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        let mut last: Option<&str> = None;
        self.samples.iter().filter_map(move |s| {
            if last == Some(s.name.as_str()) {
                None
            } else {
                last = Some(s.name.as_str());
                Some(s.name.as_str())
            }
        })
    }

    /// Fold `other` into `self`: counters add, gauges take the max,
    /// histograms merge exactly; metrics present in only one side are
    /// kept. Associative and commutative, so per-cell snapshots can merge
    /// in any grouping (thread count, cache warm/cold) with bit-identical
    /// results.
    ///
    /// # Panics
    /// Panics if the same `(name, labels)` has different kinds on the two
    /// sides — that is a programming error at an instrumentation site,
    /// not a data condition.
    pub fn merge(&mut self, other: &Snapshot) {
        fn key(s: &Sample) -> (&str, &Labels) {
            (&s.name, &s.labels)
        }
        // Metrics both sides have are folded where they sit: merging
        // cells of one sweep, which share their keys, moves no sample (a
        // sample is wide, its labels are inline) and allocates nothing.
        let mut absent: Vec<&Sample> = Vec::new();
        let mut i = 0;
        for y in &other.samples {
            let found = loop {
                match self.samples.get(i).map(|x| key(x).cmp(&key(y))) {
                    Some(Ordering::Less) => i += 1,
                    ord => break ord == Some(Ordering::Equal),
                }
            };
            if found {
                let x = &mut self.samples[i];
                x.value.fold_in(&y.value, &y.name, &y.labels);
                i += 1; // keys are unique: `x` matches no later `y`
            } else {
                absent.push(y);
            }
        }
        if absent.is_empty() {
            return;
        }
        // The ones only `other` has are interleaved (both lists sorted).
        let mine = std::mem::take(&mut self.samples);
        self.samples.reserve_exact(mine.len() + absent.len());
        let mut absent = absent.into_iter().peekable();
        for x in mine {
            while let Some(y) = absent.next_if(|y| key(y) < key(&x)) {
                self.samples.push(y.clone());
            }
            self.samples.push(x);
        }
        self.samples.extend(absent.cloned());
    }

    /// Serialize: one JSON object per line, `(name, labels)` order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 64);
        for s in &self.samples {
            let mut w = ObjectWriter::appending_to(out);
            w.str("kind", s.value.kind())
                .str("name", &s.name)
                .obj("labels", s.labels.iter());
            match &s.value {
                Value::Counter(v) | Value::Gauge(v) => {
                    w.u64("value", *v);
                }
                Value::Histogram(h) => {
                    w.u64("count", h.count())
                        .u128("sum", h.sum())
                        .u64("min", h.min().unwrap_or(u64::MAX))
                        .u64("max", h.max().unwrap_or(0))
                        .pairs("buckets", h.nonzero_buckets().map(|(i, c)| [i as u64, c]));
                }
            }
            out = w.finish();
            out.push('\n');
        }
        out
    }

    /// Parse what [`Snapshot::to_jsonl`] wrote. Strict: unknown kinds,
    /// malformed JSON, out-of-order samples and inconsistent histogram
    /// scalars are all errors (a snapshot is a checksum-grade artifact,
    /// not a lenient config file).
    pub fn parse_jsonl(text: &str) -> Result<Snapshot, ParseError> {
        let mut samples = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let err = |reason: String| ParseError {
                line: lineno + 1,
                reason,
            };
            let sample = parse_sample(line).map_err(err)?;
            if let Some(prev) = samples.last() {
                let prev: &Sample = prev;
                if (&prev.name, &prev.labels) >= (&sample.name, &sample.labels) {
                    return Err(ParseError {
                        line: lineno + 1,
                        reason: format!(
                            "samples out of order: {}{} after {}{}",
                            sample.name, sample.labels, prev.name, prev.labels
                        ),
                    });
                }
            }
            samples.push(sample);
        }
        Ok(Snapshot { samples })
    }

    /// Prometheus text exposition. Histograms render their non-empty
    /// buckets cumulatively with integer `le` bounds plus the `+Inf`
    /// catch-all; a `# TYPE` header precedes each distinct metric name.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(self.samples.len() * 48);
        let mut last_name: Option<&str> = None;
        for s in &self.samples {
            if last_name != Some(s.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&s.name);
                out.push(' ');
                out.push_str(s.value.kind());
                out.push('\n');
                last_name = Some(s.name.as_str());
            }
            match &s.value {
                Value::Counter(v) | Value::Gauge(v) => {
                    out.push_str(&s.name);
                    write_prom_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&v.to_string());
                    out.push('\n');
                }
                Value::Histogram(h) => {
                    let mut cum = 0u64;
                    for (idx, c) in h.nonzero_buckets() {
                        cum += c;
                        out.push_str(&s.name);
                        out.push_str("_bucket");
                        write_prom_labels(&mut out, &s.labels, Some(&bucket_le(idx).to_string()));
                        out.push(' ');
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    out.push_str(&s.name);
                    out.push_str("_bucket");
                    write_prom_labels(&mut out, &s.labels, Some("+Inf"));
                    out.push(' ');
                    out.push_str(&h.count().to_string());
                    out.push('\n');
                    out.push_str(&s.name);
                    out.push_str("_sum");
                    write_prom_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&h.sum().to_string());
                    out.push('\n');
                    out.push_str(&s.name);
                    out.push_str("_count");
                    write_prom_labels(&mut out, &s.labels, None);
                    out.push(' ');
                    out.push_str(&h.count().to_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Append a Prometheus label block: `{k="v",…}` (with `le` appended last
/// when rendering a histogram bucket); nothing at all for an empty set
/// with no `le`.
fn write_prom_labels(out: &mut String, labels: &Labels, le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Turn one parsed line into a sample. The shared codec has already
/// refused malformed JSON and repeated keys; what is left is the line's
/// meaning.
fn parse_sample(line: &str) -> Result<Sample, String> {
    let mut kind: Option<&str> = None;
    let mut name: Option<&str> = None;
    let mut labels = Labels::new();
    let mut value: Option<u64> = None;
    let mut count: Option<u64> = None;
    let mut sum: Option<u128> = None;
    let mut min: Option<u64> = None;
    let mut max: Option<u64> = None;
    let mut buckets: Option<&[[u64; 2]]> = None;

    let fields = parse_object(line).map_err(|e| e.to_string())?;
    for (key, v) in &fields {
        let bad = || format!("{key:?} has the wrong type");
        match key.as_str() {
            "kind" => kind = Some(v.as_str().ok_or_else(bad)?),
            "name" => name = Some(v.as_str().ok_or_else(bad)?),
            "labels" => {
                for (k, v) in v.as_obj().ok_or_else(bad)? {
                    labels = labels.with(k.clone(), v.clone());
                }
            }
            "value" => value = Some(v.as_u64().ok_or_else(bad)?),
            "count" => count = Some(v.as_u64().ok_or_else(bad)?),
            "sum" => sum = Some(v.as_u128().ok_or_else(bad)?),
            "min" => min = Some(v.as_u64().ok_or_else(bad)?),
            "max" => max = Some(v.as_u64().ok_or_else(bad)?),
            "buckets" => buckets = Some(v.as_pairs().ok_or_else(bad)?),
            other => return Err(format!("unknown key {other:?}")),
        }
    }

    let name = name.ok_or("missing \"name\"")?.to_owned();
    let value = match kind {
        Some("counter") => Value::Counter(value.ok_or("counter without \"value\"")?),
        Some("gauge") => Value::Gauge(value.ok_or("gauge without \"value\"")?),
        Some("histogram") => {
            let pairs: Vec<(usize, u64)> = buckets
                .ok_or("histogram without \"buckets\"")?
                .iter()
                .map(|&[i, c]| (usize::try_from(i).unwrap_or(usize::MAX), c))
                .collect();
            let h = Histogram::from_parts(
                &pairs,
                count.ok_or("histogram without \"count\"")?,
                sum.ok_or("histogram without \"sum\"")?,
                min.ok_or("histogram without \"min\"")?,
                max.ok_or("histogram without \"max\"")?,
            )
            .ok_or("histogram buckets do not add up to count")?;
            Value::Histogram(Box::new(h))
        }
        Some(other) => return Err(format!("unknown kind {other:?}")),
        None => return Err("missing \"kind\"".to_owned()),
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_registry() -> Registry {
        let mut r = Registry::new();
        r.add(
            "fancy_detections_total",
            Labels::new().with("detector", "dedicated"),
            3,
        );
        r.inc(
            "fancy_detections_total",
            Labels::new().with("detector", "tree"),
        );
        r.gauge_max("fancy_kernel_queue_high_water", Labels::new(), 42);
        for v in [120u64, 950, 33_000, 1_000_000] {
            r.observe(
                "fancy_detection_latency_ns",
                Labels::new().with("edge", "s3↔s7"),
                v,
            );
        }
        r
    }

    #[test]
    fn jsonl_roundtrip_is_byte_exact() {
        let snap = sample_registry().snapshot();
        let text = snap.to_jsonl();
        let back = Snapshot::parse_jsonl(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn escapes_roundtrip() {
        let mut r = Registry::new();
        r.inc(
            "fancy_odd_total",
            Labels::new().with("edge", "a\"b\\c\nd\te\u{1}↔"),
        );
        let snap = r.snapshot();
        let back = Snapshot::parse_jsonl(&snap.to_jsonl()).unwrap();
        assert_eq!(back, snap);
    }

    /// Every corner of the line format: empty labels, escaped label keys
    /// and values, a histogram with `min`/`max`/`buckets`, an empty one
    /// (`min` = `u64::MAX`) and a `sum` past `u64::MAX`.
    fn pinned_snapshot() -> Snapshot {
        let odd = "\"\\\n\r\t\u{1}↔";
        let mut r = Registry::new();
        r.inc("fancy_a_total", Labels::new());
        r.add(
            "fancy_b_total",
            Labels::new().with(format!("k{odd}"), format!("v{odd}")),
            7,
        );
        r.gauge_max("fancy_c_high_water", Labels::new(), 42);
        for v in [0, 120, 950, 33_000] {
            r.observe("fancy_d_ns", Labels::new().with("edge", "s3↔s7"), v);
        }
        r.observe("fancy_e_ns", Labels::new(), u64::MAX);
        r.observe("fancy_e_ns", Labels::new(), u64::MAX);
        let mut snap = r.snapshot();
        snap.samples.push(Sample {
            name: "fancy_f_ns".into(),
            labels: Labels::new(),
            value: Value::Histogram(Box::new(Histogram::new())),
        });
        snap
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let snap = pinned_snapshot();
        let text = snap.to_jsonl();
        assert_eq!(
            text,
            concat!(
                r#"{"kind":"counter","name":"fancy_a_total","labels":{},"value":1}"#,
                "\n",
                r#"{"kind":"counter","name":"fancy_b_total","labels":{"k\"\\\n\r\t\u0001↔":"v\"\\\n\r\t\u0001↔"},"value":7}"#,
                "\n",
                r#"{"kind":"gauge","name":"fancy_c_high_water","labels":{},"value":42}"#,
                "\n",
                r#"{"kind":"histogram","name":"fancy_d_ns","labels":{"edge":"s3↔s7"},"count":4,"sum":34070,"min":0,"max":33000,"buckets":[[0,1],[7,1],[10,1],[16,1]]}"#,
                "\n",
                r#"{"kind":"histogram","name":"fancy_e_ns","labels":{},"count":2,"sum":36893488147419103230,"min":18446744073709551615,"max":18446744073709551615,"buckets":[[64,2]]}"#,
                "\n",
                r#"{"kind":"histogram","name":"fancy_f_ns","labels":{},"count":0,"sum":0,"min":18446744073709551615,"max":0,"buckets":[]}"#,
                "\n",
            )
        );
        assert_eq!(Snapshot::parse_jsonl(&text).unwrap(), snap);
    }

    #[test]
    fn merge_is_grouping_independent() {
        // Build three per-cell registries, merge 1+(2+3) and (1+2)+3,
        // demand identical bytes — the sweep-aggregation property.
        let cells: Vec<Snapshot> = (0..3u64)
            .map(|i| {
                let mut r = Registry::new();
                r.add("c", Labels::new(), i + 1);
                r.gauge_max("g", Labels::new(), 10 * i);
                r.observe("h", Labels::new().with("cell", i.to_string()), i * 7);
                r.observe("h", Labels::new(), 100 + i);
                r.snapshot()
            })
            .collect();
        let mut left = cells[0].clone();
        left.merge(&cells[1]);
        left.merge(&cells[2]);
        let mut right_tail = cells[1].clone();
        right_tail.merge(&cells[2]);
        let mut right = cells[0].clone();
        right.merge(&right_tail);
        assert_eq!(left.to_jsonl(), right.to_jsonl());
        assert_eq!(left.counter("c", &Labels::new()), Some(6));
        assert_eq!(left.gauge("g", &Labels::new()), Some(20));
        assert_eq!(left.histogram("h", &Labels::new()).unwrap().count(), 3);
    }

    proptest::proptest! {
        /// Merging two snapshots is feeding one registry both update
        /// streams (counters add, high-water gauges take the max,
        /// histograms pool): keys only the left has, only the right
        /// has, and shared ones, interleaved in every order.
        #[test]
        fn merge_equals_one_registry_fed_both_streams(
            left in proptest::collection::vec(0u64..u64::MAX, 0..60),
            right in proptest::collection::vec(0u64..u64::MAX, 0..60),
        ) {
            fn feed(r: &mut Registry, draws: &[u64]) {
                for &d in draws {
                    let labels = match (d >> 8) % 4 {
                        0 => Labels::new(),
                        1 => Labels::new().with("dir", "rx").with("unit", "tree"),
                        _ => Labels::new().with("port", ((d >> 16) % 6).to_string()),
                    };
                    let v = (d >> 24) % 10_000;
                    match d % 3 {
                        0 => r.add("a_total", labels, v),
                        1 => r.gauge_max("b_high_water", labels, v),
                        _ => r.observe("c_ns", labels, v),
                    }
                }
            }
            let (mut l, mut r, mut both) = (Registry::new(), Registry::new(), Registry::new());
            feed(&mut l, &left);
            feed(&mut r, &right);
            feed(&mut both, &left);
            feed(&mut both, &right);
            let mut merged = l.snapshot();
            merged.merge(&r.snapshot());
            proptest::prop_assert_eq!(merged.to_jsonl(), both.snapshot().to_jsonl());
        }
    }

    /// A string from arbitrary code points: every control character,
    /// JSON's own punctuation, Latin-1 and two-byte UTF-8, plus a couple of
    /// three- and four-byte ones.
    fn text_from(points: &[u32]) -> String {
        points
            .iter()
            .map(|&p| match p {
                0x7f0.. => ['↔', '😀'][p as usize % 2],
                p => char::from_u32(p).expect("below the surrogates"),
            })
            .collect()
    }

    proptest::proptest! {
        /// Whatever a registry holds — any label strings, histogram sums
        /// past `u64::MAX` — comes back from its JSONL as the same
        /// snapshot, and re-encodes to the same bytes.
        #[test]
        fn arbitrary_registries_round_trip_byte_exact(
            draws in proptest::collection::vec(0u64..u64::MAX, 0..40),
            points in proptest::collection::vec(0u32..0x800, 1..64),
        ) {
            let mut r = Registry::new();
            for &d in &draws {
                let at = (d >> 8) as usize % points.len();
                let key = text_from(&points[at..(at + (d >> 16) as usize % 5).min(points.len())]);
                let value = text_from(&points[..(d >> 24) as usize % points.len()]);
                let labels = match (d >> 32) % 3 {
                    0 => Labels::new(),
                    1 => Labels::new().with(key, value),
                    _ => Labels::new().with(key, value).with("edge", "s3↔s7"),
                };
                match d % 3 {
                    0 => r.add("a_total", labels, d >> 40),
                    1 => r.gauge_max("b_high_water", labels, d >> 1),
                    _ => r.observe("c_ns", labels, d),
                }
            }
            let snap = r.snapshot();
            let text = snap.to_jsonl();
            let back = Snapshot::parse_jsonl(&text);
            proptest::prop_assert_eq!(back.as_ref(), Ok(&snap));
            proptest::prop_assert_eq!(back.unwrap().to_jsonl(), text);
        }
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample_registry().snapshot().to_prometheus();
        assert!(text.contains("# TYPE fancy_detections_total counter"));
        assert!(text.contains("fancy_detections_total{detector=\"dedicated\"} 3"));
        assert!(text.contains("# TYPE fancy_detection_latency_ns histogram"));
        assert!(text.contains("fancy_detection_latency_ns_bucket{edge=\"s3↔s7\",le=\"127\"} 1"));
        assert!(text.contains("fancy_detection_latency_ns_bucket{edge=\"s3↔s7\",le=\"+Inf\"} 4"));
        assert!(text.contains("fancy_detection_latency_ns_count{edge=\"s3↔s7\"} 4"));
        assert!(text.contains("fancy_kernel_queue_high_water 42"));
        // Stable: rendering twice is byte-identical.
        assert_eq!(text, sample_registry().snapshot().to_prometheus());
    }

    #[test]
    fn repeated_key_is_a_parse_error() {
        for line in [
            r#"{"kind":"counter","name":"x","labels":{},"value":1,"value":2}"#,
            r#"{"kind":"counter","name":"x","labels":{"k":"a","k":"b"},"value":1}"#,
        ] {
            let err = Snapshot::parse_jsonl(line).unwrap_err();
            assert_eq!(err.line, 1);
            assert!(err.reason.contains("repeated key"), "{err}");
        }
    }

    #[test]
    fn strict_parser_rejects_drift() {
        let bad = "{\"kind\":\"counter\",\"name\":\"x\",\"labels\":{},\"value\":1,\"extra\":2}\n";
        assert!(Snapshot::parse_jsonl(bad).is_err());
        let unordered = concat!(
            "{\"kind\":\"counter\",\"name\":\"b\",\"labels\":{},\"value\":1}\n",
            "{\"kind\":\"counter\",\"name\":\"a\",\"labels\":{},\"value\":1}\n",
        );
        assert!(Snapshot::parse_jsonl(unordered).is_err());
        let short_hist =
            "{\"kind\":\"histogram\",\"name\":\"h\",\"labels\":{},\"count\":5,\"sum\":9,\"min\":1,\"max\":4,\"buckets\":[[1,2]]}\n";
        assert!(Snapshot::parse_jsonl(short_hist).is_err());
    }
}
