//! # fancy-metrics — the deterministic metrics plane
//!
//! A label-aware metrics registry for the FANcY reproduction:
//! [`Counter`](snapshot::Value::Counter)s,
//! [`Gauge`](snapshot::Value::Gauge)s and exact-merge log2
//! [`Histogram`]s keyed by `(name, labels)`, snapshotted into a sorted
//! [`Snapshot`] and exported as Prometheus text or hand-rolled JSONL.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Everything is integer arithmetic; a [`Snapshot`]
//!    is sorted by `(name, labels)` when it is taken, so snapshots of
//!    equal state serialize to equal bytes whatever order the series
//!    were created in. Histograms use a fixed log2 bucket layout so
//!    merging per-cell state across a parallel sweep is bit-identical at
//!    any `FANCY_THREADS` (see [`histogram`]).
//! 2. **Observational only.** Like `fancy-trace`, nothing in this crate
//!    can influence a simulation schedule: the kernel exposes a
//!    one-branch-when-off handle and instrumentation sites only *read*
//!    simulation state.
//! 3. **Observing costs less than simulating.** Updating a series whose
//!    name and labels are string literals touches no allocator and
//!    compares no strings byte by byte: [`Labels`] holds literal pairs
//!    inline, and the [`Registry`] finds the series by the literals'
//!    addresses (a hint, always verified). Owned strings are for values
//!    made at run time (`shard="3"`, an edge name) and take the
//!    by-content path.
//! 4. **One dependency.** `fancy-net`, for the workspace's single hasher
//!    ([`fancy_net::FnvMap`]). The crate carries its own ~100-line JSON
//!    writer and parser rather than pulling in serde or `fancy-trace`.
//!
//! The simulation-facing pieces (the kernel handle, the in-sim scrape
//! timer) live in `fancy-sim`, which re-exports this crate as
//! `fancy_sim::metrics`.

pub mod histogram;
pub mod snapshot;

use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

use fancy_net::{Fnv1a, FnvMap};

pub use histogram::{bucket_index, bucket_le, Histogram, BUCKET_COUNT};
pub use snapshot::{ParseError, Sample, Snapshot, Value};

/// How many all-literal pairs a [`Labels`] holds without a heap: what
/// the widest per-event site uses. Every retained [`Sample`] is this
/// wide whatever it holds, so a spare pair is not free.
const INLINE_PAIRS: usize = 3;

type OwnedPair = (Cow<'static, str>, Cow<'static, str>);

/// A label set sorted by key (`edge="s3↔s7"`, `switch="s3"`, …).
///
/// Up to three pairs whose keys and values are all string literals sit
/// inline: building one allocates nothing and dropping it does nothing,
/// so a per-event site can pass `Labels::new().with("role", role)` by
/// value. Anything else — a value formatted at run time, a parsed
/// snapshot, a fourth label — spills to an owned vector. The two forms
/// are one value: equality, ordering and hashing go by content.
#[derive(Debug, Clone)]
pub struct Labels(Repr);

#[derive(Debug, Clone)]
enum Repr {
    // Plain `&'static str`s, not `Cow`s: inline `Cow` pairs carry drop
    // glue that costs more than the registry lookup they feed.
    Literal {
        len: u8,
        pairs: [(&'static str, &'static str); INLINE_PAIRS],
    },
    Spilled(Vec<OwnedPair>),
}

impl Default for Labels {
    fn default() -> Self {
        Labels(Repr::Literal {
            len: 0,
            pairs: [("", ""); INLINE_PAIRS],
        })
    }
}

impl Labels {
    /// The empty label set.
    #[inline]
    pub fn new() -> Self {
        Labels::default()
    }

    /// Add (or replace) one label, keeping the set sorted by key. A
    /// literal stays borrowed; a `String` is stored as given.
    #[inline]
    pub fn with(
        mut self,
        key: impl Into<Cow<'static, str>>,
        value: impl Into<Cow<'static, str>>,
    ) -> Self {
        match (key.into(), value.into()) {
            (Cow::Borrowed(k), Cow::Borrowed(v)) => self.put_literal(k, v),
            (k, v) => self.put_owned(k, v),
        }
        self
    }

    #[inline(always)]
    fn put_literal(&mut self, k: &'static str, v: &'static str) {
        // Sites that name their labels in key order only ever append —
        // with the keys' order known where this is inlined.
        if let Repr::Literal { len, pairs } = &mut self.0 {
            let n = usize::from(*len);
            if n < INLINE_PAIRS && (n == 0 || pairs[n - 1].0 < k) {
                pairs[n] = (k, v);
                *len += 1;
                return;
            }
        }
        self.put_literal_out_of_order(k, v);
    }

    #[cold]
    fn put_literal_out_of_order(&mut self, k: &'static str, v: &'static str) {
        if let Repr::Literal { len, pairs } = &mut self.0 {
            let n = usize::from(*len);
            match pairs[..n].binary_search_by(|(pk, _)| pk.cmp(&k)) {
                Ok(i) => {
                    pairs[i].1 = v;
                    return;
                }
                Err(i) if n < INLINE_PAIRS => {
                    pairs.copy_within(i..n, i + 1);
                    pairs[i] = (k, v);
                    *len += 1;
                    return;
                }
                Err(_) => {} // a fourth label
            }
        }
        self.put_owned(Cow::Borrowed(k), Cow::Borrowed(v));
    }

    fn put_owned(&mut self, k: Cow<'static, str>, v: Cow<'static, str>) {
        if let Repr::Literal { len, pairs } = &self.0 {
            // Room for the pair being added and no more: most spilled
            // sets are one run-time value (`shard="3"`).
            let n = usize::from(*len);
            let mut spilled = Vec::with_capacity(n + 1);
            spilled.extend(pairs[..n].iter().map(|&(k, v)| (k.into(), v.into())));
            self.0 = Repr::Spilled(spilled);
        }
        let Repr::Spilled(pairs) = &mut self.0 else {
            unreachable!("spilled just above");
        };
        match pairs.binary_search_by(|(pk, _)| pk.as_ref().cmp(k.as_ref())) {
            Ok(i) => pairs[i].1 = v,
            Err(i) => pairs.insert(i, (k, v)),
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of labels.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Literal { len, .. } => usize::from(*len),
            Repr::Spilled(pairs) => pairs.len(),
        }
    }

    #[inline]
    fn pair(&self, i: usize) -> (&str, &str) {
        match &self.0 {
            Repr::Literal { pairs, .. } => pairs[i],
            Repr::Spilled(pairs) => (pairs[i].0.as_ref(), pairs[i].1.as_ref()),
        }
    }

    /// The value of `key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.iter().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// Iterate `(key, value)` pairs in key order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        (0..self.len()).map(move |i| self.pair(i))
    }
}

/// String equality that tries pointer identity before `memcmp`: a
/// literal meeting itself (the per-event case) compares two words.
#[inline]
fn same_str(a: &str, b: &str) -> bool {
    a.len() == b.len() && (a.as_ptr() == b.as_ptr() || a == b)
}

impl PartialEq for Labels {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other.iter())
                .all(|((ak, av), (bk, bv))| same_str(ak, bk) && same_str(av, bv))
    }
}

impl Eq for Labels {}

impl PartialOrd for Labels {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Labels {
    /// Pair by pair, key then value; a prefix sorts first.
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl Hash for Labels {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for pair in self.iter() {
            pair.hash(state);
        }
    }
}

impl fmt::Display for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return Ok(());
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}={v:?}")?;
        }
        write!(f, "}}")
    }
}

/// Marks an empty [`Registry::hints`] entry (no registry holds 2³² series).
const NO_SLOT: u32 = u32::MAX;

/// How many consecutive [`Registry::hints`] entries a key may sit in.
/// One would do but for two busy series folding to the same entry and
/// evicting each other on every update — and which addresses collide
/// changes from one process to the next.
const HINT_WINDOW: usize = 4;

/// The mutable metric store: `(name, labels) → value`.
///
/// Series live in a slot vector in creation order — the only place a
/// key is stored — and are found two ways. A key made of literals is
/// looked up by *where* its strings are: a fold of their addresses
/// indexes a small table of slot numbers, and the slot it names is
/// checked for equality, which passes on pointer identity. Every other
/// key (and a literal seen at a new address) is looked up by *what* its
/// strings say, through one [`FnvMap`] from content hash to slot, so
/// equal strings at different addresses land in one series.
/// [`Registry::snapshot`] sorts, so the exported order does not depend
/// on either.
///
/// A metric's kind is fixed by its first touch; using the same
/// `(name, labels)` with a different kind panics (an instrumentation
/// bug, never a data condition).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    slots: Vec<Sample>,
    /// Content hash → slot; a colliding key takes the next free hash.
    by_content: FnvMap<u64, u32>,
    /// Address fold → slot, a power-of-two table. Only a hint: entries
    /// are overwritten when a window is full and verified on every use.
    hints: Vec<u32>,
}

/// Fold of the addresses and lengths of a key's strings — meaningful
/// only for literals, which stay where they are.
#[inline]
fn address_fold(name: &str, labels: &Labels) -> usize {
    #[inline]
    fn fold(h: u64, s: &str) -> u64 {
        (h ^ s.as_ptr() as u64 ^ (s.len() as u64).rotate_left(48))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
    let mut h = fold(0, name);
    for (k, v) in labels.iter() {
        h = fold(fold(h, k), v);
    }
    (h >> 32) as usize
}

/// FNV-1a over the key's bytes, each string closed by `0xff` (never a
/// UTF-8 byte, so distinct keys cannot spell the same stream).
fn content_hash(name: &str, labels: &Labels) -> u64 {
    let mut h = Fnv1a::default();
    let mut put = |s: &str| {
        h.write(s.as_bytes());
        h.write(&[0xff]);
    };
    put(name);
    for (k, v) in labels.iter() {
        put(k);
        put(v);
    }
    // The unit tests keep three bits, so the model proptest exercises
    // the colliding-key probe a 64-bit hash would never reach.
    h.finish() & if cfg!(test) { 7 } else { u64::MAX }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn holds(&self, slot: u32, name: &str, labels: &Labels) -> bool {
        self.slots
            .get(slot as usize)
            .is_some_and(|s| same_str(&s.name, name) && s.labels == *labels)
    }

    /// The hint entries a key folding to `fold` may sit in (none while
    /// the registry is empty).
    fn hint_window(&self, fold: usize) -> impl Iterator<Item = usize> {
        let len = self.hints.len();
        (0..HINT_WINDOW.min(len)).map(move |d| fold.wrapping_add(d) & (len - 1))
    }

    /// The value of `(name, labels)`, created by `fresh` on first touch.
    #[inline]
    fn slot(&mut self, name: &str, labels: Labels, fresh: fn() -> Value) -> &mut Value {
        let slot = if matches!(labels.0, Repr::Literal { .. }) {
            let fold = address_fold(name, &labels);
            let hinted = self
                .hint_window(fold)
                .map(|at| self.hints[at])
                .find(|&slot| self.holds(slot, name, &labels));
            hinted.unwrap_or_else(|| {
                let slot = self.slot_by_content(name, labels, fresh);
                // Learn it: a free entry of the (possibly just replaced)
                // window, else evict the window's first.
                let at = self
                    .hint_window(fold)
                    .find(|&at| self.hints[at] == NO_SLOT)
                    .or_else(|| self.hint_window(fold).next())
                    .expect("hints are sized when a series is created");
                self.hints[at] = slot;
                slot
            })
        } else {
            self.slot_by_content(name, labels, fresh)
        };
        &mut self.slots[slot as usize].value
    }

    fn slot_by_content(&mut self, name: &str, labels: Labels, fresh: fn() -> Value) -> u32 {
        let mut hash = content_hash(name, &labels);
        loop {
            match self.by_content.get(&hash) {
                Some(&slot) if self.holds(slot, name, &labels) => return slot,
                Some(_) => hash = hash.wrapping_add(1),
                None => break,
            }
        }
        let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 series");
        self.slots.push(Sample {
            name: name.to_owned(),
            labels,
            value: fresh(),
        });
        self.by_content.insert(hash, slot);
        // Keep the hint table at most half full; the hints it held are
        // relearned from `by_content`.
        if self.slots.len() * 2 > self.hints.len() {
            let len = (self.slots.len() * 2)
                .next_power_of_two()
                .max(2 * HINT_WINDOW);
            self.hints = vec![NO_SLOT; len];
        }
        slot
    }

    /// Increment a counter by 1.
    #[inline]
    pub fn inc(&mut self, name: &str, labels: Labels) {
        self.add(name, labels, 1);
    }

    /// Increment a counter by `delta`.
    #[inline]
    pub fn add(&mut self, name: &str, labels: Labels, delta: u64) {
        match self.slot(name, labels, || Value::Counter(0)) {
            Value::Counter(v) => *v += delta,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn gauge_set(&mut self, name: &str, labels: Labels, v: u64) {
        match self.slot(name, labels, || Value::Gauge(0)) {
            Value::Gauge(g) => *g = v,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Raise a gauge to `v` if `v` is higher (high-water semantics, the
    /// same merge rule gauges use across cells).
    #[inline]
    pub fn gauge_max(&mut self, name: &str, labels: Labels, v: u64) {
        match self.slot(name, labels, || Value::Gauge(0)) {
            Value::Gauge(g) => *g = (*g).max(v),
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Record one histogram observation.
    #[inline]
    pub fn observe(&mut self, name: &str, labels: Labels, v: u64) {
        match self.slot(name, labels, || Value::Histogram(Box::default())) {
            Value::Histogram(h) => h.observe(v),
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// A point-in-time copy of every metric, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> Snapshot {
        // Order references, then copy each wide sample once, in place.
        let mut sorted: Vec<&Sample> = self.slots.iter().collect();
        sorted.sort_unstable_by_key(|s| (&s.name, &s.labels));
        Snapshot {
            samples: sorted.into_iter().cloned().collect(),
        }
    }
}

/// A cloneable handle to one shared registry plus its scrape series.
///
/// The kernel holds one of these (when metrics are enabled), every
/// instrumentation site reaches it through `&mut Kernel`, and the
/// experiment harness keeps a clone to read results after the run — the
/// same ownership shape as `fancy-trace`'s `SharedRecorder`.
///
/// The scrape *series* is the deterministic time series: the in-sim
/// scrape timer calls [`MetricsHub::record_scrape`] at a fixed sim-time
/// cadence, appending `(sim nanos, Snapshot)` rows.
#[derive(Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubInner>>,
}

#[derive(Default)]
struct HubInner {
    registry: Registry,
    series: Vec<(u64, Snapshot)>,
}

impl MetricsHub {
    /// A hub with an empty registry and no scrape series.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    fn lock(&self) -> MutexGuard<'_, HubInner> {
        // A cell that panicked mid-update (crash-isolated sweeps) poisons
        // the mutex; metric state is merely observational, so recover the
        // guard rather than propagating the poison.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Run `f` against the registry.
    pub fn with<R>(&self, f: impl FnOnce(&mut Registry) -> R) -> R {
        f(&mut self.lock().registry)
    }

    /// Snapshot the registry now.
    pub fn snapshot(&self) -> Snapshot {
        self.lock().registry.snapshot()
    }

    /// Snapshot the registry and append the result to the scrape series
    /// at sim time `t_ns`. Returns the number of samples captured.
    pub fn record_scrape(&self, t_ns: u64) -> usize {
        let mut inner = self.lock();
        let snap = inner.registry.snapshot();
        let n = snap.len();
        inner.series.push((t_ns, snap));
        n
    }

    /// The scrape series so far (cloned).
    pub fn series(&self) -> Vec<(u64, Snapshot)> {
        self.lock().series.clone()
    }
}

impl fmt::Debug for MetricsHub {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.lock();
        f.debug_struct("MetricsHub")
            .field("metrics", &inner.registry.len())
            .field("scrapes", &inner.series.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn labels_sort_and_replace() {
        let l = Labels::new().with("b", "2").with("a", "1").with("b", "3");
        let pairs: Vec<(&str, &str)> = l.iter().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "3")]);
        assert_eq!(l.get("b"), Some("3"));
        assert_eq!(l.get("z"), None);
        assert_eq!(l.to_string(), "{a=\"1\",b=\"3\"}");
        // Insertion order does not matter for equality or ordering.
        assert_eq!(l, Labels::new().with("a", "1").with("b", "3"));
    }

    #[test]
    fn labels_are_one_value_in_either_form() {
        let literal = Labels::new().with("a", "1").with("b", "2");
        let owned = Labels::new()
            .with("b".to_owned(), "2".to_owned())
            .with("a", "1");
        assert!(matches!(literal.0, Repr::Literal { .. }));
        assert!(matches!(owned.0, Repr::Spilled(_)));
        assert_eq!(literal, owned);
        assert_eq!(literal.cmp(&owned), Ordering::Equal);
        assert_eq!(literal.to_string(), owned.to_string());
        // A prefix sorts first; values break ties between equal keys.
        assert!(Labels::new().with("a", "1") < literal);
        assert!(literal < Labels::new().with("a", "1").with("b", "3"));
        // One label past the inline pairs spills and keeps every pair.
        let wide = ["d", "b", "a", "c"]
            .into_iter()
            .fold(Labels::new(), |l, k| l.with(k, "x"));
        assert!(matches!(wide.0, Repr::Spilled(_)));
        let keys: Vec<&str> = wide.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a", "b", "c", "d"]);
    }

    /// How the model proptest spells one label set: `(key, value, owned)`
    /// in insertion order, a later pair replacing an earlier one's value.
    type LabelSpec = &'static [(&'static str, &'static str, bool)];

    const LABEL_SPECS: &[LabelSpec] = &[
        &[],
        &[("a", "1", false)],
        // The same content at another address: a `String` of the literal.
        &[("a", "1", true)],
        &[("a", "2", false)],
        &[("b", "2", false)],
        &[("a", "1", false), ("b", "2", false)],
        // Three labels in key order, in reverse, and with one made at run time.
        &[("a", "1", false), ("b", "2", false), ("c", "3", false)],
        &[("c", "3", false), ("b", "2", false), ("a", "1", false)],
        &[("b", "2", true), ("a", "1", false), ("c", "3", false)],
        // A replaced key, inline and spilled.
        &[("a", "9", false), ("a", "1", false)],
        &[("a", "9", true), ("b", "2", false), ("a", "1", false)],
        // More labels than fit inline.
        &[
            ("a", "1", false),
            ("b", "2", false),
            ("c", "3", false),
            ("d", "4", false),
        ],
        &[
            ("e", "5", false),
            ("a", "1", false),
            ("d", "4", false),
            ("b", "2", false),
            ("c", "3", false),
        ],
    ];

    fn labels_of(spec: LabelSpec) -> Labels {
        spec.iter().fold(Labels::new(), |l, &(k, v, owned)| {
            if owned {
                l.with(k.to_owned(), v.to_owned())
            } else {
                l.with(k, v)
            }
        })
    }

    type ModelKey = (String, Vec<(String, String)>);

    fn model_key(name: &str, spec: LabelSpec) -> ModelKey {
        let pairs: BTreeMap<&str, &str> = spec.iter().map(|&(k, v, _)| (k, v)).collect();
        let own = |(k, v): (&str, &str)| (k.to_owned(), v.to_owned());
        (name.to_owned(), pairs.into_iter().map(own).collect())
    }

    fn model_snapshot(model: &BTreeMap<ModelKey, Value>) -> Snapshot {
        let samples = model.iter().map(|((name, pairs), value)| Sample {
            name: name.clone(),
            labels: pairs
                .iter()
                .fold(Labels::new(), |l, (k, v)| l.with(k.clone(), v.clone())),
            value: value.clone(),
        });
        Snapshot {
            samples: samples.collect(),
        }
    }

    proptest::proptest! {
        /// The registry against the plainest model there is: an ordered
        /// map from owned `(name, sorted pairs)` to value. Each draw is
        /// one update — which of the five, on which of two names of its
        /// kind, under which label spelling, with the name passed as a
        /// literal or as a fresh `String` — so series are created and
        /// revisited through the address hint and through the content
        /// map (whose hash keeps three bits here: probes collide).
        #[test]
        fn registry_snapshot_matches_a_btreemap_model(
            draws in proptest::collection::vec(0u64..u64::MAX, 0..300),
        ) {
            let mut reg = Registry::new();
            let mut model: BTreeMap<ModelKey, Value> = BTreeMap::new();
            for &d in &draws {
                let op = d % 5;
                let spec = LABEL_SPECS[(d >> 8) as usize % LABEL_SPECS.len()];
                let v = (d >> 24) % 100_000;
                let name = match (op, (d >> 16) & 1) {
                    (0 | 1, 0) => "c_first_total",
                    (0 | 1, _) => "c_second_total",
                    (2 | 3, 0) => "g_first",
                    (2 | 3, _) => "g_second",
                    (_, 0) => "h_first_ns",
                    (_, _) => "h_second_ns",
                };
                let moved = name.to_owned();
                let name_arg = if (d >> 17) & 1 == 0 { name } else { moved.as_str() };
                let labels = labels_of(spec);
                let fresh = match op {
                    0 | 1 => Value::Counter(0),
                    2 | 3 => Value::Gauge(0),
                    _ => Value::Histogram(Box::default()),
                };
                let slot = model.entry(model_key(name, spec)).or_insert(fresh);
                match (op, slot) {
                    (0, Value::Counter(c)) => {
                        reg.inc(name_arg, labels);
                        *c += 1;
                    }
                    (1, Value::Counter(c)) => {
                        reg.add(name_arg, labels, v);
                        *c += v;
                    }
                    (2, Value::Gauge(g)) => {
                        reg.gauge_set(name_arg, labels, v);
                        *g = v;
                    }
                    (3, Value::Gauge(g)) => {
                        reg.gauge_max(name_arg, labels, v);
                        *g = (*g).max(v);
                    }
                    (4, Value::Histogram(h)) => {
                        reg.observe(name_arg, labels, v);
                        h.observe(v);
                    }
                    (op, slot) => unreachable!("op {op} on a {}", slot.kind()),
                }
            }
            let (got, want) = (reg.snapshot(), model_snapshot(&model));
            proptest::prop_assert_eq!(reg.len(), model.len());
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(got.to_jsonl(), want.to_jsonl());
            proptest::prop_assert_eq!(got.to_prometheus(), want.to_prometheus());
            // A series keeps the kind of its first touch, however found.
            if let Some(s) = got.samples.first() {
                let wrong_kind = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    match s.value {
                        Value::Histogram(_) => reg.inc(&s.name, s.labels.clone()),
                        _ => reg.observe(&s.name, s.labels.clone(), 1),
                    }
                }));
                proptest::prop_assert!(wrong_kind.is_err(), "kind mismatch must panic");
            }
        }
    }

    #[test]
    fn registry_kinds_are_sticky() {
        let mut r = Registry::new();
        r.inc("x", Labels::new());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.observe("x", Labels::new(), 5)
        }));
        assert!(res.is_err(), "kind mismatch must panic");
    }

    #[test]
    fn hub_scrape_series_accumulates() {
        let hub = MetricsHub::new();
        hub.with(|r| r.inc("ticks", Labels::new()));
        assert_eq!(hub.record_scrape(1_000), 1);
        hub.with(|r| r.inc("ticks", Labels::new()));
        assert_eq!(hub.record_scrape(2_000), 1);
        let series = hub.series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 1_000);
        assert_eq!(series[0].1.counter("ticks", &Labels::new()), Some(1));
        assert_eq!(series[1].1.counter("ticks", &Labels::new()), Some(2));
        // Clones share state.
        let other = hub.clone();
        assert_eq!(other.series().len(), 2);
    }
}
