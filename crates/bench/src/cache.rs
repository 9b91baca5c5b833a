//! Content-addressed cell-result cache — resumable sweeps.
//!
//! Every experiment cell in this harness is deterministic by
//! construction (bit-identical at any `FANCY_THREADS` setting), so a
//! result keyed by *everything that influenced it* is safe to reuse
//! forever. This module provides that key and the on-disk store:
//!
//! * [`Fingerprint`] — a two-lane FNV-1a/xx-style streaming hash over
//!   the cell's inputs (scenario config, seed, repetitions, and
//!   [`CACHE_SCHEMA_VERSION`]), finished through `fancy_net::mix64`
//!   into a 128-bit [`CacheKey`]. Hand-rolled: no external deps.
//! * [`CacheKeyed`] — how a config type feeds its fields into the
//!   fingerprint. Implemented for primitives, tuples, slices, and the
//!   harness config types ([`crate::env::Scale`], `EntrySize`, ...).
//! * [`Record`] / [`CacheCodec`] — cell results serialized through
//!   `fancy-trace`'s JSONL subset (floats travel as `f64::to_bits`
//!   integers, so round-trips are exact).
//! * [`CellCache`] — the `FANCY_CACHE_DIR` store. One file per key,
//!   written atomically (temp file + rename), each guarded by a
//!   length + FNV-64 checksum header: a corrupt, truncated, or
//!   wrong-schema record degrades to a miss, never a panic.
//!
//! The sweep runner (`crate::runner`) consults the cache in
//! `Sweep::try_run_cached`: a warm cell returns instantly with its
//! stored result *and* its stored kernel telemetry (so aggregate
//! reports stay byte-identical to a cold run), a cold cell executes
//! and is stored on success. Failed or panicked cells are never
//! stored, so they re-run on resume.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fancy_net::{fnv1a64, mix64, Fnv1a};
use fancy_sim::{SimDuration, TelemetryCounters};
use fancy_trace::json::{parse_object, JsonValue, ObjectWriter};

use crate::env::Scale;

/// Bumped whenever the meaning of a stored result changes (cell
/// semantics, record fields, counter definitions). Part of every
/// fingerprint, so old records simply stop matching.
/// v3: netwide cells run the sharded executor (per-shard RNG streams
/// change every packet-level outcome) and records grew per-shard
/// statistics fields.
/// v4: TCP senders keep one RTO timer per flow and one start timer per
/// host, so a cell's event/timer counts and queue high-water marks are
/// lower than a v3 record of the same cell carries.
pub const CACHE_SCHEMA_VERSION: u64 = 4;

/// Second-lane seed and multiplier (golden-ratio constants in the
/// xxHash/splitmix tradition), so the two lanes never agree by
/// construction.
const XX_OFFSET: u64 = 0x9E37_79B9_7F4A_7C15;
const XX_PRIME: u64 = 0x9E37_79B1_85EB_CA87;

/// A finished 128-bit content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// High 64 bits (lane 1).
    pub hi: u64,
    /// Low 64 bits (lane 2).
    pub lo: u64,
}

impl CacheKey {
    /// 32 lowercase hex digits — the on-disk file stem.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// Streaming two-lane hash over a cell's inputs.
///
/// Lane 1 is textbook FNV-1a; lane 2 folds each byte together with the
/// running lane-1 state through an xx-style multiply-rotate, so the
/// lanes stay decorrelated without a second pass. [`Fingerprint::key`]
/// finishes both lanes through `mix64` for avalanche.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    h1: Fnv1a,
    h2: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl Fingerprint {
    /// An empty fingerprint (no bytes hashed yet).
    pub fn new() -> Self {
        Fingerprint {
            h1: Fnv1a::default(),
            h2: XX_OFFSET,
        }
    }

    /// Hash raw bytes into both lanes.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h1.write(&[b]);
            self.h2 = (self.h2 ^ self.h1.finish().rotate_left(23) ^ u64::from(b))
                .wrapping_mul(XX_PRIME)
                .rotate_left(27);
        }
    }

    /// Hash one integer (little-endian bytes).
    pub fn push_u64(&mut self, v: u64) {
        self.push_bytes(&v.to_le_bytes());
    }

    /// Hash one float, exactly, via its bit pattern.
    pub fn push_f64(&mut self, v: f64) {
        self.push_u64(v.to_bits());
    }

    /// Hash a string, length-prefixed so `"ab" + "c"` and `"a" + "bc"`
    /// cannot collide.
    pub fn push_str(&mut self, s: &str) {
        self.push_u64(s.len() as u64);
        self.push_bytes(s.as_bytes());
    }

    /// Chain a keyed value: `Fingerprint::new().with("fig7").with(&scale)`.
    pub fn with<T: CacheKeyed + ?Sized>(mut self, v: &T) -> Self {
        v.cache_fields(&mut self);
        self
    }

    /// Finish into a content address (the fingerprint stays usable).
    pub fn key(&self) -> CacheKey {
        CacheKey {
            hi: mix64(self.h1.finish()),
            lo: mix64(self.h2),
        }
    }
}

/// How a configuration type feeds its identity into a [`Fingerprint`].
///
/// Everything that can change a cell's result must be pushed: a field
/// skipped here is a stale-cache bug, not a perf win.
pub trait CacheKeyed {
    /// Push every result-affecting field.
    fn cache_fields(&self, fp: &mut Fingerprint);
}

impl CacheKeyed for u64 {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(*self);
    }
}

impl CacheKeyed for u32 {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(u64::from(*self));
    }
}

impl CacheKeyed for usize {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(*self as u64);
    }
}

impl CacheKeyed for bool {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(u64::from(*self));
    }
}

impl CacheKeyed for f64 {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_f64(*self);
    }
}

impl CacheKeyed for str {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_str(self);
    }
}

impl CacheKeyed for String {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_str(self);
    }
}

impl<T: CacheKeyed + ?Sized> CacheKeyed for &T {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        (*self).cache_fields(fp);
    }
}

impl<T: CacheKeyed> CacheKeyed for [T] {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.len() as u64);
        for item in self {
            item.cache_fields(fp);
        }
    }
}

impl<T: CacheKeyed> CacheKeyed for Vec<T> {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        self.as_slice().cache_fields(fp);
    }
}

impl<T: CacheKeyed> CacheKeyed for Option<T> {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        match self {
            None => fp.push_u64(0),
            Some(v) => {
                fp.push_u64(1);
                v.cache_fields(fp);
            }
        }
    }
}

impl<A: CacheKeyed, B: CacheKeyed> CacheKeyed for (A, B) {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        self.0.cache_fields(fp);
        self.1.cache_fields(fp);
    }
}

impl<A: CacheKeyed, B: CacheKeyed, C: CacheKeyed> CacheKeyed for (A, B, C) {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        self.0.cache_fields(fp);
        self.1.cache_fields(fp);
        self.2.cache_fields(fp);
    }
}

impl CacheKeyed for SimDuration {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.as_nanos());
    }
}

impl CacheKeyed for fancy_traffic::EntrySize {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.total_bps);
        fp.push_f64(self.flows_per_sec);
    }
}

impl CacheKeyed for Scale {
    fn cache_fields(&self, fp: &mut Fingerprint) {
        fp.push_u64(self.reps);
        fp.push_u64(self.duration.as_nanos());
        fp.push_u64(self.multi_entries as u64);
        fp.push_f64(self.trace_scale);
        fp.push_u64(self.trace_failures as u64);
        fp.push_u64(u64::from(self.full));
    }
}

/// The content address of one sweep cell: experiment salt (label,
/// scale, grid — whatever the caller folded into `salt`), the schema
/// version, the cell's own config, and its derived seed.
pub fn cell_key<C: CacheKeyed + ?Sized>(salt: &Fingerprint, cell: &C, seed: u64) -> CacheKey {
    let mut fp = salt.clone();
    fp.push_u64(CACHE_SCHEMA_VERSION);
    cell.cache_fields(&mut fp);
    fp.push_u64(seed);
    fp.key()
}

/// A flat field bag serialized as one JSONL line — the persisted form
/// of a cell result. Floats are stored as `f64::to_bits` integers, so
/// decode(encode(x)) is exact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    fields: Vec<(String, JsonValue)>,
}

impl Record {
    fn put(&mut self, key: &str, v: JsonValue) {
        match self.fields.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = v,
            None => self.fields.push((key.to_owned(), v)),
        }
    }

    fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Set an integer field (replacing any previous value).
    pub fn put_u64(&mut self, key: &str, v: u64) {
        self.put(key, JsonValue::Int(v.into()));
    }

    /// Set a float field, stored exactly via its bit pattern.
    pub fn put_f64(&mut self, key: &str, v: f64) {
        self.put(key, JsonValue::Int(v.to_bits().into()));
    }

    /// Set a string field.
    pub fn put_str(&mut self, key: &str, v: &str) {
        self.put(key, JsonValue::Str(v.to_owned()));
    }

    /// Read an integer field.
    pub fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(JsonValue::as_u64)
    }

    /// Read a float field written by [`Record::put_f64`].
    pub fn f64(&self, key: &str) -> Option<f64> {
        self.u64(key).map(f64::from_bits)
    }

    /// Read a string field.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(JsonValue::as_str)
    }

    /// Encode as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut w = ObjectWriter::new();
        for (k, v) in &self.fields {
            match v {
                JsonValue::Int(n) => w.u128(k, *n),
                JsonValue::Str(s) => w.str(k, s),
                JsonValue::Arr(a) => w.arr(k, a),
                JsonValue::Pairs(p) => w.pairs(k, p.iter().copied()),
                JsonValue::Obj(o) => w.obj(k, o.iter().map(|(k, v)| (k.as_str(), v.as_str()))),
            };
        }
        w.finish()
    }

    /// Decode one JSONL line; `None` on any syntax error.
    pub fn from_jsonl(line: &str) -> Option<Record> {
        parse_object(line).ok().map(|fields| Record { fields })
    }
}

/// How a cell result type round-trips through a [`Record`].
pub trait CacheCodec: Sized {
    /// Write every field of the result.
    fn encode(&self, rec: &mut Record);
    /// Rebuild the result; `None` if any field is missing or mistyped
    /// (treated as a cache miss by the runner).
    fn decode(rec: &Record) -> Option<Self>;
}

impl CacheCodec for u64 {
    fn encode(&self, rec: &mut Record) {
        rec.put_u64("value", *self);
    }

    fn decode(rec: &Record) -> Option<Self> {
        rec.u64("value")
    }
}

impl CacheCodec for f64 {
    fn encode(&self, rec: &mut Record) {
        rec.put_f64("value", *self);
    }

    fn decode(rec: &Record) -> Option<Self> {
        rec.f64("value")
    }
}

/// Everything persisted for one warm cell: the decoded-result record
/// plus the kernel accounting the runner folds into sweep reports, so
/// a warm sweep's aggregate telemetry is byte-identical to a cold one.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The cell's kernel counters, as absorbed when it really ran.
    pub telemetry: TelemetryCounters,
    /// Simulated nanoseconds the cell covered.
    pub sim_nanos: u64,
    /// Networks the cell absorbed (repetitions).
    pub networks: u64,
    /// The cell's merged metrics snapshot in `fancy-metrics` JSONL form
    /// (empty string when the cell recorded none), so a warm sweep's
    /// merged snapshot is byte-identical to a cold one.
    pub metrics: String,
    /// The encoded cell result.
    pub result: Record,
}

/// The on-disk store: one `fc-<key>.rec` file per cell under a root
/// directory (usually `FANCY_CACHE_DIR`).
///
/// Each file is
///
/// ```text
/// fancy-cache 1 <payload-bytes> <fnv64-hex>
/// {"schema":1,"key_hi":...,"key_lo":...,...counters...}
/// {"tpr":...}
/// ```
///
/// Loads verify the magic, container version, payload length, checksum,
/// schema version, and that the embedded key matches the requested one
/// (a renamed file cannot impersonate another cell). Any failure is a
/// silent miss. Stores write a temp file and rename, so a concurrent
/// reader sees either nothing or a complete record; two writers racing
/// on one key write identical bytes (cells are deterministic), making
/// the race benign.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CellCache { dir: dir.into() }
    }

    /// The cache selected by `FANCY_CACHE_DIR`, if set and non-empty.
    pub fn from_env() -> Option<Self> {
        crate::env::BenchEnv::from_env()
            .cache_dir
            .map(CellCache::new)
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key lives at.
    pub fn path_of(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("fc-{}.rec", key.hex()))
    }

    /// Load a record; `None` on absence *or any* corruption (bad magic,
    /// short read, checksum or length mismatch, schema drift, embedded
    /// key mismatch, undecodable JSONL).
    pub fn load(&self, key: CacheKey) -> Option<CachedCell> {
        let bytes = std::fs::read(self.path_of(key)).ok()?;
        let text = std::str::from_utf8(&bytes).ok()?;
        let (header, payload) = text.split_once('\n')?;

        let mut parts = header.split_ascii_whitespace();
        if parts.next()? != "fancy-cache" || parts.next()? != "1" {
            return None;
        }
        let len: usize = parts.next()?.parse().ok()?;
        let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() || payload.len() != len || fnv1a64(payload.as_bytes()) != sum {
            return None;
        }

        let mut lines = payload.lines();
        let meta = Record::from_jsonl(lines.next()?)?;
        let result = Record::from_jsonl(lines.next()?)?;
        if lines.next().is_some() {
            return None;
        }
        if meta.u64("schema")? != CACHE_SCHEMA_VERSION
            || meta.u64("key_hi")? != key.hi
            || meta.u64("key_lo")? != key.lo
        {
            return None;
        }
        Some(CachedCell {
            telemetry: TelemetryCounters::from_pairs(|name| meta.u64(name))?,
            sim_nanos: meta.u64("sim_nanos")?,
            networks: meta.u64("networks")?,
            metrics: meta.str("metrics")?.to_owned(),
            result,
        })
    }

    /// Store a record atomically. Returns `false` (and stays silent) on
    /// any I/O error — a read-only cache dir degrades to cold runs, it
    /// never aborts a sweep.
    pub fn store(&self, key: CacheKey, cell: &CachedCell) -> bool {
        let mut meta = Record::default();
        meta.put_u64("schema", CACHE_SCHEMA_VERSION);
        meta.put_u64("key_hi", key.hi);
        meta.put_u64("key_lo", key.lo);
        meta.put_u64("sim_nanos", cell.sim_nanos);
        meta.put_u64("networks", cell.networks);
        meta.put_str("metrics", &cell.metrics);
        for (name, v) in cell.telemetry.to_pairs() {
            meta.put_u64(name, v);
        }
        let payload = format!("{}\n{}\n", meta.to_jsonl(), cell.result.to_jsonl());
        let content = format!(
            "fancy-cache 1 {} {:016x}\n{payload}",
            payload.len(),
            fnv1a64(payload.as_bytes())
        );

        if std::fs::create_dir_all(&self.dir).is_err() {
            return false;
        }
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            ".fc-{}.{}-{}.tmp",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if std::fs::write(&tmp, content).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        match std::fs::rename(&tmp, self.path_of(key)) {
            Ok(()) => true,
            Err(_) => {
                let _ = std::fs::remove_file(&tmp);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fancy-cache-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test cache dir");
        dir
    }

    fn sample_cell() -> CachedCell {
        let mut result = Record::default();
        result.put_f64("tpr", 0.9375);
        result.put_f64("avg_detection_s", 0.412);
        result.put_u64("reps", 3);
        result.put_str("note", "quote \" and \\ newline \n survive");
        CachedCell {
            telemetry: TelemetryCounters {
                events_dispatched: 123_456,
                packet_arrivals: 100_000,
                timers_fired: 23_456,
                queue_high_water: 77,
                pool_high_water: 41,
                packets_forwarded: 99_000,
                packets_gray_dropped: 812,
                ..Default::default()
            },
            sim_nanos: 36_000_000_000,
            networks: 3,
            metrics: "{\"kind\":\"counter\",\"name\":\"fancy_reroutes_total\",\"labels\":{},\"value\":2}\n"
                .to_owned(),
            result,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_order_length_sensitive() {
        let key = |build: &dyn Fn(&mut Fingerprint)| {
            let mut fp = Fingerprint::new();
            build(&mut fp);
            fp.key()
        };
        let base = key(&|fp| {
            fp.push_str("fig7");
            fp.push_u64(3);
            fp.push_f64(0.01);
        });
        // Deterministic across invocations.
        assert_eq!(
            base,
            key(&|fp| {
                fp.push_str("fig7");
                fp.push_u64(3);
                fp.push_f64(0.01);
            })
        );
        // Sensitive to every value, to order, and to string boundaries.
        assert_ne!(
            base,
            key(&|fp| {
                fp.push_str("fig8");
                fp.push_u64(3);
                fp.push_f64(0.01);
            })
        );
        assert_ne!(
            base,
            key(&|fp| {
                fp.push_str("fig7");
                fp.push_u64(4);
                fp.push_f64(0.01);
            })
        );
        assert_ne!(
            base,
            key(&|fp| {
                fp.push_str("fig7");
                fp.push_u64(3);
                fp.push_f64(0.011);
            })
        );
        assert_ne!(
            base,
            key(&|fp| {
                fp.push_u64(3);
                fp.push_str("fig7");
                fp.push_f64(0.01);
            })
        );
        assert_ne!(
            key(&|fp| {
                fp.push_str("ab");
                fp.push_str("c");
            }),
            key(&|fp| {
                fp.push_str("a");
                fp.push_str("bc");
            }),
            "length prefix must prevent concatenation collisions"
        );
        // Both halves carry entropy.
        let other = key(&|fp| fp.push_u64(1));
        assert_ne!(base.hi, other.hi);
        assert_ne!(base.lo, other.lo);
    }

    #[test]
    fn cell_key_misses_on_any_input_mutation() {
        let salt = Fingerprint::new().with("fig7").with(&Scale {
            reps: 3,
            duration: SimDuration::from_secs(12),
            multi_entries: 20,
            trace_scale: 0.01,
            trace_failures: 36,
            full: false,
        });
        let cell = (2u64, 0.1f64);
        let base = cell_key(&salt, &cell, 0xDEAD);

        // Same everything → same key.
        assert_eq!(base, cell_key(&salt.clone(), &cell, 0xDEAD));
        // Seed, cell config, or salt (label / reps / scale) mutations miss.
        assert_ne!(base, cell_key(&salt, &cell, 0xDEAE));
        assert_ne!(base, cell_key(&salt, &(3u64, 0.1f64), 0xDEAD));
        assert_ne!(base, cell_key(&salt, &(2u64, 0.2f64), 0xDEAD));
        let other_salt = Fingerprint::new().with("fig8").with(&Scale {
            reps: 3,
            duration: SimDuration::from_secs(12),
            multi_entries: 20,
            trace_scale: 0.01,
            trace_failures: 36,
            full: false,
        });
        assert_ne!(base, cell_key(&other_salt, &cell, 0xDEAD));
        let more_reps = Fingerprint::new().with("fig7").with(&Scale {
            reps: 10,
            duration: SimDuration::from_secs(12),
            multi_entries: 20,
            trace_scale: 0.01,
            trace_failures: 36,
            full: false,
        });
        assert_ne!(base, cell_key(&more_reps, &cell, 0xDEAD));
        // A schema bump relocates every record: emulate one by hashing
        // the same inputs with the version the *next* schema would push.
        let mut bumped = salt.clone();
        bumped.push_u64(CACHE_SCHEMA_VERSION + 1);
        cell.cache_fields(&mut bumped);
        bumped.push_u64(0xDEAD);
        assert_ne!(base, bumped.key());
    }

    #[test]
    fn record_round_trips_exactly() {
        let cell = sample_cell();
        let line = cell.result.to_jsonl();
        let back = Record::from_jsonl(&line).expect("parse");
        assert_eq!(back, cell.result);
        assert_eq!(back.to_jsonl(), line, "byte round trip");
        assert_eq!(back.f64("tpr"), Some(0.9375));
        assert_eq!(back.u64("reps"), Some(3));
        assert_eq!(back.str("note"), Some("quote \" and \\ newline \n survive"));
        assert_eq!(back.u64("missing"), None);
        assert_eq!(Record::from_jsonl("not json"), None);
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = CellCache::new(fresh_dir("roundtrip"));
        let key = cell_key(&Fingerprint::new().with("rt"), &7u64, 0x5EED);
        assert_eq!(cache.load(key), None, "cold cache must miss");
        let cell = sample_cell();
        assert!(cache.store(key, &cell));
        assert_eq!(cache.load(key), Some(cell.clone()));
        // Storing again (the benign double-writer race) is fine.
        assert!(cache.store(key, &cell));
        assert_eq!(cache.load(key), Some(cell));
    }

    #[test]
    fn corruption_is_a_silent_miss() {
        let cache = CellCache::new(fresh_dir("corrupt"));
        let key = cell_key(&Fingerprint::new().with("corrupt"), &1u64, 1);
        let cell = sample_cell();
        assert!(cache.store(key, &cell));
        let path = cache.path_of(key);
        let pristine = std::fs::read(&path).expect("read back");

        // A flipped bit anywhere — header, meta, or result — is a miss.
        for at in [10, pristine.len() / 2, pristine.len() - 3] {
            let mut bytes = pristine.clone();
            bytes[at] ^= 0x01;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(cache.load(key), None, "bit flip at byte {at} must miss");
        }
        // Truncation at any boundary is a miss.
        for keep in [0, 5, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            assert_eq!(
                cache.load(key),
                None,
                "truncation to {keep} bytes must miss"
            );
        }
        // Non-UTF-8 garbage is a miss, not a panic.
        std::fs::write(&path, [0xFF, 0xFE, 0x00, 0x01]).unwrap();
        assert_eq!(cache.load(key), None);

        // Restoring the pristine bytes restores the hit.
        std::fs::write(&path, &pristine).unwrap();
        assert_eq!(cache.load(key), Some(cell));
    }

    #[test]
    fn renamed_record_cannot_impersonate_another_key() {
        let cache = CellCache::new(fresh_dir("impersonate"));
        let key_a = cell_key(&Fingerprint::new().with("imp"), &1u64, 1);
        let key_b = cell_key(&Fingerprint::new().with("imp"), &2u64, 1);
        assert!(cache.store(key_a, &sample_cell()));
        // Copy A's (checksum-valid) record into B's slot: the embedded
        // key check must still reject it.
        std::fs::copy(cache.path_of(key_a), cache.path_of(key_b)).unwrap();
        assert_eq!(cache.load(key_b), None);
        assert!(cache.load(key_a).is_some());
    }

    #[test]
    fn schema_version_gates_loads() {
        let cache = CellCache::new(fresh_dir("schema"));
        let key = cell_key(&Fingerprint::new().with("schema"), &1u64, 1);
        assert!(cache.store(key, &sample_cell()));
        // Rewrite the record with a bumped schema field and a *valid*
        // checksum: only the schema check can reject it.
        let path = cache.path_of(key);
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = text.split_once('\n').unwrap().1;
        let bumped = payload.replacen(
            &format!("\"schema\":{CACHE_SCHEMA_VERSION}"),
            &format!("\"schema\":{}", CACHE_SCHEMA_VERSION + 1),
            1,
        );
        let content = format!(
            "fancy-cache 1 {} {:016x}\n{bumped}",
            bumped.len(),
            fnv1a64(bumped.as_bytes())
        );
        std::fs::write(&path, content).unwrap();
        assert_eq!(cache.load(key), None);
    }

    #[test]
    fn repeated_key_is_a_miss() {
        let cache = CellCache::new(fresh_dir("repeat"));
        let key = cell_key(&Fingerprint::new().with("repeat"), &1u64, 1);
        let cell = sample_cell();
        assert!(cache.store(key, &cell));
        let path = cache.path_of(key);
        let text = std::fs::read_to_string(&path).unwrap();
        let payload = text.split_once('\n').unwrap().1;
        // Repeat a key with a *valid* checksum, in the meta line and in
        // the result line: the record no longer says one thing.
        for (line, extra) in [(0, ",\"sim_nanos\":1}"), (1, ",\"reps\":4}")] {
            let mut lines: Vec<String> = payload.lines().map(str::to_owned).collect();
            lines[line].pop();
            lines[line].push_str(extra);
            let doubled = lines.join("\n") + "\n";
            let content = format!(
                "fancy-cache 1 {} {:016x}\n{doubled}",
                doubled.len(),
                fnv1a64(doubled.as_bytes())
            );
            std::fs::write(&path, content).unwrap();
            assert_eq!(cache.load(key), None, "line {line}: {extra}");
        }
        std::fs::write(&path, text).unwrap();
        assert_eq!(cache.load(key), Some(cell));
    }

    #[test]
    fn keyed_containers_and_configs_feed_the_fingerprint() {
        let a = Fingerprint::new().with(&vec![1u64, 2, 3]).key();
        let b = Fingerprint::new().with(&vec![1u64, 2]).with(&3u64).key();
        assert_ne!(a, b, "slice length prefix must matter");

        let grid = vec![
            fancy_traffic::EntrySize {
                total_bps: 1_000_000,
                flows_per_sec: 50.0,
            },
            fancy_traffic::EntrySize {
                total_bps: 500_000,
                flows_per_sec: 25.0,
            },
        ];
        let g1 = Fingerprint::new().with(&grid[..]).key();
        let mut grid2 = grid.clone();
        grid2[1].flows_per_sec = 26.0;
        assert_ne!(g1, Fingerprint::new().with(&grid2[..]).key());

        assert_ne!(
            Fingerprint::new().with(&Some(1u64)).key(),
            Fingerprint::new().with(&None::<u64>).key()
        );
        assert_ne!(
            Fingerprint::new().with(&(1u64, 2u64, 3u64)).key(),
            Fingerprint::new().with(&(1u64, 3u64, 2u64)).key()
        );
    }

    #[test]
    fn builtin_codecs_round_trip() {
        let mut rec = Record::default();
        42u64.encode(&mut rec);
        assert_eq!(u64::decode(&rec), Some(42));
        let mut rec = Record::default();
        0.1f64.encode(&mut rec);
        assert_eq!(f64::decode(&rec).map(f64::to_bits), Some(0.1f64.to_bits()));
        assert_eq!(u64::decode(&Record::default()), None);
    }
}
