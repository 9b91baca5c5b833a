//! The parallel experiment engine.
//!
//! A [`Sweep`] fans a list of independent simulation *cells* (one cell =
//! one self-contained set of runs, e.g. a heatmap pixel) across worker
//! threads. There is one executor, a private *cell board*: per cell one
//! result slot, plus one atomic counter handing out cell indices. Scoped
//! workers (or the caller alone, at one thread) run one `worker()` loop
//! that takes the next index (slow cells never stall the rest of the
//! grid) and calls the cell function exactly once, and one `finish()`
//! turns the filled slots into results and a [`SweepReport`]. Five
//! properties make sweeps safe for paper results:
//!
//! 1. **Deterministic seeding.** Every cell's RNG seed is
//!    [`Sweep::cell_seed`] of its *index* — never of the thread that
//!    happens to execute it. `FANCY_THREADS=1` and `FANCY_THREADS=64`
//!    produce bit-identical results.
//! 2. **Indexed result slots.** A worker writes its result into the
//!    slot owned by the cell index, so the output order is the input
//!    order regardless of completion order.
//! 3. **Observational telemetry, committed once, in index order.**
//!    Each cell call buffers its kernel counters, metrics and timed spans
//!    privately, and the buffer lands in the cell's slot with its result.
//!    `finish()` folds exactly one buffer per completed cell, walking
//!    cells by index — so a panicked call contributes nothing, and every
//!    report field (phase label order included) is
//!    scheduling-independent.
//! 4. **Crash isolation.** The worker catches a panicking cell and
//!    keeps its panic message; every other cell still runs to
//!    completion. [`Sweep::run`] then panics *at the end* naming every
//!    failed cell, its seed and its message. Cells are deterministic, so
//!    a failed cell is not retried: a second call would replay the same
//!    panic.
//! 5. **Resumable runs.** [`Sweep::try_run_cached`] consults the
//!    content-addressed result store ([`crate::cache`], usually rooted
//!    at `FANCY_CACHE_DIR`): warm cells return instantly with their
//!    stored result *and* stored telemetry, cold cells execute and are
//!    stored on success, so an interrupted, failed or edited sweep
//!    re-runs only what is missing.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fancy_net::mix64;
use fancy_sim::metrics::Snapshot;
use fancy_sim::{trace::Profiler, JsonlWriter, Network, TelemetryCounters, TraceSink};
use fancy_trace::TraceEvent;

use crate::cache::{
    self, CacheCodec, CacheKey, CacheKeyed, CachedCell, CellCache, Fingerprint, Record,
};
use crate::env::BenchEnv;

/// An error raised by sweep infrastructure (as opposed to a cell's own
/// experiment logic). Propagate it through [`Sweep::try_run`].
#[derive(Debug)]
pub enum SweepError {
    /// The per-sweep trace directory could not be created.
    TraceDir {
        /// The directory that could not be created.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A cell's trace file could not be created.
    TraceFile {
        /// The file that could not be created.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::TraceDir { path, source } => {
                write!(f, "cannot create trace dir {}: {source}", path.display())
            }
            SweepError::TraceFile { path, source } => {
                write!(f, "cannot create trace file {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::TraceDir { source, .. } | SweepError::TraceFile { source, .. } => {
                Some(source)
            }
        }
    }
}

/// Per-cell context handed to the sweep's work function.
#[derive(Clone)]
pub struct CellCtx {
    /// Index of this cell in the sweep's input order.
    pub index: usize,
    /// Deterministic seed for this cell, independent of thread count
    /// and scheduling: `mix64(base_seed ^ index)`.
    pub seed: u64,
    pending: Option<Arc<Mutex<PendingStats>>>,
    trace_dir: Option<Arc<PathBuf>>,
}

impl CellCtx {
    /// A context outside any sweep (direct cell-function calls, unit
    /// tests): carries the seed, discards telemetry.
    pub fn detached(seed: u64) -> CellCtx {
        CellCtx {
            index: 0,
            seed,
            pending: None,
            trace_dir: None,
        }
    }

    /// Fold a finished network's kernel telemetry into this cell's
    /// private buffer. Call once per simulated network, after its last
    /// `run_until`. The buffer reaches the sweep's aggregate report
    /// only if the cell returns — a panicked cell's absorbs are dropped
    /// with it. No-op on a detached context.
    pub fn absorb(&self, net: &Network) {
        let Some(pending) = &self.pending else { return };
        let snap = net.kernel.telemetry_snapshot();
        let mut p = pending.lock().expect("pending stats poisoned");
        p.telemetry.absorb(&net.kernel.telemetry);
        p.sim_nanos += snap.sim_elapsed.as_nanos();
        p.wall_nanos += snap.wall_elapsed.as_nanos() as u64;
        p.networks += 1;
        // A metrics hub on the kernel rides along: its registry snapshot
        // merges into the cell's buffer and ultimately into
        // [`SweepReport::metrics`]. Attach a fresh hub per network —
        // absorbing the same hub twice double-counts its counters.
        if let Some(hub) = net.kernel.metrics_hub() {
            p.metrics.merge(&hub.snapshot());
        }
    }

    /// Wall-clock a span of cell work under `label`; spans merge by
    /// label across cells and surface in [`SweepReport::phases`]. Like
    /// [`CellCtx::absorb`], spans are buffered per cell and only
    /// committed when the cell returns. On a detached
    /// context the closure still runs, untimed.
    pub fn time<R>(&self, label: &str, f: impl FnOnce() -> R) -> R {
        let Some(pending) = &self.pending else {
            return f();
        };
        let start = Instant::now();
        let r = f();
        let mut p = pending.lock().expect("pending stats poisoned");
        p.phases.add(label, start.elapsed());
        r
    }

    /// Where this cell's trace lands when the sweep has a trace
    /// directory ([`Sweep::trace_dir`]): `<dir>/cell-<index>.jsonl`.
    pub fn trace_path(&self) -> Option<PathBuf> {
        self.trace_dir
            .as_ref()
            .map(|d| d.join(format!("cell-{:04}.jsonl", self.index)))
    }

    /// A JSONL flight-recorder sink writing this cell's trace file, or
    /// `Ok(None)` when the sweep records no traces. Install it with
    /// `net.kernel.set_tracer(...)` at the top of the cell. The trace
    /// directory is created lazily here; an unwritable directory or
    /// file surfaces as [`SweepError`] so fallible cells can propagate
    /// it through [`Sweep::try_run`] instead of crashing the sweep.
    pub fn tracer(&self) -> Result<Option<Box<dyn TraceSink>>, SweepError> {
        let Some(path) = self.trace_path() else {
            return Ok(None);
        };
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|source| SweepError::TraceDir {
                path: dir.to_path_buf(),
                source,
            })?;
        }
        let w = JsonlWriter::create(&path).map_err(|source| SweepError::TraceFile {
            path: path.clone(),
            source,
        })?;
        Ok(Some(Box::new(w)))
    }

    /// Leave a one-line `cache_hit` marker trace for a warm cell — but
    /// only when the cell has no trace file yet: a cold run's full
    /// trace is strictly more useful than the marker, so it is never
    /// clobbered. Best effort; trace I/O can never fail a warm hit.
    fn write_cache_hit_stub(&self, key: CacheKey, hit: &CachedCell) {
        let Some(path) = self.trace_path() else {
            return;
        };
        if path.exists() {
            return;
        }
        let ev = TraceEvent::CacheHit {
            t: 0,
            cell: self.index as u64,
            key_hi: key.hi,
            key_lo: key.lo,
            saved_events: hit.telemetry.events_dispatched,
        };
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(&path, format!("{}\n", ev.to_jsonl()));
    }
}

/// One cell call's privately buffered accounting: kernel telemetry,
/// cache lookup outcomes, and timed spans. Stored in the cell's slot
/// next to its result and folded into the report by `Board::finish`;
/// dropped (never folded) when the call panics.
#[derive(Debug, Default)]
struct PendingStats {
    telemetry: TelemetryCounters,
    sim_nanos: u64,
    wall_nanos: u64,
    networks: u64,
    cache_hits: u64,
    cache_misses: u64,
    phases: Profiler,
    metrics: Snapshot,
}

/// Aggregate progress/throughput report of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// The sweep's label.
    pub label: String,
    /// Number of cells executed.
    pub cells: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time of the whole sweep.
    pub wall: Duration,
    /// Telemetry summed (high-water: maxed) over every absorbed network.
    pub telemetry: TelemetryCounters,
    /// Simulated seconds summed over every absorbed network.
    pub sim_seconds: f64,
    /// Wall-clock summed over every absorbed kernel's run loops. With
    /// `threads` workers this exceeds [`SweepReport::wall`]; the ratio
    /// is the effective parallelism.
    pub kernel_wall: Duration,
    /// Networks folded in via [`CellCtx::absorb`] (0 when the work
    /// function never absorbs — telemetry fields are then all zero).
    /// Warm cache hits restore the network count they saved with, so
    /// this matches the cold run.
    pub networks: u64,
    /// Cells served warm from the content-addressed result cache.
    /// Always 0 for the plain `run`/`try_run` entry points and for [`Sweep::try_run_cached`] with no cache attached.
    pub cache_hits: u64,
    /// Cells that executed under [`Sweep::try_run_cached`] because the
    /// cache held no usable record for them.
    pub cache_misses: u64,
    /// Wall-clock spans recorded via [`CellCtx::time`], merged by label
    /// in first-seen order walking cells by index (so the label order
    /// does not depend on scheduling). Empty when cells never time
    /// anything.
    pub phases: Vec<(String, Duration)>,
    /// Metrics snapshots merged over every absorbed network (counters
    /// add, gauges max, histograms merge exactly). Because the merge is
    /// associative and commutative, this is bit-identical at any thread
    /// count and on warm cache replays. Empty when cells attach no
    /// [`fancy_sim::metrics::MetricsHub`].
    pub metrics: Snapshot,
}

impl SweepReport {
    /// Events dispatched per wall-clock second, across all workers.
    pub fn events_per_wall_sec(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.telemetry.events_dispatched as f64 / w
        } else {
            0.0
        }
    }

    /// Multi-line human-readable summary for experiment footers.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "sweep '{}': {} cells on {} thread(s) in {:.2}s",
            self.label,
            self.cells,
            self.threads,
            self.wall.as_secs_f64(),
        );
        // Throughput on the headline so every sweep doubles as a perf
        // canary (events ÷ sweep wall clock, all workers combined).
        if self.telemetry.events_dispatched > 0 {
            s.push_str(&format!(
                " ({:.2} Mevents/s)",
                self.events_per_wall_sec() / 1e6
            ));
        }
        if self.networks > 0 {
            s.push_str(&format!(
                "\n  {} networks, {:.1} sim-s, {} events ({:.0} events/wall-s), queue high-water {} (timers {})\
                 \n  packets: {} forwarded, {} gray-dropped, {} control-dropped, {} congestion-dropped",
                self.networks,
                self.sim_seconds,
                self.telemetry.events_dispatched,
                self.events_per_wall_sec(),
                self.telemetry.queue_high_water,
                self.telemetry.timer_high_water,
                self.telemetry.packets_forwarded,
                self.telemetry.packets_gray_dropped,
                self.telemetry.control_drops,
                self.telemetry.congestion_drops,
            ));
            s.push_str(&format!(
                "\n  chaos: {} drops, {} dups, {} reorders ({} on control), {} degraded entries",
                self.telemetry.chaos_drops,
                self.telemetry.chaos_dups,
                self.telemetry.chaos_reorders,
                self.telemetry.chaos_control_faults,
                self.telemetry.degraded_entries,
            ));
        }
        // Cells that absorbed a sharded executor leave per-shard gauges
        // in the merged metrics plane; render them as one breakdown row
        // per shard, next to the throughput headline. Gauges max-merge
        // across cells, so each row shows the busiest cell's shard.
        let shard_rows: Vec<String> = (0..)
            .map_while(|i| {
                let l = fancy_sim::metrics::Labels::new().with("shard", format!("{i}"));
                let events = self.metrics.gauge("fancy_shard_events", &l)?;
                let sim_ns = self.metrics.gauge("fancy_shard_sim_ns", &l).unwrap_or(0);
                let windows = self.metrics.gauge("fancy_shard_windows", &l).unwrap_or(0);
                let nulls = self.metrics.gauge("fancy_shard_null_windows", &l).unwrap_or(0);
                let stall = self.metrics.gauge("fancy_shard_stall_pct", &l).unwrap_or(0);
                Some(format!(
                    "\n  shard {i}: {events} events, {:.1} sim-s, {windows} windows ({nulls} null, {stall}% stall)",
                    sim_ns as f64 / 1e9,
                ))
            })
            .collect();
        if !shard_rows.is_empty() {
            s.push_str(&format!(
                "\n  sharded executor ({} region(s), per-cell max):",
                shard_rows.len()
            ));
            for row in &shard_rows {
                s.push_str(row);
            }
        }
        let lookups = self.cache_hits + self.cache_misses;
        if lookups > 0 {
            s.push_str(&format!(
                "\n  cache: {} warm, {} cold ({:.0}% hit rate)",
                self.cache_hits,
                self.cache_misses,
                100.0 * self.cache_hits as f64 / lookups as f64,
            ));
        }
        if !self.phases.is_empty() {
            s.push_str("\n  phases:");
            for (label, d) in &self.phases {
                s.push_str(&format!(" {label} {:.2}s", d.as_secs_f64()));
            }
        }
        // One quantile line per histogram metric, merged across every
        // label set (values are nanoseconds for *_ns metrics).
        for name in self.metrics.names().collect::<Vec<_>>() {
            if let Some(h) = self.metrics.merged_histogram(name) {
                s.push_str(&format!(
                    "\n  {name}: n={} p50={} p99={} max={}",
                    h.count(),
                    h.quantile(0.5).unwrap_or(0),
                    h.quantile(0.99).unwrap_or(0),
                    h.max().unwrap_or(0),
                ));
            }
        }
        s
    }
}

/// Extract a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// What one cell's single call left in its slot: the result with that
/// call's buffered accounting, or the call's panic message.
type Outcome<R> = Result<(R, PendingStats), String>;

/// The shared state of one sweep execution — the only executor there
/// is, borrowed by [`Sweep::run`]'s scoped workers.
struct Board<'s, C, R> {
    sweep: &'s Sweep<C>,
    threads: usize,
    start: Instant,
    trace_dir: Option<Arc<PathBuf>>,
    /// The next cell index to hand out; indices past the end mean done.
    /// `Relaxed` suffices: the counter publishes no data (outcomes go
    /// through the slot mutexes, and the scope's join orders them
    /// before `finish`), and `fetch_add` alone hands each index out once.
    next: AtomicUsize,
    slots: Vec<Mutex<Option<Outcome<R>>>>,
}

impl<'s, C: Sync, R> Board<'s, C, R> {
    fn new(sweep: &'s Sweep<C>) -> Self {
        let n = sweep.cells.len();
        Board {
            sweep,
            threads: sweep.threads.min(n.max(1)),
            start: Instant::now(),
            trace_dir: sweep.trace_dir.clone().map(Arc::new),
            next: AtomicUsize::new(0),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Take cell indices off the counter until none are left. The one
    /// place a cell function is called, and the one place its panics
    /// are caught.
    fn worker<F>(&self, f: &F)
    where
        F: Fn(&C, &CellCtx) -> R,
    {
        loop {
            let index = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(cell) = self.sweep.cells.get(index) else {
                return;
            };
            // Fresh buffer per cell: it reaches the slot only when the
            // call returns, so a panicked call's partial absorbs never
            // reach the report.
            let pending = Arc::new(Mutex::new(PendingStats::default()));
            let ctx = CellCtx {
                index,
                seed: self.sweep.cell_seed(index),
                pending: Some(pending.clone()),
                trace_dir: self.trace_dir.clone(),
            };
            let outcome = match catch_unwind(AssertUnwindSafe(|| f(cell, &ctx))) {
                Ok(r) => {
                    let buffered =
                        std::mem::take(&mut *pending.lock().expect("pending stats poisoned"));
                    Ok((r, buffered))
                }
                Err(payload) => Err(panic_message(payload.as_ref())),
            };
            *self.slots[index].lock().expect("result slot poisoned") = Some(outcome);
        }
    }

    /// Turn the filled slots into results and the report, folding
    /// exactly one buffer per completed cell in cell-index order,
    /// whatever order the cells completed in. Panics at the end naming
    /// every cell whose call panicked.
    fn finish(self) -> (Vec<R>, SweepReport) {
        let n = self.slots.len();
        let mut total = PendingStats::default();
        let mut results = Vec::with_capacity(n);
        let mut failed = String::new();
        for (index, slot) in self.slots.into_iter().enumerate() {
            let outcome = slot.into_inner().expect("result slot poisoned");
            match outcome.expect("every cell is called once") {
                Ok((r, p)) => {
                    total.telemetry.absorb(&p.telemetry);
                    total.sim_nanos += p.sim_nanos;
                    total.wall_nanos += p.wall_nanos;
                    total.networks += p.networks;
                    total.cache_hits += p.cache_hits;
                    total.cache_misses += p.cache_misses;
                    total.metrics.merge(&p.metrics);
                    for (label, d) in p.phases.spans() {
                        total.phases.add(label, *d);
                    }
                    results.push(r);
                }
                Err(msg) => {
                    let seed = self.sweep.cell_seed(index);
                    failed.push_str(&format!(
                        "\n  cell {index:04} (seed {seed:#018x}) panicked: {msg}"
                    ));
                }
            }
        }
        if !failed.is_empty() {
            panic!(
                "sweep '{}': {} of {n} cell(s) failed:{failed}",
                self.sweep.label,
                n - results.len(),
            );
        }
        let report = SweepReport {
            label: self.sweep.label.clone(),
            cells: n,
            threads: self.threads,
            wall: self.start.elapsed(),
            telemetry: total.telemetry,
            sim_seconds: total.sim_nanos as f64 / 1e9,
            kernel_wall: Duration::from_nanos(total.wall_nanos),
            networks: total.networks,
            cache_hits: total.cache_hits,
            cache_misses: total.cache_misses,
            phases: total.phases.into_spans(),
            metrics: total.metrics,
        };
        (results, report)
    }
}

/// A parallel sweep over independent experiment cells.
///
/// ```
/// use fancy_bench::runner::Sweep;
///
/// let (squares, report) = Sweep::new("squares", (0..32u64).collect::<Vec<_>>())
///     .threads(8)
///     .run(|&cell, ctx| cell * cell + (ctx.seed & 0)); // seed is per-index
/// assert_eq!(squares[5], 25);
/// assert_eq!(report.cells, 32);
/// ```
pub struct Sweep<C> {
    label: String,
    cells: Vec<C>,
    threads: usize,
    base_seed: u64,
    trace_dir: Option<PathBuf>,
    cache: Option<SweepCache>,
}

/// A sweep-attached handle on the content-addressed result store: the
/// store itself plus the sweep-level salt (label, scale, grid shape —
/// everything that shapes a cell's work besides the cell value and
/// seed) folded into every cell's cache key.
struct SweepCache {
    store: CellCache,
    salt: Fingerprint,
}

impl<C: Sync> Sweep<C> {
    /// A sweep over `cells`, using `FANCY_THREADS` (or the machine's
    /// parallelism) workers, the default base seed, and no cache.
    pub fn new(label: impl Into<String>, cells: Vec<C>) -> Self {
        Sweep {
            label: label.into(),
            cells,
            threads: BenchEnv::from_env().threads,
            base_seed: 0xFA9C,
            trace_dir: None,
            cache: None,
        }
    }

    /// Override the worker-thread count (values < 1 mean serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Override the base seed cells derive their seeds from.
    pub fn seed(mut self, base: u64) -> Self {
        self.base_seed = base;
        self
    }

    /// Persist per-cell flight-recorder traces under `dir` (created
    /// lazily by [`CellCtx::tracer`]): each cell writes
    /// `cell-<index>.jsonl`. Trace file names are index-keyed, so the
    /// directory layout is thread-count invariant too.
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Attach a content-addressed result store:
    /// [`Sweep::try_run_cached`] serves warm cells from `store` and
    /// persists cold ones on success. `salt` is the sweep-level key
    /// material — fold in the label, scale, grid shape, and anything
    /// else that shapes a cell's work besides the cell value and its
    /// seed (see [`crate::cache`] for the full key recipe and
    /// invalidation rules). The plain entry points ignore the cache
    /// entirely.
    pub fn cache(mut self, store: CellCache, salt: Fingerprint) -> Self {
        self.cache = Some(SweepCache { store, salt });
        self
    }

    /// Attach the store selected by `FANCY_CACHE_DIR`, if that
    /// variable is set and non-empty; a no-op (the sweep stays
    /// uncached) otherwise.
    pub fn cache_from_env(self, salt: Fingerprint) -> Self {
        match CellCache::from_env() {
            Some(store) => self.cache(store, salt),
            None => self,
        }
    }

    /// The deterministic seed cell `index` will receive.
    pub fn cell_seed(&self, index: usize) -> u64 {
        mix64(self.base_seed ^ index as u64)
    }

    /// Execute `f` once per cell and return the results in input order,
    /// plus the aggregate report. Results are identical for every
    /// thread count because seeds and result slots are keyed by cell
    /// index, not by worker.
    ///
    /// A panicking cell is caught, and every other cell still runs to
    /// completion; then the whole sweep panics *at the end* with a
    /// diagnosis naming every failed cell, its seed and its panic
    /// message. Each cell is called exactly once: cells are
    /// deterministic, so a retry would only replay the panic.
    pub fn run<R, F>(&self, f: F) -> (Vec<R>, SweepReport)
    where
        R: Send,
        F: Fn(&C, &CellCtx) -> R + Sync,
    {
        let board = Board::new(self);
        if board.threads <= 1 {
            board.worker(&f);
        } else {
            std::thread::scope(|scope| {
                for _ in 0..board.threads {
                    scope.spawn(|| board.worker(&f));
                }
            });
        }
        board.finish()
    }

    /// Like [`Sweep::run`] for fallible cells: stops at the first error
    /// (in cell order) after the sweep completes. Cells keep their
    /// deterministic seeds, so a partial failure is reproducible.
    pub fn try_run<R, E, F>(&self, f: F) -> Result<(Vec<R>, SweepReport), E>
    where
        R: Send,
        E: Send,
        F: Fn(&C, &CellCtx) -> Result<R, E> + Sync,
    {
        let (results, report) = self.run(f);
        Ok((results.into_iter().collect::<Result<_, E>>()?, report))
    }

    /// [`Sweep::try_run`] with the attached cache consulted per cell:
    /// warm cells return their stored result and stored telemetry
    /// without executing, cold cells execute and are stored on success
    /// (`Err` results never are). Every surviving cell is stored
    /// *before* `run` panics at the end, so re-running a sweep that
    /// lost cells executes only those cells. [`SweepReport::cache_hits`]
    /// / `cache_misses` count the lookup outcomes. With no cache
    /// attached this is exactly `try_run`.
    ///
    /// ```
    /// use std::convert::Infallible;
    ///
    /// use fancy_bench::cache::Fingerprint;
    /// use fancy_bench::runner::Sweep;
    ///
    /// // Cold everywhere unless FANCY_CACHE_DIR is set; with it set,
    /// // the second identical invocation executes zero cells.
    /// let salt = Fingerprint::new().with("squares");
    /// let (squares, _report) = Sweep::new("squares", (0..8u64).collect::<Vec<_>>())
    ///     .cache_from_env(salt)
    ///     .try_run_cached(|&cell, _ctx| Ok::<_, Infallible>(cell * cell))
    ///     .unwrap();
    /// assert_eq!(squares[5], 25);
    /// ```
    pub fn try_run_cached<R, E, F>(&self, f: F) -> Result<(Vec<R>, SweepReport), E>
    where
        C: CacheKeyed,
        R: Send + CacheCodec,
        E: Send,
        F: Fn(&C, &CellCtx) -> Result<R, E> + Sync,
    {
        let cache = self.cache.as_ref();
        self.try_run(|cell, ctx| run_cell_cached(cache, cell, ctx, &f))
    }
}

/// Run one cell through the cache: serve a warm hit (folding its
/// stored telemetry and a `cache_hits` tick into the cell's buffer),
/// or execute `f` and persist the result on success.
/// Detached contexts and uncached sweeps fall straight through to `f`.
fn run_cell_cached<C, R, E, F>(
    cache: Option<&SweepCache>,
    cell: &C,
    ctx: &CellCtx,
    f: &F,
) -> Result<R, E>
where
    C: CacheKeyed + ?Sized,
    R: CacheCodec,
    F: Fn(&C, &CellCtx) -> Result<R, E>,
{
    let (Some(cache), Some(pending)) = (cache, &ctx.pending) else {
        return f(cell, ctx);
    };
    let key = cache::cell_key(&cache.salt, cell, ctx.seed);
    if let Some(hit) = cache.store.load(key) {
        // A record whose result (or stored metrics snapshot) no longer
        // decodes degrades to a miss, exactly like a corrupt record.
        let snap = Snapshot::parse_jsonl(&hit.metrics);
        if let (Some(r), Ok(snap)) = (R::decode(&hit.result), snap) {
            ctx.write_cache_hit_stub(key, &hit);
            let mut p = pending.lock().expect("pending stats poisoned");
            p.telemetry.absorb(&hit.telemetry);
            p.sim_nanos += hit.sim_nanos;
            p.networks += hit.networks;
            p.metrics.merge(&snap);
            p.cache_hits += 1;
            return Ok(r);
        }
    }
    pending.lock().expect("pending stats poisoned").cache_misses += 1;
    let r = f(cell, ctx)?;
    // The cell's buffer holds exactly this call's absorbs, so it
    // doubles as the per-cell record. Kernel wall-clock is deliberately
    // not stored: a warm run honestly reports its own (near-zero) wall.
    let mut result = Record::default();
    r.encode(&mut result);
    let record = {
        let p = pending.lock().expect("pending stats poisoned");
        CachedCell {
            telemetry: p.telemetry,
            sim_nanos: p.sim_nanos,
            networks: p.networks,
            metrics: p.metrics.to_jsonl(),
            result,
        }
    };
    let _ = cache.store.store(key, &record);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fancy_sim::{LinkConfig, Network, SimDuration, SimTime, SinkNode};

    #[test]
    fn results_keep_input_order_at_any_thread_count() {
        let cells: Vec<usize> = (0..37).collect();
        for threads in [1, 2, 8] {
            let (out, report) =
                Sweep::new("order", cells.clone())
                    .threads(threads)
                    .run(|&c, ctx| {
                        assert_eq!(c, ctx.index);
                        c * 10
                    });
            assert_eq!(out, (0..37).map(|c| c * 10).collect::<Vec<_>>());
            assert_eq!(report.cells, 37);
        }
    }

    #[test]
    fn seeds_are_index_keyed_and_thread_invariant() {
        let sweep = |threads| {
            Sweep::new("seeds", (0..64usize).collect::<Vec<_>>())
                .seed(0xC0FFEE)
                .threads(threads)
                .run(|_, ctx| ctx.seed)
                .0
        };
        let serial = sweep(1);
        assert_eq!(serial, sweep(8));
        assert_eq!(serial[3], mix64(0xC0FFEE ^ 3));
        // All seeds distinct.
        let set: std::collections::HashSet<_> = serial.iter().collect();
        assert_eq!(set.len(), 64);
    }

    /// A tiny 2-node network that dispatches exactly one event over
    /// one simulated second — cheap deterministic telemetry for tests.
    fn one_packet_net(seed: u64) -> Network {
        let mut net = Network::new(seed);
        let a = net.add_node(Box::new(SinkNode::default()));
        let b = net.add_node(Box::new(SinkNode::default()));
        net.connect(a, b, LinkConfig::default());
        let pkt = fancy_sim::PacketBuilder::new(
            1,
            2,
            100,
            fancy_sim::PacketKind::Udp { flow: 0, seq: 0 },
        )
        .build();
        net.kernel.inject(a, 0, pkt, SimTime::ZERO);
        net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        net
    }

    #[test]
    fn telemetry_aggregates_across_cells() {
        // Each cell runs a tiny 2-node network pushing one packet.
        let (_, report) = Sweep::new("telemetry", vec![(); 5])
            .threads(2)
            .run(|_, ctx| {
                let net = one_packet_net(ctx.seed);
                ctx.absorb(&net);
            });
        assert_eq!(report.networks, 5);
        // One injected arrival per cell (the packet sinks at `a`).
        assert_eq!(report.telemetry.events_dispatched, 5);
        assert_eq!(report.sim_seconds, 5.0);
        assert!(report.summary().contains("5 cells"));
        // The headline doubles as a perf canary: absorbing sweeps print
        // their event throughput, non-absorbing ones stay quiet.
        assert!(
            report.summary().contains("Mevents/s"),
            "{}",
            report.summary()
        );
        let (_, quiet) = Sweep::new("quiet", vec![(); 2]).threads(1).run(|_, _| {});
        assert!(!quiet.summary().contains("Mevents/s"));
    }

    #[test]
    fn uncached_sweeps_report_zero_cache_counters() {
        // `try_run_cached` without an attached cache is exactly
        // `try_run`: no lookups, no counters, no summary line.
        let (out, report) = Sweep::new("plain", (0..4u64).collect::<Vec<_>>())
            .threads(2)
            .try_run_cached(|&c, _| Ok::<_, std::convert::Infallible>(c + 1))
            .unwrap();
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!((report.cache_hits, report.cache_misses), (0, 0));
        assert!(!report.summary().contains("cache:"));
    }

    #[test]
    fn try_run_surfaces_first_error_by_cell_order() {
        let r: Result<(Vec<usize>, SweepReport), String> =
            Sweep::new("fallible", (0..10usize).collect::<Vec<_>>())
                .threads(4)
                .try_run(|&c, _| {
                    if c % 4 == 3 {
                        Err(format!("cell {c}"))
                    } else {
                        Ok(c)
                    }
                });
        assert_eq!(r.err(), Some("cell 3".to_string()));
    }

    #[test]
    fn run_panics_at_end_with_per_cell_diagnosis() {
        use std::sync::atomic::AtomicU32;
        let calls: Vec<AtomicU32> = (0..6).map(|_| AtomicU32::new(0)).collect();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Sweep::new("doomed", (0..6usize).collect::<Vec<_>>())
                .threads(2)
                .seed(7)
                .run(|&c, _| {
                    calls[c].fetch_add(1, Ordering::Relaxed);
                    if c == 3 {
                        panic!("cell three is cursed");
                    }
                    c
                })
        }));
        let msg = panic_message(
            caught
                .expect_err("sweep must propagate the failure")
                .as_ref(),
        );
        assert!(
            msg.contains("sweep 'doomed': 1 of 6 cell(s) failed"),
            "{msg}"
        );
        assert!(msg.contains("cell 0003"), "{msg}");
        assert!(msg.contains("cell three is cursed"), "{msg}");
        assert!(msg.contains(&format!("{:#018x}", mix64(7u64 ^ 3))), "{msg}");
        // Every cell — the panicking one included — is called exactly once.
        let calls: Vec<u32> = calls.iter().map(|n| n.load(Ordering::Relaxed)).collect();
        assert_eq!(calls, vec![1; 6], "calls per cell");
    }

    /// The scheduling-independent content of a report: everything except
    /// `threads` and the wall-clock fields (`wall`, `kernel_wall`, phase
    /// durations).
    fn deterministic_fields(r: &SweepReport) -> impl PartialEq + fmt::Debug {
        (
            (r.cells, r.telemetry, r.sim_seconds.to_bits(), r.networks),
            (r.cache_hits, r.cache_misses),
            r.metrics.to_jsonl(),
            r.phases.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>(),
        )
    }

    #[test]
    fn run_yields_equal_reports_at_any_thread_count() {
        use fancy_sim::metrics::{Labels, MetricsHub};
        // 32 absorbing cells, each with its own phase label (so a
        // completion-order commit would scramble `phases`), a metrics
        // hub, and a cell-dependent packet count.
        fn cell(c: &u64, ctx: &CellCtx) -> u64 {
            let hub = MetricsHub::new();
            let mut net = Network::new(ctx.seed);
            net.kernel.set_metrics(hub.clone());
            let a = net.add_node(Box::new(SinkNode::default()));
            let b = net.add_node(Box::new(SinkNode::default()));
            net.connect(a, b, LinkConfig::default());
            ctx.time(&format!("phase-{:02}", (c * 7) % 32), || {
                for seq in 0..c % 3 + 1 {
                    let kind = fancy_sim::PacketKind::Udp { flow: 0, seq };
                    let pkt = fancy_sim::PacketBuilder::new(1, 2, 100, kind).build();
                    net.kernel.inject(a, 0, pkt, SimTime::ZERO);
                }
                net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
            });
            hub.with(|r| r.observe("cell_seed_ns", Labels::new(), ctx.seed % 1_000_000));
            ctx.absorb(&net);
            c.wrapping_mul(ctx.seed)
        }
        let sweep = |threads| {
            Sweep::new("same", (0..32u64).collect::<Vec<_>>())
                .seed(0xAB)
                .threads(threads)
        };
        let (reference, serial) = sweep(1).run(cell);
        assert_eq!(serial.networks, 32);
        assert_eq!(serial.phases[1].0, "phase-07", "index-order commit");
        for threads in [1, 2, 8] {
            let (out, report) = sweep(threads).run(cell);
            assert_eq!(out, reference);
            assert_eq!(report.threads, threads);
            assert_eq!(
                deterministic_fields(&report),
                deterministic_fields(&serial),
                "{threads} thread(s) vs the serial run"
            );
        }
    }
}
