//! ISSUE 5 acceptance: the content-addressed cell cache makes sweeps
//! resumable. A 32-cell sweep run twice against the same cache executes
//! zero cells the second time and reproduces the first run's results
//! and report (counters and per-cell results byte-identical) at 1 and
//! 8 threads; any change to the key inputs re-executes; corrupt or
//! truncated records degrade to silent misses that self-heal.

use std::convert::Infallible;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use fancy_bench::cache::{cell_key, CacheCodec, CellCache, Fingerprint, Record};
use fancy_bench::netwide::{ComboEdge, ComboOutcome, EdgeOutcome};
use fancy_bench::runner::{CellCtx, Sweep};
use fancy_sim::metrics::{Labels, MetricsHub};
use fancy_sim::{
    LinkConfig, Network, PacketBuilder, PacketKind, ShardStats, SimDuration, SimTime, SinkNode,
};

/// A private scratch directory, wiped at the start of each test so a
/// previous run's records can't leak in.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fancy-cache-rt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A tiny deterministic cell: `cell % 3 + 1` packets through a 2-node
/// network over one simulated second, so every cell contributes real,
/// distinct telemetry. The result folds in the seed to catch a cache
/// that serves a record across seeds.
fn run_cell(cell: usize, ctx: &CellCtx) -> u64 {
    let mut net = Network::new(ctx.seed);
    let a = net.add_node(Box::new(SinkNode::default()));
    let b = net.add_node(Box::new(SinkNode::default()));
    net.connect(a, b, LinkConfig::default());
    for seq in 0..(cell % 3 + 1) as u64 {
        let pkt = PacketBuilder::new(1, 2, 100, PacketKind::Udp { flow: 0, seq }).build();
        net.kernel.inject(a, 0, pkt, SimTime::ZERO);
    }
    net.run_until(SimTime::ZERO + SimDuration::from_secs(1));
    ctx.absorb(&net);
    (cell as u64) * 31 + ctx.seed % 7
}

/// The acceptance criterion verbatim: cold at 1 thread, then warm at 1
/// and 8 threads — the warm runs execute zero cells and their reports
/// match the cold run bit-for-bit on results, telemetry, simulated
/// time, and network counts.
#[test]
fn warm_sweep_executes_zero_cells_and_reproduces_the_report() {
    let dir = fresh_dir("acceptance");
    let executed = AtomicU32::new(0);
    let run = |threads: usize| {
        Sweep::new("roundtrip", (0..32usize).collect::<Vec<_>>())
            .seed(0xCAC4E)
            .threads(threads)
            .cache(CellCache::new(&dir), Fingerprint::new().with("acceptance"))
            .try_run_cached(|&cell, ctx| {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok::<_, Infallible>(run_cell(cell, ctx))
            })
            .unwrap()
    };

    let (cold, cold_report) = run(1);
    assert_eq!(executed.swap(0, Ordering::SeqCst), 32);
    assert_eq!(cold_report.cache_hits, 0);
    assert_eq!(cold_report.cache_misses, 32);

    for threads in [1usize, 8] {
        let (warm, warm_report) = run(threads);
        assert_eq!(
            executed.swap(0, Ordering::SeqCst),
            0,
            "warm run at {threads} threads executed cells"
        );
        assert_eq!(warm, cold, "warm results diverged at {threads} threads");
        assert_eq!(warm_report.cache_hits, 32);
        assert_eq!(warm_report.cache_misses, 0);
        assert_eq!(warm_report.telemetry, cold_report.telemetry);
        assert_eq!(
            warm_report.sim_seconds.to_bits(),
            cold_report.sim_seconds.to_bits()
        );
        assert_eq!(warm_report.networks, cold_report.networks);
        let summary = warm_report.summary();
        assert!(
            summary.contains("cache: 32 warm, 0 cold (100% hit rate)"),
            "{summary}"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Resume after failure, through `FANCY_CACHE_DIR` + `cache_from_env`:
/// a sweep whose cell 7 panics still stores every
/// surviving cell before `run` panics at the end, so the re-run
/// executes exactly cell 7 and serves the rest warm.
#[test]
fn rerun_after_a_failed_cell_executes_only_that_cell() {
    let dir = fresh_dir("env");
    std::env::set_var("FANCY_CACHE_DIR", &dir);
    let run = |doomed: Option<usize>| {
        let executed = Mutex::new(Vec::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Sweep::new("env-resume", (0..8usize).collect::<Vec<_>>())
                .seed(0xE4B)
                .threads(2)
                .cache_from_env(Fingerprint::new().with("env-resume"))
                .try_run_cached(|&cell, ctx| {
                    executed.lock().unwrap().push(cell);
                    if Some(cell) == doomed {
                        panic!("cell {cell} is doomed");
                    }
                    Ok::<_, Infallible>(run_cell(cell, ctx))
                })
                .unwrap()
        }));
        let mut executed = executed.into_inner().unwrap();
        executed.sort_unstable();
        (outcome, executed)
    };

    let (failed, first) = run(Some(7));
    let (resumed, second) = run(None);
    std::env::remove_var("FANCY_CACHE_DIR");

    assert!(failed.is_err(), "a panicking cell must fail the sweep");
    assert_eq!(
        first,
        vec![0, 1, 2, 3, 4, 5, 6, 7],
        "every cell, cell 7 included, runs once"
    );
    assert_eq!(second, vec![7], "the re-run must execute exactly cell 7");
    let (results, report) = resumed.expect("the resumed sweep completes");
    assert_eq!((report.cache_hits, report.cache_misses), (7, 1));
    let sweep = Sweep::new("seeds", vec![(); 8]).seed(0xE4B);
    for (cell, r) in results.iter().enumerate() {
        let ctx = CellCtx::detached(sweep.cell_seed(cell));
        assert_eq!(*r, run_cell(cell, &ctx), "cell {cell}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every component of the key — sweep seed, salt (standing in for
/// captured config), and the cell value itself — invalidates on change.
/// (Schema-version drift is pinned by the cache module's unit tests.)
#[test]
fn any_key_component_change_re_executes() {
    let dir = fresh_dir("invalidation");
    let store = CellCache::new(&dir);
    let executed = AtomicU32::new(0);
    let run = |seed: u64, salt: Fingerprint, cells: Vec<usize>| {
        Sweep::new("invalidation", cells)
            .seed(seed)
            .threads(1)
            .cache(store.clone(), salt)
            .try_run_cached(|&cell, ctx| {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok::<_, Infallible>(run_cell(cell, ctx))
            })
            .unwrap()
    };
    let salt = || Fingerprint::new().with("invalidation");

    run(1, salt(), vec![0, 1, 2, 3]);
    assert_eq!(executed.swap(0, Ordering::SeqCst), 4);

    // Identical inputs: fully warm.
    let (_, report) = run(1, salt(), vec![0, 1, 2, 3]);
    assert_eq!(executed.swap(0, Ordering::SeqCst), 0);
    assert_eq!(report.cache_hits, 4);

    // A different sweep seed changes every cell seed: fully cold.
    run(2, salt(), vec![0, 1, 2, 3]);
    assert_eq!(
        executed.swap(0, Ordering::SeqCst),
        4,
        "seed change must miss"
    );

    // A different salt (changed captured config): fully cold.
    run(1, salt().with(&7u64), vec![0, 1, 2, 3]);
    assert_eq!(
        executed.swap(0, Ordering::SeqCst),
        4,
        "salt change must miss"
    );

    // One changed cell value at an existing index: exactly one miss.
    let (_, report) = run(1, salt(), vec![0, 1, 2, 9]);
    assert_eq!(
        executed.swap(0, Ordering::SeqCst),
        1,
        "cell change must miss only itself"
    );
    assert_eq!(report.cache_hits, 3);
    assert_eq!(report.cache_misses, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Damaged records never panic and never serve wrong data: a bit flip,
/// a truncation, and a zero-length file all degrade to silent misses
/// (counted in `cache_misses`), the cells re-execute and re-store, and
/// the following run is fully warm again.
#[test]
fn corrupt_records_degrade_to_silent_misses() {
    let dir = fresh_dir("corruption");
    let store = CellCache::new(&dir);
    let executed = AtomicU32::new(0);
    let run = || {
        Sweep::new("corruption", vec![0usize, 1, 2, 3])
            .seed(0xBADF00D)
            .threads(1)
            .cache(store.clone(), Fingerprint::new().with("corruption"))
            .try_run_cached(|&cell, ctx| {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok::<_, Infallible>(run_cell(cell, ctx))
            })
            .unwrap()
    };

    let (cold, _) = run();
    assert_eq!(executed.swap(0, Ordering::SeqCst), 4);

    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir must exist after a cold run")
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 4, "one record per cell");

    // Flip one payload bit — the checksum must reject it.
    let mut bytes = std::fs::read(&files[0]).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&files[0], &bytes).unwrap();
    // Truncate another mid-payload — the length must reject it.
    let bytes = std::fs::read(&files[1]).unwrap();
    std::fs::write(&files[1], &bytes[..bytes.len() / 2]).unwrap();
    // And empty a third outright.
    std::fs::write(&files[2], b"").unwrap();

    let (repaired, report) = run();
    assert_eq!(
        executed.swap(0, Ordering::SeqCst),
        3,
        "three damaged records must re-execute"
    );
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cache_misses, 3);
    assert_eq!(
        repaired, cold,
        "re-executed cells must reproduce the originals"
    );

    // The re-stores healed the cache: third run is fully warm.
    let (warm, report) = run();
    assert_eq!(executed.swap(0, Ordering::SeqCst), 0);
    assert_eq!(report.cache_hits, 4);
    assert_eq!(warm, cold);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Store three cells of `make()`, rewrite cell 1's record with `mangle`
/// through the store itself (so length and checksum stay valid and only
/// the payload is bad), and require that record to miss, re-execute and
/// heal while the other two stay warm.
fn check_mangled_record_heals<R: CacheCodec + Send>(
    tag: &str,
    make: impl Fn() -> R + Sync,
    mangle: impl Fn(&mut Record),
) {
    let dir = fresh_dir(tag);
    let store = CellCache::new(&dir);
    let salt = || Fingerprint::new().with(tag);
    let executed = AtomicU32::new(0);
    let run = || {
        let sweep = Sweep::new(tag, vec![0usize, 1, 2]).seed(9).threads(1);
        let (_, report) = sweep
            .cache(store.clone(), salt())
            .try_run_cached(|_, _| {
                executed.fetch_add(1, Ordering::SeqCst);
                Ok::<_, Infallible>(make())
            })
            .unwrap();
        (report.cache_hits, report.cache_misses)
    };
    assert_eq!(run(), (0, 3));
    assert_eq!(run(), (3, 0), "intact records must be warm");
    executed.store(0, Ordering::SeqCst);

    let seed = Sweep::new(tag, vec![(); 3]).seed(9).cell_seed(1);
    let key = cell_key(&salt(), &1usize, seed);
    let mut cell = store.load(key).expect("cell 1 was stored");
    mangle(&mut cell.result);
    assert!(store.store(key, &cell));

    assert_eq!(run(), (2, 1), "{tag}: the mangled record must miss");
    assert_eq!(executed.swap(0, Ordering::SeqCst), 1);
    assert_eq!(run(), (3, 0), "{tag}: the re-run must heal the record");
    assert_eq!(executed.swap(0, Ordering::SeqCst), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A one-member edge outcome and a two-member combo outcome, both with
/// a parseable metrics snapshot and two shards' statistics.
fn netwide_outcomes() -> (EdgeOutcome, ComboOutcome) {
    let hub = MetricsHub::new();
    hub.with(|r| r.inc("cells_total", Labels::new()));
    let metrics = hub.snapshot();
    assert!(!metrics.is_empty());
    let shard_stats = vec![ShardStats::default(); 2];
    let edge = EdgeOutcome {
        edge: 3,
        name: "e3".into(),
        carries_traffic: true,
        detected: true,
        detection_s: 0.25,
        cross_talk: 0,
        protected: false,
        reroute_s: -1.0,
        bound_s: -1.0,
        recovery_ok: true,
        flaps: 0,
        metrics: metrics.clone(),
        shard_stats: shard_stats.clone(),
    };
    let member = |edge: usize| ComboEdge {
        edge,
        name: format!("e{edge}"),
        chaos: edge == 0,
        victim_entry: 7 + edge as u32,
        carries_traffic: true,
        detected: true,
        detection_s: 0.25,
        protected: false,
        reroute_s: -1.0,
        bound_s: -1.0,
        recovery_ok: true,
        flaps: 0,
        alarms: 0,
    };
    let combo = ComboOutcome {
        edges: vec![member(0), member(4)],
        cross_talk: 0,
        metrics,
        shard_stats,
    };
    (edge, combo)
}

/// A checksum-valid record whose stored metrics snapshot no longer
/// parses (written before a `fancy-metrics` JSONL change, say) must
/// degrade to a miss that re-executes and heals — never reach the
/// netwide aggregation and crash it. One shared decode helper guards
/// both netwide outcome kinds.
#[test]
fn mangled_outcome_metrics_degrade_to_a_miss_and_heal() {
    let (edge, combo) = netwide_outcomes();
    let bad_metrics = |rec: &mut Record| rec.put_str("metrics", "{\"kind\":\"sketch\"}\n");
    check_mangled_record_heals("mangled-edge", || edge.clone(), bad_metrics);
    check_mangled_record_heals("mangled-combo", || combo.clone(), bad_metrics);
}

/// A checksum-valid record whose stored member or shard count is huge
/// must be a miss that re-runs and heals. Decoding allocates nothing
/// from the count: a `Vec::with_capacity(2^40)` would abort the
/// process, which no sweep isolation can catch.
#[test]
fn huge_outcome_counts_degrade_to_a_miss_and_heal() {
    let (edge, combo) = netwide_outcomes();
    for count in [1u64 << 40, u64::MAX] {
        let shards = |rec: &mut Record| rec.put_u64("shards", count);
        let edges = |rec: &mut Record| rec.put_u64("edges", count);
        check_mangled_record_heals(
            &format!("huge-edge-shards-{count}"),
            || edge.clone(),
            shards,
        );
        check_mangled_record_heals(
            &format!("huge-combo-shards-{count}"),
            || combo.clone(),
            shards,
        );
        check_mangled_record_heals(
            &format!("huge-combo-edges-{count}"),
            || combo.clone(),
            edges,
        );
    }
}
