//! Golden-trace equivalence oracle for kernel refactors.
//!
//! The flight-recorder trace of a 32-cell sweep — every packet forward,
//! drop, FSM transition and detection, in order, with all fields — is
//! fingerprinted and compared against a fixture generated *before* the
//! event-core refactor (slab-pooled packets + two-lane scheduler).
//! A refactor that perturbs event ordering, RNG draw order, uid
//! assignment or any trace field by even one byte fails this test.
//!
//! The fixture records, per cell: the byte length and FNV-1a-64 digest
//! of the full JSONL trace, plus the observable scalar signature
//! (drops, detections, telemetry). It also records the aggregate sweep
//! telemetry at 1 and 8 threads, which must be identical to each other
//! and to the fixture.
//!
//! A mismatch is classified in the panic message. *Bookkeeping only*:
//! the lines differ in nothing but their `events=`/`timers=`/`qhw=`/
//! `thw=` tokens — how many events the kernel dispatched and how deep its
//! queue stood, i.e. how the scheduler was fed, not what was simulated.
//! *Behaviour*: anything else moved (trace bytes, drops, detections).
//!
//! Regenerate (only when an *intentional* change lands — and for a
//! speed-only change, only a bookkeeping-only mismatch) with:
//! `FANCY_BLESS=1 cargo test -p fancy-bench --test golden_equivalence`

use std::fmt::Write as _;
use std::path::Path;

use fancy_apps::{ScenarioError, ScenarioSpec};
use fancy_bench::runner::{CellCtx, Sweep, SweepReport};
use fancy_net::{fnv1a64, Prefix};
use fancy_sim::{GrayFailure, SharedRecorder, SimTime, TelemetryCounters};
use fancy_tcp::{FlowConfig, ScheduledFlow};

const CELLS: usize = 32;
const BASE_SEED: u64 = 0x601D_2024;

struct CellResult {
    trace_len: usize,
    trace_fnv: u64,
    gray_drops: u64,
    detections: usize,
    first_detection: Option<SimTime>,
    events_dispatched: u64,
    packets_forwarded: u64,
    control_drops: u64,
}

/// One cell: the same packet-level linear scenario shape as the
/// determinism test, but under the golden base seed.
fn run_cell(ctx: &CellCtx) -> Result<CellResult, ScenarioError> {
    let entry = Prefix(0x0A_40_00 + (ctx.seed % 64) as u32);
    let flows: Vec<ScheduledFlow> = (0..6u64)
        .map(|i| ScheduledFlow {
            start: SimTime(i * 300_000_000),
            dst: entry.host(1),
            cfg: FlowConfig::for_rate(2_000_000, 1.0),
        })
        .collect();
    let mut sc = ScenarioSpec::linear()
        .seed(ctx.seed)
        .flows(flows)
        .high_priority(vec![entry])
        .build()?;
    let recorder = SharedRecorder::new(1 << 16);
    sc.net.kernel.set_tracer(Box::new(recorder.clone()));
    let fail_at = SimTime(800_000_000 + (ctx.seed % 5) * 100_000_000);
    let loss = 0.3 + (ctx.seed % 7) as f64 * 0.1;
    sc.fail(GrayFailure::single_entry(entry, loss, fail_at));
    sc.net.run_until(SimTime(3_000_000_000));
    ctx.absorb(&sc.net);
    let t = sc.net.kernel.telemetry;
    assert_eq!(recorder.dropped(), 0, "trace ring overflowed");
    let trace = recorder.to_jsonl();
    Ok(CellResult {
        trace_len: trace.len(),
        trace_fnv: fnv1a64(trace.as_bytes()),
        gray_drops: sc.net.kernel.records.total_gray_drops(),
        detections: sc.net.kernel.records.detections.len(),
        first_detection: sc
            .net
            .kernel
            .records
            .first_entry_detection(entry)
            .map(|d| d.time),
        events_dispatched: t.events_dispatched,
        packets_forwarded: t.packets_forwarded,
        control_drops: t.control_drops,
    })
}

fn counters_line(label: &str, t: &TelemetryCounters) -> String {
    // Only the counters that predate the pool/lane refactor go into the
    // fixture: new counters get their own tests, the golden file pins
    // the paper-relevant observables.
    format!(
        "report {label} events={} arrivals={} timers={} qhw={} thw={} fwd={} gray={} ctrl={} cong={}\n",
        t.events_dispatched,
        t.packet_arrivals,
        t.timers_fired,
        t.queue_high_water,
        t.timer_high_water,
        t.packets_forwarded,
        t.packets_gray_dropped,
        t.control_drops,
        t.congestion_drops,
    )
}

/// Tokens that count scheduler work rather than simulated behaviour.
const BOOKKEEPING: [&str; 4] = ["events=", "timers=", "qhw=", "thw="];

/// `line` with the value of every bookkeeping token replaced by `*`.
fn mask_bookkeeping(line: &str) -> String {
    let mask = |tok: &str| match BOOKKEEPING.iter().find(|k| tok.starts_with(**k)) {
        Some(k) => format!("{k}*"),
        None => tok.to_owned(),
    };
    line.split(' ').map(mask).collect::<Vec<_>>().join(" ")
}

/// Panic with the mismatch classified, if `rendered` is not `golden`.
fn assert_matches_golden(rendered: &str, golden: &str) {
    if rendered == golden {
        return;
    }
    let (got, want): (Vec<&str>, Vec<&str>) =
        (rendered.lines().collect(), golden.lines().collect());
    assert_eq!(
        got.len(),
        want.len(),
        "golden mismatch — BEHAVIOUR: fixture line count differs"
    );
    let differing = || {
        got.iter()
            .zip(&want)
            .enumerate()
            .filter(|(_, (g, w))| g != w)
    };
    if let Some((n, (g, w))) =
        differing().find(|(_, (g, w))| mask_bookkeeping(g) != mask_bookkeeping(w))
    {
        panic!(
            "golden mismatch — BEHAVIOUR: line {} differs outside the {BOOKKEEPING:?} tokens \
             (trace bytes, drops or detections moved); do not bless\n  got: {g}\n want: {w}",
            n + 1
        );
    }
    let (n, (g, w)) = differing().next().expect("unequal texts differ in a line");
    panic!(
        "golden mismatch — bookkeeping only: {} line(s) differ, each only in its {BOOKKEEPING:?} \
         tokens (the masked diff is empty); re-bless with FANCY_BLESS=1 if the scheduler's feed \
         was meant to change\n first, line {}:\n  got: {g}\n want: {w}",
        differing().count(),
        n + 1
    );
}

fn render(cells: &[CellResult], report1: &SweepReport, report8: &SweepReport) -> String {
    let mut out = String::new();
    for (i, c) in cells.iter().enumerate() {
        let first = c
            .first_detection
            .map_or_else(|| "-".to_owned(), |t| t.as_nanos().to_string());
        let _ = writeln!(
            out,
            "cell {i:04} len={} fnv={:016x} gray={} det={} first={} events={} fwd={} ctrl={}",
            c.trace_len,
            c.trace_fnv,
            c.gray_drops,
            c.detections,
            first,
            c.events_dispatched,
            c.packets_forwarded,
            c.control_drops,
        );
    }
    out.push_str(&counters_line("threads=1", &report1.telemetry));
    out.push_str(&counters_line("threads=8", &report8.telemetry));
    out
}

#[test]
fn traces_match_pre_refactor_golden_run() -> Result<(), ScenarioError> {
    let sweep = |threads| {
        Sweep::new("golden", (0..CELLS).collect::<Vec<usize>>())
            .seed(BASE_SEED)
            .threads(threads)
            .try_run(|_, ctx| run_cell(ctx))
    };
    let (cells1, report1) = sweep(1)?;
    let (cells8, report8) = sweep(8)?;

    // Thread-count invariance of the full fingerprint, before any golden
    // comparison: the 8-thread run must reproduce the 1-thread traces.
    for (i, (a, b)) in cells1.iter().zip(&cells8).enumerate() {
        assert_eq!(
            a.trace_len, b.trace_len,
            "cell {i} trace length differs by thread count"
        );
        assert_eq!(
            a.trace_fnv, b.trace_fnv,
            "cell {i} trace bytes differ by thread count"
        );
    }

    let rendered = render(&cells1, &report1, &report8);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep32.golden");
    if std::env::var("FANCY_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden fixture");
        eprintln!("blessed {} ({} bytes)", path.display(), rendered.len());
        return Ok(());
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); generate with FANCY_BLESS=1",
            path.display()
        )
    });
    assert_matches_golden(&rendered, &golden);

    // The corpus is non-trivial: failures, detections and control traffic
    // all happened, so byte-identity of the traces is meaningful.
    assert!(cells1.iter().any(|c| c.gray_drops > 0));
    assert!(cells1.iter().any(|c| c.detections > 0));
    assert!(cells1.iter().all(|c| c.trace_len > 0));
    Ok(())
}

#[test]
fn golden_mismatch_is_classified() {
    let verdict = |got: &str, want: &str| {
        let (got, want) = (got.to_owned(), want.to_owned());
        let panic = std::panic::catch_unwind(move || assert_matches_golden(&got, &want))
            .expect_err("unequal texts must panic");
        *panic.downcast::<String>().expect("formatted panic message")
    };
    let golden = "cell 0000 len=10 fnv=ab gray=1 events=9 fwd=2\nreport events=9 timers=4 qhw=3 thw=2 fwd=2\n";
    assert_matches_golden(golden, golden);
    let fewer_timers = "cell 0000 len=10 fnv=ab gray=1 events=7 fwd=2\nreport events=7 timers=2 qhw=2 thw=1 fwd=2\n";
    assert!(verdict(fewer_timers, golden).contains("bookkeeping only: 2 line(s)"));
    let other_bytes = fewer_timers.replace("fnv=ab", "fnv=cd");
    assert!(verdict(&other_bytes, golden).contains("BEHAVIOUR: line 1"));
    let other_fwd = golden.replace("thw=2 fwd=2", "thw=2 fwd=3");
    assert!(verdict(&other_fwd, golden).contains("BEHAVIOUR: line 2"));
    assert!(verdict("cell 0000\n", golden).contains("BEHAVIOUR: fixture line count"));
}
