//! Fault injection must not cost determinism (ISSUE 4 acceptance): a
//! 32-cell sweep where every cell runs a full packet-level scenario
//! under a seeded `FaultPlan` (bursty loss, control-plane drops, wire
//! duplication and reordering) produces bit-identical traces and
//! telemetry across a hand-rolled serial loop, a 1-thread sweep and an
//! 8-thread sweep. The chaos RNG lives inside the plan, seeded from the
//! cell seed — never from scheduling.
//!
//! Duplicated and reordered packets are exactly the arrivals the event
//! queue cannot file in their link's channel, so the same sweep is also
//! pinned to `tests/golden/chaos32.golden`: per cell, the trace's length
//! and FNV-1a-64 plus the chaos and detection counters, generated before
//! the per-link arrival channels existed. Regenerate (only for an
//! intentional behaviour change) with
//! `FANCY_BLESS=1 cargo test -p fancy-bench --test chaos_determinism`.

use std::fmt::Write as _;
use std::path::Path;

use fancy_apps::{ScenarioError, ScenarioSpec};
use fancy_bench::runner::{CellCtx, Sweep};
use fancy_net::{fnv1a64, Prefix};
use fancy_sim::{
    FaultPlan, FaultStage, FaultTarget, GrayFailure, SharedRecorder, SimDuration, SimTime,
};
use fancy_tcp::{FlowConfig, ScheduledFlow};

const CELLS: usize = 32;
const BASE_SEED: u64 = 0xC4A0_5FA7;

#[derive(Debug, Clone, PartialEq, Eq)]
struct Signature {
    chaos_drops: u64,
    chaos_dups: u64,
    chaos_reorders: u64,
    chaos_control_faults: u64,
    gray_drops: u64,
    detections: usize,
    events_dispatched: u64,
    trace: String,
}

/// One cell: a linear scenario with a gray failure *and* a per-cell
/// chaos cocktail whose every parameter derives from the cell seed.
fn run_cell(ctx: &CellCtx) -> Result<Signature, ScenarioError> {
    let entry = Prefix(0x0A_60_00 + (ctx.seed % 64) as u32);
    let flows: Vec<ScheduledFlow> = (0..5u64)
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
    let recorder = SharedRecorder::new(1 << 17);
    sc.net.kernel.set_tracer(Box::new(recorder.clone()));

    // Gray failure under test.
    let fail_at = SimTime(700_000_000 + (ctx.seed % 4) * 150_000_000);
    sc.fail(GrayFailure::single_entry(entry, 0.5, fail_at));
    let (core_link, s1, s2) = {
        let core = sc.monitored_edge();
        (core.link, core.a, core.b)
    };

    // Chaos on top: bursty data loss + light control loss forward,
    // duplication + reordering on the return path.
    let p_ctl = 0.02 + (ctx.seed % 5) as f64 * 0.01;
    sc.net.kernel.add_fault_plan(
        core_link,
        s1,
        FaultPlan::new(ctx.seed ^ 0xF0F0)
            .stage(FaultStage::new(FaultTarget::Data).gilbert_elliott(0.01, 0.3, 0.0, 0.8))
            .stage(FaultStage::new(FaultTarget::Control(None)).bernoulli(p_ctl)),
    );
    sc.net.kernel.add_fault_plan(
        core_link,
        s2,
        FaultPlan::new(ctx.seed ^ 0x0F0F).stage(
            FaultStage::new(FaultTarget::All).duplicate(0.05).reorder(
                0.05,
                SimDuration::from_micros(30),
                SimDuration::from_millis(1),
            ),
        ),
    );

    sc.net.run_until(SimTime(3_000_000_000));
    ctx.absorb(&sc.net);
    assert_eq!(recorder.dropped(), 0, "ring must hold the full trace");
    let t = &sc.net.kernel.telemetry;
    Ok(Signature {
        chaos_drops: t.chaos_drops,
        chaos_dups: t.chaos_dups,
        chaos_reorders: t.chaos_reorders,
        chaos_control_faults: t.chaos_control_faults,
        gray_drops: sc.net.kernel.records.total_gray_drops(),
        detections: sc.net.kernel.records.detections.len(),
        events_dispatched: t.events_dispatched,
        trace: recorder.to_jsonl(),
    })
}

/// One line per cell: everything the golden pins.
fn render(cells: &[Signature]) -> String {
    let mut out = String::new();
    for (i, s) in cells.iter().enumerate() {
        let _ = writeln!(
            out,
            "cell {i:04} len={} fnv={:016x} drops={} dups={} reorders={} ctl={} gray={} det={}",
            s.trace.len(),
            fnv1a64(s.trace.as_bytes()),
            s.chaos_drops,
            s.chaos_dups,
            s.chaos_reorders,
            s.chaos_control_faults,
            s.gray_drops,
            s.detections,
        );
    }
    out
}

#[test]
fn fault_injected_sweep_is_bit_identical_across_thread_counts() -> Result<(), ScenarioError> {
    let sweep = Sweep::new("chaos-determinism", (0..CELLS).collect::<Vec<usize>>()).seed(BASE_SEED);

    let mut reference = Vec::with_capacity(CELLS);
    for index in 0..CELLS {
        reference.push(run_cell(&CellCtx::detached(sweep.cell_seed(index)))?);
    }

    let (one_thread, report1) = sweep.threads(1).try_run(|_, ctx| run_cell(ctx))?;
    assert_eq!(
        reference, one_thread,
        "1-thread chaos sweep must match the serial loop"
    );

    let sweep = Sweep::new("chaos-determinism", (0..CELLS).collect::<Vec<usize>>()).seed(BASE_SEED);
    let (eight_threads, report8) = sweep.threads(8).try_run(|_, ctx| run_cell(ctx))?;
    assert_eq!(
        reference, eight_threads,
        "8-thread chaos sweep must match the serial loop"
    );

    // The chaos layer really fired in this workload — bit-identity over
    // all-zero counters would prove nothing.
    assert!(
        reference.iter().any(|s| s.chaos_drops > 0),
        "no chaos drops anywhere"
    );
    assert!(
        reference.iter().any(|s| s.chaos_dups > 0),
        "no duplications anywhere"
    );
    assert!(
        reference.iter().any(|s| s.chaos_reorders > 0),
        "no reorders anywhere"
    );
    assert!(
        reference.iter().any(|s| s.chaos_control_faults > 0),
        "no control faults"
    );
    assert!(
        reference.iter().any(|s| s.detections > 0),
        "nothing was detected"
    );
    assert!(reference
        .iter()
        .all(|s| s.trace.contains("\"ev\":\"chaos\"")));

    // Aggregated chaos telemetry is scheduling-independent too.
    assert_eq!(report1.telemetry, report8.telemetry);
    assert!(report1.telemetry.chaos_drops > 0);
    assert!(report1.summary().contains("chaos"));

    // And it is the parent's: the reorder and duplicate schedules are
    // checked against a fixed fixture, not only against themselves.
    let rendered = render(&reference);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/chaos32.golden");
    if std::env::var("FANCY_BLESS").is_ok() {
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
    for (n, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "chaos golden: line {} moved", n + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        golden.lines().count(),
        "chaos golden: cell count differs"
    );
    Ok(())
}
