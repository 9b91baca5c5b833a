//! Unit costs of the hot data-plane paths the perf ledger has no row for
//! yet: LossRadar's IBF and the wire formats.
//!
//! Each cost is timed with the ledger's estimator (`Loop::ns_per_op` in
//! `benchmark/src/layers.rs`): a one-eighth warm-up, then the floor over
//! five batches of ns per call. Inputs a call consumes are built before
//! its batch's clock starts. One line per cost is printed.
//!
//! The other groups this bench once timed are ledger rows now:
//!
//! | group | ledger row |
//! |---|---|
//! | hash tree `tag_and_count` | `core.zoom.tag_and_count_ns` |
//! | hash tree `end_session_no_loss` | `core.zoom.end_session_ns` |
//! | counting FSM `full_session` | `core.fsm.session_roundtrip_ns` |
//! | simulator `event_queue_push_pop` | `sim.event.push_pop_near_ns` |
//! | trace synthesis `caida_1pct_10s` | `traffic.caida.synthesize_s` |
//!
//! The IBF and wire groups go too once the ledger has rows for them.

use std::hint::black_box;
use std::time::Instant;

use fancy_baselines::LossRadarMeter;
use fancy_net::{ControlBody, ControlMessage, FancyTag, SessionKind};

/// Timed batches per cost; the floor is reported.
const SAMPLES: usize = 5;

/// Prints the floor, over [`SAMPLES`] batches of `iters` calls, of ns per
/// `run` call, after `iters / 8` warm-up calls. Every call's input comes
/// from `setup`, all of a batch's inputs before its clock starts.
fn report_batched<S>(name: &str, iters: u64, mut setup: impl FnMut() -> S, mut run: impl FnMut(S)) {
    for _ in 0..iters / 8 {
        run(setup());
    }
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let inputs: Vec<S> = (0..iters).map(|_| setup()).collect();
        let start = Instant::now();
        for input in inputs {
            run(input);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    println!("{name:<40} {best:>12.1} ns");
}

/// [`report_batched`] for a call that takes no input.
fn report(name: &str, iters: u64, mut run: impl FnMut()) {
    report_batched(name, iters, || (), |()| run());
}

fn main() {
    let mut meter = LossRadarMeter::new(2048, 3, 1);
    let mut k = 0u64;
    report("lossradar_ibf/insert", 1_000_000, || {
        k += 1;
        meter.on_upstream(black_box(k));
        meter.on_downstream(black_box(k));
    });
    let lossy = || {
        let mut m = LossRadarMeter::new(2048, 3, 2);
        for k in 0..50_000u64 {
            m.on_upstream(k);
            if k >= 100 {
                m.on_downstream(k);
            }
        }
        m
    };
    report_batched(
        "lossradar_ibf/rotate_decode_100_losses",
        32,
        lossy,
        |mut m| {
            let _ = black_box(m.rotate());
        },
    );

    let msg = ControlMessage {
        kind: SessionKind::Tree,
        session_id: 9,
        body: ControlBody::Report(vec![0u32; 7 * 190]),
    };
    let bytes = msg.to_bytes();
    report("wire_formats/report_emit_5330B", 20_000, || {
        black_box(msg.to_bytes());
    });
    report("wire_formats/report_parse_5330B", 20_000, || {
        black_box(ControlMessage::parse(black_box(&bytes)).unwrap());
    });
    let mut buf = [0u8; 2];
    report("wire_formats/tag_emit_parse", 1_000_000, || {
        black_box(FancyTag::Tree { slot: 3, index: 42 }).emit(&mut buf);
        black_box(FancyTag::parse(black_box(&buf)).unwrap());
    });
}
