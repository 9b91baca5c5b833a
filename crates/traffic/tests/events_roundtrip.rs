//! Compiled-trace pipeline: round-trip exactness and reader failure
//! modes.
//!
//! The replay path is only sound if `read(compile(trace))` is the
//! *same trace* — flow schedule, prefix ranks, and weight vector all
//! bit-identical — and only safe if every way a `.events` file can go
//! bad (bit flips, truncation, foreign files, future versions) turns
//! into a typed [`EventsError`], never a panic.

use proptest::prelude::*;

use fancy_sim::SimDuration;
use fancy_traffic::events::{
    compile, encode, fnv1a64, EventsError, EVENTS_HEADER_BYTES, EVENTS_TRAILER_BYTES,
    EVENTS_VERSION,
};
use fancy_traffic::{paper_traces, synthesize, EventsReader, SyntheticTrace};

fn small_trace(seed: u64) -> SyntheticTrace {
    synthesize(paper_traces()[0], SimDuration::from_secs(3), 0.003, seed)
}

/// Re-checksum a frame after mutating its body, so a test reaches the
/// validation stage *past* the checksum check.
fn reseal(mut frame: Vec<u8>) -> Vec<u8> {
    let body = frame.len() - EVENTS_TRAILER_BYTES;
    let sum = fnv1a64(&frame[..body]);
    frame[body..].copy_from_slice(&sum.to_le_bytes());
    frame
}

#[test]
fn compile_then_read_reproduces_the_trace_exactly() {
    let trace = small_trace(0xC0FFEE);
    let dir = std::env::temp_dir().join(format!("fancy-events-rt-{}", std::process::id()));
    let path = dir.join("t1.events");
    let compiled = compile(&trace, &path).expect("compile");
    assert_eq!(compiled.flows as usize, trace.flows.len());
    assert_eq!(compiled.prefixes as usize, trace.prefixes_by_rank.len());

    let reader = EventsReader::open(&path).expect("open");
    assert_eq!(reader.flow_count(), trace.flows.len());
    assert_eq!(reader.checksum(), compiled.checksum);
    assert_eq!(reader.file_len(), compiled.bytes);
    assert!(reader.params_match(&trace.spec, trace.duration, trace.scale, trace.seed));

    // Streaming accessors agree with the source, element for element.
    assert!(reader.flows().eq(trace.flows.iter().cloned()));
    assert!(reader.prefixes().eq(trace.prefixes_by_rank.iter().copied()));

    // Full materialization: every field bit-identical, weights included
    // (they are recomputed from stored inputs by a pure function).
    let back = reader.to_trace();
    assert_eq!(back.flows, trace.flows);
    assert_eq!(back.prefixes_by_rank, trace.prefixes_by_rank);
    assert_eq!(back.seed, trace.seed);
    assert_eq!(back.duration, trace.duration);
    assert_eq!(back.scale.to_bits(), trace.scale.to_bits());
    assert_eq!(
        back.spec.name, trace.spec.name,
        "known spec resolves its name"
    );
    assert_eq!(back.weights.len(), trace.weights.len());
    for (a, b) in back.weights.iter().zip(&trace.weights) {
        assert_eq!(a.to_bits(), b.to_bits(), "weights must be bit-identical");
    }

    // Re-encoding the materialized trace reproduces the file bytes —
    // the `verify` subcommand of the trace_compile example relies on
    // this being exact.
    let original = std::fs::read(&path).expect("read file");
    assert_eq!(encode(&back).expect("re-encode"), original);
    std::fs::remove_file(&path).ok();
}

#[test]
fn different_seeds_produce_different_checksums() {
    let a = encode(&small_trace(1)).unwrap();
    let b = encode(&small_trace(2)).unwrap();
    assert_ne!(fnv1a64(&a), fnv1a64(&b));
}

#[test]
fn bad_magic_is_a_typed_error() {
    let mut frame = encode(&small_trace(3)).unwrap();
    frame[0] ^= 0xFF;
    assert!(matches!(
        EventsReader::from_bytes(frame),
        Err(EventsError::BadMagic)
    ));
    // A completely foreign file (e.g. JSON) is also just BadMagic.
    assert!(matches!(
        EventsReader::from_bytes(b"{\"not\": \"events\"}".to_vec()),
        Err(EventsError::BadMagic)
    ));
    // So is an empty file.
    assert!(matches!(
        EventsReader::from_bytes(Vec::new()),
        Err(EventsError::BadMagic)
    ));
}

#[test]
fn future_version_is_a_typed_error() {
    let mut frame = encode(&small_trace(4)).unwrap();
    frame[8..12].copy_from_slice(&(EVENTS_VERSION + 1).to_le_bytes());
    match EventsReader::from_bytes(frame) {
        Err(EventsError::UnsupportedVersion { found }) => {
            assert_eq!(found, EVENTS_VERSION + 1);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let frame = encode(&small_trace(5)).unwrap();
    // Cut at each structurally interesting point: mid-magic, mid-header,
    // exactly at the header, mid-prefix-table, mid-records, and one byte
    // short of complete.
    let cuts = [
        4,
        10,
        EVENTS_HEADER_BYTES - 1,
        EVENTS_HEADER_BYTES,
        EVENTS_HEADER_BYTES + 2,
        frame.len() / 2,
        frame.len() - EVENTS_TRAILER_BYTES,
        frame.len() - 1,
    ];
    for cut in cuts {
        let short = frame[..cut].to_vec();
        match EventsReader::from_bytes(short) {
            Err(EventsError::Truncated { expected, got }) => {
                assert_eq!(got, cut as u64, "cut at {cut}");
                assert!(expected > got, "cut at {cut}");
            }
            Err(EventsError::BadMagic) if cut < 8 => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn trailing_garbage_is_a_typed_error() {
    let mut frame = encode(&small_trace(6)).unwrap();
    let expected = frame.len() as u64;
    frame.extend_from_slice(b"junk");
    match EventsReader::from_bytes(frame) {
        Err(EventsError::TrailingGarbage { expected: e, got }) => {
            assert_eq!(e, expected);
            assert_eq!(got, expected + 4);
        }
        other => panic!("expected TrailingGarbage, got {other:?}"),
    }
}

#[test]
fn hostile_record_counts_cannot_overflow() {
    // A header claiming u64::MAX flows must fail as Malformed (the
    // structural length would overflow), not panic or allocate.
    let mut frame = encode(&small_trace(7)).unwrap();
    frame[96..104].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        EventsReader::from_bytes(frame),
        Err(EventsError::Malformed(_))
    ));
}

#[test]
fn crafted_bad_zipf_exponent_is_rejected_not_panicking() {
    // A resealed frame with a NaN exponent passes the checksum but
    // must still be rejected: Zipf::new would assert inside to_trace.
    let mut frame = encode(&small_trace(8)).unwrap();
    frame[48..56].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    assert!(matches!(
        EventsReader::from_bytes(reseal(frame)),
        Err(EventsError::Malformed(_))
    ));
}

#[test]
fn mixed_rto_schedules_refuse_to_compile() {
    let mut trace = small_trace(9);
    assert!(trace.flows.len() >= 2);
    std::sync::Arc::make_mut(&mut trace.flows)[1]
        .cfg
        .initial_rto = SimDuration::from_millis(123);
    match encode(&trace) {
        Err(EventsError::MixedRto { flow }) => assert_eq!(flow, 1),
        other => panic!("expected MixedRto, got {other:?}"),
    }
}

#[test]
fn open_missing_file_is_a_typed_io_error() {
    let err = EventsReader::open(std::path::Path::new("/nonexistent/dir/x.events"))
        .expect_err("must fail");
    assert!(matches!(err, EventsError::Io { .. }));
    // Errors render without panicking and carry the path.
    assert!(err.to_string().contains("x.events"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any single bit flip anywhere in the frame yields a typed error —
    /// never a panic, and never a silently accepted frame. (A flip in
    /// the body trips the checksum; a flip in the trailer mismatches
    /// the body; flips in the magic/version/count fields trip their
    /// dedicated checks first.)
    #[test]
    fn any_single_bit_flip_yields_a_typed_error(
        offset_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let frame = encode(&small_trace(10)).unwrap();
        let offset = ((frame.len() as f64 * offset_frac) as usize).min(frame.len() - 1);
        let mut bad = frame;
        bad[offset] ^= 1u8 << bit;
        prop_assert!(EventsReader::from_bytes(bad).is_err(), "flip at byte {offset} bit {bit}");
    }

    /// Any truncation point yields a typed error, never a panic.
    #[test]
    fn any_truncation_yields_a_typed_error(cut_frac in 0.0f64..1.0) {
        let frame = encode(&small_trace(11)).unwrap();
        let cut = ((frame.len() as f64 * cut_frac) as usize).min(frame.len() - 1);
        let err = EventsReader::from_bytes(frame[..cut].to_vec());
        prop_assert!(
            matches!(err, Err(EventsError::Truncated { .. }) | Err(EventsError::BadMagic)),
            "cut at {cut}: {err:?}"
        );
    }
}
