//! Compile, inspect, and verify `.events` trace files — the CLI face
//! of the compiled binary trace pipeline.
//!
//! ```sh
//! # Lower one Table-5 synthesis to a .events file (canonical name):
//! cargo run --release --example trace_compile -- compile \
//!     --trace 1 --scale 0.004 --secs 6 --seed 7 --dir /tmp/traces
//!
//! # Print a file's header, counts, and checksum:
//! cargo run --release --example trace_compile -- inspect --file /tmp/traces/caida1-*.events
//!
//! # Re-synthesize from the stored parameters and byte-compare:
//! cargo run --release --example trace_compile -- verify --file /tmp/traces/caida1-*.events
//!
//! # Tiny Table-3 sweep whose rows dump as bit-exact JSONL (floats as
//! # f64 bit patterns) — the CI gate byte-diffs this output between the
//! # in-process and compiled-replay paths (FANCY_TRACE_DIR):
//! cargo run --release --example trace_compile -- smoke --dump /tmp/rows.jsonl
//! ```
//!
//! `smoke` honors `FANCY_TRACE_DIR` (compile once, replay everywhere),
//! `FANCY_THREADS`, and `FANCY_CACHE_DIR` like every other harness, and
//! prints how many in-process synthesis runs the sweep needed — 0 on a
//! warm trace directory.
//!
//! A malformed command line (unknown subcommand, an unknown or repeated
//! flag, a missing flag or value, `--out` with `--dir`, an unparsable or
//! out-of-range number) prints usage and exits 2 before any work; a file
//! that cannot be read or written, or fails validation, exits 1.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fancy_bench::caida_exp::{run_table3_with, Table3Row};
use fancy_bench::prelude::*;
use fancy_bench::tracefile::trace_file_name;
use fancy_sim::SimDuration;
use fancy_traffic::events::compile;
use fancy_traffic::{encode, paper_traces, synthesis_count, synthesize, EventsReader};

const USAGE: &str = "usage: trace_compile compile [--trace 1-4] [--scale (0,1]] [--secs S] \
                     [--seed N] [--out FILE | --dir DIR]
       trace_compile inspect --file FILE.events
       trace_compile verify --file FILE.events
       trace_compile smoke [--dump FILE]";

/// Each subcommand returns `Err` for a malformed command line (usage,
/// exit 2) and `Ok` with its exit code otherwise.
fn main() -> ExitCode {
    let cmd = std::env::args().nth(1).unwrap_or_default();
    let run = match cmd.as_str() {
        "compile" => cmd_compile(),
        "inspect" => cmd_inspect(),
        "verify" => cmd_verify(),
        "smoke" => cmd_smoke(),
        other => Err(format!("unknown subcommand {other:?}")),
    };
    run.unwrap_or_else(|e| {
        eprintln!("trace_compile: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

fn cmd_compile() -> Result<ExitCode, String> {
    let flags = Flags::parse(
        std::env::args().skip(2),
        &["--trace", "--scale", "--secs", "--seed", "--out", "--dir"],
    )?;
    let (out, dir) = (flags.get("--out"), flags.get("--dir"));
    if out.is_some() && dir.is_some() {
        return Err("--out and --dir are exclusive".to_owned());
    }
    let id: u8 = flags.value_or("--trace", 1)?;
    let scale: f64 = flags.value_or("--scale", 0.004)?;
    let secs: f64 = flags.value_or("--secs", 6.0)?;
    let seed: u64 = flags.value_or("--seed", 7)?;
    let Some(spec) = paper_traces().into_iter().find(|t| t.id == id) else {
        return Err(format!("no Table-5 trace with id {id} (expected 1-4)"));
    };
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("--scale must be in (0, 1], got {scale}"));
    }
    if !(secs.is_finite() && secs > 0.0) {
        return Err(format!("--secs must be a positive number, got {secs}"));
    }
    let duration = SimDuration::from_secs_f64(secs);
    let path = match out {
        Some(p) => PathBuf::from(p),
        None => {
            PathBuf::from(dir.unwrap_or(".")).join(trace_file_name(&spec, duration, scale, seed))
        }
    };
    let trace = synthesize(spec, duration, scale, seed);
    Ok(match compile(&trace, &path) {
        Ok(c) => {
            println!(
                "compiled trace {id} ({}) at scale {scale} over {secs}s, seed {seed}:",
                spec.name
            );
            println!(
                "  {} — {} bytes, {} flows, {} prefixes, checksum {:#018x}",
                c.path.display(),
                c.bytes,
                c.flows,
                c.prefixes,
                c.checksum
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_compile: {e}");
            ExitCode::FAILURE
        }
    })
}

/// The `--file` path, the subcommand's only flag (`Err` when it is not
/// given).
fn file_flag() -> Result<PathBuf, String> {
    let flags = Flags::parse(std::env::args().skip(2), &["--file"])?;
    let path = flags
        .get("--file")
        .ok_or("--file <path.events> is required")?;
    Ok(PathBuf::from(path))
}

/// `path`'s bytes (read once) and the frame they hold.
fn open_events(path: &Path) -> Result<(Vec<u8>, EventsReader), ExitCode> {
    let bytes = std::fs::read(path).map_err(|e| {
        eprintln!("trace_compile: cannot read {}: {e}", path.display());
        ExitCode::FAILURE
    })?;
    match EventsReader::from_bytes(bytes.clone()) {
        Ok(r) => Ok((bytes, r)),
        Err(e) => {
            eprintln!("trace_compile: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_inspect() -> Result<ExitCode, String> {
    let path = file_flag()?;
    let (_, r) = match open_events(&path) {
        Ok(v) => v,
        Err(code) => return Ok(code),
    };
    let spec = r.spec();
    println!("{} — valid .events frame", path.display());
    println!("  spec:      {} ({})", spec.id, spec.name);
    println!(
        "  rates:     {} bps, {} pps, {} fps, {} prefixes, zipf {}",
        spec.bit_rate_bps, spec.pkt_rate_pps, spec.flow_rate_fps, spec.prefixes, spec.zipf_s
    );
    println!(
        "  synthesis: scale {}, seed {:#x}, duration {}",
        r.scale(),
        r.seed(),
        r.duration()
    );
    println!("  rto:       {}", r.rto());
    println!(
        "  contents:  {} prefixes, {} flows, {} bytes, checksum {:#018x}",
        r.prefix_count(),
        r.flow_count(),
        r.file_len(),
        r.checksum()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify() -> Result<ExitCode, String> {
    let path = file_flag()?;
    let (on_disk, r) = match open_events(&path) {
        Ok(v) => v,
        Err(code) => return Ok(code),
    };
    // synthesize() rejects scales outside (0, 1] with a panic; a frame
    // claiming one cannot have come from our synthesizer.
    let scale = r.scale();
    if !(scale > 0.0 && scale <= 1.0) {
        eprintln!("verify FAILED: stored scale {scale} is outside (0, 1]");
        return Ok(ExitCode::FAILURE);
    }
    let resynth = synthesize(r.spec(), r.duration(), scale, r.seed());
    let frame = encode(&resynth).expect("synthesized traces encode");
    Ok(if frame == on_disk {
        println!(
            "verify OK: {} reproduces bit-for-bit from (trace {}, scale {scale}, seed {:#x}, {})",
            path.display(),
            r.spec().id,
            r.seed(),
            r.duration()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "verify FAILED: re-synthesis differs from {} ({} vs {} bytes) — \
             the file was built by an incompatible synthesizer version",
            path.display(),
            frame.len(),
            on_disk.len()
        );
        ExitCode::FAILURE
    })
}

/// Dump rows as bit-exact JSONL: floats travel as `f64::to_bits`, so
/// two runs agree byte-for-byte iff they agree bit-for-bit.
fn rows_to_jsonl(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    for row in rows {
        let mut rec = Record::default();
        rec.put_f64("loss_pct", row.loss_pct);
        rec.put_f64("tpr_bytes", row.tpr_bytes);
        rec.put_f64("tpr_prefixes", row.tpr_prefixes);
        rec.put_f64("tpr_dedicated", row.tpr_dedicated);
        rec.put_f64("tpr_tree", row.tpr_tree);
        rec.put_f64("detection_s", row.detection_s);
        rec.put_f64("false_positives", row.false_positives);
        out.push_str(&rec.to_jsonl());
        out.push('\n');
    }
    out
}

fn cmd_smoke() -> Result<ExitCode, String> {
    let flags = Flags::parse(std::env::args().skip(2), &["--dump"])?;
    let dump = flags.get("--dump");
    // Fixed tiny scale and loss subset: the gate wants a fast,
    // deterministic fingerprint of the Table 3 path, not the table.
    let scale = Scale {
        reps: 1,
        duration: SimDuration::from_secs(6),
        multi_entries: 3,
        trace_scale: 0.004,
        trace_failures: 4,
        full: false,
    };
    let losses = [100.0, 10.0];
    let seed = 7;
    let env = BenchEnv::from_env();
    let synth_before = synthesis_count();
    let rows = match run_table3_with(&scale, seed, &losses, env.trace_dir.as_deref()) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("trace_compile smoke: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let synth_runs = synthesis_count() - synth_before;
    eprintln!(
        "smoke: {} rows, {synth_runs} in-process synthesis runs, trace dir {}",
        rows.len(),
        env.trace_dir
            .as_deref()
            .map_or("off".into(), |d: &Path| d.display().to_string()),
    );

    let jsonl = rows_to_jsonl(&rows);
    match dump {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &jsonl) {
                eprintln!("trace_compile smoke: cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            eprintln!("smoke: wrote {} bytes to {path}", jsonl.len());
        }
        None => print!("{jsonl}"),
    }
    Ok(ExitCode::SUCCESS)
}
