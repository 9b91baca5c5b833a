//! Output: `workload metric value unit` lines, the stamped result file
//! (`--out`), the span file (`--trace-out`), and the one-line JSON
//! summary an automated driver reads from the end of stdout.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::host::Sample;
use crate::json::{self, Json};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::run::{Plan, WorkloadResult};
use crate::span;
use crate::stats;
use crate::workloads::Env;

/// The `[profile.release]` table of the manifest that built this binary,
/// as `key = value` pairs (opt-level is Cargo's release default unless
/// the table says otherwise).
fn profile_flags() -> BTreeMap<String, Json> {
    let manifest = include_str!("../Cargo.toml");
    let mut flags = BTreeMap::from([("opt-level".to_owned(), Json::Str("3".to_owned()))]);
    let table = manifest
        .split("[profile.release]")
        .nth(1)
        .unwrap_or("")
        .lines()
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['));
    for line in table {
        if let Some((k, v)) = line.split_once('=') {
            if !k.trim_start().starts_with('#') {
                flags.insert(
                    k.trim().to_owned(),
                    Json::Str(v.trim().trim_matches('"').to_owned()),
                );
            }
        }
    }
    flags
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Where and how the numbers were produced.
pub fn stamp(plan: &Plan, env: &Env) -> Json {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    // Outside a git checkout (an exported tree) there is no commit to name.
    let commit =
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_owned());
    Json::obj([
        ("cpus", Json::Num(cpus as f64)),
        ("rustc", Json::Str(env!("FANCY_BENCHMARK_RUSTC").to_owned())),
        ("profile", Json::Obj(profile_flags())),
        ("kernel", Json::Str(kernel)),
        ("git_commit", Json::Str(commit)),
        ("seed", Json::Str(env.seed.to_string())),
        ("seconds", Json::Num(plan.seconds)),
        ("sharded_workers", Json::Num(env.workers as f64)),
    ])
}

fn summary_json(samples: &[Sample]) -> Json {
    let values: Vec<f64> = samples.iter().map(|s| s.secs).collect();
    let s = stats::summarize(&values);
    Json::obj([
        ("n", Json::Num(s.n as f64)),
        ("min", Json::Num(s.min)),
        ("q1", Json::Num(s.q1)),
        ("median", Json::Num(s.median)),
        ("q3", Json::Num(s.q3)),
        ("max", Json::Num(s.max)),
        // In run order: shows how long the host's slow spells last, and
        // which samples the hypervisor stole time from.
        (
            "values",
            Json::Arr(values.iter().copied().map(Json::Num).collect()),
        ),
        (
            "stolen",
            Json::Arr(samples.iter().map(|s| Json::Num(s.stolen)).collect()),
        ),
    ])
}

/// The end-to-end values of one workload, in dictionary order.
pub fn end_to_end(r: &WorkloadResult) -> Vec<(&'static MetricDef, f64)> {
    let values = [r.wall_s(), r.setup_s(), r.peak_heap_mb, r.ledger.ok_frac()];
    END_TO_END.iter().zip(values).collect()
}

/// Every per-layer metric of one workload; 0 where the workload never
/// exercises the layer (see README, "Which workload reports what").
pub fn per_layer(r: &WorkloadResult) -> Vec<(&'static MetricDef, f64)> {
    PER_LAYER
        .iter()
        .map(|m| (m, r.layers.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

fn metric_map(pairs: &[(&'static MetricDef, f64)]) -> Json {
    Json::obj(pairs.iter().map(|(m, v)| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(*v)),
                ("unit", Json::Str(m.unit.to_owned())),
            ]),
        )
    }))
}

pub fn digest_hex(r: &WorkloadResult) -> String {
    r.ledger
        .digest
        .map_or_else(|| "none".to_owned(), |d| format!("{d:#018x}"))
}

pub fn print_lines(results: &[WorkloadResult], traced: bool) {
    for r in results {
        let w = &r.name;
        for (m, v) in end_to_end(r) {
            println!("{w} {} {v} {}", m.name, m.unit);
        }
        println!("{w} sim_digest {} hash", digest_hex(r));
        println!("{w} sim_events {} count", r.ledger.events);
        let s = stats::summarize(&r.rep_times());
        println!("{w} wall_s.median {} s", s.median);
        println!("{w} wall_s.reps {} count", s.n);
        let stolen = r.rep_samples.iter().filter(|s| s.stolen > 0.0).count();
        println!("{w} wall_s.reps_stolen_from {stolen} count");
        if traced {
            // Only what this workload exercises; the result file and the
            // driver line carry the zero-filled full set.
            for m in &PER_LAYER {
                if let Some(v) = r.layers.get(m.name) {
                    println!("{w} {} {v} {}", m.name, m.unit);
                }
            }
        }
        for p in &r.ledger.problems {
            eprintln!("# {w}: {p}");
        }
    }
}

pub fn result_file(plan: &Plan, env: &Env, results: &[WorkloadResult]) -> Json {
    let workloads = results.iter().map(|r| {
        let mut fields = vec![
            ("sim_digest", Json::Str(digest_hex(r))),
            ("attempted", Json::Num(f64::from(r.ledger.attempted))),
            ("failed", Json::Num(f64::from(r.ledger.failed))),
            (
                "problems",
                Json::Arr(r.ledger.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("end_to_end", metric_map(&end_to_end(r))),
            ("rep_times_s", summary_json(&r.rep_samples)),
            ("setup_times_s", summary_json(&r.setup_samples)),
        ];
        if plan.trace {
            fields.push(("per_layer", metric_map(&per_layer(r))));
        }
        (r.name.clone(), Json::obj(fields))
    });
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("stamp", stamp(plan, env)),
        ("workloads", Json::obj(workloads)),
    ])
}

pub fn span_file(results: &[WorkloadResult]) -> Json {
    Json::obj(
        results
            .iter()
            .map(|r| (r.name.clone(), span::to_json(&r.spans))),
    )
}

/// Read a span file back and make sure it says what was recorded: same
/// spans, and self times consistent with the parent links.
pub fn check_span_file(path: &Path, results: &[WorkloadResult]) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot re-read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for r in results {
        let section = doc
            .get(&r.name)
            .ok_or_else(|| format!("{}: no spans for {}", path.display(), r.name))?;
        let back =
            span::check(section).map_err(|e| format!("{}: {}: {e}", path.display(), r.name))?;
        if back != r.spans {
            return Err(format!(
                "{}: spans of {} changed on the way to disk",
                path.display(),
                r.name
            ));
        }
    }
    Ok(())
}

pub fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The last line of stdout: `correct`, `attempted`, `failed`, `metrics`.
/// One workload: bare metric names (end-to-end without `--trace`,
/// per-layer with it). Several: names prefixed `workload/`.
pub fn driver_line(results: &[WorkloadResult], traced: bool) -> String {
    let attempted: u32 = results.iter().map(|r| r.ledger.attempted).sum();
    let failed: u32 = results.iter().map(|r| r.ledger.failed).sum();
    let mut metrics = BTreeMap::new();
    for r in results {
        let pairs = if traced { per_layer(r) } else { end_to_end(r) };
        for (m, v) in pairs {
            let name = if results.len() == 1 {
                m.name.to_owned()
            } else {
                format!("{}/{}", r.name, m.name)
            };
            let entry = Json::obj([
                ("value", Json::Num(v)),
                ("unit", Json::Str(m.unit.to_owned())),
            ]);
            metrics.insert(name, entry);
        }
    }
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(f64::from(attempted.max(1)))),
        ("failed", Json::Num(f64::from(failed))),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_flags_quote_the_manifest() {
        let flags = profile_flags();
        for key in ["opt-level", "lto", "codegen-units", "debug"] {
            assert!(flags.contains_key(key), "stamp lacks profile flag {key}");
        }
        assert_eq!(flags["lto"], Json::Str("thin".to_owned()));
    }
}
