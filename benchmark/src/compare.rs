//! `--compare A.json B.json`: B against baseline A, every (workload,
//! end-to-end metric) pair with its bound, plus the checks that need no
//! tolerance — `sim_digest` and the exact-count per-layer metrics.

use crate::json::{self, Json};
use crate::metrics::{Better, MetricDef, END_TO_END, PER_LAYER};

#[derive(Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Signed share of `a` by which `b` is worse (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub ok: bool,
}

/// Share of `a` by which `b` is worse, in the metric's own direction.
fn worse_by(m: &MetricDef, a: f64, b: f64) -> f64 {
    let delta = match m.better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    delta / a.abs()
}

fn value(workload: &Json, section: &str, metric: &str) -> Option<f64> {
    workload.get(section)?.get(metric)?.get("value")?.as_f64()
}

/// Stamp fields two files must share for their numbers to be comparable:
/// the inputs (seed), and what `backbone_sharded`'s floor depends on
/// besides the code (worker threads, and the CPUs they ran on).
const SAME_STAMP: [&str; 3] = ["seed", "cpus", "sharded_workers"];

/// Compare two parsed result files. Returns the table rows and the
/// list of hard mismatches (stamps, digests, exact counts, missing data).
pub fn compare(a: &Json, b: &Json) -> Result<(Vec<Row>, Vec<String>), String> {
    let wa = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("A has no workloads")?;
    let wb = b
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("B has no workloads")?;
    let mut rows = Vec::new();
    let mut mismatches = Vec::new();
    for field in SAME_STAMP {
        let stamped = |doc: &Json| doc.get("stamp")?.get(field).cloned();
        let (sa, sb) = (stamped(a), stamped(b));
        if sa != sb || sa.is_none() {
            mismatches.push(format!("stamp.{field}: {sa:?} vs {sb:?}"));
        }
    }
    for (name, ra) in wa {
        let Some(rb) = wb.get(name) else {
            mismatches.push(format!("{name}: missing from B"));
            continue;
        };
        for m in &END_TO_END {
            match (
                value(ra, "end_to_end", m.name),
                value(rb, "end_to_end", m.name),
            ) {
                (Some(va), Some(vb)) => {
                    let worse = worse_by(m, va, vb);
                    rows.push(Row {
                        workload: name.clone(),
                        metric: m.name,
                        a: va,
                        b: vb,
                        worse_by: worse,
                        bound: m.bound,
                        ok: worse <= m.bound,
                    });
                }
                _ => mismatches.push(format!("{name}: {} missing or not a number", m.name)),
            }
        }
        let digest = |r: &Json| {
            r.get("sim_digest")
                .and_then(Json::as_str)
                .map(str::to_owned)
        };
        let (da, db) = (digest(ra), digest(rb));
        if da != db || da.is_none() {
            mismatches.push(format!("{name}: sim_digest {da:?} vs {db:?}"));
        }
        // Counts repeat exactly for one seed, so any difference is real.
        for m in PER_LAYER.iter().filter(|m| m.unit == "count") {
            if let (Some(va), Some(vb)) = (
                value(ra, "per_layer", m.name),
                value(rb, "per_layer", m.name),
            ) {
                if va != vb {
                    mismatches.push(format!("{name}: {} {va} vs {vb}", m.name));
                }
            }
        }
    }
    for name in wb.keys().filter(|n| !wa.contains_key(*n)) {
        mismatches.push(format!("{name}: missing from A"));
    }
    Ok((rows, mismatches))
}

/// Load, compare and print. `Ok(true)` when every pair is inside its
/// bound and nothing mismatched.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (a, b) = (load(path_a)?, load(path_b)?);
    let (rows, mismatches) = compare(&a, &b)?;
    println!(
        "{:<18} {:<13} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<13} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.bound * 100.0,
            if r.ok { "" } else { "OUT OF BOUND" }
        );
    }
    for m in &mismatches {
        println!("MISMATCH {m}");
    }
    Ok(mismatches.is_empty() && rows.iter().all(|r| r.ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(wall: f64, digest: &str, events: f64) -> Json {
        stamped_file(wall, digest, events, 2.0)
    }

    fn stamped_file(wall: f64, digest: &str, events: f64, workers: f64) -> Json {
        let metric = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::Str("x".into()))]);
        let stamp = Json::obj([
            ("seed", Json::Str("1".into())),
            ("cpus", Json::Num(2.0)),
            ("sharded_workers", Json::Num(workers)),
        ]);
        let workloads = Json::obj([(
            "fwd_udp",
            Json::obj([
                ("sim_digest", Json::Str(digest.to_owned())),
                (
                    "end_to_end",
                    Json::obj([
                        ("wall_s", metric(wall)),
                        ("setup_s", metric(0.01)),
                        ("peak_heap_mb", metric(3.0)),
                        ("ok_frac", metric(1.0)),
                    ]),
                ),
                (
                    "per_layer",
                    Json::obj([("sim.kernel.events", metric(events))]),
                ),
            ]),
        )]);
        Json::obj([("stamp", stamp), ("workloads", workloads)])
    }

    #[test]
    fn bounds_digests_and_counts_gate_the_comparison() {
        let base = file(1.0, "0x1", 10.0);
        // 20 % slower is inside wall_s's 25 % bound; faster always is.
        for wall in [1.2, 0.5] {
            let (rows, mism) = compare(&base, &file(wall, "0x1", 10.0)).unwrap();
            assert!(mism.is_empty(), "{mism:?}");
            assert!(rows.iter().all(|r| r.ok));
            assert_eq!(rows.len(), 4);
        }
        // 30 % slower is not.
        let (rows, _) = compare(&base, &file(1.3, "0x1", 10.0)).unwrap();
        let wall = rows.iter().find(|r| r.metric == "wall_s").unwrap();
        assert!(!wall.ok && (wall.worse_by - 0.3).abs() < 1e-12);
        // A changed digest or exact count is a mismatch whatever the times.
        let (_, mism) = compare(&base, &file(1.0, "0x2", 10.0)).unwrap();
        assert_eq!(mism.len(), 1);
        let (_, mism) = compare(&base, &file(1.0, "0x1", 11.0)).unwrap();
        assert!(mism[0].contains("sim.kernel.events"));
        // A one-worker file does not compare with a two-worker one.
        let (_, mism) = compare(&base, &stamped_file(1.0, "0x1", 10.0, 1.0)).unwrap();
        assert!(mism[0].contains("stamp.sharded_workers"), "{mism:?}");
        // One failed rep in fifty is already out of ok_frac's bound.
        let ok_frac = END_TO_END.iter().find(|m| m.name == "ok_frac").unwrap();
        assert!(worse_by(ok_frac, 1.0, 0.98) > ok_frac.bound);
        assert_eq!(worse_by(ok_frac, 1.0, 1.0), 0.0);
    }
}
