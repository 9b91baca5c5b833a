//! Cell runners for the §5.1 benchmark grids (Figures 7, 8, 9).
//!
//! A *cell* is one (entry size × loss rate) combination, run `reps` times
//! with different seeds and failure times, yielding a TPR and an average
//! detection time — one heatmap pixel of Figure 7 or 9. Grids fan out
//! through [`crate::runner::Sweep`]; every cell draws its seed from the
//! sweep, so results are bit-identical at any `FANCY_THREADS`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fancy_apps::{ScenarioError, ScenarioSpec};
use fancy_core::TimerConfig;
use fancy_net::{mix64, Prefix};
use fancy_sim::{GrayFailure, SimDuration, SimTime};
use fancy_traffic::{generate, EntrySize};

use crate::cache::{CacheCodec, Fingerprint, Record};
use crate::env::Scale;
use crate::runner::{CellCtx, Sweep, SweepReport};

/// Aggregated result of one heatmap cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellResult {
    /// Average true positive rate across repetitions.
    pub tpr: f64,
    /// Average detection time in seconds (undetected entries count the
    /// full experiment duration, as in the paper).
    pub avg_detection_s: f64,
    /// Repetitions run.
    pub reps: u64,
}

impl CacheCodec for CellResult {
    fn encode(&self, rec: &mut Record) {
        rec.put_f64("tpr", self.tpr);
        rec.put_f64("avg_detection_s", self.avg_detection_s);
        rec.put_u64("reps", self.reps);
    }

    fn decode(rec: &Record) -> Option<Self> {
        Some(CellResult {
            tpr: rec.f64("tpr")?,
            avg_detection_s: rec.f64("avg_detection_s")?,
            reps: rec.u64("reps")?,
        })
    }
}

/// Entries used by cell experiments: scattered /24s far from host prefixes.
pub fn cell_entries(n: usize, seed: u64) -> Vec<Prefix> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut used = std::collections::HashSet::new();
    while out.len() < n {
        let p = Prefix(rng.gen_range(0x0A_00_00..0x0B_00_00));
        if used.insert(p) {
            out.push(p);
        }
    }
    out
}

/// Run one Figure 7 cell: a single high-priority entry with a dedicated
/// counter, failing with `loss_pct` percent drops. Seeds come from `ctx`
/// (use [`CellCtx::detached`] outside a sweep).
pub fn run_dedicated_cell(
    size: EntrySize,
    loss_pct: f64,
    scale: &Scale,
    ctx: &CellCtx,
) -> Result<CellResult, ScenarioError> {
    let mut tpr_sum = 0.0;
    let mut det_sum = 0.0;
    for rep in 0..scale.reps {
        let s = mix64(ctx.seed ^ rep);
        let entry = cell_entries(1, s)[0];
        let flows = generate(&[entry], size, scale.duration, s ^ 1).flows;
        let mut sc = ScenarioSpec::linear()
            .seed(s ^ 2)
            .flows(flows)
            .high_priority(vec![entry])
            .build()?;
        let mut rng = SmallRng::seed_from_u64(s ^ 3);
        let fail_at = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen_range(0.5..2.0));
        sc.fail(GrayFailure::single_entry(entry, loss_pct / 100.0, fail_at));
        sc.net.run_until(SimTime::ZERO + scale.duration);
        match sc.detection_of(entry) {
            Some(d) => {
                tpr_sum += 1.0;
                det_sum += d.time.duration_since(fail_at).as_secs_f64();
            }
            None => det_sum += scale.duration.as_secs_f64(),
        }
        ctx.absorb(&sc.net);
    }
    Ok(CellResult {
        tpr: tpr_sum / scale.reps as f64,
        avg_detection_s: det_sum / scale.reps as f64,
        reps: scale.reps,
    })
}

/// Run one Figure 9 cell: `n_entries` best-effort entries (each driving
/// `size` traffic) failing simultaneously, tracked by the hash tree with
/// the given zooming interval.
pub fn run_tree_cell(
    size: EntrySize,
    loss_pct: f64,
    n_entries: usize,
    zooming: SimDuration,
    scale: &Scale,
    ctx: &CellCtx,
) -> Result<CellResult, ScenarioError> {
    let mut tpr_sum = 0.0;
    let mut det_sum = 0.0;
    for rep in 0..scale.reps {
        let s = mix64(ctx.seed ^ rep ^ 0xF00D);
        let entries = cell_entries(n_entries, s);
        let flows = generate(&entries, size, scale.duration, s ^ 1).flows;
        // The historical default timers (10 ms core link) with only the
        // zooming interval overridden.
        let timers = TimerConfig {
            zooming_interval: zooming,
            ..TimerConfig::paper_default().for_link_delay(SimDuration::from_millis(10))
        };
        let mut sc = ScenarioSpec::linear()
            .seed(s ^ 2)
            .flows(flows)
            .timers(timers)
            .build()?;
        let mut rng = SmallRng::seed_from_u64(s ^ 3);
        let fail_at = SimTime::ZERO + SimDuration::from_secs_f64(rng.gen_range(0.5..2.0));
        sc.fail(GrayFailure::multi_entry(
            entries.clone(),
            loss_pct / 100.0,
            fail_at,
        ));
        sc.net.run_until(SimTime::ZERO + scale.duration);

        let mut detected = 0usize;
        for &entry in &entries {
            match sc.detection_of(entry) {
                Some(d) => {
                    detected += 1;
                    det_sum += d.time.duration_since(fail_at).as_secs_f64();
                }
                None => det_sum += scale.duration.as_secs_f64(),
            }
        }
        tpr_sum += detected as f64 / n_entries as f64;
        ctx.absorb(&sc.net);
    }
    Ok(CellResult {
        tpr: tpr_sum / scale.reps as f64,
        avg_detection_s: det_sum / (scale.reps as f64 * n_entries as f64),
        reps: scale.reps,
    })
}

/// Sweep a full heatmap through the parallel [`Sweep`] engine.
/// `f(row, col, ctx)` computes one cell from its deterministic context;
/// cells are indexed row-major, so seeds depend only on the position in
/// the grid, never on scheduling.
///
/// When `FANCY_CACHE_DIR` is set, cells are served from the
/// content-addressed result store keyed by `salt` plus the cell's grid
/// position and seed. `salt` must therefore fold in everything the
/// closure captures that shapes a cell's work — the grid's entry
/// sizes, loss rates, and the [`Scale`] — or stale results will be
/// served after a parameter change.
pub fn sweep_grid<F>(
    label: &str,
    base_seed: u64,
    rows: usize,
    cols: usize,
    salt: Fingerprint,
    f: F,
) -> Result<(Vec<Vec<CellResult>>, SweepReport), ScenarioError>
where
    F: Fn(usize, usize, &CellCtx) -> Result<CellResult, ScenarioError> + Sync,
{
    let jobs: Vec<(usize, usize)> = (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (r, c)))
        .collect();
    let (flat, report) = Sweep::new(label, jobs)
        .seed(base_seed)
        .cache_from_env(salt.with(label))
        .try_run_cached(|&(r, c), ctx| f(r, c, ctx))?;
    let mut grid = Vec::with_capacity(rows);
    let mut it = flat.into_iter();
    for _ in 0..rows {
        grid.push(it.by_ref().take(cols).collect());
    }
    Ok((grid, report))
}

/// Figure 8: for each (zooming speed, loss rate), the smallest entry-size
/// rank whose tree TPR reaches 95 %. Rank 1 = the smallest entry of the
/// grid (4 Kbps/1), rank 18 = the largest. Returns `Ok(None)` when even
/// the largest entry misses the target.
pub fn min_rank_for_tpr(
    grid: &[EntrySize],
    loss_pct: f64,
    zooming: SimDuration,
    scale: &Scale,
    seed: u64,
) -> Result<Option<usize>, ScenarioError> {
    // Walk from the smallest entry upward; TPR is monotone in traffic.
    for (i, &size) in grid.iter().rev().enumerate() {
        let ctx = CellCtx::detached(mix64(seed ^ (i as u64) << 40));
        let r = run_tree_cell(size, loss_pct, 1, zooming, scale, &ctx)?;
        if r.tpr >= 0.95 {
            return Ok(Some(i + 1));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            reps: 1,
            duration: SimDuration::from_secs(6),
            multi_entries: 3,
            trace_scale: 0.005,
            trace_failures: 4,
            full: false,
        }
    }

    /// A cell's fields, the rates as `f64` bits: grading must not move
    /// a single bit.
    fn pin(r: &CellResult) -> (u64, u64, u64) {
        (r.tpr.to_bits(), r.avg_detection_s.to_bits(), r.reps)
    }

    #[test]
    fn dedicated_cell_blackhole_is_found_fast() -> Result<(), ScenarioError> {
        let size = EntrySize {
            total_bps: 1_000_000,
            flows_per_sec: 50.0,
        };
        let r = run_dedicated_cell(size, 100.0, &tiny_scale(), &CellCtx::detached(42))?;
        assert_eq!(r.tpr, 1.0);
        assert!(r.avg_detection_s < 0.5, "took {}", r.avg_detection_s);
        assert_eq!(pin(&r), (4607182418800017408, 4590708392235692478, 1));
        Ok(())
    }

    #[test]
    fn tree_cell_single_entry_detected() -> Result<(), ScenarioError> {
        let size = EntrySize {
            total_bps: 2_000_000,
            flows_per_sec: 50.0,
        };
        let r = run_tree_cell(
            size,
            100.0,
            1,
            SimDuration::from_millis(200),
            &tiny_scale(),
            &CellCtx::detached(7),
        )?;
        assert_eq!(r.tpr, 1.0);
        // ≈ 3 zooming sessions.
        assert!(r.avg_detection_s < 2.0, "took {}", r.avg_detection_s);
        Ok(())
    }

    #[test]
    fn tree_cell_grades_three_entries_to_pinned_bits() -> Result<(), ScenarioError> {
        let size = EntrySize {
            total_bps: 1_000_000,
            flows_per_sec: 50.0,
        };
        let r = run_tree_cell(
            size,
            50.0,
            3,
            SimDuration::from_millis(200),
            &tiny_scale(),
            &CellCtx::detached(11),
        )?;
        assert_eq!(pin(&r), (4607182418800017408, 4604869692501142840, 1));
        Ok(())
    }

    #[test]
    fn sweep_grid_keeps_row_major_order() -> Result<(), ScenarioError> {
        let (a, report) = sweep_grid("test grid", 1, 2, 3, Fingerprint::new(), |r, c, _| {
            Ok(CellResult {
                tpr: (r * 10 + c) as f64,
                avg_detection_s: 0.0,
                reps: 1,
            })
        })?;
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].len(), 3);
        assert_eq!(a[1][2].tpr, 12.0);
        assert_eq!(a[0][1].tpr, 1.0);
        assert_eq!(report.cells, 6);
        Ok(())
    }

    #[test]
    fn cell_entries_are_distinct() {
        let e = cell_entries(100, 5);
        let set: std::collections::HashSet<_> = e.iter().collect();
        assert_eq!(set.len(), 100);
    }
}
