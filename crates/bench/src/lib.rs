//! # fancy-bench — the experiment harness
//!
//! One bench target per table and figure of the paper (see
//! `benches/`), all built on the runners in this library:
//!
//! * [`runner`] — the parallel [`runner::Sweep`] engine every grid and
//!   table fans out through, plus per-cell telemetry aggregation;
//! * [`cells`] — the Figure 7/8/9 heatmap cells (entry size × loss rate);
//! * [`uniform`] — §5.1.3 uniform failures;
//! * [`netwide`] — network-wide FANcY on `fancy-topo` graphs: per-edge
//!   detection coverage, cross-talk false positives, SPIDER reroute
//!   convergence;
//! * [`caida_exp`] — Table 3, the §5.2 baseline comparison, Figure 11;
//! * [`fig10`] — the Tofino fast-reroute case study;
//! * [`table1`] — one detection demo per gray-failure class;
//! * `env` / `fmt` — scaling knobs and output formatting.
//!
//! Set `FANCY_FULL=1` for paper-scale runs, `FANCY_REPS=n` to override
//! repetitions, `FANCY_THREADS=n` to pin the sweep worker count (results
//! are bit-identical at any value). Analytical artifacts (Table 2,
//! Figure 2, Table 4, §5.3, Appendix A) print straight from
//! `fancy-analysis` / `fancy-hw`.

pub mod ablations;
pub mod cache;
pub mod caida_exp;
pub mod cells;
pub mod env;
pub mod fig10;
pub mod fmt;
pub mod netwide;
pub mod runner;
pub mod table1;
pub mod tracefile;
pub mod uniform;

/// The names every bench target needs: environment knobs and the sweep
/// engine.
pub mod prelude {
    pub use crate::cache::{CacheCodec, CacheKeyed, CellCache, Fingerprint, Record};
    pub use crate::env::{BenchEnv, Flags, Scale};
    pub use crate::runner::{CellCtx, Sweep, SweepReport};
    pub use crate::tracefile::{load_or_compile, TraceHandle, TraceProvenance};
}
