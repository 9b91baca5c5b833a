//! The zooming algorithm over hash-based trees (§4.2 of the paper).
//!
//! To locate best-effort entries affected by a failure, the upstream switch
//! incrementally builds partial hash paths of increasing length: every
//! counting session it compares its counters against the downstream report,
//! and for each mismatching counter it "zooms in", allocating a node one
//! level deeper that splits the mismatching counter's traffic over `width`
//! finer-grained counters. When a *leaf* counter mismatches, the full hash
//! path is reported as failed. If more than half of the root counters
//! mismatch, the failure is flagged as uniform over the link instead.
//!
//! The engine supports the paper's *pipelined* exploration: up to `k`
//! mismatching counters are zoomed per session and up to `k^(d-1)` paths
//! explored concurrently, each owning one node slot. Packets are counted at
//! the *deepest* active node whose partial hash path they match (the tag
//! tells the downstream which slot/counter to increment, so the downstream
//! never hashes packets itself — §4.2: "the downstream switch knows which
//! packets to count and which counters to increase without having to hash
//! packets consistently with the upstream").

use fancy_net::{FancyTag, Prefix};

use crate::tree::{TreeHasher, TreeParams};

/// Which mismatching counter to zoom into first when there are more
/// candidates than the split allows.
///
/// The paper uses maximum loss ("instrumental to prioritize failure
/// detection for most traffic") and explicitly envisions operator
/// policies at this step (§4.2, footnote 1). `FirstIndex` is the obvious
/// alternative — fair across counters but blind to traffic volume; the
/// `ablations` bench quantifies the difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Zoom into the counters with the largest packet-loss difference
    /// (the paper's choice).
    #[default]
    MaxLoss,
    /// Zoom into mismatching counters in index order (round-robin-ish,
    /// volume-blind).
    FirstIndex,
}

/// Minimum tree width at which the majority-of-root-counters uniform
/// check is enabled (see `ZoomEngine::end_session`).
pub const UNIFORM_CHECK_MIN_WIDTH: u16 = 128;

/// What a session comparison concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoomOutcome {
    /// More than half of the root counters mismatch: a uniform random
    /// failure over the link (§5.1.3). Emitted on the rising edge only.
    Uniform,
    /// A leaf counter mismatched after full zooming: the entries mapping to
    /// this complete hash path are failed.
    LeafFailure {
        /// Full root-to-leaf hash path.
        path: Vec<u8>,
        /// Packets lost for this leaf during the last counting session.
        lost: u32,
    },
}

/// One elementary decision taken while processing a session report —
/// the flight-recorder view of [`ZoomEngine::end_session`]. Outcomes
/// ([`ZoomOutcome`]) are what the switch *acts* on; steps additionally
/// record the exploration that led there (adopted roots, descents,
/// abandoned paths), which is what a detection-latency timeline needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoomStep {
    /// A mismatching root counter was adopted for exploration.
    Adopt {
        /// The new length-1 partial path.
        path: Vec<u8>,
    },
    /// An active path extended one level deeper.
    Descend {
        /// The extended partial path.
        path: Vec<u8>,
    },
    /// An active path stopped mismatching and was abandoned.
    Abandon {
        /// The abandoned partial path.
        path: Vec<u8>,
    },
    /// A leaf counter mismatched: full path reported.
    Leaf {
        /// The complete root-to-leaf path.
        path: Vec<u8>,
        /// Packets lost at that leaf during the session.
        lost: u32,
    },
    /// The majority-of-roots uniform check fired (rising edge).
    Uniform,
}

#[derive(Debug, Clone)]
struct ActivePath {
    /// Partial hash path (length = level being refined, 1..depth).
    path: Vec<u8>,
    /// Node slot holding the counters one level below `path`.
    slot: u8,
}

/// The upstream half of a hash-based tree: local counters plus zooming
/// state. The downstream half is the counters its tags drive (see
/// `fancy_core::switch`). Both sides provision `slot_count × width`
/// counters, the shape of a Report, but hold only the nodes a path has
/// used: a healthy link never zooms, so it never holds more than the root.
#[derive(Debug, Clone)]
pub struct ZoomEngine {
    hasher: TreeHasher,
    /// Local counters, slot-major: the root node, then every slot up to
    /// the highest one a path has held (grown by `take_slot`, never
    /// shrunk). A slot past the end reads 0.
    counters: Vec<u32>,
    paths: Vec<ActivePath>,
    free_slots: Vec<u8>,
    uniform_active: bool,
    /// Candidate-selection policy (§4.2 footnote 1).
    pub policy: SelectionPolicy,
    /// Total zoom-in steps performed (statistics).
    pub zoom_steps: u64,
    /// Steps taken by the most recent `end_session` call (cleared at the
    /// start of each call, so it never grows when nobody drains it).
    session_log: Vec<ZoomStep>,
}

impl ZoomEngine {
    /// A fresh engine for the given tree.
    pub fn new(params: TreeParams, seed: u64) -> Self {
        params.validate().expect("invalid tree parameters");
        let slots = params.slot_count();
        ZoomEngine {
            hasher: TreeHasher::new(params, seed),
            counters: vec![0; usize::from(params.width)],
            paths: Vec::new(),
            free_slots: (1..slots as u8).rev().collect(),
            uniform_active: false,
            policy: SelectionPolicy::MaxLoss,
            zoom_steps: 0,
            session_log: Vec::new(),
        }
    }

    /// Drain the step log of the most recent session (flight recorder).
    pub fn take_session_log(&mut self) -> Vec<ZoomStep> {
        std::mem::take(&mut self.session_log)
    }

    /// Override the zoom-candidate selection policy.
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Tree parameters.
    pub fn params(&self) -> &TreeParams {
        self.hasher.params()
    }

    /// The hasher (for resolving reported paths to entries).
    pub fn hasher(&self) -> &TreeHasher {
        &self.hasher
    }

    /// Number of provisioned node slots (= report length / width),
    /// whether or not a path has used them yet.
    pub fn slot_count(&self) -> usize {
        self.params().slot_count()
    }

    /// Currently explored partial paths (deepest-first not guaranteed).
    pub fn active_paths(&self) -> impl Iterator<Item = &[u8]> {
        self.paths.iter().map(|p| p.path.as_slice())
    }

    /// Zero all counters for a new counting session.
    pub fn begin_session(&mut self) {
        self.counters.fill(0);
    }

    /// Classify a packet: the slot/index it must be counted at — the node
    /// of the deepest active path whose partial hash path the packet
    /// matches, or the root.
    pub fn classify(&self, entry: Prefix) -> (u8, u8) {
        let mut best: Option<&ActivePath> = None;
        for p in &self.paths {
            if self.hasher.matches_prefix(entry, &p.path)
                && best.is_none_or(|b| p.path.len() > b.path.len())
            {
                best = Some(p);
            }
        }
        match best {
            Some(p) => (p.slot, self.hasher.index(p.path.len() as u8, entry)),
            None => (0, self.hasher.index(0, entry)),
        }
    }

    /// Count a packet locally and return the tag the downstream needs.
    pub fn tag_and_count(&mut self, entry: Prefix) -> FancyTag {
        let (slot, index) = self.classify(entry);
        let width = usize::from(self.params().width);
        let c = &mut self.counters[usize::from(slot) * width + usize::from(index)];
        *c = c.wrapping_add(1);
        FancyTag::Tree { slot, index }
    }

    /// A copy of the local counters, slot-major, in the full shape of a
    /// Report (`slot_count × width`; slots never held are 0).
    pub fn local_report(&self) -> Vec<u32> {
        let len = self.slot_count() * usize::from(self.params().width);
        let mut report = Vec::with_capacity(len);
        report.extend_from_slice(&self.counters);
        report.resize(len, 0);
        report
    }

    /// Pop a free node slot for a new path, growing the local counters to
    /// hold it.
    fn take_slot(&mut self) -> Option<u8> {
        let slot = self.free_slots.pop()?;
        let end = (usize::from(slot) + 1) * usize::from(self.params().width);
        if self.counters.len() < end {
            self.counters.resize(end, 0);
        }
        Some(slot)
    }

    fn paths_at_level(&self, level: usize) -> usize {
        self.paths.iter().filter(|p| p.path.len() == level).count()
    }

    fn covered_root(&self, idx: u8) -> bool {
        self.paths.iter().any(|p| p.path[0] == idx)
    }

    /// Process the downstream report for the session that just ended and
    /// advance the zooming state. `report` must hold
    /// `slot_count × width` counters, slot-major.
    pub fn end_session(&mut self, report: &[u32]) -> Vec<ZoomOutcome> {
        let width = usize::from(self.params().width);
        let depth = usize::from(self.params().depth);
        let split = usize::from(self.params().split);
        assert_eq!(
            report.len(),
            self.slot_count() * width,
            "report length mismatch"
        );
        let mut outcomes = Vec::new();
        self.session_log.clear();

        // Per-slot positive differences (local − remote = packets lost).
        let diff = |slot: usize, idx: usize| -> i64 {
            let i = slot * width + idx;
            i64::from(self.counters.get(i).copied().unwrap_or(0)) - i64::from(report[i])
        };

        // 1. Uniform check on the root node (§4.2: "If it detects
        // mismatches for more than half of the counters, it flags the
        // failure as a uniform random one"). The majority rule is only
        // meaningful when the tree is wide relative to the bursts it must
        // disambiguate: on a width-32 tree, 50 simultaneously failing
        // entries mismatch a majority of counters all by themselves (and
        // the paper's own Figure 11 keeps zooming in exactly that setup),
        // so the check is enabled only for widths ≥ UNIFORM_CHECK_MIN_WIDTH
        // — which FANcY's deployed width (190) comfortably satisfies.
        let mut root_mism: Vec<(usize, i64)> = (0..width)
            .filter_map(|i| {
                let d = diff(0, i);
                (d > 0).then_some((i, d))
            })
            .collect();
        if width >= usize::from(UNIFORM_CHECK_MIN_WIDTH) && root_mism.len() * 2 > width {
            if !self.uniform_active {
                self.uniform_active = true;
                outcomes.push(ZoomOutcome::Uniform);
                self.session_log.push(ZoomStep::Uniform);
            }
            // "localizing it to all entries": no point zooming further —
            // abandon in-flight paths so their slots are free when the
            // uniform episode ends.
            for p in std::mem::take(&mut self.paths) {
                self.session_log.push(ZoomStep::Abandon { path: p.path });
                self.free_slots.push(p.slot);
            }
            return outcomes;
        }
        self.uniform_active = false;

        // Depth-1 trees are flat counter arrays: root counters are leaves.
        if depth == 1 {
            for i in 0..width {
                let d = diff(0, i);
                if d > 0 {
                    self.session_log.push(ZoomStep::Leaf {
                        path: vec![i as u8],
                        lost: d as u32,
                    });
                    outcomes.push(ZoomOutcome::LeafFailure {
                        path: vec![i as u8],
                        lost: d as u32,
                    });
                }
            }
            return outcomes;
        }

        // 2. Advance each active path from its node's counters.
        let old_paths = std::mem::take(&mut self.paths);
        let mut freed = Vec::new();
        let mut extensions: Vec<Vec<u8>> = Vec::new();
        for p in old_paths {
            let slot = usize::from(p.slot);
            let mut mism: Vec<(usize, i64)> = (0..width)
                .filter_map(|i| {
                    let d = diff(slot, i);
                    (d > 0).then_some((i, d))
                })
                .collect();
            match self.policy {
                SelectionPolicy::MaxLoss => mism.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0))),
                SelectionPolicy::FirstIndex => mism.sort_by_key(|&(i, _)| i),
            }
            let at_leaf = p.path.len() + 1 == depth;
            if mism.is_empty() {
                // Losses stopped (or were transient): abandon this path.
                self.session_log.push(ZoomStep::Abandon {
                    path: p.path.clone(),
                });
                freed.push(p.slot);
            } else if at_leaf {
                for (i, d) in mism {
                    let mut full = p.path.clone();
                    full.push(i as u8);
                    self.session_log.push(ZoomStep::Leaf {
                        path: full.clone(),
                        lost: d as u32,
                    });
                    outcomes.push(ZoomOutcome::LeafFailure {
                        path: full,
                        lost: d as u32,
                    });
                }
                freed.push(p.slot);
            } else {
                // Zoom one level deeper on the top-k mismatching counters.
                for (i, _) in mism.into_iter().take(split) {
                    let mut q = p.path.clone();
                    q.push(i as u8);
                    extensions.push(q);
                }
                freed.push(p.slot);
            }
        }
        self.free_slots.extend(freed);

        // Install extensions, respecting per-level capacity and slots.
        for q in extensions {
            let level = q.len();
            if self.paths_at_level(level) < self.params().path_capacity(level as u8) {
                if let Some(slot) = self.take_slot() {
                    self.zoom_steps += 1;
                    self.session_log.push(ZoomStep::Descend { path: q.clone() });
                    self.paths.push(ActivePath { path: q, slot });
                }
            }
        }

        // 3. Adopt up to `split` new root counters with the largest
        // mismatch that are not already being explored.
        root_mism.retain(|&(i, _)| !self.covered_root(i as u8));
        match self.policy {
            SelectionPolicy::MaxLoss => root_mism.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0))),
            SelectionPolicy::FirstIndex => root_mism.sort_by_key(|&(i, _)| i),
        }
        for (i, _) in root_mism.into_iter().take(split) {
            if self.paths_at_level(1) >= self.params().path_capacity(1) {
                break;
            }
            let Some(slot) = self.take_slot() else {
                break;
            };
            self.zoom_steps += 1;
            self.session_log.push(ZoomStep::Adopt {
                path: vec![i as u8],
            });
            self.paths.push(ActivePath {
                path: vec![i as u8],
                slot,
            });
        }

        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(width: u16, depth: u8, split: u8) -> TreeParams {
        TreeParams {
            width,
            depth,
            split,
            pipelined: true,
        }
    }

    /// Drive one counting session: every entry in `traffic` sends
    /// `count` packets; `loss(entry)` packets of those are dropped after
    /// the upstream counted them. Returns the outcomes.
    fn session(
        engine: &mut ZoomEngine,
        traffic: &[(Prefix, u32)],
        loss: impl Fn(Prefix) -> u32,
    ) -> Vec<ZoomOutcome> {
        engine.begin_session();
        let width = usize::from(engine.params().width);
        let mut remote = vec![0u32; engine.slot_count() * width];
        for &(entry, count) in traffic {
            let lost = loss(entry).min(count);
            for i in 0..count {
                let FancyTag::Tree { slot, index } = engine.tag_and_count(entry) else {
                    unreachable!()
                };
                if i >= lost {
                    remote[usize::from(slot) * width + usize::from(index)] += 1;
                }
            }
        }
        engine.end_session(&remote)
    }

    #[test]
    fn no_loss_no_outcome_no_zoom() {
        let mut e = ZoomEngine::new(params(16, 3, 2), 1);
        let traffic: Vec<(Prefix, u32)> = (0..200u32).map(|i| (Prefix(i), 10)).collect();
        for _ in 0..5 {
            let out = session(&mut e, &traffic, |_| 0);
            assert!(out.is_empty());
            assert_eq!(e.active_paths().count(), 0);
        }
        assert_eq!(e.zoom_steps, 0);
    }

    #[test]
    fn single_entry_failure_detected_in_depth_sessions() {
        let mut e = ZoomEngine::new(params(16, 3, 2), 2);
        let traffic: Vec<(Prefix, u32)> = (0..200u32).map(|i| (Prefix(i), 20)).collect();
        let failed = Prefix(77);
        let loss = |p: Prefix| if p == failed { 20 } else { 0 };

        // Session 1: root mismatch → zoom level 1. No leaf report yet.
        let out = session(&mut e, &traffic, loss);
        assert!(out.is_empty());
        assert_eq!(e.active_paths().count(), 1);
        // Session 2: level-2 mismatch → zoom level 2.
        let out = session(&mut e, &traffic, loss);
        assert!(out.is_empty());
        // Session 3: leaf mismatch → report.
        let out = session(&mut e, &traffic, loss);
        let leafs: Vec<&Vec<u8>> = out
            .iter()
            .filter_map(|o| match o {
                ZoomOutcome::LeafFailure { path, .. } => Some(path),
                _ => None,
            })
            .collect();
        assert!(!leafs.is_empty(), "expected a leaf failure in session 3");
        assert_eq!(leafs[0], &e.hasher().hash_path(failed));
    }

    #[test]
    fn detected_path_resolves_to_failed_entry() {
        let mut e = ZoomEngine::new(params(32, 3, 2), 3);
        let universe: Vec<Prefix> = (0..1000u32).map(Prefix).collect();
        let traffic: Vec<(Prefix, u32)> = universe.iter().map(|&p| (p, 10)).collect();
        let failed = Prefix(321);
        let mut reported = Vec::new();
        for _ in 0..4 {
            for o in session(&mut e, &traffic, |p| if p == failed { 10 } else { 0 }) {
                if let ZoomOutcome::LeafFailure { path, .. } = o {
                    reported.push(path);
                }
            }
        }
        assert!(!reported.is_empty());
        let resolved: Vec<Prefix> = e
            .hasher()
            .entries_matching(&reported[0], universe.iter().copied())
            .collect();
        assert!(resolved.contains(&failed));
    }

    #[test]
    fn uniform_failure_flagged_in_one_session() {
        let mut e = ZoomEngine::new(params(190, 3, 2), 4);
        let traffic: Vec<(Prefix, u32)> = (0..500u32).map(|i| (Prefix(i), 10)).collect();
        // Every entry loses half its packets: all root counters mismatch.
        let out = session(&mut e, &traffic, |_| 5);
        assert_eq!(out, vec![ZoomOutcome::Uniform]);
        // Rising-edge semantics: not re-emitted while it persists.
        let out = session(&mut e, &traffic, |_| 5);
        assert!(out.is_empty());
        // Clears, then re-triggers.
        let out = session(&mut e, &traffic, |_| 0);
        assert!(out.is_empty());
        let out = session(&mut e, &traffic, |_| 5);
        assert_eq!(out, vec![ZoomOutcome::Uniform]);
    }

    #[test]
    fn narrow_trees_keep_zooming_instead_of_flagging_uniform() {
        // A 50-entry burst mismatches a majority of a width-32 node's
        // counters, but the uniform check is disabled below
        // UNIFORM_CHECK_MIN_WIDTH: the engine must zoom, not classify
        // (Figure 11's narrow configurations rely on this).
        let mut e = ZoomEngine::new(params(32, 3, 2), 40);
        let traffic: Vec<(Prefix, u32)> = (0..600u32).map(|i| (Prefix(i), 10)).collect();
        let out = session(&mut e, &traffic, |p| if p.0 % 12 == 0 { 10 } else { 0 });
        assert!(!out.contains(&ZoomOutcome::Uniform));
        assert!(e.active_paths().count() > 0, "zooming must start");
    }

    #[test]
    fn split_2_explores_two_failures_in_parallel() {
        let mut e = ZoomEngine::new(params(64, 3, 2), 5);
        let traffic: Vec<(Prefix, u32)> = (0..2000u32).map(|i| (Prefix(i), 10)).collect();
        // Two failed entries in different root counters.
        let f1 = Prefix(100);
        let f2 = Prefix(200);
        assert_ne!(
            e.hasher().index(0, f1),
            e.hasher().index(0, f2),
            "test setup"
        );
        let loss = |p: Prefix| if p == f1 || p == f2 { 10 } else { 0 };
        let mut reported = std::collections::HashSet::new();
        for s in 0..4 {
            for o in session(&mut e, &traffic, loss) {
                if let ZoomOutcome::LeafFailure { path, .. } = o {
                    reported.insert(path);
                }
            }
            if s == 0 {
                // split 2 adopts both mismatching roots in the same session.
                assert_eq!(e.active_paths().count(), 2);
            }
        }
        assert!(reported.contains(&e.hasher().hash_path(f1)));
        assert!(reported.contains(&e.hasher().hash_path(f2)));
    }

    #[test]
    fn split_1_serializes_exploration() {
        let mut e = ZoomEngine::new(params(64, 3, 1), 6);
        let traffic: Vec<(Prefix, u32)> = (0..2000u32).map(|i| (Prefix(i), 10)).collect();
        let f1 = Prefix(100);
        let f2 = Prefix(200);
        assert_ne!(e.hasher().index(0, f1), e.hasher().index(0, f2));
        let loss = |p: Prefix| if p == f1 || p == f2 { 10 } else { 0 };
        session(&mut e, &traffic, loss);
        // Only one root adopted per session with split 1 (pipelined allows
        // one path per level).
        assert_eq!(e.active_paths().count(), 1);
    }

    #[test]
    fn session_log_records_adopt_descend_leaf_and_abandon() {
        let mut e = ZoomEngine::new(params(16, 3, 2), 2);
        let traffic: Vec<(Prefix, u32)> = (0..200u32).map(|i| (Prefix(i), 20)).collect();
        let failed = Prefix(77);
        let loss = |p: Prefix| if p == failed { 20 } else { 0 };

        session(&mut e, &traffic, loss);
        let log = e.take_session_log();
        assert!(matches!(log[0], ZoomStep::Adopt { .. }), "got {log:?}");
        assert!(e.take_session_log().is_empty(), "drained");

        session(&mut e, &traffic, loss);
        assert!(e
            .take_session_log()
            .iter()
            .any(|s| matches!(s, ZoomStep::Descend { .. })));

        session(&mut e, &traffic, loss);
        let log = e.take_session_log();
        let leaf = log.iter().find_map(|s| match s {
            ZoomStep::Leaf { path, lost } => Some((path.clone(), *lost)),
            _ => None,
        });
        assert_eq!(leaf, Some((e.hasher().hash_path(failed), 20)));

        // Loss stops: the remaining exploration is abandoned.
        session(&mut e, &traffic, |_| 0);
        let log = e.take_session_log();
        assert!(log.iter().all(|s| matches!(s, ZoomStep::Abandon { .. })));
    }

    #[test]
    fn session_log_records_uniform_rising_edge() {
        let mut e = ZoomEngine::new(params(190, 3, 2), 4);
        let traffic: Vec<(Prefix, u32)> = (0..500u32).map(|i| (Prefix(i), 10)).collect();
        session(&mut e, &traffic, |_| 5);
        assert_eq!(e.take_session_log(), vec![ZoomStep::Uniform]);
        session(&mut e, &traffic, |_| 5);
        assert!(e.take_session_log().is_empty(), "rising edge only");
    }

    #[test]
    fn transient_loss_abandons_the_path() {
        let mut e = ZoomEngine::new(params(16, 3, 2), 7);
        let traffic: Vec<(Prefix, u32)> = (0..100u32).map(|i| (Prefix(i), 10)).collect();
        session(&mut e, &traffic, |p| if p == Prefix(5) { 10 } else { 0 });
        assert_eq!(e.active_paths().count(), 1);
        // Loss disappears: the path is abandoned, tree back to idle.
        session(&mut e, &traffic, |_| 0);
        assert_eq!(e.active_paths().count(), 0);
    }

    #[test]
    fn depth_1_tree_behaves_like_counting_bloom_filter() {
        let mut e = ZoomEngine::new(
            TreeParams {
                width: 32,
                depth: 1,
                split: 1,
                pipelined: false,
            },
            8,
        );
        let traffic: Vec<(Prefix, u32)> = (0..100u32).map(|i| (Prefix(i), 10)).collect();
        let out = session(&mut e, &traffic, |p| if p == Prefix(9) { 10 } else { 0 });
        // Immediate single-session leaf report at root level.
        assert_eq!(out.len(), 1);
        match &out[0] {
            ZoomOutcome::LeafFailure { path, lost } => {
                assert_eq!(path, &vec![e.hasher().index(0, Prefix(9))]);
                assert_eq!(*lost, 10);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn slot_budget_never_exceeded() {
        let p = params(8, 3, 2); // 7 slots, narrow tree → many collisions
        let mut e = ZoomEngine::new(p, 9);
        let traffic: Vec<(Prefix, u32)> = (0..500u32).map(|i| (Prefix(i), 10)).collect();
        // Fail many entries at once; engine must stay within its slots.
        let loss = |p: Prefix| if p.0.is_multiple_of(3) { 10 } else { 0 };
        for _ in 0..10 {
            session(&mut e, &traffic, loss);
            let active = e.active_paths().count();
            assert!(active <= 6, "active paths {active} exceed slots");
            for level in 1..3u8 {
                let at: usize = e
                    .active_paths()
                    .filter(|q| q.len() == usize::from(level))
                    .count();
                assert!(at <= p.path_capacity(level));
            }
        }
    }

    #[test]
    fn classify_routes_to_deepest_matching_node() {
        let mut e = ZoomEngine::new(params(16, 3, 2), 10);
        let traffic: Vec<(Prefix, u32)> = (0..100u32).map(|i| (Prefix(i), 10)).collect();
        let failed = Prefix(42);
        session(&mut e, &traffic, |p| if p == failed { 10 } else { 0 });
        // `failed` now classifies into the level-1 node, not the root.
        let (slot, idx) = e.classify(failed);
        assert_ne!(slot, 0);
        assert_eq!(idx, e.hasher().index(1, failed));
        // An entry in a different root counter still classifies to root.
        let other = (0..100u32)
            .map(Prefix)
            .find(|&p| e.hasher().index(0, p) != e.hasher().index(0, failed))
            .unwrap();
        assert_eq!(e.classify(other).0, 0);
    }
}
