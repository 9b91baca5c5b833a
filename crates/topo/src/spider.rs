//! SPIDER-inspired pre-provisioned backup paths.
//!
//! SPIDER (see PAPERS.md) pushes failure detection and recovery entirely
//! into the data plane by pre-provisioning, per protected link, a backup
//! path with a guaranteed recovery delay. This module computes the
//! control-plane half of that idea for a [`Topology`]: for a protected
//! directed edge `u → v`, a per-destination *loop-free alternate* (LFA)
//! neighbor `w` of `u` satisfying
//!
//! ```text
//! dist(w, d) < dist(w, u) + dist(u, d)
//! ```
//!
//! which proves `w`'s shortest path to `d` never crosses `u` — so steering
//! a flagged entry out of the `u → w` edge can neither loop back nor
//! re-enter the protected link. The data-plane half (FANcY flags the entry,
//! the switch consults its pre-installed per-entry backup port) lives in
//! `fancy-core`'s `Reroute`; the measured detect+switch latency bound is
//! asserted against `fancy-trace` timelines by the scenario layer.

use crate::builder::{EdgeIdx, SwitchIdx, TopoError, Topology};
use crate::routes::Routes;

/// One pre-provisioned backup route: for traffic to `dst`, leave the
/// protecting switch over one of `edges` instead of the protected edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackupRoute {
    /// Destination switch the route protects.
    pub dst: SwitchIdx,
    /// Every loop-free alternate egress edge at the protecting switch,
    /// ranked best (cheapest detour) first — the cascade a switch walks
    /// when the active backup itself turns gray. Never empty.
    pub edges: Vec<EdgeIdx>,
}

/// The pre-provisioned backup plan for one protected directed edge.
#[derive(Debug, Clone)]
pub struct BackupPlan {
    /// The protected edge.
    pub edge: EdgeIdx,
    /// The protecting switch (traffic direction `from` → other end).
    pub from: SwitchIdx,
    /// Per-destination loop-free alternates, for every destination whose
    /// primary route at `from` can use the protected edge. Sorted by
    /// destination index (deterministic).
    pub routes: Vec<BackupRoute>,
    /// Affected destinations with no loop-free alternate (always empty for
    /// plans from [`BackupPlan::compute`]; [`BackupPlan::compute_partial`]
    /// reports them instead of failing). LFA coverage is structurally
    /// partial — a bare ring has none — exactly as in real IP-FRR
    /// deployments.
    pub uncovered: Vec<SwitchIdx>,
}

impl BackupPlan {
    /// Compute the plan for protecting `edge` in the `from` → other-end
    /// direction. Fails with [`TopoError::NoBackupPath`] naming the first
    /// destination with no loop-free alternate; use
    /// [`BackupPlan::compute_partial`] to accept partial coverage.
    pub fn compute(
        topo: &Topology,
        routes: &Routes,
        edge: EdgeIdx,
        from: SwitchIdx,
    ) -> Result<BackupPlan, TopoError> {
        let plan = Self::compute_partial(topo, routes, edge, from);
        if let Some(&d) = plan.uncovered.first() {
            return Err(TopoError::NoBackupPath { from, to: d, edge });
        }
        Ok(plan)
    }

    /// Like [`BackupPlan::compute`], but destinations with no loop-free
    /// alternate land in [`BackupPlan::uncovered`] instead of failing the
    /// whole plan.
    pub fn compute_partial(
        topo: &Topology,
        routes: &Routes,
        edge: EdgeIdx,
        from: SwitchIdx,
    ) -> BackupPlan {
        let u = from;
        let mut plan = Vec::new();
        let mut uncovered = Vec::new();
        for d in 0..topo.len() {
            if d == u || !routes.group(u, d).contains(&edge) {
                continue;
            }
            // Candidate neighbors, best (cheapest detour) first; ties break
            // on edge index. All comparisons use precomputed all-pairs
            // costs, so the ranking is a pure function of the topology.
            let mut candidates: Vec<(u64, EdgeIdx)> = Vec::new();
            for &e in topo.incident(u) {
                if e == edge {
                    continue;
                }
                let w = topo.other_end(e, u);
                let lfa = routes.cost(w, d) < routes.cost(w, u).saturating_add(routes.cost(u, d));
                if !lfa {
                    continue;
                }
                let detour = routes
                    .cost(w, d)
                    .saturating_add(topo.edges[e].spec.delay.as_nanos() + 1);
                candidates.push((detour, e));
            }
            candidates.sort_unstable();
            if candidates.is_empty() {
                uncovered.push(d);
            } else {
                plan.push(BackupRoute {
                    dst: d,
                    edges: candidates.into_iter().map(|(_, e)| e).collect(),
                });
            }
        }
        BackupPlan {
            edge,
            from,
            routes: plan,
            uncovered,
        }
    }

    /// The top-ranked backup egress edge for `dst`, if this plan covers it.
    pub fn backup_for(&self, dst: SwitchIdx) -> Option<EdgeIdx> {
        self.alternates_for(dst).first().copied()
    }

    /// Every ranked loop-free alternate for `dst` (empty when uncovered).
    pub fn alternates_for(&self, dst: SwitchIdx) -> &[EdgeIdx] {
        self.routes
            .iter()
            .find(|r| r.dst == dst)
            .map(|r| r.edges.as_slice())
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LinkSpec, TopologyBuilder};
    use fancy_sim::SimDuration;

    fn ms(n: u64) -> LinkSpec {
        LinkSpec::new(100_000_000_000, SimDuration::from_millis(n))
    }

    /// Square with a slow diagonal: `0—1—2`, `0—3—2` (1 ms links) and a
    /// direct 5 ms `0—2` shortcut. Protecting edge 0 (0→1) has full LFA
    /// coverage: dst 1 detours over the slow diagonal, dst 2 over switch 3.
    fn square() -> Topology {
        let mut b = TopologyBuilder::new();
        for i in 0..4 {
            b.switch(&format!("s{i}")).unwrap();
        }
        b.link(0, 1, ms(1)).unwrap(); // edge 0 (protected)
        b.link(1, 2, ms(1)).unwrap(); // edge 1
        b.link(0, 3, ms(1)).unwrap(); // edge 2
        b.link(3, 2, ms(1)).unwrap(); // edge 3
        b.link(0, 2, ms(5)).unwrap(); // edge 4
        b.build().unwrap()
    }

    #[test]
    fn protected_edge_gets_loop_free_detours() {
        let t = square();
        let r = Routes::compute(&t).unwrap();
        let plan = BackupPlan::compute(&t, &r, 0, 0).unwrap();
        assert!(plan.uncovered.is_empty());
        // dst 1: only the direct (slow) 0↔2 edge avoids switch 0; dst 2:
        // the cheap detour via switch 3 wins.
        assert_eq!(plan.backup_for(1), Some(4));
        assert_eq!(plan.backup_for(2), Some(2));
        for br in &plan.routes {
            // Every ranked detour is genuinely loop-free: walking the
            // backup neighbor's shortest path to dst never revisits
            // switch 0.
            for &e in &br.edges {
                let w = t.other_end(e, 0);
                let path = r.path(&t, w, br.dst, 0);
                assert!(
                    br.dst == w || !path[..path.len() - 1].contains(&0),
                    "detour path {path:?} re-enters the protecting switch"
                );
                assert!(!path.contains(&1) || br.dst == 1);
            }
        }
    }

    #[test]
    fn alternates_are_ranked_by_detour_cost() {
        let t = square();
        let r = Routes::compute(&t).unwrap();
        let plan = BackupPlan::compute(&t, &r, 0, 0).unwrap();
        // dst 2 has two LFAs: via switch 3 (1 ms + 1 ms) beats the direct
        // slow 0↔2 shortcut (5 ms) — both survive as the failover cascade.
        assert_eq!(plan.alternates_for(2), &[2, 4]);
        // dst 1 has exactly one alternate, and uncovered dsts have none.
        assert_eq!(plan.alternates_for(1), &[4]);
        assert_eq!(plan.alternates_for(3), &[] as &[EdgeIdx]);
    }

    #[test]
    fn stub_destination_has_no_alternate() {
        // 0 — 1 — 2: protecting 1→2 has no alternate for dst 2.
        let mut b = TopologyBuilder::new();
        for i in 0..3 {
            b.switch(&format!("s{i}")).unwrap();
        }
        b.link(0, 1, ms(1)).unwrap();
        let prot = b.link(1, 2, ms(1)).unwrap();
        let t = b.build().unwrap();
        let r = Routes::compute(&t).unwrap();
        match BackupPlan::compute(&t, &r, prot, 1) {
            Err(TopoError::NoBackupPath { from: 1, to: 2, .. }) => {}
            other => panic!("expected NoBackupPath, got {other:?}"),
        }
    }

    #[test]
    fn ring_coverage_is_partial_like_real_lfa() {
        // Bare ring of 5: protecting 0→1, the adjacent destination 1 has
        // no loop-free alternate (the other way around the ring passes
        // back through switch 0's neighbor relation), while the farther
        // destination 2 is covered the long way.
        let mut b = TopologyBuilder::new();
        for i in 0..5 {
            b.switch(&format!("r{i}")).unwrap();
        }
        for i in 0..5 {
            b.link(i, (i + 1) % 5, ms(1)).unwrap();
        }
        let t = b.build().unwrap();
        let r = Routes::compute(&t).unwrap();
        let plan = BackupPlan::compute_partial(&t, &r, 0, 0);
        assert_eq!(plan.uncovered, vec![1]);
        assert_eq!(plan.backup_for(2), Some(4));
        assert!(BackupPlan::compute(&t, &r, 0, 0).is_err());
    }

    #[test]
    fn backup_for_answers_per_destination() {
        let t = square();
        let r = Routes::compute(&t).unwrap();
        let plan = BackupPlan::compute(&t, &r, 0, 0).unwrap();
        assert_eq!(
            plan.backup_for(3),
            None,
            "dst 3 never used the protected edge"
        );
    }
}
