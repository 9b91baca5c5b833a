//! Deterministic shortest-path route computation with ECMP path groups.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fancy_net::{seeded_hash, Fnv1a};

use crate::builder::{EdgeIdx, SwitchIdx, TopoError, Topology};

/// Cost of traversing an edge: propagation delay in nanoseconds plus one,
/// so even a zero-delay link costs a hop and path lengths stay finite and
/// strictly increasing.
fn edge_cost(topo: &Topology, edge: EdgeIdx) -> u64 {
    topo.edges[edge].spec.delay.as_nanos() + 1
}

/// The equal-cost egress set for one `(source, destination)` pair: every
/// edge out of the source that lies on some minimum-cost path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EcmpGroup {
    /// Egress edges, sorted by edge index (deterministic).
    pub edges: Vec<EdgeIdx>,
    /// Total cost (ns + hops) of the shortest path.
    pub cost: u64,
}

/// All-pairs shortest-path routes over a [`Topology`], with ECMP groups.
///
/// Computation is deterministic (see the crate-level determinism
/// contract): Dijkstra per destination with index-ordered tie-breaking,
/// groups sorted by edge index.
#[derive(Debug, Clone)]
pub struct Routes {
    /// `groups[src][dst]`; `groups[s][s]` is an empty group with cost 0.
    groups: Vec<Vec<EcmpGroup>>,
}

impl Routes {
    /// Compute routes for every ordered pair. Fails with
    /// [`TopoError::Unreachable`] naming the first disconnected pair.
    pub fn compute(topo: &Topology) -> Result<Routes, TopoError> {
        let n = topo.len();
        let mut groups: Vec<Vec<EcmpGroup>> = vec![Vec::with_capacity(n); n];
        // One single-source Dijkstra per destination (the graph is
        // undirected, so distances to `dst` equal distances from it).
        for dst in 0..n {
            let dist = dijkstra(topo, dst);
            for (src, row) in groups.iter_mut().enumerate() {
                if src == dst {
                    row.push(EcmpGroup {
                        edges: Vec::new(),
                        cost: 0,
                    });
                    continue;
                }
                let d = dist[src];
                if d == u64::MAX {
                    return Err(TopoError::Unreachable { from: src, to: dst });
                }
                // An edge is in the group iff stepping over it lands on a
                // node exactly `cost` closer to the destination.
                let edges: Vec<EdgeIdx> = topo
                    .incident(src)
                    .iter()
                    .copied()
                    .filter(|&e| {
                        let w = topo.other_end(e, src);
                        dist[w].saturating_add(edge_cost(topo, e)) == d
                    })
                    .collect();
                debug_assert!(!edges.is_empty(), "reachable node with empty ECMP group");
                row.push(EcmpGroup { edges, cost: d });
            }
        }
        Ok(Routes { groups })
    }

    /// Shortest-path cost from `src` to `dst` (ns + hop count).
    pub fn cost(&self, src: SwitchIdx, dst: SwitchIdx) -> u64 {
        self.groups[src][dst].cost
    }

    /// The ECMP group for `(src, dst)`.
    pub fn group(&self, src: SwitchIdx, dst: SwitchIdx) -> &EcmpGroup {
        &self.groups[src][dst]
    }

    /// Pick the egress edge for `(src, dst)` deterministically from
    /// `flow_key` (hash over the group). FANcY's per-entry counters assume
    /// a prefix follows one stable path, so callers key this by the
    /// destination prefix — spraying per packet would break per-entry
    /// accounting (that is what the paper's uniform check is for).
    ///
    /// # Panics
    /// Panics if `src == dst` (there is no egress edge).
    pub fn next_edge(&self, src: SwitchIdx, dst: SwitchIdx, flow_key: u64) -> EdgeIdx {
        let g = &self.groups[src][dst];
        assert!(!g.edges.is_empty(), "no egress edge from {src} to itself");
        let pick = seeded_hash(0x1ECB_ECF0, flow_key, g.edges.len() as u64) as usize;
        g.edges[pick]
    }

    /// The switch sequence a packet keyed by `flow_key` follows from `src`
    /// to `dst`, inclusive of both endpoints.
    pub fn path(
        &self,
        topo: &Topology,
        src: SwitchIdx,
        dst: SwitchIdx,
        flow_key: u64,
    ) -> Vec<SwitchIdx> {
        let mut at = src;
        let mut out = vec![at];
        while at != dst {
            let e = self.next_edge(at, dst, flow_key);
            at = topo.other_end(e, at);
            out.push(at);
        }
        out
    }

    /// A stable 64-bit fingerprint over every ECMP group and cost. Two
    /// identical topologies produce identical fingerprints in any process
    /// at any thread count — the determinism witness used by tests and
    /// the sweep cache salt.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        let mut eat_u64 = |v: u64| h.write(&v.to_le_bytes());
        eat_u64(self.groups.len() as u64);
        for row in &self.groups {
            for g in row {
                eat_u64(g.cost);
                eat_u64(g.edges.len() as u64);
                for &e in &g.edges {
                    eat_u64(e as u64);
                }
            }
        }
        h.finish()
    }
}

/// Single-source Dijkstra from `source`; returns per-switch cost
/// (`u64::MAX` = unreachable). Ties resolve identically everywhere
/// because the heap orders by `(cost, switch index)`.
fn dijkstra(topo: &Topology, source: SwitchIdx) -> Vec<u64> {
    let mut dist = vec![u64::MAX; topo.len()];
    dist[source] = 0;
    let mut heap: BinaryHeap<Reverse<(u64, SwitchIdx)>> = BinaryHeap::new();
    heap.push(Reverse((0, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &e in topo.incident(u) {
            let v = topo.other_end(e, u);
            let nd = d.saturating_add(edge_cost(topo, e));
            if nd < dist[v] {
                dist[v] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LinkSpec, TopologyBuilder};
    use fancy_sim::SimDuration;

    fn ms(n: u64) -> LinkSpec {
        LinkSpec::new(100_000_000_000, SimDuration::from_millis(n))
    }

    /// A square with one diagonal:
    /// `0 —1ms— 1 —1ms— 2`, `0 —1ms— 3 —1ms— 2`, `0 —5ms— 2`.
    fn square() -> Topology {
        let mut b = TopologyBuilder::new();
        for i in 0..4 {
            b.switch(&format!("s{i}")).unwrap();
        }
        b.link(0, 1, ms(1)).unwrap(); // edge 0
        b.link(1, 2, ms(1)).unwrap(); // edge 1
        b.link(0, 3, ms(1)).unwrap(); // edge 2
        b.link(3, 2, ms(1)).unwrap(); // edge 3
        b.link(0, 2, ms(5)).unwrap(); // edge 4 (too slow to be shortest)
        b.build().unwrap()
    }

    #[test]
    fn ecmp_group_contains_all_equal_cost_edges() {
        let t = square();
        let r = Routes::compute(&t).unwrap();
        // 0 → 2: via 1 or via 3, both 2 ms + 2 hops; the direct 5 ms edge
        // is not in the group.
        assert_eq!(r.group(0, 2).edges, vec![0, 2]);
        assert_eq!(r.cost(0, 2), 2 * (1_000_000 + 1));
        // 0 → 1 is the direct edge only.
        assert_eq!(r.group(0, 1).edges, vec![0]);
    }

    #[test]
    fn next_edge_is_stable_per_key_and_covers_the_group() {
        let t = square();
        let r = Routes::compute(&t).unwrap();
        let picks: Vec<EdgeIdx> = (0..64).map(|k| r.next_edge(0, 2, k)).collect();
        // Deterministic per key...
        for (k, &p) in picks.iter().enumerate() {
            assert_eq!(p, r.next_edge(0, 2, k as u64));
        }
        // ... and both group members get used across keys.
        assert!(picks.contains(&0) && picks.contains(&2));
    }

    #[test]
    fn path_walks_to_destination() {
        let t = square();
        let r = Routes::compute(&t).unwrap();
        let p = r.path(&t, 0, 2, 7);
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&2));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn disconnected_pair_is_named() {
        let mut b = TopologyBuilder::new();
        b.switch("a").unwrap();
        b.switch("b").unwrap();
        b.switch("c").unwrap();
        b.link(0, 1, ms(1)).unwrap();
        let t = b.build().unwrap();
        match Routes::compute(&t) {
            Err(TopoError::Unreachable { from, to }) => {
                assert!(from == 2 || to == 2, "the isolated switch is named");
            }
            other => panic!("expected unreachable error, got {other:?}"),
        }
    }

    #[test]
    fn parallel_links_form_an_ecmp_group() {
        let mut b = TopologyBuilder::new();
        b.switch("a").unwrap();
        b.switch("b").unwrap();
        b.link(0, 1, ms(2)).unwrap();
        b.link(0, 1, ms(2)).unwrap();
        let t = b.build().unwrap();
        let r = Routes::compute(&t).unwrap();
        assert_eq!(r.group(0, 1).edges, vec![0, 1]);
    }

    #[test]
    fn fingerprint_is_reproducible_and_structure_sensitive() {
        let r1 = Routes::compute(&square()).unwrap();
        let r2 = Routes::compute(&square()).unwrap();
        assert_eq!(r1.fingerprint(), r2.fingerprint());

        let mut b = TopologyBuilder::new();
        b.switch("a").unwrap();
        b.switch("b").unwrap();
        b.link(0, 1, ms(1)).unwrap();
        let other = Routes::compute(&b.build().unwrap()).unwrap();
        assert_ne!(r1.fingerprint(), other.fingerprint());
    }
}
