//! Property tests of the topology layer's structural invariants.
//!
//! Whatever the generator parameters: graphs are connected, every ECMP
//! group is delay-consistent (each member edge steps the exact residual
//! cost closer to the destination, which makes loops impossible), SPIDER
//! backup detours never revisit the protecting switch, and the route
//! computation is bit-identical across threads.

use proptest::prelude::*;

use fancy_topo::{fat_tree, isp_backbone, BackupPlan, Routes, Topology};

/// Breadth-first reachability from switch 0.
fn is_connected(topo: &Topology) -> bool {
    let n = topo.len();
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(u) = stack.pop() {
        for &e in topo.incident(u) {
            let v = topo.other_end(e, u);
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen.into_iter().all(|s| s)
}

/// The exact edge cost the route computation uses.
fn edge_cost(topo: &Topology, e: usize) -> u64 {
    topo.edges[e].spec.delay.as_nanos() + 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backbone_is_connected_with_delay_consistent_ecmp(
        n in 2usize..28,
        seed in any::<u64>(),
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        prop_assert!(is_connected(&topo));
        let routes = Routes::compute(&topo).unwrap();
        for u in 0..n {
            for d in 0..n {
                if u == d {
                    continue;
                }
                let g = routes.group(u, d);
                prop_assert!(!g.is_empty(), "no ECMP group {u} → {d}");
                for &e in g {
                    let v = topo.other_end(e, u);
                    // Delay-consistent: the group's cost decomposes into
                    // this edge plus the neighbor's residual. A strictly
                    // decreasing residual also rules out forwarding loops.
                    prop_assert_eq!(
                        routes.cost(u, d),
                        edge_cost(&topo, e) + routes.cost(v, d),
                        "inconsistent ECMP edge {e} at {u} toward {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_is_connected_with_delay_consistent_ecmp(half_k in 1usize..4) {
        let k = 2 * half_k;
        let topo = fat_tree(k).unwrap();
        prop_assert!(is_connected(&topo));
        let routes = Routes::compute(&topo).unwrap();
        let n = topo.len();
        for u in 0..n {
            for d in 0..n {
                if u == d {
                    continue;
                }
                for &e in routes.group(u, d) {
                    let v = topo.other_end(e, u);
                    prop_assert_eq!(
                        routes.cost(u, d),
                        edge_cost(&topo, e) + routes.cost(v, d)
                    );
                }
            }
        }
    }

    #[test]
    fn ecmp_paths_terminate_for_any_flow_key(
        n in 2usize..20,
        seed in any::<u64>(),
        key in any::<u64>(),
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        let routes = Routes::compute(&topo).unwrap();
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let path = routes.path(&topo, src, dst, key);
                // Loop-free: a path through an n-switch graph visits at
                // most n switches, each exactly once.
                prop_assert!(path.len() <= n);
                let mut sorted = path.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(sorted.len(), path.len(), "revisit on {src} → {dst}");
                prop_assert_eq!(*path.first().unwrap(), src);
                prop_assert_eq!(*path.last().unwrap(), dst);
            }
        }
    }

    #[test]
    fn spider_backups_never_revisit_the_protecting_switch(
        n in 3usize..20,
        seed in any::<u64>(),
        key in any::<u64>(),
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        let routes = Routes::compute(&topo).unwrap();
        for e in 0..topo.edges.len() {
            let u = topo.edges[e].a;
            let plan = BackupPlan::compute_partial(&topo, &routes, e, u);
            for br in &plan.routes {
                prop_assert!(!br.edges.is_empty(), "covered dst with empty cascade");
                for &be in &br.edges {
                    let w = topo.other_end(be, u);
                    prop_assert!(be != e, "backup may not be the protected edge");
                    if w == br.dst {
                        continue;
                    }
                    // The loop-free-alternate condition guarantees w's
                    // shortest paths to dst avoid u entirely — so the
                    // detour can never cross the failed edge again; this
                    // holds for every ranked alternate in the cascade.
                    let path = routes.path(&topo, w, br.dst, key);
                    prop_assert!(
                        !path.contains(&u),
                        "detour for dst {} via {w} revisits {u}",
                        br.dst
                    );
                }
            }
        }
    }

    #[test]
    fn route_fingerprint_is_thread_invariant(
        n in 2usize..20,
        seed in any::<u64>(),
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        let base = Routes::compute(&topo).unwrap().fingerprint();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let t = topo.clone();
                std::thread::spawn(move || Routes::compute(&t).unwrap().fingerprint())
            })
            .collect();
        for h in handles {
            prop_assert_eq!(h.join().unwrap(), base);
        }
        prop_assert_eq!(Routes::compute(&topo).unwrap().fingerprint(), base);
    }
}

/// The routes of the 100-switch backbone the netwide runs use, pinned: a
/// change to how routes are stored must hash the same groups and costs.
#[test]
fn backbone_route_fingerprint_is_pinned() {
    let routes = Routes::compute(&isp_backbone(100, 1).unwrap()).unwrap();
    assert_eq!(routes.fingerprint(), 4_324_206_852_197_622_109);
}
