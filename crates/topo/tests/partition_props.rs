//! Property tests of the deterministic partitioner.
//!
//! The sharded executor's correctness rests on three structural facts:
//! every region is connected (a region maps to one `Kernel`, and a
//! disconnected region would let unrelated traffic share an event queue
//! for no reason), the assignment is a function of the topology alone
//! (thread- and seed-invariant, so `FANCY_SHARDS` can never change
//! simulation output), and every cut edge's delay is at least the
//! advertised lookahead (the conservative window bound).

use std::sync::{Arc, Barrier};

use proptest::prelude::*;

use fancy_topo::{fat_tree, isp_backbone, Partition, Topology};

/// Breadth-first reachability within one region, starting from its
/// lowest-index member.
fn region_is_connected(topo: &Topology, p: &Partition, region: usize) -> bool {
    let members: Vec<usize> = p.members(region).collect();
    let Some(&start) = members.first() else {
        return true; // empty regions cannot occur, but are vacuously fine
    };
    let mut seen = vec![false; topo.len()];
    let mut stack = vec![start];
    seen[start] = true;
    while let Some(u) = stack.pop() {
        for &e in topo.incident(u) {
            let v = topo.other_end(e, u);
            if p.assignment[v] == region && !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    members.into_iter().all(|m| seen[m])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_region_is_connected(
        n in 2usize..40,
        seed in any::<u64>(),
        max_regions in 1usize..10,
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        let p = Partition::compute_with(&topo, max_regions);
        prop_assert!(p.regions >= 1 && p.regions <= n.min(max_regions.max(1)));
        for r in 0..p.regions {
            prop_assert!(
                region_is_connected(&topo, &p, r),
                "region {r} of {} is disconnected", p.regions
            );
        }
    }

    #[test]
    fn assignment_is_total_and_covers_all_regions(
        n in 2usize..40,
        seed in any::<u64>(),
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        let p = Partition::compute(&topo);
        prop_assert_eq!(p.assignment.len(), n);
        for r in 0..p.regions {
            prop_assert!(p.region_len(r) >= 1, "region {} is empty", r);
        }
        prop_assert!(p.assignment.iter().all(|&r| r < p.regions));
    }

    #[test]
    fn assignment_depends_on_topology_fingerprint_alone(
        n in 2usize..32,
        seed in any::<u64>(),
    ) {
        // Thread-invariance: four racing threads, synchronized through a
        // barrier to maximize interleaving, all compute the identical
        // partition. Seed-invariance: there is no seed parameter to vary —
        // the only entropy is the topology fingerprint itself, witnessed
        // by recomputing from an independently rebuilt equal topology.
        let topo = isp_backbone(n, seed).unwrap();
        let reference = Partition::compute(&topo);

        let barrier = Arc::new(Barrier::new(4));
        let results: Vec<Partition> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let topo = topo.clone();
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        barrier.wait();
                        Partition::compute(&topo)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            prop_assert_eq!(&r, &reference);
        }

        let rebuilt = isp_backbone(n, seed).unwrap();
        prop_assert_eq!(rebuilt.fingerprint(), topo.fingerprint());
        prop_assert_eq!(Partition::compute(&rebuilt), reference);
    }

    #[test]
    fn cut_edge_delays_bound_the_lookahead(
        n in 2usize..40,
        seed in any::<u64>(),
        max_regions in 2usize..10,
    ) {
        let topo = isp_backbone(n, seed).unwrap();
        let p = Partition::compute_with(&topo, max_regions);
        match p.lookahead {
            Some(lookahead) => {
                prop_assert!(!p.cut_edges.is_empty());
                prop_assert!(lookahead.as_nanos() > 0, "advertised zero lookahead");
                for &e in &p.cut_edges {
                    prop_assert!(
                        topo.edges[e].spec.delay >= lookahead,
                        "cut edge {} delay {:?} < lookahead {:?}",
                        e, topo.edges[e].spec.delay, lookahead
                    );
                }
            }
            None => {
                prop_assert_eq!(p.regions, 1);
                prop_assert!(p.cut_edges.is_empty());
            }
        }
        // Exactness: the cut edges themselves identify every inter-region
        // edge; nothing crosses regions outside the advertised cut.
        for (e, edge) in topo.edges.iter().enumerate() {
            let crosses = p.assignment[edge.a] != p.assignment[edge.b];
            prop_assert_eq!(crosses, p.cut_edges.contains(&e));
        }
    }

    #[test]
    fn fat_tree_partitions_cleanly(half_k in 1usize..4) {
        let topo = fat_tree(2 * half_k).unwrap();
        let p = Partition::compute(&topo);
        for r in 0..p.regions {
            prop_assert!(region_is_connected(&topo, &p, r));
        }
        if let Some(lookahead) = p.lookahead {
            for &e in &p.cut_edges {
                prop_assert!(topo.edges[e].spec.delay >= lookahead);
            }
        }
    }
}
