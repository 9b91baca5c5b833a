//! Deterministic topology generators: ISP backbones and fat-trees.

use fancy_net::mix64;
use fancy_sim::SimDuration;

use crate::builder::{LinkSpec, SwitchIdx, TopoError, Topology, TopologyBuilder};

/// A Topology Zoo-style ISP backbone with `n` switches, deterministic in
/// `(n, seed)`.
///
/// Construction mirrors what real backbone graphs look like (a sparse,
/// biconnected mesh with geography-correlated delays):
///
/// * switches `bb0..bbN` get deterministic "coordinates" on a
///   10 000 × 10 000 grid, derived from `seed` via [`mix64`];
/// * a ring `bb0 — bb1 — … — bb0` guarantees biconnectivity, so every
///   link has a physically disjoint detour (the property SPIDER-style
///   protection needs);
/// * one chord per switch (`n/2` on average survive de-duplication)
///   jumps roughly across the ring, yielding ISP-like average degree
///   between 2 and 4 and realistic path diversity;
/// * propagation delay scales with the coordinate distance of the
///   endpoints (1–11 ms, the paper's 10 ms §5 inter-switch delay being
///   typical), ring links run at 100 Gbps and chords at 40 Gbps.
pub fn isp_backbone(n: usize, seed: u64) -> Result<Topology, TopoError> {
    let mut b = TopologyBuilder::new();
    let mut pos = Vec::with_capacity(n);
    for i in 0..n {
        b.switch(&format!("bb{i}"))?;
        let x = mix64(seed ^ (i as u64) << 1) % 10_000;
        let y = mix64(seed ^ ((i as u64) << 1 | 1)) % 10_000;
        pos.push((x as i64, y as i64));
    }
    let delay_between = |a: SwitchIdx, z: SwitchIdx| {
        let (ax, ay) = pos[a];
        let (zx, zy) = pos[z];
        let d2 = ((ax - zx).pow(2) + (ay - zy).pow(2)) as f64;
        // 1 ms floor plus up to ~10 ms across the full grid diagonal.
        let ms = 1.0 + d2.sqrt() / 14_142.0 * 10.0;
        SimDuration::from_nanos((ms * 1e6) as u64)
    };
    for i in 0..n {
        let j = (i + 1) % n;
        if n > 1 && (i < j || n > 2) {
            b.link(i, j, LinkSpec::new(100_000_000_000, delay_between(i, j)))?;
        }
    }
    if n > 3 {
        for i in 0..n {
            // Chord roughly across the ring, jittered by the seed; skip
            // ring neighbors and already-linked pairs.
            let span = (n / 4).max(1) as u64;
            let j = (i + n / 2 + (mix64(seed ^ 0xC0_4D ^ i as u64) % span) as usize) % n;
            let near = j == i || j == (i + 1) % n || (j + 1) % n == i;
            if near {
                continue;
            }
            let (lo, hi) = (i.min(j), i.max(j));
            // De-duplicate chords; parallel links are legal but would make
            // the generated graph needlessly dense.
            if !b.has_link(lo, hi) {
                b.link(lo, hi, LinkSpec::new(40_000_000_000, delay_between(lo, hi)))?;
            }
        }
    }
    b.build()
}

/// A k-ary fat-tree (Al-Fares et al.): `k` pods of `k/2` edge and `k/2`
/// aggregation switches plus `(k/2)²` core switches — `5k²/4` switches
/// total (k = 4 → 20, k = 8 → 80, k = 10 → 125). `k` must be even and
/// ≥ 2. Every edge–aggregation pair inside a pod is linked (25 Gbps,
/// 10 µs); aggregation switch `i` of each pod uplinks to core switches
/// `i·k/2 .. (i+1)·k/2` (100 Gbps, 25 µs).
pub fn fat_tree(k: usize) -> Result<Topology, TopoError> {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree arity must be even and >= 2"
    );
    let half = k / 2;
    let mut b = TopologyBuilder::new();
    let mut core = Vec::with_capacity(half * half);
    for i in 0..half * half {
        core.push(b.switch(&format!("core{i}"))?);
    }
    let down = LinkSpec::new(25_000_000_000, SimDuration::from_micros(10));
    let up = LinkSpec::new(100_000_000_000, SimDuration::from_micros(25));
    for p in 0..k {
        let mut aggs = Vec::with_capacity(half);
        for a in 0..half {
            aggs.push(b.switch(&format!("p{p}a{a}"))?);
        }
        for e in 0..half {
            let edge = b.switch(&format!("p{p}e{e}"))?;
            for &agg in &aggs {
                b.link(edge, agg, down)?;
            }
        }
        for (a, &agg) in aggs.iter().enumerate() {
            for c in 0..half {
                b.link(agg, core[a * half + c], up)?;
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::Routes;

    #[test]
    fn backbone_is_deterministic_in_seed() {
        let a = isp_backbone(40, 7).unwrap();
        let b = isp_backbone(40, 7).unwrap();
        let c = isp_backbone(40, 8).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn backbone_is_connected_and_sparse() {
        let t = isp_backbone(100, 3).unwrap();
        assert_eq!(t.len(), 100);
        assert!(Routes::compute(&t).is_ok(), "backbone must be connected");
        let avg_degree = 2.0 * t.edges.len() as f64 / t.len() as f64;
        assert!(
            (2.0..=4.5).contains(&avg_degree),
            "ISP-like sparsity, got average degree {avg_degree}"
        );
    }

    #[test]
    fn tiny_backbones_build() {
        for n in 1..6 {
            let t = isp_backbone(n, 1).unwrap();
            assert_eq!(t.len(), n);
            assert!(Routes::compute(&t).is_ok());
        }
    }

    #[test]
    fn fat_tree_has_canonical_shape() {
        let t = fat_tree(4).unwrap();
        assert_eq!(t.len(), 20); // 4 core + 4 × (2 agg + 2 edge)
        assert_eq!(t.edges.len(), 32); // 16 edge-agg + 16 agg-core
        assert!(Routes::compute(&t).is_ok());
        // Any two edge switches in different pods see (k/2)² = 4 equal-cost
        // first hops merged over their aggregation layer? No: the first hop
        // choice is the k/2 = 2 aggregation uplinks.
        let r = Routes::compute(&t).unwrap();
        let e0 = t.index_of("p0e0").unwrap();
        let e1 = t.index_of("p1e0").unwrap();
        assert_eq!(r.group(e0, e1).len(), 2);
    }
}
