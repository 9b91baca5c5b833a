//! Hash-based trees (§4.2 of the paper).
//!
//! A FANcY hash-based tree is a balanced k-ary tree whose nodes are
//! fixed-size arrays of counters. It is characterized by three parameters:
//! *width* `w` (counters per node), *depth* `d` (root-to-leaf path length)
//! and *split* `k` (children per node explored in parallel while zooming).
//! Every best-effort packet maps to one counter per level through a
//! level-specific hash function `H_j`; the list of counter indices from root
//! to leaf is the packet's *hash path*.
//!
//! This module holds the static side of trees: parameters, per-level
//! hashing, hash paths, slot/node accounting, and entry↔path resolution.
//! The dynamic exploration (the zooming algorithm) lives in [`crate::zoom`].

use fancy_net::{seeded_hash, Prefix};

/// Tree shape parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeParams {
    /// Counters per node (`w`). Must be `2..=256` so counter indices fit
    /// the one-byte tag field.
    pub width: u16,
    /// Root-to-leaf path length (`d`), at least 1.
    pub depth: u8,
    /// Children explored per mismatching counter (`k`), at least 1.
    pub split: u8,
    /// Pipelined zooming (§4.2): multiple tree levels are explored
    /// simultaneously, which needs one node slot per concurrently active
    /// path. Non-pipelined mode reuses a single zoom node (the Tofino
    /// implementation, Appendix B.1) at the cost of exploring one path at a
    /// time.
    pub pipelined: bool,
}

impl TreeParams {
    /// The paper's evaluated configuration: depth 3, split 2, width 190,
    /// pipelined (§5: "FANcY uses ... a hash-based tree of depth 3,
    /// split 2, and width 190").
    pub fn paper_default() -> Self {
        TreeParams {
            width: 190,
            depth: 3,
            split: 2,
            pipelined: true,
        }
    }

    /// The Tofino prototype configuration: depth 3, split 1, width 190,
    /// non-pipelined (§6.1).
    pub fn tofino_default() -> Self {
        TreeParams {
            width: 190,
            depth: 3,
            split: 1,
            pipelined: false,
        }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<(), crate::error::ConfigError> {
        use crate::error::ConfigError;
        if self.width < 2 || self.width > 256 {
            return Err(ConfigError::BadTreeParams("width must be in 2..=256"));
        }
        if self.depth == 0 {
            return Err(ConfigError::BadTreeParams("depth must be >= 1"));
        }
        if self.split == 0 {
            return Err(ConfigError::BadTreeParams("split must be >= 1"));
        }
        Ok(())
    }

    /// Number of concurrently active zoom *paths* allowed at `level`
    /// (1-based; a path at level ℓ owns the node it is exploring at level
    /// ℓ+1). Pipelined trees allow `k^ℓ` paths at level ℓ; non-pipelined
    /// trees allow a single path in total.
    pub fn path_capacity(&self, level: u8) -> usize {
        if self.pipelined {
            (self.split as usize).pow(u32::from(level))
        } else {
            1
        }
    }

    /// Total node slots the switch must provision: the root plus one node
    /// per concurrently active path. For the paper's pipelined d=3, k=2
    /// tree this is 1 + 2 + 4 = 7 slots, matching the 7-node report of the
    /// overhead analysis (§5.3). Non-pipelined trees use 2 slots (root +
    /// one reused zoom node).
    pub fn slot_count(&self) -> usize {
        if self.pipelined {
            (1..self.depth)
                .map(|l| self.path_capacity(l))
                .sum::<usize>()
                + 1
        } else {
            2.min(self.depth as usize + 1) // depth-1 trees only need the root
        }
    }

    /// Number of distinct hash paths (`w^d`) — the "Bloom filter size"
    /// equivalent used by the collision analysis (Appendix A.2).
    pub fn hash_paths(&self) -> f64 {
        f64::from(self.width).powi(i32::from(self.depth))
    }

    /// Counter memory in bits for the provisioned slots, on both sides of a
    /// counting session, following §4.3's accounting: each node costs
    /// `32 × width` bits of counters per side, plus 88 bits of counting /
    /// zooming state per node.
    pub fn memory_bits(&self) -> u64 {
        let nodes = self.slot_count() as u64;
        nodes * (2 * 32 * u64::from(self.width) + 88)
    }
}

/// Per-level hashing for a tree, seeded per switch pair so that distinct
/// links explore independent hash functions.
#[derive(Debug, Clone)]
pub struct TreeHasher {
    params: TreeParams,
    seed: u64,
}

impl TreeHasher {
    /// Create a hasher for a tree.
    pub fn new(params: TreeParams, seed: u64) -> Self {
        TreeHasher { params, seed }
    }

    /// The tree parameters this hasher serves.
    pub fn params(&self) -> &TreeParams {
        &self.params
    }

    /// `H_level(entry)`: the counter index of `entry` at `level`
    /// (0-based from the root), in `0..width`.
    #[inline]
    pub fn index(&self, level: u8, entry: Prefix) -> u8 {
        debug_assert!(level < self.params.depth);
        seeded_hash(
            self.seed ^ (u64::from(level) << 56),
            entry.as_u64(),
            u64::from(self.params.width),
        ) as u8
    }

    /// The full hash path of `entry`, root to leaf.
    pub fn hash_path(&self, entry: Prefix) -> Vec<u8> {
        self.path_iter(entry).collect()
    }

    /// [`hash_path`](Self::hash_path) index by index, without building it.
    pub fn path_iter(&self, entry: Prefix) -> impl Iterator<Item = u8> + '_ {
        (0..self.params.depth).map(move |l| self.index(l, entry))
    }

    /// Does `entry`'s hash path start with `prefix`?
    pub fn matches_prefix(&self, entry: Prefix, prefix: &[u8]) -> bool {
        prefix.iter().enumerate().all(|(l, &idx)| {
            l < usize::from(self.params.depth) && self.index(l as u8, entry) == idx
        })
    }

    /// All entries of `universe` whose hash path starts with `path`.
    ///
    /// Experiments use this to resolve a reported (partial or full) hash
    /// path back to the set of candidate failed entries — including the
    /// false positives caused by leaf collisions, exactly as an operator
    /// consuming FANcY's output would.
    pub fn entries_matching<'a>(
        &'a self,
        path: &'a [u8],
        universe: impl IntoIterator<Item = Prefix> + 'a,
    ) -> impl Iterator<Item = Prefix> + 'a {
        universe
            .into_iter()
            .filter(move |&e| self.matches_prefix(e, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_evaluation_setup() {
        let p = TreeParams::paper_default();
        assert_eq!((p.width, p.depth, p.split), (190, 3, 2));
        assert!(p.pipelined);
        assert_eq!(p.slot_count(), 7);
        // 7 slots × 190 counters × 4 B = 5320 B: the report payload of §5.3.
        assert_eq!(p.slot_count() * usize::from(p.width) * 4, 5320);
    }

    #[test]
    fn slot_count_follows_split_and_depth() {
        let mk = |width, depth, split, pipelined| TreeParams {
            width,
            depth,
            split,
            pipelined,
        };
        assert_eq!(mk(190, 3, 2, true).slot_count(), 7); // 1+2+4
        assert_eq!(mk(190, 3, 3, true).slot_count(), 13); // 1+3+9
        assert_eq!(mk(190, 4, 2, true).slot_count(), 15); // 1+2+4+8
        assert_eq!(mk(190, 3, 1, true).slot_count(), 3); // 1+1+1
        assert_eq!(mk(190, 3, 1, false).slot_count(), 2); // root + reused zoom node
        assert_eq!(mk(190, 1, 1, false).slot_count(), 2);
    }

    #[test]
    fn path_capacity_grows_with_level() {
        let p = TreeParams::paper_default();
        assert_eq!(p.path_capacity(1), 2);
        assert_eq!(p.path_capacity(2), 4);
        let np = TreeParams::tofino_default();
        assert_eq!(np.path_capacity(1), 1);
        assert_eq!(np.path_capacity(2), 1);
    }

    #[test]
    fn validation_catches_bad_params() {
        let bad_width = TreeParams {
            width: 1,
            depth: 3,
            split: 2,
            pipelined: true,
        };
        assert!(bad_width.validate().is_err());
        let bad_depth = TreeParams {
            width: 4,
            depth: 0,
            split: 2,
            pipelined: true,
        };
        assert!(bad_depth.validate().is_err());
        let bad_split = TreeParams {
            width: 4,
            depth: 3,
            split: 0,
            pipelined: true,
        };
        assert!(bad_split.validate().is_err());
        assert!(TreeParams::paper_default().validate().is_ok());
    }

    #[test]
    fn hash_path_is_deterministic_and_in_range() {
        let h = TreeHasher::new(TreeParams::paper_default(), 99);
        for raw in 0..1000u32 {
            let e = Prefix(raw);
            let path = h.hash_path(e);
            assert_eq!(path.len(), 3);
            assert!(path.iter().all(|&i| u16::from(i) < 190));
            assert_eq!(path, h.hash_path(e));
            assert!(h.matches_prefix(e, &path));
            assert!(h.matches_prefix(e, &path[..2]));
            assert!(h.matches_prefix(e, &[]));
        }
    }

    #[test]
    fn entries_matching_resolves_paths() {
        let h = TreeHasher::new(TreeParams::paper_default(), 5);
        let universe: Vec<Prefix> = (0..10_000u32).map(Prefix).collect();
        let target = Prefix(1234);
        let path = h.hash_path(target);
        let matched: Vec<Prefix> = h
            .entries_matching(&path, universe.iter().copied())
            .collect();
        assert!(matched.contains(&target));
        // With 190^3 ≈ 6.9M hash paths and 10k entries, collisions on a full
        // path are rare: expect very few extra entries.
        assert!(
            matched.len() <= 3,
            "unexpectedly many collisions: {}",
            matched.len()
        );
        // A one-level path matches roughly universe/width entries.
        let rough: Vec<Prefix> = h
            .entries_matching(&path[..1], universe.iter().copied())
            .collect();
        let expected = 10_000 / 190;
        assert!(
            (rough.len() as i64 - expected as i64).abs() < expected as i64,
            "got {}",
            rough.len()
        );
    }

    #[test]
    fn different_seeds_decorrelate_links() {
        let a = TreeHasher::new(TreeParams::paper_default(), 1);
        let b = TreeHasher::new(TreeParams::paper_default(), 2);
        let same = (0..1000u32)
            .filter(|&r| a.hash_path(Prefix(r)) == b.hash_path(Prefix(r)))
            .count();
        assert!(same < 5, "seeds look correlated: {same}");
    }

    #[test]
    fn memory_bits_accounting() {
        // Appendix A.3 counter-only formula: 2·32·w·nodes. Our accounting
        // adds the §4.3 per-node 88-bit protocol state.
        let p = TreeParams::paper_default();
        let counters_only = 2 * 32 * 190 * 7;
        assert_eq!(p.memory_bits(), counters_only + 88 * 7);
    }
}
