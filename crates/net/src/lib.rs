//! # fancy-net — wire formats for FANcY
//!
//! This crate defines the on-the-wire representations used by the FANcY
//! gray-failure detection system (SIGCOMM 2022):
//!
//! * [`Prefix`] — a /24 IPv4 destination prefix, the *entry* granularity used
//!   throughout the paper's evaluation,
//! * [`FancyTag`] — the 2-byte packet tag the upstream switch adds to every
//!   counted packet (§4.1/§5.3 of the paper),
//! * [`ControlMessage`] — the Start / Start-ACK / Stop / Report messages of
//!   the counting protocol (Fig. 3/4).
//!
//! The tag and the control messages are the byte formats. Both follow the
//! smoltcp idiom: structured types with checked `parse` and infallible
//! `emit`, and both are round-trip tested.
//! The simulator carries the structured forms for speed; the byte encodings
//! exist so the protocol is a real, implementable wire protocol and so that
//! overhead accounting (§5.3) is grounded in actual message sizes.

pub mod control;
pub mod error;
pub mod prefix;
pub mod tag;

pub use control::{ControlBody, ControlKind, ControlMessage, SessionKind};
pub use error::ParseError;
pub use prefix::Prefix;
pub use tag::FancyTag;

/// Deterministic 64-bit mixer (splitmix64 finalizer).
///
/// FANcY needs per-level hash functions for its hash-based trees (§4.2) and
/// the output Bloom filter (§4.3). Switch hardware uses CRC-based hash units;
/// any good deterministic mixer preserves the behaviour that matters here
/// (uniform spreading of entries over counters, independence across levels).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Streaming FNV-1a 64 — the workspace's one byte-stream digest: topology
/// and route fingerprints, the `.events` frame checksum, the cell-cache
/// record checksum and lane 1 of its content address. Not a mixer (use
/// [`mix64`] for avalanche); pinned by the published test vectors below
/// because every stored fingerprint and checksum depends on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Fold `bytes` into the digest.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The digest of everything written so far (the hasher stays usable).
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// [`Fnv1a`] as a map hasher: the same byte fold, so the digest and the
/// hasher cannot drift apart. Keys here are small integers the program
/// made itself (prefixes, ports, flow ids), never outside input, so the
/// collision resistance SipHash pays for buys nothing.
impl std::hash::Hasher for Fnv1a {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        Fnv1a::write(self, bytes);
    }

    #[inline]
    fn finish(&self) -> u64 {
        Fnv1a::finish(self)
    }
}

/// The workspace's one hash map for sparse, prefix-keyed tables on a
/// per-event path (FIB routes, dedicated-entry index, reroute tables,
/// per-entry receive counters): std's `HashMap` on [`Fnv1a`]. Construct
/// with `FnvMap::default()` or `collect()`. Iteration order is fixed for a
/// given insertion history but otherwise arbitrary: sort before deciding.
pub type FnvMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<Fnv1a>>;

/// One-shot [`Fnv1a`] over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

/// Hash `value` under a seeded hash function, returning a value in `0..modulus`.
///
/// Used for the per-level tree hash functions `H_j` and the Bloom filter
/// hashes. `modulus` must be non-zero.
#[inline]
pub fn seeded_hash(seed: u64, value: u64, modulus: u64) -> u64 {
    debug_assert!(modulus > 0, "hash modulus must be non-zero");
    mix64(seed ^ mix64(value)) % modulus
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn fnv1a_matches_published_vectors_and_streams() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn hasher_write_is_the_same_fnv1a() {
        use std::hash::Hasher;
        // Through the trait, not the inherent methods: the `.events`
        // checksum, cache keys and fingerprints share this type.
        fn via_trait<H: Hasher + Default>(chunks: &[&[u8]]) -> u64 {
            let mut h = H::default();
            chunks.iter().for_each(|c| h.write(c));
            h.finish()
        }
        assert_eq!(via_trait::<Fnv1a>(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(via_trait::<Fnv1a>(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(via_trait::<Fnv1a>(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(via_trait::<Fnv1a>(&[b"foo", b"bar"]), fnv1a64(b"foobar"));
    }

    #[test]
    fn seeded_hash_respects_modulus() {
        for seed in 0..16u64 {
            for v in 0..256u64 {
                assert!(seeded_hash(seed, v, 190) < 190);
            }
        }
    }

    #[test]
    fn seeded_hash_spreads_values() {
        // A coarse uniformity check: hashing 19_000 consecutive values into
        // 190 buckets should put something in every bucket.
        let mut buckets = [0u32; 190];
        for v in 0..19_000u64 {
            buckets[seeded_hash(7, v, 190) as usize] += 1;
        }
        assert!(buckets.iter().all(|&c| c > 0));
    }

    #[test]
    fn different_seeds_give_independent_functions() {
        // Two levels of the tree must not map entries identically.
        let collisions = (0..1000u64)
            .filter(|&v| seeded_hash(1, v, 190) == seeded_hash(2, v, 190))
            .count();
        // Expect ~1000/190 ≈ 5 random collisions; 1000 would mean identical.
        assert!(collisions < 50, "levels look correlated: {collisions}");
    }
}
