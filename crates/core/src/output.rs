//! FANcY's output structures (§4.3).
//!
//! "FANcY uses two additional data structures to flag the entries affected
//! by packet loss: a 1-bit register array with one register for each
//! dedicated counter, and a 2-register Bloom filter associated with the
//! hash-based tree. When mismatching values are detected for a dedicated
//! counter, the corresponding register in the 1-bit array is updated. When
//! a counter in the hash-based tree reports a failure, the hash path for
//! that counter is stored in the Bloom filter."
//!
//! These structures are what data-plane applications (e.g. the fast-reroute
//! app, §6.1) consult at line rate for every forwarded packet.

use fancy_net::seeded_hash;

/// Number of cells per Bloom-filter register in the Tofino prototype
/// (Appendix B.2: "two 1-bit registers of 100 K cells").
pub const BLOOM_CELLS: usize = 100_000;

/// A packed 1-bit register array flagging dedicated entries.
#[derive(Debug, Clone)]
pub struct FlagArray {
    bits: Vec<u64>,
    len: usize,
}

impl FlagArray {
    /// An all-clear array of `len` flags.
    pub fn new(len: usize) -> Self {
        FlagArray {
            bits: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of flags.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entry can be flagged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Flag dedicated counter `id`.
    pub fn set(&mut self, id: u16) {
        let i = usize::from(id);
        assert!(i < self.len, "flag index out of range");
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Clear dedicated counter `id` (e.g. after repair).
    pub fn clear(&mut self, id: u16) {
        let i = usize::from(id);
        assert!(i < self.len, "flag index out of range");
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Is dedicated counter `id` flagged?
    pub fn get(&self, id: u16) -> bool {
        let i = usize::from(id);
        i < self.len && self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// IDs of all flagged counters.
    pub fn flagged(&self) -> Vec<u16> {
        (0..self.len as u16).filter(|&i| self.get(i)).collect()
    }

    /// Memory consumption in bits.
    pub fn memory_bits(&self) -> u64 {
        self.len as u64
    }
}

/// The 2-register Bloom filter storing failed hash paths.
///
/// Queried per packet by rerouting applications: a packet whose *full* hash
/// path was inserted tests positive. Bloom semantics mean the filter can
/// also flag colliding paths (false positives); it never misses an inserted
/// path.
///
/// The registers are allocated on the first [`insert`](Self::insert): a
/// filter that never flagged a path owns no register words and tests
/// negative without hashing, while [`memory_bits`](Self::memory_bits)
/// keeps reporting the modelled hardware size.
#[derive(Debug, Clone)]
pub struct OutputBloom {
    /// Both registers back to back (`2 × words`), empty until the first
    /// insert.
    regs: Vec<u64>,
    cells: usize,
    seed: u64,
    insertions: u64,
}

/// Fold a hash path into the key both registers hash.
fn path_key(path: impl IntoIterator<Item = u8>) -> u64 {
    path.into_iter().fold(0u64, |key, b| {
        key.wrapping_mul(257).wrapping_add(u64::from(b) + 1)
    })
}

impl OutputBloom {
    /// A filter with `cells` cells per register.
    pub fn new(cells: usize, seed: u64) -> Self {
        assert!(cells > 0);
        OutputBloom {
            regs: Vec::new(),
            cells,
            seed,
            insertions: 0,
        }
    }

    /// The Tofino prototype dimensions.
    pub fn tofino_default(seed: u64) -> Self {
        OutputBloom::new(BLOOM_CELLS, seed)
    }

    /// The word and bit of `key`'s cell in register `reg`.
    fn bit(&self, reg: usize, key: u64) -> (usize, u64) {
        let c = seeded_hash(self.seed ^ ((reg as u64) << 32), key, self.cells as u64) as usize;
        (reg * self.cells.div_ceil(64) + c / 64, 1 << (c % 64))
    }

    /// Insert a failed hash path.
    pub fn insert(&mut self, path: &[u8]) {
        if self.regs.is_empty() {
            self.regs = vec![0; 2 * self.cells.div_ceil(64)];
        }
        let key = path_key(path.iter().copied());
        for reg in 0..2 {
            let (word, mask) = self.bit(reg, key);
            self.regs[word] |= mask;
        }
        self.insertions += 1;
    }

    /// Does `path` test positive?
    pub fn contains(&self, path: &[u8]) -> bool {
        self.contains_path(path.iter().copied())
    }

    /// [`contains`](Self::contains) for a path given index by index (e.g.
    /// [`TreeHasher::path_iter`](crate::tree::TreeHasher::path_iter)), so
    /// a per-packet check never builds the path.
    pub fn contains_path(&self, path: impl IntoIterator<Item = u8>) -> bool {
        if self.regs.is_empty() {
            return false;
        }
        let key = path_key(path);
        (0..2).all(|reg| {
            let (word, mask) = self.bit(reg, key);
            self.regs[word] & mask != 0
        })
    }

    /// Clear the filter (failure repaired / entries re-validated).
    pub fn reset(&mut self) {
        self.regs.fill(0);
        self.insertions = 0;
    }

    /// Number of inserted paths since the last reset.
    pub fn insertions(&self) -> u64 {
        self.insertions
    }

    /// Memory consumption in bits (two 1-bit registers).
    pub fn memory_bits(&self) -> u64 {
        2 * self.cells as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{TreeHasher, TreeParams};
    use fancy_net::Prefix;

    #[test]
    fn flag_array_set_get_clear() {
        let mut f = FlagArray::new(500);
        assert!(!f.get(499));
        f.set(499);
        f.set(0);
        f.set(64);
        assert!(f.get(499) && f.get(0) && f.get(64));
        assert!(!f.get(1));
        assert_eq!(f.flagged(), vec![0, 64, 499]);
        f.clear(64);
        assert_eq!(f.flagged(), vec![0, 499]);
        assert_eq!(f.memory_bits(), 500);
        assert_eq!(f.len(), 500);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flag_array_bounds_checked() {
        FlagArray::new(10).set(10);
    }

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut b = OutputBloom::new(1000, 7);
        let paths: Vec<Vec<u8>> = (0..50u8).map(|i| vec![i, i ^ 3, 5]).collect();
        for p in &paths {
            b.insert(p);
        }
        for p in &paths {
            assert!(b.contains(p), "inserted path missing: {p:?}");
        }
        assert_eq!(b.insertions(), 50);
    }

    #[test]
    fn bloom_false_positive_rate_is_low_at_tofino_size() {
        let mut b = OutputBloom::tofino_default(3);
        for i in 0..100u8 {
            b.insert(&[i, i, i]);
        }
        // Query 10_000 never-inserted paths.
        let fps = (0..10_000u32)
            .filter(|&i| {
                b.contains(&[(i % 190) as u8, (i / 190 % 190) as u8, 200 + (i % 50) as u8])
            })
            .count();
        // With 100 insertions in 100 K cells and 2 registers, the FP
        // probability is ≈ (100/100000)² = 1e-6; allow generous slack.
        assert!(fps < 5, "too many false positives: {fps}");
    }

    #[test]
    fn fresh_bloom_owns_no_registers_and_tests_negative() {
        let b = OutputBloom::tofino_default(5);
        assert_eq!(b.regs.len(), 0, "registers allocated before any insert");
        assert!(!b.contains(&[1, 2, 3]));
        assert!(!b.contains(&[]));
        assert_eq!(b.memory_bits(), 2 * BLOOM_CELLS as u64);
    }

    #[test]
    fn reset_on_untouched_bloom_leaves_it_empty() {
        let mut b = OutputBloom::new(100, 1);
        b.reset();
        assert_eq!(b.regs.len(), 0);
        assert!(!b.contains(&[1, 2, 3]));
        assert_eq!(b.insertions(), 0);
    }

    #[test]
    fn bloom_reset_clears() {
        let mut b = OutputBloom::new(100, 1);
        b.insert(&[1, 2, 3]);
        assert!(b.contains(&[1, 2, 3]));
        b.reset();
        assert!(!b.contains(&[1, 2, 3]));
        assert_eq!(b.insertions(), 0);
    }

    #[test]
    fn memory_accounting_matches_tofino_appendix() {
        // Appendix B.2: rerouting uses 1 bit per dedicated entry/port
        // (512 × 32 ports = 2 KB) plus a Bloom filter of two 1-bit
        // registers of 100 K cells.
        let flags_32_ports: u64 = (0..32).map(|_| FlagArray::new(512).memory_bits()).sum();
        assert_eq!(flags_32_ports / 8, 2048); // 2 KB
        let bloom = OutputBloom::tofino_default(0);
        assert_eq!(bloom.memory_bits(), 200_000);
    }

    proptest::proptest! {
        /// The per-packet check over `path_iter` answers exactly what
        /// `contains` answers over the built `hash_path`, on an untouched
        /// filter and after inserting arbitrary entries' paths. A
        /// 97-cell filter makes false positives common, so the equality
        /// is tested on positives that were never inserted too.
        #[test]
        fn path_iter_check_equals_contains_of_hash_path(
            seed in proptest::arbitrary::any::<u64>(),
            inserted in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 0..40),
            queried in proptest::collection::vec(proptest::arbitrary::any::<u32>(), 1..80),
        ) {
            let hasher = TreeHasher::new(TreeParams::paper_default(), seed);
            let mut b = OutputBloom::new(97, seed.rotate_left(17));
            let agree = |b: &OutputBloom, e: Prefix| {
                b.contains_path(hasher.path_iter(e)) == b.contains(&hasher.hash_path(e))
            };
            for &q in &queried {
                proptest::prop_assert!(agree(&b, Prefix(q)), "entry {q:#x}");
                proptest::prop_assert!(!b.contains_path(hasher.path_iter(Prefix(q))));
            }
            for &e in &inserted {
                b.insert(&hasher.hash_path(Prefix(e)));
            }
            for &e in &inserted {
                proptest::prop_assert!(b.contains_path(hasher.path_iter(Prefix(e))));
            }
            for &q in inserted.iter().chain(&queried) {
                proptest::prop_assert!(agree(&b, Prefix(q)), "entry {q:#x}");
            }
        }
    }
}
