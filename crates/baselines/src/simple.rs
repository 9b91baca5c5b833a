//! The "simple designs" of §2.4 / §5.2.
//!
//! The paper compares FANcY against three strawmen that also count packets
//! in-switch:
//!
//! * a **single counter per link** — detects that *something* was lost but
//!   cannot localize: every prefix on the link becomes a suspect (≈250 K
//!   false positives per detection in the CAIDA setting);
//! * **one dedicated counter per entry** — perfectly accurate but needs
//!   ≈320 MB for an Internet-scale table (vs FANcY's 1.25 MB), or covers
//!   only 1024 entries within FANcY's budget;
//! * a **counting Bloom filter** over all entries — fits the budget, but
//!   each detection implicates every entry colliding with a mismatching
//!   cell (≈100 false positives per failure in the paper's measurement).
//!
//! All three share the synchronized-session machinery with FANcY (we give
//! them the same loss-free comparison semantics), so the comparison
//! isolates the *data-structure* tradeoff, as in the paper.

use fancy_net::{seeded_hash, Prefix};

use crate::DEDICATED_BITS_PER_ENTRY;

/// A single packets-sent/packets-received counter pair for a whole link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounter {
    /// Packets counted at the upstream measurement point.
    pub sent: u64,
    /// Packets counted at the downstream measurement point.
    pub received: u64,
}

impl LinkCounter {
    /// Packets lost this session.
    pub fn lost(&self) -> u64 {
        self.sent.saturating_sub(self.received)
    }

    /// Reset for the next session.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Memory in bits (one 32-bit counter per side, as FANcY accounts it).
    pub fn memory_bits() -> u64 {
        64
    }
}

/// One dedicated counter pair per entry, over a fixed entry universe.
#[derive(Debug, Clone)]
pub struct PerEntryCounters {
    index: std::collections::HashMap<Prefix, u32>,
    sent: Vec<u32>,
    received: Vec<u32>,
}

impl PerEntryCounters {
    /// Counters over the given universe.
    pub fn new(universe: &[Prefix]) -> Self {
        PerEntryCounters {
            index: universe
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as u32))
                .collect(),
            sent: vec![0; universe.len()],
            received: vec![0; universe.len()],
        }
    }

    /// Count a packet at the upstream point. Unknown entries are ignored
    /// (no counter exists for them — the coverage gap of the 1024-entry
    /// budget-constrained variant).
    pub fn on_upstream(&mut self, entry: Prefix) {
        if let Some(&i) = self.index.get(&entry) {
            self.sent[i as usize] += 1;
        }
    }

    /// Count a packet at the downstream point.
    pub fn on_downstream(&mut self, entry: Prefix) {
        if let Some(&i) = self.index.get(&entry) {
            self.received[i as usize] += 1;
        }
    }

    /// Entries with mismatching counters.
    pub fn mismatching(&self) -> Vec<Prefix> {
        let mut out: Vec<Prefix> = self
            .index
            .iter()
            .filter(|(_, &i)| self.sent[i as usize] > self.received[i as usize])
            .map(|(&p, _)| p)
            .collect();
        out.sort_unstable();
        out
    }

    /// Snapshot of the sent counters (for settle-delay comparison).
    pub fn snapshot_sent(&self) -> Vec<u32> {
        self.sent.clone()
    }

    /// Entries whose past sent-snapshot exceeds the current received
    /// counters — genuine losses once the snapshot's packets have settled.
    pub fn mismatching_vs(&self, snapshot: &[u32]) -> Vec<Prefix> {
        let mut out: Vec<Prefix> = self
            .index
            .iter()
            .filter(|(_, &i)| snapshot[i as usize] > self.received[i as usize])
            .map(|(&p, _)| p)
            .collect();
        out.sort_unstable();
        out
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        self.sent.iter_mut().for_each(|c| *c = 0);
        self.received.iter_mut().for_each(|c| *c = 0);
    }

    /// Memory in bits, with FANcY's 80-bit-per-entry protocol accounting.
    pub fn memory_bits(&self) -> u64 {
        self.sent.len() as u64 * DEDICATED_BITS_PER_ENTRY
    }
}

/// A counting Bloom filter: every entry hashes to `k` cells; upstream and
/// downstream maintain mirrored cell counters.
#[derive(Debug, Clone)]
pub struct CountingBloom {
    cells: usize,
    hashes: u32,
    seed: u64,
    sent: Vec<u32>,
    received: Vec<u32>,
}

impl CountingBloom {
    /// A filter with `cells` cells and `hashes` hash functions.
    pub fn new(cells: usize, hashes: u32, seed: u64) -> Self {
        assert!(cells > 0 && hashes > 0);
        CountingBloom {
            cells,
            hashes,
            seed,
            sent: vec![0; cells],
            received: vec![0; cells],
        }
    }

    /// The largest filter fitting FANcY's 20 KB/port budget with 32-bit
    /// cells on both sides: 20 KB·8 / 64 = 2560 cells, one hash function.
    ///
    /// One hash is what allows per-cell loss attribution (and is what
    /// reproduces the paper's "≈100 false positives" per single-entry
    /// failure: 250 K entries / 2560 cells ≈ 98 entries share each cell).
    pub fn budget_default(seed: u64) -> Self {
        CountingBloom::new(20 * 1024 * 8 / 64, 1, seed)
    }

    fn positions(&self, entry: Prefix) -> impl Iterator<Item = usize> + '_ {
        (0..self.hashes).map(move |i| {
            seeded_hash(
                self.seed ^ (u64::from(i) << 40),
                entry.as_u64(),
                self.cells as u64,
            ) as usize
        })
    }

    /// Count at the upstream point.
    pub fn on_upstream(&mut self, entry: Prefix) {
        for p in self.positions(entry).collect::<Vec<_>>() {
            self.sent[p] += 1;
        }
    }

    /// Count at the downstream point.
    pub fn on_downstream(&mut self, entry: Prefix) {
        for p in self.positions(entry).collect::<Vec<_>>() {
            self.received[p] += 1;
        }
    }

    /// The cell indices `entry` hashes to.
    pub fn cells_of(&self, entry: Prefix) -> Vec<usize> {
        self.positions(entry).collect()
    }

    /// Snapshot of the sent-side cells (for settle-delay comparison).
    pub fn snapshot_sent(&self) -> Vec<u32> {
        self.sent.clone()
    }

    /// Cells where a past sent-snapshot exceeds the *current* received
    /// counters: every packet in the snapshot has had time to arrive, so a
    /// positive difference is a genuine loss.
    pub fn mismatching_cells_vs(&self, snapshot: &[u32]) -> Vec<usize> {
        snapshot
            .iter()
            .enumerate()
            .filter(|&(i, &s)| s > self.received[i])
            .map(|(i, _)| i)
            .collect()
    }

    /// Does the filter implicate `entry`? True iff *all* its cells
    /// mismatch — Bloom semantics: no false negatives, collisions give
    /// false positives.
    pub fn implicates(&self, entry: Prefix) -> bool {
        self.positions(entry)
            .collect::<Vec<_>>()
            .into_iter()
            .all(|p| self.sent[p] > self.received[p])
    }

    /// All entries of `universe` the filter implicates.
    pub fn implicated<'a>(&'a self, universe: &'a [Prefix]) -> impl Iterator<Item = Prefix> + 'a {
        universe
            .iter()
            .copied()
            .filter(move |&e| self.implicates(e))
    }

    /// Reset all cells.
    pub fn reset(&mut self) {
        self.sent.iter_mut().for_each(|c| *c = 0);
        self.received.iter_mut().for_each(|c| *c = 0);
    }

    /// Memory in bits (32-bit cells, both sides).
    pub fn memory_bits(&self) -> u64 {
        self.cells as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe(n: u32) -> Vec<Prefix> {
        (0..n).map(Prefix).collect()
    }

    #[test]
    fn link_counter_detects_but_cannot_localize() {
        let mut c = LinkCounter::default();
        for _ in 0..100 {
            c.sent += 1;
        }
        for _ in 0..97 {
            c.received += 1;
        }
        assert_eq!(c.lost(), 3);
        assert_eq!(LinkCounter::memory_bits(), 64);
        c.reset();
        assert_eq!(c.lost(), 0);
    }

    #[test]
    fn per_entry_counters_are_exact() {
        let u = universe(1000);
        let mut c = PerEntryCounters::new(&u);
        for &e in &u {
            c.on_upstream(e);
            if e != Prefix(17) && e != Prefix(500) {
                c.on_downstream(e);
            }
        }
        assert_eq!(c.mismatching(), vec![Prefix(17), Prefix(500)]);
        c.reset();
        assert!(c.mismatching().is_empty());
    }

    #[test]
    fn per_entry_memory_matches_paper_scale() {
        // §5.2: one counter per entry over the ~250K-prefix universe needs
        // ~hundreds of MB at switch scale. Per 64-port switch:
        // 250 K × 80 bits × 64 ports ≈ 160 MB; the paper reports 320 MB for
        // its (per-direction doubled) accounting — same order of magnitude.
        let c = PerEntryCounters::new(&universe(250_000));
        let per_port_mb = c.memory_bits() as f64 / 8.0 / 1e6;
        let per_switch_mb = per_port_mb * 64.0;
        assert!(per_switch_mb > 100.0, "per-switch {per_switch_mb} MB");
        // ... versus FANcY's 1.25 MB total.
        assert!(per_switch_mb / 1.25 > 80.0);
    }

    #[test]
    fn unknown_entries_are_uncovered() {
        let mut c = PerEntryCounters::new(&universe(10));
        c.on_upstream(Prefix(99)); // no counter: silently uncovered
        assert!(c.mismatching().is_empty());
    }

    #[test]
    fn counting_bloom_has_no_false_negatives() {
        let u = universe(5000);
        let mut b = CountingBloom::budget_default(1);
        for &e in &u {
            for _ in 0..5 {
                b.on_upstream(e);
                if e != Prefix(123) {
                    b.on_downstream(e);
                }
            }
        }
        assert!(b.implicates(Prefix(123)));
    }

    #[test]
    fn counting_bloom_produces_collision_false_positives() {
        // §5.2: "for each detected single-entry failure, the Bloom filter
        // reports ≈100 false positives" at the 250 K-entry scale. At our
        // budget dimensions (2560 cells, 2 hashes) with a large universe,
        // a single failing entry implicates many colliding entries.
        let u = universe(250_000);
        let mut b = CountingBloom::budget_default(2);
        for &e in &u {
            b.on_upstream(e);
            if e != Prefix(9999) {
                b.on_downstream(e);
            }
        }
        let implicated: Vec<Prefix> = b.implicated(&u).collect();
        assert!(implicated.contains(&Prefix(9999)));
        let fps = implicated.len() - 1;
        // 250 K entries over 2560 cells ≈ 98 entries per cell — the paper's
        // "≈100 false positives" figure.
        assert!(
            (50..200).contains(&fps),
            "expected ≈100 collision FPs, got {fps}"
        );
    }

    #[test]
    fn counting_bloom_fits_fancy_budget() {
        let b = CountingBloom::budget_default(0);
        assert!(b.memory_bits() <= 20 * 1024 * 8);
        b.implicates(Prefix(1)); // usable immediately
    }
}
