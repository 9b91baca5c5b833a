//! Gray-failure injection.
//!
//! The paper defines a gray failure as "any hardware malfunction that causes
//! non-transient packet loss on a subset of the traffic" and classifies real
//! vendor bugs along two axes (Table 1): which forwarding *entries* are
//! affected (one/some prefixes vs all) and which *packets* per entry are
//! dropped (some vs all). This module models every class in that table:
//!
//! | Table 1 cell | [`FailureMatcher`] |
//! |---|---|
//! | specific IP prefixes, all packets | `Entries` with `drop_prob = 1` |
//! | specific IP prefixes, some packets | `Entries` with `drop_prob < 1` |
//! | packets with specific sizes | `PacketSize` |
//! | packets with IP ID 0xE000 | `IpId` |
//! | packets with wrong CRC / random corruption | `Uniform` |
//! | packets from a specific line card | `SourceRange` (per ingress group) |
//! | traffic on certain ports / interface flaps | `Flap` windows |
//!
//! Failures are attached to links and sampled when a packet is put on the
//! wire — *after* the upstream traffic manager, so congestion drops are
//! never confused with gray drops (matching where FANcY places its
//! counters, §3).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use fancy_net::{ControlKind, Prefix};

use crate::packet::{Packet, PacketKind};
use crate::time::{SimDuration, SimTime};

/// Which packets a gray failure affects.
#[derive(Debug, Clone)]
pub enum FailureMatcher {
    /// Packets whose destination entry is in the given set.
    Entries(Vec<Prefix>),
    /// Every packet (e.g. random CRC corruption on a link).
    Uniform,
    /// Packets whose total size falls in `[min, max]` bytes
    /// (Cisco CSCtc33158: "drops random sized packets").
    PacketSize {
        /// Minimum matching size, inclusive.
        min: u32,
        /// Maximum matching size, inclusive.
        max: u32,
    },
    /// Packets with a specific IPv4 identification value
    /// (Cisco CSCuv31196: drops with IP ID 0xE000).
    IpId(u16),
    /// Packets from a contiguous source-address range, standing in for
    /// "packets sent from a specific line card" (Cisco CSCea91692).
    SourceRange {
        /// Lowest matching source address, inclusive.
        lo: u32,
        /// Highest matching source address, inclusive.
        hi: u32,
    },
    /// Interface flaps: the link drops *everything* during periodic windows
    /// (Juniper PR1441816/PR1459698-style blackhole episodes).
    Flap {
        /// Length of each blackhole episode.
        on: SimDuration,
        /// Gap between episodes.
        off: SimDuration,
    },
}

impl FailureMatcher {
    /// Does the matcher select this packet at time `now`? `start` is the
    /// owning failure's activation time: flap windows are phased relative
    /// to it, so a flap installed at t = 5 s starts its first on-window
    /// there instead of being phase-locked to t = 0.
    pub fn matches(&self, pkt: &Packet, now: SimTime, start: SimTime) -> bool {
        match self {
            FailureMatcher::Entries(set) => set.contains(&pkt.entry()),
            FailureMatcher::Uniform => true,
            FailureMatcher::PacketSize { min, max } => pkt.size >= *min && pkt.size <= *max,
            FailureMatcher::IpId(id) => pkt.ip_id == *id,
            FailureMatcher::SourceRange { lo, hi } => pkt.src >= *lo && pkt.src <= *hi,
            FailureMatcher::Flap { on, off } => {
                let period = on.as_nanos() + off.as_nanos();
                if period == 0 {
                    return false;
                }
                now.saturating_since(start).as_nanos() % period < on.as_nanos()
            }
        }
    }
}

/// A gray failure installed on a link.
#[derive(Debug, Clone)]
pub struct GrayFailure {
    /// Which packets are candidates for dropping.
    pub matcher: FailureMatcher,
    /// Probability that a matching packet is dropped (1.0 = blackhole).
    pub drop_prob: f64,
    /// Failure activation time.
    pub start: SimTime,
    /// Failure end (`SimTime::FAR_FUTURE` for permanent failures).
    pub end: SimTime,
}

impl GrayFailure {
    /// A permanent failure starting at `start`.
    pub fn new(matcher: FailureMatcher, drop_prob: f64, start: SimTime) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "drop_prob must be in [0,1]"
        );
        GrayFailure {
            matcher,
            drop_prob,
            start,
            end: SimTime::FAR_FUTURE,
        }
    }

    /// A permanent single-entry failure — the §5.1 workhorse.
    pub fn single_entry(entry: Prefix, drop_prob: f64, start: SimTime) -> Self {
        GrayFailure::new(FailureMatcher::Entries(vec![entry]), drop_prob, start)
    }

    /// A permanent multi-entry failure (§5.1.2's 100-entry scenarios).
    pub fn multi_entry(entries: Vec<Prefix>, drop_prob: f64, start: SimTime) -> Self {
        GrayFailure::new(FailureMatcher::Entries(entries), drop_prob, start)
    }

    /// A uniform random-loss failure over the whole link (§5.1.3).
    pub fn uniform(drop_prob: f64, start: SimTime) -> Self {
        GrayFailure::new(FailureMatcher::Uniform, drop_prob, start)
    }

    /// Is the failure active at `now`?
    #[inline]
    pub fn active(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }

    /// Should this packet be dropped? Samples the drop probability.
    pub fn drops(&self, pkt: &Packet, now: SimTime, rng: &mut impl Rng) -> bool {
        if !self.active(now) || !self.matcher.matches(pkt, now, self.start) {
            return false;
        }
        self.drop_prob >= 1.0 || rng.gen_bool(self.drop_prob)
    }
}

// ---------------------------------------------------------------------
// Adversarial fault models (the chaos layer).
//
// `GrayFailure` above models the *paper's* Table 1 classes: static,
// memoryless, drop-only. Real gray failures are nastier — SprayCheck
// observes bursty, time-correlated loss, and a robust reproduction must
// also survive faults aimed at the detector's own control plane. A
// `FaultPlan` composes such adversarial behaviors on a link direction:
// Gilbert–Elliott bursty loss, packet duplication and reordering on
// the wire, and a control-plane target that picks out
// `PacketKind::FancyControl` messages specifically.
//
// Every plan carries its *own* seeded RNG, so its decisions depend only
// on (seed, packet sequence) — never on how much randomness background
// traffic consumed from the kernel RNG. Identical plan + seed ⇒
// bit-identical verdicts at any worker-thread count.
// ---------------------------------------------------------------------

/// Which packets a [`FaultStage`] targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// Every packet put on the wire.
    All,
    /// Data packets only (everything that is not control traffic).
    Data,
    /// FANcY/NetSeer control traffic. `None` targets every control
    /// message; `Some(kinds)` only the listed bodies (e.g. drop every
    /// `Report` but let `Start`/`StartAck` through).
    Control(Option<Vec<ControlKind>>),
}

impl FaultTarget {
    /// Does this stage consider `pkt` at all?
    pub fn matches(&self, pkt: &Packet) -> bool {
        match self {
            FaultTarget::All => true,
            FaultTarget::Data => !pkt.is_control(),
            FaultTarget::Control(kinds) => match &pkt.kind {
                PacketKind::FancyControl(msg) => kinds
                    .as_ref()
                    .is_none_or(|ks| ks.contains(&msg.body.kind())),
                PacketKind::NetSeerNack { .. } => kinds.is_none(),
                _ => false,
            },
        }
    }
}

/// The loss process a [`FaultStage`] runs over its matched packets.
#[derive(Debug, Clone, PartialEq)]
pub enum LossProcess {
    /// No loss from this stage (duplication/reordering only).
    None,
    /// Memoryless loss with the given probability.
    Bernoulli(f64),
    /// Gilbert–Elliott bursty loss: a two-state Markov chain advanced
    /// once per matched packet. In the Good state packets drop with
    /// `loss_good` (usually 0), in the Bad state with `loss_bad`
    /// (usually near 1). `p_enter_bad` / `p_exit_bad` are the per-packet
    /// transition probabilities; the mean burst length is
    /// `1 / p_exit_bad` packets.
    GilbertElliott {
        /// Good → Bad transition probability per matched packet.
        p_enter_bad: f64,
        /// Bad → Good transition probability per matched packet.
        p_exit_bad: f64,
        /// Drop probability while Good.
        loss_good: f64,
        /// Drop probability while Bad.
        loss_bad: f64,
    },
}

/// One composable fault behavior inside a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultStage {
    /// Which packets this stage acts on.
    pub target: FaultTarget,
    /// The stage's loss process.
    pub loss: LossProcess,
    /// Probability that a surviving matched packet is duplicated on the
    /// wire (the copy arrives back-to-back with the original).
    pub dup_prob: f64,
    /// Probability that a surviving matched packet is held back by an
    /// extra delay drawn from `reorder_delay` — later traffic overtakes
    /// it, i.e. reordering.
    pub reorder_prob: f64,
    /// Extra-delay range `[min, max]` for reordered packets.
    pub reorder_delay: (SimDuration, SimDuration),
    /// Stage activation time.
    pub start: SimTime,
    /// Stage end (`SimTime::FAR_FUTURE` for permanent stages).
    pub end: SimTime,
    /// Gilbert–Elliott chain state: currently Bad?
    ge_bad: bool,
}

impl FaultStage {
    /// A stage over `target` with no loss, duplication or reordering;
    /// compose behaviors with the builder methods.
    pub fn new(target: FaultTarget) -> Self {
        FaultStage {
            target,
            loss: LossProcess::None,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            reorder_delay: (SimDuration::from_nanos(0), SimDuration::from_nanos(0)),
            start: SimTime::ZERO,
            end: SimTime::FAR_FUTURE,
            ge_bad: false,
        }
    }

    /// Memoryless loss with probability `p`.
    pub fn bernoulli(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss = LossProcess::Bernoulli(p);
        self
    }

    /// Gilbert–Elliott bursty loss (see [`LossProcess::GilbertElliott`]).
    pub fn gilbert_elliott(
        mut self,
        p_enter_bad: f64,
        p_exit_bad: f64,
        loss_good: f64,
        loss_bad: f64,
    ) -> Self {
        for p in [p_enter_bad, p_exit_bad, loss_good, loss_bad] {
            assert!(
                (0.0..=1.0).contains(&p),
                "GE probabilities must be in [0,1]"
            );
        }
        self.loss = LossProcess::GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good,
            loss_bad,
        };
        self
    }

    /// Duplicate surviving matched packets with probability `p`.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability must be in [0,1]");
        self.dup_prob = p;
        self
    }

    /// Reorder surviving matched packets with probability `p`, holding
    /// them back by an extra delay uniform in `[min, max]`.
    pub fn reorder(mut self, p: f64, min: SimDuration, max: SimDuration) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "reorder probability must be in [0,1]"
        );
        assert!(min <= max, "reorder delay range must be min <= max");
        self.reorder_prob = p;
        self.reorder_delay = (min, max);
        self
    }

    /// Restrict the stage to the window `[start, end)`.
    pub fn window(mut self, start: SimTime, end: SimTime) -> Self {
        self.start = start;
        self.end = end;
        self
    }

    /// Activate the stage at `start` (permanent).
    pub fn starting(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    fn active(&self, now: SimTime) -> bool {
        now >= self.start && now < self.end
    }

    /// Advance the loss process for one matched packet and decide a drop.
    fn drops(&mut self, rng: &mut SmallRng) -> bool {
        match &self.loss {
            LossProcess::None => false,
            LossProcess::Bernoulli(p) => *p >= 1.0 || rng.gen_bool(*p),
            LossProcess::GilbertElliott {
                p_enter_bad,
                p_exit_bad,
                loss_good,
                loss_bad,
            } => {
                let flip = if self.ge_bad {
                    *p_exit_bad
                } else {
                    *p_enter_bad
                };
                let (flip, loss_good, loss_bad) = (flip, *loss_good, *loss_bad);
                if rng.gen_bool(flip) {
                    self.ge_bad = !self.ge_bad;
                }
                let p = if self.ge_bad { loss_bad } else { loss_good };
                p >= 1.0 || (p > 0.0 && rng.gen_bool(p))
            }
        }
    }
}

/// Uniform duration in `[min, max]` (inclusive); no RNG draw when the
/// range is a point, so fixed-delay stages stay hand-countable.
fn sample_duration(rng: &mut SmallRng, range: (SimDuration, SimDuration)) -> SimDuration {
    let (lo, hi) = (range.0.as_nanos(), range.1.as_nanos());
    if hi <= lo {
        return range.0;
    }
    SimDuration::from_nanos(lo + rng.gen_range(0..=(hi - lo)))
}

/// The chaos layer's decision for one wire packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultVerdict {
    /// Drop the packet on the wire.
    pub drop: bool,
    /// Schedule a duplicate arrival alongside the original.
    pub duplicate: bool,
    /// Hold the packet back by this extra delay (reordering).
    pub extra_delay: Option<SimDuration>,
}

impl FaultVerdict {
    /// Did the chaos layer touch this packet at all?
    pub fn acted(&self) -> bool {
        self.drop || self.duplicate || self.extra_delay.is_some()
    }
}

/// A composable, seeded adversarial fault model for one link direction.
///
/// Stages are evaluated in insertion order per packet; the first stage
/// that decides a drop wins, and duplication/reordering compose across
/// stages (first reorder delay wins). All randomness comes from the
/// plan's own RNG, so verdicts are a pure function of (seed, packet
/// sequence) — the sweep engine's bit-identical guarantee extends to
/// chaos runs unchanged.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    stages: Vec<FaultStage>,
    rng: SmallRng,
    /// The seed the plan was built with (reports, reproduction).
    pub seed: u64,
}

impl FaultPlan {
    /// An empty plan drawing randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            stages: Vec::new(),
            rng: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Append a stage (builder style).
    pub fn stage(mut self, stage: FaultStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Convenience: a plan that drops control traffic (all of it, or only
    /// the listed kinds) with probability `p` — the §4.1 robustness
    /// scenario where FANcY's own messages traverse the failed link.
    pub fn control_loss(seed: u64, kinds: Option<Vec<ControlKind>>, p: f64) -> Self {
        FaultPlan::new(seed).stage(FaultStage::new(FaultTarget::Control(kinds)).bernoulli(p))
    }

    /// The plan's stages (inspection, reports).
    pub fn stages(&self) -> &[FaultStage] {
        &self.stages
    }

    /// Evaluate every stage against one wire packet at its departure
    /// time, advancing stage state. Called by the kernel once per packet
    /// put on the wire of the direction this plan is installed on.
    pub fn apply(&mut self, pkt: &Packet, now: SimTime) -> FaultVerdict {
        let mut verdict = FaultVerdict::default();
        for stage in &mut self.stages {
            if !stage.active(now) || !stage.target.matches(pkt) {
                continue;
            }
            if stage.drops(&mut self.rng) {
                verdict.drop = true;
                return verdict;
            }
            if stage.dup_prob > 0.0 && self.rng.gen_bool(stage.dup_prob) {
                verdict.duplicate = true;
            }
            if verdict.extra_delay.is_none()
                && stage.reorder_prob > 0.0
                && self.rng.gen_bool(stage.reorder_prob)
            {
                verdict.extra_delay = Some(sample_duration(&mut self.rng, stage.reorder_delay));
            }
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketBuilder, PacketKind};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn pkt(dst: u32, size: u32, ip_id: u16) -> Packet {
        PacketBuilder::new(0x01000001, dst, size, PacketKind::Udp { flow: 0, seq: 0 })
            .ip_id(ip_id)
            .build()
    }

    #[test]
    fn entry_failure_matches_only_listed_prefixes() {
        let target = Prefix::from_addr(0x0A000100);
        let f = GrayFailure::single_entry(target, 1.0, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(f.drops(&pkt(0x0A000105, 1500, 0), SimTime::ZERO, &mut rng));
        assert!(!f.drops(&pkt(0x0A000205, 1500, 0), SimTime::ZERO, &mut rng));
    }

    #[test]
    fn failure_respects_start_time() {
        let f = GrayFailure::uniform(1.0, SimTime(5_000));
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(!f.drops(&pkt(1, 100, 0), SimTime(4_999), &mut rng));
        assert!(f.drops(&pkt(1, 100, 0), SimTime(5_000), &mut rng));
    }

    #[test]
    fn probabilistic_drop_rate_is_close() {
        let f = GrayFailure::uniform(0.1, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(42);
        let p = pkt(1, 100, 0);
        let drops = (0..100_000)
            .filter(|_| f.drops(&p, SimTime::ZERO, &mut rng))
            .count();
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed {rate}");
    }

    #[test]
    fn size_and_ipid_matchers() {
        let by_size = GrayFailure::new(
            FailureMatcher::PacketSize { min: 64, max: 128 },
            1.0,
            SimTime::ZERO,
        );
        let by_id = GrayFailure::new(FailureMatcher::IpId(0xE000), 1.0, SimTime::ZERO);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(by_size.drops(&pkt(1, 100, 0), SimTime::ZERO, &mut rng));
        assert!(!by_size.drops(&pkt(1, 1500, 0), SimTime::ZERO, &mut rng));
        assert!(by_id.drops(&pkt(1, 100, 0xE000), SimTime::ZERO, &mut rng));
        assert!(!by_id.drops(&pkt(1, 100, 0xE001), SimTime::ZERO, &mut rng));
    }

    #[test]
    fn flap_alternates_with_time() {
        let f = GrayFailure::new(
            FailureMatcher::Flap {
                on: SimDuration::from_millis(10),
                off: SimDuration::from_millis(90),
            },
            1.0,
            SimTime::ZERO,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let p = pkt(1, 100, 0);
        assert!(f.drops(&p, SimTime(5_000_000), &mut rng)); // inside on-window
        assert!(!f.drops(&p, SimTime(50_000_000), &mut rng)); // inside off-window
        assert!(f.drops(&p, SimTime(105_000_000), &mut rng)); // next period
    }

    #[test]
    fn source_range_models_line_card() {
        let f = GrayFailure::new(
            FailureMatcher::SourceRange {
                lo: 0x01000000,
                hi: 0x01FFFFFF,
            },
            1.0,
            SimTime::ZERO,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let mut inside = pkt(9, 100, 0);
        inside.src = 0x01ABCDEF;
        let mut outside = pkt(9, 100, 0);
        outside.src = 0x02000000;
        assert!(f.drops(&inside, SimTime::ZERO, &mut rng));
        assert!(!f.drops(&outside, SimTime::ZERO, &mut rng));
    }

    #[test]
    fn flap_phase_is_relative_to_start() {
        // The satellite bug: a flap installed at t=5s must open its first
        // on-window at t=5s, not stay phase-locked to the t=0 grid.
        let start = SimTime(5_000_000_000);
        let f = GrayFailure::new(
            FailureMatcher::Flap {
                on: SimDuration::from_millis(10),
                off: SimDuration::from_millis(90),
            },
            1.0,
            start,
        );
        let mut rng = SmallRng::seed_from_u64(1);
        let p = pkt(1, 100, 0);
        // 5ms into the window after start: inside the first on-window.
        assert!(f.drops(&p, start + SimDuration::from_millis(5), &mut rng));
        // 50ms after start: off-window, even though (now % period) < on.
        assert!(!f.drops(&p, start + SimDuration::from_millis(50), &mut rng));
        // Next period after start.
        assert!(f.drops(&p, start + SimDuration::from_millis(105), &mut rng));
    }

    // --- chaos layer -------------------------------------------------

    fn control_pkt(body: ControlBody) -> Packet {
        PacketBuilder::new(
            1,
            2,
            64,
            PacketKind::FancyControl(fancy_net::ControlMessage {
                kind: fancy_net::SessionKind::Tree,
                session_id: 7,
                body,
            }),
        )
        .build()
    }

    use fancy_net::ControlBody;

    #[test]
    fn fault_target_selects_packet_classes() {
        let data = pkt(1, 100, 0);
        let start = control_pkt(ControlBody::Start);
        let report = control_pkt(ControlBody::Report(vec![1, 2, 3]));

        assert!(FaultTarget::All.matches(&data));
        assert!(FaultTarget::All.matches(&start));
        assert!(FaultTarget::Data.matches(&data));
        assert!(!FaultTarget::Data.matches(&start));
        assert!(FaultTarget::Control(None).matches(&start));
        assert!(!FaultTarget::Control(None).matches(&data));
        let only_reports = FaultTarget::Control(Some(vec![ControlKind::Report]));
        assert!(only_reports.matches(&report));
        assert!(!only_reports.matches(&start));
    }

    #[test]
    fn bernoulli_one_drops_everything_and_zero_nothing() {
        let mut plan = FaultPlan::new(3).stage(FaultStage::new(FaultTarget::All).bernoulli(1.0));
        let p = pkt(1, 100, 0);
        for i in 0..64 {
            assert!(plan.apply(&p, SimTime(i)).drop);
        }
        let mut quiet = FaultPlan::new(3).stage(FaultStage::new(FaultTarget::All).bernoulli(0.0));
        for i in 0..64 {
            assert!(!quiet.apply(&p, SimTime(i)).acted());
        }
    }

    #[test]
    fn gilbert_elliott_loss_is_bursty() {
        // Mean burst length 1/p_exit = 20 packets; with memoryless loss at
        // the same average rate, runs of consecutive drops would be short.
        let mut plan = FaultPlan::new(99)
            .stage(FaultStage::new(FaultTarget::Data).gilbert_elliott(0.01, 0.05, 0.0, 1.0));
        let p = pkt(1, 100, 0);
        let outcomes: Vec<bool> = (0..20_000)
            .map(|i| plan.apply(&p, SimTime(i)).drop)
            .collect();
        let total = outcomes.iter().filter(|&&d| d).count();
        // Stationary loss rate = p_enter/(p_enter+p_exit) = 1/6 ≈ 0.167.
        let rate = total as f64 / outcomes.len() as f64;
        assert!((0.08..=0.30).contains(&rate), "loss rate {rate}");
        // Longest drop run must be far beyond anything Bernoulli produces.
        let mut longest = 0usize;
        let mut run = 0usize;
        for d in &outcomes {
            run = if *d { run + 1 } else { 0 };
            longest = longest.max(run);
        }
        assert!(longest >= 10, "longest burst only {longest} packets");
    }

    #[test]
    fn fault_plan_is_seed_deterministic() {
        let build = || {
            FaultPlan::new(0xC0FFEE).stage(
                FaultStage::new(FaultTarget::All)
                    .gilbert_elliott(0.05, 0.2, 0.01, 0.9)
                    .duplicate(0.1)
                    .reorder(
                        0.1,
                        SimDuration::from_micros(1),
                        SimDuration::from_micros(50),
                    ),
            )
        };
        let (mut a, mut b) = (build(), build());
        let p = pkt(1, 100, 0);
        for i in 0..5_000 {
            assert_eq!(a.apply(&p, SimTime(i)), b.apply(&p, SimTime(i)));
        }
        // A different seed diverges somewhere.
        let mut c = FaultPlan::new(0xBEEF).stage(
            FaultStage::new(FaultTarget::All)
                .gilbert_elliott(0.05, 0.2, 0.01, 0.9)
                .duplicate(0.1)
                .reorder(
                    0.1,
                    SimDuration::from_micros(1),
                    SimDuration::from_micros(50),
                ),
        );
        let mut d = build();
        let diverged = (0..5_000).any(|i| c.apply(&p, SimTime(i)) != d.apply(&p, SimTime(i)));
        assert!(diverged);
    }

    #[test]
    fn control_loss_plan_spares_data() {
        let mut plan = FaultPlan::control_loss(5, None, 1.0);
        assert!(
            plan.apply(&control_pkt(ControlBody::Start), SimTime(1))
                .drop
        );
        assert!(!plan.apply(&pkt(1, 100, 0), SimTime(2)).acted());
    }

    #[test]
    fn duplication_and_reordering_verdicts() {
        let mut plan =
            FaultPlan::new(9).stage(FaultStage::new(FaultTarget::All).duplicate(1.0).reorder(
                1.0,
                SimDuration::from_micros(3),
                SimDuration::from_micros(3),
            ));
        let v = plan.apply(&pkt(1, 100, 0), SimTime(1));
        assert!(!v.drop);
        assert!(v.duplicate);
        assert_eq!(v.extra_delay, Some(SimDuration::from_micros(3)));
    }

    #[test]
    fn stage_window_bounds_activity() {
        let mut plan = FaultPlan::new(4).stage(
            FaultStage::new(FaultTarget::All)
                .bernoulli(1.0)
                .window(SimTime(100), SimTime(200)),
        );
        let p = pkt(1, 100, 0);
        assert!(!plan.apply(&p, SimTime(99)).drop);
        assert!(plan.apply(&p, SimTime(100)).drop);
        assert!(plan.apply(&p, SimTime(199)).drop);
        assert!(!plan.apply(&p, SimTime(200)).drop);
    }

    #[test]
    fn first_dropping_stage_wins() {
        // Stage 1 drops only Reports; stage 2 drops everything. A Report
        // must be attributed before stage 2 ever sees it, and data packets
        // fall through to stage 2.
        let mut plan = FaultPlan::new(8)
            .stage(
                FaultStage::new(FaultTarget::Control(Some(vec![ControlKind::Report])))
                    .bernoulli(1.0),
            )
            .stage(FaultStage::new(FaultTarget::All).bernoulli(1.0));
        assert!(
            plan.apply(&control_pkt(ControlBody::Report(vec![])), SimTime(1))
                .drop
        );
        assert!(plan.apply(&pkt(1, 100, 0), SimTime(2)).drop);
        assert_eq!(plan.stages().len(), 2);
    }
}
