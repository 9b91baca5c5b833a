//! Property tests of the simulator's conservation invariants.
//!
//! Whatever the topology, loss model or load: every packet put on a wire
//! is either delivered or accounted as a gray drop, and every packet
//! offered to a TM is either admitted or accounted as a congestion drop.
//! The TPR/FPR arithmetic of the whole evaluation rests on these.

use std::any::Any;

use proptest::prelude::*;

use fancy_net::Prefix;
use fancy_sim::prelude::*;

/// A node that sends a fixed schedule of UDP packets.
struct Blaster {
    schedule: Vec<(SimTime, u32, u32)>, // (time, dst, size)
    sent: u64,
    congestion_dropped: u64,
}

impl Node for Blaster {
    fn on_start(&mut self, ctx: &mut Kernel) {
        for (i, &(t, _, _)) in self.schedule.iter().enumerate() {
            ctx.schedule_timer(t.duration_since(SimTime::ZERO), i as u64);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Kernel, _port: PortId, _pkt: PacketRef) {}
    fn on_timer(&mut self, ctx: &mut Kernel, token: u64) {
        let (_, dst, size) = self.schedule[token as usize];
        let pkt = PacketBuilder::new(
            1,
            dst,
            size,
            PacketKind::Udp {
                flow: 0,
                seq: token,
            },
        )
        .build();
        if ctx.send(0, pkt) {
            self.sent += 1;
        } else {
            self.congestion_dropped += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sent_equals_received_plus_dropped(
        seed in any::<u64>(),
        n in 1usize..400,
        loss in 0.0f64..1.0,
        bw_kbps in 64u64..100_000,
        tm_capacity in 1_500u64..100_000,
    ) {
        let mut net = Network::new(seed);
        let schedule: Vec<(SimTime, u32, u32)> = (0..n)
            .map(|i| {
                (
                    SimTime((i as u64 * 7919) % 1_000_000_000),
                    0x0A_00_00_01 + (i as u32 % 5) * 256,
                    64 + (i as u32 * 97) % 1400,
                )
            })
            .collect();
        let tx = net.add_node(Box::new(Blaster {
            schedule,
            sent: 0,
            congestion_dropped: 0,
        }));
        let rx = net.add_node(Box::new(SinkNode::default()));
        let cfg = LinkConfig::new(bw_kbps * 1000, SimDuration::from_millis(3))
            .with_tm_capacity(tm_capacity);
        let link = net.connect(tx, rx, cfg);
        net.kernel.add_failure(link, tx, GrayFailure::uniform(loss, SimTime::ZERO));
        net.run_to_end();

        let sent = net.node::<Blaster>(tx).sent;
        let cong = net.node::<Blaster>(tx).congestion_dropped;
        let received = net.node::<SinkNode>(rx).packets;
        let gray = net.kernel.records.total_gray_drops();

        // Conservation: wire admissions = deliveries + gray drops.
        prop_assert_eq!(sent, received + gray, "wire conservation");
        // Kernel and sender agree on congestion accounting.
        prop_assert_eq!(cong, net.kernel.records.congestion_drops);
        // Everything offered is accounted somewhere.
        prop_assert_eq!(sent + cong, n as u64);
        // Byte-level ground truth is consistent with packet counts.
        let gray_bytes: u64 = net.kernel.records.gray_drops.values().map(|s| s.bytes).sum();
        let rx_bytes = net.node::<SinkNode>(rx).bytes;
        prop_assert_eq!(net.kernel.link(link).tx_bytes(0), gray_bytes + rx_bytes);
    }

    #[test]
    fn per_entry_ground_truth_sums_to_total(
        seed in any::<u64>(),
        loss in 0.05f64..1.0,
    ) {
        let mut net = Network::new(seed);
        let schedule: Vec<(SimTime, u32, u32)> = (0..300usize)
            .map(|i| (SimTime(i as u64 * 1_000_000), 0x0B_00_00_00 + (i as u32 % 7) * 256, 500))
            .collect();
        let tx = net.add_node(Box::new(Blaster { schedule, sent: 0, congestion_dropped: 0 }));
        let rx = net.add_node(Box::new(SinkNode::default()));
        let link = net.connect(tx, rx, LinkConfig::new(10_000_000, SimDuration::from_millis(1)));
        net.kernel.add_failure(link, tx, GrayFailure::uniform(loss, SimTime::ZERO));
        net.run_to_end();
        let per_entry: u64 = net.kernel.records.gray_drops.values().map(|s| s.count).sum();
        prop_assert_eq!(per_entry, net.kernel.records.total_gray_drops());
        // Only entries that actually carry traffic appear in the ledger.
        for entry in net.kernel.records.gray_drops.keys() {
            prop_assert!(entry.0 >= 0x0B_00_00 && entry.0 < 0x0B_00_08, "entry {entry}");
        }
        // First-drop times are within the run and ordered vs last.
        for s in net.kernel.records.gray_drops.values() {
            prop_assert!(s.first.unwrap() <= s.last.unwrap());
        }
    }

    #[test]
    fn entry_scoped_failures_never_touch_other_entries(
        seed in any::<u64>(),
        victim_idx in 0u32..7,
    ) {
        let victim = Prefix(0x0C_00_00 + victim_idx);
        let mut net = Network::new(seed);
        let schedule: Vec<(SimTime, u32, u32)> = (0..200usize)
            .map(|i| (SimTime(i as u64 * 2_000_000), (0x0C_00_00 + (i as u32 % 7)) << 8 | 1, 400))
            .collect();
        let tx = net.add_node(Box::new(Blaster { schedule, sent: 0, congestion_dropped: 0 }));
        let rx = net.add_node(Box::new(SinkNode::default()));
        let link = net.connect(tx, rx, LinkConfig::new(100_000_000, SimDuration::from_millis(1)));
        net.kernel.add_failure(link, tx, GrayFailure::single_entry(victim, 1.0, SimTime::ZERO));
        net.run_to_end();
        for (entry, s) in &net.kernel.records.gray_drops {
            prop_assert_eq!(*entry, victim, "dropped {} packets of {}", s.count, entry);
        }
    }
}
