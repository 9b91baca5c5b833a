//! Property tests of the TCP flow model.

use proptest::prelude::*;

use fancy_net::Prefix;
use fancy_sim::{GrayFailure, LinkConfig, Network, SimDuration, SimTime};
use fancy_tcp::{FlowAction, FlowConfig, ReceiverHost, ScheduledFlow, SenderHost, TcpFlow};

/// Drive one pure flow through an arbitrary interleaving of events and
/// check its state invariants at every step.
fn check_invariants(f: &TcpFlow) {
    assert!(
        f.send_una <= f.next_seq,
        "una {} > next {}",
        f.send_una,
        f.next_seq
    );
    assert!(f.next_seq <= f.cfg.total_packets);
    assert!(f.cwnd >= 1.0, "cwnd collapsed: {}", f.cwnd);
    assert!(f.rto >= f.cfg.initial_rto);
    if f.done() {
        assert_eq!(f.send_una, f.cfg.total_packets);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flow_state_invariants_hold_under_any_event_order(
        total in 1u64..64,
        events in proptest::collection::vec(0u8..4, 1..200),
    ) {
        let mut f = TcpFlow::new(FlowConfig {
            rate_bps: 1_000_000,
            total_packets: total,
            pkt_size: 1500,
            initial_rto: fancy_tcp::DEFAULT_RTO,
        });
        let mut now = SimTime::ZERO;
        for e in events {
            now += SimDuration::from_millis(37);
            match e {
                0 => {
                    if f.can_send_new() {
                        let a = f.send_new(now);
                        let is_fresh_send = matches!(a, FlowAction::Send { retx: false, .. });
                        prop_assert!(is_fresh_send);
                    }
                }
                1 => {
                    // Cumulative ACK for anything in [una, next].
                    let ack = f.send_una + (f.next_seq - f.send_una) / 2 + 1;
                    let _ = f.on_ack(ack.min(f.next_seq), now);
                }
                2 => {
                    // Duplicate ACK.
                    let _ = f.on_ack(f.send_una, now);
                }
                _ => {
                    // Force the armed RTO (if any) to fire now.
                    if let Some(d) = f.rto_deadline {
                        let _ = f.on_rto(d.max(now));
                        now = d.max(now);
                    }
                }
            }
            check_invariants(&f);
        }
    }

    #[test]
    fn closed_loop_completion_implies_full_delivery(
        seed in any::<u64>(),
        loss_pct in 0u32..20,
        n_flows in 1usize..8,
    ) {
        // Flows over a lossy link: any flow the sender marks complete must
        // have had every packet acknowledged, and the receiver must have
        // seen every sequence number of it at least once.
        let entry = Prefix(0x0A_99_01);
        let flows: Vec<ScheduledFlow> = (0..n_flows)
            .map(|i| ScheduledFlow {
                start: SimTime(i as u64 * 200_000_000),
                dst: entry.host(1),
                cfg: FlowConfig {
                    rate_bps: 2_000_000,
                    total_packets: 30,
                    pkt_size: 1500,
                    initial_rto: fancy_tcp::DEFAULT_RTO,
                },
            })
            .collect();
        let mut net = Network::new(seed);
        let tx = net.add_node(Box::new(SenderHost::new(0x01_00_00_01, flows)));
        let rx = net.add_node(Box::new(ReceiverHost::new()));
        let link = net.connect(
            tx,
            rx,
            LinkConfig::new(100_000_000, SimDuration::from_millis(2)),
        );
        net.kernel.add_failure(
            link,
            tx,
            GrayFailure::uniform(f64::from(loss_pct) / 100.0, SimTime::ZERO),
        );
        net.run_until(SimTime(25_000_000_000));

        // "Complete ⇒ every packet acknowledged" is a debug assertion in
        // `SenderHost` at the completion transition, the last moment the
        // flow's state exists; this debug-profile run checks it for every
        // flow that completes.
        let sender: &SenderHost = net.node(tx);
        // Retransmission accounting is consistent with loss presence.
        if loss_pct == 0 {
            prop_assert_eq!(sender.stats.retransmissions, 0);
        }
        let receiver: &ReceiverHost = net.node(rx);
        let got = receiver.entries.get(&entry).map_or(0, |e| e.packets);
        let sent = sender.stats.data_packets;
        let gray = net.kernel.records.total_gray_drops();
        // ACK-direction losses can also eat ACKs, but data conservation
        // holds: data sent = data received + data dropped.
        // (ACKs are a different packet class: receiver only counts data.)
        prop_assert!(got <= sent);
        prop_assert!(sent - got <= gray + 5, "sent {sent} got {got} gray {gray}");
    }
}
