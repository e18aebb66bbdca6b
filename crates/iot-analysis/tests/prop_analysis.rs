//! Property tests for the analysis layer: classification totality,
//! feature-vector invariants, and traffic-unit segmentation laws.
//! Driven by the in-tree deterministic PRNG with fixed seeds.

use iot_analysis::features::{extract_features, FEATURES_PER_SAMPLE};
use iot_analysis::unexpected::segment_units;
use iot_core::rng::StdRng;
use iot_entropy::Thresholds;
use iot_net::mac::MacAddr;
use iot_net::packet::{Packet, PacketBuilder};
use std::net::Ipv4Addr;

const CASES: usize = 64;

fn random_packets(rng: &mut StdRng) -> Vec<Packet> {
    let n = rng.gen_range(0usize..60);
    let mut specs: Vec<(u64, Vec<u8>)> = (0..n)
        .map(|_| {
            let ts = rng.gen_range(0u64..100_000_000);
            let mut payload = vec![0u8; rng.gen_range(0usize..600)];
            rng.fill(&mut payload);
            (ts, payload)
        })
        .collect();
    specs.sort_by_key(|(ts, _)| *ts);
    let mut b = PacketBuilder::new(
        MacAddr::new(1, 2, 3, 4, 5, 6),
        MacAddr::new(6, 5, 4, 3, 2, 1),
        Ipv4Addr::new(192, 168, 10, 9),
        Ipv4Addr::new(8, 8, 8, 8),
    );
    specs
        .into_iter()
        .map(|(ts, payload)| b.udp_packet(ts, 40000, 9999, &payload))
        .collect()
}

/// Feature extraction is total, fixed-width, and finite for any capture.
#[test]
fn features_total() {
    let mut rng = StdRng::seed_from_u64(0x91);
    for _ in 0..CASES {
        let packets = random_packets(&mut rng);
        let f = extract_features(&packets);
        assert_eq!(f.len(), FEATURES_PER_SAMPLE);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}

/// Features are invariant under uniform time translation (the paper's
/// classifier must not depend on wall-clock position).
#[test]
fn features_time_shift_invariant() {
    let mut rng = StdRng::seed_from_u64(0x92);
    for _ in 0..CASES {
        let packets = random_packets(&mut rng);
        let shift = rng.gen_range(0u64..1_000_000_000);
        let shifted: Vec<Packet> = packets
            .iter()
            .map(|p| Packet::new(p.ts_micros + shift, p.data.clone()))
            .collect();
        let a = extract_features(&packets);
        let b = extract_features(&shifted);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }
}

/// Segmentation partitions the capture: every packet lands in exactly
/// one unit, units are non-empty and time-ordered, and intra-unit gaps
/// never exceed the threshold.
#[test]
fn segmentation_partitions() {
    let mut rng = StdRng::seed_from_u64(0x93);
    for _ in 0..CASES {
        let packets = random_packets(&mut rng);
        let gap_s = rng.gen_range(0.1f64..10.0);
        let units = segment_units(&packets, gap_s);
        let total: usize = units.iter().map(|u| u.len()).sum();
        assert_eq!(total, packets.len());
        let gap_us = (gap_s * 1e6) as u64;
        for unit in &units {
            assert!(!unit.is_empty());
            for w in unit.windows(2) {
                assert!(w[1].ts_micros - w[0].ts_micros <= gap_us);
            }
        }
        // Consecutive units are separated by more than the gap.
        for w in units.windows(2) {
            let last = w[0].last().unwrap().ts_micros;
            let first = w[1].first().unwrap().ts_micros;
            assert!(first - last > gap_us);
        }
    }
}

/// A larger gap never yields more units.
#[test]
fn segmentation_monotone_in_gap() {
    let mut rng = StdRng::seed_from_u64(0x94);
    for _ in 0..CASES {
        let packets = random_packets(&mut rng);
        let small = segment_units(&packets, 0.5).len();
        let large = segment_units(&packets, 5.0).len();
        assert!(large <= small);
    }
}

/// Threshold classification is total over arbitrary flow payloads.
#[test]
fn classify_total() {
    use iot_net::flow::{Flow, FlowKey, FlowProto};
    let mut rng = StdRng::seed_from_u64(0x95);
    for _ in 0..CASES {
        let mut out = vec![0u8; rng.gen_range(0usize..2048)];
        rng.fill(&mut out);
        let mut inn = vec![0u8; rng.gen_range(0usize..2048)];
        rng.fill(&mut inn);
        let key = FlowKey {
            local_ip: Ipv4Addr::new(192, 168, 10, 2),
            local_port: 40000,
            remote_ip: Ipv4Addr::new(52, 1, 1, 1),
            remote_port: 8443,
            proto: FlowProto::Tcp,
        };
        let mut flow = Flow {
            key,
            first_ts: 0,
            last_ts: 1,
            packets_out: 1,
            packets_in: 1,
            bytes_out: out.len() as u64,
            bytes_in: inn.len() as u64,
            payload_out: out,
            payload_in: inn,
        };
        // Also exercise the media-exclusion branch with inflated volume.
        for bulk in [false, true] {
            if bulk {
                flow.bytes_out = 1_000_000;
            }
            let lf = iot_analysis::flows::LabeledFlow {
                flow: flow.clone(),
                protocol: iot_protocols::ProtocolId::Unknown,
                domain: None,
                domain_source: iot_analysis::flows::DomainSource::Unlabeled,
            };
            let _ = iot_analysis::encryption::classify_flow(&lf, &Thresholds::default());
        }
    }
}
