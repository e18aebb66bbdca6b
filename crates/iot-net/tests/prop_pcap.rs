//! Seeded property tests for the four pcap read paths: the strict and
//! lenient streaming readers and the strict and lenient zero-copy
//! cursors must agree byte-for-byte on every clean capture, and the
//! cursors must equal the materializing readers (packets *and* salvage
//! stats) on degraded input too.

use iot_core::rng::StdRng;
use iot_net::pcap::{from_bytes, from_bytes_lenient, to_bytes, Capture, PcapCursor};
use iot_net::{MacAddr, Packet, PacketBuilder, TcpFlags};
use std::net::Ipv4Addr;

const CASES: usize = 64;

/// A seeded, varied clean capture: random mix of TCP/UDP frames with
/// monotone timestamps and random payload sizes (including empty).
fn random_packets(rng: &mut StdRng) -> Vec<Packet> {
    let mut b = PacketBuilder::new(
        MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, rng.gen_range(0..255) as u8),
        MacAddr::new(0x00, 0x16, 0x3e, 0, 0, 2),
        Ipv4Addr::new(192, 168, 10, rng.gen_range(2..200) as u8),
        Ipv4Addr::new(52, 84, rng.gen_range(0..255) as u8, 9),
    );
    let n = rng.gen_range(0..20);
    let mut ts = rng.gen_range(0..10_000_000) as u64;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        ts += rng.gen_range(1..500_000) as u64;
        let payload: Vec<u8> = (0..rng.gen_range(0..512)).map(|_| rng.gen_range(0..256) as u8).collect();
        if rng.gen_range(0..2) == 0 {
            out.push(b.tcp_packet(
                ts,
                49152 + i as u16,
                443,
                i as u32,
                0,
                TcpFlags::ACK,
                &payload,
            ));
        } else {
            out.push(b.udp_packet(ts, 50000 + i as u16, 53, &payload));
        }
    }
    out
}

fn cursor_packets(cur: PcapCursor<'_>) -> Vec<Packet> {
    cur.map(|v| v.expect("clean capture").to_packet()).collect()
}

#[test]
fn all_read_paths_agree_on_clean_captures() {
    let mut rng = StdRng::seed_from_u64(0xC1EA7);
    for case in 0..CASES {
        let packets = random_packets(&mut rng);
        let bytes = to_bytes(&packets).unwrap();

        // Capture::push writes the identical byte stream.
        let cap = Capture::from_packets(&packets).unwrap();
        assert_eq!(cap.as_bytes(), &bytes[..], "case {case}: capture bytes differ");
        assert_eq!(cap.record_count(), packets.len());

        // Strict reader == strict cursor == lenient reader == lenient
        // cursor == the original packets, byte for byte.
        let strict = from_bytes(&bytes).unwrap();
        let (lenient, stats) = from_bytes_lenient(&bytes).unwrap();
        let cur_strict = cursor_packets(PcapCursor::strict(&bytes).unwrap());
        let cur_lenient = cursor_packets(PcapCursor::lenient(&bytes).unwrap());
        assert_eq!(strict, packets, "case {case}: strict reader diverged");
        assert_eq!(lenient, packets, "case {case}: lenient reader diverged");
        assert_eq!(cur_strict, packets, "case {case}: strict cursor diverged");
        assert_eq!(cur_lenient, packets, "case {case}: lenient cursor diverged");
        assert!(stats.is_pristine(), "case {case}: clean capture not pristine");
        assert_eq!(cap.to_packets(), packets, "case {case}: capture views diverged");
    }
}

#[test]
fn lenient_cursor_matches_lenient_reader_on_degraded_captures() {
    let mut rng = StdRng::seed_from_u64(0xDE64AD);
    for case in 0..CASES {
        let packets = random_packets(&mut rng);
        let mut bytes = to_bytes(&packets).unwrap();
        // Degrade: truncate the tail, corrupt a window of bytes, or both.
        match rng.gen_range(0..3) {
            0 => {
                let keep = rng.gen_range(24..bytes.len().max(25));
                bytes.truncate(keep);
            }
            1 => {
                if bytes.len() > 25 {
                    let at = rng.gen_range(24..bytes.len());
                    let len = rng.gen_range(1..32).min(bytes.len() - at);
                    for b in &mut bytes[at..at + len] {
                        *b = rng.gen_range(0..256) as u8;
                    }
                }
            }
            _ => {
                if bytes.len() > 25 {
                    let at = rng.gen_range(24..bytes.len());
                    for b in &mut bytes[at..] {
                        *b ^= 0xEE;
                    }
                    let keep = rng.gen_range(24..bytes.len());
                    bytes.truncate(keep);
                }
            }
        }
        let (expect_pkts, expect_stats) = from_bytes_lenient(&bytes).unwrap();
        let mut cur = PcapCursor::lenient(&bytes).unwrap();
        let mut got = Vec::new();
        while let Some(v) = cur.next_view() {
            got.push(v.unwrap().to_packet());
        }
        assert_eq!(got, expect_pkts, "case {case}: packets diverged");
        assert_eq!(cur.stats(), expect_stats, "case {case}: stats diverged");
    }
}
