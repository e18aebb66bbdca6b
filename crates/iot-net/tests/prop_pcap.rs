//! Seeded property tests for the pcap read paths, all walks of the one
//! `PcapCursor`: strict reads and salvage must reproduce every clean
//! capture byte-for-byte, salvage must account for every byte of a
//! degraded one, and every link type other than Ethernet must be refused.

use iot_core::rng::StdRng;
use iot_net::pcap::{
    from_bytes, to_bytes, Capture, PcapCursor, PcapWriter, GLOBAL_HEADER_LEN, LINKTYPE_ETHERNET,
};
use iot_net::{Error, MacAddr, Packet, PacketBuilder, TcpFlags};
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

#[test]
fn all_read_paths_agree_on_clean_captures() {
    let mut rng = StdRng::seed_from_u64(0xC1EA7);
    for case in 0..CASES {
        let packets = random_packets(&mut rng);
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for p in &packets {
            let (sec, usec) = (p.ts_micros / 1_000_000, p.ts_micros % 1_000_000);
            // An orig_len of 0 is written as the captured length.
            w.write_record_parts(sec as u32, usec as u32, 0, &p.data).unwrap();
        }
        let bytes = w.finish().unwrap();

        // Capture::push writes the raw-record writer's byte stream.
        let cap = Capture::from_packets(&packets).unwrap();
        assert_eq!(cap.as_bytes(), &bytes[..], "case {case}: capture bytes differ");
        assert_eq!(cap.record_count(), packets.len());

        // Strict read == lenient salvage == the original packets, byte for
        // byte.
        let strict = from_bytes(&bytes).unwrap();
        let (salvaged, stats) = Capture::salvage(&bytes).unwrap();
        assert_eq!(strict, packets, "case {case}: strict read diverged");
        assert_eq!(salvaged, cap, "case {case}: salvage diverged");
        assert!(stats.is_pristine(), "case {case}: clean capture not pristine");
        assert_eq!(cap.to_packets(), packets, "case {case}: capture views diverged");

        // Any other link type, in the capture's own byte order, is refused.
        let link_type = LINKTYPE_ETHERNET + rng.gen_range(1..300) as u32;
        let mut other = bytes.clone();
        other[20..24].copy_from_slice(&link_type.to_le_bytes());
        let strict = PcapCursor::strict(&other).err();
        for refused in [strict, PcapCursor::lenient(&other).err()] {
            assert!(
                matches!(refused, Some(Error::UnsupportedLinkType(t)) if t == link_type),
                "case {case}: link type {link_type} read as Ethernet"
            );
        }
    }
}

#[test]
fn salvage_accounts_for_every_byte_of_degraded_captures() {
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
        let (salvaged, stats) = Capture::salvage(&bytes).unwrap();
        let kept_records = salvaged.record_count() as u64;
        assert_eq!(stats.records_ok, kept_records, "case {case}");
        // Salvage re-frames each kept record exactly as it was framed.
        let kept = (salvaged.byte_len() - GLOBAL_HEADER_LEN) as u64;
        assert_eq!(
            kept + stats.bytes_skipped + stats.torn_tail_bytes,
            (bytes.len() - GLOBAL_HEADER_LEN) as u64,
            "case {case}: salvage ledger does not conserve bytes: {stats:?}"
        );
    }
}
