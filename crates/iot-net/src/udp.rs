//! UDP header parsing with pseudo-header checksum verification. Datagrams
//! are encoded in place by [`crate::packet::PacketBuilder`].

use crate::checksum::Checksum;
use crate::error::Error;
use crate::Result;
use std::net::Ipv4Addr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// A decoded UDP header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Parses a datagram, verifying length and checksum, and returns the
    /// header with the payload slice.
    pub fn parse<'a>(data: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(Self, &'a [u8])> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated {
                layer: "udp",
                needed: HEADER_LEN,
                available: data.len(),
            });
        }
        let length = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if length < HEADER_LEN || length > data.len() {
            return Err(Error::LengthMismatch {
                layer: "udp",
                claimed: length,
                actual: data.len(),
            });
        }
        let datagram = &data[..length];
        let found = u16::from_be_bytes([data[6], data[7]]);
        if found != 0 {
            // Checksum 0 means "not computed" in UDP-over-IPv4.
            let mut ck = Checksum::new();
            ck.push_pseudo_header(src, dst, crate::ipv4::protocol::UDP, length as u16);
            ck.push(datagram);
            let computed = ck.finish();
            if computed != 0 {
                return Err(Error::BadChecksum {
                    layer: "udp",
                    found,
                    computed,
                });
            }
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
            },
            &datagram[HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::packet::{PacketBuilder, ParsedPacket, TransportHeader};

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 8);
    const DST: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);
    /// Ethernet + IPv4 header bytes in front of the UDP datagram.
    const DATAGRAM_AT: usize = 34;

    /// The datagram (UDP header + payload) the builder encodes.
    fn datagram(h: &UdpHeader, payload: &[u8]) -> Vec<u8> {
        let mut b =
            PacketBuilder::new(MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::BROADCAST, SRC, DST);
        b.udp_packet(0, h.src_port, h.dst_port, payload).data[DATAGRAM_AT..].to_vec()
    }

    #[test]
    fn roundtrip() {
        let h = UdpHeader {
            src_port: 53124,
            dst_port: 53,
        };
        let mut b =
            PacketBuilder::new(MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::BROADCAST, SRC, DST);
        let pkt = b.udp_packet(0, h.src_port, h.dst_port, b"dns query bytes");
        let parsed = ParsedPacket::parse(&pkt.data).unwrap();
        assert_eq!(parsed.transport, TransportHeader::Udp(h.clone()));
        assert_eq!(parsed.payload, b"dns query bytes");
        let wire = datagram(&h, b"dns query bytes");
        let (parsed, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"dns query bytes");
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let h = UdpHeader {
            src_port: 123,
            dst_port: 123,
        };
        let mut wire = datagram(&h, b"ntp");
        wire[6] = 0;
        wire[7] = 0;
        assert!(UdpHeader::parse(&wire, SRC, DST).is_ok());
    }

    #[test]
    fn computed_zero_checksum_is_sent_as_all_ones() {
        // Pick the payload word that makes the one's-complement sum 0xffff,
        // i.e. a computed checksum of zero.
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut ck = crate::checksum::Checksum::new();
        ck.push_pseudo_header(SRC, DST, crate::ipv4::protocol::UDP, 10);
        ck.push(&[0, 1, 0, 2, 0, 10]);
        let word = ck.finish();
        let wire = datagram(&h, &word.to_be_bytes());
        assert_eq!(&wire[6..8], &[0xff, 0xff]);
        assert!(UdpHeader::parse(&wire, SRC, DST).is_ok());
    }

    #[test]
    fn corrupted_detected() {
        let h = UdpHeader {
            src_port: 1,
            dst_port: 2,
        };
        let mut wire = datagram(&h, b"payload");
        wire[9] ^= 0x80;
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, DST),
            Err(Error::BadChecksum { layer: "udp", .. })
        ));
    }

    #[test]
    fn length_field_honored_with_trailing_padding() {
        let h = UdpHeader {
            src_port: 9,
            dst_port: 10,
        };
        let mut wire = datagram(&h, b"abcd");
        wire.extend_from_slice(&[0u8; 16]);
        let (_, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(payload, b"abcd");
    }

    #[test]
    fn bad_length_rejected() {
        let h = UdpHeader {
            src_port: 9,
            dst_port: 10,
        };
        let mut wire = datagram(&h, b"abcd");
        wire[4] = 0xff;
        wire[5] = 0xff;
        assert!(matches!(
            UdpHeader::parse(&wire, SRC, DST),
            Err(Error::LengthMismatch { layer: "udp", .. })
        ));
    }
}
