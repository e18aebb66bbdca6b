//! TCP header parsing with pseudo-header checksum verification. Segments
//! are encoded in place by [`crate::packet::PacketBuilder`].

use crate::checksum::Checksum;
use crate::error::Error;
use crate::Result;
use std::fmt;
use std::net::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP control flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN flag.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST flag.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH flag.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK flag.
    pub const ACK: TcpFlags = TcpFlags(0x10);

    /// True if all flags in `other` are set in `self`.
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (bit, name) in [
            (Self::SYN, "SYN"),
            (Self::ACK, "ACK"),
            (Self::PSH, "PSH"),
            (Self::FIN, "FIN"),
            (Self::RST, "RST"),
        ] {
            if self.contains(bit) {
                parts.push(name);
            }
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// A decoded TCP header (options are not generated and are skipped on parse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
}

impl TcpHeader {
    /// Parses a header, verifies the checksum against the pseudo-header, and
    /// returns it with the segment payload.
    pub fn parse<'a>(data: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(Self, &'a [u8])> {
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                layer: "tcp",
                needed: MIN_HEADER_LEN,
                available: data.len(),
            });
        }
        let data_offset = usize::from(data[12] >> 4) * 4;
        if data_offset < MIN_HEADER_LEN || data.len() < data_offset {
            return Err(Error::Truncated {
                layer: "tcp",
                needed: data_offset.max(MIN_HEADER_LEN),
                available: data.len(),
            });
        }
        let mut ck = Checksum::new();
        ck.push_pseudo_header(src, dst, crate::ipv4::protocol::TCP, data.len() as u16);
        ck.push(data);
        let computed = ck.finish();
        if computed != 0 {
            let found = u16::from_be_bytes([data[16], data[17]]);
            return Err(Error::BadChecksum {
                layer: "tcp",
                found,
                computed,
            });
        }
        let header = TcpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
        };
        Ok((header, &data[data_offset..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mac::MacAddr;
    use crate::packet::{PacketBuilder, ParsedPacket, TransportHeader};

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 10, 7);
    const DST: Ipv4Addr = Ipv4Addr::new(52, 84, 1, 9);
    /// Ethernet + IPv4 header bytes in front of the TCP segment.
    const SEGMENT_AT: usize = 34;

    fn sample() -> TcpHeader {
        TcpHeader {
            src_port: 49152,
            dst_port: 443,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
        }
    }

    /// The whole frame the builder encodes for header `h` and `payload`.
    fn frame(h: &TcpHeader, payload: &[u8]) -> Vec<u8> {
        let mut b =
            PacketBuilder::new(MacAddr::new(2, 0, 0, 0, 0, 1), MacAddr::BROADCAST, SRC, DST);
        b.tcp_packet(0, h.src_port, h.dst_port, h.seq, h.ack, h.flags, payload)
            .data
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let wire = frame(&h, b"tls application data");
        let parsed = ParsedPacket::parse(&wire).unwrap();
        assert_eq!(parsed.transport, TransportHeader::Tcp(h.clone()));
        assert_eq!(parsed.payload, b"tls application data");
        let (segment, payload) = TcpHeader::parse(&wire[SEGMENT_AT..], SRC, DST).unwrap();
        assert_eq!((segment, payload), (h, &b"tls application data"[..]));
    }

    #[test]
    fn checksum_binds_addresses() {
        let wire = frame(&sample(), b"x");
        // Same bytes but claimed to be from a different source must fail.
        assert!(matches!(
            TcpHeader::parse(&wire[SEGMENT_AT..], Ipv4Addr::new(1, 2, 3, 4), DST),
            Err(Error::BadChecksum { layer: "tcp", .. })
        ));
    }

    #[test]
    fn corrupted_payload_detected() {
        let mut wire = frame(&sample(), b"hello world");
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert!(ParsedPacket::parse(&wire).is_err());
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn empty_payload() {
        let h = TcpHeader {
            flags: TcpFlags::SYN,
            ..sample()
        };
        let wire = frame(&h, &[]);
        let parsed = ParsedPacket::parse(&wire).unwrap();
        let TransportHeader::Tcp(tcp) = parsed.transport else {
            panic!("expected tcp");
        };
        assert!(tcp.flags.contains(TcpFlags::SYN));
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn truncated() {
        assert!(TcpHeader::parse(&[0u8; 8], SRC, DST).is_err());
    }
}
