//! Composed packets: capture records, full-frame building, and full-frame
//! parsing.
//!
//! A [`Packet`] is what the simulated gateway captures: a timestamp plus the
//! raw frame bytes, exactly like a tcpdump record. [`PacketBuilder`]
//! assembles valid frames layer by layer, and [`ParsedPacket`] decodes a
//! captured frame back into typed headers.

use crate::checksum::Checksum;
use crate::ethernet::{EtherType, EthernetFrame};
use crate::ipv4::{protocol, Ipv4Header};
use crate::mac::MacAddr;
use crate::pcap::Capture;
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;
use crate::Result;
use std::net::Ipv4Addr;

/// A captured packet: microsecond timestamp plus raw frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Capture time in microseconds since the simulation epoch.
    pub ts_micros: u64,
    /// Raw Ethernet frame bytes.
    pub data: Vec<u8>,
}

impl Packet {
    /// Creates a packet from raw frame bytes.
    pub fn new(ts_micros: u64, data: impl Into<Vec<u8>>) -> Self {
        Packet {
            ts_micros,
            data: data.into(),
        }
    }

    /// Capture time in (possibly fractional) seconds.
    pub fn ts_seconds(&self) -> f64 {
        self.ts_micros as f64 / 1e6
    }

    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the frame is empty (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Decodes the frame into typed headers, rejecting non-IPv4 frames.
    pub fn parse(&self) -> Result<ParsedPacket<'_>> {
        ParsedPacket::parse(&self.data)
    }

    /// Decodes the frame as either IPv4 or ARP — the two frame kinds the
    /// simulated gateway captures.
    pub fn parse_frame(&self) -> Result<Frame<'_>> {
        let eth = EthernetFrame::parse(&self.data)?;
        match eth.ethertype {
            EtherType::Arp => Ok(Frame::Arp(crate::arp::ArpPacket::parse(eth.payload)?)),
            _ => Ok(Frame::Ip(ParsedPacket::parse(&self.data)?)),
        }
    }
}

/// A fully decoded frame: either an IPv4 packet or an ARP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// IPv4 over Ethernet.
    Ip(ParsedPacket<'a>),
    /// ARP over Ethernet (LAN-internal; ignored by the analyses).
    Arp(crate::arp::ArpPacket),
}

/// Transport-layer header of a parsed packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportHeader {
    /// TCP segment header.
    Tcp(TcpHeader),
    /// UDP datagram header.
    Udp(UdpHeader),
    /// Some other IP protocol; the raw protocol number is preserved.
    Other(u8),
}

impl TransportHeader {
    /// Source port, when the transport has ports.
    pub fn src_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Tcp(t) => Some(t.src_port),
            TransportHeader::Udp(u) => Some(u.src_port),
            TransportHeader::Other(_) => None,
        }
    }

    /// Destination port, when the transport has ports.
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            TransportHeader::Tcp(t) => Some(t.dst_port),
            TransportHeader::Udp(u) => Some(u.dst_port),
            TransportHeader::Other(_) => None,
        }
    }

    /// True for TCP.
    pub fn is_tcp(&self) -> bool {
        matches!(self, TransportHeader::Tcp(_))
    }
}

/// A fully decoded Ethernet/IPv4/{TCP,UDP} packet borrowing from the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket<'a> {
    /// Source hardware address.
    pub src_mac: MacAddr,
    /// Destination hardware address.
    pub dst_mac: MacAddr,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// Transport header.
    pub transport: TransportHeader,
    /// Application payload bytes.
    pub payload: &'a [u8],
}

impl<'a> ParsedPacket<'a> {
    /// Parses a raw Ethernet frame carrying IPv4.
    pub fn parse(frame: &'a [u8]) -> Result<Self> {
        let eth = EthernetFrame::parse(frame)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(crate::Error::Unsupported {
                layer: "ethernet",
                what: format!("ethertype {:?}", eth.ethertype),
            });
        }
        let (ip, ip_payload) = Ipv4Header::parse(eth.payload)?;
        let (transport, payload) = match ip.protocol {
            protocol::TCP => {
                let (tcp, p) = TcpHeader::parse(ip_payload, ip.src, ip.dst)?;
                (TransportHeader::Tcp(tcp), p)
            }
            protocol::UDP => {
                let (udp, p) = UdpHeader::parse(ip_payload, ip.src, ip.dst)?;
                (TransportHeader::Udp(udp), p)
            }
            other => (TransportHeader::Other(other), ip_payload),
        };
        Ok(ParsedPacket {
            src_mac: eth.src,
            dst_mac: eth.dst,
            ip,
            transport,
            payload,
        })
    }
}

/// Builder assembling valid full frames for the traffic generator.
///
/// [`PacketBuilder::tcp`] and [`PacketBuilder::udp`] are the one frame
/// encoder: they write the Ethernet, IPv4 and transport headers, the
/// payload and both checksums straight into the capture record's slot, so
/// no frame is built in a buffer of its own first.
/// [`PacketBuilder::tcp_packet`] and [`PacketBuilder::udp_packet`] run the
/// same encoder into an owned [`Packet`] for tests and cold paths.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    src_mac: MacAddr,
    dst_mac: MacAddr,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    identification: u16,
    ttl: u8,
}

/// The transport header of a frame being encoded.
enum Transport {
    Tcp {
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
    },
    Udp {
        src_port: u16,
        dst_port: u16,
    },
}

impl Transport {
    fn protocol(&self) -> u8 {
        match self {
            Transport::Tcp { .. } => protocol::TCP,
            Transport::Udp { .. } => protocol::UDP,
        }
    }

    fn header_len(&self) -> usize {
        match self {
            Transport::Tcp { .. } => crate::tcp::MIN_HEADER_LEN,
            Transport::Udp { .. } => crate::udp::HEADER_LEN,
        }
    }

    /// Full frame length for a payload of `payload_len` bytes.
    fn frame_len(&self, payload_len: usize) -> usize {
        crate::ethernet::HEADER_LEN + crate::ipv4::MIN_HEADER_LEN + self.header_len() + payload_len
    }
}

impl PacketBuilder {
    /// Starts a builder for frames between the given endpoints.
    pub fn new(src_mac: MacAddr, dst_mac: MacAddr, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Self {
        PacketBuilder {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            identification: 1,
            ttl: 64,
        }
    }

    /// Overrides the IP TTL (the simulator lowers it for frames that have
    /// crossed the VPN tunnel).
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Appends a TCP segment frame to `cap`, encoded in place.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        &mut self,
        cap: &mut Capture,
        ts_micros: u64,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Result<()> {
        let tcp = Transport::Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
        };
        cap.push_with(ts_micros, tcp.frame_len(payload.len()), |frame| {
            self.encode(frame, &tcp, payload)
        })
    }

    /// Appends a UDP datagram frame to `cap`, encoded in place.
    pub fn udp(
        &mut self,
        cap: &mut Capture,
        ts_micros: u64,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Result<()> {
        let udp = Transport::Udp { src_port, dst_port };
        cap.push_with(ts_micros, udp.frame_len(payload.len()), |frame| {
            self.encode(frame, &udp, payload)
        })
    }

    /// Builds a TCP segment frame as an owned packet.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_packet(
        &mut self,
        ts_micros: u64,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Packet {
        let tcp = Transport::Tcp {
            src_port,
            dst_port,
            seq,
            ack,
            flags,
        };
        self.packet(ts_micros, &tcp, payload)
    }

    /// Builds a UDP datagram frame as an owned packet.
    pub fn udp_packet(
        &mut self,
        ts_micros: u64,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Packet {
        self.packet(ts_micros, &Transport::Udp { src_port, dst_port }, payload)
    }

    fn packet(&mut self, ts_micros: u64, transport: &Transport, payload: &[u8]) -> Packet {
        let mut frame = vec![0u8; transport.frame_len(payload.len())];
        self.encode(&mut frame, transport, payload);
        Packet::new(ts_micros, frame)
    }

    /// Writes one whole frame into `frame`, which is exactly
    /// `transport.frame_len(payload.len())` bytes long.
    fn encode(&mut self, frame: &mut [u8], transport: &Transport, payload: &[u8]) {
        let proto = transport.protocol();
        let (eth, packet) = frame.split_at_mut(crate::ethernet::HEADER_LEN);
        crate::ethernet::write_header(eth, self.dst_mac, self.src_mac, EtherType::Ipv4);
        let (ip, segment) = packet.split_at_mut(crate::ipv4::MIN_HEADER_LEN);
        let mut header = Ipv4Header::for_payload(self.src_ip, self.dst_ip, proto, segment.len());
        header.identification = self.identification;
        header.ttl = self.ttl;
        self.identification = self.identification.wrapping_add(1);
        ip.copy_from_slice(&header.encode());

        let segment_len = segment.len() as u16;
        let (th, body) = segment.split_at_mut(transport.header_len());
        body.copy_from_slice(payload);
        // Header fields first, checksum field zero while summing.
        match *transport {
            Transport::Tcp {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
            } => {
                th[0..2].copy_from_slice(&src_port.to_be_bytes());
                th[2..4].copy_from_slice(&dst_port.to_be_bytes());
                th[4..8].copy_from_slice(&seq.to_be_bytes());
                th[8..12].copy_from_slice(&ack.to_be_bytes());
                th[12] = 0x50; // data offset 5 words
                th[13] = flags.0;
                th[14..16].copy_from_slice(&65535u16.to_be_bytes()); // window
                th[16..20].fill(0); // checksum, urgent pointer
            }
            Transport::Udp { src_port, dst_port } => {
                th[0..2].copy_from_slice(&src_port.to_be_bytes());
                th[2..4].copy_from_slice(&dst_port.to_be_bytes());
                th[4..6].copy_from_slice(&segment_len.to_be_bytes());
                th[6..8].fill(0); // checksum
            }
        }
        let mut ck = Checksum::new();
        ck.push_pseudo_header(self.src_ip, self.dst_ip, proto, segment_len);
        ck.push(segment);
        let sum = ck.finish();
        match transport {
            Transport::Tcp { .. } => segment[16..18].copy_from_slice(&sum.to_be_bytes()),
            // RFC 768: a computed zero checksum is transmitted as all-ones.
            Transport::Udp { .. } => {
                let sum = if sum == 0 { 0xffff } else { sum };
                segment[6..8].copy_from_slice(&sum.to_be_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn builder() -> PacketBuilder {
        PacketBuilder::new(
            MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, 1),
            MacAddr::new(0x00, 0x16, 0x3e, 0, 0, 2),
            Ipv4Addr::new(192, 168, 10, 21),
            Ipv4Addr::new(52, 84, 9, 9),
        )
    }

    #[test]
    fn tcp_frame_roundtrip() {
        let mut b = builder();
        let pkt = b.tcp_packet(
            1_000_000,
            49152,
            443,
            7,
            0,
            TcpFlags::PSH | TcpFlags::ACK,
            b"application bytes",
        );
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.src_mac, MacAddr::new(0xa4, 0xcf, 0x12, 0, 0, 1));
        assert_eq!(parsed.ip.dst, Ipv4Addr::new(52, 84, 9, 9));
        assert_eq!(parsed.transport.dst_port(), Some(443));
        assert!(parsed.transport.is_tcp());
        assert_eq!(parsed.payload, b"application bytes");
        assert_eq!(pkt.ts_seconds(), 1.0);
    }

    #[test]
    fn udp_frame_roundtrip() {
        let mut b = builder();
        let pkt = b.udp_packet(42, 5353, 53, b"query");
        let parsed = pkt.parse().unwrap();
        assert_eq!(parsed.transport.src_port(), Some(5353));
        assert_eq!(parsed.payload, b"query");
    }

    #[test]
    fn in_place_frames_match_owned_packets() {
        let (mut in_place, mut owned) = (builder(), builder());
        let mut cap = Capture::new();
        in_place
            .tcp(&mut cap, 5, 49152, 443, 7, 9, TcpFlags::ACK, b"segment")
            .unwrap();
        in_place.udp(&mut cap, 6, 5353, 53, b"odd").unwrap();
        let packets = [
            owned.tcp_packet(5, 49152, 443, 7, 9, TcpFlags::ACK, b"segment"),
            owned.udp_packet(6, 5353, 53, b"odd"),
        ];
        assert_eq!(cap, Capture::from_packets(&packets).unwrap());
        for p in &packets {
            p.parse().expect("checksums verify");
        }
    }

    #[test]
    fn identification_increments() {
        let mut b = builder();
        let p1 = b.udp_packet(0, 1, 2, b"a");
        let p2 = b.udp_packet(1, 1, 2, b"a");
        let id1 = p1.parse().unwrap().ip.identification;
        let id2 = p2.parse().unwrap().ip.identification;
        assert_eq!(id2, id1 + 1);
    }

    #[test]
    fn ttl_override() {
        let mut b = builder().ttl(50);
        let pkt = b.udp_packet(0, 1, 2, b"x");
        assert_eq!(pkt.parse().unwrap().ip.ttl, 50);
    }

    #[test]
    fn non_ip_frame_rejected_by_parse() {
        let eth = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::new(1, 2, 3, 4, 5, 6),
            ethertype: EtherType::Arp,
            payload: &[0u8; 28],
        };
        let pkt = Packet::new(0, eth.encode());
        assert!(pkt.parse().is_err());
    }
}
