//! MQTT 3.1.1 control packets (OASIS standard).
//!
//! Many consumer IoT devices publish telemetry over MQTT. The paper's
//! manual investigation (§5.2) found that appliances, home-automation
//! devices, and smart hubs run "proprietary protocols not known to
//! Wireshark, which are often partly encrypted" — in the simulator those
//! devices speak MQTT (recognizable) and vendor-proprietary framing
//! (unrecognizable), reproducing the mixed classification outcome.

use crate::error::ProtoError;
use crate::Result;

/// Standard MQTT port.
pub const PORT: u16 = 1883;

/// MQTT control packets understood by this codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MqttPacket {
    /// Client CONNECT with a client identifier.
    Connect {
        /// Client identifier (often contains the device id).
        client_id: String,
    },
    /// Server CONNACK.
    ConnAck,
    /// PUBLISH with topic and payload (QoS 0).
    Publish {
        /// Topic name.
        topic: String,
        /// Application payload.
        payload: Vec<u8>,
    },
    /// PINGREQ keepalive.
    PingReq,
    /// PINGRESP keepalive reply.
    PingResp,
}

/// Encodes the MQTT variable-length "remaining length" field.
fn encode_remaining_len(out: &mut Vec<u8>, mut len: usize) {
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if len == 0 {
            break;
        }
    }
}

/// Decodes a remaining-length field; returns (value, bytes consumed).
fn decode_remaining_len(data: &[u8]) -> Result<(usize, usize)> {
    let mut value = 0usize;
    let mut shift = 0u32;
    for (i, byte) in data.iter().enumerate().take(4) {
        value |= usize::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok((value, i + 1));
        }
        shift += 7;
    }
    Err(ProtoError::malformed("mqtt", "remaining length"))
}

fn encode_utf8(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn decode_utf8(data: &[u8]) -> Result<(String, &[u8])> {
    if data.len() < 2 {
        return Err(ProtoError::truncated("mqtt", "string length"));
    }
    let len = usize::from(u16::from_be_bytes([data[0], data[1]]));
    let bytes = data
        .get(2..2 + len)
        .ok_or_else(|| ProtoError::truncated("mqtt", "string body"))?;
    let s = std::str::from_utf8(bytes)
        .map_err(|_| ProtoError::malformed("mqtt", "non-utf8 string"))?;
    Ok((s.to_string(), &data[2 + len..]))
}

/// Appends a QoS-0 PUBLISH of `payload` on `topic` to `out`: the bytes of
/// [`MqttPacket::Publish`] without owning the topic and payload.
pub fn write_publish(out: &mut Vec<u8>, topic: &str, payload: &[u8]) {
    out.push(0x30);
    encode_remaining_len(out, 2 + topic.len() + payload.len());
    encode_utf8(out, topic);
    out.extend_from_slice(payload);
}

impl MqttPacket {
    /// Serializes the packet.
    pub fn encode(&self) -> Vec<u8> {
        let (first_byte, body): (u8, Vec<u8>) = match self {
            MqttPacket::Connect { client_id } => {
                let mut body = Vec::new();
                encode_utf8(&mut body, "MQTT"); // protocol name
                body.push(4); // protocol level 3.1.1
                body.push(0x02); // clean session
                body.extend_from_slice(&60u16.to_be_bytes()); // keepalive
                encode_utf8(&mut body, client_id);
                (0x10, body)
            }
            MqttPacket::ConnAck => (0x20, vec![0, 0]),
            MqttPacket::Publish { topic, payload } => {
                let mut out = Vec::with_capacity(7 + topic.len() + payload.len());
                write_publish(&mut out, topic, payload);
                return out;
            }
            MqttPacket::PingReq => (0xc0, Vec::new()),
            MqttPacket::PingResp => (0xd0, Vec::new()),
        };
        let mut out = vec![first_byte];
        encode_remaining_len(&mut out, body.len());
        out.extend_from_slice(&body);
        out
    }

    /// Parses one packet from the front of a stream; returns it and the rest.
    pub fn parse(data: &[u8]) -> Result<(MqttPacket, &[u8])> {
        if data.is_empty() {
            return Err(ProtoError::truncated("mqtt", "fixed header"));
        }
        let ptype = data[0] >> 4;
        let (len, len_bytes) = decode_remaining_len(&data[1..])?;
        let body_start = 1 + len_bytes;
        let body = data
            .get(body_start..body_start + len)
            .ok_or_else(|| ProtoError::truncated("mqtt", "body"))?;
        let rest = &data[body_start + len..];
        let packet = match ptype {
            1 => {
                let (proto, after) = decode_utf8(body)?;
                if proto != "MQTT" {
                    return Err(ProtoError::malformed("mqtt", format!("protocol {proto:?}")));
                }
                if after.len() < 4 {
                    return Err(ProtoError::truncated("mqtt", "connect flags"));
                }
                let (client_id, _) = decode_utf8(&after[4..])?;
                MqttPacket::Connect { client_id }
            }
            2 => MqttPacket::ConnAck,
            3 => {
                let (topic, payload) = decode_utf8(body)?;
                MqttPacket::Publish {
                    topic,
                    payload: payload.to_vec(),
                }
            }
            12 => MqttPacket::PingReq,
            13 => MqttPacket::PingResp,
            other => {
                return Err(ProtoError::Unsupported {
                    proto: "mqtt",
                    what: format!("packet type {other}"),
                })
            }
        };
        Ok((packet, rest))
    }
}

/// Heuristic: does this byte stream begin with a plausible MQTT CONNECT?
pub fn looks_like_mqtt(stream: &[u8]) -> bool {
    matches!(
        MqttPacket::parse(stream),
        Ok((MqttPacket::Connect { .. }, _))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_roundtrip() {
        let pkt = MqttPacket::Connect {
            client_id: "xiaomi-cleaner-01ab".into(),
        };
        let bytes = pkt.encode();
        let (parsed, rest) = MqttPacket::parse(&bytes).unwrap();
        assert_eq!(parsed, pkt);
        assert!(rest.is_empty());
    }

    #[test]
    fn publish_roundtrip() {
        let pkt = MqttPacket::Publish {
            topic: "device/telemetry".into(),
            payload: vec![1, 2, 3, 4],
        };
        let (parsed, _) = MqttPacket::parse(&pkt.encode()).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn stream_of_packets() {
        let mut stream = MqttPacket::Connect {
            client_id: "c".into(),
        }
        .encode();
        stream.extend_from_slice(&MqttPacket::PingReq.encode());
        let (first, rest) = MqttPacket::parse(&stream).unwrap();
        assert!(matches!(first, MqttPacket::Connect { .. }));
        let (second, rest2) = MqttPacket::parse(rest).unwrap();
        assert_eq!(second, MqttPacket::PingReq);
        assert!(rest2.is_empty());
    }

    #[test]
    fn large_publish_uses_multibyte_length() {
        let pkt = MqttPacket::Publish {
            topic: "t".into(),
            payload: vec![0xAA; 300],
        };
        let bytes = pkt.encode();
        assert!(bytes[1] & 0x80 != 0, "length must be multi-byte");
        let (parsed, _) = MqttPacket::parse(&bytes).unwrap();
        assert_eq!(parsed, pkt);
    }

    #[test]
    fn looks_like_mqtt_detects_connect_only() {
        let connect = MqttPacket::Connect {
            client_id: "dev".into(),
        }
        .encode();
        assert!(looks_like_mqtt(&connect));
        assert!(!looks_like_mqtt(&MqttPacket::PingReq.encode()));
        assert!(!looks_like_mqtt(b"GET / HTTP/1.1\r\n\r\n"));
        assert!(!looks_like_mqtt(&[0x10, 0x05, 0x00, 0x03, b'X', b'Y', b'Z']));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = MqttPacket::Connect {
            client_id: "abc".into(),
        }
        .encode();
        assert!(MqttPacket::parse(&bytes[..bytes.len() - 2]).is_err());
        assert!(MqttPacket::parse(&[]).is_err());
    }
}
