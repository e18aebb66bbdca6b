//! Unexpected-behavior detection — RQ5 (§7, Table 11).
//!
//! Unlabeled traffic (idle or user-study captures) is segmented into
//! *traffic units* — maximal packet runs with inter-packet gaps below 2
//! seconds (§7.1) — and each unit is classified with the device's model,
//! using only models whose cross-validated F1 exceeds 0.9.

use crate::features::extract_features;
use crate::inference::{TrainedDeviceModel, F1_HIGH_CONFIDENCE};
use iot_net::packet::Packet;
use iot_testbed::device::split_interaction_label;
use iot_testbed::user_study::StudyEvent;
use std::collections::HashMap;

/// The traffic-unit gap of §7.1.
pub const UNIT_GAP_SECONDS: f64 = 2.0;

/// Minimum packets for a unit to be classifiable.
pub const MIN_UNIT_PACKETS: usize = 4;

/// Minimum forest vote share to report a detection.
pub const MIN_VOTE_SHARE: f64 = 0.5;

/// One detected activity instance.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Start time of the traffic unit (µs).
    pub at_micros: u64,
    /// Predicted experiment label (e.g. `local_move`).
    pub label: String,
    /// Forest vote share behind the prediction.
    pub confidence: f64,
    /// Packets in the unit.
    pub unit_packets: usize,
}

/// Splits a time-ordered capture into traffic units separated by gaps
/// greater than `gap_seconds`.
///
/// A timestamp regression (clock skew, merged captures, chaos-degraded
/// records) makes the real gap at that point unknowable; it is treated
/// as a unit boundary rather than silently fused — `saturating_sub`
/// would report a zero gap and merge units across a real idle period.
pub fn segment_units(packets: &[Packet], gap_seconds: f64) -> Vec<&[Packet]> {
    let gap_micros = (gap_seconds * 1e6) as u64;
    let mut units = Vec::new();
    let mut start = 0usize;
    for i in 1..packets.len() {
        let prev = packets[i - 1].ts_micros;
        let cur = packets[i].ts_micros;
        if cur < prev || cur - prev > gap_micros {
            units.push(&packets[start..i]);
            start = i;
        }
    }
    if start < packets.len() {
        units.push(&packets[start..]);
    }
    units
}

/// Classifies every sufficiently large traffic unit of an unlabeled
/// capture with a high-confidence model. Returns `None` when the model
/// does not meet the §7.1 F1 > 0.9 gate.
pub fn detect_activities(
    model: &TrainedDeviceModel,
    packets: &[Packet],
) -> Option<Vec<Detection>> {
    if model.cv_macro_f1 <= F1_HIGH_CONFIDENCE {
        return None;
    }
    let mut detections = Vec::new();
    for unit in segment_units(packets, UNIT_GAP_SECONDS) {
        if unit.len() < MIN_UNIT_PACKETS {
            continue;
        }
        let features = extract_features(unit);
        let (label, confidence) = model.predict(&features);
        if confidence < MIN_VOTE_SHARE {
            continue;
        }
        // Only trust labels that themselves validated well.
        if model.label_f1(label).unwrap_or(0.0) <= F1_HIGH_CONFIDENCE {
            continue;
        }
        detections.push(Detection {
            at_micros: unit[0].ts_micros,
            label: label.to_string(),
            confidence,
            unit_packets: unit.len(),
        });
    }
    Some(detections)
}

/// Aggregates detections into Table 11 rows: (label → count).
pub fn detection_counts(detections: &[Detection]) -> Vec<(String, usize)> {
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for d in detections {
        *counts.entry(&d.label).or_default() += 1;
    }
    let mut out: Vec<(String, usize)> = counts
        .into_iter()
        .map(|(l, c)| (l.to_string(), c))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out
}

/// §7.3 accounting for the user study: matches detections against the
/// ground-truth event log.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyMatchReport {
    /// Detections matching an intentional user action.
    pub matched_intentional: usize,
    /// Detections matching a passive (presence-triggered) event — the
    /// §7.3 privacy concern: recordings nobody asked for.
    pub matched_passive: usize,
    /// Detections with no ground-truth event nearby.
    pub unmatched: usize,
}

/// Matches detections for one device against its ground-truth events,
/// using a `window_secs` tolerance.
///
/// Events are consumed one-to-one: each detection greedily claims the
/// nearest-in-time unconsumed event for its activity inside the window,
/// so one study event can never corroborate several detections (which
/// would inflate the matched counts past the number of real actions).
pub fn match_against_ground_truth(
    device_name: &str,
    detections: &[Detection],
    events: &[StudyEvent],
    window_secs: f64,
) -> StudyMatchReport {
    let window = (window_secs * 1e6) as u64;
    let mine: Vec<&StudyEvent> = events
        .iter()
        .filter(|e| e.device_name == device_name)
        .collect();
    let mut consumed = vec![false; mine.len()];
    let mut report = StudyMatchReport::default();
    for d in detections {
        let activity = split_interaction_label(&d.label)
            .map(|(_, a)| a)
            .unwrap_or(&d.label);
        let matched = mine
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                !consumed[*i]
                    && e.activity == activity
                    && e.at_micros.abs_diff(d.at_micros) <= window
            })
            .min_by_key(|(_, e)| e.at_micros.abs_diff(d.at_micros))
            .map(|(i, _)| i);
        match matched {
            Some(i) => {
                consumed[i] = true;
                if mine[i].intentional {
                    report.matched_intentional += 1;
                } else {
                    report.matched_passive += 1;
                }
            }
            None => report.unmatched += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use iot_net::mac::MacAddr;
    use iot_net::packet::PacketBuilder;
    use std::net::Ipv4Addr;

    fn packet_at(ts: u64) -> Packet {
        let mut b = PacketBuilder::new(
            MacAddr::new(1, 1, 1, 1, 1, 1),
            MacAddr::new(2, 2, 2, 2, 2, 2),
            Ipv4Addr::new(192, 168, 10, 4),
            Ipv4Addr::new(8, 8, 8, 8),
        );
        b.udp_packet(ts, 4000, 9999, b"x")
    }

    #[test]
    fn segmentation_splits_on_gap() {
        let packets: Vec<Packet> = [0u64, 500_000, 1_000_000, 5_000_000, 5_200_000]
            .iter()
            .map(|&ts| packet_at(ts))
            .collect();
        let units = segment_units(&packets, 2.0);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].len(), 3);
        assert_eq!(units[1].len(), 2);
    }

    #[test]
    fn segmentation_edge_cases() {
        assert!(segment_units(&[], 2.0).is_empty());
        let single = vec![packet_at(0)];
        assert_eq!(segment_units(&single, 2.0).len(), 1);
        // Exactly at the gap boundary: same unit (strictly greater splits).
        let boundary: Vec<Packet> = [0u64, 2_000_000].iter().map(|&t| packet_at(t)).collect();
        assert_eq!(segment_units(&boundary, 2.0).len(), 1);
    }

    #[test]
    fn segmentation_splits_on_timestamp_regression() {
        // Chaos-skewed capture: the third timestamp regresses. The real
        // gap there is unknowable, so it must start a new unit; a
        // saturating subtraction would report a zero gap and fuse them.
        let packets: Vec<Packet> = [0u64, 1_000_000, 900_000, 5_000_000]
            .iter()
            .map(|&ts| packet_at(ts))
            .collect();
        let units = segment_units(&packets, 2.0);
        assert_eq!(units.len(), 3, "regression must open a unit boundary");
        assert_eq!(units[0].len(), 2);
        assert_eq!(units[1].len(), 1);
        assert_eq!(units[2].len(), 1);

        // A regression can also hide a *real* idle gap entirely: 5000s
        // of capture followed by a record stamped near zero. One fused
        // unit here would merge traffic from both sides of the skew.
        let hidden: Vec<Packet> = [5_000_000_000u64, 5_000_100_000, 100]
            .iter()
            .map(|&ts| packet_at(ts))
            .collect();
        assert_eq!(segment_units(&hidden, 2.0).len(), 2);
    }

    #[test]
    fn detection_counts_sorted() {
        let detections = vec![
            Detection { at_micros: 0, label: "local_move".into(), confidence: 0.9, unit_packets: 10 },
            Detection { at_micros: 1, label: "local_move".into(), confidence: 0.8, unit_packets: 12 },
            Detection { at_micros: 2, label: "power".into(), confidence: 0.7, unit_packets: 30 },
        ];
        let counts = detection_counts(&detections);
        assert_eq!(counts[0], ("local_move".to_string(), 2));
        assert_eq!(counts[1], ("power".to_string(), 1));
    }

    #[test]
    fn ground_truth_matching() {
        let events = vec![
            StudyEvent { at_micros: 1_000_000, device_name: "Ring Doorbell", activity: "move", intentional: false },
            StudyEvent { at_micros: 60_000_000, device_name: "Ring Doorbell", activity: "ring", intentional: true },
            StudyEvent { at_micros: 90_000_000, device_name: "Samsung Fridge", activity: "door_open", intentional: true },
        ];
        let detections = vec![
            Detection { at_micros: 2_000_000, label: "local_move".into(), confidence: 0.9, unit_packets: 10 },
            Detection { at_micros: 61_000_000, label: "local_ring".into(), confidence: 0.9, unit_packets: 10 },
            Detection { at_micros: 500_000_000, label: "local_move".into(), confidence: 0.9, unit_packets: 10 },
        ];
        let report = match_against_ground_truth("Ring Doorbell", &detections, &events, 30.0);
        assert_eq!(report.matched_passive, 1);
        assert_eq!(report.matched_intentional, 1);
        assert_eq!(report.unmatched, 1);
    }

    #[test]
    fn ground_truth_events_consumed_one_to_one() {
        // Two detections bracket one real event: only the nearer one may
        // claim it. Counting the event twice would report two confirmed
        // actions where the user performed one.
        let events = vec![
            StudyEvent { at_micros: 10_000_000, device_name: "Ring Doorbell", activity: "ring", intentional: true },
        ];
        let detections = vec![
            Detection { at_micros: 8_000_000, label: "local_ring".into(), confidence: 0.9, unit_packets: 10 },
            Detection { at_micros: 11_000_000, label: "local_ring".into(), confidence: 0.9, unit_packets: 10 },
        ];
        let report = match_against_ground_truth("Ring Doorbell", &detections, &events, 30.0);
        assert_eq!(report.matched_intentional, 1, "one event, one match");
        assert_eq!(report.matched_passive, 0);
        assert_eq!(report.unmatched, 1);
    }

    #[test]
    fn ground_truth_matching_multi_segment_activity() {
        // `door_open` contains an underscore; splitting the detection
        // label on the last `_` would search for activity `open` and
        // find nothing.
        let events = vec![
            StudyEvent { at_micros: 5_000_000, device_name: "Samsung Fridge", activity: "door_open", intentional: true },
        ];
        let detections = vec![
            Detection { at_micros: 6_000_000, label: "local_door_open".into(), confidence: 0.9, unit_packets: 10 },
        ];
        let report = match_against_ground_truth("Samsung Fridge", &detections, &events, 30.0);
        assert_eq!(report.matched_intentional, 1);
        assert_eq!(report.unmatched, 0);
    }
}
