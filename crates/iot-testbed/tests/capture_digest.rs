//! Known-answer digest of the generated corpus.
//!
//! Traffic synthesis must keep every RNG draw and every emitted byte
//! stable: the analyses, the committed `results/` tables and every
//! determinism gate downstream assume it. This test pins an FNV-1a digest
//! over `Capture::as_bytes()` of every quick-grid experiment — power,
//! interaction and idle, both labs, VPN on and off — so any change to the
//! generator that moves a single byte or draw fails here first.

use iot_geodb::registry::GeoDb;
use iot_testbed::{Campaign, CampaignConfig};

/// The quick scale of the table binaries (`iot_bench::Scale::Quick`).
fn quick_grid() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 2,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.5,
        include_vpn: true,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

#[test]
fn quick_grid_capture_digest_is_pinned() {
    let db = GeoDb::new();
    let campaign = Campaign::new(quick_grid());
    let (mut experiments, mut packets, mut bytes) = (0usize, 0usize, 0usize);
    let mut digest = FNV_OFFSET;
    for unit in 0..campaign.unit_count() {
        campaign.run_unit(&db, unit, |exp| {
            experiments += 1;
            packets += exp.capture.record_count();
            bytes += exp.capture.byte_len();
            digest = fnv1a(digest, exp.capture.as_bytes());
        });
    }
    assert_eq!(
        (experiments, packets, bytes, digest),
        (1_928, 94_844, 42_365_619, 0x6c7a_bf16_0fb4_7764),
        "quick-grid corpus changed: (experiments, packets, pcap bytes, FNV-1a digest)"
    );
}
