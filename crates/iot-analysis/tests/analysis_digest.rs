//! Known-answer digest of the analysis results.
//!
//! The per-byte payload kernels — the entropy fold behind the encryption
//! test and the PII pattern scanner — must not move a single result when
//! they are made faster. This test runs the whole quick grid through
//! `Pipeline::run_campaign` and pins FNV-1a digests of what those kernels
//! feed: every (site, vpn, device) `ClassBytes`, the bits of every sorted
//! Table 7 unencrypted-share sample, and the sorted PII findings JSON.
//! The pinned values were computed before the kernels changed, so this
//! guard does not depend on the code it checks.

use iot_analysis::pipeline::Pipeline;
use iot_core::json::ToJson;
use iot_testbed::lab::LabSite;
use iot_testbed::schedule::CampaignConfig;

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
fn quick_grid_analysis_digest_is_pinned() {
    let mut pipeline = Pipeline::with_obs(false);
    pipeline.run_campaign(quick_grid());
    let (mut contexts, mut samples) = (0usize, 0usize);
    let (mut class_digest, mut sample_digest) = (FNV_OFFSET, FNV_OFFSET);
    for site in LabSite::all() {
        for vpn in [false, true] {
            for (device, cb) in pipeline.encryption.device_bytes(site, vpn) {
                contexts += 1;
                let key = format!("{}|{vpn}|{device}|", site.name());
                class_digest = fnv1a(class_digest, key.as_bytes());
                for count in [cb.unencrypted, cb.encrypted, cb.unknown] {
                    class_digest = fnv1a(class_digest, &count.to_le_bytes());
                }
                sample_digest = fnv1a(sample_digest, key.as_bytes());
                for s in pipeline.encryption.unencrypted_samples(device, site, vpn) {
                    samples += 1;
                    sample_digest = fnv1a(sample_digest, &s.to_bits().to_le_bytes());
                }
            }
        }
    }
    let report = pipeline.build_report();
    let findings = report.pii_findings.to_json().dump();
    assert_eq!(
        (contexts, class_digest),
        (162, 0xb76b_61dc_d831_0c50),
        "per-(site, vpn, device) ClassBytes changed: (contexts, FNV-1a digest)"
    );
    assert_eq!(
        (samples, sample_digest),
        (1_928, 0xdf82_cb00_bb79_bd5f),
        "Table 7 samples changed: (samples, FNV-1a digest of f64 bits)"
    );
    assert_eq!(
        (
            report.pii_findings.len(),
            fnv1a(FNV_OFFSET, findings.as_bytes())
        ),
        (51, 0x9d61_d03b_aa1f_2f98),
        "PII findings changed: (findings, FNV-1a digest of sorted JSON)"
    );
}
