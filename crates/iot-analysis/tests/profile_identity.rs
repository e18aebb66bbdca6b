//! Byte-identity of pipeline reports with the sampling profiler armed.
//!
//! Sampling is observational only: nothing the sampler accumulates may
//! feed back into the analysis report. This test arms the sampler at an
//! aggressive rate and demands that serial and 1/2/8-worker runs still
//! produce byte-identical reports — the same gate `bench_pipeline`
//! enforces in CI, kept here so `cargo test` alone catches a violation.

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_core::json::ToJson;
use iot_testbed::schedule::CampaignConfig;

fn tiny() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: false,
    }
}

#[test]
fn reports_stay_byte_identical_with_sampler_armed() {
    let _g = iot_obs::profile::test_lock();
    iot_obs::profile::start(997);

    let mut serial = Pipeline::with_obs(true);
    serial.run_campaign(tiny());
    let reference = serial.finish().to_json().dump();

    for workers in [1usize, 2, 8] {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(tiny(), workers, &SupervisorConfig::default())
            .expect("no journal involved");
        assert_eq!(
            p.finish().to_json().dump(),
            reference,
            "sampling must not perturb the {workers}-worker report"
        );
    }

    // The sampler did observe the work: worker registration is wired
    // into every driver, so an armed profiler accumulates samples.
    let snap = iot_obs::profile::snapshot();
    assert!(
        !snap.is_empty(),
        "armed sampler saw registered workers run a campaign"
    );

    iot_obs::profile::set_enabled(false);
    iot_obs::profile::reset();
}
