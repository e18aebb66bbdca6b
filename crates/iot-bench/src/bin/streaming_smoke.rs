//! Streaming-ingest smoke test: proves the zero-copy cursor pipeline
//! keeps its promises at quick scale, cheaply enough to gate every
//! `verify.sh` run.
//!
//! Gates (any failure exits non-zero):
//!
//! 1. **Driver identity, clean:** the serial report is byte-identical
//!    to the supervised driver at 1, 2, and 8 workers.
//! 2. **Driver identity, faulted:** the same four-way identity holds
//!    with a fault plan armed, so the degrade → lenient-salvage →
//!    re-encode path is deterministic across drivers too.
//! 3. **Bounded heap:** a counting-on serial campaign's heap high-water
//!    stays under `IOT_STREAMING_HW_CEILING` bytes (default 2,161,492 —
//!    half the materializing pipeline's committed 4,322,984-byte
//!    baseline, so a regression back to packet-vector ingest fails
//!    loudly).
//! 4. **Bounded supervised heap:** a 2-worker supervised campaign with
//!    observability and heap counting on stays under a fixed 32 MB
//!    high-water. Each worker reuses one shard (registry ring, caches,
//!    entropy scratch) across units; a shard per unit held to the end
//!    of the run measured 519.5 MB here.
//! 5. **Bounded RSS:** the kernel's `VmHWM` for this process stays
//!    under `IOT_STREAMING_RSS_CEILING` bytes (default 64 MB).

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_bench::{campaign_config, Scale};
use iot_chaos::FaultPlan;
use iot_core::json::ToJson;
use iot_testbed::schedule::CampaignConfig;

const DEFAULT_HW_CEILING: u64 = 2_161_492;
const DEFAULT_RSS_CEILING: u64 = 64 * 1024 * 1024;
const SUPERVISED_HW_CEILING: u64 = 32_000_000;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

fn report(config: CampaignConfig, fault: Option<FaultPlan>, workers: Option<usize>) -> String {
    let mut p = Pipeline::with_obs(false);
    if let Some(plan) = fault {
        p.set_fault_plan(plan);
    }
    match workers {
        None => p.run_campaign(config),
        Some(w) => {
            p.run_campaign_supervised(config, w, &SupervisorConfig::default())
                .expect("no journal involved");
        }
    }
    p.finish().to_json().dump()
}

fn main() {
    let config = campaign_config(Scale::Quick);
    let hw_ceiling = env_u64("IOT_STREAMING_HW_CEILING", DEFAULT_HW_CEILING);
    let rss_ceiling = env_u64("IOT_STREAMING_RSS_CEILING", DEFAULT_RSS_CEILING);
    let mut failures = 0u32;

    // Gate 1+2: four-way driver identity, clean and faulted.
    for (label, plan) in [
        ("clean", None),
        ("faulted", Some(FaultPlan::uniform(1009, 0.08))),
    ] {
        let serial = report(config, plan.clone(), None);
        for workers in [1usize, 2, 8] {
            let parallel = report(config, plan.clone(), Some(workers));
            if parallel == serial {
                println!("streaming_smoke: {label} serial == workers {workers}");
            } else {
                eprintln!(
                    "streaming_smoke: FAIL — {label} report at {workers} workers \
                     diverged from serial"
                );
                failures += 1;
            }
        }
    }

    // Gate 3: heap high-water of one counting-on serial run. Reset the
    // ratchet first so the measurement covers exactly this campaign,
    // not the identity runs above.
    iot_obs::alloc::set_enabled(true);
    iot_obs::alloc::reset_high_water();
    let counted = report(config, None, None);
    let high_water = iot_obs::alloc::process_high_water_bytes();
    iot_obs::alloc::set_enabled(false);
    let clean_serial = report(config, None, None);
    if counted != clean_serial {
        eprintln!("streaming_smoke: FAIL — counting-on report diverged from baseline");
        failures += 1;
    }
    if high_water <= hw_ceiling {
        println!(
            "streaming_smoke: heap high-water {high_water} B <= ceiling {hw_ceiling} B"
        );
    } else {
        eprintln!(
            "streaming_smoke: FAIL — heap high-water {high_water} B exceeds \
             ceiling {hw_ceiling} B (streaming ingest no longer bounded?)"
        );
        failures += 1;
    }

    // Gate 4: heap high-water of an instrumented 2-worker supervised
    // campaign, whose registries reserve a full flight-recorder ring
    // each — bounded only while there is one per worker.
    iot_obs::alloc::set_enabled(true);
    iot_obs::alloc::reset_high_water();
    let supervised = {
        let mut p = Pipeline::with_obs(true);
        p.run_campaign_supervised(config, 2, &SupervisorConfig::default())
            .expect("no journal involved");
        p.finish().to_json().dump()
    };
    let sup_high_water = iot_obs::alloc::process_high_water_bytes();
    iot_obs::alloc::set_enabled(false);
    if supervised != clean_serial {
        eprintln!("streaming_smoke: FAIL — instrumented supervised report diverged from serial");
        failures += 1;
    }
    if sup_high_water <= SUPERVISED_HW_CEILING {
        println!(
            "streaming_smoke: supervised heap high-water {sup_high_water} B <= \
             ceiling {SUPERVISED_HW_CEILING} B"
        );
    } else {
        eprintln!(
            "streaming_smoke: FAIL — supervised heap high-water {sup_high_water} B \
             exceeds ceiling {SUPERVISED_HW_CEILING} B (per-unit shards retained?)"
        );
        failures += 1;
    }

    // Gate 5: kernel-observed peak RSS for the whole process.
    match iot_obs::process::peak_rss_bytes() {
        Some(rss) if rss <= rss_ceiling => {
            println!("streaming_smoke: peak RSS {rss} B <= ceiling {rss_ceiling} B");
        }
        Some(rss) => {
            eprintln!(
                "streaming_smoke: FAIL — peak RSS {rss} B exceeds ceiling {rss_ceiling} B"
            );
            failures += 1;
        }
        None => {
            // /proc/self/status unavailable (non-Linux): high-water gate
            // above still holds the line.
            println!("streaming_smoke: peak RSS unavailable on this platform (skipped)");
        }
    }

    if failures > 0 {
        eprintln!("streaming_smoke: {failures} gate(s) failed");
        std::process::exit(1);
    }
    println!("streaming_smoke: OK");
}
