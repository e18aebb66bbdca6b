//! Chaos × observability: the flight recorder must account for degraded
//! ingest exactly.
//!
//! * Every experiment the pipeline quarantines under an armed fault plan
//!   must surface as a `quarantine` mark event, and the mark count must
//!   equal the ingest ledger's `experiments_quarantined` — the event
//!   stream and the aggregate ledger are two views of the same facts.
//! * The deterministic Chrome-trace subset must stay a pure function of
//!   the corpus even when faults (including injected panics) are being
//!   caught and quarantined: byte-identical across the serial driver and
//!   1/2/8 supervised workers.

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_chaos::FaultPlan;
use iot_obs::{chrome_trace, EventKind, Registry, TraceMode};
use iot_testbed::schedule::CampaignConfig;

fn config() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: false,
    }
}

/// Aggressive enough that quarantines definitely occur at this scale,
/// panics included; keyed by experiment identity so every driver
/// degrades the same experiments.
fn faulted_plan() -> FaultPlan {
    FaultPlan {
        panic_rate: 0.02,
        ..FaultPlan::uniform(0xC0FFEE, 0.02)
    }
}

fn run_faulted(workers: Option<usize>) -> (iot_analysis::pipeline::PipelineReport, Registry) {
    let mut p = Pipeline::with_obs(true);
    p.set_fault_plan(faulted_plan());
    match workers {
        None => p.run_campaign(config()),
        Some(w) => {
            p.run_campaign_supervised(config(), w, &SupervisorConfig::default())
                .expect("no journal involved");
        }
    }
    p.finish_with_obs()
}

fn quarantine_marks(reg: &Registry) -> u64 {
    let t = reg.timeline();
    assert_eq!(
        t.overwritten, 0,
        "ring must not overflow at this scale or the count is partial"
    );
    t.events
        .iter()
        .filter(|e| e.kind == EventKind::Mark && t.label(e) == "quarantine")
        .count() as u64
}

#[test]
fn quarantine_marks_match_the_ingest_ledger() {
    let (report, reg) = run_faulted(None);
    assert!(report.ingest.reconciles(), "ledger must reconcile");
    assert!(
        report.ingest.experiments_quarantined > 0,
        "plan must actually quarantine experiments at this scale"
    );
    assert_eq!(
        quarantine_marks(&reg),
        report.ingest.experiments_quarantined,
        "every quarantined experiment must emit exactly one mark event"
    );
}

#[test]
fn quarantine_marks_survive_the_parallel_fold() {
    let (serial_report, serial_reg) = run_faulted(None);
    let serial_marks = quarantine_marks(&serial_reg);
    for workers in [2usize, 4] {
        let (report, reg) = run_faulted(Some(workers));
        assert_eq!(
            report.ingest.experiments_quarantined,
            serial_report.ingest.experiments_quarantined,
            "fault plan is identity-keyed: same quarantines at {workers} workers"
        );
        assert_eq!(
            quarantine_marks(&reg),
            serial_marks,
            "marks must survive the shard fold at {workers} workers"
        );
    }
}

#[test]
fn deterministic_trace_is_byte_identical_across_drivers_under_faults() {
    let (_, serial_reg) = run_faulted(None);
    let serial = chrome_trace(&serial_reg.timeline(), TraceMode::Deterministic).dump();
    assert!(
        serial.contains("quarantine"),
        "quarantine marks are stream-tagged and must export deterministically"
    );
    for workers in [1usize, 2, 8] {
        let (_, reg) = run_faulted(Some(workers));
        let det = chrome_trace(&reg.timeline(), TraceMode::Deterministic).dump();
        assert_eq!(
            serial, det,
            "deterministic trace with {workers} workers diverged from serial"
        );
    }
}
