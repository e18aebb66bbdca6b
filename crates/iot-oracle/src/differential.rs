//! Differential runs: the same campaign executed through every driver —
//! serial, 1/2/8-worker supervised, serial with an armed all-zero chaos
//! plan, every worker count under a *non-clean* fault plan, and an
//! interrupted-then-resumed supervised run against its straight-through
//! twin — compared field by field.
//!
//! Byte equality of the dumped JSON is already gated elsewhere
//! (`bench_pipeline`, `chaos_check`); the oracle's contribution is the
//! *structured* comparison: when drivers diverge, the violations name
//! the exact table, row, and field, which turns "reports differ" into
//! an actionable defect report.
//!
//! The faulted sweep keys faults rep-invariantly
//! (`rep_invariant_fault_keys`), so the same plan also powers the
//! faulted rep-relabel metamorphic relation — one fault universe,
//! checked across drivers here and across input relabelings there.

use crate::diff::diff_json;
use crate::Violation;
use iot_analysis::pipeline::{Pipeline, PipelineReport};
use iot_analysis::supervise::SupervisorConfig;
use iot_chaos::FaultPlan;
use iot_core::json::ToJson;
use iot_testbed::schedule::CampaignConfig;
use std::time::Duration;

/// Worker counts compared against the serial baseline.
pub const WORKER_GRID: [usize; 3] = [1, 2, 8];

/// Seed for the clean (all-zero-rate) fault plan; any value must be an
/// identity, this one just makes runs reproducible.
const CLEAN_PLAN_SEED: u64 = 0x0B5E55ED;

/// Seed for the non-clean plans below.
const FAULTED_PLAN_SEED: u64 = 0xFA17ED;

/// The non-clean capture-fault plan shared by the faulted differential
/// sweep and the faulted rep-relabel metamorphic relation: every
/// capture fault class at a uniform 1% rate, with fault keys made
/// rep-invariant so relabeling repetitions preserves the fault draw.
pub fn faulted_plan() -> FaultPlan {
    let mut plan = FaultPlan::uniform(FAULTED_PLAN_SEED, 0.01);
    plan.rep_invariant_fault_keys = true;
    plan
}

/// [`faulted_plan`] plus seeded stalls, for the supervised runs: stalls
/// breach the resume check's watchdog deadline and exercise quarantine
/// and retry on top of the capture faults.
pub fn supervised_plan() -> FaultPlan {
    let mut plan = faulted_plan();
    plan.stall_rate = 0.05;
    plan.stall_max_micros = 20_000;
    plan
}

/// Supervision knobs for [`check_resume`]: a deadline the injected
/// stalls can breach and a retry budget so breaches are re-attempted.
fn resume_supervisor(journal: Option<std::path::PathBuf>, resume: bool) -> SupervisorConfig {
    SupervisorConfig {
        deadline: Some(Duration::from_millis(5)),
        max_retries: 2,
        journal,
        resume,
        ..SupervisorConfig::default()
    }
}

fn run(config: CampaignConfig, plan: Option<FaultPlan>, workers: Option<usize>) -> PipelineReport {
    let mut p = Pipeline::with_obs(false);
    if let Some(plan) = plan {
        p.set_fault_plan(plan);
    }
    match workers {
        None => p.run_campaign(config),
        Some(w) => {
            p.run_campaign_supervised(config, w, &SupervisorConfig::default())
                .expect("no journal involved");
        }
    }
    p.finish()
}

fn compare(
    invariant: &'static str,
    baseline: &PipelineReport,
    candidate: &PipelineReport,
) -> Vec<Violation> {
    diff_json(&baseline.to_json(), &candidate.to_json())
        .into_iter()
        .map(|d| d.into_violation(invariant))
        .collect()
}

/// Runs every differential configuration against an existing serial
/// baseline report, returning one violation per diverging field.
pub fn check_drivers_against(
    baseline: &PipelineReport,
    config: CampaignConfig,
) -> Vec<Violation> {
    let mut v = Vec::new();
    for workers in WORKER_GRID {
        let candidate = run(config, None, Some(workers));
        let invariant = match workers {
            1 => "differential_workers_1",
            2 => "differential_workers_2",
            _ => "differential_workers_8",
        };
        v.extend(compare(invariant, baseline, &candidate));
    }
    let clean = run(config, Some(FaultPlan::clean(CLEAN_PLAN_SEED)), None);
    v.extend(compare("differential_chaos_clean", baseline, &clean));
    v
}

/// Runs the serial driver as baseline, then every differential
/// configuration. The serial report is also returned so callers can
/// chain invariant checks without re-running the campaign.
pub fn check_drivers(config: CampaignConfig) -> (PipelineReport, Vec<Violation>) {
    let baseline = run(config, None, None);
    let v = check_drivers_against(&baseline, config);
    (baseline, v)
}

/// The faulted sweep: the same *non-clean* plan run serially and at
/// every worker count must agree field by field — fault draws are
/// keyed by experiment identity, never by driver or schedule. The check
/// also guards its own vacuity: a plan that never bites is a finding.
pub fn check_drivers_faulted(config: CampaignConfig) -> Vec<Violation> {
    let plan = faulted_plan();
    let baseline = run(config, Some(plan), None);
    let mut v = Vec::new();
    if baseline.ingest.is_clean() {
        v.push(Violation::new(
            "differential_faulted",
            "ingest",
            "totals",
            "is_clean",
            "faulted plan produced a clean ledger — the sweep checked nothing".to_string(),
        ));
    }
    for workers in WORKER_GRID {
        let candidate = run(config, Some(plan), Some(workers));
        let invariant = match workers {
            1 => "differential_faulted_workers_1",
            2 => "differential_faulted_workers_2",
            _ => "differential_faulted_workers_8",
        };
        v.extend(compare(invariant, &baseline, &candidate));
    }
    v
}

/// The resume check: a supervised campaign is journaled, the journal is
/// amputated mid-record (simulating a SIGKILL), and a second driver
/// resumes from the stump — the resumed report must match a
/// straight-through supervised run field by field. Stall injection plus
/// the watchdog deadline make the runs quarantine and retry, so the
/// equality also covers the degraded-coverage bookkeeping.
pub fn check_resume(config: CampaignConfig) -> Vec<Violation> {
    let plan = supervised_plan();
    let mut v = Vec::new();

    let straight = {
        let mut p = Pipeline::with_obs(false);
        p.set_fault_plan(plan);
        if let Err(e) = p.run_campaign_supervised(config, 2, &resume_supervisor(None, false)) {
            v.push(Violation::new(
                "differential_resume",
                "supervise",
                "straight",
                "run",
                format!("straight-through supervised run failed: {e}"),
            ));
            return v;
        }
        p.finish()
    };
    if straight.ingest.experiments_quarantined + straight.ingest.experiments_abandoned == 0
        && straight.ingest.experiments_retried == 0
    {
        v.push(Violation::new(
            "differential_resume",
            "ingest",
            "totals",
            "stalls",
            "stall plan never breached the deadline — the resume check ran undegraded"
                .to_string(),
        ));
    }

    let path = std::env::temp_dir().join(format!(
        "iot_oracle_resume_{}.jnl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let mut first = Pipeline::with_obs(false);
    first.set_fault_plan(plan);
    if let Err(e) =
        first.run_campaign_supervised(config, 2, &resume_supervisor(Some(path.clone()), false))
    {
        v.push(Violation::new(
            "differential_resume",
            "supervise",
            "journaled",
            "run",
            format!("journaled supervised run failed: {e}"),
        ));
        return v;
    }
    // Amputate the tail at an arbitrary byte offset — a kill never
    // lands on a record boundary.
    match std::fs::read(&path) {
        Ok(bytes) if bytes.len() > 64 => {
            let _ = std::fs::write(&path, &bytes[..bytes.len() * 6 / 10]);
        }
        other => {
            v.push(Violation::new(
                "differential_resume",
                "supervise",
                "journal",
                "bytes",
                format!("journal unreadable or implausibly small: {other:?}"),
            ));
            let _ = std::fs::remove_file(&path);
            return v;
        }
    }
    let mut resumed = Pipeline::with_obs(false);
    resumed.set_fault_plan(plan);
    match resumed.run_campaign_supervised(config, 2, &resume_supervisor(Some(path.clone()), true))
    {
        Ok(summary) => {
            if summary.units_replayed == 0 {
                v.push(Violation::new(
                    "differential_resume",
                    "supervise",
                    "journal",
                    "units_replayed",
                    "truncated journal replayed nothing — the resume path went unchecked"
                        .to_string(),
                ));
            }
            v.extend(compare("differential_resume", &straight, &resumed.finish()));
        }
        Err(e) => {
            v.push(Violation::new(
                "differential_resume",
                "supervise",
                "resumed",
                "run",
                format!("resume from truncated journal failed: {e}"),
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    v
}
