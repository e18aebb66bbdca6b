//! End-to-end determinism: the same campaign configuration must produce
//! byte-identical report JSON through the serial driver and through the
//! supervised multi-worker driver at every worker count — the contract
//! that makes the worker pool a drop-in replacement. The observability
//! layer must preserve both halves of that contract: instrumentation
//! must not perturb the pipeline report, and the deterministic subset of
//! the obs report (counters + histograms) must itself be a pure function
//! of the corpus, independent of driver and worker count.

use iot_analysis::pipeline::Pipeline;
use iot_analysis::SupervisorConfig;
use iot_core::json::ToJson;
use iot_obs::{Registry, RunReport};
use iot_testbed::schedule::CampaignConfig;

fn test_config() -> CampaignConfig {
    CampaignConfig {
        automated_reps: 1,
        manual_reps: 1,
        power_reps: 1,
        idle_hours: 0.02,
        include_vpn: true,
    }
}

fn run(obs: bool, parallel_workers: Option<usize>) -> (String, Registry) {
    run_with_plan(obs, parallel_workers, None)
}

fn run_with_plan(
    obs: bool,
    parallel_workers: Option<usize>,
    plan: Option<iot_chaos::FaultPlan>,
) -> (String, Registry) {
    let mut p = Pipeline::with_obs(obs);
    if let Some(plan) = plan {
        p.set_fault_plan(plan);
    }
    match parallel_workers {
        None => p.run_campaign(test_config()),
        Some(w) => {
            p.run_campaign_supervised(test_config(), w, &SupervisorConfig::default())
                .expect("no journal involved");
        }
    }
    let (report, reg) = p.finish_with_obs();
    (report.to_json().dump(), reg)
}

fn report_json(parallel_workers: Option<usize>) -> String {
    run(false, parallel_workers).0
}

#[test]
fn serial_and_parallel_reports_are_byte_identical() {
    let serial = report_json(None);
    assert!(serial.contains("pii_findings"));
    for workers in [1usize, 2, 8] {
        let parallel = report_json(Some(workers));
        assert_eq!(
            serial, parallel,
            "parallel report with {workers} workers diverged from serial"
        );
    }
}

#[test]
fn repeated_serial_runs_are_byte_identical() {
    assert_eq!(report_json(None), report_json(None));
}

#[test]
fn faulted_reports_are_byte_identical_across_drivers() {
    // Fault injection is keyed by experiment identity, not ingestion
    // order: the same plan must degrade the same campaign identically
    // under every driver, panics included.
    let plan = iot_chaos::FaultPlan {
        panic_rate: 0.05,
        ..iot_chaos::FaultPlan::uniform(0xD15EA5E, 0.02)
    };
    let (serial, _) = run_with_plan(false, None, Some(plan));
    assert!(serial.contains("\"salvage_resyncs\""));
    for workers in [1usize, 2, 8] {
        let (parallel, _) = run_with_plan(false, Some(workers), Some(plan));
        assert_eq!(
            serial, parallel,
            "faulted report with {workers} workers diverged from serial"
        );
    }
    let (again, _) = run_with_plan(false, None, Some(plan));
    assert_eq!(serial, again, "faulted serial runs must repeat exactly");
}

#[test]
fn instrumentation_does_not_change_the_pipeline_report() {
    let (plain, _) = run(false, None);
    let (instrumented, reg) = run(true, None);
    assert_eq!(plain, instrumented, "obs on/off must not affect the report");
    assert!(reg.counter("experiments") > 0, "obs run must actually record");
}

/// Serializes the tests that toggle the process-global allocator
/// counting flag, so one cannot flip it mid-measurement of another.
fn alloc_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn alloc_counting_does_not_change_the_pipeline_report() {
    let _guard = alloc_test_lock();
    let was = iot_obs::alloc::enabled();
    iot_obs::alloc::set_enabled(false);
    let (plain, _) = run(true, None);
    iot_obs::alloc::set_enabled(true);
    let (counted, reg) = run(true, None);
    let parallel = run(true, Some(2)).0;
    iot_obs::alloc::set_enabled(was);
    assert_eq!(
        plain, counted,
        "allocator counting must not affect the pipeline report"
    );
    assert_eq!(
        plain, parallel,
        "allocator counting must not affect the parallel report either"
    );
    // The counting run must actually have attributed heap traffic to the
    // ingest stages — proof the instrumentation was live, not a no-op.
    let report = RunReport::from_registry("det", &reg);
    let j = report.to_json();
    let spans = j.get("spans").expect("spans section");
    let ingest = spans.get("ingest").expect("ingest span");
    assert!(ingest.get("alloc_bytes").is_some(), "ingest span missing alloc data");
}

#[test]
fn serial_allocation_totals_are_deterministic() {
    let _guard = alloc_test_lock();
    let was = iot_obs::alloc::enabled();
    iot_obs::alloc::set_enabled(true);
    // Warmup run: pays one-time global costs (interned span paths, lazy
    // statics) so the measured runs see identical starting state.
    let _ = run(false, None);
    let measure = || {
        let before = iot_obs::alloc::thread_snapshot();
        let (report, _) = run(false, None);
        (iot_obs::alloc::thread_snapshot().since(&before), report)
    };
    let (a, report_a) = measure();
    let (b, report_b) = measure();
    iot_obs::alloc::set_enabled(was);
    assert_eq!(report_a, report_b, "serial reports must repeat exactly");
    assert!(a.allocs > 0, "a full campaign surely allocates");
    assert_eq!(
        (a.bytes_allocated, a.allocs),
        (b.bytes_allocated, b.allocs),
        "serial allocation traffic must be a pure function of the corpus"
    );
}

#[test]
fn obs_deterministic_report_is_byte_identical_across_workers() {
    let (_, serial_reg) = run(true, None);
    let serial_det = RunReport::from_registry("det", &serial_reg)
        .deterministic_json()
        .dump();
    // Counters reflect the corpus, not the topology.
    for name in ["experiments", "packets", "flows", "bytes", "pii_findings"] {
        assert!(serial_reg.counter(name) > 0, "counter {name} must be non-zero");
    }
    for workers in [1usize, 2, 8] {
        let (_, reg) = run(true, Some(workers));
        let det = RunReport::from_registry("det", &reg).deterministic_json().dump();
        assert_eq!(
            serial_det, det,
            "obs deterministic report with {workers} workers diverged from serial"
        );
        assert_eq!(reg.gauge("workers"), Some(workers as f64));
    }
}
