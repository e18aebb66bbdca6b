//! The traced run: per-layer numbers from calling each layer's public
//! functions one at a time, from outside the program.
//!
//! Every traced run measures every layer on the same seeded inputs:
//!
//! * the grid chain, one experiment at a time: generate, strict decode
//!   walk, degrade and lenient salvage walk, flows, destinations,
//!   encryption, PII, then the report. For `supervised_faulted` the
//!   salvaged capture feeds the analyses, as in the program; otherwise
//!   the pristine one does and degrade and salvage are side probes;
//! * the model chain, one model at a time: generate the training corpus,
//!   build the dataset, cross-validate, fit, generate an idle capture,
//!   segment it and detect activities;
//! * fused passes of the program itself (untraced and with allocation
//!   counting) and one supervised run, for the pipeline and supervise
//!   layers and for the untraced baseline the staged sum is held against.
//!
//! Allocation counting (`iot_obs::alloc`) is on for the staged chains.
//! Spans (name, start, end, parent) are kept in memory and written to
//! `.perfbench_out/` when the run ends.

use crate::grid::{self, Job, Sizes};
use crate::host::Probe;
use crate::output::{Metric, Outcome};
use crate::run::{record_model, report_json, workers, FAULT_RATE};
use crate::timing::TimedIter;
use crate::Workload;
use iot_analysis::destinations::DestinationAnalysis;
use iot_analysis::encryption::EncryptionAnalysis;
use iot_analysis::flows::{ExperimentFlows, LabelCtx};
use iot_analysis::inference::{build_dataset, train_device_model, TrainedDeviceModel};
use iot_analysis::pii::scan_experiment;
use iot_analysis::supervise::SupervisorConfig;
use iot_analysis::unexpected::{
    detect_activities, detection_counts, segment_units, UNIT_GAP_SECONDS,
};
use iot_analysis::{Pipeline, PipelineReport};
use iot_chaos::{stream_key, FaultInjector, FaultPlan};
use iot_core::json::{Json, ToJson};
use iot_geodb::registry::GeoDb;
use iot_ml::crossval::cross_validate;
use iot_ml::forest::RandomForest;
use iot_net::pcap::{Capture, PcapCursor};
use iot_obs::alloc::AllocStats;
use iot_oracle::invariants::{check_consistency, check_detection_counts, check_report};
use iot_testbed::experiment::{run_idle, LabeledExperiment};
use iot_testbed::lab::{DeviceInstance, Lab, LabSite};
use iot_testbed::schedule::Campaign;
use iot_testbed::traffic::{identity_of, DeviceIdentity};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Where span files go, relative to the working directory.
pub const SPAN_DIR: &str = ".perfbench_out";

/// One recorded span.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// Per-name totals: self time and allocations.
#[derive(Default, Clone, Copy)]
struct Agg {
    ns: u64,
    alloc: AllocStats,
}

/// In-memory span recorder with per-name aggregates.
struct Spans {
    epoch: Instant,
    list: Vec<SpanRec>,
    aggs: Vec<(&'static str, Agg)>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            list: Vec::with_capacity(1 << 16),
            aggs: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a parent span; close it with [`Spans::close`].
    fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now();
        self.list.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        (self.list.len() - 1) as u32
    }

    fn close(&mut self, id: u32) {
        let end = self.now();
        self.list[id as usize].end_ns = end;
    }

    /// Runs one leaf layer call inside a span, counting its time and
    /// allocations under `name`.
    fn time<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        let before = iot_obs::alloc::thread_snapshot();
        let start_ns = self.now();
        let value = f();
        let end_ns = self.now();
        let alloc = iot_obs::alloc::thread_snapshot().since(&before);
        self.list.push(SpanRec {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
        });
        let agg = self.agg_mut(name);
        agg.ns += end_ns - start_ns;
        agg.alloc.merge(&alloc);
        value
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let i = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[i].1
    }

    fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, a)| *a)
            .unwrap_or_default()
    }

    fn ns(&self, name: &str) -> f64 {
        self.agg(name).ns as f64
    }

    /// Writes every span as one JSON line: name, start, end, parent.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.list.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The fault key the pipeline uses for an experiment (its identity).
fn fault_key(exp: &LabeledExperiment) -> u64 {
    stream_key(
        exp.device_name,
        stream_key(&exp.label, u64::from(exp.rep))
            ^ ((exp.site as u64) << 32)
            ^ ((exp.vpn as u64) << 40),
    )
}

/// Counts from the grid chain.
#[derive(Default)]
struct GridCounts {
    experiments: u64,
    packets: u64,
    flow_packets: u64,
    records_degraded: u64,
    records_salvaged: u64,
    resyncs: u64,
    flows: u64,
    labeled_flows: u64,
    internet_flows: u64,
    payload_bytes: u64,
    findings: u64,
}

/// Staged accumulators, to be held against the fused report.
struct Staged {
    destinations: DestinationAnalysis,
    encryption: EncryptionAnalysis,
    pii: Vec<iot_analysis::pii::PiiFinding>,
}

/// The grid chain, staged. `feed_salvaged` makes the salvaged capture
/// the analyses' input (the faulted program path).
fn grid_chain(
    spans: &mut Spans,
    db: &GeoDb,
    jobs: &[Job],
    plan: FaultPlan,
    feed_salvaged: bool,
) -> (GridCounts, Staged) {
    let root = spans.open("grid_chain", None);
    let identities: HashMap<(&'static str, LabSite), DeviceIdentity> = LabSite::all()
        .into_iter()
        .flat_map(|site| Lab::deploy(site).devices)
        .map(|d| ((d.spec().name, d.site), identity_of(&d)))
        .collect();
    let injector = FaultInjector::new(plan);
    let mut ctx = LabelCtx::new();
    let mut staged = Staged {
        destinations: DestinationAnalysis::new(),
        encryption: EncryptionAnalysis::default(),
        pii: Vec::new(),
    };
    let mut c = GridCounts::default();
    for job in jobs {
        let parent = spans.open("experiment", Some(root));
        let mut exp = spans.time("generate", parent, || job.run(db));
        c.experiments += 1;
        c.packets += exp.packet_count() as u64;
        spans.time("decode_probe", parent, || {
            let mut n = 0u64;
            for view in exp.capture.views() {
                n += view
                    .expect("generated captures are writer-clean")
                    .data
                    .len() as u64;
            }
            std::hint::black_box(n)
        });
        let (bytes, faults) = spans.time("degrade", parent, || {
            injector.degrade_capture(fault_key(&exp), 0, &exp.capture)
        });
        let salvaged = spans.time("salvage", parent, || {
            let mut cursor = PcapCursor::lenient(&bytes).ok()?;
            let mut salvaged = Capture::new();
            while let Some(view) = cursor.next_view() {
                let view = view.expect("the lenient cursor surfaces no errors");
                salvaged
                    .push(view.ts_micros, view.data)
                    .expect("salvaged timestamps fit");
            }
            Some((salvaged, cursor.stats()))
        });
        c.records_degraded += faults.records_written;
        if let Some((capture, stats)) = salvaged {
            c.records_salvaged += capture.record_count() as u64;
            c.resyncs += stats.resyncs;
            if feed_salvaged {
                exp.capture = capture;
            }
        }
        c.flow_packets += exp.packet_count() as u64;
        let flows = spans.time("flows", parent, || {
            ExperimentFlows::from_experiment_with(&exp, &mut ctx)
        });
        c.flows += flows.flows.len() as u64;
        c.labeled_flows += flows.flows.iter().filter(|f| f.domain.is_some()).count() as u64;
        c.internet_flows += flows.internet_flows().count() as u64;
        c.payload_bytes += flows.total_bytes();
        spans.time("destinations", parent, || {
            staged.destinations.add_flows(&exp, &flows)
        });
        spans.time("encryption", parent, || {
            staged.encryption.add_flows(&exp, &flows)
        });
        if let Some(identity) = identities.get(&(exp.device_name, exp.site)) {
            let found = spans.time("pii", parent, || {
                scan_experiment(db, &exp, &flows, identity)
            });
            c.findings += found.len() as u64;
            staged.pii.extend(found);
        }
        spans.close(parent);
    }
    spans.close(root);
    (c, staged)
}

/// One fused pass of the program over the lazy grid.
struct Fused {
    report: PipelineReport,
    wall_ns: f64,
    /// Time and allocations outside grid generation.
    ingest_ns: f64,
    ingest_allocs: u64,
    report_ns: f64,
    heap_high_water: u64,
}

fn fused_pass(
    db: &GeoDb,
    jobs: &[Job],
    plan: Option<FaultPlan>,
    counting: bool,
    out: &mut Outcome,
    label: &str,
) -> Fused {
    iot_obs::alloc::set_enabled(counting);
    iot_obs::alloc::reset_high_water();
    let mut pipeline = Pipeline::with_obs(false);
    if let Some(plan) = plan {
        pipeline.set_fault_plan(plan);
    }
    let before = iot_obs::alloc::thread_snapshot();
    let start = Instant::now();
    let mut feed = TimedIter::new(jobs.iter().map(|j| j.run(db)), jobs.len());
    pipeline.ingest_experiments(&mut feed);
    let report_start = Instant::now();
    let report = pipeline.build_report();
    std::hint::black_box(report.to_json().dump());
    let end = Instant::now();
    let allocs = iot_obs::alloc::thread_snapshot().since(&before).allocs;
    let heap_high_water = iot_obs::alloc::process_high_water_bytes();
    iot_obs::alloc::set_enabled(false);
    out.violated(label, check_report(&report));
    out.violated(label, check_consistency(&pipeline, &report));
    let wall_ns = (end - start).as_nanos() as f64;
    Fused {
        wall_ns,
        ingest_ns: wall_ns - feed.produce.as_nanos() as f64,
        ingest_allocs: allocs.saturating_sub(feed.produce_alloc.allocs),
        report_ns: (end - report_start).as_nanos() as f64,
        heap_high_water,
        report,
    }
}

/// Counts from the model chain.
#[derive(Default)]
struct ModelCounts {
    models: u64,
    corpus_packets: u64,
    materialized_packets: u64,
    units: u64,
    detections: u64,
    gate_passed: u64,
}

/// The model chain, staged: the calls `train_device_model` and
/// `detect_activities` make, one at a time.
fn model_chain(
    spans: &mut Spans,
    db: &GeoDb,
    campaign: &Campaign,
    units: &[(DeviceInstance, bool)],
    sizes: &Sizes,
    seed: u64,
    out: &mut Outcome,
) -> (ModelCounts, String) {
    let root = spans.open("model_chain", None);
    let mut config = sizes.inference;
    config.forest.seed = seed;
    let mut c = ModelCounts::default();
    let mut record = String::new();
    for (d, vpn) in units {
        let vpn = *vpn;
        let parent = spans.open("model", Some(root));
        let corpus = spans.time("generate_corpus", parent, || {
            let mut corpus = Vec::new();
            campaign.run_device(db, d, vpn, |e| corpus.push(e));
            corpus
        });
        let packets: u64 = corpus.iter().map(|e| e.packet_count() as u64).sum();
        c.corpus_packets += packets;
        spans.time("materialize_probe", parent, || {
            for e in &corpus {
                std::hint::black_box(e.packets());
            }
        });
        c.materialized_packets += packets;
        let dataset = spans.time("features", parent, || build_dataset(&corpus));
        drop(corpus);
        let report = spans.time("cross_validate", parent, || {
            cross_validate(&dataset, &config.forest, config.cv_repeats)
        });
        let forest = spans.time("fit", parent, || {
            RandomForest::fit(&dataset, &config.forest)
        });
        let model = TrainedDeviceModel {
            device_name: d.spec().name,
            label_names: report.label_names.clone(),
            forest,
            cv_macro_f1: report.macro_f1,
            cv_f1_per_label: report.f1_per_class.clone(),
        };
        let idle = spans.time("generate_idle", parent, || {
            run_idle(db, d, vpn, sizes.infer_idle_hours, 0)
        });
        let idle_packets = spans.time("materialize", parent, || idle.packets());
        c.materialized_packets += idle_packets.len() as u64;
        c.units += spans.time("segment_probe", parent, || {
            segment_units(&idle_packets, UNIT_GAP_SECONDS).len()
        }) as u64;
        let detections = spans.time("detect", parent, || {
            detect_activities(&model, &idle_packets)
        });
        if let Some(found) = &detections {
            c.gate_passed += 1;
            c.detections += found.len() as u64;
            let what = format!("staged {} {:?} vpn={vpn}", d.spec().name, d.site);
            out.violated(
                &what,
                check_detection_counts(found, &detection_counts(found)),
            );
        }
        record_model(&mut record, d, vpn, &model, &detections);
        c.models += 1;
        spans.close(parent);
    }
    spans.close(root);
    (c, record)
}

/// The untraced program path of `infer`, for its baseline and record.
fn model_baseline(
    db: &GeoDb,
    campaign: &Campaign,
    units: &[(DeviceInstance, bool)],
    sizes: &Sizes,
    seed: u64,
) -> (f64, String) {
    let mut config = sizes.inference;
    config.forest.seed = seed;
    let mut record = String::new();
    let start = Instant::now();
    for (d, vpn) in units {
        let model = train_device_model(db, campaign, d, *vpn, &config);
        let idle = run_idle(db, d, *vpn, sizes.infer_idle_hours, 0);
        let detections = detect_activities(&model, &idle.packets());
        record_model(&mut record, d, *vpn, &model, &detections);
    }
    (start.elapsed().as_nanos() as f64, record)
}

/// Destinations, encryption and PII sections of a report.
fn sections(report: &PipelineReport) -> Vec<(&'static str, String)> {
    let json = report.to_json();
    [
        "support_destinations",
        "third_destinations",
        "devices_with_non_first",
        "encryption_mix",
        "pii_findings",
    ]
    .into_iter()
    .map(|k| (k, json.get(k).map_or_else(String::new, Json::dump)))
    .collect()
}

/// Runs the traced run for `workload`.
pub fn run(workload: Workload, seed: u64, sizes: &Sizes, scratch: &Path) -> Outcome {
    let probe = Probe::detect();
    let mut out = Outcome::default();
    out.notes.extend(probe.fallback_notes());
    let host_start = probe.sample();
    let db = GeoDb::new();
    let grid_campaign = Campaign::new(sizes.grid);
    // The grid and fault plan of the workload's own path.
    let faulted = workload == Workload::SupervisedFaulted;
    let offset = match workload {
        Workload::Campaign | Workload::Analyze => grid::rep_offset(seed),
        _ => 0,
    };
    let jobs = grid::jobs(&grid_campaign, offset);
    let plan = FaultPlan::uniform(seed, FAULT_RATE);
    let program_plan = faulted.then_some(plan);

    // Fused program passes: untraced, then with allocation counting.
    let plain = fused_pass(&db, &jobs, program_plan, false, &mut out, "fused pass");
    let counted = fused_pass(
        &db,
        &jobs,
        program_plan,
        true,
        &mut out,
        "counted fused pass",
    );
    if report_json(&plain.report) != report_json(&counted.report) {
        out.violations
            .push("allocation counting changed the fused report".into());
    }

    // The staged grid chain, with allocation counting on.
    let mut spans = Spans::new();
    iot_obs::alloc::set_enabled(true);
    let (g, staged) = grid_chain(&mut spans, &db, &jobs, plan, faulted);
    iot_obs::alloc::set_enabled(false);
    let mut staged_pipeline = Pipeline::with_obs(false);
    staged_pipeline.destinations = staged.destinations;
    staged_pipeline.encryption = staged.encryption;
    staged_pipeline.pii = staged.pii;
    let finish_start = Instant::now();
    let staged_report = staged_pipeline.build_report();
    let finish_ns = finish_start.elapsed().as_nanos() as f64;
    for ((key, staged), (_, fused)) in sections(&staged_report)
        .into_iter()
        .zip(sections(&plain.report))
    {
        if staged != fused {
            out.violations
                .push(format!("staged {key} differs from the fused report"));
        }
    }
    if faulted && g.records_salvaged != plain.report.ingest.packets_ingested {
        out.violations.push(format!(
            "staged salvage kept {} packets, the program {}",
            g.records_salvaged, plain.report.ingest.packets_ingested
        ));
    }

    // One supervised run untraced (efficiency, journal), one counted (heap).
    let sup_workers = workers();
    let journal = scratch.join("trace-journal");
    let sup = SupervisorConfig {
        journal: Some(journal.clone()),
        ..SupervisorConfig::default()
    };
    let supervised = |counting: bool, out: &mut Outcome| {
        iot_obs::alloc::set_enabled(counting);
        iot_obs::alloc::reset_high_water();
        let mut p = Pipeline::with_obs(true);
        p.set_fault_plan(plan);
        let before = probe.sample();
        let ran = p.run_campaign_supervised(sizes.grid, sup_workers, &sup);
        let after = probe.sample();
        let high_water = iot_obs::alloc::process_high_water_bytes();
        iot_obs::alloc::set_enabled(false);
        let report = p.build_report();
        match ran {
            Ok(summary) => out.notes.push(format!(
                "supervised run: {} units on {sup_workers} workers",
                summary.units_run
            )),
            Err(e) => out.violations.push(format!("supervised run failed: {e}")),
        }
        out.violated("supervised run", check_report(&report));
        out.violated("supervised run", check_consistency(&p, &report));
        (probe.between(&before, &after), high_water)
    };
    let (sup_host, _) = supervised(false, &mut out);
    let journal_bytes = journal_size(&journal);
    let (_, sup_high_water) = supervised(true, &mut out);
    let units = grid_campaign.unit_count() as f64;

    // The staged model chain, and for `infer` the untraced baseline.
    let training = Campaign::new(sizes.training);
    let model_units = grid::model_units(&training);
    iot_obs::alloc::set_enabled(true);
    let (m, staged_record) = model_chain(
        &mut spans,
        &db,
        &training,
        &model_units,
        sizes,
        seed,
        &mut out,
    );
    iot_obs::alloc::set_enabled(false);
    let model_baseline = (workload == Workload::Infer)
        .then(|| model_baseline(&db, &training, &model_units, sizes, seed));
    if let Some((_, record)) = &model_baseline {
        if *record != staged_record {
            out.violations.push(
                "staged model chain differs from train_device_model/detect_activities".into(),
            );
        }
    }
    let host = probe.between(&host_start, &probe.sample());

    // Attribution of the workload's own path against its untraced time.
    let grid_scope = ["flows", "destinations", "encryption", "pii"];
    let (scope, baseline_ns): (Vec<(&str, f64)>, f64) = match workload {
        Workload::Analyze => (stage_times(&spans, &grid_scope, finish_ns), plain.ingest_ns),
        Workload::Campaign => (
            stage_times(&spans, &with(&["generate"], &grid_scope), finish_ns),
            plain.wall_ns,
        ),
        Workload::SupervisedFaulted => (
            stage_times(
                &spans,
                &with(&["generate", "degrade", "salvage"], &grid_scope),
                finish_ns,
            ),
            plain.wall_ns,
        ),
        Workload::Infer => (
            [
                "generate_corpus",
                "features",
                "cross_validate",
                "fit",
                "generate_idle",
                "materialize",
                "detect",
            ]
            .into_iter()
            .map(|s| (s, spans.ns(s)))
            .collect(),
            model_baseline.as_ref().map_or(f64::NAN, |(ns, _)| *ns),
        ),
    };
    let staged_sum: f64 = scope.iter().map(|(_, ns)| ns).sum();
    let unattributed = (baseline_ns - staged_sum) / baseline_ns;
    for (stage, ns) in &scope {
        out.notes.push(format!(
            "self time {stage:<16} {:>10.1} ms  {:>6.2}% of untraced",
            ns / 1e6,
            100.0 * ns / baseline_ns
        ));
    }
    out.notes.push(format!(
        "unattributed {:>6.2}% of the untraced {:.1} ms (negative: the staged calls cost more than the fused pass)",
        100.0 * unattributed,
        baseline_ns / 1e6
    ));
    let generate_share = match workload {
        Workload::Infer => (spans.ns("generate_corpus") + spans.ns("generate_idle")) / staged_sum,
        _ => {
            let chain: f64 = stage_times(&spans, &with(&["generate"], &grid_scope), finish_ns)
                .iter()
                .map(|(_, ns)| ns)
                .sum();
            spans.ns("generate") / chain
        }
    };

    let path = Path::new(SPAN_DIR).join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    match std::fs::create_dir_all(SPAN_DIR).and_then(|()| spans.write(&path)) {
        Ok(()) => out.notes.push(format!(
            "{} spans written to {}",
            spans.list.len(),
            path.display()
        )),
        Err(e) => out
            .violations
            .push(format!("cannot write {}: {e}", path.display())),
    }
    out.notes.push(host.describe());
    out.attempted = g.experiments + m.models;
    if !out.violations.is_empty() {
        out.failed = out.attempted;
    }

    let per = |a: f64, b: u64| a / b.max(1) as f64;
    let gen = spans.agg("generate");
    let flows = spans.agg("flows");
    let model_ns = |s: &str| spans.ns(s) / 1e6 / m.models.max(1) as f64;
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    let e = g.experiments;
    out.metrics = vec![
        Metric::new(
            "testbed.ns_per_packet",
            "ns",
            per(gen.ns as f64, g.packets),
            g.packets,
            "packets",
        ),
        Metric::new(
            "testbed.allocs_per_experiment",
            "count",
            per(gen.alloc.allocs as f64, e),
            e,
            "experiments",
        ),
        Metric::new(
            "testbed.alloc_bytes_per_packet",
            "B",
            per(gen.alloc.bytes_allocated as f64, g.packets),
            g.packets,
            "packets",
        ),
        Metric::new("testbed.busy_share", "share", generate_share, 1, "chains"),
        Metric::new(
            "net.strict_ns_per_packet",
            "ns",
            per(spans.ns("decode_probe"), g.packets),
            g.packets,
            "packets",
        ),
        Metric::new(
            "net.lenient_ns_per_packet",
            "ns",
            per(spans.ns("salvage"), g.records_degraded),
            g.records_degraded,
            "records",
        ),
        Metric::new(
            "net.salvage_resyncs",
            "count",
            g.resyncs as f64,
            e,
            "experiments",
        ),
        Metric::new(
            "net.salvage_loss_share",
            "share",
            per(
                g.records_degraded.saturating_sub(g.records_salvaged) as f64,
                g.records_degraded,
            ),
            g.records_degraded,
            "records",
        ),
        Metric::new(
            "chaos.ns_per_packet",
            "ns",
            per(spans.ns("degrade"), g.packets),
            g.packets,
            "packets",
        ),
        Metric::new(
            "flows.ns_per_packet",
            "ns",
            per(flows.ns as f64, g.flow_packets),
            g.flow_packets,
            "packets",
        ),
        Metric::new(
            "flows.allocs_per_experiment",
            "count",
            per(flows.alloc.allocs as f64, e),
            e,
            "experiments",
        ),
        Metric::new(
            "flows.per_experiment",
            "count",
            per(g.flows as f64, e),
            e,
            "experiments",
        ),
        Metric::new(
            "flows.labeled_share",
            "share",
            per(g.labeled_flows as f64, g.flows),
            g.flows,
            "flows",
        ),
        Metric::new(
            "destinations.ns_per_flow",
            "ns",
            per(spans.ns("destinations"), g.flows),
            g.flows,
            "flows",
        ),
        Metric::new(
            "encryption.ns_per_flow",
            "ns",
            per(spans.ns("encryption"), g.flows),
            g.flows,
            "flows",
        ),
        Metric::new(
            "encryption.ns_per_payload_kb",
            "ns",
            spans.ns("encryption") * 1024.0 / g.payload_bytes.max(1) as f64,
            g.flows,
            "flows",
        ),
        Metric::new(
            "pii.ns_per_flow",
            "ns",
            per(spans.ns("pii"), g.internet_flows),
            g.internet_flows,
            "flows",
        ),
        Metric::new("pii.findings", "count", g.findings as f64, e, "experiments"),
        Metric::new(
            "pipeline.ingest_ns_per_packet",
            "ns",
            plain.ingest_ns / plain.report.ingest.packets_generated.max(1) as f64,
            e,
            "experiments",
        ),
        Metric::new(
            "pipeline.unattributed_share",
            "share",
            unattributed,
            1,
            "passes",
        ),
        Metric::new(
            "pipeline.report_ms",
            "ms",
            plain.report_ns / 1e6,
            1,
            "reports",
        ),
        Metric::new(
            "pipeline.allocs_per_experiment",
            "count",
            per(counted.ingest_allocs as f64, e),
            e,
            "experiments",
        ),
        Metric::new(
            "pipeline.heap_high_water_mb",
            "MB",
            mb(counted.heap_high_water),
            1,
            "passes",
        ),
        Metric::new(
            "supervise.parallel_efficiency",
            "share",
            sup_host.cpu_ns() as f64 / (sup_workers as f64 * sup_host.wall_ns.max(1) as f64),
            1,
            "runs",
        ),
        Metric::new(
            "supervise.journal_bytes_per_unit",
            "B",
            journal_bytes as f64 / units,
            units as u64,
            "units",
        ),
        Metric::new(
            "supervise.heap_high_water_mb",
            "MB",
            mb(sup_high_water),
            1,
            "runs",
        ),
        Metric::new(
            "features.materialize_ns_per_packet",
            "ns",
            per(
                spans.ns("materialize_probe") + spans.ns("materialize"),
                m.materialized_packets,
            ),
            m.materialized_packets,
            "packets",
        ),
        Metric::new(
            "features.ns_per_packet",
            "ns",
            per(spans.ns("features"), m.corpus_packets),
            m.corpus_packets,
            "packets",
        ),
        Metric::new(
            "ml.cv_ms_per_model",
            "ms",
            model_ns("cross_validate"),
            m.models,
            "models",
        ),
        Metric::new(
            "ml.fit_ms_per_model",
            "ms",
            model_ns("fit"),
            m.models,
            "models",
        ),
        Metric::new(
            "ml.gate_pass_share",
            "share",
            per(m.gate_passed as f64, m.models),
            m.models,
            "models",
        ),
        Metric::new(
            "unexpected.ns_per_unit",
            "ns",
            per(spans.ns("segment_probe") + spans.ns("detect"), m.units),
            m.units,
            "units",
        ),
        Metric::new(
            "unexpected.detections",
            "count",
            m.detections as f64,
            m.models,
            "models",
        ),
        Metric::new(
            "host.runqueue_wait_share",
            "share",
            host.runqueue_wait_share().unwrap_or(0.0),
            1,
            "runs",
        ),
        Metric::new(
            "host.cpu_over_wall",
            "share",
            host.cpu_over_wall(),
            1,
            "runs",
        ),
        Metric::new(
            "trace.overhead_share",
            "share",
            (counted.wall_ns - plain.wall_ns) / plain.wall_ns,
            1,
            "passes",
        ),
    ];
    out
}

fn with<'a>(first: &[&'a str], rest: &[&'a str]) -> Vec<&'a str> {
    first.iter().chain(rest).copied().collect()
}

/// Self times of `stages` plus the report stage.
fn stage_times<'a>(spans: &Spans, stages: &[&'a str], finish_ns: f64) -> Vec<(&'a str, f64)> {
    let mut times: Vec<(&str, f64)> = stages.iter().map(|&s| (s, spans.ns(s))).collect();
    times.push(("finish", finish_ns));
    times
}

/// Bytes in the journal and any rolled segments beside it.
fn journal_size(journal: &Path) -> u64 {
    let mut total = std::fs::metadata(journal).map_or(0, |m| m.len());
    for seg in iot_analysis::supervise::rolled_segments(journal) {
        total += std::fs::metadata(seg).map_or(0, |m| m.len());
    }
    total
}
