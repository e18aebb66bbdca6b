//! The untraced closed loops that give the end-to-end metrics.
//!
//! Every workload repeats whole passes over its seeded input until the
//! run time is spent (at least [`MIN_PASSES`], so cross-pass checks always
//! run). One feeding thread waits for each pass before starting the
//! next. Output checks run between passes, outside the timed region.

use crate::grid::{self, Sizes};
use crate::host::{Interval, Probe};
use crate::output::{Metric, Outcome};
use crate::stats;
use crate::timing::TimedIter;
use crate::Workload;
use iot_analysis::inference::{train_device_model, TrainedDeviceModel};
use iot_analysis::supervise::SupervisorConfig;
use iot_analysis::unexpected::{detect_activities, detection_counts, Detection};
use iot_analysis::{Pipeline, PipelineReport};
use iot_chaos::FaultPlan;
use iot_core::json::ToJson;
use iot_geodb::registry::GeoDb;
use iot_oracle::invariants::{check_consistency, check_detection_counts, check_report};
use iot_testbed::experiment::{run_idle, LabeledExperiment};
use iot_testbed::lab::DeviceInstance;
use iot_testbed::schedule::Campaign;
use std::path::Path;
use std::time::Instant;

/// Set-ups timed before the first pass.
pub const SETUP_REPS_FIRST: usize = 21;
/// Set-ups timed after each pass. The host's speed drifts over seconds,
/// so set-ups spread over the run give a steadier median than one burst.
pub const SETUP_REPS_PER_PASS: usize = 5;
/// Passes every run makes, however short its time.
pub const MIN_PASSES: usize = 2;
/// Per-packet and per-byte fault rate of `supervised_faulted`.
pub const FAULT_RATE: f64 = 0.02;

/// The worker count of the parallel driver: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `workload` for about `seconds` and checks every pass.
pub fn run(workload: Workload, seed: u64, seconds: f64, sizes: &Sizes, scratch: &Path) -> Outcome {
    let probe = Probe::detect();
    let mut out = Outcome::default();
    out.notes.extend(probe.fallback_notes());
    let mut run = Run {
        probe,
        seconds,
        passes: Vec::new(),
        minima: stats::ItemMinima::default(),
        latencies: stats::Histogram::default(),
        peak_rss_mb: None,
        out,
    };
    match workload {
        Workload::Campaign | Workload::Analyze => run.pipeline(workload, seed, sizes),
        Workload::SupervisedFaulted => run.supervised(seed, sizes, scratch),
        Workload::Infer => run.infer(seed, sizes),
    }
    run.finish()
}

/// How a workload reports its per-item latency.
#[derive(Clone, Copy)]
struct LatencySpec {
    p50: &'static str,
    tail: &'static str,
    /// The tail percentile, in hundredths of a percent.
    tail_bp: u64,
    unit: &'static str,
    ns_per_unit: f64,
    of: &'static str,
}

const EXPERIMENT_LATENCY: LatencySpec = LatencySpec {
    p50: "experiment_p50_us",
    tail: "experiment_p99_us",
    tail_bp: 9900,
    unit: "us",
    ns_per_unit: 1e3,
    of: "experiments",
};

const MODEL_LATENCY: LatencySpec = LatencySpec {
    p50: "model_p50_ms",
    tail: "model_p90_ms",
    tail_bp: 9000,
    unit: "ms",
    ns_per_unit: 1e6,
    of: "models",
};

/// One timed pass.
struct Pass {
    host: Interval,
    packets: u64,
}

struct Run {
    probe: Probe,
    seconds: f64,
    passes: Vec<Pass>,
    /// Each item's fastest time over the passes.
    minima: stats::ItemMinima,
    /// Per-item latencies of every pass.
    latencies: stats::Histogram,
    /// `VmHWM` when timing ends.
    peak_rss_mb: Option<f64>,
    out: Outcome,
}

/// Times a workload's set-up: everything done before the first input is
/// read. `setup_s` is the median of every timed set-up of the run.
struct Setup<F> {
    setup: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Times `SETUP_REPS_FIRST` set-ups and keeps the last one's result.
    fn first(setup: F) -> (Self, T) {
        let mut s = Setup {
            setup,
            times: Vec::new(),
        };
        for _ in 1..SETUP_REPS_FIRST {
            drop(s.once());
        }
        let kept = s.once();
        (s, kept)
    }

    fn once(&mut self) -> T {
        let start = Instant::now();
        let value = std::hint::black_box((self.setup)());
        self.times.push(start.elapsed().as_secs_f64());
        value
    }

    /// Times `SETUP_REPS_PER_PASS` more set-ups, between passes.
    fn again(&mut self) {
        for _ in 0..SETUP_REPS_PER_PASS {
            drop(self.once());
        }
    }

    fn metric(&self) -> Metric {
        Metric::new(
            "setup_s",
            "s",
            stats::median(&self.times),
            self.times.len() as u64,
            "set-ups",
        )
    }
}

/// The report's JSON, the bytes every driver must agree on.
pub fn report_json(report: &PipelineReport) -> String {
    report.to_json().dump()
}

/// Operations a report accounts for, and how many of them failed.
fn report_ops(report: &PipelineReport) -> (u64, u64) {
    let ingest = &report.ingest;
    let failed = ingest.experiments_quarantined + ingest.experiments_abandoned;
    (ingest.experiments_ingested + failed, failed)
}

impl Run {
    fn more(&self, started: Instant) -> bool {
        self.passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < self.seconds
    }

    /// Reads peak memory once the timed passes are done, before the
    /// reference is computed. After one pass it is bimodal (where large
    /// buffers land varies per process); over a run's passes it settles.
    fn timing_done(&mut self) {
        self.peak_rss_mb = iot_obs::process::peak_rss_bytes().map(|b| b as f64 / (1 << 20) as f64);
    }

    /// Keeps a timed pass: its host readout, with each item's time
    /// (`samples`, in input order) folded into the running minima and the
    /// latency histogram.
    fn keep_pass(&mut self, host: Interval, packets: u64, samples: &[u64]) {
        let rest = host.wall_ns.saturating_sub(samples.iter().sum());
        self.minima.fold(samples, rest);
        for &ns in samples {
            self.latencies.record(ns);
        }
        self.passes.push(Pass { host, packets });
    }

    /// Records a finished pipeline pass and checks its report.
    fn pipeline_pass(
        &mut self,
        label: &str,
        pipeline: &Pipeline,
        report: &PipelineReport,
        host: Interval,
        samples: &[u64],
    ) {
        self.out.violated(label, check_report(report));
        self.out
            .violated(label, check_consistency(pipeline, report));
        let (attempted, failed) = report_ops(report);
        self.out.attempted += attempted;
        self.out.failed += failed;
        self.keep_pass(host, report.ingest.packets_generated, samples);
    }

    /// Holds a pass's report against the run's first one.
    fn same_as_first(&mut self, first: &mut Option<String>, label: &str, report: &PipelineReport) {
        let json = report_json(report);
        match first {
            Some(want) => self.same_report(label, &json, want),
            None => *first = Some(json),
        }
    }

    fn same_report(&mut self, what: &str, got: &str, want: &str) {
        if got != want {
            let at = got
                .bytes()
                .zip(want.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            self.out.violations.push(format!(
                "{what}: report differs from the reference at byte {at} ({} vs {} bytes)",
                got.len(),
                want.len()
            ));
        }
    }

    fn latency(&mut self, spec: &LatencySpec) {
        let LatencySpec {
            p50: name_p50,
            tail: name_tail,
            tail_bp,
            unit,
            ns_per_unit,
            of,
        } = *spec;
        let n = self.latencies.len();
        if n == 0 {
            self.out
                .violations
                .push(format!("{name_p50}: no latency samples"));
            return;
        }
        let at = |bp| self.latencies.percentile(bp) / ns_per_unit;
        self.out
            .extra
            .push(Metric::new(name_p50, unit, at(5000), n, of));
        match stats::tail_percentile(n) {
            Some(best) if best >= tail_bp => {
                self.out
                    .extra
                    .push(Metric::new(name_tail, unit, at(tail_bp), n, of));
                self.out.notes.push(format!(
                    "{of}: {n} samples; highest percentile with >= {} beyond: {} = {:.1} {unit}",
                    stats::MIN_BEYOND,
                    stats::percentile_name(best),
                    at(best)
                ));
            }
            best => self.out.notes.push(format!(
                "{of}: {n} samples too few for {name_tail}; highest supported percentile: {}",
                best.map_or("none".to_string(), stats::percentile_name)
            )),
        }
    }

    /// `campaign` and `analyze`: the serial `Pipeline::ingest_experiments`
    /// path fed by the lazy grid or by captures generated beforehand.
    fn pipeline(&mut self, workload: Workload, seed: u64, sizes: &Sizes) {
        let (mut setup, (db, _campaign, jobs, _)) = Setup::first(|| {
            let db = GeoDb::new();
            let campaign = Campaign::new(sizes.grid);
            let jobs = grid::jobs(&campaign, grid::rep_offset(seed));
            (db, campaign, jobs, Pipeline::with_obs(false))
        });
        let pregenerated: Vec<LabeledExperiment> = match workload {
            Workload::Analyze => jobs.iter().map(|j| j.run(&db)).collect(),
            _ => Vec::new(),
        };
        let mut first: Option<String> = None;
        let started = Instant::now();
        while self.more(started) {
            if !self.passes.is_empty() {
                setup.again();
            }
            let mut pipeline = Pipeline::with_obs(false);
            let batch = pregenerated.clone();
            let (report, host, latencies) = {
                let before = self.probe.sample();
                let latencies = if workload == Workload::Analyze {
                    let mut feed = TimedIter::new(batch.into_iter(), jobs.len());
                    pipeline.ingest_experiments(&mut feed);
                    feed.samples
                } else {
                    let mut feed = TimedIter::new(jobs.iter().map(|j| j.run(&db)), jobs.len());
                    pipeline.ingest_experiments(&mut feed);
                    feed.samples
                };
                let report = pipeline.build_report();
                let after = self.probe.sample();
                (report, self.probe.between(&before, &after), latencies)
            };
            let label = format!("pass {}", self.passes.len() + 1);
            self.pipeline_pass(&label, &pipeline, &report, host, &latencies);
            self.same_as_first(&mut first, &label, &report);
        }
        self.timing_done();
        // The reference: the repository's own serial driver at seed 0;
        // at other seeds the other feeding path over the same grid.
        let (reference, what) = if seed == 0 {
            let mut p = Pipeline::with_obs(false);
            p.run_campaign(sizes.grid);
            (p.finish(), "Pipeline::run_campaign")
        } else {
            let mut p = Pipeline::with_obs(false);
            if workload == Workload::Analyze {
                p.ingest_experiments(jobs.iter().map(|j| j.run(&db)));
                (p.finish(), "lazily generated grid")
            } else {
                let all: Vec<LabeledExperiment> = jobs.iter().map(|j| j.run(&db)).collect();
                p.ingest_experiments(all);
                (p.finish(), "pregenerated grid")
            }
        };
        let want = report_json(&reference);
        self.same_report(
            &format!("reference ({what})"),
            first.as_deref().unwrap_or(""),
            &want,
        );
        self.out.notes.push(format!(
            "{} experiments and {} packets per pass; reference: {what}",
            jobs.len(),
            self.passes[0].packets
        ));
        self.common(setup.metric());
        self.latency(&EXPERIMENT_LATENCY);
    }

    /// `supervised_faulted`: the supervised parallel driver with a
    /// journal and a uniform fault plan, as `moniotr campaign --journal`.
    fn supervised(&mut self, seed: u64, sizes: &Sizes, scratch: &Path) {
        let plan = FaultPlan::uniform(seed, FAULT_RATE);
        let journal = scratch.join("journal");
        let workers = workers();
        let sup = SupervisorConfig {
            journal: Some(journal),
            ..SupervisorConfig::default()
        };
        let (mut setup, _) = Setup::first(|| {
            let mut p = Pipeline::with_obs(true);
            p.set_fault_plan(plan);
            p
        });
        let mut first: Option<String> = None;
        let started = Instant::now();
        while self.more(started) {
            if !self.passes.is_empty() {
                setup.again();
            }
            let mut pipeline = Pipeline::with_obs(true);
            pipeline.set_fault_plan(plan);
            let before = self.probe.sample();
            let ran = pipeline.run_campaign_supervised(sizes.grid, workers, &sup);
            let report = pipeline.build_report();
            let after = self.probe.sample();
            let label = format!("pass {}", self.passes.len() + 1);
            if let Err(e) = ran {
                self.out
                    .violations
                    .push(format!("{label}: supervised run failed: {e}"));
            }
            let host = self.probe.between(&before, &after);
            self.pipeline_pass(&label, &pipeline, &report, host, &[]);
            self.same_as_first(&mut first, &label, &report);
        }
        self.timing_done();
        let mut serial = Pipeline::with_obs(false);
        serial.set_fault_plan(plan);
        serial.run_campaign(sizes.grid);
        let reference = serial.finish();
        let want = report_json(&reference);
        self.same_report(
            "reference (serial run_campaign, same fault plan)",
            first.as_deref().unwrap_or(""),
            &want,
        );
        self.out.notes.push(format!(
            "{workers} workers; fault plan uniform(seed {seed}, {FAULT_RATE}); salvage kept {} of {} packets",
            reference.ingest.packets_ingested, reference.ingest.packets_generated
        ));
        self.common(setup.metric());
    }

    /// `infer`: Tables 10-11. A model per deployed unit and egress, then
    /// activity detection over an idle capture.
    fn infer(&mut self, seed: u64, sizes: &Sizes) {
        let (mut setup, (db, campaign, units, config)) = Setup::first(|| {
            let db = GeoDb::new();
            let campaign = Campaign::new(sizes.training);
            let units = grid::model_units(&campaign);
            let mut config = sizes.inference;
            config.forest.seed = seed;
            (db, campaign, units, config)
        });
        let mut idle_packets = 0u64;
        let mut first: Option<String> = None;
        let mut gate_passed = 0u64;
        let started = Instant::now();
        while self.more(started) {
            if !self.passes.is_empty() {
                setup.again();
            }
            let label = format!("pass {}", self.passes.len() + 1);
            let mut record = String::new();
            let mut pass_idle = 0u64;
            let mut failed = 0u64;
            let mut passed = 0u64;
            let before = self.probe.sample();
            let mut feed = TimedIter::new(
                units.iter().map(|(d, vpn)| {
                    let model = train_device_model(&db, &campaign, d, *vpn, &config);
                    let idle = run_idle(&db, d, *vpn, sizes.infer_idle_hours, 0);
                    (d, *vpn, model, idle)
                }),
                units.len(),
            );
            for (d, vpn, model, idle) in &mut feed {
                pass_idle += idle.packet_count() as u64;
                let detections = detect_activities(&model, &idle.packets());
                record_model(&mut record, d, vpn, &model, &detections);
                if !model.cv_macro_f1.is_finite() {
                    failed += 1;
                }
                if let Some(found) = &detections {
                    passed += 1;
                    let what = format!("{label} {} {:?} vpn={vpn}", d.spec().name, d.site);
                    self.out.violated(
                        &what,
                        check_detection_counts(found, &detection_counts(found)),
                    );
                }
            }
            let after = self.probe.sample();
            let host = self.probe.between(&before, &after);
            self.out.attempted += units.len() as u64;
            self.out.failed += failed;
            gate_passed = passed;
            idle_packets = pass_idle;
            self.keep_pass(host, pass_idle, &feed.samples);
            match &first {
                Some(want) if *want != record => self.out.violations.push(format!(
                    "{label}: CV-F1 or detection counts differ from pass 1"
                )),
                Some(_) => {}
                None => first = Some(record),
            }
        }
        self.timing_done();
        // Training packets do not depend on the forest seed: count them
        // once, after timing, by generating the training corpora again.
        let mut training_packets = 0u64;
        for (d, vpn) in &units {
            campaign.run_device(&db, d, *vpn, |e| {
                training_packets += e.packet_count() as u64
            });
        }
        for pass in &mut self.passes {
            pass.packets += training_packets;
        }
        let models = units.len() as u64;
        let n_passes = self.passes.len() as u64;
        let per_pass = |f: &dyn Fn(&Pass) -> f64| {
            stats::median(&self.passes.iter().map(f).collect::<Vec<_>>())
        };
        let models_per_s = per_pass(&|p| models as f64 * 1e9 / p.host.wall_ns.max(1) as f64);
        let cpu_ms_per_model = per_pass(&|p| p.host.cpu_ns() as f64 / 1e6 / models as f64);
        self.out.extra.push(Metric::new(
            "models_per_s",
            "1/s",
            models_per_s,
            n_passes,
            "passes",
        ));
        self.out.extra.push(Metric::new(
            "cpu_ms_per_model",
            "ms",
            cpu_ms_per_model,
            n_passes,
            "passes",
        ));
        self.out.notes.push(format!(
            "{models} models per pass; {gate_passed} pass the F1 > 0.9 gate; {training_packets} training + \
             {idle_packets} idle packets per pass; forest seed {seed}"
        ));
        self.common(setup.metric());
        self.latency(&MODEL_LATENCY);
    }

    /// The metrics every workload reports, in `BENCHMARK.json` order.
    ///
    /// A shared host can slow the core for stretches of seconds to a
    /// minute (up to 1.6x on a 2-vCPU Xeon VM), so a median over passes
    /// moved by a quarter between runs there. Every pass repeats the same
    /// items (experiments, models) on the same inputs, so `packets_per_s`
    /// rests on the sum of each item's fastest time over the run's
    /// passes: the program's cost with host interference removed as far
    /// as the run could observe it. The median-pass rate is
    /// printed beside it.
    fn common(&mut self, setup: Metric) {
        let n = self.passes.len() as u64;
        let fastest_ns = self.minima.sum();
        if fastest_ns.is_none() {
            self.out
                .violations
                .push("passes disagree on their item count".into());
        }
        let packets = self.passes[0].packets;
        let packets_per_s = packets as f64 * 1e9 / fastest_ns.unwrap_or(0).max(1) as f64;
        // CPU time inflates with wall time when the host slows the core, so
        // per-packet CPU is the passes' CPU-to-wall ratio (how many cores
        // the workload keeps busy) times the steady wall time per packet.
        let cpu_per_wall = stats::median(
            &self
                .passes
                .iter()
                .map(|p| p.host.cpu_over_wall())
                .collect::<Vec<_>>(),
        );
        let cpu_us_per_packet =
            cpu_per_wall * fastest_ns.unwrap_or(0) as f64 / 1e3 / packets.max(1) as f64;
        let median_rate = stats::median(
            &self
                .passes
                .iter()
                .map(|p| p.packets as f64 * 1e9 / p.host.wall_ns.max(1) as f64)
                .collect::<Vec<_>>(),
        );
        let total = self.passes[1..]
            .iter()
            .fold(self.passes[0].host, |mut total, p| {
                total.add(&p.host);
                total
            });
        self.out.notes.push(total.describe());
        let per_pass_rates: Vec<String> = self
            .passes
            .iter()
            .map(|p| {
                format!(
                    "{:.0}",
                    p.packets as f64 * 1e9 / p.host.wall_ns.max(1) as f64
                )
            })
            .collect();
        self.out
            .notes
            .push(format!("packets/s by pass: {}", per_pass_rates.join(" ")));
        let peak_rss_mb = self.peak_rss_mb;
        if peak_rss_mb.is_none() {
            self.out
                .violations
                .push("peak_rss_mb: /proc/self/status has no VmHWM".into());
        }
        self.out.metrics = vec![
            setup,
            Metric::new("packets_per_s", "1/s", packets_per_s, n, "passes"),
            Metric::new("cpu_us_per_packet", "us", cpu_us_per_packet, n, "passes"),
            Metric::new(
                "peak_rss_mb",
                "MB",
                peak_rss_mb.unwrap_or(f64::NAN),
                1,
                "readings",
            ),
        ];
        self.out.extra.insert(
            0,
            Metric::new("median_pass_packets_per_s", "1/s", median_rate, n, "passes"),
        );
    }

    /// Every operation of a run whose output checks failed counts as
    /// failed.
    fn finish(mut self) -> Outcome {
        if !self.out.violations.is_empty() {
            self.out.failed = self.out.attempted;
        }
        self.out
    }
}

/// Appends one model's CV scores and detection counts to a pass record.
/// F1 scores are written in full (`{:?}` round-trips), so two records are
/// equal only when every score is bit-identical.
pub fn record_model(
    record: &mut String,
    d: &DeviceInstance,
    vpn: bool,
    model: &TrainedDeviceModel,
    detections: &Option<Vec<Detection>>,
) {
    let detected = match detections {
        None => "gated".to_string(),
        Some(found) => format!("{:?}", detection_counts(found)),
    };
    record.push_str(&format!(
        "{} {:?} vpn={vpn} f1={:?} per_label={:?} detected={detected}\n",
        d.spec().name,
        d.site,
        model.cv_macro_f1,
        model.cv_f1_per_label
    ));
}
