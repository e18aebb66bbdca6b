//! The repository benchmark. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <campaign|analyze|supervised_faulted|infer>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's untraced closed loop and prints the
//! end-to-end metrics; `--trace 1` runs the staged per-layer trace. The
//! last line of standard output is the JSON result; the exit code is 0
//! only when every output check passed.

mod grid;
mod host;
mod output;
mod run;
mod stats;
mod timing;
mod trace;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Lazy grid generation fed into `Pipeline::ingest_experiments`.
    Campaign,
    /// The same grid generated beforehand; analysis only.
    Analyze,
    /// The supervised parallel driver with a journal and a fault plan.
    SupervisedFaulted,
    /// Per-device classifiers and idle-traffic detection.
    Infer,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists all but `Infer`.
    pub const ALL: [Workload; 4] = [
        Workload::Campaign,
        Workload::Analyze,
        Workload::SupervisedFaulted,
        Workload::Infer,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::Analyze => "analyze",
            Workload::SupervisedFaulted => "supervised_faulted",
            Workload::Infer => "infer",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

const USAGE: &str = "usage: perfbench --workload <campaign|analyze|supervised_faulted|infer> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn main() {
    // The program's own observability knobs would change what is
    // measured; the benchmark fixes them instead of inheriting them.
    for (key, _) in std::env::vars() {
        if key.starts_with("IOT_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    iot_obs::alloc::set_enabled(false);
    // Journals and span files stay inside the working directory.
    let scratch = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(1);
    }
    let sizes = grid::Sizes::medium();
    let title = format!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = if args.trace {
        trace::run(args.workload, args.seed, &sizes, &scratch)
    } else {
        run::run(args.workload, args.seed, args.seconds, &sizes, &scratch)
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    outcome.print(&title);
    std::process::exit(if outcome.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "infer",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::Infer,
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "infer", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "infer", "--seconds", "0"]).is_err());
        assert!(args(&["--workload", "infer", "--seed"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "workload required");
    }

    /// A grid small enough for a test, with every dimension still present.
    fn tiny() -> grid::Sizes {
        use iot_testbed::schedule::CampaignConfig;
        let grid = CampaignConfig {
            automated_reps: 1,
            manual_reps: 1,
            power_reps: 1,
            idle_hours: 0.05,
            include_vpn: true,
        };
        let mut inference = iot_analysis::inference::InferenceConfig::quick();
        inference.cv_repeats = 2;
        inference.forest.n_trees = 4;
        grid::Sizes {
            grid,
            training: CampaignConfig {
                automated_reps: 3,
                manual_reps: 2,
                power_reps: 3,
                ..grid
            },
            inference,
            infer_idle_hours: 0.2,
        }
    }

    #[test]
    fn tiny_grid_passes_every_check_at_a_non_default_seed() {
        let scratch = PathBuf::from(".perfbench_tmp").join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        for workload in Workload::ALL {
            let untraced = run::run(workload, 7, 0.01, &tiny(), &scratch);
            assert!(
                untraced.correct(),
                "{}: {:?}",
                workload.name(),
                untraced.violations
            );
            assert_eq!(untraced.failed, 0);
            let names: Vec<&str> = untraced.metrics.iter().map(|m| m.name).collect();
            assert_eq!(
                names,
                [
                    "setup_s",
                    "packets_per_s",
                    "cpu_us_per_packet",
                    "peak_rss_mb"
                ]
            );
            // CPU time has tick resolution, so a tiny pass may read zero.
            assert!(
                untraced.metrics.iter().all(|m| m.value >= 0.0),
                "{:?}",
                untraced.metrics
            );
            assert!(untraced.metrics[1].value > 0.0, "packets_per_s");
            let traced = trace::run(workload, 7, &tiny(), &scratch);
            assert!(
                traced.correct(),
                "{} traced: {:?}",
                workload.name(),
                traced.violations
            );
            assert_eq!(traced.metrics.len(), 36);
        }
        std::fs::remove_dir_all(&scratch).expect("scratch removed");
    }
}
