//! The seeded experiment grid, made lazily one experiment at a time
//! through the testbed's public runners.
//!
//! The seed offsets the `rep` index of every controlled experiment, so
//! each seed draws different power and interaction traffic over the same
//! grid shape. Idle captures are seeded by device identity alone, so the
//! seed does not vary them. Seed 0 is exactly the grid of
//! `Campaign::run` + `Campaign::run_idle`.

use iot_analysis::inference::InferenceConfig;
use iot_geodb::registry::GeoDb;
use iot_testbed::device::{ActivitySpec, InteractionMethod};
use iot_testbed::experiment::{run_idle, run_interaction, run_power, LabeledExperiment};
use iot_testbed::lab::DeviceInstance;
use iot_testbed::schedule::{Campaign, CampaignConfig};

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// The campaign grid (`campaign`, `analyze`, `supervised_faulted`).
    pub grid: CampaignConfig,
    /// The per-device training grid (`infer`).
    pub training: CampaignConfig,
    /// Cross-validation and forest settings (`infer`).
    pub inference: InferenceConfig,
    /// Hours of idle capture each `infer` model classifies.
    pub infer_idle_hours: f64,
}

impl Sizes {
    /// The medium scale of the table binaries: 6,908 experiments in the
    /// grid; the Table 10 training grid and the Table 11 idle length.
    pub fn medium() -> Sizes {
        let scale = iot_bench::Scale::Medium;
        Sizes {
            grid: iot_bench::campaign_config(scale),
            training: iot_bench::training_campaign(scale).config,
            inference: iot_bench::inference_config(scale),
            infer_idle_hours: 8.0,
        }
    }
}

/// The (unit, VPN egress) pairs `infer` trains one model each for:
/// every deployed unit at native and at VPN egress.
pub fn model_units(campaign: &Campaign) -> Vec<(DeviceInstance, bool)> {
    campaign
        .labs()
        .iter()
        .flat_map(|lab| &lab.devices)
        .flat_map(|d| [(d.clone(), false), (d.clone(), true)])
        .collect()
}

/// The `rep` offset a seed selects (its low 32 bits).
pub fn rep_offset(seed: u64) -> u32 {
    (seed % (1u64 << 32)) as u32
}

/// One experiment to generate.
#[derive(Debug, Clone)]
pub enum Job {
    /// A power experiment.
    Power {
        device: DeviceInstance,
        vpn: bool,
        rep: u32,
    },
    /// A scripted interaction.
    Interaction {
        device: DeviceInstance,
        activity: &'static ActivitySpec,
        method: InteractionMethod,
        vpn: bool,
        rep: u32,
    },
    /// An idle capture.
    Idle {
        device: DeviceInstance,
        vpn: bool,
        hours: f64,
    },
}

impl Job {
    /// Generates the experiment.
    pub fn run(&self, db: &GeoDb) -> LabeledExperiment {
        match self {
            Job::Power { device, vpn, rep } => run_power(db, device, *vpn, *rep, 0),
            Job::Interaction {
                device,
                activity,
                method,
                vpn,
                rep,
            } => run_interaction(db, device, activity, *method, *vpn, *rep, 0),
            Job::Idle { device, vpn, hours } => run_idle(db, device, *vpn, *hours, 0),
        }
    }
}

/// Every experiment of the campaign grid, unit by unit (one lab × device
/// at a time: controlled experiments, then its idle captures), with every
/// controlled `rep` shifted by `offset`.
pub fn jobs(campaign: &Campaign, offset: u32) -> Vec<Job> {
    let config = campaign.config;
    let vpns: &[bool] = if config.include_vpn {
        &[false, true]
    } else {
        &[false]
    };
    let mut jobs = Vec::new();
    for lab in campaign.labs() {
        for device in &lab.devices {
            for &vpn in vpns {
                for rep in 0..config.power_reps {
                    let rep = rep.wrapping_add(offset);
                    jobs.push(Job::Power {
                        device: device.clone(),
                        vpn,
                        rep,
                    });
                }
                for activity in &device.spec().activities {
                    for &method in activity.methods {
                        let reps = if method.is_automated() {
                            config.automated_reps
                        } else {
                            config.manual_reps
                        };
                        for rep in 0..reps {
                            jobs.push(Job::Interaction {
                                device: device.clone(),
                                activity,
                                method,
                                vpn,
                                rep: rep.wrapping_add(offset),
                            });
                        }
                    }
                }
            }
            for &vpn in vpns {
                jobs.push(Job::Idle {
                    device: device.clone(),
                    vpn,
                    hours: config.idle_hours,
                });
            }
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            automated_reps: 1,
            manual_reps: 1,
            power_reps: 1,
            idle_hours: 0.05,
            include_vpn: false,
        }
    }

    #[test]
    fn seed_zero_is_the_campaign_grid() {
        let db = GeoDb::new();
        let campaign = Campaign::new(tiny());
        let key = |e: &LabeledExperiment| (e.device_name, e.site, e.vpn, e.label.clone(), e.rep);
        let mut expected = Vec::new();
        campaign.run(&db, |e| expected.push(key(&e)));
        campaign.run_idle(&db, |e| expected.push(key(&e)));
        let mut got: Vec<_> = jobs(&campaign, 0)
            .iter()
            .map(|j| key(&j.run(&db)))
            .collect();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        assert_eq!(
            jobs(&campaign, 0).len() as u64,
            campaign.controlled_experiment_count() + campaign.unit_count() as u64
        );
    }

    #[test]
    fn seed_shifts_controlled_reps_only() {
        let campaign = Campaign::new(tiny());
        let shifted = jobs(&campaign, rep_offset(7));
        assert_eq!(shifted.len(), jobs(&campaign, 0).len());
        for job in &shifted {
            match job {
                Job::Power { rep, .. } | Job::Interaction { rep, .. } => assert_eq!(*rep, 7),
                Job::Idle { .. } => {}
            }
        }
        assert_eq!(rep_offset((1 << 32) + 3), 3);
    }
}
