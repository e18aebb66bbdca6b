//! Every corpus table and figure of the paper from one campaign run:
//! Tables 2–8, the §4.2 device ranking, Figure 2, and the §9 headline
//! numbers. One [`Pipeline`] ingests the campaign through the same fused
//! analysis path the oracle checks; each table then reads its
//! accumulators (`destinations`, `encryption`, `pii`).
//!
//! Takes no options beyond `IOT_SCALE` (see `iot-bench`); writes
//! `results/<table>.json` (override with `IOT_RESULTS_DIR`). With
//! `IOT_OBS` set, the run's observability report is written to
//! `IOT_OBS_OUT` (default `results/obs_run.json`).

use iot_analysis::destinations::{ColumnCtx, ExpGroup};
use iot_analysis::encryption::Table8Row;
use iot_analysis::pipeline::Pipeline;
use iot_analysis::regional::significantly_different;
use iot_analysis::report::{pct, TextTable};
use iot_entropy::EncryptionClass;
use iot_geodb::party::PartyType;
use iot_obs::RunReport;
use iot_testbed::device::Category;
use iot_testbed::lab::LabSite;
use std::collections::BTreeMap;

/// The encryption classes as the paper's table rows mark them.
const CLASSES: [(EncryptionClass, &str); 3] = [
    (EncryptionClass::LikelyUnencrypted, "x"),
    (EncryptionClass::LikelyEncrypted, "enc"),
    (EncryptionClass::Unknown, "?"),
];

/// A table whose columns are `leading` followed by one column per
/// [`ColumnCtx::standard`] context.
fn standard_table(title: &str, leading: &[&str]) -> TextTable {
    let header_strings: Vec<String> = ColumnCtx::standard().iter().map(|c| c.header()).collect();
    let mut headers = leading.to_vec();
    headers.extend(header_strings.iter().map(String::as_str));
    TextTable::new(title, &headers)
}

fn main() {
    let scale = iot_bench::scale();
    iot_obs::progress!("running the campaign at {scale:?} scale…");
    let mut p = Pipeline::new();
    p.run_campaign(iot_bench::campaign_config(scale));
    iot_obs::progress!("ingested {} experiments", p.experiments());
    if p.obs().enabled() {
        let report = RunReport::from_registry("tables", p.obs())
            .meta("experiments", &p.experiments().to_string());
        match report.write() {
            Ok(path) => iot_obs::progress!("obs report written to {}", path.display()),
            Err(e) => eprintln!("obs report write failed: {e}"),
        }
    }

    table2(&p);
    table3(&p);
    table4(&p);
    figure2(&p);
    table5(&p);
    table6(&p);
    table7(&p);
    table8(&p);
    summary(&p);
}

/// Table 2: number of non-first parties contacted by devices, grouped by
/// experiment type and party type, across labs and VPN egress.
fn table2(p: &Pipeline) {
    let mut table = standard_table(
        "Table 2: non-first parties by experiment type",
        &["Experiment", "Party"],
    );
    for &group in ExpGroup::all() {
        for party in [PartyType::Support, PartyType::Third] {
            let mut row = vec![group.name().to_string(), party.to_string()];
            row.extend(ColumnCtx::standard().map(|ctx| {
                p.destinations
                    .unique_destinations(ctx, group, party)
                    .to_string()
            }));
            table.row(row);
        }
    }
    for party in [PartyType::Support, PartyType::Third] {
        let mut row = vec!["Total".to_string(), party.to_string()];
        row.extend(ColumnCtx::standard().map(|ctx| {
            p.destinations
                .unique_destinations_total(ctx, party)
                .to_string()
        }));
        table.row(row);
    }
    iot_bench::emit(
        "table2",
        &table,
        "US Total: support 98 / third 7; UK Total: support 87 / third 5; control > other \
         experiment types; power experiments drive most third-party contacts",
    );
}

/// Table 3: number of non-first parties contacted by devices, grouped by
/// device category and party type.
fn table3(p: &Pipeline) {
    let mut table = standard_table(
        "Table 3: non-first parties by device category",
        &["Category", "Party"],
    );
    for &category in Category::all() {
        for party in [PartyType::Support, PartyType::Third] {
            let mut row = vec![category.name().to_string(), party.to_string()];
            row.extend(ColumnCtx::standard().map(|ctx| {
                p.destinations
                    .unique_destinations_by_category(ctx, category, party)
                    .to_string()
            }));
            table.row(row);
        }
    }
    iot_bench::emit(
        "table3",
        &table,
        "cameras contact the most support parties (US 49 / UK 50); TVs contact the most \
         third parties (US 4 / UK 2)",
    );
}

/// Table 4: organizations contacted (as non-first parties) by the
/// largest numbers of devices, plus the per-device destination-count
/// ranking of §4.2.
fn table4(p: &Pipeline) {
    let columns = ColumnCtx::standard();
    // Collect per-context org→devices maps, then rank orgs by the US count.
    let per_ctx: Vec<BTreeMap<&'static str, usize>> = columns
        .iter()
        .map(|&ctx| p.destinations.org_device_counts(ctx).into_iter().collect())
        .collect();
    let mut ranked: Vec<(&'static str, usize)> = p.destinations.org_device_counts(columns[0]);
    ranked.truncate(10);
    let mut table = standard_table(
        "Table 4: organizations contacted by multiple devices",
        &["Organization"],
    );
    for (org, _) in &ranked {
        let mut row = vec![org.to_string()];
        for ctx_map in &per_ctx {
            row.push(ctx_map.get(org).copied().unwrap_or(0).to_string());
        }
        table.row(row);
    }
    iot_bench::emit(
        "table4",
        &table,
        "Amazon tops the list (31 US / 24 UK devices), followed by Google, Akamai, \
         Microsoft; Chinese clouds (Kingsoft, 21Vianet, Alibaba) serve Chinese devices",
    );

    // §4.2: devices ranked by unique destination count.
    let mut dev_table = TextTable::new(
        "§4.2: devices contacting the most unique destinations (US lab)",
        &["Device", "Destinations"],
    );
    let counts = p.destinations.device_destination_counts(ColumnCtx {
        site: LabSite::Us,
        vpn: false,
        common_only: false,
    });
    for (device, n) in counts.iter().take(8) {
        dev_table.row(vec![device.to_string(), n.to_string()]);
    }
    iot_bench::emit(
        "table4_devices",
        &dev_table,
        "Wansview camera contacts the most destinations (52), then Samsung TV (30), \
         Roku TV (15), TP-Link plug (13)",
    );
}

/// Figure 2: traffic volume from each lab, by device category, to each
/// destination country — the Sankey diagram's underlying series.
fn figure2(p: &Pipeline) {
    for site in LabSite::all() {
        let flows = p.destinations.region_flows(site);
        let total: u64 = flows.iter().map(|(_, _, b)| b).sum();
        let mut table = TextTable::new(
            format!(
                "Figure 2 ({} lab): bytes by category → country",
                site.name()
            ),
            &["Category", "Country", "Bytes", "% of lab"],
        );
        for (category, country, bytes) in flows.iter().take(25) {
            table.row(vec![
                category.name().to_string(),
                country.code().to_string(),
                bytes.to_string(),
                format!("{:.1}", *bytes as f64 * 100.0 / total as f64),
            ]);
        }
        iot_bench::emit(
            &format!("figure2_{}", site.name().to_lowercase()),
            &table,
            "most traffic terminates in the US for BOTH labs; China receives most of the \
             overseas share (Alibaba-hosted devices); UK devices contact fewer countries",
        );
        // Headline per-country rollup.
        let mut per_country: BTreeMap<&str, u64> = BTreeMap::new();
        for (_, country, bytes) in &flows {
            *per_country.entry(country.code()).or_default() += bytes;
        }
        let mut rollup: Vec<_> = per_country.into_iter().collect();
        rollup.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        let summary: Vec<String> = rollup
            .iter()
            .take(7)
            .map(|(c, b)| format!("{c}:{:.1}%", *b as f64 * 100.0 / total as f64))
            .collect();
        println!(
            "{} lab top destination countries: {}\n",
            site.name(),
            summary.join(" ")
        );
    }
}

/// Table 5: number of devices per encryption-percentage quartile
/// (unencrypted ✗ / encrypted ✓ / unknown ?) across labs and VPN egress.
fn table5(p: &Pipeline) {
    let mut table = standard_table(
        "Table 5: devices by encryption percentage quartile",
        &["Enc", "Range"],
    );
    let ranges = [">75", "50-75", "25-50", "<25"];
    for (class, sym) in CLASSES {
        let hists = ColumnCtx::standard().map(|c| {
            p.encryption
                .quartile_histogram(c.site, c.vpn, c.common_only, class)
        });
        for (i, range) in ranges.iter().enumerate() {
            let mut row = vec![sym.to_string(), range.to_string()];
            row.extend(hists.iter().map(|hist| hist[i].to_string()));
            table.row(row);
        }
    }
    iot_bench::emit(
        "table5",
        &table,
        "no device exceeds 75% unencrypted; 7 devices per lab exceed 75% encrypted; all \
         but ~10 devices have >25% unknown traffic",
    );
}

/// Table 6: per-category percentage of bytes sent unencrypted /
/// encrypted / unknown across labs and VPN egress.
fn table6(p: &Pipeline) {
    let mut table = standard_table(
        "Table 6: percent of bytes per category",
        &["Enc", "Category"],
    );
    for (class, sym) in CLASSES {
        for &category in Category::all() {
            let mut row = vec![sym.to_string(), category.name().to_string()];
            row.extend(ColumnCtx::standard().map(|c| {
                pct(p
                    .encryption
                    .category_percent(c.site, c.vpn, c.common_only, category, class))
            }));
            table.row(row);
        }
    }
    iot_bench::emit(
        "table6",
        &table,
        "cameras expose the largest unencrypted share (≈11% US, 10% UK, driven by \
         Microseven/Zmodo/spy cameras); audio devices are >60% encrypted; hubs and \
         appliances are mostly unknown (proprietary protocols)",
    );
}

/// Table 7: per-device average percentage of unencrypted bytes, with
/// Welch-test significance marks: `*` for US-vs-UK differences (the
/// paper's italics), `!` for native-vs-VPN differences (the paper's
/// bold).
fn table7(p: &Pipeline) {
    // The paper's Table 7 device list.
    let devices = [
        "TP-Link Plug",
        "TP-Link Bulb",
        "Nest Thermostat",
        "Smartthings Hub",
        "Samsung TV",
        "Echo Spot",
        "Echo Plus",
        "Fire TV",
        "Echo Dot",
        "Yi Cam",
        "Samsung Dryer",
        "Samsung Washer",
        "D-Link Movement Sensor",
    ];
    let mut table = TextTable::new(
        "Table 7: average % unencrypted bytes per device",
        &["Device", "US", "UK", "US→UK", "UK→US", "sig"],
    );
    for name in devices {
        let cell = |site: LabSite, vpn: bool| {
            p.encryption
                .device_unencrypted_percent(name, site, vpn)
                .map(pct)
                .unwrap_or_else(|| "-".to_string())
        };
        let sample = |site: LabSite, vpn: bool| p.encryption.unencrypted_samples(name, site, vpn);
        let mut marks = String::new();
        if significantly_different(&sample(LabSite::Us, false), &sample(LabSite::Uk, false)) {
            marks.push('*'); // italic in the paper: US vs UK
        }
        if significantly_different(&sample(LabSite::Us, false), &sample(LabSite::Us, true))
            || significantly_different(&sample(LabSite::Uk, false), &sample(LabSite::Uk, true))
        {
            marks.push('!'); // bold in the paper: native vs VPN
        }
        table.row(vec![
            name.to_string(),
            cell(LabSite::Us, false),
            cell(LabSite::Uk, false),
            cell(LabSite::Us, true),
            cell(LabSite::Uk, true),
            marks,
        ]);
    }
    iot_bench::emit(
        "table7",
        &table,
        "TP-Link plug 18.6/8.7%, bulb 13.1/12.8%, Nest 11.6/15.8%, Smartthings 6.7/16.6% \
         (significant US-vs-UK), Samsung TV 7.1/4.5% (significant VPN effect), laundry \
         pair ~28% (US only), D-Link sensor 14.9%",
    );
}

/// Table 8: percentage of bytes unencrypted / encrypted / unknown
/// grouped by experiment type.
fn table8(p: &Pipeline) {
    let mut table = TextTable::new(
        "Table 8: percent of bytes by experiment type",
        &["Enc", "Experiment", "US", "UK", "US→UK", "UK→US"],
    );
    for (class, sym) in CLASSES {
        for &row_kind in Table8Row::all() {
            if row_kind == Table8Row::Uncontrolled {
                continue; // regenerated by the user_study binary
            }
            let mut row = vec![sym.to_string(), row_kind.name().to_string()];
            for (site, vpn) in [
                (LabSite::Us, false),
                (LabSite::Uk, false),
                (LabSite::Us, true),
                (LabSite::Uk, true),
            ] {
                row.push(pct(p.encryption.row_percent(site, vpn, row_kind, class)));
            }
            table.row(row);
        }
    }
    iot_bench::emit(
        "table8",
        &table,
        "voice has the highest encrypted share (58.7% US / 67.4% UK); video the lowest \
         (9.2/15.1%) with the most unknown (83.8/82.2%); power shows the most plaintext \
         (8.2/10.2%)",
    );
}

/// §9 headline numbers: the conclusion's aggregate statistics.
fn summary(p: &Pipeline) {
    let dest = &p.destinations;
    let mut table = TextTable::new("§9 headline statistics", &["Statistic", "Ours", "Paper"]);
    let (with_nfp, total_devices) = dest.devices_with_non_first_party();
    table.row(vec![
        "devices with ≥1 non-first-party destination".into(),
        format!("{with_nfp}/{total_devices}"),
        "72/81".into(),
    ]);
    for (site, paper) in [(LabSite::Us, "57.45%"), (LabSite::Uk, "50.27%")] {
        table.row(vec![
            format!("% destinations non-first party ({})", site.name()),
            format!("{:.2}%", dest.non_first_party_fraction(site) * 100.0),
            paper.into(),
        ]);
    }
    for (site, paper) in [(LabSite::Us, "56%"), (LabSite::Uk, "83.8%")] {
        table.row(vec![
            format!(
                "% devices contacting out-of-region destinations ({})",
                site.name()
            ),
            format!("{:.1}%", dest.out_of_region_device_fraction(site) * 100.0),
            paper.into(),
        ]);
    }
    table.row(vec![
        "PII findings in plaintext traffic".into(),
        p.pii.len().to_string(),
        "limited but notable (MACs, geolocation, device names)".into(),
    ]);
    let non_first_pii = p
        .pii
        .iter()
        .filter(|f| f.party.map(|party| party.is_non_first()).unwrap_or(true))
        .count();
    table.row(vec![
        "PII findings exposed to non-first parties".into(),
        non_first_pii.to_string(),
        "e.g. Samsung Fridge MAC → EC2; Magichome MAC → Alibaba".into(),
    ]);
    table.row(vec![
        "experiments ingested".into(),
        p.experiments().to_string(),
        "34,586 controlled".into(),
    ]);
    iot_bench::emit(
        "summary",
        &table,
        "see §9 of the paper for the reference values",
    );
}
