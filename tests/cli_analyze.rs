//! `moniotr capture` → `moniotr analyze` end to end, through the real
//! binary and the on-disk lab layout. The pinned columns (label,
//! packets, unenc%, PII) were recorded from the hand-written analysis
//! loop `analyze` used before it ran each label span through `Pipeline`;
//! the two paths must agree on them exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// `label packets unenc% PII` for every TP-Link Plug row.
const TP_LINK_PLUG: &[&str] = &[
    "power#0 118 29.5% DeviceId/hex",
    "power#1 116 29.3% DeviceId/hex",
    "power#2 109 29.8% DeviceId/hex",
    "android_lan_on#0 33 13.0% -",
    "android_lan_on#1 38 15.5% -",
    "android_lan_on#2 31 7.9% -",
    "android_wan_on#0 45 8.9% -",
    "android_wan_on#1 40 9.1% -",
    "android_wan_on#2 53 8.5% -",
    "alexa_on#0 50 8.5% -",
    "alexa_on#1 47 5.3% -",
    "alexa_on#2 52 5.5% -",
    "android_lan_off#0 36 8.5% -",
    "android_lan_off#1 34 15.0% -",
    "android_lan_off#2 37 16.9% -",
    "android_wan_off#0 38 15.3% -",
    "android_wan_off#1 45 11.8% -",
    "android_wan_off#2 43 9.8% -",
    "alexa_off#0 43 5.8% -",
    "alexa_off#1 47 8.8% -",
    "alexa_off#2 50 5.7% -",
];

/// `label packets unenc% PII` for every Wansview Cam row.
const WANSVIEW_CAM: &[&str] = &[
    "power#0 55 3.5% DeviceId/plain",
    "power#1 52 3.8% DeviceId/plain",
    "power#2 56 3.2% DeviceId/plain",
    "local_move#0 74 0.0% -",
    "local_move#1 64 0.0% -",
    "local_move#2 59 0.0% -",
    "android_lan_watch#0 187 0.0% -",
    "android_lan_watch#1 154 0.0% -",
    "android_lan_watch#2 222 0.1% -",
    "android_wan_watch#0 151 0.0% -",
    "android_wan_watch#1 152 0.0% -",
    "android_wan_watch#2 169 0.0% -",
    "android_wan_record#0 129 0.0% -",
    "android_wan_record#1 136 0.0% -",
    "android_wan_record#2 138 0.0% -",
    "android_wan_photo#0 51 0.8% -",
    "android_wan_photo#1 43 0.0% -",
    "android_wan_photo#2 32 0.0% -",
];

fn moniotr(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_moniotr"))
        .args(args)
        .output()
        .expect("spawn moniotr")
}

fn stdout_of(args: &[&str]) -> String {
    let out = moniotr(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Captures `device` into a fresh directory; returns its device
/// directory `<root>/us/<device-id>`.
fn capture(device: &str, device_id: &str, test: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_analyze-{test}"));
    let _ = std::fs::remove_dir_all(&root);
    stdout_of(&["capture", device, root.to_str().unwrap()]);
    root.join("us").join(device_id)
}

/// The table rows of an `analyze` report.
fn rows(report: &str) -> Vec<&str> {
    report
        .lines()
        .skip_while(|l| !l.starts_with("label "))
        .skip(1)
        .collect()
}

/// A row reduced to `label packets unenc% PII`. Every destination entry
/// ends in `(party)`, so the PII column is what follows the last `)`.
fn pinned_columns(row: &str) -> String {
    let cols: Vec<&str> = row.split_whitespace().take(3).collect();
    let (label, packets, unenc) = (cols[0], cols[1], cols[2]);
    let rest = &row[row.find(unenc).unwrap() + unenc.len()..];
    let pii = rest.rfind(')').map_or(rest, |at| &rest[at + 1..]).trim();
    format!("{label} {packets} {unenc} {pii}")
}

fn analyze(dir: &Path) -> String {
    stdout_of(&["analyze", dir.to_str().unwrap()])
}

#[test]
fn analyze_pins_columns_and_labels_destinations_by_ip_owner() {
    for (device, id, expected) in [
        ("TP-Link Plug", "tp-link-plug", TP_LINK_PLUG),
        ("Wansview Cam", "wansview-cam", WANSVIEW_CAM),
    ] {
        let report = analyze(&capture(device, id, id));
        let got: Vec<String> = rows(&report).into_iter().map(pinned_columns).collect();
        assert_eq!(got, expected, "{device}:\n{report}");
        if device == "Wansview Cam" {
            // The camera's P2P relays have no domain; the §4.1 IP-owner
            // fallback still names their owner, on every row.
            for row in rows(&report) {
                assert!(row.contains("Residential Broadband (third)"), "{row}");
            }
        }
    }
}

#[test]
fn analyze_reports_a_torn_capture_and_still_succeeds() {
    let dir = capture("TP-Link Plug", "tp-link-plug", "torn");
    let pcap = dir.join("capture.pcap");
    let bytes = std::fs::read(&pcap).unwrap();
    std::fs::write(&pcap, &bytes[..bytes.len() - 7]).unwrap();
    let report = analyze(&dir);
    assert!(
        report.contains("warning: degraded capture"),
        "no degraded-capture warning:\n{report}"
    );
    // Only the final record is lost; every label still has its row.
    assert!(report.starts_with("TP-Link Plug: 1104 packets, 21 labeled experiments"));
    assert_eq!(rows(&report).len(), TP_LINK_PLUG.len());
}
