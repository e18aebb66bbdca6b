//! `moniotr` argument-parsing contract: parse problems exit with
//! status 2 and print the usage text; only runtime failures use
//! status 1. Every assertion here is parse-only — no campaign runs —
//! so the suite stays sub-second.

use std::process::Command;

fn moniotr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_moniotr"))
        .args(args)
        .output()
        .expect("spawn moniotr")
}

fn assert_usage_exit(args: &[&str]) {
    let out = moniotr(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("usage: moniotr"),
        "{args:?} must print usage, stderr: {stderr}"
    );
}

#[test]
fn unknown_subcommand_exits_2_with_usage() {
    assert_usage_exit(&["frobnicate"]);
    assert_usage_exit(&[]);
}

#[test]
fn unknown_campaign_flag_exits_2_with_usage() {
    assert_usage_exit(&["campaign", "--definitely-not-a-flag"]);
    assert_usage_exit(&["campaign", "turbo"]);
    assert_usage_exit(&["oracle", "--nope"]);
}

#[test]
fn supervision_flags_validate_their_values() {
    // Missing or malformed values are parse errors, not runtime errors.
    assert_usage_exit(&["campaign", "--resume"]);
    assert_usage_exit(&["campaign", "--journal"]);
    assert_usage_exit(&["campaign", "--deadline-ms"]);
    assert_usage_exit(&["campaign", "--deadline-ms", "soon"]);
    assert_usage_exit(&["campaign", "--deadline-ms", "0"]);
    assert_usage_exit(&["campaign", "--max-retries", "many"]);
    assert_usage_exit(&["campaign", "--report-out"]);
    assert_usage_exit(&["campaign", "workers", "0"]);
    // Journal and resume are mutually exclusive spellings of one knob.
    assert_usage_exit(&["campaign", "--journal", "a.jnl", "--resume", "b.jnl"]);
}

#[test]
fn analyze_refuses_directories_outside_the_lab_layout() {
    // The lab is read off `<dir>/<us|uk>/<device-id>`; anything else
    // would be scanned against the wrong lab's identity and patterns.
    assert_usage_exit(&["analyze", "captures/echo_dot"]);
    assert_usage_exit(&["analyze", "captures/US-lab/echo_dot"]);
    assert_usage_exit(&["analyze", "echo_dot"]);
    assert_usage_exit(&["analyze"]);
}

#[test]
fn resume_with_missing_journal_is_a_runtime_error_not_usage() {
    // The flag parses; the missing file fails at run time with exit 1.
    let out = moniotr(&[
        "campaign",
        "quick",
        "workers",
        "1",
        "--resume",
        "/nonexistent/never/there.jnl",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        !stderr.contains("usage: moniotr"),
        "runtime errors must not dump usage, stderr: {stderr}"
    );
}
