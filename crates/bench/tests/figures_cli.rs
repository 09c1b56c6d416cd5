//! The `figures` binary's command line fails loudly: a mistyped
//! experiment name or option value is a usage error with a non-zero exit
//! and nothing run — not exit 0 after silently skipping it, and not a
//! panic.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

/// A usage error: exit code 2, the complaint and the usage line on
/// stderr, no panic, and no experiment output.
fn assert_usage_error(args: &[&str], complaint: &str) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} must be a usage error: {stderr}");
    assert!(stderr.contains(complaint), "{args:?}: no {complaint:?} in: {stderr}");
    assert!(stderr.contains("usage: figures"), "{args:?}: no usage line: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran something before failing");
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    assert_usage_error(&["tabel1"], "tabel1");
    // Validated up front: the good name before the typo does not run.
    assert_usage_error(&["notify", "fig99"], "fig99");
    assert_usage_error(&["--horizon", "5"], "--horizon");
    assert_usage_error(&["notify", "--bench-json", "x.json"], "--bench-json");
    // A removed option: the tails rows live in figures_output.txt only.
    assert_usage_error(&["notify", "--tails-json", "x.json"], "--tails-json");
}

#[test]
fn non_numeric_option_values_are_usage_errors() {
    assert_usage_error(&["notify", "--horizon-ms", "fast"], "--horizon-ms");
    assert_usage_error(&["notify", "--jobs", "many"], "--jobs");
    assert_usage_error(&["notify", "--jobs"], "--jobs");
}

#[test]
fn out_of_range_option_values_are_usage_errors() {
    assert_usage_error(&["notify", "--horizon-ms", "0"], "--horizon-ms");
    // One past the last millisecond whose nanoseconds fit in a `u64`.
    assert_usage_error(&["notify", "--horizon-ms", "18446744073710"], "--horizon-ms");
    assert_usage_error(&["notify", "--jobs", "0"], "--jobs");
}

/// An experiment that measures past the 10 ms warm-up needs a horizon
/// beyond it: otherwise every steady-state goodput reads 0 and every
/// ratio NaN.
#[test]
fn a_horizon_within_the_warm_up_is_a_usage_error() {
    for experiment in ["table1", "faults", "impair", "skew", "all"] {
        assert_usage_error(&[experiment, "--jobs", "1", "--horizon-ms", "5"], "warm-up");
        assert_usage_error(&[experiment, "--jobs", "1", "--horizon-ms", "10"], "warm-up");
    }
    // Named beside an experiment that needs no warm-up, it still fails.
    assert_usage_error(&["notify", "table1", "--horizon-ms", "5"], "table1");
}

#[test]
fn known_experiment_still_runs() {
    let out = figures(&["notify", "--jobs", "1", "--horizon-ms", "5"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty());
}

/// `multirack` honours `--horizon-ms` like every other experiment.
#[test]
fn multirack_follows_the_horizon() {
    let acked = |ms: &str| {
        let out = figures(&["multirack", "--jobs", "1", "--horizon-ms", ms]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(stdout.contains("acked bytes"), "{stdout}");
        // The variant rows; the banner line names the horizon itself.
        stdout.lines().filter(|l| l.contains("tdtcp") || l.contains("cubic")).collect::<String>()
    };
    assert_ne!(acked("2"), acked("4"), "two horizons printed the same acked bytes");
}
