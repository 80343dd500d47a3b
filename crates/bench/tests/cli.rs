//! Bad `paper` input fails at the boundary: exit code 2 and a message
//! that names the offending argument, before any run starts (a run would
//! print its report and write under `bench_results/`).

use std::process::Command;

/// Run `paper` with `args` in a fresh directory; returns its exit code,
/// its stderr, and whether it left a `bench_results/` behind.
fn paper(args: &[&str]) -> (Option<i32>, String, bool) {
    let dir = std::env::temp_dir().join(format!(
        "paper-cli-{}-{}",
        std::process::id(),
        args.join("_").replace(['-', ' '], "")
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("paper starts");
    let wrote = dir.join("bench_results").exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    (
        out.status.code(),
        String::from_utf8(out.stderr).unwrap(),
        wrote,
    )
}

fn assert_usage_error(args: &[&str], names: &str) {
    let (code, stderr, wrote) = paper(args);
    assert_eq!(code, Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{args:?} must name {names}: {stderr}"
    );
    assert!(stderr.contains("usage: paper"), "{args:?}: {stderr}");
    assert!(!wrote, "{args:?} wrote a report");
}

#[test]
fn an_oversized_n_is_rejected() {
    // 1 << 64 would wrap to n = 1 in a release build.
    assert_usage_error(&["light", "--n", "64"], "--n 64");
    assert_usage_error(&["all", "--n", "32"], "--n 32");
    assert_usage_error(&["light", "--n", "x"], "--n");
    assert_usage_error(&["light", "--n"], "--n needs a value");
}

#[test]
fn an_unknown_option_is_rejected() {
    assert_usage_error(&["light", "--bogus"], "--bogus");
    assert_usage_error(&["light", "--trials", "2"], "--trials");
    assert_usage_error(&["fuzz", "--json", "x"], "--json");
    assert_usage_error(&["serve", "--bogus"], "--bogus");
}

#[test]
fn an_unknown_command_is_rejected() {
    assert_usage_error(&["table2"], "table2");
    assert_usage_error(&[], "no command");
}
