//! Bad `paper` input fails at the boundary: exit code 2 and a message
//! that names the offending argument, before any run starts (a run would
//! print its report and write under `bench_results/`). A run that starts
//! writes its report under a header naming its parameters, and a report
//! it cannot write fails the run.

use std::path::PathBuf;
use std::process::{Command, Output};

use simt::Json;

/// A fresh directory for one run of `paper` with `args`.
fn fresh_dir(args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "paper-cli-{}-{}",
        std::process::id(),
        args.join("_").replace(['-', ' ', '/'], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("paper starts")
}

/// Run `paper` with `args` in a fresh directory; returns its exit code,
/// its stderr, and whether it left a `bench_results/` behind.
fn paper(args: &[&str]) -> (Option<i32>, String, bool) {
    let dir = fresh_dir(args);
    let out = run_in(&dir, args);
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
    // Only `check` takes --update, and `check` takes nothing else.
    assert_usage_error(&["light", "--n", "10", "--update"], "--update");
    assert_usage_error(&["all", "--update"], "--update");
    assert_usage_error(&["check", "--n", "12"], "--n");
}

#[test]
fn an_unknown_command_is_rejected() {
    assert_usage_error(&["table2"], "table2");
    assert_usage_error(&[], "no command");
}

#[test]
fn a_report_that_cannot_be_written_fails_the_run() {
    let args = ["light", "--n", "10"];
    let dir = fresh_dir(&["unwritable"]);
    // A regular file where the report directory should be.
    std::fs::write(dir.join("bench_results"), "").unwrap();
    let out = run_in(&dir, &args);
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("bench_results/light.txt"), "{stderr}");
}

#[test]
fn the_header_names_the_run_and_the_json_carries_the_rows() {
    let dir = fresh_dir(&["header"]);
    let light = run_in(&dir, &["light", "--n", "12"]);
    assert!(light.status.success(), "{light:?}");
    let text = std::fs::read_to_string(dir.join("bench_results/light.txt")).unwrap();
    let header: Vec<&str> = text.lines().take(3).collect();
    assert!(header[1].starts_with("n = 2^12; seed 1000;"), "{text}");
    assert_eq!(header[2], "regenerate: paper light --n 12", "{text}");

    let json = dir.join("sorttune.json");
    let sorttune = run_in(
        &dir,
        &["sorttune", "--n", "12", "--json", json.to_str().unwrap()],
    );
    assert!(sorttune.status.success(), "{sorttune:?}");
    let doc = Json::parse(&std::fs::read_to_string(&json).unwrap()).expect("valid JSON");
    let text = std::fs::read_to_string(dir.join("bench_results/sorttune.txt")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    let sections = doc.get("sections").and_then(Json::as_arr).unwrap();
    let report = sections
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("sorttune"))
        .and_then(|s| s.get("data"))
        .expect("a sorttune report section");
    assert_eq!(report.get("n"), Some(&Json::Arr(vec![Json::int(1 << 12)])));
    let parts = report.get("sections").and_then(Json::as_arr).unwrap();
    let rows = parts
        .iter()
        .find_map(|s| s.get("rows").and_then(Json::as_arr))
        .expect("the sweep table");
    // One row per digit width, each as the text report prints it.
    let lines: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .collect();
    assert!(rows.len() >= 8 && rows.len() <= lines.len(), "{rows:?}");
    for (row, line) in rows.iter().zip(lines) {
        let cells: Vec<&str> = line.split_whitespace().collect();
        for (field, cell) in ["b", "passes", "key sectors", "key ms"].iter().zip(cells) {
            let num = row.get(field).and_then(Json::as_f64);
            assert_eq!(num, cell.parse().ok(), "{field} in {line}");
        }
    }
}
