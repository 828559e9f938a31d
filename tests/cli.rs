//! End-to-end tests of the `mms-ctl` command-line driver.

use std::path::Path;
use std::process::Command;

fn ctl(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mms-ctl"))
        .args(args)
        .output()
        .expect("run mms-ctl");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn table_command_prints_table2() {
    let (stdout, _, ok) = ctl(&["table", "5"]);
    assert!(ok);
    assert!(stdout.contains("Streaming RAID"), "{stdout}");
    assert!(stdout.contains("1041"), "{stdout}");
    assert!(stdout.contains("2612"), "{stdout}");
}

#[test]
fn simulate_masks_a_failure() {
    let (stdout, _, ok) = ctl(&[
        "simulate",
        "--scheme",
        "sr",
        "--tracks",
        "60",
        "--viewers",
        "2",
        "--fail",
        "1@5",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("disk 1 FAILED"), "{stdout}");
    assert!(stdout.contains("hiccups            : 0"), "{stdout}");
    assert!(stdout.contains("streams finished   : 2"), "{stdout}");
}

#[test]
fn simulate_runs_a_rebuild() {
    let (stdout, _, ok) = ctl(&[
        "simulate",
        "--scheme",
        "nc",
        "--tracks",
        "120",
        "--fail",
        "2@8",
        "--rebuild",
        "2@20",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("rebuilds completed : 1"), "{stdout}");
}

#[test]
fn mttf_command_reports_equations() {
    let (stdout, _, ok) = ctl(&["mttf", "1000", "10"]);
    assert!(ok);
    assert!(stdout.contains("1141.6"), "{stdout}");
    assert!(stdout.contains("540.7"), "{stdout}");
}

#[test]
fn design_command_picks_ib_for_1500() {
    let (stdout, _, ok) = ctl(&["design", "1500"]);
    assert!(ok);
    assert!(stdout.contains("Improved-bandwidth"), "{stdout}");
}

#[test]
fn bad_arguments_fail_gracefully() {
    let (_, stderr, ok) = ctl(&["simulate", "--scheme", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown scheme"), "{stderr}");
    let (_, stderr, ok) = ctl(&["nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
    let (_, stderr, ok) = ctl(&["simulate", "--fail", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("DISK@CYCLE"), "{stderr}");
}

/// Compare `got` with the committed transcript `tests/golden/<name>.txt`
/// byte for byte, naming the first differing line.
fn assert_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let want = std::fs::read_to_string(&path).expect("golden transcript");
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(|| "length".to_string(), |i| format!("line {}", i + 1));
        panic!("{name} differs from {} at {line}:\n{got}", path.display());
    }
}

#[test]
fn scenario_corpus_matches_its_transcript_in_every_mode() {
    for extra in [&[][..], &["--fast-forward"], &["--threads", "1"]] {
        let mut args = vec!["scenario", "all", "--quick"];
        args.extend_from_slice(extra);
        let (stdout, stderr, ok) = ctl(&args);
        assert!(ok, "{args:?}: {stderr}");
        assert_golden("scenario_all_quick", &stdout);
    }
}

#[test]
fn fleet_corpus_matches_its_transcript() {
    let (stdout, stderr, ok) = ctl(&["fleet", "corpus", "--quick"]);
    assert!(ok, "{stderr}");
    assert_golden("fleet_corpus_quick", &stdout);
}
