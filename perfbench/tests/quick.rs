//! Quick-size runs of every workload through the `perfbench` binary.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["churn", "quiet_verified", "fleet_failover", "mttf_mc"];

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("closing quote")].to_string();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("every metric has a unit")
                .to_string();
            (name, unit)
        })
        .collect()
}

struct Run {
    ok: bool,
    digest: String,
    result: String,
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0", "--trace", &trace.to_string(), "--quick"])
        .arg("--trace-out")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("digest "))
        .and_then(|l| l.split(": ").nth(1))
        .expect("a digest line")
        .to_string();
    let result = stdout.lines().last().expect("a result line").to_string();
    Run {
        ok: out.status.success(),
        digest,
        result,
    }
}

/// `(name, unit)` of every metric in a result line, in order.
fn printed(result: &str) -> Vec<(String, String)> {
    let key = "\"metrics\": {";
    let metrics = &result[result.find(key).expect("metrics object") + key.len()..];
    // Entries read `"name": {"value": v, "unit": "u"`, split on `}, `.
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("a metric name");
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .and_then(|u| u.split('"').next())
                .expect("a unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let mut want = declared(section);
        want.sort();
        assert!(!want.is_empty());
        for w in WORKLOADS {
            let r = run(w, 7, trace);
            assert!(r.ok, "{w} --trace {trace} failed: {}", r.result);
            assert!(
                r.result.starts_with("{\"correct\": true, \"attempted\": "),
                "{w}: {}",
                r.result
            );
            assert!(
                r.result.contains("\"failed\": 0, \"metrics\": {"),
                "{w}: {}",
                r.result
            );
            let mut got = printed(&r.result);
            got.sort();
            assert_eq!(got, want, "{w} --trace {trace}");
        }
    }
}

#[test]
fn the_seed_alone_fixes_the_digest() {
    for w in WORKLOADS {
        let a = run(w, 11, 0);
        let b = run(w, 11, 0);
        let c = run(w, 12, 0);
        assert!(a.ok && b.ok && c.ok, "{w}");
        assert_eq!(a.digest, b.digest, "{w}: same seed, different digest");
        assert_ne!(a.digest, c.digest, "{w}: another seed, same digest");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("perfbench runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
