//! Smoke test: a tiny instance of every workload, untraced and traced,
//! must pass the oracle with no failed operation and report every metric
//! `BENCHMARK.json` names for that mode.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["live_words", "live_per_read", "tap_churn"];

/// The metric names listed under `section` ("end_to_end" or "per_layer")
/// in the repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closed name")].to_string())
        .collect()
}

/// The numeric value of metric `name` in a result line, if present.
fn value(result: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result[result.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            &trace.to_string(),
        ])
        .args(["--writers", "3"])
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited {:?}: {}\n{stdout}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn tiny_workloads_report_every_metric_without_failures() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|n| n == "setup_s"), "setup_s is declared");
    for workload in WORKLOADS {
        for (trace, names) in [(0u8, &e2e), (1u8, &layers)] {
            let result = run(workload, trace);
            assert!(
                result.starts_with("{\"correct\": true, "),
                "{workload}/{trace}: {result}"
            );
            assert!(
                result.contains("\"failed\": 0, "),
                "{workload}/{trace}: {result}"
            );
            for name in names {
                let v = value(&result, name);
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{workload}/{trace}: {name} missing in {result}"
                );
            }
            if trace == 1 {
                assert_eq!(
                    value(&result, "failed_share"),
                    Some(0.0),
                    "{workload}: {result}"
                );
            }
        }
    }
}
