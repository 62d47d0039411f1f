//! A tiny run of each workload must pass its oracle and print exactly the
//! metric names `BENCHMARK.json` declares, in both modes.

use std::process::Command;

use drcf_kernel::json::Json;

const WORKLOADS: [&str; 4] = ["soc_runs", "warm_sweep", "served_sweeps", "sharded_e12"];

fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("metric name")
                .to_string()
        })
        .collect()
}

fn tiny_run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", &trace.to_string(), "--ops", "8"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the last line is JSON")
}

fn check(workload: &str, trace: u8, section: &str) {
    let r = tiny_run(workload, trace);
    assert_eq!(
        r.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: oracle failed"
    );
    assert_eq!(
        r.get("failed").and_then(Json::as_u64),
        Some(0),
        "{workload}"
    );
    assert!(
        r.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 8,
        "{workload}"
    );
    let metrics = r
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object");
    let names: Vec<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, declared(section), "{workload} --trace {trace}");
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {m}");
    }
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics() {
    for w in WORKLOADS {
        check(w, 0, "end_to_end");
    }
}

#[test]
fn every_workload_prints_the_declared_per_layer_metrics() {
    for w in WORKLOADS {
        check(w, 1, "per_layer");
    }
}

#[test]
fn unknown_workload_prints_no_result() {
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
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
