//! The benchmark's own smoke test: tiny-sized runs of every workload.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

/// Metrics every workload prints, with their units.
const COMMON: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_share", "share"),
    ("cpu_ns_per_unit", "ns"),
];

/// Each workload's own path metrics, with their units.
fn path_metrics(workload: &str) -> &'static [(&'static str, &'static str)] {
    match workload {
        "wire" => &[
            ("sniff_mfps", "Mframes/s"),
            ("replay_mfps", "Mframes/s"),
            ("mitigate_mrps", "Mrecords/s"),
        ],
        "daemon" => &[("serve_step_p50_ms", "ms"), ("serve_step_p99_ms", "ms")],
        "campaign" => &[("fleet_stub_periods_per_s", "stub-periods/s")],
        other => panic!("unknown workload {other}"),
    }
}

struct Run {
    /// `metric` lines: name → (value, unit).
    printed: BTreeMap<String, (f64, String)>,
    /// The final JSON line.
    json: String,
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> Run {
    let output = Command::new(env!("CARGO_BIN_EXE_syndog-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.2"])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let mut printed = BTreeMap::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let (name, rest) = rest.split_once(" = ").expect("metric line has a value");
        let mut fields = rest.split_whitespace();
        let value: f64 = fields
            .next()
            .expect("value")
            .parse()
            .expect("numeric value");
        let unit = fields.next().expect("unit").to_string();
        printed.insert(name.to_string(), (value, unit));
    }
    let json = stdout.lines().last().expect("output").to_string();
    Run { printed, json }
}

/// Metric names declared in one section of BENCHMARK.json, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|entry| {
            let field = |key: &str| {
                let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
                entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Metric names in the final JSON line, in order.
fn json_names(json: &str) -> Vec<String> {
    let metrics = &json[json.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let entry = entry.trim_start_matches('{').trim();
            entry[1..entry[1..].find('"').expect("name") + 1].to_string()
        })
        .collect()
}

fn check_workload(workload: &str) {
    let plain = run(workload, false, &[]);
    for &(name, unit) in COMMON.iter().chain(path_metrics(workload)) {
        let (value, printed_unit) = plain
            .printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(printed_unit, unit, "{workload}: unit of {name}");
        assert!(*value > 0.0, "{workload}: {name} = {value}");
    }
    assert_eq!(plain.printed["success_share"].0, 1.0, "{workload}");
    assert!(plain
        .json
        .starts_with("{\"correct\": true, \"attempted\": "));
    let end_to_end = declared("end_to_end");
    assert_eq!(
        json_names(&plain.json),
        end_to_end
            .iter()
            .map(|(n, _)| n.clone())
            .collect::<Vec<_>>()
    );

    let traced = run(workload, true, &[]);
    let per_layer = declared("per_layer");
    assert_eq!(
        json_names(&traced.json),
        per_layer.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>()
    );
    for (name, unit) in &per_layer {
        let (_, printed_unit) = traced
            .printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(printed_unit, unit, "{workload}: unit of {name}");
    }
    let stage_sum = traced.printed["trace.stage_sum_share"].0;
    assert!(
        (0.9..=1.1).contains(&stage_sum),
        "{workload}: stage sum share {stage_sum}"
    );

    // A deliberately wrong expected alarm period must fail the gate.
    let wrong = run(workload, false, &["--expect-alarm-shift", "50"]);
    assert!(
        wrong.printed["success_share"].0 < 1.0,
        "{workload}: a wrong expected alarm still passed"
    );
    assert!(wrong.json.starts_with("{\"correct\": false"));
}

#[test]
fn wire_prints_every_metric_and_gates_correctness() {
    check_workload("wire");
}

#[test]
fn daemon_prints_every_metric_and_gates_correctness() {
    check_workload("daemon");
}

#[test]
fn campaign_prints_every_metric_and_gates_correctness() {
    check_workload("campaign");
}
