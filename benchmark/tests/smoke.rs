//! A one-second run of every workload through the command line the
//! acceptance driver uses: the result line has the contract's shape, every
//! operation passed its digest check, and every metric `BENCHMARK.json`
//! names for that kind of run is there, under the unit it names.

use std::process::Command;

const WORKLOADS: [&str; 4] = [
    "commit_heavy",
    "session_swarm",
    "churn_durable",
    "wire_loopback",
];

/// The `"name"` and `"unit"` of every entry of `section` in
/// `BENCHMARK.json`, read with nothing but string search: the file is
/// flat and this test must not depend on the code it checks.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ugc-benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "12",
            "--seconds",
            "1",
            "--trace",
            trace,
        ])
        .output()
        .expect("the benchmark starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(line: &str, section: &str) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
    let metrics = declared(section);
    assert!(!metrics.is_empty());
    for (name, unit) in &metrics {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("{name} missing from {line}"));
        let rest = &line[at + key.len()..];
        let end = rest.find('}').expect("metric object closes");
        assert!(
            rest[..end].ends_with(&format!("\"unit\": \"{unit}\"")),
            "{name} is not in {unit}: {}",
            &rest[..end]
        );
    }
    // Exactly the declared metrics: nothing else has a unit.
    assert_eq!(line.matches("\"unit\": ").count(), metrics.len(), "{line}");
}

#[test]
fn measured_run_of_every_workload_passes_and_reports_every_end_to_end_metric() {
    for workload in WORKLOADS {
        check(&run(workload, "0"), "end_to_end");
    }
}

#[test]
fn traced_run_of_every_workload_passes_and_reports_every_per_layer_metric() {
    for workload in WORKLOADS {
        check(&run(workload, "1"), "per_layer");
    }
}
