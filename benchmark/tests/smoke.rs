//! `run --quick` end to end: every workload and metric `BENCHMARK.json`
//! names must come out exactly once per workload, with its unit.

use std::path::Path;
use std::process::Command;

use mdls_obs::json::{parse, Json};

fn members(j: &Json) -> &[(String, Json)] {
    match j {
        Json::Obj(m) => m,
        other => panic!("expected an object, found {other:?}"),
    }
}

fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn quick_run_prints_every_metric_once_per_workload() {
    let manifest_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let manifest = parse(&std::fs::read_to_string(manifest_path).unwrap()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_mdls-benchmark"))
        .args(["run", "--quick"])
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "run --quick failed:\n{stdout}");
    assert!(!stdout.contains("check_failed"), "{stdout}");
    let doc = parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("comparable"), Some(&Json::Bool(false)));

    let workloads = names(&manifest, "workloads");
    let ran = members(doc.get("workloads").unwrap());
    assert_eq!(
        ran.iter().map(|(w, _)| w.clone()).collect::<Vec<_>>(),
        workloads,
        "the run covers exactly the manifest's workloads, once each"
    );
    for (section, key) in [("end_to_end", "end_to_end"), ("per_layer", "per_layer")] {
        let expected = names(&manifest, key);
        for (w, result) in ran {
            assert!(well_formed(w), "workload name `{w}`");
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w}");
            let printed = members(result.get(section).unwrap());
            for name in &expected {
                assert!(well_formed(name), "metric name `{name}`");
                let hits: Vec<&Json> = printed
                    .iter()
                    .filter(|(n, _)| n == name)
                    .map(|(_, m)| m)
                    .collect();
                assert_eq!(hits.len(), 1, "{w}: {name} appears {} times", hits.len());
                let unit = hits[0].get("unit").and_then(Json::as_str).unwrap_or("");
                assert!(!unit.is_empty(), "{w}: {name} has no unit");
                assert!(hits[0].get("value").and_then(Json::as_f64).is_some());
            }
            assert_eq!(
                printed.len(),
                expected.len(),
                "{w}: unlisted {section} metrics"
            );
        }
    }
}
