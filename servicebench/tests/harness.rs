//! End-to-end self-tests of the harness: a short run of every workload
//! against an in-process server, and `BENCHMARK.json` agreeing with the
//! metrics the code reports.

use blitz_bench::Json;
use blitz_servicebench::check::references;
use blitz_servicebench::run::{self, END_TO_END, PER_LAYER};
use blitz_servicebench::workload::{Instance, Workload};
use std::time::Duration;

/// One run per workload, sequentially: a 1 s timed window and a 1 s
/// traced run against an in-process `Server`, every answer checked.
#[test]
fn every_workload_runs_clean_against_an_in_process_server() {
    let launch = run::in_process_launcher();
    for w in Workload::ALL {
        let inst = Instance::new(w, 1);
        let refs = references(&inst, &w.service_config());

        let e = run::end_to_end(&launch, &inst, &refs, Duration::from_secs(1)).unwrap();
        let tally = &e.tally;
        assert!(tally.attempted > 0, "{}", w.name());
        assert_eq!(tally.failed, 0, "{}: {:?}", w.name(), tally.failures);
        let names: Vec<&str> = e.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n), "{}", w.name());
        for m in &e.metrics {
            assert!(m.value.is_finite() && m.value >= 0.0, "{}: {m:?}", w.name());
        }

        let t = run::traced(&launch, &inst, &refs, 1.0).unwrap();
        assert_eq!(
            t.tally.failed,
            0,
            "{} traced: {:?}",
            w.name(),
            t.tally.failures
        );
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, PER_LAYER.map(|(n, _, _)| n), "{}", w.name());
        assert!(!t.spans.is_empty(), "{}", w.name());
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|m| {
            let get = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (get("name"), get("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_harness_reports() {
    let b = benchmark_json();
    let listed: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(listed, Workload::ALL.map(Workload::name));

    let e2e = names_units(b.get("end_to_end").unwrap());
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, want);

    let layers = b.get("per_layer").and_then(Json::as_arr).unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(better),
            "{name}"
        );
    }
}
