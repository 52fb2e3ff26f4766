//! Smoke-size runs of every workload: every named metric is emitted with
//! its unit, the correctness checks pass, and (in the `metrics` build,
//! where runs are traced) the spans nest. Also pins the benchmark's
//! records (`BENCHMARK.json`, `workloads.json`) to the metric table.
//!
//! Run both builds: `cargo test --release` and
//! `cargo test --release --features metrics`.

use kcv_perfbench::{
    complete_per_layer, describe, run_workload, trace, Run, END_TO_END, PER_LAYER, WORKLOADS,
};

fn smoke(workload: &str) {
    let traced = kcv_obs::enabled();
    let run = Run {
        seed: 7,
        seconds: 0.3,
        traced,
    };
    let mut out = run_workload(workload, &run, true).expect("smoke run is valid");
    assert!(
        out.check_failures.is_empty(),
        "{workload}: {:?}",
        out.check_failures
    );
    assert!(out.attempted > 0);
    assert_eq!(out.failed, 0, "{workload}: failed operations");

    let names: Vec<(&str, &str)> = out.end_to_end.iter().map(|m| (m.name, m.unit)).collect();
    let want: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, want, "{workload}: end-to-end metrics");
    for m in &out.end_to_end {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{workload}: {} = {}",
            m.name,
            m.value
        );
    }
    assert!(out.result_json(false).ends_with("}}}"));

    if traced {
        out.layer("trace.overhead_frac", "ratio", 0.0);
        complete_per_layer(&mut out);
        let names: Vec<(&str, &str)> = out.per_layer.iter().map(|m| (m.name, m.unit)).collect();
        let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, want, "{workload}: per-layer metrics");
        assert!(!out.spans.is_empty(), "{workload}: no spans recorded");
        trace::check_nesting(&out.spans).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let selfs = trace::self_times(&out.spans);
        for (s, &t) in out.spans.iter().zip(&selfs) {
            assert!(
                t <= s.duration_ns(),
                "{workload}: span {} self time exceeds its duration",
                s.id
            );
        }
        assert!(
            trace::child_coverage(&out.spans, &selfs) > 0.0,
            "{workload}: no child spans"
        );
    }
}

#[test]
fn oneshot_smoke() {
    smoke("oneshot");
}

#[test]
fn serve_steady_smoke() {
    smoke("serve-steady");
}

#[test]
fn serve_burst_smoke() {
    smoke("serve-burst");
}

#[test]
fn unknown_workloads_are_refused() {
    let run = Run {
        seed: 1,
        seconds: 0.1,
        traced: false,
    };
    assert!(run_workload("nope", &run, true).is_err());
}

#[test]
fn workloads_json_is_the_describe_output() {
    let file = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/workloads.json"))
        .expect("perfbench/workloads.json exists");
    assert_eq!(
        file,
        describe(),
        "regenerate with `kcv-perfbench --describe > perfbench/workloads.json`"
    );
}

#[test]
fn benchmark_json_lists_exactly_the_metric_table() {
    let file = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json exists at the repository root");
    let names: Vec<&str> = WORKLOADS
        .iter()
        .filter(|w| w.bounded)
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert_eq!(file.matches("\"name\":").count(), names.len());
    for n in names {
        assert!(
            file.contains(&format!("\"name\": \"{n}\"")),
            "{n} missing from BENCHMARK.json"
        );
    }
    for m in &END_TO_END {
        let entry = format!(
            "\"name\": \"{}\",\n      \"unit\": \"{}\",\n      \"better\": \"{}\",\n      \"bound\": {}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics carry a bound")
        );
        assert!(
            file.contains(&entry),
            "BENCHMARK.json entry for {} differs",
            m.name
        );
    }
}
