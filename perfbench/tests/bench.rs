//! The benchmark's own checks, at tiny input sizes.

use ipr_perfbench::inputs::{digest, Inputs, Scale, Workload};
use ipr_perfbench::report::{self, Bound, Record, Verdict};
use ipr_perfbench::run::{self, Config, Outcome};
use ipr_trace::json::{self, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
        .expect("BENCHMARK.json parses")
}

fn names(list: &str) -> Vec<String> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn bounds() -> Vec<Bound> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    report::parse_bounds(&std::fs::read_to_string(path).expect("read")).expect("bounds")
}

fn tiny(workload: Workload, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::tiny(),
        inject_mismatch: false,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{}-{}-{tag}",
            workload.name(),
            u8::from(trace)
        )),
    }
}

fn record_of(outcome: &Outcome, seed: u64) -> Record {
    Record {
        workload: "corpus".into(),
        seed,
        input_digest: outcome.input_digest.clone(),
        host: "test host x2".into(),
        metrics: outcome
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.value))
            .collect(),
    }
}

#[test]
fn every_workload_emits_every_metric_it_claims() {
    let e2e = names("end_to_end");
    let layers = names("per_layer");
    for workload in Workload::ALL {
        for (trace, want) in [(false, &e2e), (true, &layers)] {
            let outcome = run::run(&tiny(workload, trace, "emit")).expect("run");
            assert!(outcome.correct(), "{workload:?} trace={trace}: {outcome:?}");
            let got: Vec<String> = outcome.metrics.iter().map(|m| m.name.to_string()).collect();
            assert_eq!(&got, want, "{workload:?} trace={trace}");
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{workload:?} {} = {}", m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{workload:?} {} is 0", m.name);
                }
            }
            if trace {
                let spans = outcome.span_dump.as_deref().expect("span dump");
                assert!(spans.contains("ipr-stats/1"), "{spans}");
            }
        }
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let outcome = run::run(&tiny(Workload::Corpus, false, "line")).expect("run");
    let line = json::parse(&report::result_line(&outcome)).expect("result line is JSON");
    let keys: Vec<&String> = line.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metric = line
        .get("metrics")
        .and_then(|m| m.get("update_mib_s"))
        .expect("metric");
    assert_eq!(metric.get("unit").and_then(Value::as_str), Some("MiB/s"));
    assert!(metric.get("value").and_then(Value::as_f64).is_some());
}

#[test]
fn inputs_follow_the_seed() {
    for workload in Workload::ALL {
        let a = Inputs::generate(workload, 3, &Scale::tiny());
        assert_eq!(a, Inputs::generate(workload, 3, &Scale::tiny()));
        assert_eq!(
            digest(&a),
            digest(&Inputs::generate(workload, 3, &Scale::tiny()))
        );
        assert_ne!(
            digest(&a),
            digest(&Inputs::generate(workload, 4, &Scale::tiny()))
        );
    }
}

#[test]
fn a_threefold_update_slowdown_is_flagged() {
    let outcome = run::run(&tiny(Workload::Corpus, false, "slow")).expect("run");
    let base = vec![record_of(&outcome, 7)];
    let mut slow = base.clone();
    *slow[0].metrics.get_mut("update_mib_s").expect("metric") /= 3.0;
    *slow[0].metrics.get_mut("update_ms_p50").expect("metric") *= 3.0;
    let verdict = report::compare(&bounds(), &base, &slow);
    let Verdict::Compared(rows) = &verdict else {
        panic!("same inputs must be compared: {verdict:?}");
    };
    let flagged: Vec<&str> = rows
        .iter()
        .filter(|r| r.regressed)
        .map(|r| r.name.as_str())
        .collect();
    assert_eq!(flagged, ["update_mib_s", "update_ms_p50"]);
    assert_eq!(report::compare(&bounds(), &base, &base).regressions(), 0);
}

#[test]
fn changed_inputs_are_reported_instead_of_a_regression() {
    let outcome = run::run(&tiny(Workload::Corpus, false, "digest")).expect("run");
    let base = vec![record_of(&outcome, 7)];
    let mut other = base.clone();
    other[0].input_digest = "0000000000000000".into();
    *other[0].metrics.get_mut("update_mib_s").expect("metric") /= 3.0;
    assert!(matches!(
        report::compare(&bounds(), &base, &other),
        Verdict::InputsDiffer(_)
    ));
    let mut moved = base.clone();
    moved[0].host = "another host x64".into();
    assert!(matches!(
        report::compare(&bounds(), &base, &moved),
        Verdict::HostDiffers(_)
    ));
}

#[test]
fn saved_records_round_trip_through_the_parser() {
    let cfg = tiny(Workload::ReleaseChain, false, "record");
    let outcome = run::run(&cfg).expect("run");
    let host = ipr_perfbench::host::Fingerprint::collect(outcome.engine_threads, None);
    let parsed = Record::parse(&report::record(&cfg, &outcome, &host)).expect("parse");
    assert_eq!(parsed.workload, "release_chain");
    assert_eq!(parsed.seed, 7);
    assert_eq!(parsed.input_digest, outcome.input_digest);
    let want: BTreeMap<String, f64> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.value))
        .collect();
    assert_eq!(parsed.metrics, want);
}

#[test]
fn an_injected_mismatch_fails_the_run() {
    let mut cfg = tiny(Workload::Corpus, false, "inject");
    cfg.inject_mismatch = true;
    let outcome = run::run(&cfg).expect("run");
    assert_eq!(outcome.failed, 1);
    assert!(!outcome.correct());

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "corpus",
            "--seed",
            "7",
            "--seconds",
            "0",
            "--trace",
            "0",
        ])
        .args(["--scale", "tiny", "--inject-mismatch"])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(1));
}
