//! Short versions of every workload on a second seed: each run must exit 0,
//! pass its correctness gate, and print exactly the catalogued metrics with
//! their units — the same names `BENCHMARK.json` declares.

use agcm_e2e_bench::json::{self, Value};
use agcm_e2e_bench::metrics::{END_TO_END, PER_LAYER};
use agcm_e2e_bench::workload;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

const BIN: &str = env!("CARGO_BIN_EXE_agcm-e2e-bench");

/// Benchmark runs take every core; tests that launch them go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&src).expect("BENCHMARK.json parses")
}

fn names_units(v: &Value, key: &str) -> Vec<(String, String)> {
    let Some(Value::Arr(items)) = v.get(key) else {
        panic!("BENCHMARK.json: {key} is not an array");
    };
    items
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Value::as_str).unwrap().to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect()
}

fn owned(set: &[(&str, &str)]) -> Vec<(String, String)> {
    set.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let b = benchmark_json();
    assert_eq!(names_units(&b, "end_to_end"), owned(END_TO_END));
    let per_layer: Vec<(String, String)> = names_units(&b, "per_layer");
    assert_eq!(per_layer, owned(PER_LAYER));
    let workloads: Vec<String> = names_units(&b, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let ours: Vec<String> = workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(workloads, ours);
}

/// Run one short workload and return (provenance, result) lines.
fn run(workload: &str, seed: u64, trace: u8) -> (Value, Value) {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string()])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "{workload}: provenance and result lines");
    let prov = json::parse(lines[lines.len() - 2]).expect("provenance line parses");
    let result = json::parse(lines[lines.len() - 1]).expect("result line parses");
    (prov, result)
}

#[test]
fn every_workload_reports_every_metric_on_a_second_seed() {
    const SEED: u64 = 7;
    let _one = one_at_a_time();
    for w in workload::all() {
        for (trace, set) in [(0u8, END_TO_END), (1, PER_LAYER)] {
            let (prov, result) = run(w.name, SEED, trace);
            let Value::Obj(top) = &result else {
                panic!("result is an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{}",
                w.name
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{}",
                w.name
            );
            let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
            let failed = result.get("failed").and_then(Value::as_f64).unwrap();
            assert!(attempted >= 1.0 && attempted.fract() == 0.0);
            assert_eq!(failed, 0.0);
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("metrics is an object")
            };
            assert_eq!(metrics.len(), set.len(), "{} trace {trace}", w.name);
            for (name, unit) in set {
                let m = metrics
                    .get(*name)
                    .unwrap_or_else(|| panic!("{} trace {trace}: {name} missing", w.name));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
                let v = m.get("value").and_then(Value::as_f64).unwrap();
                assert!(v.is_finite(), "{name} = {v}");
            }
            let p = prov.get("provenance").expect("provenance block");
            assert_eq!(p.get("seed").and_then(Value::as_f64), Some(SEED as f64));
            assert_eq!(p.get("workload").and_then(Value::as_str), Some(w.name));
            for key in [
                "commit",
                "rustc",
                "nproc",
                "ranks",
                "threads_per_rank",
                "llc_mb",
                "reps",
                "rep.step_s.p50",
                "rep.steal_frac",
            ] {
                assert!(p.get(key).is_some(), "provenance lacks {key}");
            }
        }
    }
}

#[test]
fn traced_ca_run_keeps_the_paper_schedule() {
    let _one = one_at_a_time();
    let (_, result) = run("ca-2deg-p2", 3, 1);
    let metric = |n: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(n))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap()
    };
    assert_eq!(metric("ca.group"), 9.0);
    assert_eq!(metric("exchange.rounds_per_step"), 2.0);
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "pool-2deg-t2",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "pool-2deg-t2",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--seed", "1"],
    ] {
        let out = Command::new(BIN).args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
