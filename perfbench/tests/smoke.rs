//! Smoke-size runs of every workload, determinism of workload generation,
//! the trajectory check, and agreement with `BENCHMARK.json`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use nemo_core::ContextualizerConfig;
use nemo_perfbench::interactive::{check_cycle, session_config};
use nemo_perfbench::staged::{drive_staged, drive_system};
use nemo_perfbench::trace::Trace;
use nemo_perfbench::{
    artifact_bytes, run, write_artifact, MetricSpec, Plan, RunResult, Workload, END_TO_END,
    PER_LAYER,
};

fn scratch_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke_run(workload: Workload, traced: bool) -> RunResult {
    let plan = Plan::smoke(workload);
    let dir = scratch_dir(&format!("{workload}-{traced}"));
    let artifact = write_artifact(&plan, 3, &dir).expect("artifact is written");
    let result = run(&plan, 3, &artifact, Duration::ZERO, traced).expect("set-up succeeds");
    std::fs::remove_dir_all(&dir).expect("scratch dir is removed");
    result
}

fn assert_emits(result: &RunResult, specs: &[MetricSpec]) {
    assert!(result.correct(), "failures: {:?}", result.failures);
    assert!(result.attempted > 0);
    let names: Vec<_> = result.values.iter().map(|v| v.spec).collect();
    assert_eq!(names, specs, "every metric, in spec order, with its unit and direction");
    for v in &result.values {
        assert!(v.value.is_finite() && v.value >= 0.0, "{} = {}", v.spec.name, v.value);
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in Workload::ALL {
        let result = smoke_run(workload, false);
        assert_emits(&result, &END_TO_END);
        for v in &result.values {
            assert!(v.value > 0.0, "{workload}: {} must never be 0", v.spec.name);
        }
        for key in ["nproc", "nemo_threads", "pool_workers", "profile", "seed", "commit"] {
            assert!(result.meta.iter().any(|(k, _)| k == key), "{workload}: no `{key}` metadata");
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in Workload::ALL {
        let result = smoke_run(workload, true);
        assert_emits(&result, &PER_LAYER);
        assert!(result.get("endmodel.fit_predict_ms").unwrap() > 0.0);
        let churned = result.get("pool.restores").unwrap() > 0.0;
        assert_eq!(churned, workload == Workload::PoolChurn, "{workload}: restores");
        assert!(result.spans.iter().any(|s| s.name == "contextualizer.tune_p"));
        let rounds: Vec<u64> =
            result.spans.iter().filter(|s| s.name == "round").map(|s| s.id).collect();
        assert!(result
            .spans
            .iter()
            .filter(|s| s.name == "seu.select")
            .all(|s| s.parent.is_some_and(|p| rounds.contains(&p))));
    }
}

#[test]
fn workload_generation_is_deterministic_in_the_seed() {
    for workload in Workload::ALL {
        let plan = Plan::smoke(workload);
        let a = artifact_bytes(&plan, 11);
        assert_eq!(a, artifact_bytes(&plan, 11), "{workload}: same seed, same bytes");
        assert_ne!(a, artifact_bytes(&plan, 12), "{workload}: the seed reaches the dataset");
    }
}

#[test]
fn staged_drive_retraces_the_system_and_the_check_fires_when_perturbed() {
    let plan = Plan::smoke(Workload::InteractiveSparse);
    let bundle = nemo_persist::artifact_from_bytes(&artifact_bytes(&plan, 5)).expect("decodes");
    let ds = &bundle.dataset;
    let config = session_config(&plan, 5, 0);
    let reference = drive_system(ds, config.clone(), plan.rounds, &mut Vec::new());
    let mut trace = Trace::new(Instant::now());
    let default_ctx = ContextualizerConfig::default();
    for churn in [false, true] {
        let staged = drive_staged(ds, config.clone(), plan.rounds, &default_ctx, churn, &mut trace);
        assert_eq!(staged.trajectory, reference.trajectory, "churn = {churn}");
    }

    // A different percentile grid is a different program: the check must
    // count the session as failed.
    let perturbed = ContextualizerConfig { p_grid: vec![10.0], ..ContextualizerConfig::default() };
    let staged = drive_staged(ds, config, plan.rounds, &perturbed, false, &mut trace);
    let mut result = RunResult::default();
    check_cycle(&[reference.trajectory], &[staged.trajectory], "staged", &mut result);
    assert!(!result.correct());
    assert_eq!(result.failed, plan.rounds as u64);
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{workload}\"")), "workload {workload}");
    }
    for spec in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            spec.name,
            spec.unit,
            spec.better.as_str()
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(text.matches("\"better\"").count(), END_TO_END.len() + PER_LAYER.len());
}
