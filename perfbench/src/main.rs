//! Benchmark command line:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <interactive-sparse|interactive-dense|pool-churn> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's dataset from the seed, persists it as an
//! artifact file under `perfbench/work/`, runs the workload against that
//! file, writes the full result (metadata, metrics with unit and
//! direction, spans of a traced run) to `perfbench/work/`, and prints a
//! summary followed by one JSON result line.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use nemo_perfbench::json::Json;
use nemo_perfbench::{run, write_artifact, Plan, RunResult, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: nemo-perfbench --workload <interactive-sparse|interactive-dense|\
                     pool-churn> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: `{value}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn result_file(result: &RunResult, correct: bool) -> Json {
    let meta = Json::obj(result.meta.iter().map(|(k, v)| (k.clone(), Json::str(v.clone()))));
    let metrics = result.values.iter().map(|v| {
        Json::obj([
            ("name", Json::str(v.spec.name)),
            ("value", Json::Num(v.value)),
            ("unit", Json::str(v.spec.unit)),
            ("better", Json::str(v.spec.better.as_str())),
        ])
    });
    Json::obj([
        ("meta", meta),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(result.attempted)),
        ("failed", Json::Int(result.failed)),
        ("failures", Json::Arr(result.failures.iter().cloned().map(Json::Str).collect())),
        ("metrics", Json::Arr(metrics.collect())),
        ("spans", Json::Arr(result.spans.iter().map(|s| s.to_json()).collect())),
    ])
}

/// The last stdout line. A run that failed a check reports no numbers:
/// a diverged or failing run measured a different program.
fn result_line(result: &RunResult, correct: bool) -> Json {
    let metrics = result.values.iter().filter(|_| correct).map(|v| {
        (v.spec.name, Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.spec.unit))]))
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(result.attempted)),
        ("failed", Json::Int(result.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    let plan = Plan::benchmark(args.workload);
    let generated = Instant::now();
    let artifact = match write_artifact(&plan, args.seed, &work) {
        Ok(path) => path,
        Err(e) => {
            eprintln!("cannot prepare the workload: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("generated {} in {:.2?}", artifact.display(), generated.elapsed());
    let outcome = run(&plan, args.seed, &artifact, Duration::from_secs(args.seconds), args.trace);
    let _ = std::fs::remove_file(&artifact);
    let result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = result.correct();

    for (k, v) in &result.meta {
        println!("# {k} = {v}");
    }
    for v in &result.values {
        let better = v.spec.better.as_str();
        println!("{:<32} {:>14.4} {:<6} ({better} is better)", v.spec.name, v.value, v.spec.unit);
    }
    println!("rounds attempted {}, failed {}", result.attempted, result.failed);
    for why in &result.failures {
        println!("FAILED: {why}");
    }
    let file = work.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&file, result_file(&result, correct).render() + "\n") {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{}", result_line(&result, correct).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
