//! The opeer benchmark: three workloads driven through the program's
//! public functions, every end-to-end metric by name and unit, output
//! checks, and a separate traced run that times each layer call from
//! here.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload oneshot|stream|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! with the end-to-end metrics of `BENCHMARK.json` when `--trace 0` and
//! its per-layer metrics when `--trace 1`. The line before it holds the
//! run's detail: host and thread counts, seed, world dimensions, sample
//! counts and resolution of every percentile, per-layer self times, and
//! the failed checks. Traced runs also write their spans as JSON lines
//! under `benchmark/target/trace/`. Any failed operation or check makes
//! the exit code 1.

mod common;
mod layers;
mod oneshot;
mod serve;
mod stats;
mod stream;
mod trace;
mod wire;

use common::{obj, Run, GATEWAY_THREADS, THREADS};
use serde::Value;
use trace::Tracer;

const USAGE: &str =
    "usage: opeer-benchmark --workload oneshot|stream|serve --seed N --seconds S --trace 0|1";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(match value.as_str() {
                    "oneshot" => "oneshot",
                    "stream" => "stream",
                    "serve" => "serve",
                    other => return Err(format!("unknown workload `{other}`")),
                })
                .is_some(),
            "--seed" => seed
                .replace(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                .is_some(),
            "--seconds" => seconds
                .replace(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or("--seconds must be 1..=600")?,
                )
                .is_some(),
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
                .is_some(),
            other => return Err(format!("unknown flag `{other}`")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared(trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Value::as_array)
        .ok_or(format!("{path}: no `{key}` list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).map(str::to_string);
            field("name")
                .zip(field("unit"))
                .ok_or(format!("{path}: malformed `{key}` entry"))
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let declared = match declared(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    // A traced run times the workload's loop twice, untraced and traced,
    // for half of the run's seconds each.
    let seconds = if args.trace {
        args.seconds as f64 / 2.0
    } else {
        args.seconds as f64
    };
    let mut run = Run::new(args.seed, seconds, args.trace);
    let tracer = Tracer::new(args.trace);
    match args.workload {
        "oneshot" => oneshot::run(&mut run, &tracer),
        "stream" => stream::run(&mut run, &tracer),
        _ => serve::run(&mut run, &tracer),
    }

    // Every declared metric exactly once, each finite, with its unit.
    for (name, unit) in &declared {
        let found: Vec<_> = run.metrics.iter().filter(|m| &m.name == name).collect();
        let ok = found.len() == 1 && found[0].value.is_finite() && found[0].unit == unit;
        run.check(
            &format!("metric {name} [{unit}] reported once and finite"),
            ok,
        );
    }
    let undeclared: Vec<String> = run
        .metrics
        .iter()
        .filter(|m| !declared.iter().any(|(name, _)| name == &m.name))
        .map(|m| m.name.clone())
        .collect();
    for name in undeclared {
        run.check(
            &format!("metric {name} is declared in BENCHMARK.json"),
            false,
        );
    }

    let mut detail = vec![
        ("workload", Value::Str(args.workload.to_string())),
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::U64(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        (
            "nproc",
            Value::U64(
                std::thread::available_parallelism()
                    .map(|n| n.get() as u64)
                    .unwrap_or(1),
            ),
        ),
        ("worker_threads", Value::U64(THREADS as u64)),
        ("gateway_threads", Value::U64(GATEWAY_THREADS as u64)),
        (
            "fail_frac",
            Value::F64(run.failed as f64 / run.attempted.max(1) as f64),
        ),
        (
            "failures",
            Value::Array(run.failures.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    if args.trace {
        let path = format!(
            "{}/target/trace/{}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            args.workload,
            args.seed
        );
        match tracer.write_jsonl(std::path::Path::new(&path)) {
            Ok(()) => detail.push(("spans_file", Value::Str(path))),
            Err(e) => run.check(&format!("write spans to {path}: {e}"), false),
        }
        let layers = tracer
            .layer_totals()
            .into_iter()
            .map(|l| {
                obj(vec![
                    ("name", Value::Str(l.name.to_string())),
                    ("count", Value::U64(l.count as u64)),
                    ("total_ms", Value::F64(l.total_ms)),
                    ("self_ms", Value::F64(l.self_ms)),
                ])
            })
            .collect();
        detail.push(("layers", Value::Array(layers)));
    }
    let mut detail = match obj(detail) {
        Value::Object(members) => members,
        _ => unreachable!("obj builds an object"),
    };
    detail.append(&mut run.detail);
    let detail = Value::Object(vec![("detail".to_string(), Value::Object(detail))]);
    println!(
        "{}",
        serde_json::to_string(&detail).unwrap_or_else(|e| format!("{{\"detail_error\":\"{e}\"}}"))
    );

    let metrics: Vec<String> = declared
        .iter()
        .filter_map(|(name, _)| run.metrics.iter().find(|m| &m.name == name))
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(",")
    );
    if run.failed > 0 {
        std::process::exit(1);
    }
}
