//! `perf`: the live-path benchmark of the PBFT reproduction.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1 [--out PATH] [--trace-out PATH]
//! perf --smoke
//! perf merge OUT.json IN.json...
//! perf compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload
//! in its own process, the end-to-end metrics (`--trace 0`) or the
//! per-layer table (`--trace 1`), a correctness oracle before any number
//! is printed, and one JSON object as the last line of standard output.
//! See `benchmark/README.md` for the workloads, the metrics, and the
//! layer → end-to-end table.

mod cluster;
mod compare;
mod host;
mod json;
mod layers;
mod live;
mod replay;
mod report;
mod spans;
mod stats;
mod trace;
mod workload;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::Workload;

/// Scratch space for WAL directories: inside the working directory (the
/// checkout the benchmark was started in), removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let dir = std::env::current_dir()
            .map_err(|e| format!("working directory: {e}"))?
            .join(".bench_data")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too when this was the last run using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    flag(args, name)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("{name}: cannot read {v:?}"))
        })
        .transpose()
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_file(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))
}

/// One workload, untraced: the end-to-end metrics.
fn run_end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: Option<&str>,
) -> Result<(), String> {
    let scratch = Scratch::new()?;
    // The oracle runs inside, before any number: every reply was right,
    // every acknowledged write was read back, the replicas converged.
    let run = live::run(
        workload,
        seed,
        seconds,
        &scratch.0,
        live::warmup_ops(workload),
    )?;
    report::print_end_to_end("untraced", &run);
    let counters = run.counters.metrics(run.sched_lag_us_p99());
    println!("  live counters (read from the nodes after the run, untraced):");
    for m in &counters {
        println!("  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    if let Some(path) = out {
        let host = host::facts(seed, &scratch.0);
        let doc = report::result_json(workload, false, host, &run, &counters, &[]);
        write_file(path, &doc.to_pretty())?;
    }
    println!(
        "{}",
        report::driver_line(
            true,
            run.attempted,
            run.failed,
            run.end_to_end()
                .iter()
                .map(|m| (m.name, m.unit, m.summary.median)),
        )
    );
    Ok(())
}

/// One workload, traced: the per-layer table.
fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out: Option<&str>,
    trace_out: Option<&str>,
) -> Result<(), String> {
    let scratch = Scratch::new()?;
    let result = trace::run(
        workload,
        seed,
        seconds,
        &scratch.0,
        live::warmup_ops(workload),
    )?;
    let attempted = result.untraced.attempted + result.traced.attempted;
    // The live halves passed their oracle inside; the replay has its own.
    if result.replay_wrong > 0 || !result.replay_converged {
        return Err(format!(
            "oracle: the replay had {} wrong replies (replicas converged: {})",
            result.replay_wrong, result.replay_converged
        ));
    }
    report::print_end_to_end("traced run, untraced half", &result.untraced);
    report::print_end_to_end("traced run, traced half", &result.traced);
    report::print_layers(&result.layers, &result.notes);
    if let Some(path) = trace_out {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        spans::write_jsonl(&result.spans, &mut std::io::BufWriter::new(file))
            .map_err(|e| format!("write {path}: {e}"))?;
        println!("  wrote {} spans to {path}", result.spans.len());
    }
    if let Some(path) = out {
        let host = host::facts(seed, &scratch.0);
        let doc = report::result_json(
            workload,
            true,
            host,
            &result.traced,
            &result.layers,
            &result.notes,
        );
        write_file(path, &doc.to_pretty())?;
    }
    println!(
        "{}",
        report::driver_line(
            true,
            attempted,
            0,
            result.layers.iter().map(|l| (l.name, l.unit, l.value)),
        )
    );
    Ok(())
}

/// The names a run emits, in emission order.
struct Names {
    workloads: Vec<&'static str>,
    end_to_end: Vec<&'static str>,
    per_layer: Vec<&'static str>,
}

/// `counter_sat` only, two 1 s slices, then its traced run: quick proof
/// that every metric is emitted under its declared name.
fn smoke() -> Result<Names, String> {
    let scratch = Scratch::new()?;
    let workload = Workload::CounterSat;
    let (slice, warmup_ops) = (std::time::Duration::from_secs(1), 500);
    let mut session = live::Session::new(workload, 1, &scratch.0);
    for _ in 0..2 {
        session.cycle(slice, warmup_ops, None)?;
    }
    let run = session.finish()?;
    let traced = trace::run(workload, 1, 2.5, &scratch.0, warmup_ops)?;
    if traced.replay_wrong > 0 || !traced.replay_converged {
        return Err("oracle: the smoke replay went wrong".to_string());
    }
    report::print_end_to_end("smoke", &run);
    report::print_layers(&traced.layers, &traced.notes);
    Ok(Names {
        workloads: Workload::ALL.iter().map(|w| w.name()).collect(),
        end_to_end: run.end_to_end().iter().map(|m| m.name).collect(),
        per_layer: traced.layers.iter().map(|l| l.name).collect(),
    })
}

fn merge(args: &[String]) -> Result<(), String> {
    let (out, inputs) = args.split_first().ok_or("merge OUT.json IN.json...")?;
    let results = inputs
        .iter()
        .map(|p| read_json(p))
        .collect::<Result<Vec<_>, _>>()?;
    let doc = Json::obj([
        ("schema", Json::str(report::SCHEMA)),
        ("results", Json::Arr(results)),
    ]);
    write_file(out, &doc.to_pretty())
}

fn main_inner(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [a, b] = [args.get(1), args.get(2)].map(|p| p.filter(|p| !p.starts_with("--")));
            let (Some(a), Some(b)) = (a, b) else {
                return Err("compare A.json B.json [--benchmark BENCHMARK.json]".to_string());
            };
            let benchmark = read_json(flag(args, "--benchmark").unwrap_or("BENCHMARK.json"))?;
            let (report, worse) = compare::compare(&read_json(a)?, &read_json(b)?, &benchmark)?;
            print!("{report}");
            Ok(if worse {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            })
        }
        Some("merge") => merge(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("--smoke") => {
            let names = smoke()?;
            println!("workloads: {}", names.workloads.join(" "));
            println!("end_to_end: {}", names.end_to_end.join(" "));
            println!("per_layer: {}", names.per_layer.join(" "));
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let name = flag(args, "--workload").ok_or("--workload NAME is required")?;
            let workload = Workload::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            })?;
            let seed = parsed::<u64>(args, "--seed")?.unwrap_or(1);
            let seconds = parsed::<f64>(args, "--seconds")?.unwrap_or(16.0);
            if !(1.0..=600.0).contains(&seconds) {
                return Err(format!("--seconds {seconds}: between 1 and 600"));
            }
            let out = flag(args, "--out");
            match parsed::<u8>(args, "--trace")?.unwrap_or(0) {
                0 => run_end_to_end(workload, seed, seconds, out)?,
                1 => run_traced(workload, seed, seconds, out, flag(args, "--trace-out"))?,
                other => return Err(format!("--trace {other}: 0 or 1")),
            }
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match main_inner(&args) {
        Ok(code) => code,
        Err(why) => {
            eprintln!("perf: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(benchmark: &Json, key: &str) -> Vec<String> {
        benchmark
            .get(key)
            .expect(key)
            .as_arr()
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// The names `perf --smoke` emits are exactly the names
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn smoke_emits_exactly_the_declared_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let benchmark = read_json(path).expect("BENCHMARK.json at the repository root");
        let names = smoke().expect("smoke run");
        assert_eq!(names.workloads, declared(&benchmark, "workloads"));
        assert_eq!(names.end_to_end, declared(&benchmark, "end_to_end"));
        assert_eq!(names.per_layer, declared(&benchmark, "per_layer"));
    }
}
