//! What a run prints and writes.
//!
//! Three forms of the same measurement: a table for people on standard
//! output, one JSON line last on standard output for the driver, and a
//! result file (`--out`) that `perf compare` reads back.

use crate::cluster::{CHECKPOINT_INTERVAL, CLIENT_RETRANSMIT, PIPELINE_DEPTH, VIEW_CHANGE_MS};
use crate::json::Json;
use crate::live::{LayerMetric, Metric, RunData};
use crate::workload::{Workload, CLIENTS, SLO_LIMIT_MS};

/// Version tag of the result file.
pub const SCHEMA: &str = "pbft-perf/1";

/// The settings every workload shares, recorded with each result.
pub fn common_setup() -> Json {
    Json::obj([
        ("replicas", Json::Num(4.0)),
        ("f", Json::Num(1.0)),
        ("clients", Json::Num(CLIENTS as f64)),
        ("workers", Json::Num(0.0)),
        ("pipeline_depth", Json::Num(PIPELINE_DEPTH as f64)),
        ("checkpoint_interval", Json::Num(CHECKPOINT_INTERVAL as f64)),
        ("view_change_ms", Json::Num(VIEW_CHANGE_MS as f64)),
        (
            "client_retransmit_ms",
            Json::Num(CLIENT_RETRANSMIT.as_millis() as f64),
        ),
        ("slo_limit_ms", Json::Num(SLO_LIMIT_MS)),
    ])
}

fn metric_json(m: &Metric) -> Json {
    let mut pairs = vec![
        ("value".to_string(), Json::Num(m.summary.median)),
        ("unit".to_string(), Json::str(m.unit)),
        ("iqr".to_string(), Json::Num(m.summary.iqr)),
        ("slices".to_string(), Json::Num(m.summary.slices as f64)),
    ];
    if let Some(n) = m.samples {
        pairs.push(("samples".to_string(), Json::Num(n as f64)));
    }
    Json::Obj(pairs)
}

fn layers_json(layers: &[LayerMetric]) -> Json {
    Json::obj(layers.iter().map(|l| {
        (
            l.name,
            Json::obj([("value", Json::Num(l.value)), ("unit", Json::str(l.unit))]),
        )
    }))
}

/// The result-file entry of one run of one workload.
pub fn result_json(
    workload: Workload,
    traced: bool,
    host: Json,
    run: &RunData,
    layers: &[LayerMetric],
    notes: &[String],
) -> Json {
    let invalid = run.invalid_reasons();
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("workload", Json::str(workload.name())),
        ("traffic", Json::str(workload.traffic())),
        ("traced", Json::Bool(traced)),
        ("host", host),
        ("setup", common_setup()),
        // A result is only written after the oracle passed; `valid` says
        // whether it is also a normal-case measurement.
        ("valid", Json::Bool(invalid.is_empty())),
        (
            "invalid_reasons",
            Json::Arr(invalid.into_iter().map(Json::Str).collect()),
        ),
        ("attempted", Json::Num(run.attempted as f64)),
        ("failed", Json::Num(run.failed as f64)),
        ("measured_s", Json::Num(run.measured_s)),
        (
            "end_to_end",
            Json::obj(run.end_to_end().iter().map(|m| (m.name, metric_json(m)))),
        ),
        ("per_layer", layers_json(layers)),
        (
            "notes",
            Json::Arr(notes.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric with its value as measured and its unit.
pub fn driver_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.into_iter().map(|(name, unit, value)| {
                (
                    name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
    .to_line()
}

/// Prints the end-to-end table: every metric by name with its unit, the
/// spread over slices beside it.
pub fn print_end_to_end(label: &str, run: &RunData) {
    println!(
        "{} [{label}]: {} slices (one per fresh cluster) over {:.1} s, {} ops attempted, {} failed; injected delay: none",
        run.workload.name(),
        run.slices.len(),
        run.measured_s,
        run.attempted,
        run.failed
    );
    println!("  {}", run.workload.traffic());
    for m in run.end_to_end() {
        let samples = m
            .samples
            .map(|n| format!("  ({n} samples)"))
            .unwrap_or_default();
        println!(
            "  {:<16} {:>14.4} {:<6} iqr {:>10.4} over {} slice(s){samples}",
            m.name, m.summary.median, m.unit, m.summary.iqr, m.summary.slices
        );
    }
    let list = |f: &dyn Fn(&crate::live::SliceData) -> f64| -> String {
        let values: Vec<String> = run.slices.iter().map(|s| format!("{:.0}", f(s))).collect();
        values.join(" ")
    };
    println!("  per slice: ops_per_s {}", list(&|s| s.ops_per_s()));
    println!(
        "  per slice: cpu_us_per_op {}",
        list(&|s| s.cpu_us_per_op())
    );
    let setups: Vec<String> = run.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  per set-up: setup_s {}", setups.join(" "));
    let peaks: Vec<String> = run.peak_rss_mb.iter().map(|m| format!("{m:.0}")).collect();
    println!("  per cycle: peak_rss_mb {}", peaks.join(" "));
    for why in run.invalid_reasons() {
        println!("  INVALID (not a normal-case measurement): {why}");
    }
}

/// Prints the per-layer table and the notes that explain derived rows.
pub fn print_layers(layers: &[LayerMetric], notes: &[String]) {
    println!("  per layer:");
    for l in layers {
        println!("  {:<40} {:>16.4} {}", l.name, l.value, l.unit);
    }
    for note in notes {
        println!("  note: {note}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let line = driver_line(
            true,
            1000,
            0,
            [("latency_ms", "ms", 1.2034), ("setup_s", "s", 0.8127)],
        );
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).expect("driver line is JSON");
        let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(1000.0));
        assert!(
            line.contains("\"attempted\":1000,"),
            "whole numbers print as such: {line}"
        );
        let latency = doc
            .get("metrics")
            .and_then(|m| m.get("latency_ms"))
            .expect("metric");
        assert_eq!(latency.get("value").and_then(Json::as_f64), Some(1.2034));
        assert_eq!(latency.get("unit").and_then(Json::as_str), Some("ms"));
    }
}
