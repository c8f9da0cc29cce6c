//! `perf compare A.json B.json`: is B worse than A?
//!
//! One row per (metric, workload). A row is **worse** when B's median is
//! worse than A's by more than the bound `BENCHMARK.json` fixes for the
//! metric, **unresolved** when the spread of either reported median
//! exceeds that bound, so the runs cannot tell a shift from noise, and
//! **ok** otherwise. The spread of a median over `n` slices is estimated
//! from the slices themselves as their inter-quartile range over `√n`.
//! Exact-count per-layer metrics must be equal when both files used the
//! same seed.

use crate::json::Json;
use std::collections::BTreeMap;

/// Per-layer metrics that are counts of a seeded, single-threaded
/// replay: the same seed must give the same value to the last digit.
pub const EXACT_COUNTS: [&str; 5] = [
    "core.msgs_per_op",
    "core.bytes_per_op",
    "storage.appends_per_op",
    "storage.syncs_per_kop",
    "storage.bytes_per_op",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// A metric's direction and regression bound from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<BTreeMap<String, Bound>, String> {
    let mut out = BTreeMap::new();
    for m in benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .as_arr()
    {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let better = m
            .get("better")
            .and_then(Json::as_str)
            .ok_or("metric without better")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        out.insert(
            name.to_string(),
            Bound {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(out)
}

/// Estimated spread of a median over `slices` slices whose
/// inter-quartile range is `iqr`.
pub fn median_spread(iqr: f64, slices: f64) -> f64 {
    iqr / slices.max(1.0).sqrt()
}

/// Judges one metric: `a` and `b` are `(median, spread of the median)`.
pub fn judge(a: (f64, f64), b: (f64, f64), rule: Bound) -> Verdict {
    let scale = a.0.abs();
    let allowed = rule.bound * scale;
    let worse_by = if rule.higher_is_better {
        a.0 - b.0
    } else {
        b.0 - a.0
    };
    if worse_by > allowed {
        Verdict::Worse
    } else if a.1.max(b.1) > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The entries of a result file: a merged file has `results`, a single
/// run is its own only entry.
fn entries(doc: &Json) -> Vec<&Json> {
    match doc.get("results") {
        Some(list) => list.as_arr().iter().collect(),
        None => vec![doc],
    }
}

fn seed_of(entry: &Json) -> Option<f64> {
    entry
        .get("host")
        .and_then(|h| h.get("seed"))
        .and_then(Json::as_f64)
}

type Table<'a> = BTreeMap<(String, String), (&'a Json, &'a Json)>;

/// `(workload, metric) -> (metric object, entry)` for one section.
fn table<'a>(doc: &'a Json, section: &str, traced: bool) -> Table<'a> {
    let mut out = BTreeMap::new();
    for entry in entries(doc) {
        if entry.get("traced").and_then(Json::as_bool) != Some(traced) {
            continue;
        }
        let Some(workload) = entry.get("workload").and_then(Json::as_str) else {
            continue;
        };
        for (name, metric) in entry.get(section).map(Json::as_obj).unwrap_or(&[]) {
            out.insert((workload.to_string(), name.clone()), (metric, entry));
        }
    }
    out
}

/// Compares two result files; returns the report and whether any row is
/// worse.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<(String, bool), String> {
    let bounds = bounds_of(benchmark)?;
    let mut report = String::new();
    let mut any_worse = false;
    let mut unresolved = 0;
    let num = |m: &Json, key: &str| m.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);

    let (ta, tb) = (table(a, "end_to_end", false), table(b, "end_to_end", false));
    report.push_str(&format!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "change", "bound"
    ));
    for ((workload, name), (ma, ea)) in &ta {
        let Some((mb, eb)) = tb.get(&(workload.clone(), name.clone())) else {
            report.push_str(&format!("{workload:<16} {name:<14} missing in B\n"));
            any_worse = true;
            continue;
        };
        let Some(rule) = bounds.get(name) else {
            return Err(format!("{name} is not in BENCHMARK.json"));
        };
        let (va, vb) = (num(ma, "value"), num(mb, "value"));
        let spread = |m: &Json| median_spread(num(m, "iqr"), num(m, "slices"));
        let mut verdict = judge((va, spread(ma)), (vb, spread(mb)), *rule);
        let mut remark = String::new();
        for (side, entry) in [("A", ea), ("B", eb)] {
            if entry.get("valid").and_then(Json::as_bool) == Some(false) {
                remark = format!("  ({side} is marked invalid)");
                if verdict == Verdict::Ok {
                    verdict = Verdict::Unresolved;
                }
            }
        }
        match verdict {
            Verdict::Worse => any_worse = true,
            Verdict::Unresolved => unresolved += 1,
            Verdict::Ok => {}
        }
        report.push_str(&format!(
            "{workload:<16} {name:<14} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.1}%  {}{remark}\n",
            (vb - va) / va.abs() * 100.0,
            rule.bound * 100.0,
            match verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "WORSE",
                Verdict::Unresolved => "unresolved",
            }
        ));
    }
    if ta.is_empty() {
        return Err("A holds no untraced end-to-end results".to_string());
    }

    let (la, lb) = (table(a, "per_layer", true), table(b, "per_layer", true));
    for ((workload, name), (ma, ea)) in &la {
        if !EXACT_COUNTS.contains(&name.as_str()) {
            continue;
        }
        let Some((mb, eb)) = lb.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (va, vb) = (num(ma, "value"), num(mb, "value"));
        let verdict = if seed_of(ea) != seed_of(eb) {
            "n/a (seeds differ)"
        } else if va == vb {
            "equal"
        } else {
            any_worse = true;
            "DIFFERS (an exact count changed)"
        };
        report.push_str(&format!(
            "{workload:<16} {name:<24} {va:>14.4} {vb:>14.4}  {verdict}\n"
        ));
    }
    report.push_str(&format!(
        "{} worse, {unresolved} unresolved\n",
        if any_worse { "some rows" } else { "no row" }
    ));
    Ok((report, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Json {
        Json::parse(
            r#"{"end_to_end": [
                {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "rw_p99_ms", "unit": "ms", "better": "lower", "bound": 0.25}]}"#,
        )
        .expect("parse")
    }

    fn result(seed: f64, ops: (f64, f64), p99: (f64, f64), msgs: f64) -> Json {
        let metric = |(v, iqr): (f64, f64)| {
            Json::obj([
                ("value", Json::Num(v)),
                ("iqr", Json::Num(iqr)),
                ("slices", Json::Num(4.0)),
            ])
        };
        let entry = |traced: bool| {
            Json::obj([
                ("workload", Json::str("counter_sat")),
                ("traced", Json::Bool(traced)),
                ("valid", Json::Bool(true)),
                ("host", Json::obj([("seed", Json::Num(seed))])),
                (
                    "end_to_end",
                    Json::obj([("ops_per_s", metric(ops)), ("rw_p99_ms", metric(p99))]),
                ),
                (
                    "per_layer",
                    Json::obj([("core.msgs_per_op", Json::obj([("value", Json::Num(msgs))]))]),
                ),
            ])
        };
        Json::obj([("results", Json::Arr(vec![entry(false), entry(true)]))])
    }

    #[test]
    fn judge_uses_direction_bound_and_spread() {
        let higher = Bound {
            higher_is_better: true,
            bound: 0.1,
        };
        assert_eq!(judge((100.0, 1.0), (95.0, 1.0), higher), Verdict::Ok);
        assert_eq!(
            judge((100.0, 1.0), (120.0, 1.0), higher),
            Verdict::Ok,
            "better is ok"
        );
        assert_eq!(judge((100.0, 1.0), (89.0, 1.0), higher), Verdict::Worse);
        assert_eq!(
            judge((100.0, 12.0), (95.0, 1.0), higher),
            Verdict::Unresolved
        );
        let lower = Bound {
            higher_is_better: false,
            bound: 0.25,
        };
        assert_eq!(judge((4.0, 0.1), (4.9, 0.1), lower), Verdict::Ok);
        assert_eq!(judge((4.0, 0.1), (5.1, 0.1), lower), Verdict::Worse);
    }

    #[test]
    fn compare_flags_worse_rows_and_changed_counts() {
        let a = result(1.0, (15000.0, 100.0), (8.0, 0.5), 25.0);
        let same = compare(&a, &a, &benchmark()).expect("compare");
        assert!(!same.1, "{}", same.0);
        assert!(same.0.contains("equal"));

        let slower = result(1.0, (12000.0, 100.0), (8.0, 0.5), 25.0);
        let (report, worse) = compare(&a, &slower, &benchmark()).expect("compare");
        assert!(worse && report.contains("WORSE"), "{report}");

        // An inter-quartile range of 6 over 4 slices: the median is known
        // to about 3, more than a quarter of 8.
        let noisy = result(1.0, (15000.0, 100.0), (8.0, 6.0), 25.0);
        let (report, worse) = compare(&a, &noisy, &benchmark()).expect("compare");
        assert!(!worse && report.contains("unresolved"), "{report}");

        let recounted = result(1.0, (15000.0, 100.0), (8.0, 0.5), 26.0);
        let (report, worse) = compare(&a, &recounted, &benchmark()).expect("compare");
        assert!(worse && report.contains("DIFFERS"), "{report}");

        let other_seed = result(2.0, (15000.0, 100.0), (8.0, 0.5), 26.0);
        let (report, worse) = compare(&a, &other_seed, &benchmark()).expect("compare");
        assert!(!worse && report.contains("seeds differ"), "{report}");
    }
}
