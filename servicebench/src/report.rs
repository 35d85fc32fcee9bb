//! What a run prints and writes: the human-readable table, the final
//! one-line JSON result, the per-run artifact, and the deterministic
//! fields `--check` compares against the committed `expected.json`.

use crate::check::Expected;
use crate::run::{plan_cost_ratio, Metric};
use crate::workload::{Instance, Workload};
use blitz_bench::Json;

/// The final stdout line: `{"correct", "attempted", "failed", "metrics"}`
/// on one line, every value with all its digits.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(", ")
    )
}

/// The metrics as a table, one `name value unit` row each.
pub fn table(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("  {:<36} {:>16.6} {}\n", m.name, m.value, m.unit))
        .collect()
}

/// The metrics as a JSON object `{name: {value, unit}}`.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]);
                (m.name.clone(), value)
            })
            .collect(),
    )
}

/// 64-bit FNV-1a over `bytes`, as 16 hex digits.
fn fnv64<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for &b in chunk {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h = (h ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The fields of a workload that depend on the seed alone: digests of
/// the pool's request lines and of every reference cost's bits, the
/// plan-cost ratio a healthy server returns, and (ladder workloads) the
/// share of pool entries each rung wins.
pub fn deterministic(inst: &Instance, refs: &[Expected]) -> Json {
    let lines: Vec<String> = inst.pool.iter().map(|q| q.line()).collect();
    let bits: Vec<Vec<u8>> = refs
        .iter()
        .map(|e| {
            let mut b = e
                .exact
                .map_or(u32::MAX, f32::to_bits)
                .to_le_bytes()
                .to_vec();
            b.extend(e.greedy.to_bits().to_le_bytes());
            if let Some((cost, rung)) = e.ladder {
                b.extend(cost.to_bits().to_le_bytes());
                b.push(rung.index());
            }
            b
        })
        .collect();
    let served: Vec<Option<f32>> = refs.iter().map(|e| Some(e.served())).collect();
    let mut fields = vec![
        (
            "pool_digest",
            Json::str(fnv64(lines.iter().map(|l| l.as_bytes()))),
        ),
        (
            "reference_digest",
            Json::str(fnv64(bits.iter().map(Vec::as_slice))),
        ),
        ("plan_cost_ratio", Json::Num(plan_cost_ratio(&served, refs))),
    ];
    let rungs: Vec<u8> = refs
        .iter()
        .filter_map(|e| e.ladder.map(|(_, r)| r.index()))
        .collect();
    if !rungs.is_empty() {
        let share = |i: u8| rungs.iter().filter(|&&r| r == i).count() as f64 / rungs.len() as f64;
        fields.push((
            "rung_shares",
            Json::obj(vec![
                ("greedy", Json::Num(share(0))),
                ("hybrid_dp", Json::Num(share(2))),
                ("stochastic", Json::Num(share(3))),
            ]),
        ));
    }
    Json::obj(fields)
}

/// Differences between two deterministic-field documents: strings must
/// match exactly, numbers to a relative 1e-9.
pub fn drift(path: &str, committed: &Json, fresh: &Json) -> Vec<String> {
    match (committed, fresh) {
        (Json::Num(a), Json::Num(b)) => {
            let close = (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
            if close {
                vec![]
            } else {
                vec![format!("{path}: committed {a}, now {b}")]
            }
        }
        (Json::Obj(a), Json::Obj(b)) => {
            let mut out = Vec::new();
            for (k, v) in a {
                match fresh.get(k) {
                    Some(w) => out.extend(drift(&format!("{path}.{k}"), v, w)),
                    None => out.push(format!("{path}.{k}: missing now")),
                }
            }
            for (k, _) in b {
                if committed.get(k).is_none() {
                    out.push(format!("{path}.{k}: not in the committed file"));
                }
            }
            out
        }
        (a, b) if a == b => vec![],
        (a, b) => vec![format!(
            "{path}: committed {}, now {}",
            a.render().trim(),
            b.render().trim()
        )],
    }
}

/// The committed deterministic fields, one entry per workload.
pub fn expected_document(seed: u64, per_workload: Vec<(Workload, Json)>) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        (
            "workloads",
            Json::Obj(
                per_workload
                    .into_iter()
                    .map(|(w, j)| (w.name().to_string(), j))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_one_json_object() {
        let m = vec![Metric {
            name: "setup_s".into(),
            unit: "s",
            value: 0.8127,
        }];
        let line = result_line(10, 0, &m);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
        assert!(Json::parse(&line).is_ok());
        assert!(result_line(10, 1, &m).starts_with(r#"{"correct": false"#));
    }

    #[test]
    fn drift_reports_changed_and_missing_fields() {
        let a = Json::obj(vec![("x", Json::Num(1.0)), ("d", Json::str("ab"))]);
        assert!(drift("w", &a, &a).is_empty());
        let b = Json::obj(vec![("x", Json::Num(1.5)), ("y", Json::Num(2.0))]);
        assert_eq!(drift("w", &a, &b).len(), 3);
    }
}
