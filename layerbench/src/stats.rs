//! Summary statistics, metric names and the one-line JSON result.

use cmp_common::journal::Json;

/// Median of `xs` (mean of the middle two for an even count); NaN for
/// no samples, which the metric audit reports.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of a sample that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with the counts that justify it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen (e.g. 90.0).
    pub pct: f64,
    /// Its value (nearest-rank).
    pub value: f64,
    /// Samples strictly above its rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Nearest-rank percentile tail: rank `k = ceil(p/100 · n)`, value
/// `sorted[k-1]`, `n - k` samples beyond it. `None` when even the median
/// has fewer than [`TAIL_MIN_BEYOND`] samples beyond it (`n < 20`).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_CANDIDATES.iter().find_map(|&pct| {
        let k = ((pct / 100.0) * n as f64).ceil() as usize;
        (k >= 1 && n - k >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: v[k - 1],
            beyond: n - k,
            samples: n,
        })
    })
}

/// A metric name: starts with a letter or digit, at most 64 characters
/// from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects metrics in report order.
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Problems with a metric set against the registry it must match
/// exactly: invalid or duplicate names, wrong units, missing or extra
/// metrics, non-finite values.
pub fn audit(metrics: &Metrics, expected: &[(String, &'static str)]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, m) in metrics.0.iter().enumerate() {
        if !valid_name(&m.name) {
            problems.push(format!("invalid metric name {:?}", m.name));
        }
        if metrics.0[..i].iter().any(|o| o.name == m.name) {
            problems.push(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            problems.push(format!("metric {} is not finite ({})", m.name, m.value));
        }
        match expected.iter().find(|(n, _)| *n == m.name) {
            None => problems.push(format!("metric {} is not in the registry", m.name)),
            Some((_, unit)) if *unit != m.unit => problems.push(format!(
                "metric {} has unit {} but the registry says {unit}",
                m.name, m.unit
            )),
            Some(_) => {}
        }
    }
    for (name, _) in expected {
        if metrics.get(name).is_none() {
            problems.push(format!("metric {name} was not reported"));
        }
    }
    problems
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body = metrics
        .0
        .iter()
        .map(|m| {
            // A non-finite value is already an audit failure; keep the
            // line valid JSON.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::f64(v)),
                    ("unit".into(), Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(attempted)),
        ("failed".into(), Json::u64(failed)),
        ("metrics".into(), Json::Obj(body)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 19 samples: even the median has only 9 beyond it.
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        // 20 samples: p50 (rank 10) leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).expect("p50 qualifies");
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 10.0, 10, 20));
        // 72 samples (three 24-cell campaigns): p90 leaves 7, p75 18.
        let xs: Vec<f64> = (1..=72).map(f64::from).collect();
        let t = tail(&xs).expect("p75 qualifies");
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (75.0, 54.0, 18, 72));
        // 1000 samples: p99 (rank 990) leaves 10; p99.9 leaves 1.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).expect("p99 qualifies");
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "cells_per_s",
            "codec.dbrc16_1b.ns_per_op",
            "noc.x-y",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "slash/ed",
            "uni\u{e9}",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn audit_reports_every_mismatch_against_the_registry() {
        let registry = vec![("a".to_string(), "s"), ("b".to_string(), "count")];
        let mut m = Metrics::default();
        m.put("a", "s", 1.0);
        m.put("b", "count", 2.0);
        assert!(audit(&m, &registry).is_empty());

        let mut m = Metrics::default();
        m.put("a", "ms", f64::NAN);
        m.put("a", "s", 1.0);
        m.put("bad name", "s", 1.0);
        let problems = audit(&m, &registry).join("\n");
        for needle in [
            "unit ms",
            "not finite",
            "reported twice",
            "invalid metric name",
            "not in the registry",
            "b was not reported",
        ] {
            assert!(
                problems.contains(needle),
                "{needle} missing from:\n{problems}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", "ms", 1.2034);
        let line = result_line(true, 10, 0, &m);
        let j = Json::parse(&line).expect("valid JSON");
        let Json::Obj(fields) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = j.get("metrics").and_then(|m| m.get("latency_ms"));
        assert_eq!(
            v.and_then(|v| v.get("value")).and_then(Json::as_f64),
            Some(1.2034)
        );
    }
}
