//! Snapshot exporters: JSON Lines (one self-describing object per
//! metric) and the Prometheus text exposition format. Hand-rolled so the
//! crate stays dependency-free; metric names are workspace-controlled
//! but escaped anyway.

use std::fmt::Write as _;

use crate::bucket_upper_bound;
use crate::snapshot::{MetricValue, MetricsSnapshot};

impl MetricsSnapshot {
    /// Renders the snapshot as JSON Lines: one object per metric with a
    /// `metric` name, a `kind` tag, and kind-specific fields. Histogram
    /// buckets are `{"le": inclusive_upper_bound_or_null, "count": n}`
    /// with empty buckets omitted.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            match m {
                MetricValue::Counter { name, value } => {
                    let _ = writeln!(
                        out,
                        "{{\"metric\":{},\"kind\":\"counter\",\"value\":{value}}}",
                        json_string(name)
                    );
                }
                MetricValue::Gauge {
                    name,
                    last,
                    min,
                    max,
                    sum,
                    count,
                } => {
                    let mean = if *count > 0 { sum / *count as f64 } else { 0.0 };
                    let _ = writeln!(
                        out,
                        "{{\"metric\":{},\"kind\":\"gauge\",\"last\":{},\"min\":{},\"max\":{},\"mean\":{},\"count\":{count}}}",
                        json_string(name),
                        json_f64(*last),
                        json_f64(*min),
                        json_f64(*max),
                        json_f64(mean),
                    );
                }
                MetricValue::Histogram {
                    name,
                    count,
                    sum,
                    min,
                    max,
                    buckets,
                } => {
                    let _ = write!(
                        out,
                        "{{\"metric\":{},\"kind\":\"histogram\",\"count\":{count},\"sum\":{sum},\"min\":{min},\"max\":{max},\"buckets\":[",
                        json_string(name)
                    );
                    for (i, (bucket, n)) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        match bucket_upper_bound(*bucket) {
                            Some(le) => {
                                let _ = write!(out, "{{\"le\":{le},\"count\":{n}}}");
                            }
                            None => {
                                let _ = write!(out, "{{\"le\":null,\"count\":{n}}}");
                            }
                        }
                    }
                    out.push_str("]}\n");
                }
            }
        }
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// Names are prefixed with `spear_` and sanitized to the Prometheus
    /// charset; histogram buckets are emitted cumulatively with a final
    /// `+Inf` bucket as the format requires.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let name = prom_name(m.name());
            match m {
                MetricValue::Counter { value, .. } => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {value}");
                }
                MetricValue::Gauge { last, .. } => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", prom_f64(*last));
                }
                MetricValue::Histogram {
                    count,
                    sum,
                    buckets,
                    ..
                } => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (bucket, n) in buckets {
                        cumulative += n;
                        if let Some(le) = bucket_upper_bound(*bucket) {
                            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                        }
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
                    let _ = writeln!(out, "{name}_sum {sum}");
                    let _ = writeln!(out, "{name}_count {count}");
                }
            }
        }
        out
    }
}

/// Quotes and escapes a string for JSON output.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an f64 as a JSON value; non-finite values become `null`
/// (JSON has no NaN/Infinity).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Formats an f64 for Prometheus, which does accept NaN and +/-Inf.
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Maps a dotted metric name onto the Prometheus charset with a
/// workspace prefix: `mcts.decision_ns` → `spear_mcts_decision_ns`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("spear_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            metrics: vec![
                MetricValue::Counter {
                    name: "sim.admissions".to_string(),
                    value: 12,
                },
                MetricValue::Gauge {
                    name: "rl.mean_entropy".to_string(),
                    last: 0.5,
                    min: 0.25,
                    max: 0.75,
                    sum: 1.5,
                    count: 3,
                },
                MetricValue::Histogram {
                    name: "mcts.decision_ns".to_string(),
                    count: 3,
                    sum: 2100,
                    min: 100,
                    max: 1100,
                    buckets: vec![(6, 1), (10, 2)],
                },
            ],
        }
    }

    #[test]
    fn jsonl_is_one_valid_object_per_line() {
        let jsonl = sample().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"metric\":\"sim.admissions\",\"kind\":\"counter\",\"value\":12}"
        );
        assert!(lines[1].contains("\"kind\":\"gauge\""));
        assert!(lines[1].contains("\"mean\":0.5"));
        assert!(
            lines[2].contains("\"buckets\":[{\"le\":127,\"count\":1},{\"le\":2047,\"count\":2}]")
        );
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let prom = sample().to_prometheus();
        assert!(prom.contains("# TYPE spear_mcts_decision_ns histogram"));
        assert!(prom.contains("spear_mcts_decision_ns_bucket{le=\"127\"} 1"));
        assert!(prom.contains("spear_mcts_decision_ns_bucket{le=\"2047\"} 3"));
        assert!(prom.contains("spear_mcts_decision_ns_bucket{le=\"+Inf\"} 3"));
        assert!(prom.contains("spear_mcts_decision_ns_sum 2100"));
        assert!(prom.contains("spear_mcts_decision_ns_count 3"));
        assert!(prom.contains("spear_sim_admissions 12"));
        assert!(prom.contains("spear_rl_mean_entropy 0.5"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(prom_f64(f64::INFINITY), "+Inf");
    }

    #[test]
    fn empty_snapshot_exports_empty_strings() {
        let snap = MetricsSnapshot::default();
        assert!(snap.to_jsonl().is_empty());
        assert!(snap.to_prometheus().is_empty());
    }
}
