//! Metric names, units and the result line.

/// End-to-end metrics, measured in the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_wall_ms.mean", "ms"),
    ("job_wall_ms.tail", "ms"),
    ("pairs_per_s", "1/s"),
    ("sim_jct_us.mean", "us"),
    ("sim_jct_us.tail", "us"),
    ("reducer_frames", "count"),
    ("reducer_bytes", "B"),
    ("link_bytes", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, measured in the traced run (`--trace 1`). Counts
/// and times are per job unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.events", "count"),
    ("netsim.self_ns_per_event", "ns"),
    ("netsim.link_drops", "count"),
    ("dataplane.switch_frames_in", "count"),
    ("dataplane.switch_ns_per_frame", "ns"),
    ("dataplane.parse_ns_per_frame", "ns"),
    ("core.engine.invoke_ns_per_frame", "ns"),
    ("dataplane.pipeline_ns_per_frame", "ns"),
    ("core.engine.pairs_aggregated_frac", "frac"),
    ("core.engine.collisions", "count"),
    ("core.engine.frames_out_per_in", "frac"),
    ("core.worker.sender_build_ms", "ms"),
    ("wire.build_ns_per_frame", "ns"),
    ("core.worker.mapper_ns_per_frame", "ns"),
    ("core.worker.reducer_ns_per_frame", "ns"),
    ("mapreduce.to_pairs_ms", "ms"),
    ("core.controller.deploy_ms", "ms"),
    ("core.reliability.nacks", "count"),
    ("core.reliability.replayed_frames", "count"),
    ("core.reliability.dups_suppressed", "count"),
    ("core.reliability.recovery_tail", "us"),
    ("core.tenant.admit_us", "us"),
    ("core.tenant.admit_reject_frac", "frac"),
    ("core.tenant.depart_us", "us"),
    ("core.tenant.step_ms", "ms"),
    ("core.tenant.round_io_us", "us"),
    ("workload.shards_us", "us"),
    ("workload.absorb_us", "us"),
    ("workload.verify_us", "us"),
    ("fabric.udp.self_ns_per_frame", "ns"),
    ("fabric.udp.polls", "count"),
    ("fabric.udp.useful_poll_frac", "frac"),
    ("fabric.udp.shim_dropped", "count"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
];

/// Whether `name` is a valid metric name: a letter or digit, then at
/// most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Context printed beside it (e.g. the tail's percentile).
    pub note: String,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs timed.
    pub attempted: u64,
    /// Jobs with a wrong answer, an error or a missed deadline.
    pub failed: u64,
    /// Of the failed jobs, those that produced a wrong answer.
    pub wrong: u64,
    /// Checks beside the per-job answers that failed (determinism,
    /// traced-run identity), each with its reason.
    pub violations: Vec<String>,
    /// The values, in any order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records `value` under `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.put_noted(name, value, String::new());
    }

    /// Records `value` under `name` with a note.
    pub fn put_noted(&mut self, name: &'static str, value: f64, note: String) {
        self.metrics.push(Metric { name, value, note });
    }

    /// Records a failed check.
    pub fn violation(&mut self, what: String) {
        eprintln!("CHECK FAILED: {what}");
        self.violations.push(what);
    }

    /// True when no job produced a wrong answer and every check held.
    /// A job that failed without an answer (an error, a missed deadline)
    /// counts in `failed` only.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.violations.is_empty() && self.attempted > 0
    }
}

/// The metrics in `table` order, or the names that are missing, extra,
/// repeated or not finite.
pub fn ordered<'a>(
    metrics: &'a [Metric],
    table: &[(&'static str, &'static str)],
) -> Result<Vec<(&'a Metric, &'static str)>, String> {
    let mut out = Vec::with_capacity(table.len());
    let mut problems = Vec::new();
    for &(name, unit) in table {
        if !valid_name(name) || !valid_unit(unit) {
            problems.push(format!("{name} [{unit}] is not a valid name and unit"));
        }
        let found: Vec<&Metric> = metrics.iter().filter(|m| m.name == name).collect();
        match found.as_slice() {
            [m] if m.value.is_finite() => out.push((*m, unit)),
            [m] => problems.push(format!("{name} is {}", m.value)),
            [] => problems.push(format!("{name} missing")),
            _ => problems.push(format!("{name} recorded {} times", found.len())),
        }
    }
    for m in metrics {
        if !table.iter().any(|&(n, _)| n == m.name) {
            problems.push(format!("{} is not in this table", m.name));
        }
    }
    if problems.is_empty() {
        Ok(out)
    } else {
        Err(problems.join("; "))
    }
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&Metric, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, unit)| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_valid_and_used_once() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for (i, &(name, unit)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(!all[..i].contains(&name), "{name} listed twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
    }

    #[test]
    fn name_rule_rejects_what_the_contract_forbids() {
        assert!(valid_name("job_wall_ms.mean"));
        assert!(valid_name("9lives-x"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && !valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert_eq!(text.matches(&entry).count(), 1, "{entry} in BENCHMARK.json");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }

    #[test]
    fn ordered_reports_missing_extra_and_non_finite() {
        let table = [("a", "s"), ("b", "s")];
        let m = |name, value| Metric {
            name,
            value,
            note: String::new(),
        };
        let ok = [m("b", 2.0), m("a", 1.0)];
        let got = ordered(&ok, &table).unwrap();
        assert_eq!(
            got.iter().map(|(m, _)| m.name).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert!(ordered(&[m("a", 1.0)], &table)
            .unwrap_err()
            .contains("b missing"));
        assert!(ordered(&[m("a", f64::NAN), m("b", 1.0)], &table)
            .unwrap_err()
            .contains("NaN"));
        assert!(ordered(&[m("a", 1.0), m("b", 1.0), m("c", 1.0)], &table).is_err());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let m = Metric {
            name: "setup_s",
            value: 0.8127,
            note: String::new(),
        };
        let line = json_line(true, 3, 0, &[(&m, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
