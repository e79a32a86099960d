//! The benchmark's metric tables and its result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single definition of every
//! metric name, unit, direction and regression bound; `BENCHMARK.json`
//! repeats them for the driver and a unit test keeps the two equal.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of either table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; 0 for per-layer metrics, which carry no bound.
    pub bound: f64,
    /// True when the value is a count the program makes that must
    /// repeat exactly for a given seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a client of the service sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ask_p50_ms", "ms", Lower, 0.25),
    e2e("view_ask_p50_ms", "ms", Lower, 0.25),
    e2e("recall_p50_ms", "ms", Lower, 0.25),
    e2e("read_ops_per_s", "1/s", Higher, 0.25),
    e2e("tell_p50_ms", "ms", Lower, 0.25),
    e2e("fresh_ask_p50_ms", "ms", Lower, 0.25),
    e2e("pinned_view_ask_p50_ms", "ms", Lower, 0.25),
    e2e("write_ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
];

/// What single layers do, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // proto: server::proto over storage::record frames.
    layer("proto.ask_request_encode_us", "us", Lower),
    layer("proto.ask_request_decode_us", "us", Lower),
    layer("proto.names_response_encode_us", "us", Lower),
    layer("proto.names_response_decode_us", "us", Lower),
    count("proto.names_response_bytes", "B", Lower),
    // session / mvcc / version.
    layer("session.touch_us", "us", Lower),
    layer("mvcc.acquire_us", "us", Lower),
    layer("mvcc.publish_us", "us", Lower),
    layer("mvcc.versions_live_max", "count", Lower),
    layer("version.capture_ms", "ms", Lower),
    // query / seminaive / assertion.
    layer("query.edb_export_ms", "ms", Lower),
    count("query.edb_tuples", "count", Lower),
    layer("query.ask_total_ms", "ms", Lower),
    layer("query.filter_self_ms", "ms", Lower),
    count("query.derivations_per_answer", "ratio", Lower),
    layer("seminaive.closure_ms", "ms", Lower),
    count("seminaive.rounds", "count", Lower),
    count("seminaive.derivations", "count", Lower),
    count("seminaive.index_probes", "count", Lower),
    count("seminaive.tuples_scanned", "count", Lower),
    layer("assertion.holds_us", "us", Lower),
    // views / recall / navigate.
    layer("views.view_tuples_ms", "ms", Lower),
    count("views.tuples", "count", Lower),
    layer("views.register_s", "s", Lower),
    layer("views.materialized_share", "ratio", Higher),
    count("views.delta_tuples_per_write", "count", Lower),
    layer("recall.recall_similar_ms", "ms", Lower),
    count("recall.signatures_scanned", "count", Lower),
    layer("navigate.object_history_us", "us", Lower),
    // frame / analysis / system.
    layer("frame.parse_us", "us", Lower),
    layer("analysis.lint_context_ms", "ms", Lower),
    layer("analysis.lint_cold_ms", "ms", Lower),
    count("analysis.sccs_reanalyzed_per_tell", "count", Lower),
    layer("system.tell_apply_ms", "ms", Lower),
    layer("system.register_object_ms", "ms", Lower),
    layer("system.execute_ms", "ms", Lower),
    layer("system.retract_ms", "ms", Lower),
    layer("system.untell_ms", "ms", Lower),
    count("system.props_per_write", "count", Lower),
    // journal / replication.
    layer("journal.sync_us", "us", Lower),
    layer("journal.fsyncs_per_write", "ratio", Lower),
    count("journal.wal_bytes_per_op", "B", Lower),
    layer("journal.replayed_ops", "count", Lower),
    layer("journal.recover_s", "s", Lower),
    layer("journal.recover_ops_per_s", "1/s", Higher),
    layer("replication.apply_us_per_op", "us", Lower),
    layer("replication.catchup_s", "s", Lower),
    layer("replication.catchup_ops_per_s", "1/s", Higher),
    // server: what the layer calls above do not explain.
    layer("server.ask_residual_ms", "ms", Lower),
    layer("server.tell_residual_ms", "ms", Lower),
    layer("server.show_residual_us", "us", Lower),
    layer("server.ask_wire_p50_ms", "ms", Lower),
    layer("server.tell_wire_p50_ms", "ms", Lower),
    layer("server.show_wire_p50_us", "us", Lower),
    layer("server.execute_wire_p50_ms", "ms", Lower),
    layer("server.retract_wire_p50_ms", "ms", Lower),
    layer("server.ask_p95_ms", "ms", Lower),
    layer("server.tell_p95_ms", "ms", Lower),
    layer("server.writer_lock_wait_us", "us", Lower),
    // synth: the corpus generator.
    layer("synth.generate_s", "s", Lower),
    count("synth.propositions", "count", Lower),
    count("synth.decisions_effective", "count", Lower),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples it summarises (1 for a single measurement).
    pub samples: usize,
}

/// The values one run produced for one table.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    /// Records `name`; a name may be set once.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        let old = self.0.insert(name, Value { value, samples });
        assert!(old.is_none(), "metric `{name}` set twice");
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// Checks that exactly the metrics of `table` are present and
    /// finite — the contract is every metric, on every workload.
    pub fn check_against(&self, table: &[MetricDef]) -> Result<(), String> {
        for def in table {
            match self.0.get(def.name) {
                None => return Err(format!("metric `{}` was not measured", def.name)),
                Some(v) if !v.value.is_finite() => {
                    return Err(format!("metric `{}` is {}", def.name, v.value))
                }
                Some(_) => {}
            }
        }
        match self.0.keys().find(|k| !table.iter().any(|d| d.name == **k)) {
            Some(extra) => Err(format!("metric `{extra}` is not in the table")),
            None => Ok(()),
        }
    }
}

/// The result of one run of one workload.
pub struct RunResult {
    /// Requests sent over the wire, warm-up included.
    pub attempted: u64,
    /// Requests that failed or were refused. A run with failures prints
    /// no result, so a printed line always says 0.
    pub failed: u64,
    /// Which table `values` fills.
    pub table: &'static [MetricDef],
    /// The measured values.
    pub values: Values,
}

impl RunResult {
    /// The one-line JSON object the driver reads.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, def) in self.table.iter().enumerate() {
            let v = self.values.get(def.name).expect("checked before printing");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, v.value, def.unit
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }

    /// The human-readable table: name, value, unit, samples, bound.
    pub fn table_text(&self) -> String {
        let mut out = String::new();
        for def in self.table {
            let v = self.values.get(def.name).expect("checked before printing");
            let bound = if def.bound > 0.0 {
                format!("bound {:.0}%", def.bound * 100.0)
            } else if def.exact {
                "exact count".to_string()
            } else {
                String::new()
            };
            writeln!(
                out,
                "  {:<36} {:>14.4} {:<6} n={:<7} {} is better  {}",
                def.name,
                v.value,
                def.unit,
                v.samples,
                def.better.as_str(),
                bound
            )
            .expect("write to String");
        }
        out
    }
}

/// The `(name, value)` pairs of a line [`RunResult::json_line`] wrote,
/// or `None` if `line` is not one.
pub fn parse_json_line(line: &str) -> Option<Vec<(String, f64)>> {
    let body = line
        .strip_prefix("{\"correct\": true, ")?
        .split_once("\"metrics\": {")?
        .1
        .strip_suffix("\"}}}")?;
    body.split("\"}, ")
        .map(|entry| {
            let (name, rest) = entry.strip_prefix('"')?.split_once("\": {\"value\": ")?;
            let value = rest.split_once(", \"unit\"")?.0.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name `{}`", def.name);
            assert!(valid_unit(def.unit), "bad unit `{}`", def.unit);
            assert!(seen.insert(def.name), "duplicate metric `{}`", def.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for def in END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` must list exactly these tables, in this order.
    #[test]
    fn benchmark_json_repeats_the_tables() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let section = |key: &str, next: &str| {
            let from = json.find(&format!("\"{key}\"")).expect(key);
            let to = json[from..].find(&format!("\"{next}\"")).map(|i| from + i);
            &json[from..to.unwrap_or(json.len())]
        };
        let rows = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        };
        let want_e2e: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    d.name,
                    d.unit,
                    d.better.as_str(),
                    d.bound
                )
            })
            .collect();
        assert_eq!(rows(section("end_to_end", "per_layer")), want_e2e);
        let want_layers: Vec<String> = PER_LAYER
            .iter()
            .map(|d| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    d.name,
                    d.unit,
                    d.better.as_str()
                )
            })
            .collect();
        assert_eq!(rows(section("per_layer", "\u{0}")), want_layers);
    }

    #[test]
    fn json_line_lists_every_metric_of_the_table_once() {
        const T: &[MetricDef] = &[
            e2e("setup_s", "s", Better::Lower, 0.25),
            e2e("ops", "1/s", Better::Higher, 0.1),
        ];
        let mut values = Values::default();
        values.set("setup_s", 0.8127, 3);
        assert!(values.check_against(T).is_err(), "ops missing");
        values.set("ops", 1500.0, 1);
        values.check_against(T).unwrap();
        let line = RunResult {
            attempted: 10,
            failed: 0,
            table: T,
            values,
        }
        .json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"ops\": {\"value\": 1500, \"unit\": \"1/s\"}}}"
        );
        assert!(!line.contains('\n'));
        assert_eq!(
            parse_json_line(&line),
            Some(vec![("setup_s".into(), 0.8127), ("ops".into(), 1500.0)])
        );
        assert_eq!(parse_json_line("workload kb_small"), None);
    }

    #[test]
    fn values_outside_the_table_or_not_finite_are_refused() {
        const T: &[MetricDef] = &[e2e("a", "s", Better::Lower, 0.1)];
        let mut v = Values::default();
        v.set("a", f64::NAN, 1);
        assert!(v.check_against(T).is_err());
        let mut v = Values::default();
        v.set("a", 1.0, 1);
        v.set("b", 1.0, 1);
        assert!(v.check_against(T).is_err());
    }
}
