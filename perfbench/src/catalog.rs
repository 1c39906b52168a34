//! The metric catalog: every name the benchmark prints, with its unit.
//!
//! An untraced run prints exactly [`END_TO_END`]; a traced run prints
//! exactly [`PER_LAYER`]. Every workload prints the same set, and a run
//! refuses to print a result whose set differs from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a caller of the solver or the service sees.
/// The latency and the rate are those of the workload's own request (a
/// direct solve, or a served request on the serving workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_us_p50", "us"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Direct solves and served requests on every workload, whichever of
    // the two its end-to-end figures time, and their tails.
    ("solve_us_p50", "us"),
    ("serve.p50_us", "us"),
    ("serve.solves_per_s", "1/s"),
    ("solve_us_p90", "us"),
    ("serve.p90_us", "us"),
    // Set-up: analyze, factorize, plan, compile the schedule, start serving.
    ("ordering.analyze_s", "s"),
    ("setup.permute_ms", "ms"),
    ("lufactor.numeric_s", "s"),
    ("plan.new_ms", "ms"),
    ("schedule.compile_ms", "ms"),
    ("service.start_ms", "ms"),
    // The sequential floor: solve_l + solve_u on the same factor.
    ("lufactor.floor_us", "us"),
    ("lufactor.solve_l_us", "us"),
    ("lufactor.solve_u_us", "us"),
    // Per-rank executor at 1x1x1 (no messages).
    ("executor.p1_us", "us"),
    ("executor.p1_over_floor", "ratio"),
    ("executor.level_p1_us", "us"),
    ("executor.l_us", "us"),
    ("executor.u_us", "us"),
    ("executor.fmod_stalls", "count"),
    // Kernels: computed from the factor, not measured.
    ("kernels.flops", "flop"),
    ("kernels.factor_bytes", "bytes"),
    ("kernels.gflops_p1", "Gflop/s"),
    // Transport at the workload's layout on a real backend.
    ("transport.makespan_us", "us"),
    ("transport.xy_msgs", "count"),
    ("transport.z_msgs", "count"),
    ("transport.xy_bytes", "bytes"),
    ("transport.z_bytes", "bytes"),
    ("transport.xy_wait_share", "ratio"),
    ("transport.z_wait_share", "ratio"),
    ("allreduce.z_share", "ratio"),
    // Launch: solve wall time outside the ranks' makespan.
    ("launch.us", "us"),
    ("launch.share", "ratio"),
    // Serving.
    ("service.submit_us_p50", "us"),
    ("service.queue_wait_us_p50", "us"),
    ("service.solve_us_p50", "us"),
    ("service.demux_us_p50", "us"),
    ("service.batch_width_mean", "cols"),
    ("service.batches", "count"),
    ("service.rejected", "count"),
    ("serve.p95_us", "us"),
    ("serve.gen_late_us", "us"),
    // The simulator.
    ("simgrid.predicted_makespan_vus", "virtual_us"),
    ("simgrid.settle_waits", "count"),
    ("simgrid.msgs", "count"),
    ("simgrid.wall_per_virtual", "ratio"),
    // The benchmark itself.
    ("bench.trace_overhead_us", "us"),
    ("bench.solve_samples", "count"),
    ("bench.serve_samples", "count"),
    ("fail_frac", "ratio"),
];

/// The catalog a run in this mode prints.
pub fn catalog(traced: bool) -> &'static [(&'static str, &'static str)] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values collected during a run.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let prev = self.0.insert(name, value);
        assert!(prev.is_none(), "metric {name} set twice");
    }

    /// Check the collected set against the catalog and the benchmark
    /// definition, then render the `metrics` object of the result line.
    pub fn render(&self, traced: bool, defined: &[(String, String)]) -> Result<String, String> {
        let cat = catalog(traced);
        let mut problems = Vec::new();
        for (name, _) in cat {
            match self.0.get(name) {
                None => problems.push(format!("{name}: not measured")),
                Some(v) if !v.is_finite() => problems.push(format!("{name}: {v} is not finite")),
                Some(_) => {}
            }
        }
        for name in self.0.keys() {
            if !valid_name(name) {
                problems.push(format!("{name}: not a valid metric name"));
            }
            if !cat.iter().any(|(n, _)| n == name) {
                problems.push(format!("{name}: not in the catalog"));
            }
        }
        let mine: Vec<(String, String)> = cat
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if sorted(mine) != sorted(defined.to_vec()) {
            problems.push("the catalog differs from BENCHMARK.json".to_string());
        }
        if !problems.is_empty() {
            return Err(problems.join("; "));
        }
        let mut out = String::from("{");
        for (i, (name, unit)) in cat.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = self.0[name];
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        Ok(out)
    }
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares for one mode.
pub fn defined_metrics(
    benchmark_json: &str,
    traced: bool,
) -> Result<Vec<(String, String)>, String> {
    let root: serde_json::Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let Some(serde_json::Value::Array(items)) = root.get(key) else {
        return Err(format!("BENCHMARK.json has no {key} list"));
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(serde_json::Value::Str(n)), Some(serde_json::Value::Str(u))) => {
                Ok((n.clone(), u.clone()))
            }
            _ => Err(format!(
                "BENCHMARK.json: a {key} entry lacks a name or unit"
            )),
        })
        .collect()
}

/// Workload names `BENCHMARK.json` declares.
pub fn defined_workloads(benchmark_json: &str) -> Result<Vec<String>, String> {
    let root: serde_json::Value =
        serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let Some(serde_json::Value::Array(items)) = root.get("workloads") else {
        return Err("BENCHMARK.json has no workloads list".to_string());
    };
    items
        .iter()
        .map(|w| match w.get("name") {
            Some(serde_json::Value::Str(n)) => Ok(n.clone()),
            _ => Err("BENCHMARK.json: a workload lacks a name".to_string()),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "serve.p50_us", "a-b.c_9", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "_x",
            "has space",
            "µs",
            "a/b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        for traced in [false, true] {
            let defined = defined_metrics(BENCHMARK_JSON, traced).unwrap();
            let mine: Vec<(String, String)> = catalog(traced)
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(sorted(mine), sorted(defined));
        }
        let workloads = defined_workloads(BENCHMARK_JSON).unwrap();
        let mine: Vec<String> = crate::workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, mine);
    }

    #[test]
    fn render_refuses_a_missing_or_foreign_metric() {
        let defined: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let mut v = Values::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            v.set(name, 1.5 + i as f64);
        }
        let out = v.render(false, &defined).unwrap();
        assert!(out.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        v.set("extra.metric", 1.0);
        assert!(v.render(false, &defined).is_err());
        let mut short = Values::default();
        short.set("setup_s", 1.0);
        assert!(short.render(false, &defined).is_err());
    }
}
