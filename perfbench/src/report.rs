//! Metric tables, the per-layer breakdown of a traced run, and the JSON
//! result line.

use std::collections::BTreeMap;

use crate::facts::probe_select;
use crate::host::median;
use crate::round::Round;
use crate::workload::{
    Cell, Inputs, Output, Runner, SetupSplit, Workload, MULTIPROG_CONSTRAINT_US,
};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A metric
/// that does not apply to a workload reads 0 there (README).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.suite_build_s", "s"),
    ("workloads.serve_inputs_s", "s"),
    ("workloads.kernels_built", "count"),
    ("runner.periodic_s", "s"),
    ("runner.multiprog_s", "s"),
    ("runner.solo_s", "s"),
    ("runner.serve_s", "s"),
    ("runner.cluster_s", "s"),
    ("runner.cells", "count"),
    ("runner.multiprog_ns_per_warp_inst", "ns"),
    ("engine.sim_cycles", "count"),
    ("engine.warp_insts", "count"),
    ("engine.blocks_completed", "count"),
    ("engine.kernels_launched", "count"),
    ("engine.ns_per_sim_kcycle", "ns"),
    ("engine.ns_per_warp_inst", "ns"),
    ("engine.solo_ns_per_warp_inst", "ns"),
    ("mem.dram_bytes", "B"),
    ("mem.requests_retired", "count"),
    ("mem.dram_util", "ratio"),
    ("preempt.requests", "count"),
    ("preempt.switch_blocks", "count"),
    ("preempt.drain_blocks", "count"),
    ("preempt.flush_blocks", "count"),
    ("preempt.latency_p50_us", "us"),
    ("preempt.latency_samples", "count"),
    ("multiprog.preemptions", "count"),
    ("select.decisions", "count"),
    ("select.blocks_evaluated", "count"),
    ("select.ns_per_call", "ns"),
    ("serve.offered", "count"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.completed", "count"),
    ("serve.max_queue_depth", "count"),
    ("serve.host_us_per_request", "us"),
    ("cluster.imbalance", "ratio"),
    ("obs.events", "count"),
    ("obs.events_dropped", "count"),
    ("obs.traced_wall_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("trace.export_s", "s"),
    ("model.rt_requests", "count"),
    ("model.rt_violations", "count"),
    ("model.rt_useful_insts", "count"),
    ("model.rt_wasted_flush_insts", "count"),
    ("model.pair_stp", "ratio"),
    ("model.pair_antt", "ratio"),
    ("model.serve_goodput_per_s", "1/s"),
    ("model.serve_deadline_met", "count"),
    ("model.cluster_stp", "ratio"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Warp instructions a cell simulated: issued instructions where the
/// runner returned its engine, else the useful instructions its outcome
/// reports (solo and pair jobs); 0 for the cluster, which reports neither.
fn warp_insts(c: &crate::round::CellRun) -> u64 {
    if let Some(e) = &c.engine {
        return e.issued;
    }
    match &c.outcome {
        Ok(Output::Solo(r)) => r.insts,
        Ok(Output::Pair(p)) => p.jobs.iter().map(|j| j.insts).sum(),
        _ => 0,
    }
}

/// The per-layer breakdown of one untraced round (host times) and the
/// traced round that followed it (counts, event-log facts).
pub fn per_layer(
    inputs: &Inputs,
    split: &SetupSplit,
    plain: &Round,
    traced: &Round,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    let mut set = |k: &'static str, v: f64| {
        *m.get_mut(k)
            .unwrap_or_else(|| panic!("undeclared metric {k}")) = v;
    };
    set("workloads.suite_build_s", split.suite_s);
    set("workloads.serve_inputs_s", split.serve_inputs_s);
    set("workloads.kernels_built", inputs.kernels_built() as f64);

    let wall_of = |r: Runner| -> f64 {
        plain
            .cells
            .iter()
            .filter(|c| c.cell.runner() == r)
            .map(|c| c.span.wall_s)
            .sum()
    };
    let insts_of = |r: Runner| -> f64 {
        traced
            .cells
            .iter()
            .filter(|c| c.cell.runner() == r)
            .map(|c| warp_insts(c) as f64)
            .sum()
    };
    set("runner.periodic_s", wall_of(Runner::Periodic));
    set("runner.multiprog_s", wall_of(Runner::Multiprog));
    set("runner.solo_s", wall_of(Runner::Solo));
    set("runner.serve_s", wall_of(Runner::Serve));
    set("runner.cluster_s", wall_of(Runner::Cluster));
    set("runner.cells", plain.cells.len() as f64);
    let ns = |s: f64| s * 1e9;
    set(
        "runner.multiprog_ns_per_warp_inst",
        ratio(ns(wall_of(Runner::Multiprog)), insts_of(Runner::Multiprog)),
    );
    set(
        "engine.solo_ns_per_warp_inst",
        ratio(ns(wall_of(Runner::Solo)), insts_of(Runner::Solo)),
    );

    let wall = plain.span().wall_s;
    let cycles = traced.sim_cycles() as f64;
    let insts: f64 = traced.cells.iter().map(|c| warp_insts(c) as f64).sum();
    set("engine.sim_cycles", cycles);
    set("engine.warp_insts", insts);
    set("engine.ns_per_sim_kcycle", ratio(ns(wall), cycles / 1e3));
    set("engine.ns_per_warp_inst", ratio(ns(wall), insts));

    let engines: Vec<_> = traced
        .cells
        .iter()
        .filter_map(|c| c.engine.as_ref())
        .collect();
    let traces: Vec<_> = traced
        .cells
        .iter()
        .filter_map(|c| c.trace.as_ref())
        .collect();
    let sum_e =
        |f: &dyn Fn(&crate::facts::EngineFacts) -> f64| engines.iter().map(|e| f(e)).sum::<f64>();
    let sum_t =
        |f: &dyn Fn(&crate::facts::TraceFacts) -> f64| traces.iter().map(|t| f(t)).sum::<f64>();
    let dram = sum_e(&|e| e.dram_bytes as f64);
    set("mem.dram_bytes", dram);
    set(
        "mem.requests_retired",
        sum_e(&|e| e.requests_retired as f64),
    );
    set(
        "mem.dram_util",
        ratio(dram, sum_e(&|e| e.cycle as f64 * e.peak_bytes_per_cycle)),
    );
    set("preempt.requests", sum_e(&|e| e.preempt_requests as f64));
    set(
        "preempt.switch_blocks",
        sum_e(&|e| e.technique_blocks[0] as f64),
    );
    set(
        "preempt.drain_blocks",
        sum_e(&|e| e.technique_blocks[1] as f64),
    );
    set(
        "preempt.flush_blocks",
        sum_e(&|e| e.technique_blocks[2] as f64),
    );
    let lat_us: Vec<f64> = engines
        .iter()
        .flat_map(|e| e.preempt_latencies.iter())
        .map(|&c| inputs.cfg.cycles_to_us(c))
        .collect();
    set(
        "preempt.latency_p50_us",
        if lat_us.is_empty() {
            0.0
        } else {
            median(&lat_us)
        },
    );
    set("preempt.latency_samples", lat_us.len() as f64);

    set(
        "engine.blocks_completed",
        sum_t(&|t| t.blocks_completed as f64),
    );
    set("engine.kernels_launched", sum_t(&|t| t.kernels as f64));
    set("select.decisions", sum_t(&|t| t.decisions as f64));
    set(
        "select.blocks_evaluated",
        sum_t(&|t| t.blocks_evaluated as f64),
    );
    set("obs.events", sum_t(&|t| t.events as f64));
    set("obs.events_dropped", sum_t(&|t| t.dropped as f64));
    set("trace.export_s", sum_t(&|t| t.export_s));
    let traced_wall = traced.span().wall_s;
    set("obs.traced_wall_s", traced_wall);
    set("obs.trace_overhead", ratio(traced_wall, wall));

    // Algorithm 1 timing: on the traced engines, or, since the pair runner
    // does not hand back its engine, on a probe engine per suite benchmark.
    let mut timed: Vec<(f64, u64)> = traced.cells.iter().filter_map(|c| c.select).collect();
    if inputs.workload == Workload::MultiprogPairs {
        let seed = inputs.multiprog.common.seed;
        timed.extend(
            inputs
                .suite()
                .benchmarks()
                .iter()
                .filter_map(|b| probe_select(&inputs.cfg, b, seed, 20.0, MULTIPROG_CONSTRAINT_US)),
        );
    }
    let (secs, calls) = timed
        .iter()
        .fold((0.0, 0u64), |(s, n), &(ds, dn)| (s + ds, n + dn));
    set("select.ns_per_call", ratio(ns(secs), calls as f64));

    let mut preemptions = 0.0;
    let (mut offered, mut admitted, mut shed, mut completed, mut depth) =
        (0u64, 0u64, 0u64, 0u64, 0usize);
    let mut serve_wall = 0.0;
    for c in &plain.cells {
        match (&c.outcome, c.cell) {
            (Ok(Output::Pair(p)), _) => preemptions += p.preemptions as f64,
            (Ok(Output::Serve(r)), Cell::Serve { .. }) => {
                offered += r.offered;
                admitted += r.admitted;
                shed += r.shed_queue_full + r.shed_infeasible + r.shed_late;
                completed += r.completed;
                depth = depth.max(r.max_queue_depth);
                serve_wall += c.span.wall_s;
            }
            (Ok(Output::Cluster(r)), _) => set("cluster.imbalance", r.imbalance),
            _ => {}
        }
    }
    set("multiprog.preemptions", preemptions);
    set("serve.offered", offered as f64);
    set("serve.admitted", admitted as f64);
    set("serve.shed", shed as f64);
    set("serve.completed", completed as f64);
    set("serve.max_queue_depth", depth as f64);
    set(
        "serve.host_us_per_request",
        ratio(serve_wall * 1e6, offered as f64),
    );

    for (k, v) in plain.model(inputs) {
        set(k, v);
    }
    m
}

/// Median of each metric across several maps with the same keys.
pub fn median_by_key(maps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let Some(first) = maps.first() else {
        return BTreeMap::new();
    };
    first
        .keys()
        .map(|&k| (k, median(&maps.iter().map(|m| m[k]).collect::<Vec<_>>())))
        .collect()
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Non-finite values cannot be written as JSON numbers; they read 0 and
/// make the result incorrect.
pub fn json_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, unit, v)| {
            // `+ 0.0` turns an empty sum's `-0` into `0`.
            let v = if v.is_finite() {
                v + 0.0
            } else {
                correct = false;
                0.0
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
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
    fn json_line_has_the_four_keys_and_guards_non_finite() {
        let ok = json_line(true, 3, 0, &[("wall_s", "s", 1.25)]);
        assert_eq!(
            ok,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        let bad = json_line(true, 1, 0, &[("x", "s", f64::NAN)]);
        assert!(bad.starts_with("{\"correct\": false") && bad.contains("\"value\": 0,"));
    }

    #[test]
    fn median_by_key_takes_each_metrics_median() {
        let m = |v: f64| BTreeMap::from([("a", v), ("b", 2.0 * v)]);
        let med = median_by_key(&[m(1.0), m(5.0), m(3.0)]);
        assert_eq!(med["a"], 3.0);
        assert_eq!(med["b"], 6.0);
    }

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
        for w in Workload::ALL {
            assert!(compact.contains(&format!("{{\"name\":\"{}\",\"why\":", w.name())));
        }
    }
}
