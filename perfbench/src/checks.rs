//! Output checks. Each compares a runner's result with a value the
//! benchmark computes itself, or with a property the method must have —
//! never with a stored copy of an earlier output.

use chimera::runner::cluster::ClusterServeResult;
use chimera::runner::multiprog::PairOutcome;
use chimera::runner::periodic::PeriodicResult;
use chimera::runner::solo::SoloResult;
use chimera::{antt, stp, ServeResult};
use gpu_sim::GpuConfig;
use workloads::RtTask;

use crate::facts::EngineFacts;

/// A named verdict.
pub type Verdict = (&'static str, bool);

/// Task releases strictly inside the horizon: the first at one period,
/// then one every period (`RtTask::paper_default`: one per simulated ms).
pub fn releases_in_horizon(cfg: &GpuConfig, task: &RtTask, horizon_us: f64) -> u64 {
    let period = task.period_cycles(cfg).max(1);
    cfg.us_to_cycles(horizon_us).saturating_sub(1) / period
}

/// Checks on one `run_periodic` cell and its engine.
pub fn periodic(r: &PeriodicResult, e: &EngineFacts, releases: u64) -> Vec<Verdict> {
    let dram_cap =
        e.cycle as f64 * e.peak_bytes_per_cycle + (e.inflight * e.max_request_bytes) as f64;
    vec![
        ("periodic.requests_match_releases", r.requests == releases),
        (
            "periodic.violations_le_requests",
            r.violations <= r.requests,
        ),
        ("periodic.useful_le_issued", r.useful_insts <= e.issued),
        ("periodic.dram_within_peak", e.dram_bytes as f64 <= dram_cap),
        (
            "periodic.issue_within_pipeline",
            e.issued <= e.cycle * e.num_sms / e.issue_interval.max(1),
        ),
        (
            "periodic.partition_bytes_sum",
            e.partition_bytes == e.dram_bytes,
        ),
        (
            "periodic.outputs_match_reference",
            e.mismatched_kernels == 0,
        ),
    ]
}

/// The flush sanitizer's verdict on a traced periodic cell.
pub fn sanitizer(clean: Option<bool>) -> Vec<Verdict> {
    vec![("periodic.flush_sanitizer_clean", clean == Some(true))]
}

/// Checks on one `run_solo` cell.
pub fn solo(r: &SoloResult, horizon_cycles: u64) -> Vec<Verdict> {
    vec![(
        "multiprog.solo_measured_before_horizon",
        r.cycles > 0 && r.cycles < horizon_cycles && r.insts > 0,
    )]
}

/// `(T_multi, T_single)` per job of a pair, when both solos are known.
fn turnarounds(out: &PairOutcome, solos: [Option<&SoloResult>; 2]) -> Option<[(f64, f64); 2]> {
    let pair = |i: usize| Some((out.jobs[i].t_multi? as f64, solos[i]?.cycles as f64));
    Some([pair(0)?, pair(1)?])
}

/// ANTT and STP of a pair against its solo baselines.
pub fn antt_stp(out: &PairOutcome, solos: [Option<&SoloResult>; 2]) -> Option<(f64, f64)> {
    let t = turnarounds(out, solos)?;
    (t.iter().all(|&(m, s)| m > 0.0 && s > 0.0)).then(|| (antt(&t), stp(&t)))
}

/// Checks on one `run_pair` cell, given the solo runs of its two jobs.
pub fn pair(
    out: &PairOutcome,
    solos: [Option<&SoloResult>; 2],
    horizon_cycles: u64,
) -> Vec<Verdict> {
    let measured = out
        .jobs
        .iter()
        .all(|j| j.t_multi.is_some_and(|t| t < horizon_cycles));
    let bounds = antt_stp(out, solos).is_some_and(|(a, s)| a >= 1.0 && s > 0.0 && s <= 2.0);
    vec![
        ("multiprog.jobs_measured_before_horizon", measured),
        ("multiprog.antt_stp_bounds", bounds),
    ]
}

fn goodput_matches(met: u64, horizon_us: f64, reported: f64) -> bool {
    let expect = met as f64 / (horizon_us / 1e6);
    (expect - reported).abs() <= 1e-9 * expect.abs().max(1.0)
}

/// Checks on one `run_serve` cell; `drawn` is the number of arrivals the
/// benchmark drew from the same arrival process and seed.
pub fn serve(r: &ServeResult, drawn: u64, horizon_us: f64) -> Vec<Verdict> {
    vec![
        ("serve.offered_matches_arrivals", r.offered == drawn),
        (
            "serve.offered_identity",
            r.offered == r.admitted + r.shed_queue_full + r.shed_infeasible,
        ),
        (
            "serve.admitted_identity",
            r.admitted == r.completed + r.shed_late + r.unfinished,
        ),
        (
            "serve.completed_identity",
            r.completed == r.deadline_met + r.violations,
        ),
        (
            "serve.goodput_recomputes",
            goodput_matches(r.deadline_met, horizon_us, r.goodput_per_s),
        ),
    ]
}

/// Checks on one `run_serve_cluster` cell. A device's `shed` counts late
/// sheds, which were admitted first, so each arrival ends exactly one way:
/// completed, unfinished or shed.
pub fn cluster(r: &ClusterServeResult, drawn: u64, horizon_us: f64) -> Vec<Verdict> {
    let sum = |f: fn(&chimera::runner::cluster::DeviceOutcome) -> u64| -> u64 {
        r.devices.iter().map(f).sum()
    };
    let totals = sum(|d| d.offered) == r.offered
        && sum(|d| d.admitted) == r.admitted
        && sum(|d| d.shed) == r.shed
        && sum(|d| d.completed) == r.completed
        && sum(|d| d.violations) == r.violations;
    vec![
        ("cluster.offered_matches_arrivals", r.offered == drawn),
        (
            "cluster.offered_identity",
            r.devices
                .iter()
                .all(|d| d.offered == d.completed + d.unfinished + d.shed),
        ),
        ("cluster.device_totals_sum", totals),
        (
            "cluster.goodput_recomputes",
            r.completed >= r.violations
                && goodput_matches(r.completed - r.violations, horizon_us, r.goodput_per_s),
        ),
    ]
}

#[cfg(test)]
mod tests {
    //! Every check passes on a real result and fails once that result is
    //! corrupted.

    use super::*;
    use crate::workload::{EngineChoice, Held, Inputs, Output, Workload};
    use chimera::runner::periodic::{run_periodic_traced, PeriodicConfig};
    use chimera::runner::solo::run_solo;
    use chimera::Policy;
    use workloads::Suite;

    fn only_failure(verdicts: &[Verdict]) -> Vec<&'static str> {
        verdicts.iter().filter(|v| !v.1).map(|v| v.0).collect()
    }

    /// A check's name and an edit that must make it fail.
    type Corruption<'a, T> = (&'static str, &'a dyn Fn(&mut T));

    /// Assert `base` passes, then that each corruption fails the named
    /// check.
    fn assert_catches<T: Clone>(
        base: &T,
        run: impl Fn(&T) -> Vec<Verdict>,
        corruptions: &[Corruption<T>],
    ) {
        assert_eq!(
            only_failure(&run(base)),
            Vec::<&str>::new(),
            "baseline must pass"
        );
        for (name, corrupt) in corruptions {
            let mut bad = base.clone();
            corrupt(&mut bad);
            assert!(
                only_failure(&run(&bad)).contains(name),
                "corrupted result not caught by {name}"
            );
        }
    }

    fn periodic_cell() -> (PeriodicResult, EngineFacts, u64) {
        let suite = Suite::standard();
        let cfg = suite.config();
        let pcfg = PeriodicConfig::paper_default(cfg).horizon_us(2_500.0);
        let (r, engine) =
            run_periodic_traced(cfg, suite.require("BS"), Policy::chimera_us(15.0), &pcfg, 0);
        let releases = releases_in_horizon(cfg, &pcfg.task, 2_500.0);
        (r, EngineFacts::read(&engine, true), releases)
    }

    #[test]
    fn release_count_is_strictly_inside_the_horizon() {
        let cfg = GpuConfig::fermi();
        let task = RtTask::paper_default(&cfg);
        assert_eq!(releases_in_horizon(&cfg, &task, 3_000.0), 2);
        assert_eq!(releases_in_horizon(&cfg, &task, 3_000.5), 3);
        assert_eq!(releases_in_horizon(&cfg, &task, 999.0), 0);
    }

    #[test]
    fn periodic_checks_catch_corruption() {
        let (r, e, releases) = periodic_cell();
        let base = (r, e);
        let run = |(r, e): &(PeriodicResult, EngineFacts)| periodic(r, e, releases);
        assert_catches(
            &base,
            run,
            &[
                ("periodic.requests_match_releases", &|(r, _)| {
                    r.requests += 1
                }),
                ("periodic.violations_le_requests", &|(r, _)| {
                    r.violations = r.requests + 1
                }),
                ("periodic.useful_le_issued", &|(r, e)| {
                    r.useful_insts = e.issued + 1
                }),
                ("periodic.dram_within_peak", &|(_, e)| {
                    e.dram_bytes = e.cycle * 1_000;
                    e.partition_bytes = e.dram_bytes;
                }),
                ("periodic.issue_within_pipeline", &|(_, e)| {
                    e.issued = e.cycle * e.num_sms
                }),
                ("periodic.partition_bytes_sum", &|(_, e)| {
                    e.partition_bytes += 128
                }),
                ("periodic.outputs_match_reference", &|(_, e)| {
                    e.mismatched_kernels = 1
                }),
            ],
        );
        assert!(
            !sanitizer(Some(false))[0].1 && !sanitizer(None)[0].1 && sanitizer(Some(true))[0].1
        );
    }

    #[test]
    fn multiprog_checks_catch_corruption() {
        let (inputs, _) = Inputs::build(Workload::MultiprogPairs, 3, EngineChoice::Event);
        let suite = inputs.suite();
        let cfg = &inputs.cfg;
        let budget = 300_000;
        let solo_of = |name: &str| {
            run_solo(
                cfg,
                suite.require(name),
                Some(budget),
                inputs.solo_horizon_cycles(),
                3,
            )
        };
        let solos = [solo_of("LUD"), solo_of("HS")];
        let mcfg = inputs.multiprog.clone().budget_insts(budget);
        let out = chimera::runner::multiprog::run_pair(
            cfg,
            suite.require("LUD"),
            suite.require("HS"),
            Policy::chimera_us(30.0),
            &mcfg,
        );
        let cutoff = cfg.us_to_cycles(crate::workload::MULTIPROG_HORIZON_US);
        let base = (out, solos);
        let run = |(o, s): &(PairOutcome, [SoloResult; 2])| {
            let mut v = pair(o, [Some(&s[0]), Some(&s[1])], cutoff);
            v.extend(solo(&s[0], inputs.solo_horizon_cycles()));
            v
        };
        assert_catches(
            &base,
            run,
            &[
                ("multiprog.jobs_measured_before_horizon", &|(o, _)| {
                    o.jobs[1].t_multi = None
                }),
                ("multiprog.jobs_measured_before_horizon", &|(o, _)| {
                    o.jobs[0].t_multi = Some(cutoff)
                }),
                ("multiprog.antt_stp_bounds", &|(o, s)| {
                    o.jobs[0].t_multi = Some(s[0].cycles / 2);
                    o.jobs[1].t_multi = Some(s[1].cycles / 2);
                }),
                ("multiprog.antt_stp_bounds", &|(o, s)| {
                    o.jobs[1].t_multi = Some(s[1].cycles / 3)
                }),
                ("multiprog.solo_measured_before_horizon", &|(_, s)| {
                    s[0].cycles = u64::MAX
                }),
            ],
        );
        assert!(
            !pair(&base.0, [None, Some(&base.1[1])], cutoff)[1].1,
            "a missing solo fails"
        );
    }

    #[test]
    fn serve_and_cluster_checks_catch_corruption() {
        let (inputs, _) = Inputs::build(Workload::ServeOpenLoop, 5, EngineChoice::Event);
        let horizon = crate::workload::SERVE_HORIZON_US;
        let (Output::Serve(r), _) = inputs.run(crate::workload::Cell::Serve { load: 2.0 }, false)
        else {
            unreachable!()
        };
        let drawn = inputs.serve_at(2.0).1;
        assert_catches(
            &r,
            |r| serve(r, drawn, horizon),
            &[
                ("serve.offered_matches_arrivals", &|r| r.offered += 1),
                ("serve.offered_identity", &|r| r.shed_infeasible += 1),
                ("serve.admitted_identity", &|r| r.unfinished += 1),
                ("serve.completed_identity", &|r| r.violations += 1),
                ("serve.goodput_recomputes", &|r| r.goodput_per_s *= 1.01),
            ],
        );
        let load = crate::workload::CLUSTER_LOAD;
        let (Output::Cluster(c), _) = inputs.run(crate::workload::Cell::Cluster { load }, false)
        else {
            unreachable!()
        };
        assert_catches(
            &c,
            |c| cluster(c, inputs.serve_at(load).1, horizon),
            &[
                ("cluster.offered_matches_arrivals", &|c| c.offered += 1),
                ("cluster.offered_identity", &|c| {
                    c.devices[0].unfinished += 1
                }),
                ("cluster.device_totals_sum", &|c| {
                    c.devices[1].completed += 1
                }),
                ("cluster.goodput_recomputes", &|c| c.goodput_per_s += 100.0),
            ],
        );
    }

    #[test]
    fn traced_periodic_engine_passes_the_sanitizer() {
        let (inputs, _) = Inputs::build(Workload::PeriodicRt, 9, EngineChoice::Event);
        let (_, held) = inputs.run(crate::workload::Cell::Periodic { bench: 0 }, true);
        let engine = held
            .as_ref()
            .map(Held::engine)
            .expect("periodic returns its engine");
        let f = crate::facts::TraceFacts::read(engine);
        assert_eq!(
            sanitizer(f.sanitizer_clean),
            vec![("periodic.flush_sanitizer_clean", true)]
        );
        assert!(f.events > 0 && f.dropped == 0);
    }
}
