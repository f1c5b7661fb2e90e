//! One round: every cell of a workload, run back to back, then checked.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use chimera::runner::solo::SoloResult;
use chimera::Policy;
use gpu_sim::Technique;

use crate::checks::{self, Verdict};
use crate::facts::{time_select, EngineFacts, TraceFacts};
use crate::host::Span;
use crate::workload::{Cell, Inputs, Output, MULTIPROG_HORIZON_US, PERIODIC_CONSTRAINT_US};
use crate::workload::{PERIODIC_HORIZON_US, SERVE_HORIZON_US, SERVE_LOADS};

/// One cell's run.
pub struct CellRun {
    /// The cell.
    pub cell: Cell,
    /// Host time of the runner call alone.
    pub span: Span,
    /// The runner's result, or the panic message.
    pub outcome: Result<Output, String>,
    /// Simulated cycles advanced (README: per-runner counting rule).
    pub sim_cycles: u64,
    /// Facts of the engine the runner handed back, if any.
    pub engine: Option<EngineFacts>,
    /// Event-log facts of a traced cell.
    pub trace: Option<TraceFacts>,
    /// Algorithm 1 timing on the cell's final engine: `(seconds, calls)`.
    pub select: Option<(f64, u64)>,
    /// Output-check verdicts.
    pub checks: Vec<Verdict>,
}

impl CellRun {
    /// A cell fails when its runner panicked or any of its checks failed.
    pub fn failed(&self) -> bool {
        self.outcome.is_err() || self.checks.iter().any(|c| !c.1)
    }

    /// Everything simulated about the cell, as text: identical across
    /// rounds, seeds held fixed, whatever the host does.
    pub fn fingerprint(&self) -> Option<String> {
        let out = self.outcome.as_ref().ok()?;
        let text = match out {
            Output::Periodic(r) => {
                // `technique_counts` is a HashMap; list it in a fixed order.
                let techniques: Vec<u64> = Technique::ALL
                    .iter()
                    .map(|t| r.technique_counts.get(t).copied().unwrap_or(0))
                    .collect();
                let mut r = r.clone();
                r.technique_counts.clear();
                format!("{r:?} {techniques:?}")
            }
            Output::Solo(r) => format!("{r:?}"),
            Output::Pair(r) => format!("{r:?}"),
            Output::Serve(r) => format!("{r:?}"),
            Output::Cluster(r) => format!("{r:?}"),
        };
        Some(format!("{text} cycles={}", self.sim_cycles))
    }
}

/// A round of cells.
pub struct Round {
    /// Every cell, in run order.
    pub cells: Vec<CellRun>,
}

impl Round {
    /// Run every cell of `inputs` once.
    pub fn run(inputs: &Inputs, traced: bool) -> Round {
        let mut cells: Vec<CellRun> = inputs
            .cells
            .iter()
            .map(|&cell| run_cell(inputs, cell, traced))
            .collect();
        check_round(inputs, &mut cells);
        Round { cells }
    }

    /// Host time of all runner calls.
    pub fn span(&self) -> Span {
        let mut s = Span::default();
        for c in &self.cells {
            s += c.span;
        }
        s
    }

    /// Simulated cycles advanced by all cells.
    pub fn sim_cycles(&self) -> u64 {
        self.cells.iter().map(|c| c.sim_cycles).sum()
    }

    /// Cells that failed.
    pub fn failed(&self) -> u64 {
        self.cells.iter().filter(|c| c.failed()).count() as u64
    }

    /// Per-cell fingerprints.
    pub fn fingerprints(&self) -> Vec<Option<String>> {
        self.cells.iter().map(CellRun::fingerprint).collect()
    }

    /// Simulated outcomes (`model.*`): identical under any change that
    /// claims only host speed.
    pub fn model(&self, inputs: &Inputs) -> BTreeMap<&'static str, f64> {
        let mut m = BTreeMap::new();
        let mut add = |k: &'static str, v: f64| *m.entry(k).or_insert(0.0) += v;
        for k in [
            "model.rt_requests",
            "model.rt_violations",
            "model.rt_useful_insts",
            "model.rt_wasted_flush_insts",
            "model.pair_stp",
            "model.pair_antt",
            "model.serve_goodput_per_s",
            "model.serve_deadline_met",
            "model.cluster_stp",
        ] {
            add(k, 0.0);
        }
        let solos = solos_of(&self.cells);
        let mut chimera_pairs = Vec::new();
        for c in &self.cells {
            match (&c.outcome, c.cell) {
                (Ok(Output::Periodic(r)), _) => {
                    add("model.rt_requests", r.requests as f64);
                    add("model.rt_violations", r.violations as f64);
                    add("model.rt_useful_insts", r.useful_insts as f64);
                    add("model.rt_wasted_flush_insts", r.wasted_flush_insts as f64);
                }
                (
                    Ok(Output::Pair(p)),
                    Cell::Pair {
                        other,
                        policy: Policy::Chimera { .. },
                    },
                ) => {
                    let lud = inputs.lud();
                    chimera_pairs.push(checks::antt_stp(p, [solos.get(&lud), solos.get(&other)]));
                }
                (Ok(Output::Serve(r)), Cell::Serve { load }) => {
                    if load == SERVE_LOADS[0] {
                        add("model.serve_goodput_per_s", r.goodput_per_s);
                    }
                    add("model.serve_deadline_met", r.deadline_met as f64);
                }
                (Ok(Output::Cluster(r)), _) => add("model.cluster_stp", r.stp),
                _ => {}
            }
        }
        let pairs: Vec<(f64, f64)> = chimera_pairs.into_iter().flatten().collect();
        if !pairs.is_empty() {
            let n = pairs.len() as f64;
            add(
                "model.pair_antt",
                pairs.iter().map(|p| p.0).sum::<f64>() / n,
            );
            add("model.pair_stp", pairs.iter().map(|p| p.1).sum::<f64>() / n);
        }
        m
    }
}

/// Whether every round simulated exactly what the first did: the same
/// outcomes, and the same engine counts wherever both rounds read an
/// engine (a traced serve cell does, an untraced one does not).
pub fn deterministic(rounds: &[Round]) -> bool {
    let Some((first, rest)) = rounds.split_first() else {
        return true;
    };
    let reference = first.fingerprints();
    rest.iter().all(|r| {
        r.fingerprints() == reference
            && first
                .cells
                .iter()
                .zip(&r.cells)
                .all(|(a, b)| match (&a.engine, &b.engine) {
                    (Some(ea), Some(eb)) => ea == eb,
                    _ => true,
                })
    })
}

/// Solo results by suite index.
fn solos_of(cells: &[CellRun]) -> BTreeMap<usize, SoloResult> {
    cells
        .iter()
        .filter_map(|c| match (&c.outcome, c.cell) {
            (Ok(Output::Solo(r)), Cell::Solo { bench }) => Some((bench, *r)),
            _ => None,
        })
        .collect()
}

fn run_cell(inputs: &Inputs, cell: Cell, traced: bool) -> CellRun {
    let (res, span) = Span::time(|| catch_unwind(AssertUnwindSafe(|| inputs.run(cell, traced))));
    let mut run = CellRun {
        cell,
        span,
        outcome: Err(String::new()),
        sim_cycles: 0,
        engine: None,
        trace: None,
        select: None,
        checks: Vec::new(),
    };
    match res {
        Ok((out, held)) => {
            run.sim_cycles = inputs.sim_cycles(&out, held.as_ref());
            if let Some(h) = &held {
                let verify_outputs = matches!(out, Output::Periodic(_));
                run.engine = Some(EngineFacts::read(h.engine(), verify_outputs));
                if traced {
                    run.trace = Some(TraceFacts::read(h.engine()));
                    run.select = time_select(h.engine(), PERIODIC_CONSTRAINT_US);
                }
            }
            run.outcome = Ok(out);
        }
        Err(panic) => {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            run.outcome = Err(msg);
        }
    }
    run
}

/// Attach every cell's output-check verdicts. Pair checks need the
/// round's solo results, so checking waits for the whole round.
fn check_round(inputs: &Inputs, cells: &mut [CellRun]) {
    let solos = solos_of(cells);
    let cfg = &inputs.cfg;
    for c in cells.iter_mut() {
        let Ok(out) = &c.outcome else { continue };
        let mut v = match (out, c.cell) {
            (Output::Periodic(r), _) => {
                let releases =
                    checks::releases_in_horizon(cfg, &inputs.periodic.task, PERIODIC_HORIZON_US);
                match &c.engine {
                    Some(e) => checks::periodic(r, e, releases),
                    None => vec![("periodic.engine_returned", false)],
                }
            }
            (Output::Solo(r), _) => checks::solo(r, inputs.solo_horizon_cycles()),
            (Output::Pair(p), Cell::Pair { other, .. }) => {
                let lud = inputs.lud();
                let cutoff = cfg.us_to_cycles(MULTIPROG_HORIZON_US);
                checks::pair(p, [solos.get(&lud), solos.get(&other)], cutoff)
            }
            (Output::Serve(r), Cell::Serve { load }) => {
                checks::serve(r, inputs.serve_at(load).1, SERVE_HORIZON_US)
            }
            (Output::Cluster(r), Cell::Cluster { load }) => {
                checks::cluster(r, inputs.serve_at(load).1, SERVE_HORIZON_US)
            }
            _ => vec![("cell.output_matches_runner", false)],
        };
        if let (Output::Periodic(_), Some(t)) = (out, &c.trace) {
            v.extend(checks::sanitizer(t.sanitizer_clean));
        }
        c.checks = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Span;

    fn solo_round(cycles: u64) -> Round {
        Round {
            cells: vec![CellRun {
                cell: Cell::Solo { bench: 0 },
                span: Span::default(),
                outcome: Ok(Output::Solo(SoloResult { cycles, insts: 7 })),
                sim_cycles: cycles,
                engine: None,
                trace: None,
                select: None,
                checks: Vec::new(),
            }],
        }
    }

    #[test]
    fn determinism_check_catches_a_differing_round() {
        assert!(deterministic(&[
            solo_round(100),
            solo_round(100),
            solo_round(100)
        ]));
        assert!(!deterministic(&[
            solo_round(100),
            solo_round(100),
            solo_round(101)
        ]));
        let mut panicked = solo_round(100);
        panicked.cells[0].outcome = Err("boom".into());
        assert!(!deterministic(&[solo_round(100), panicked]));
    }
}
