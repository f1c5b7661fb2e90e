//! The three workloads: the inputs each builds from the seed, and the cells
//! (one runner call each) that make up one round.

use chimera::runner::cluster::{
    run_serve_cluster, ClusterServeConfig, ClusterServeResult, Placement,
};
use chimera::runner::multiprog::{run_pair, MultiprogConfig, PairOutcome};
use chimera::runner::periodic::{run_periodic_traced, PeriodicConfig, PeriodicResult};
use chimera::runner::solo::{run_solo, SoloResult};
use chimera::{run_serve, run_serve_on, run_serve_traced, ArrivalProcess, GpuScheduler, Policy};
use chimera::{ServeConfig, ServeResult};
use gpu_sim::{Engine, ExecMode, GpuConfig};
use workloads::{ServeWorkload, Suite, SuiteOptions};

use crate::host::Span;

/// Simulated horizon of a `periodic_rt` cell, µs: releases at 1 and 2 ms.
pub const PERIODIC_HORIZON_US: f64 = 3_000.0;
/// Chimera's latency constraint on `periodic_rt`, µs (§4.1).
pub const PERIODIC_CONSTRAINT_US: f64 = 15.0;
/// Measurement budget per job on `multiprog_pairs`, useful warp instructions.
pub const MULTIPROG_BUDGET: u64 = 2_000_000;
/// Failsafe horizon of a pair cell, µs (a cutoff, not a window).
pub const MULTIPROG_HORIZON_US: f64 = 2_000_000.0;
/// Latency constraint on `multiprog_pairs`, µs (§4.4).
pub const MULTIPROG_CONSTRAINT_US: f64 = 30.0;
/// Failsafe horizon of a solo cell, µs.
pub const SOLO_HORIZON_US: f64 = 200_000.0;
/// Grid scale of the `multiprog_pairs` suite.
pub const MULTIPROG_GRID_SCALE: f64 = 0.5;
/// LUD outer iterations in the `multiprog_pairs` suite.
pub const MULTIPROG_LUD_ITERATIONS: u32 = 12;
/// Simulated horizon of a serve or cluster cell, µs.
pub const SERVE_HORIZON_US: f64 = 10_000.0;
/// Offered loads of the single-device serve cells, × analytic saturation.
pub const SERVE_LOADS: [f64; 2] = [0.9, 2.0];
/// Offered load of the cluster cell, × one device's saturation: 2× per
/// device, so both devices run saturated like the 2× single-device cell.
pub const CLUSTER_LOAD: f64 = 4.0;
/// Devices in the cluster cell.
pub const CLUSTER_DEVICES: usize = 2;
/// Event-log ring capacity of a traced cell: large enough that no event
/// is dropped (the traced run checks `dropped == 0`).
pub const EVENT_CAPACITY: usize = 1 << 24;

/// A workload: one batch of cells run back to back from one thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §4.1: every Table 2 benchmark under Chimera with the periodic task.
    PeriodicRt,
    /// §4.4: LUD paired with every other benchmark, plus solo baselines.
    MultiprogPairs,
    /// Open-loop serving at two loads plus a 2-device cluster.
    ServeOpenLoop,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PeriodicRt,
        Workload::MultiprogPairs,
        Workload::ServeOpenLoop,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PeriodicRt => "periodic_rt",
            Workload::MultiprogPairs => "multiprog_pairs",
            Workload::ServeOpenLoop => "serve_open_loop",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The engine the cells run on. Measured workloads use [`Engine::Event`];
/// the others exist for the reference figures in the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// The default serial event-calendar engine (`par_shards = 0`).
    Event,
    /// The parallel engine with this many SM shards.
    Parallel(usize),
    /// The legacy scan engine; only the serve runners can select it.
    Scan,
}

impl EngineChoice {
    /// Parse `event`, `scan` or `par<N>`.
    pub fn parse(s: &str) -> Option<EngineChoice> {
        match s {
            "event" => Some(EngineChoice::Event),
            "scan" => Some(EngineChoice::Scan),
            _ => s
                .strip_prefix("par")?
                .parse()
                .ok()
                .filter(|&n: &usize| n > 0)
                .map(EngineChoice::Parallel),
        }
    }

    fn par_shards(self) -> usize {
        match self {
            EngineChoice::Parallel(n) => n,
            EngineChoice::Event | EngineChoice::Scan => 0,
        }
    }
}

/// One call into a runner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// `run_periodic` on suite benchmark `bench`.
    Periodic { bench: usize },
    /// `run_solo` on suite benchmark `bench`.
    Solo { bench: usize },
    /// `run_pair` of LUD with suite benchmark `other` under `policy`.
    Pair { other: usize, policy: Policy },
    /// `run_serve` at `load` × saturation.
    Serve { load: f64 },
    /// `run_serve_cluster` at `load` × one device's saturation.
    Cluster { load: f64 },
}

/// The runner a cell calls, for per-runner spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Runner {
    /// `run_periodic`.
    Periodic,
    /// `run_pair`.
    Multiprog,
    /// `run_solo`.
    Solo,
    /// `run_serve`.
    Serve,
    /// `run_serve_cluster`.
    Cluster,
}

impl Cell {
    /// The runner this cell calls.
    pub fn runner(&self) -> Runner {
        match self {
            Cell::Periodic { .. } => Runner::Periodic,
            Cell::Solo { .. } => Runner::Solo,
            Cell::Pair { .. } => Runner::Multiprog,
            Cell::Serve { .. } => Runner::Serve,
            Cell::Cluster { .. } => Runner::Cluster,
        }
    }
}

/// A runner's result.
#[derive(Debug, Clone)]
pub enum Output {
    /// From `run_periodic`.
    Periodic(PeriodicResult),
    /// From `run_solo`.
    Solo(SoloResult),
    /// From `run_pair`.
    Pair(PairOutcome),
    /// From `run_serve`.
    Serve(ServeResult),
    /// From `run_serve_cluster`.
    Cluster(ClusterServeResult),
}

/// A finished engine handed back by a runner (directly, or inside the
/// serve runner's scheduler).
pub enum Held {
    /// An engine returned by `run_periodic_traced`.
    Engine(Box<Engine>),
    /// The scheduler returned by `run_serve_traced` / given to `run_serve_on`.
    Sched(Box<GpuScheduler>),
}

impl Held {
    /// The engine.
    pub fn engine(&self) -> &Engine {
        match self {
            Held::Engine(e) => e,
            Held::Sched(s) => s.engine(),
        }
    }
}

/// Host time spent building a workload's inputs, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSplit {
    /// `Suite` construction (kernel solving, occupancy, instrumentation).
    pub suite_s: f64,
    /// `ServeWorkload` construction plus `ArrivalProcess::generate`.
    pub serve_inputs_s: f64,
}

/// Everything a workload's cells need, built from the seed alone.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// The GPU configuration (Table 1).
    pub cfg: GpuConfig,
    /// Engine the cells run on.
    pub engine: EngineChoice,
    /// The benchmark suite (periodic and multiprog workloads).
    pub suite: Option<Suite>,
    /// Periodic runner config.
    pub periodic: PeriodicConfig,
    /// Pair runner config.
    pub multiprog: MultiprogConfig,
    /// Serve workload (serve workload only).
    pub serve_wl: Option<ServeWorkload>,
    /// Per-load serve configs with the arrivals each draws:
    /// `(load, config, arrival count)`.
    pub serve: Vec<(f64, ServeConfig, u64)>,
    /// The cells of one round, in run order.
    pub cells: Vec<Cell>,
}

impl Inputs {
    /// Build the workload's inputs from `seed`, timing the layers.
    pub fn build(workload: Workload, seed: u64, engine: EngineChoice) -> (Inputs, SetupSplit) {
        let cfg = GpuConfig::fermi();
        let mut split = SetupSplit::default();
        let suite = match workload {
            Workload::PeriodicRt => {
                let (s, span) = Span::time(Suite::standard);
                split.suite_s = span.wall_s;
                Some(s)
            }
            Workload::MultiprogPairs => {
                let opts = SuiteOptions {
                    instrumented: true,
                    grid_scale: MULTIPROG_GRID_SCALE,
                    lud_iterations: MULTIPROG_LUD_ITERATIONS,
                };
                let (s, span) = Span::time(|| Suite::with_options(cfg.clone(), opts));
                split.suite_s = span.wall_s;
                Some(s)
            }
            Workload::ServeOpenLoop => None,
        };
        let (serve_parts, span) = Span::time(|| {
            (workload == Workload::ServeOpenLoop).then(|| {
                let wl = ServeWorkload::standard(&cfg);
                let sat = wl.saturation_per_ms();
                let serve = SERVE_LOADS
                    .into_iter()
                    .chain([CLUSTER_LOAD])
                    .map(|load| {
                        let base = ServeConfig::paper_default();
                        let common = base
                            .common
                            .horizon_us(SERVE_HORIZON_US)
                            .seed(seed)
                            .par_shards(engine.par_shards());
                        let scfg = base
                            .common(common)
                            .arrivals(ArrivalProcess::poisson(sat * load));
                        let drawn = scfg.arrivals.generate(seed, SERVE_HORIZON_US).len() as u64;
                        (load, scfg, drawn)
                    })
                    .collect::<Vec<_>>();
                (wl, serve)
            })
        });
        let (serve_wl, serve) = match serve_parts {
            Some((wl, serve)) => {
                split.serve_inputs_s = span.wall_s;
                (Some(wl), serve)
            }
            None => (None, Vec::new()),
        };
        let par_shards = engine.par_shards();
        let periodic = PeriodicConfig::paper_default(&cfg);
        let periodic = periodic.clone().common(
            periodic
                .common
                .horizon_us(PERIODIC_HORIZON_US)
                .constraint_us(PERIODIC_CONSTRAINT_US)
                .seed(seed)
                .par_shards(par_shards),
        );
        let multiprog = MultiprogConfig::paper_default();
        let multiprog = multiprog
            .clone()
            .common(
                multiprog
                    .common
                    .horizon_us(MULTIPROG_HORIZON_US)
                    .constraint_us(MULTIPROG_CONSTRAINT_US)
                    .seed(seed)
                    .par_shards(par_shards),
            )
            .budget_insts(MULTIPROG_BUDGET);
        let mut inputs = Inputs {
            workload,
            cfg,
            engine,
            suite,
            periodic,
            multiprog,
            serve_wl,
            serve,
            cells: Vec::new(),
        };
        inputs.cells = inputs.make_cells();
        (inputs, split)
    }

    fn make_cells(&self) -> Vec<Cell> {
        match self.workload {
            Workload::PeriodicRt => (0..self.suite().benchmarks().len())
                .map(|bench| Cell::Periodic { bench })
                .collect(),
            Workload::MultiprogPairs => {
                let lud = self.lud();
                let partners: Vec<usize> = (0..self.suite().benchmarks().len())
                    .filter(|&i| i != lud)
                    .collect();
                let mut cells = vec![Cell::Solo { bench: lud }];
                cells.extend(partners.iter().map(|&bench| Cell::Solo { bench }));
                for &other in &partners {
                    for policy in Policy::paper_lineup(MULTIPROG_CONSTRAINT_US) {
                        cells.push(Cell::Pair { other, policy });
                    }
                }
                cells
            }
            Workload::ServeOpenLoop => SERVE_LOADS
                .iter()
                .map(|&load| Cell::Serve { load })
                .chain(std::iter::once(Cell::Cluster { load: CLUSTER_LOAD }))
                .collect(),
        }
    }

    /// The suite; panics for the serve workload, which builds none.
    pub fn suite(&self) -> &Suite {
        self.suite.as_ref().expect("this workload builds a suite")
    }

    /// Suite index of LUD.
    pub fn lud(&self) -> usize {
        self.suite()
            .benchmarks()
            .iter()
            .position(|b| b.name() == "LUD")
            .expect("suite contains LUD")
    }

    /// Kernel descriptors the set-up built: every launch of every suite
    /// benchmark, or the serve workload's request-class templates.
    pub fn kernels_built(&self) -> u64 {
        match (&self.suite, &self.serve_wl) {
            (Some(s), _) => s
                .benchmarks()
                .iter()
                .map(|b| b.launches().len() as u64)
                .sum(),
            (None, Some(wl)) => wl.classes.len() as u64,
            (None, None) => 0,
        }
    }

    /// The serve config and drawn arrival count for `load`.
    pub fn serve_at(&self, load: f64) -> (&ServeConfig, u64) {
        let (_, scfg, n) = self
            .serve
            .iter()
            .find(|(l, _, _)| *l == load)
            .expect("serve config built for every load");
        (scfg, *n)
    }

    /// Horizon of a solo cell, cycles.
    pub fn solo_horizon_cycles(&self) -> u64 {
        self.cfg.us_to_cycles(SOLO_HORIZON_US)
    }

    /// The cluster config for the cluster cell.
    pub fn cluster_config(&self, load: f64) -> ClusterServeConfig {
        let mut ccfg = ClusterServeConfig::new(self.serve_at(load).0.clone(), CLUSTER_DEVICES)
            .placement(Placement::LeastLoaded);
        if self.engine == EngineChoice::Scan {
            ccfg.exec_mode = Some(ExecMode::Scan);
        }
        ccfg
    }

    /// Run one cell. `traced` turns on the event log (and, for periodic
    /// cells, the flush sanitizer) where the runner offers it, and returns
    /// the finished engine where the runner hands one back.
    pub fn run(&self, cell: Cell, traced: bool) -> (Output, Option<Held>) {
        let cfg = &self.cfg;
        match cell {
            Cell::Periodic { bench } => {
                let b = &self.suite().benchmarks()[bench];
                let policy = Policy::chimera_us(PERIODIC_CONSTRAINT_US);
                let (pcfg, cap) = if traced {
                    (self.periodic.clone().sanitize(true), EVENT_CAPACITY)
                } else {
                    (self.periodic.clone(), 0)
                };
                let (r, engine) = run_periodic_traced(cfg, b, policy, &pcfg, cap);
                (Output::Periodic(r), Some(Held::Engine(Box::new(engine))))
            }
            Cell::Solo { bench } => {
                let b = &self.suite().benchmarks()[bench];
                let seed = self.multiprog.common.seed;
                let r = run_solo(
                    cfg,
                    b,
                    Some(MULTIPROG_BUDGET),
                    self.solo_horizon_cycles(),
                    seed,
                );
                (Output::Solo(r), None)
            }
            Cell::Pair { other, policy } => {
                let benches = self.suite().benchmarks();
                let r = run_pair(
                    cfg,
                    &benches[self.lud()],
                    &benches[other],
                    policy,
                    &self.multiprog,
                );
                (Output::Pair(r), None)
            }
            Cell::Serve { load } => {
                let wl = self.serve_wl.as_ref().expect("serve workload built");
                let scfg = self.serve_at(load).0;
                if traced {
                    let (r, gpu) = run_serve_traced(cfg, wl, scfg, EVENT_CAPACITY);
                    (Output::Serve(r), Some(Held::Sched(Box::new(gpu))))
                } else if self.engine == EngineChoice::Scan {
                    let mut gpu = GpuScheduler::builder(cfg.clone())
                        .policy(scfg.effective_policy())
                        .partition(scfg.partition.clone())
                        .estimator(scfg.common.estimator)
                        .seed(scfg.common.seed)
                        .scan_scheduler(true)
                        .build();
                    (Output::Serve(run_serve_on(&mut gpu, wl, scfg)), None)
                } else {
                    (Output::Serve(run_serve(cfg, wl, scfg)), None)
                }
            }
            Cell::Cluster { load } => {
                let wl = self.serve_wl.as_ref().expect("serve workload built");
                let r = run_serve_cluster(cfg, wl, &self.cluster_config(load));
                (Output::Cluster(r), None)
            }
        }
    }

    /// Simulated cycles a cell advanced, by the per-runner rule in the
    /// README: the engine's final cycle where the runner returns its engine,
    /// else the cycle the outcome reports (solo: the measurement point;
    /// pair: the later job's measurement point), and the horizon for each
    /// device of a serve or cluster cell.
    pub fn sim_cycles(&self, out: &Output, held: Option<&Held>) -> u64 {
        let serve_horizon = self.cfg.us_to_cycles(SERVE_HORIZON_US);
        match out {
            Output::Periodic(_) => held.map_or(0, |h| h.engine().cycle()),
            Output::Solo(r) => r.cycles,
            Output::Pair(p) => {
                let cutoff = self.cfg.us_to_cycles(MULTIPROG_HORIZON_US);
                p.jobs
                    .iter()
                    .map(|j| j.t_multi.unwrap_or(cutoff))
                    .max()
                    .unwrap_or(0)
            }
            Output::Serve(_) => serve_horizon,
            Output::Cluster(r) => serve_horizon * r.devices.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn engine_choices_parse() {
        assert_eq!(EngineChoice::parse("event"), Some(EngineChoice::Event));
        assert_eq!(EngineChoice::parse("scan"), Some(EngineChoice::Scan));
        assert_eq!(EngineChoice::parse("par2"), Some(EngineChoice::Parallel(2)));
        assert_eq!(EngineChoice::parse("par0"), None);
        assert_eq!(EngineChoice::parse("parx"), None);
    }

    #[test]
    fn cell_lists_match_the_workload_make_up() {
        let (p, _) = Inputs::build(Workload::PeriodicRt, 1, EngineChoice::Event);
        assert_eq!(p.cells.len(), 14);
        let (m, _) = Inputs::build(Workload::MultiprogPairs, 1, EngineChoice::Event);
        // 14 solos (LUD + 13 partners) and 13 partners × 4 policies.
        assert_eq!(m.cells.len(), 14 + 13 * 4);
        let (s, _) = Inputs::build(Workload::ServeOpenLoop, 1, EngineChoice::Event);
        assert_eq!(s.cells.len(), 3);
        assert!(s.serve.iter().all(|&(_, _, n)| n > 0));
    }
}
