//! Plain-number facts read from a finished engine, so the output checks
//! and the per-layer metrics are pure functions over values (and the
//! checks' own tests can corrupt them).

use std::collections::BTreeSet;
use std::hint::black_box;

use chimera::{select_preemptions, EstimatorConfig, KernelObs, SelectionRequest};
use gpu_sim::{BlockExit, Engine, KernelId, ObsEvent, Technique};

use crate::host::Span;

/// Largest DRAM request one warp issue can make: one 128-byte access per
/// warp instruction, at most `issue_chunk` instructions per issue.
pub fn max_request_bytes(cfg: &gpu_sim::GpuConfig) -> u64 {
    u64::from(gpu_sim::warp::BYTES_PER_MEM_INST) * u64::from(cfg.issue_chunk.max(1))
}

/// Simulated counts of one finished engine.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineFacts {
    /// Final cycle.
    pub cycle: u64,
    /// SMs in the configuration.
    pub num_sms: u64,
    /// Cycles per issued warp instruction per SM.
    pub issue_interval: u64,
    /// Table 1 peak DRAM bandwidth, bytes per cycle.
    pub peak_bytes_per_cycle: f64,
    /// Largest single DRAM request, bytes.
    pub max_request_bytes: u64,
    /// Warp instructions issued across all kernels.
    pub issued: u64,
    /// DRAM bytes served (`GpuStats::mem_bytes_served`).
    pub dram_bytes: u64,
    /// Sum of the per-partition `bytes_served`.
    pub partition_bytes: u64,
    /// Memory requests retired by the partition components.
    pub requests_retired: u64,
    /// Memory requests still in flight at the end.
    pub inflight: u64,
    /// SM preemptions requested.
    pub preempt_requests: u64,
    /// Blocks preempted by switch, drain and flush.
    pub technique_blocks: [u64; 3],
    /// Latency of every completed SM preemption, cycles.
    pub preempt_latencies: Vec<u64>,
    /// Kernels that finished (periodic engines only; 0 otherwise).
    pub finished_kernels: u64,
    /// Finished kernels whose functional memory differs from the
    /// preemption-free reference (periodic engines only).
    pub mismatched_kernels: u64,
}

impl EngineFacts {
    /// Read the facts of `engine`. With `verify_outputs`, every finished
    /// kernel's memory image is compared with its preemption-free reference.
    pub fn read(engine: &Engine, verify_outputs: bool) -> EngineFacts {
        let cfg = engine.config();
        let stats = engine.gpu_stats();
        let parts = engine.mem_partition_stats();
        let mut technique_blocks = [0u64; 3];
        for rec in engine.preempt_records() {
            for &t in &rec.techniques {
                let ix = Technique::ALL
                    .iter()
                    .position(|&x| x == t)
                    .expect("known technique");
                technique_blocks[ix] += 1;
            }
        }
        let (mut finished_kernels, mut mismatched_kernels) = (0, 0);
        if verify_outputs {
            for k in known_kernels(engine) {
                if engine.kernel_stats(k).finished {
                    finished_kernels += 1;
                    if engine.output_mismatches(k) != 0 {
                        mismatched_kernels += 1;
                    }
                }
            }
        }
        EngineFacts {
            cycle: engine.cycle(),
            num_sms: cfg.num_sms as u64,
            issue_interval: cfg.issue_interval(),
            peak_bytes_per_cycle: cfg.bytes_per_cycle_total(),
            max_request_bytes: max_request_bytes(cfg),
            issued: stats.total_issued_insts,
            dram_bytes: stats.mem_bytes_served,
            partition_bytes: parts.iter().map(|p| p.bytes_served).sum(),
            requests_retired: parts.iter().map(|p| p.requests_retired).sum(),
            inflight: parts.iter().map(|p| p.inflight as u64).sum(),
            preempt_requests: engine.preempt_records().len() as u64,
            technique_blocks,
            preempt_latencies: engine
                .preempt_records()
                .iter()
                .filter_map(|r| r.latency_cycles())
                .collect(),
            finished_kernels,
            mismatched_kernels,
        }
    }
}

/// Every kernel id the engine has launched up to the highest one still
/// visible on an SM or in a preemption record. Kernel ids are dense launch
/// indices, so every id at or below a visible one exists.
fn known_kernels(engine: &Engine) -> impl Iterator<Item = KernelId> {
    let sms = engine.config().num_sms;
    let on_sms = (0..sms).flat_map(|sm| [engine.sm_assigned(sm), engine.sm_resident_kernel(sm)]);
    let recorded = engine.preempt_records().iter().map(|r| Some(r.kernel));
    let top = on_sms.chain(recorded).flatten().map(|k| k.0).max();
    (0..top.map_or(0, |t| t + 1)).map(KernelId)
}

/// What a traced cell's event log and engine add to its facts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceFacts {
    /// Events retained in the log.
    pub events: u64,
    /// Events the ring dropped.
    pub dropped: u64,
    /// Blocks that ran to completion (`block_end` with exit `completed`).
    pub blocks_completed: u64,
    /// Distinct kernels that dispatched at least one block.
    pub kernels: u64,
    /// SM plans Algorithm 1 chose: distinct `(cycle, sm)` of `decision` events.
    pub decisions: u64,
    /// Per-block Algorithm 1 decisions (`decision` events).
    pub blocks_evaluated: u64,
    /// Host seconds to export the Chrome trace and the JSON-lines log.
    pub export_s: f64,
    /// Whether the flush sanitizer reported clean (`None` when it was off).
    pub sanitizer_clean: Option<bool>,
}

impl TraceFacts {
    /// Read the event log of a traced engine and time its exports.
    pub fn read(engine: &Engine) -> TraceFacts {
        let Some(log) = engine.event_log() else {
            return TraceFacts::default();
        };
        let mut kernels = BTreeSet::new();
        let mut decisions = BTreeSet::new();
        let mut f = TraceFacts {
            events: log.len() as u64,
            dropped: log.dropped(),
            ..TraceFacts::default()
        };
        for ev in log.iter() {
            match *ev {
                ObsEvent::BlockBegin { kernel, .. } => {
                    kernels.insert(kernel.0);
                }
                ObsEvent::BlockEnd {
                    exit: BlockExit::Completed,
                    ..
                } => f.blocks_completed += 1,
                ObsEvent::Decision { cycle, sm, .. } => {
                    f.blocks_evaluated += 1;
                    decisions.insert((cycle, sm));
                }
                _ => {}
            }
        }
        f.kernels = kernels.len() as u64;
        f.decisions = decisions.len() as u64;
        let (exported, span) = Span::time(|| {
            let chrome = gpu_sim::trace::chrome_trace_json(engine).map_or(0, |s| s.len());
            chrome + log.to_json_lines().len()
        });
        black_box(exported);
        f.export_s = span.wall_s;
        f.sanitizer_clean = engine.sanitizer().map(|s| s.report().is_clean());
        f
    }
}

/// Calls of `select_preemptions` per timed probe.
pub const SELECT_CALLS: u64 = 64;

/// Time Algorithm 1 on snapshots of `engine`'s occupied SMs: ask for half of
/// them under `limit_us`, with observations from the resident kernel's
/// engine statistics. Returns `(host seconds, calls)`, or `None` when no SM
/// holds a block.
pub fn time_select(engine: &Engine, limit_us: f64) -> Option<(f64, u64)> {
    let cfg = engine.config();
    let occupied: Vec<usize> = (0..cfg.num_sms)
        .filter(|&sm| engine.sm_resident_count(sm) > 0 && !engine.sm_is_preempting(sm))
        .collect();
    let kernel = engine.sm_resident_kernel(*occupied.first()?)?;
    let snaps: Vec<_> = occupied
        .iter()
        .filter(|&&sm| engine.sm_resident_kernel(sm) == Some(kernel))
        .map(|&sm| engine.sm_snapshot(sm))
        .collect();
    let req = SelectionRequest {
        limit_cycles: cfg.us_to_cycles(limit_us),
        num_preempts: snaps.len().div_ceil(2),
        ctx_bytes_per_tb: engine.kernel_desc(kernel).block_context_bytes(),
        obs: KernelObs::from_stats(engine.kernel_stats(kernel)),
        flush_allowed: true,
        estimator: EstimatorConfig::default(),
    };
    let (_, span) = Span::time(|| {
        for _ in 0..SELECT_CALLS {
            black_box(select_preemptions(cfg, black_box(&req), black_box(&snaps)));
        }
    });
    Some((span.wall_s, SELECT_CALLS))
}

/// Time Algorithm 1 on an engine that has run `bench`'s first kernel alone
/// on every SM for `warm_us`: the probe for runners that do not hand back
/// their engine (`run_pair`).
pub fn probe_select(
    cfg: &gpu_sim::GpuConfig,
    bench: &workloads::Benchmark,
    seed: u64,
    warm_us: f64,
    limit_us: f64,
) -> Option<(f64, u64)> {
    let mut engine = Engine::with_seed(cfg.clone(), seed);
    let kernel = engine.launch_kernel(bench.launches().first()?.clone());
    for sm in 0..cfg.num_sms {
        engine.assign_sm(sm, Some(kernel));
    }
    engine.run_for(cfg.us_to_cycles(warm_us));
    time_select(&engine, limit_us)
}
