//! End-to-end and per-layer benchmark over the Chimera reproduction's
//! runners. See `README.md` next to this crate for the workloads, the
//! metrics and how to run it.

mod checks;
mod facts;
mod host;
mod report;
mod round;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use round::Round;
use workload::{EngineChoice, Inputs, Workload};

const USAGE: &str = "usage: perfbench --workload <periodic_rt|multiprog_pairs|serve_open_loop> \
--seed <n> --seconds <s> --trace <0|1> [--engine <event|scan|parN>]";

/// Input constructions timed after each round; `setup_s` is the median
/// of all of them.
const SETUP_REPS_PER_ROUND: usize = 50;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    engine: EngineChoice,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut engine = EngineChoice::Event;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--engine" => engine = EngineChoice::parse(&value).ok_or_else(bad)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let trace = trace.ok_or("--trace is required")?;
    if engine == EngineChoice::Scan && workload != Workload::ServeOpenLoop {
        return Err("--engine scan: only the serve runners can select the scan engine".into());
    }
    if engine != EngineChoice::Event && trace {
        return Err("--engine: traced runs use the default engine".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        engine,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={} engine={:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.engine
    );

    let (inputs, _) = Inputs::build(args.workload, args.seed, args.engine);

    // Measurement: whole rounds until the next one would overrun the run
    // length. Untraced runs need two rounds for the determinism check; a
    // traced run alternates untraced and traced rounds.
    let t0 = Instant::now();
    let (per_iter, min_iters) = if args.trace { (2, 1) } else { (1, 2) };
    let mut rounds: Vec<Round> = Vec::new();
    let mut setup_s = Vec::new();
    let mut splits = Vec::new();
    loop {
        rounds.push(Round::run(&inputs, false));
        if args.trace {
            rounds.push(Round::run(&inputs, true));
        }
        // Set-up time is sampled throughout the run, like the rounds, so a
        // slow stretch of the host weighs on both alike. Every construction
        // is identical to the one above.
        for _ in 0..SETUP_REPS_PER_ROUND {
            let ((_, split), span) =
                host::Span::time(|| Inputs::build(args.workload, args.seed, args.engine));
            setup_s.push(span.wall_s);
            splits.push(split);
        }
        let iters = rounds.len() / per_iter;
        let elapsed = t0.elapsed().as_secs_f64();
        if iters >= min_iters && elapsed + elapsed / iters as f64 > args.seconds {
            break;
        }
    }

    let split = workload::SetupSplit {
        suite_s: host::median(&splits.iter().map(|s| s.suite_s).collect::<Vec<_>>()),
        serve_inputs_s: host::median(&splits.iter().map(|s| s.serve_inputs_s).collect::<Vec<_>>()),
    };

    let deterministic = round::deterministic(&rounds);
    println!(
        "determinism: {} across {} rounds",
        if deterministic {
            "identical"
        } else {
            "DIFFERENT"
        },
        rounds.len()
    );

    // Output-check verdicts, tallied over every round.
    let mut tally: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for c in rounds.iter().flat_map(|r| &r.cells) {
        if let Err(msg) = &c.outcome {
            println!("cell {:?} panicked: {msg}", c.cell);
        }
        for &(name, ok) in &c.checks {
            let e = tally.entry(name).or_default();
            e.0 += u64::from(ok);
            e.1 += 1;
        }
    }
    for (name, (pass, total)) in &tally {
        let verdict = if pass == total { "pass" } else { "FAIL" };
        println!("check {name}: {verdict} {pass}/{total}");
    }
    let attempted: u64 = rounds.iter().map(|r| r.cells.len() as u64).sum();
    let failed: u64 = rounds.iter().map(Round::failed).sum();
    println!("cells: attempted {attempted}, failed {failed}");

    let mut correct = deterministic;
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let maps: Vec<_> = rounds
            .chunks(2)
            .map(|p| report::per_layer(&inputs, &split, &p[0], &p[1]))
            .collect();
        let layer = report::median_by_key(&maps);
        correct &= layer["obs.events_dropped"] == 0.0;
        report::PER_LAYER
            .iter()
            .map(|&(k, u)| (k, u, layer[k]))
            .collect()
    } else {
        let per_round =
            |f: &dyn Fn(&Round) -> f64| host::median(&rounds.iter().map(f).collect::<Vec<_>>());
        let values = [
            host::median(&setup_s),
            per_round(&|r| r.span().wall_s),
            per_round(&|r| r.span().cpu_s),
            per_round(&|r| r.sim_cycles() as f64 / r.span().wall_s),
            host::peak_rss_mb(),
        ];
        report::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(k, u), v)| (k, u, v))
            .collect()
    };
    for &(k, u, v) in &metrics {
        println!("metric {k} = {} {u}", v + 0.0);
    }
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve_open_loop --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeOpenLoop);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(a.engine, EngineChoice::Event);
        let a =
            parse("--workload periodic_rt --seed 1 --seconds 1 --trace 0 --engine par2").unwrap();
        assert_eq!(a.engine, EngineChoice::Parallel(2));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload periodic_rt --seed x --seconds 1 --trace 0",
            "--workload periodic_rt --seed 1 --seconds 0 --trace 0",
            "--workload periodic_rt --seed 1 --seconds 1 --trace 2",
            "--workload periodic_rt --seed 1 --seconds 1",
            "--workload periodic_rt --seed 1 --seconds 1 --trace 0 --engine scan",
            "--workload serve_open_loop --seed 1 --seconds 1 --trace 1 --engine par1",
            "--workload periodic_rt --seed 1 --seconds 1 --trace 0 --bogus 1",
            "--workload periodic_rt --seed",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
