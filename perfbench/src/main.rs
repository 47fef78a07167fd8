//! The repository benchmark: four named workloads through the library's
//! public entry points, with an output gate on every run and a separate
//! traced run for the per-layer split.
//!
//! ```text
//! perfbench --workload <sweep|conform|serve|traffic> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last line of standard output is one JSON object
//! holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics, and the spans and counters go to
//! `.bench_run/trace-<workload>-<seed>.jsonl`. The line before it is a
//! JSON object with the run's metadata and the workload's named metrics.
//! The exit code is nonzero when any output differs from its pinned value.

mod conform;
mod layers;
mod pipeline;
mod serve;
mod stats;
mod sweep;
mod sys;
mod trace;
mod traffic;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, Gate, Metric};
use trace::{json_escape, Tracer};

/// One workload of the benchmark.
pub trait Workload {
    /// Makes the inputs from the seed and warms the entry points up on a
    /// small input; timed as set-up.
    fn setup(&mut self);
    /// One untraced pass through the public entry points, checking every
    /// output against its pinned value. Returns the wall seconds of each
    /// unit of work (a public call, or one query), the same units in the
    /// same order every pass.
    fn pass(&mut self, gate: &mut Gate) -> Vec<f64>;
    /// The workload's named end-to-end metrics, given each unit's median
    /// time over the run's passes.
    fn details(&self, per_unit: &[f64]) -> Vec<Metric>;
    /// Replays the last pass layer by layer under `tr`, checking that the
    /// replay reproduces the pass's outputs.
    fn replay(&mut self, tr: &mut Tracer, gate: &mut Gate);
    /// Untraced wall seconds of the calls the replay reproduces, given the
    /// last pass's units; runs them first where the pass does not.
    fn reference(&mut self, last: &[f64]) -> f64 {
        last.iter().sum()
    }
    /// Per-layer values measured from untraced calls.
    fn gauges(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

const WORKLOADS: [&str; 4] = ["sweep", "conform", "serve", "traffic"];

/// Set-ups after each pass, on top of the one the first pass needs;
/// `setup_s` is the median of all of a run's set-ups. Spread over the
/// run, they sample the host's speed over its whole length, as the passes
/// do, rather than over its first milliseconds.
const SETUPS_PER_PASS: usize = 3;

/// Where runs keep their scratch stores and traces, relative to the
/// directory the benchmark runs in.
const RUN_DIR: &str = ".bench_run";

const USAGE: &str =
    "usage: perfbench --workload <sweep|conform|serve|traffic> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(number()?),
            "--seconds" if number()? > 0 => seconds = Some(number()?),
            "--seconds" => return Err("--seconds must be positive".into()),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            "--trace" => return Err("--trace takes 0 or 1".into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn make(name: &str, threads: usize, seed: u64, scratch: &Path) -> Box<dyn Workload> {
    match name {
        "sweep" => Box::new(sweep::Sweep::new(threads)),
        "conform" => Box::new(conform::Conform::new(threads, seed)),
        "serve" => Box::new(serve::Serve::new(threads, seed, scratch)),
        _ => Box::new(traffic::Traffic::new(seed)),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = sys::HostInfo::collect();
    let scratch = PathBuf::from(RUN_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let code = run(&args, &host, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

fn run(args: &Args, host: &sys::HostInfo, scratch: &Path) -> ExitCode {
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={} threads={} rustc=\"{}\" commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.threads,
        host.rustc,
        host.commit
    );
    let mut w = make(&args.workload, host.threads, args.seed, scratch);

    // Set-ups and passes (each pass followed by its replay when tracing)
    // until the run has measured for `seconds`; at least one pass.
    let budget = Duration::from_secs(args.seconds);
    let mut gate = Gate::default();
    let mut tracer = Tracer::new();
    let mut units: Vec<Vec<f64>> = Vec::new();
    let mut setups = vec![timed_setup(w.as_mut())];
    let (mut wall_s, mut cpu_s, mut traced_s, mut untraced_s) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while units.is_empty() || start.elapsed() < budget {
        let (cpu, t) = (sys::cpu_seconds(), Instant::now());
        units.push(w.pass(&mut gate));
        wall_s.push(t.elapsed().as_secs_f64());
        cpu_s.push(sys::cpu_seconds() - cpu);
        if args.trace {
            untraced_s.push(w.reference(units.last().expect("just pushed")));
            let t = Instant::now();
            tracer.span("replay", &args.workload, |tr| w.replay(tr, &mut gate));
            traced_s.push(t.elapsed().as_secs_f64());
        }
        setups.extend((0..SETUPS_PER_PASS).map(|_| timed_setup(w.as_mut())));
    }

    let per_unit: Vec<f64> = (0..units[0].len())
        .map(|u| {
            median(
                &units
                    .iter()
                    .filter_map(|p| p.get(u).copied())
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let (setup_s, cpu) = (median(&setups), median(&cpu_s));
    let mut details = w.details(&per_unit);
    details.push(Metric::new("setup_s", setup_s, "s"));
    details.push(Metric::new("cpu_s", cpu, "s"));
    details.push(Metric::new("pass_s", median(&wall_s), "s"));
    details.push(Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"));
    let fail_ratio = gate.failed as f64 / gate.attempted.max(1) as f64;
    details.push(Metric::new("fail_ratio", fail_ratio, "ratio"));
    print_metrics(
        &format!("{} metrics ({} passes)", args.workload, units.len()),
        &details,
    );

    let metrics = if args.trace {
        // means, like the per-replay layer values
        let replays = traced_s.len();
        let traced = traced_s.iter().sum::<f64>() / replays as f64;
        let untraced = untraced_s.iter().sum::<f64>() / replays as f64;
        let coverage = if traced > 0.0 {
            tracer.layer_covered_seconds() / (traced * replays as f64)
        } else {
            0.0
        };
        let per_layer = layers::per_layer(&tracer, replays, &w.gauges());
        print_trace_summary(&tracer, replays, traced, untraced, coverage, host.threads);
        let path =
            PathBuf::from(RUN_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"type\":\"header\",\"workload\":\"{}\",\"seed\":{},\"replays\":{}}}",
            args.workload,
            args.seed,
            traced_s.len()
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!("trace written to {}", path.display()),
            Err(e) => gate.check(false, || format!("writing {}: {e}", path.display())),
        }
        let mut per_layer = per_layer;
        per_layer.push(Metric::new("trace.coverage", coverage, "ratio"));
        per_layer.push(Metric::new("trace.traced_wall_s", traced, "s"));
        per_layer.push(Metric::new("trace.untraced_wall_s", untraced, "s"));
        print_metrics("per-layer metrics (per replay)", &per_layer);
        per_layer
    } else {
        vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("cpu_s", cpu, "s"),
        ]
    };

    for m in &gate.mismatches {
        println!("MISMATCH {m}");
    }
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"passes\":{},\"wall_s\":{:?},\"cpu_s\":{:?},\"setup_s\":{:?},\"nproc\":{},\"threads\":{},\"rustc\":\"{}\",\"commit\":\"{}\",\"details\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        units.len(),
        wall_s,
        cpu_s,
        setups,
        host.nproc,
        host.threads,
        json_escape(host.rustc),
        json_escape(&host.commit),
        json_metrics(&details)
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        json_metrics(&metrics)
    );
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn timed_setup(w: &mut dyn Workload) -> f64 {
    let t = Instant::now();
    w.setup();
    t.elapsed().as_secs_f64()
}

fn print_trace_summary(
    tr: &Tracer,
    replays: usize,
    traced: f64,
    untraced: f64,
    coverage: f64,
    threads: usize,
) {
    println!("layer self time (per replay, share of traced wall):");
    for (layer, secs) in tr.layer_seconds() {
        let secs = secs / replays as f64;
        let share = if traced > 0.0 { secs / traced } else { 0.0 };
        println!("  {layer:<10} {secs:>10.4} s  {:>6.1}%", 100.0 * share);
    }
    println!(
        "layer spans cover {:.1}% of the traced wall time",
        100.0 * coverage
    );
    println!(
        "traced wall {traced:.4} s (serial replay) vs untraced wall {untraced:.4} s ({threads} threads): {:+.1}%",
        if untraced > 0.0 { 100.0 * (traced - untraced) / untraced } else { 0.0 }
    );
}
