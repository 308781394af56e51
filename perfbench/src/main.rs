//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload compile|traverse|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run sets its workload up [`SETUPS`] times (the
//! median is `setup_s`), measures only that workload for `--seconds` on
//! the last set-up, and prints every end-to-end metric. With
//! `--trace 1` it runs the layer sweep and the workload's own operations
//! traced and untraced, prints every per-layer metric and writes the
//! spans to `.bench_out/`. The last line of standard output is the
//! result: `{"correct","attempted","failed","metrics"}`. See README.md.

mod budget;
mod cases;
mod compile;
mod layers;
mod oracle;
mod serve;
mod sheet;
mod speed;
mod stats;
mod trace;
mod traverse;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use grafter_engine::TraceProbe;
use grafter_obs::json::JsonWriter;
use grafter_workloads::{case_studies, CaseStudy};

use budget::Budget;
use cases::WORKERS;
use oracle::Tally;
use sheet::Sheet;
use stats::{median, min_samples_for, TAIL_WINDOWS};
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A run stops measuring at this age, whatever its budget.
const DEADLINE: Duration = Duration::from_secs(150);
/// Home operations timed twice in the traced run (untraced, traced) to
/// measure the tracing overhead.
const OVERHEAD_OPS: [usize; 3] = [8, 8, 4 * serve::CYCLE];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Compile,
    Traverse,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Compile, Workload::Traverse, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Traverse => "traverse",
            Workload::Serve => "serve",
        }
    }

    /// Operations a phase of this workload needs at least, so its p90
    /// keeps ten samples beyond it in every stretch of the tail (a
    /// `traverse` round times one run per tier).
    fn min_ops(self) -> usize {
        let ops = TAIL_WINDOWS * min_samples_for(0.9);
        match self {
            Workload::Compile | Workload::Serve => ops,
            Workload::Traverse => ops.div_ceil(cases::Tier::ALL.len()),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace takes 0 or 1".into()),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What the result was measured on: seed, machine and toolchain.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("workload").str(args.workload.name());
    w.key("seed").num(args.seed);
    w.key("seconds").num(args.seconds);
    w.key("trace").bool(args.trace);
    w.key("nproc")
        .num(std::thread::available_parallelism().map_or(0, usize::from));
    w.key("workers").num(WORKERS);
    w.key("cpu").str(&cpu);
    w.key("rustc").str(&env("PERFBENCH_RUSTC"));
    w.key("commit").str(&env("PERFBENCH_COMMIT"));
    w.end_obj();
    w.finish()
}

/// One workload's set-up, ready to measure.
enum Ready {
    Compile(compile::Setup),
    Traverse(Vec<traverse::Engines>),
    Serve(serve::Setup),
}

fn set_up(
    w: Workload,
    cases: &[CaseStudy],
    seed: u64,
    probe: Option<&Arc<TraceProbe>>,
    tally: &mut Tally,
) -> Ready {
    match w {
        Workload::Compile => Ready::Compile(compile::setup(cases, seed, tally)),
        Workload::Traverse => Ready::Traverse(traverse::setup(cases, probe)),
        Workload::Serve => {
            Ready::Serve(serve::setup(cases, seed).expect("grafterd starts on localhost"))
        }
    }
}

/// Everything one measured phase produced.
enum Measured {
    Compile(compile::Samples),
    Traverse(traverse::Samples),
    Serve(serve::Samples),
}

impl Measured {
    /// The phase's operation time, combined over programs (the unit of
    /// the tracing-overhead comparison).
    fn center(&self) -> f64 {
        match self {
            Measured::Compile(s) => s.build_ms.center(),
            Measured::Traverse(s) => s.run_ms.center(),
            Measured::Serve(s) => s.req_ms.center(),
        }
    }

    /// Writes this phase's end-to-end metrics and prints its detail on
    /// standard error.
    fn report(&self, out: &mut Sheet) {
        match self {
            Measured::Compile(s) => {
                out.put("op_ms", s.build_ms.center(), "ms");
                out.put("op_ms_tail", s.build_ms.tail(0.9, TAIL_WINDOWS), "ms");
            }
            Measured::Traverse(s) => {
                out.put("op_ms", s.run_ms.center(), "ms");
                out.put("op_ms_tail", s.run_ms.tail(0.9, TAIL_WINDOWS), "ms");
                for (t, g) in cases::Tier::ALL.iter().zip(&s.by_tier) {
                    eprintln!("perfbench: run_ms.{} = {:.3}", t.name(), g.center());
                }
                eprintln!(
                    "perfbench: batch_trees_per_s = {:.1}",
                    s.batch_trees_per_s.combined(0.5)
                );
            }
            Measured::Serve(s) => {
                out.put("op_ms", s.req_ms.center(), "ms");
                out.put("op_ms_tail", s.req_ms.tail(0.9, TAIL_WINDOWS), "ms");
                for (group, n, center) in s.req_ms.centers() {
                    eprintln!("perfbench: req_ms.{group} = {center:.3} ({n} requests)");
                }
                eprintln!("perfbench: req_per_s = {:.1}", s.req_per_s);
            }
        }
    }
}

fn measure(
    ready: &Ready,
    cases: &[CaseStudy],
    seed: u64,
    budget: Budget,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Measured {
    let (start, before) = (Instant::now(), tally.attempted);
    let m = match ready {
        Ready::Compile(s) => Measured::Compile(compile::run(cases, s, budget, tracer, tally)),
        Ready::Traverse(e) => {
            Measured::Traverse(traverse::run(cases, e, seed, budget, tracer, tally))
        }
        Ready::Serve(s) => Measured::Serve(serve::run(s, seed, budget, tracer, tally)),
    };
    eprintln!(
        "perfbench: {} checked operations in {:.1} s",
        tally.attempted - before,
        start.elapsed().as_secs_f64()
    );
    m
}

/// The untraced run: every end-to-end metric.
fn untraced(args: &Args, deadline: Instant, tally: &mut Tally, out: &mut Sheet) {
    let off = Tracer::new(false);
    let home = args.workload;
    // Set up several times; the last set-up is the one measured.
    let mut times = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        // a set-up lasts about a second: probe the host's speed on both
        // sides of it
        let before = speed::probe_on(1);
        let start = Instant::now();
        let cases = case_studies();
        let r = set_up(home, &cases, args.seed, None, tally);
        let secs = start.elapsed().as_secs_f64();
        let probe_ms = (before + speed::probe_on(1)) / 2.0;
        times.push(speed::corrected(secs, probe_ms));
        ready = Some((cases, r));
    }
    let (cases, ready) = ready.expect("at least one set-up");
    out.put("setup_s", median(&times), "s");

    let budget = Budget::timed(Duration::from_secs(args.seconds), home.min_ops(), deadline);
    measure(&ready, &cases, args.seed, budget, &off, tally).report(out);
}

/// The traced run: every per-layer metric, plus the spans.
fn traced(args: &Args, deadline: Instant, tracer: &Tracer, tally: &mut Tally, out: &mut Sheet) {
    let cases = case_studies();
    layers::sweep(&cases, args.seed, deadline, tracer, tally, out);

    // The workload's own operations, untraced then traced.
    let w = args.workload;
    let ops = OVERHEAD_OPS[w as usize];
    let off = Tracer::new(false);
    let plain = set_up(w, &cases, args.seed, None, tally);
    let untraced = measure(
        &plain,
        &cases,
        args.seed,
        Budget::count(ops, deadline),
        &off,
        tally,
    );
    drop(plain);
    let probe = Arc::new(TraceProbe::new());
    let probed = set_up(w, &cases, args.seed, Some(&probe), tally);
    let traced = measure(
        &probed,
        &cases,
        args.seed,
        Budget::count(ops, deadline),
        tracer,
        tally,
    );
    out.put(
        "trace.overhead_pct",
        (traced.center() / untraced.center() - 1.0) * 100.0,
        "%",
    );
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload compile|traverse|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let deadline = started + DEADLINE;
    speed::init();
    let provenance = provenance(&args);
    let mut tally = Tally::default();
    let mut out = Sheet::default();
    let tracer = Tracer::new(args.trace);
    if args.trace {
        traced(&args, deadline, &tracer, &mut tally, &mut out);
        let attribution = tracer.self_share("build.ast", "fusion");
        if let Some(share) = attribution {
            eprintln!(
                "perfbench: fusion is {:.1}% of the traced ast builds' self time",
                share * 100.0
            );
        }
        let path = format!(
            ".bench_out/trace-{}-{}.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(".bench_out")
            .and_then(|()| std::fs::write(&path, tracer.to_json(&provenance)));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    } else {
        untraced(&args, deadline, &mut tally, &mut out);
    }
    if let Some(why) = &tally.first_failure {
        eprintln!(
            "perfbench: {} of {} operations failed; first: {why}",
            tally.failed, tally.attempted
        );
    }
    for name in out.names() {
        eprintln!("  {name:<32} {}", out.get(name).unwrap_or(f64::NAN));
    }
    println!("{{\"provenance\":{provenance}}}");
    println!("{}", out.result_line(&tally));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard};

    /// Tests that build engines or start a daemon run one at a time: the
    /// lowering counter and the worker pool are process-wide.
    pub fn serial() -> MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }
}
