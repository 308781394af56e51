//! The traced run's layer sweep: every layer's public call, timed, on a
//! fixed amount of work, so its counters repeat exactly for one seed.
//!
//! For each program the sweep runs the compile layers one by one
//! (`Compiled::compile_timed`, `Compiled::fuse`, `lower_with` at `O0`,
//! `optimize` at `O2`, `jit::compile`), then builds [`REPS`] fresh
//! bench-size trees and runs each through every tier, the parallel
//! session and the cache model, then times batches; it ends with a fixed
//! request schedule against grafterd. Times are medians over the
//! repetitions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grafter::pipeline::Compiled;
use grafter_cachesim::CacheHierarchy;
use grafter_engine::{
    pool_stats, Backend, BatchOptions, Engine, FusionOptions, JitMode, OptLevel, ParallelOptions,
    Report, TraceProbe,
};
use grafter_vm::{jit, lower_with, optimize, VmOptions};
use grafter_workloads::CaseStudy;

use crate::budget::Budget;
use crate::cases::{engine, stream_seed, streams, tree, WORKERS};
use crate::oracle::{final_state, same_state, FinalState, Tally};
use crate::serve::{self, Kind};
use crate::sheet::Sheet;
use crate::stats::{median, ms};
use crate::trace::{SpanId, Tracer};
use crate::traverse::BATCH;

/// Repetitions of every timed call (times are their medians).
pub const REPS: usize = 3;

/// Requests of the sweep's fixed `serve` schedule: 25 cycles per client,
/// so the cached p99 keeps ten of its 1000 samples beyond it and every
/// program gets a dozen inline and uncached requests.
pub const SERVE_REQUESTS: usize = 50 * serve::CYCLE;

/// Units of counters and ratios that must repeat exactly for one seed.
pub const EXACT: &str = "count.exact";
pub const EXACT_RATIO: &str = "ratio.exact";

/// Times `f`, recording it as a span named `name`.
fn timed<T>(
    tracer: &Tracer,
    name: &str,
    op: u64,
    parent: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let span = tracer.begin(name, op, parent);
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed();
    tracer.end(span);
    (out, dur)
}

/// Median of durations, in milliseconds (NaN, which fails the run, when
/// every repetition failed).
fn med(xs: &[Duration]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    median(&xs.iter().map(|d| ms(*d)).collect::<Vec<_>>())
}

/// Sum of a probed VM run's opcode fires.
fn ops_fired(report: &Report) -> f64 {
    report.trace.as_ref().map_or(0, |t| {
        t.profile.op_fires.iter().map(|o| o.fires).sum::<u64>()
    }) as f64
}

/// The compile layers of one program, called one by one.
fn compile_layers(cs: &CaseStudy, op: u64, tracer: &Tracer, out: &mut Sheet) -> (f64, f64, f64) {
    let (mut parse, mut sema, mut fusion, mut lower, mut opt, mut jit_build) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    // functions, ops after O2, jit blocks, (fused, missed, blocked) pairs
    let mut counts = (0.0, 0.0, 0.0, (0.0, 0.0, 0.0));
    for _ in 0..REPS {
        let root = tracer.begin(&format!("layers.compile.{}", cs.name), op, None);
        let now = Instant::now();
        let (compiled, p, s) = Compiled::compile_timed(cs.source).expect("case study compiles");
        tracer.record("frontend.parse", op, Some(root), now, p);
        tracer.record("frontend.sema", op, Some(root), now + p, s);
        parse.push(p);
        sema.push(s);
        let (fused, d) = timed(tracer, "fusion", op, Some(root), || {
            compiled
                .fuse(cs.root_class, &cs.passes, &FusionOptions::default())
                .expect("case study fuses")
        });
        fusion.push(d);
        let (mut module, d) = timed(tracer, "vm.lower", op, Some(root), || {
            lower_with(
                fused.fused_program(),
                &VmOptions::with_opt_level(OptLevel::O0),
            )
        });
        lower.push(d);
        let (_, d) = timed(tracer, "vm.opt", op, Some(root), || {
            optimize(&mut module, OptLevel::O2)
        });
        opt.push(d);
        let (program, d) = timed(tracer, "jit.build", op, Some(root), || {
            jit::compile(&module, JitMode::Counted)
        });
        jit_build.push(d);
        tracer.end(root);
        let m = fused.metrics();
        counts = (
            m.functions as f64,
            module.n_ops() as f64,
            program.n_blocks() as f64,
            (
                m.fused_pairs as f64,
                m.missed_pairs as f64,
                m.blocked_pairs as f64,
            ),
        );
    }
    let p = cs.name;
    out.put(format!("frontend.parse_ms.{p}"), med(&parse), "ms");
    out.put(format!("frontend.sema_ms.{p}"), med(&sema), "ms");
    out.put(format!("fusion.ms.{p}"), med(&fusion), "ms");
    out.put(format!("fusion.functions.{p}"), counts.0, EXACT);
    out.put(format!("vm.lower_ms.{p}"), med(&lower), "ms");
    out.put(format!("vm.opt_ms.{p}"), med(&opt), "ms");
    out.put(format!("vm.ops.{p}"), counts.1, EXACT);
    out.put(format!("jit.build_ms.{p}"), med(&jit_build), "ms");
    out.put(format!("jit.blocks.{p}"), counts.2, EXACT);
    counts.3
}

/// Engines of one program for the runtime layers.
struct RunEngines {
    oracle: Engine,
    interp: Engine,
    vm_probed: Engine,
    unfused_vm_probed: Engine,
    vm: Engine,
    jit: Engine,
    jit_release: Engine,
}

/// One run of `engine` on a fresh tree from `seed`, timed, with its
/// final state. `par` runs the session with two intra-tree workers and
/// `cache` attaches the cache model.
fn run_tree(
    engine: &Engine,
    cs: &CaseStudy,
    seed: u64,
    par: bool,
    cache: bool,
) -> Result<(Report, FinalState, Duration, Duration, usize), String> {
    let mut session = engine.session();
    if par {
        session = session.with_parallel(ParallelOptions::with_workers(WORKERS));
    }
    if cache {
        session = session.with_cache(CacheHierarchy::xeon());
    }
    let start = Instant::now();
    let root = session.build_tree(tree(cs, cs.bench_size, seed));
    let build = start.elapsed();
    let nodes = session.heap().live_count();
    let start = Instant::now();
    let report = session.run(root).map_err(|e| format!("{}: {e}", cs.name))?;
    let run = start.elapsed();
    let state = final_state(&session, root, &report);
    Ok((report, state, build, run, nodes))
}

/// The runtime layers of one program on [`REPS`] fresh trees.
fn runtime_layers(
    cs: &CaseStudy,
    e: &RunEngines,
    seed: u64,
    p_index: usize,
    tracer: &Tracer,
    tally: &mut Tally,
    out: &mut Sheet,
) {
    let names = [
        "interp.run",
        "vm.run",
        "vm.unfused_run",
        "jit.run",
        "jit_release.run",
        "par.run_w2",
        "vm.seq_run",
    ];
    let mut times: Vec<Vec<Duration>> = vec![Vec::new(); names.len()];
    let mut builds = Vec::new();
    let mut exact = [0.0f64; 5]; // nodes, visits fused/unfused, ops fired fused/unfused
    for k in 0..REPS {
        let t = stream_seed(seed, streams::SWEEP, (p_index * REPS + k) as u64);
        let op = t;
        let root = tracer.begin(&format!("layers.tree.{}", cs.name), op, None);
        let (oracle, _) = timed(tracer, "run.oracle", op, Some(root), || {
            run_tree(&e.oracle, cs, t, false, false)
        });
        let (oracle_report, oracle_state, ..) = oracle.expect("the unfused interpreter runs");
        let engines = [
            (&e.interp, false),
            (&e.vm_probed, false),
            (&e.unfused_vm_probed, false),
            (&e.jit, false),
            (&e.jit_release, false),
            (&e.vm, true),
            (&e.vm, false),
        ];
        for (i, (engine, par)) in engines.into_iter().enumerate() {
            let span = tracer.begin(names[i], op, Some(root));
            let result = run_tree(engine, cs, t, par, false);
            tracer.end(span);
            let outcome = result.and_then(|(report, state, build, run, nodes)| {
                times[i].push(run);
                builds.push(build);
                if k == 0 {
                    match i {
                        0 => {
                            exact[0] = nodes as f64;
                            exact[1] = report.metrics.visits as f64;
                        }
                        1 => exact[3] = ops_fired(&report),
                        2 => exact[4] = ops_fired(&report),
                        _ => {}
                    }
                }
                same_state(names[i], &oracle_state, &state)
            });
            tally.check(outcome);
        }
        if k == 0 {
            exact[2] = oracle_report.metrics.visits as f64;
            // The cache model, fused over unfused, on this tree.
            let span = tracer.begin("model.run", op, Some(root));
            let fused = run_tree(&e.interp, cs, t, false, true);
            let unfused = run_tree(&e.oracle, cs, t, false, true);
            tracer.end(span);
            match (fused, unfused) {
                (Ok(f), Ok(u)) => {
                    tally.check(same_state("model", &u.1, &f.1));
                    out.put(
                        format!("model.cycles_ratio.{}", cs.name),
                        f.0.cycles() as f64 / u.0.cycles() as f64,
                        EXACT_RATIO,
                    );
                }
                (f, u) => tally.check(Err(format!("model: {:?} {:?}", f.err(), u.err()))),
            }
        }
        tracer.end(root);
    }
    let p = cs.name;
    let [interp, vm, unfused_vm, jit_t, jit_rel, par, seq] =
        <[Vec<Duration>; 7]>::try_from(times).expect("seven timed configurations");
    out.put(format!("heap.build_ms.{p}"), med(&builds), "ms");
    out.put(format!("heap.nodes.{p}"), exact[0], EXACT);
    out.put(format!("interp.run_ms.{p}"), med(&interp), "ms");
    out.put(format!("visits.fused.{p}"), exact[1], EXACT);
    out.put(format!("visits.unfused.{p}"), exact[2], EXACT);
    out.put(format!("vm.run_ms.{p}"), med(&vm), "ms");
    out.put(format!("vm.unfused_run_ms.{p}"), med(&unfused_vm), "ms");
    out.put(
        format!("fusion.gain.vm.{p}"),
        med(&unfused_vm) / med(&vm),
        "ratio",
    );
    out.put(format!("vm.ops_fired.fused.{p}"), exact[3], EXACT);
    out.put(format!("vm.ops_fired.unfused.{p}"), exact[4], EXACT);
    out.put(format!("jit.run_ms.{p}"), med(&jit_t), "ms");
    out.put(format!("jit_release.run_ms.{p}"), med(&jit_rel), "ms");
    out.put(format!("par.run_ms_w2.{p}"), med(&par), "ms");
    out.put(
        format!("par.speedup_w2.{p}"),
        med(&seq) / med(&par),
        "ratio",
    );
}

/// Batch throughput of one program: [`REPS`] batches of fresh trees.
fn batch_layer(
    cs: &CaseStudy,
    vm: &Engine,
    seed: u64,
    p_index: usize,
    tracer: &Tracer,
    tally: &mut Tally,
    out: &mut Sheet,
) {
    let mut tps = Vec::new();
    for k in 0..REPS {
        let inputs: Vec<_> = (0..BATCH)
            .map(|i| {
                let s = stream_seed(
                    seed,
                    streams::BATCH,
                    ((p_index * REPS + k) * BATCH + i) as u64,
                );
                tree(cs, cs.bench_size, s)
            })
            .collect();
        let (results, d) = timed(tracer, "batch", k as u64, None, || {
            vm.try_run_batch(inputs, &BatchOptions::with_workers(WORKERS))
        });
        tps.push(BATCH as f64 / d.as_secs_f64());
        for r in results {
            tally.check(r.map(|_| ()).map_err(|e| format!("{} batch: {e}", cs.name)));
        }
    }
    out.put(
        format!("batch.trees_per_s.{}", cs.name),
        median(&tps),
        "1/s",
    );
}

/// Runs the whole sweep and writes every per-layer metric but
/// `trace.overhead_pct` into `out`.
pub fn sweep(
    cases: &[CaseStudy],
    seed: u64,
    deadline: Instant,
    tracer: &Tracer,
    tally: &mut Tally,
    out: &mut Sheet,
) {
    let mut pairs = (0.0, 0.0, 0.0);
    for (p, cs) in cases.iter().enumerate() {
        let (f, m, b) = compile_layers(cs, p as u64, tracer, out);
        pairs = (pairs.0 + f, pairs.1 + m, pairs.2 + b);
    }
    out.put("fusion.fused_pairs", pairs.0, EXACT);
    out.put("fusion.missed_pairs", pairs.1, EXACT);
    out.put("fusion.blocked_pairs", pairs.2, EXACT);

    let probe = Arc::new(TraceProbe::new());
    let engines: Vec<RunEngines> = cases
        .iter()
        .map(|cs| RunEngines {
            oracle: engine(cs, false, Backend::Interp, None),
            interp: engine(cs, true, Backend::Interp, None),
            vm_probed: engine(cs, true, Backend::Vm, Some(&probe)),
            unfused_vm_probed: engine(cs, false, Backend::Vm, Some(&probe)),
            vm: engine(cs, true, Backend::Vm, None),
            jit: engine(cs, true, Backend::Jit(JitMode::Counted), None),
            jit_release: engine(cs, true, Backend::Jit(JitMode::Release), None),
        })
        .collect();
    for (p, (cs, e)) in cases.iter().zip(&engines).enumerate() {
        runtime_layers(cs, e, seed, p, tracer, tally, out);
    }

    // Warm the pool to full width first: steady-state batches spawn
    // nothing, so the delta below is an exact zero on current code.
    let warm: Vec<_> = (0..WORKERS as u64)
        .map(|s| tree(&cases[0], cases[0].test_size, s))
        .collect();
    let _ = engines[0]
        .vm
        .try_run_batch(warm, &BatchOptions::with_workers(WORKERS));
    let spawned = pool_stats().spawned_total;
    for (p, (cs, e)) in cases.iter().zip(&engines).enumerate() {
        batch_layer(cs, &e.vm, seed, p, tracer, tally, out);
    }
    out.put(
        "pool.spawned_delta",
        (pool_stats().spawned_total - spawned) as f64,
        EXACT,
    );
    drop(engines);

    let setup = serve::setup(cases, stream_seed(seed, streams::SWEEP, u64::MAX))
        .expect("grafterd starts on localhost");
    let s = serve::run(
        &setup,
        seed,
        Budget::count(SERVE_REQUESTS, deadline),
        tracer,
        tally,
    );
    for kind in Kind::ALL {
        out.put(
            format!("server.req_ms_p50.{}", kind.name()),
            s.by_kind[kind as usize].combined(0.5),
            "ms",
        );
    }
    out.put(
        "server.req_ms_p99.cached",
        s.by_kind[Kind::Cached as usize].tail(0.99, 1),
        "ms",
    );
    out.put("server.req_per_s", s.req_per_s, "1/s");
    let d = s.delta;
    out.put(
        "server.cache_hit_ratio",
        d.hits / (d.hits + d.misses),
        EXACT_RATIO,
    );
    out.put("server.single_flight_waits", d.single_flight_waits, "count");
    out.put("server.lowerings_delta", d.lowerings, EXACT);
    out.put("server.pool_spawned_delta", d.spawned, EXACT);
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafter_workloads::case_studies;

    #[test]
    fn exact_counters_repeat_for_one_seed() {
        let _serial = crate::tests::serial();
        let cases = case_studies();
        let sweep_once = || {
            let (mut tally, mut out) = (Tally::default(), Sheet::default());
            let deadline = Instant::now() + Duration::from_secs(900);
            sweep(
                &cases,
                17,
                deadline,
                &Tracer::new(false),
                &mut tally,
                &mut out,
            );
            assert_eq!(tally.failed, 0, "{:?}", tally.first_failure);
            out
        };
        let (a, b) = (sweep_once(), sweep_once());
        assert_eq!(a.exact().len(), 43);
        assert_eq!(a.exact(), b.exact());
    }

    #[test]
    fn seed_42_bench_trees_reproduce_the_recorded_visit_counts() {
        let _serial = crate::tests::serial();
        // (fused, unfused) visits of each case study's seed-42 bench tree,
        // as vm_compare recorded them in BENCH_vm.json
        let recorded = [
            ("ast", 38_363, 54_975),
            ("render", 15_602, 42_010),
            ("kdtree", 16_381, 81_910),
            ("fmm", 39_999, 79_998),
        ];
        for (cs, (name, fused, unfused)) in case_studies().iter().zip(recorded) {
            assert_eq!(cs.name, name);
            let visits = |f: bool| {
                let e = engine(cs, f, Backend::Interp, None);
                run_tree(&e, cs, 42, false, false)
                    .expect("runs")
                    .0
                    .metrics
                    .visits
            };
            assert_eq!((visits(true), visits(false)), (fused, unfused), "{name}");
        }
    }
}
