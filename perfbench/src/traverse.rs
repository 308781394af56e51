//! The `traverse` workload: every fused execution tier on fresh
//! bench-size trees.
//!
//! Engines for every tier are built during set-up, so compile cost is
//! zero here. Each round builds one freshly seeded tree of the next
//! program (rotating) once per tier and runs it through `Session::run`;
//! the tier order rotates too, so drift hits every tier equally. The
//! unfused interpreter runs the same tree first, untimed: it is the oracle
//! every timed run must match on final snapshot and globals, and the
//! counted tiers must also match the fused interpreter's metrics. Each
//! round ends with one `Engine::run_batch_with` of two fresh trees at two
//! workers, fused VM, tree builds included.

use std::sync::Arc;
use std::time::Instant;

use grafter_engine::{Backend, BatchOptions, Engine, Report, TraceProbe};
use grafter_workloads::CaseStudy;

use crate::budget::Budget;
use crate::cases::{engine, stream_seed, streams, tree, Tier, WORKERS};
use crate::oracle::{final_state, same_metrics, same_state, FinalState, Tally};
use crate::speed;
use crate::stats::{ms, Groups};
use crate::trace::{SpanId, Tracer};

/// Trees per batch: one per worker.
pub const BATCH: usize = WORKERS;

/// One program's engines.
pub struct Engines {
    /// Timed fused tiers, in [`Tier::ALL`] order.
    pub timed: Vec<Engine>,
    /// The unfused interpreter: the untimed oracle.
    pub oracle: Engine,
}

/// Builds every program's engines (with `probe` attached in the traced
/// run).
pub fn setup(cases: &[CaseStudy], probe: Option<&Arc<TraceProbe>>) -> Vec<Engines> {
    cases
        .iter()
        .map(|cs| Engines {
            timed: Tier::ALL
                .iter()
                .map(|t| engine(cs, true, t.backend(), probe))
                .collect(),
            oracle: engine(cs, false, Backend::Interp, None),
        })
        .collect()
}

/// Run latencies per program and tier, and batch throughput per program,
/// speed-corrected (see [`crate::speed`]).
#[derive(Default)]
pub struct Samples {
    /// Single-tree run times, grouped by `program/tier`.
    pub run_ms: Groups,
    /// The same times, one group set per tier (in [`Tier::ALL`] order).
    pub by_tier: [Groups; 4],
    pub batch_trees_per_s: Groups,
}

struct Run {
    report: Report,
    state: FinalState,
}

/// Builds `cs`'s tree from `seed` in a fresh session of `engine`, runs it
/// (timed, speed-corrected by a probe taken before the build) and captures
/// the final state.
fn run_one(
    engine: &Engine,
    cs: &CaseStudy,
    seed: u64,
    tracer: &Tracer,
    (op, parent, name): (u64, SpanId, &str),
) -> (Result<Run, String>, f64) {
    // The probe's chase through main memory evicts caches: time it before
    // the tree is built, so the run starts with the tree as warm as a
    // user's would be.
    let probe_ms = speed::probe_on(1);
    let mut session = engine.session();
    let b = tracer.begin("heap.build", op, Some(parent));
    let root = session.build_tree(tree(cs, cs.bench_size, seed));
    tracer.end(b);
    let span = tracer.begin(name, op, Some(parent));
    let start = Instant::now();
    let result = session.run(root);
    let dur = speed::corrected(ms(start.elapsed()), probe_ms);
    tracer.end(span);
    let run = result
        .map_err(|e| format!("{} {name}: {e}", cs.name))
        .map(|report| Run {
            state: final_state(&session, root, &report),
            report,
        });
    (run, dur)
}

/// Checks one tier's run: final state against the oracle, and metrics
/// against the fused interpreter (visits only on the release JIT, which
/// compiles the rest of the accounting out).
fn check(
    what: &str,
    tier: Tier,
    run: &Run,
    oracle: &Run,
    interp: Option<&Run>,
) -> Result<(), String> {
    same_state(what, &oracle.state, &run.state)?;
    match (tier, interp) {
        (Tier::Vm | Tier::Jit, Some(want)) => same_metrics(what, &want.report, &run.report),
        (Tier::JitRelease, Some(want))
            if want.report.metrics.visits != run.report.metrics.visits =>
        {
            Err(format!(
                "{what}: visit count differs from the counted tiers"
            ))
        }
        _ => Ok(()),
    }
}

/// Runs rounds while `budget` lasts.
pub fn run(
    cases: &[CaseStudy],
    engines: &[Engines],
    seed: u64,
    budget: Budget,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    let mut r = 0usize;
    while budget.more(r) {
        let p = r % cases.len();
        let (cs, e) = (&cases[p], &engines[p]);
        let seed_r = stream_seed(seed, streams::TRAVERSE, r as u64);
        let op = r as u64;
        let round = tracer.begin(&format!("tree.{}", cs.name), op, None);

        let (oracle, _) = run_one(&e.oracle, cs, seed_r, tracer, (op, round, "run.oracle"));
        let oracle = oracle.expect("the unfused interpreter runs every case-study tree");

        let mut runs: Vec<Option<Run>> = Tier::ALL.iter().map(|_| None).collect();
        for k in 0..Tier::ALL.len() {
            let t = (k + r) % Tier::ALL.len();
            let name = format!("run.{}", Tier::ALL[t].name());
            let (run, dur) = run_one(&e.timed[t], cs, seed_r, tracer, (op, round, &name));
            match run {
                Ok(run) => {
                    s.run_ms
                        .push(&format!("{}/{}", cs.name, Tier::ALL[t].name()), dur);
                    s.by_tier[t].push(cs.name, dur);
                    runs[t] = Some(run);
                }
                Err(why) => tally.check(Err(why)),
            }
        }
        for (t, run) in runs.iter().enumerate() {
            if let Some(run) = run {
                let what = format!("{} {}", cs.name, Tier::ALL[t].name());
                tally.check(check(&what, Tier::ALL[t], run, &oracle, runs[0].as_ref()));
            }
        }

        // One batch of fresh trees; its first tree is this round's, so its
        // report must equal the single fused-VM run's.
        let inputs: Vec<_> = (0..BATCH)
            .map(|k| {
                let t = match k {
                    0 => seed_r,
                    _ => stream_seed(seed, streams::BATCH, (r * BATCH + k) as u64),
                };
                tree(cs, cs.bench_size, t)
            })
            .collect();
        let probe_ms = speed::probe_on(WORKERS);
        let span = tracer.begin("batch", op, Some(round));
        let start = Instant::now();
        let results = e.timed[1].try_run_batch(inputs, &BatchOptions::with_workers(WORKERS));
        let dur = speed::corrected(ms(start.elapsed()), probe_ms);
        tracer.end(span);
        s.batch_trees_per_s.push(cs.name, BATCH as f64 * 1e3 / dur);
        let outcome = results
            .iter()
            .enumerate()
            .try_for_each(|(k, r)| match r {
                Ok(_) => Ok(()),
                Err(e) => Err(format!("{} batch input {k}: {e}", cs.name)),
            })
            .and_then(|()| match (&results[0], &runs[1]) {
                (Ok(got), Some(want)) if *got != want.report => Err(format!(
                    "{} batch: report differs from the single run",
                    cs.name
                )),
                _ => Ok(()),
            });
        tally.check(outcome);
        tracer.end(round);
        r += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn rounds(cases: &[CaseStudy], engines: &[Engines]) -> Tally {
        let mut tally = Tally::default();
        let deadline = Instant::now() + Duration::from_secs(600);
        let budget = Budget::count(cases.len(), deadline);
        run(cases, engines, 11, budget, &Tracer::new(false), &mut tally);
        tally
    }

    #[test]
    fn a_wrong_oracle_fails_every_tier_run() {
        let _serial = crate::tests::serial();
        let cases = grafter_workloads::case_studies();
        let mut engines = setup(&cases, None);
        // one round per program: four tier checks and one batch each
        let tally = rounds(&cases, &engines);
        assert_eq!(
            (tally.attempted, tally.failed),
            (20, 0),
            "{:?}",
            tally.first_failure
        );

        // An oracle that runs only the first traversal of the sequence
        // leaves a different tree behind: every tier run must fail, while
        // the batch (checked against the fused VM run) still passes.
        for (cs, e) in cases.iter().zip(engines.iter_mut()) {
            e.oracle = Engine::builder()
                .compiled(cs.compiled.clone())
                .entry(cs.root_class, &cs.passes[..1])
                .args(cs.args.iter().take(1).cloned().collect())
                .fusion(grafter_engine::FusionOptions::unfused())
                .build()
                .expect("first pass alone builds");
        }
        let tally = rounds(&cases, &engines);
        assert_eq!(
            (tally.attempted, tally.failed),
            (20, 16),
            "{:?}",
            tally.first_failure
        );
    }
}
