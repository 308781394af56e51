//! The `compile` workload: cold engine builds of the four programs.
//!
//! Each build goes from source through the frontend, fusion, VM lowering
//! and the `O2` optimizer, nothing reused between builds, programs rotated
//! build by build. Each engine then runs once on its program's test-size
//! tree, untimed, and must reproduce the unfused interpreter's final state
//! and the reference fused metrics.

use std::sync::Arc;
use std::time::Instant;

use grafter_engine::{Backend, Engine, Report, TraceProbe};
use grafter_workloads::CaseStudy;

use crate::budget::Budget;
use crate::cases::{cold_build, engine, stream_seed, streams, tree};
use crate::oracle::{final_state, same_metrics, same_state, FinalState, Tally};
use crate::speed;
use crate::stats::{ms, Groups};
use crate::trace::Tracer;

/// What one build's check run must reproduce.
pub struct Reference {
    tree_seed: u64,
    oracle: FinalState,
    fused: Report,
}

/// The workload's set-up: per program, the check tree and its reference.
pub struct Setup {
    pub refs: Vec<Reference>,
}

/// Runs `engine` once on `cs`'s test-size tree from `seed`.
fn check_run(engine: &Engine, cs: &CaseStudy, seed: u64) -> Result<(Report, FinalState), String> {
    let mut session = engine.session();
    let root = session.build_tree(tree(cs, cs.test_size, seed));
    let report = session.run(root).map_err(|e| e.to_string())?;
    let state = final_state(&session, root, &report);
    Ok((report, state))
}

/// Computes each program's reference: the unfused interpreter's final
/// state and one warm-up build's fused metrics (checked against it).
pub fn setup(cases: &[CaseStudy], seed: u64, tally: &mut Tally) -> Setup {
    let refs = cases
        .iter()
        .enumerate()
        .map(|(p, cs)| {
            let tree_seed = stream_seed(seed, streams::COMPILE_CHECK, p as u64);
            let oracle_engine = engine(cs, false, Backend::Interp, None);
            let (_, oracle) =
                check_run(&oracle_engine, cs, tree_seed).expect("unfused interpreter runs");
            let warm = cold_build(cs, None).expect("case study builds");
            let (fused, state) = check_run(&warm, cs, tree_seed).expect("fused engine runs");
            tally.check(same_state(cs.name, &oracle, &state));
            Reference {
                tree_seed,
                oracle,
                fused,
            }
        })
        .collect();
    Setup { refs }
}

/// Cold-build latencies per program, speed-corrected (see
/// [`crate::speed`]).
pub struct Samples {
    pub build_ms: Groups,
}

/// Builds programs round-robin while `budget` lasts.
pub fn run(
    cases: &[CaseStudy],
    setup: &Setup,
    budget: Budget,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Samples {
    let probe = tracer.on().then(|| Arc::new(TraceProbe::new()));
    let mut build_ms = Groups::default();
    let mut i = 0usize;
    while budget.more(i) {
        let p = i % cases.len();
        let (cs, r) = (&cases[p], &setup.refs[p]);
        let op = i as u64;
        let probe_ms = speed::probe_on(1);
        let span = tracer.begin(&format!("build.{}", cs.name), op, None);
        let start = Instant::now();
        let built = cold_build(cs, probe.as_ref());
        let dur = start.elapsed();
        tracer.end(span);
        i += 1;
        let engine = match built {
            Ok(e) => e,
            Err(e) => {
                tally.check(Err(format!("{}: build failed: {e}", cs.name)));
                continue;
            }
        };
        build_ms.push(cs.name, speed::corrected(ms(dur), probe_ms));
        // The engine's own stage timings become child spans; the optimizer
        // passes run inside lowering, so they nest under it.
        let mut lower = span;
        for s in &engine.compile_trace().spans {
            let (layer, parent) = match s.name.as_str() {
                "parse" | "sema" => (format!("frontend.{}", s.name), span),
                "lower" => ("vm.lower".to_string(), span),
                n if n.starts_with("opt/") => (format!("vm.{n}"), lower),
                n => (n.to_string(), span),
            };
            let id = tracer.record(&layer, op, Some(parent), start + s.start, s.dur);
            if s.name == "lower" {
                lower = id;
            }
        }
        let outcome = check_run(&engine, cs, r.tree_seed).and_then(|(report, state)| {
            same_state(cs.name, &r.oracle, &state)?;
            same_metrics(cs.name, &r.fused, &report)
        });
        tally.check(outcome);
    }
    Samples { build_ms }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn four_builds(setup: &Setup) -> Tally {
        let cases = grafter_workloads::case_studies();
        let mut tally = Tally::default();
        let deadline = Instant::now() + Duration::from_secs(600);
        run(
            &cases,
            setup,
            Budget::count(4, deadline),
            &Tracer::new(false),
            &mut tally,
        );
        tally
    }

    #[test]
    fn a_wrong_reference_fails_exactly_the_builds_it_checks() {
        let _serial = crate::tests::serial();
        let cases = grafter_workloads::case_studies();
        let mut setup_tally = Tally::default();
        let mut setup = setup(&cases, 3, &mut setup_tally);
        assert_eq!(setup_tally.failed, 0);
        assert_eq!(four_builds(&setup).failed, 0, "correct references pass");

        // ast's build is checked against render's final tree, render's
        // against ast's: exactly those two of the four builds fail.
        let (a, b) = setup.refs.split_at_mut(1);
        std::mem::swap(&mut a[0].oracle, &mut b[0].oracle);
        let tally = four_builds(&setup);
        assert_eq!((tally.attempted, tally.failed), (4, 2));
    }
}
