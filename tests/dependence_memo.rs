//! The memoized dependence test (`ProgramAccesses::conflict`) against a
//! brute-force oracle, and the dependence-layer counters it reports.
//!
//! Every fused function of the four case studies, of every kd-tree
//! equation schedule and of the programs in `examples/` is rebuilt with a
//! memo shared across functions (as `fuse` does) and compared edge for
//! edge with a graph built from fresh, unmemoized
//! `AccessSummary::conflict_kind` calls.

use grafter::{
    fuse, AccessSummary, BlockCause, ConflictKind, DepGraph, FuseOptions, FusedProgram,
    FusionVerdict, ProgramAccesses,
};
use grafter_engine::Engine;
use grafter_frontend::{MethodId, Program, Stmt};
use grafter_workloads::{case_studies, kdtree};

/// A program with one entry sequence, fused with default options.
struct Subject {
    name: String,
    program: Program,
    fused: FusedProgram,
}

fn subject(name: &str, program: Program, root: &str, passes: &[&str]) -> Subject {
    let fused = fuse(&program, root, passes, &FuseOptions::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    Subject {
        name: name.to_string(),
        program,
        fused,
    }
}

/// The Fig. 2 program embedded in `examples/quickstart.rs`.
fn quickstart_source() -> &'static str {
    let file = include_str!("../examples/quickstart.rs");
    let start = file.find("r#\"").expect("quickstart embeds a raw source") + 3;
    let len = file[start..].find("\"#").expect("raw source terminates");
    &file[start..start + len]
}

/// The four case studies, every kd-tree equation schedule, and the
/// programs of `examples/` (ast_optimizer and render_layout run the case
/// studies' own entry sequences).
fn subjects() -> Vec<Subject> {
    let mut out: Vec<Subject> = case_studies()
        .into_iter()
        .map(|c| {
            subject(
                c.name,
                c.compiled.program().clone(),
                c.root_class,
                &c.passes,
            )
        })
        .collect();
    let kd = kdtree::compiled().program().clone();
    for (eq, schedule) in kdtree::equation_schedules() {
        let passes: Vec<&str> = schedule.iter().map(kdtree::Op::pass).collect();
        out.push(subject(
            &format!("kdtree `{eq}`"),
            kd.clone(),
            kdtree::ROOT_CLASS,
            &passes,
        ));
    }
    // examples/piecewise_calculus.rs
    out.push(subject(
        "piecewise_calculus",
        kd,
        kdtree::ROOT_CLASS,
        &["differentiate", "scale", "integrate", "project"],
    ));
    // examples/quickstart.rs
    out.push(subject(
        "quickstart",
        grafter_frontend::compile(quickstart_source()).expect("quickstart compiles"),
        "Element",
        &["computeWidth", "computeHeight"],
    ));
    out
}

/// The reference construction: every ordered pair tested afresh.
fn brute_force_edges(program: &Program, seq: &[MethodId]) -> Vec<Vec<usize>> {
    let merged = DepGraph::merge_bodies(program, seq);
    let mut acc = ProgramAccesses::new(program);
    let summaries: Vec<AccessSummary> = merged
        .iter()
        .map(|ms| acc.summary(seq[ms.traversal], ms.index).clone())
        .collect();
    let n = merged.len();
    let mut succs = vec![Vec::new(); n];
    for u in 0..n {
        for v in (u + 1)..n {
            let same_frame = merged[u].traversal == merged[v].traversal;
            let control = same_frame && (summaries[u].may_return || summaries[v].may_return);
            if control
                || summaries[u]
                    .conflict_kind(&summaries[v], same_frame)
                    .is_some()
            {
                succs[u].push(v);
            }
        }
    }
    succs
}

#[test]
fn memoized_depgraph_matches_brute_force_on_every_fused_function() {
    for s in subjects() {
        let mut memo = ProgramAccesses::new(&s.program);
        for f in &s.fused.functions {
            let merged = DepGraph::merge_bodies(&s.program, &f.seq);
            let graph = DepGraph::build(&mut memo, &f.seq, &merged);
            let succs = brute_force_edges(&s.program, &f.seq);
            for (u, expected) in succs.iter().enumerate() {
                assert_eq!(
                    graph.succs(u),
                    &expected[..],
                    "{} {}: succs({u})",
                    s.name,
                    f.name
                );
                let preds: Vec<usize> = (0..u).filter(|&w| succs[w].contains(&u)).collect();
                assert_eq!(
                    graph.preds(u),
                    &preds[..],
                    "{} {}: preds({u})",
                    s.name,
                    f.name
                );
            }
        }
        let stats = memo.dep_stats();
        assert!(
            stats.intersections <= stats.queries,
            "{}: {stats:?}",
            s.name
        );
    }
}

#[test]
fn blocked_verdicts_name_the_unmemoized_conflict_kind() {
    let mut checked = 0;
    for s in subjects() {
        let mut acc = ProgramAccesses::new(&s.program);
        for pair in &s.fused.explain.pairs {
            let FusionVerdict::Blocked {
                cause: BlockCause::DependenceCycle { kind, from, to },
            } = &pair.verdict
            else {
                continue;
            };
            let f = s
                .fused
                .functions
                .iter()
                .find(|f| f.name == pair.fused_fn)
                .expect("verdicts name a fused function");
            let a = acc.summary(f.seq[from.traversal], from.index).clone();
            let b = acc.summary(f.seq[to.traversal], to.index).clone();
            let expected = a
                .conflict_kind(&b, from.traversal == to.traversal)
                .unwrap_or(ConflictKind::Control);
            assert_eq!(*kind, expected, "{} {}: {from:?} -> {to:?}", s.name, f.name);
            checked += 1;
        }
    }
    assert!(checked > 0, "the subjects have dependence-cycle verdicts");
}

/// The explain loop asks `reaches_outside(u, v, [u, v])` where it used to
/// condense the graph with just `u` and `v` merged; with forward-only
/// edges the two tests agree on every candidate pair.
#[test]
fn pair_legality_agrees_with_pair_condensation_on_case_studies() {
    for case in case_studies() {
        let program = case.compiled.program();
        let fused = fuse(
            program,
            case.root_class,
            &case.passes,
            &FuseOptions::default(),
        )
        .unwrap();
        let mut acc = ProgramAccesses::new(program);
        let mut pairs = 0;
        for f in &fused.functions {
            let merged = DepGraph::merge_bodies(program, &f.seq);
            let graph = DepGraph::build(&mut acc, &f.seq, &merged);
            let receiver = |v: usize| match &merged[v].stmt {
                Stmt::Traverse(call) => Some(call.receiver.fields().collect::<Vec<_>>()),
                _ => None,
            };
            for u in 0..merged.len() {
                for v in (u + 1)..merged.len() {
                    if receiver(u).is_none() || receiver(u) != receiver(v) {
                        continue;
                    }
                    let mut pair: Vec<usize> = (0..merged.len()).collect();
                    pair[v] = u;
                    assert_eq!(
                        graph.condensation_acyclic(&pair),
                        !graph.reaches_outside(u, v, &[u, v]),
                        "{} {}: pair ({u}, {v})",
                        case.name,
                        f.name
                    );
                    pairs += 1;
                }
            }
        }
        assert_eq!(pairs, fused.coverage.candidate_pairs(), "{}", case.name);
    }
}

/// Exact dependence-layer counters on `ast`, read from the `fusion`
/// compile span. A change that drops or bypasses the conflict memo moves
/// `dep_intersections` (one per distinct ordered statement pair).
#[test]
fn ast_dependence_counters_are_exact() {
    let case = case_studies()
        .into_iter()
        .find(|c| c.name == "ast")
        .unwrap();
    let engine = Engine::builder()
        .compiled(case.compiled.clone())
        .entry(case.root_class, &case.passes)
        .build()
        .unwrap();
    let span = engine.compile_trace().span("fusion").expect("fusion span");
    let meta = |key: &str| -> usize {
        span.meta
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("fusion span lacks `{key}`"))
            .1
            .parse()
            .unwrap()
    };
    assert_eq!(
        meta("dep_intersections"),
        437,
        "dependence layer: distinct conflict verdicts on ast changed"
    );
    assert_eq!(
        meta("dep_queries"),
        10_788,
        "dependence layer: statement-pair conflict queries on ast changed"
    );
    let deps = engine.fused_program().deps;
    assert_eq!(
        (deps.queries, deps.intersections),
        (meta("dep_queries"), meta("dep_intersections"))
    );
}
