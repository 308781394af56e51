//! Differential backend testing over the paper's four case studies: for
//! each workload, fused and unfused, the `grafter-vm` bytecode VM must
//! produce exactly the heap state and exactly the metrics (visits,
//! instructions, loads, stores) of the instrumented interpreter.
//!
//! This is the executable statement of the VM's contract: lowering is a
//! pure representation change — same semantics, same cost model, less
//! dispatch overhead. The workload matrix is the shared
//! `grafter_workloads::case_studies()` descriptor, so these tests always
//! cover exactly the case studies `perfbench` measures.

use grafter::{Compiled, FuseOptions};
use grafter_engine::Engine;
use grafter_runtime::{with_stack, Heap, Metrics, NodeId, SnapValue, Value};
use grafter_vm::Backend;
use grafter_workloads::{case_studies, kdtree};

/// Runs one engine on a freshly built tree.
fn run(
    engine: &Engine,
    build: &dyn Fn(&mut Heap) -> NodeId,
) -> (Vec<(String, Vec<SnapValue>)>, Metrics) {
    let mut session = engine.session();
    let root = session.build_tree(build);
    let report = session.run(root).unwrap();
    (session.snapshot(root), report.metrics)
}

/// Fuses `passes` both ways; for each artifact the two backends must
/// agree on the final tree and on every counter.
fn check_workload(
    name: &str,
    compiled: &Compiled,
    root_class: &str,
    passes: &[&str],
    args: &[Vec<Value>],
    build: &dyn Fn(&mut Heap) -> NodeId,
) {
    let engine_with = |opts: &FuseOptions, backend: Backend| {
        Engine::builder()
            .compiled(compiled.clone())
            .entry(root_class, passes)
            .fusion(opts.clone())
            .backend(backend)
            .args(args.to_vec())
            .build()
            .unwrap()
    };
    for (kind, opts) in [
        ("fused", FuseOptions::default()),
        ("unfused", FuseOptions::unfused()),
    ] {
        let (snap_i, m_i) = run(&engine_with(&opts, Backend::Interp), build);
        let (snap_v, m_v) = run(&engine_with(&opts, Backend::Vm), build);
        assert_eq!(
            snap_i, snap_v,
            "{name}/{kind}: interp and vm heap states diverge"
        );
        assert_eq!(
            m_i.visits, m_v.visits,
            "{name}/{kind}: visit counts diverge"
        );
        assert_eq!(m_i, m_v, "{name}/{kind}: metrics diverge");
    }
}

#[test]
fn all_case_studies_match_interp_fused_and_unfused() {
    with_stack(64 << 20, || {
        for case in case_studies() {
            check_workload(
                case.name,
                &case.compiled,
                case.root_class,
                &case.passes,
                &case.args,
                &|heap| case.build_test(heap),
            );
        }
    });
}

#[test]
fn kdtree_vm_matches_interp_on_every_equation() {
    // Beyond the shared matrix's first equation: all three piecewise
    // schedules of Table 6.
    with_stack(64 << 20, || {
        let compiled = kdtree::compiled();
        for (eq_name, schedule) in kdtree::equation_schedules() {
            let passes: Vec<&str> = schedule.iter().map(|op| op.pass()).collect();
            let args: Vec<Vec<Value>> = schedule.iter().map(|op| op.args()).collect();
            check_workload(
                &format!("kdtree/{eq_name}"),
                &compiled,
                kdtree::ROOT_CLASS,
                &passes,
                &args,
                &|heap| kdtree::build_balanced(heap, 8, 42),
            );
        }
    });
}

#[test]
fn nan_fields_stay_differentially_comparable() {
    // A traversal that manufactures NaN (0.0/0.0) and Inf on the tree:
    // `SnapValue` equality is bit-level, so structurally identical trees
    // carrying NaN must still satisfy the fused==unfused and interp==vm
    // differential contracts instead of spuriously failing on NaN != NaN.
    let src = r#"
        tree class N {
            child N* next;
            float num = 0.0;
            float den = 0.0;
            float q = 0.0;
            virtual traversal divide() {}
            virtual traversal scale() {}
        }
        tree class C : N {
            traversal divide() { q = this->num / this->den; this->next->divide(); }
            traversal scale() { num = this->num * 2.0; this->next->scale(); }
        }
        tree class E : N { }
    "#;
    let compiled = Compiled::compile(src).unwrap();
    let build: &dyn Fn(&mut Heap) -> NodeId = &|heap| {
        // Slot 0: 0.0/0.0 = NaN; slot 1: 1.0/0.0 = Inf; slot 2: finite.
        let nums = [0.0, 1.0, 3.0];
        let dens = [0.0, 0.0, 2.0];
        let mut cur = heap.alloc_by_name("E").unwrap();
        for (&num, &den) in nums.iter().zip(&dens).rev() {
            let c = heap.alloc_by_name("C").unwrap();
            heap.set_by_name(c, "num", Value::Float(num)).unwrap();
            heap.set_by_name(c, "den", Value::Float(den)).unwrap();
            heap.set_child_by_name(c, "next", Some(cur)).unwrap();
            cur = c;
        }
        cur
    };
    check_workload("nan", &compiled, "N", &["divide", "scale"], &[], build);
    // The trees really do carry NaN: snapshots must still self-compare.
    let engine = Engine::builder()
        .compiled(compiled)
        .entry("N", &["divide", "scale"])
        .build()
        .unwrap();
    let (snap, _) = run(&engine, build);
    let q = &snap[0].1[3];
    assert!(
        matches!(q, SnapValue::Float(f) if f.is_nan()),
        "expected NaN in the quotient slot, got {q:?}"
    );
    assert_eq!(snap, snap.clone(), "NaN snapshot must equal itself");
}

#[test]
fn harness_equivalence_holds_on_the_vm_backend() {
    // The workloads harness itself, switched to the VM tier with one
    // argument: fused and unfused VM runs leave identical trees.
    let cases = case_studies();
    let render = &cases[1];
    assert_eq!(render.name, "render");
    let build = render.build;
    let exp = grafter_workloads::harness::Experiment::new(
        render.compiled.clone(),
        render.root_class,
        &render.passes,
        move |heap| build(heap, 10, 7),
    )
    .with_backend(Backend::Vm);
    assert!(exp.check_equivalence());
}
