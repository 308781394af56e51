//! Parallel-vs-sequential differential suite for intra-tree parallelism.
//!
//! The contract under test: a parallel run (`Session::with_parallel`)
//! changes wall time and nothing else. For every case study, every
//! execution tier, and worker counts {1, 2, 4}, the heap snapshot,
//! [`Metrics`](grafter_runtime::Metrics), globals, and cache stats of a
//! parallel run must be bit-identical to the sequential run — the fork
//! orchestrator shards the heap per certified sibling subtree and merges
//! back in sibling order, so even simulated addresses agree.
//!
//! Also covered: a dependence-carrying workload (both children fold into
//! one global accumulator) that the analyzer must refuse to certify, the
//! cache-attached path (always sequential, still bit-identical), and a
//! fork-actually-happened check against the process-wide pool counters.

use grafter_engine::{pool_stats, Backend, Engine, JitMode, ParallelOptions, Report};
use grafter_runtime::with_stack;
use grafter_workloads::case_studies;

const STACK: usize = 64 << 20;

type Snapshot = Vec<(String, Vec<grafter_runtime::SnapValue>)>;

/// Aggressive options: consider every subtree worth a shard, so
/// test-sized trees actually scatter instead of hiding behind the
/// production `seq_cutoff`.
fn aggressive(workers: usize) -> ParallelOptions {
    ParallelOptions {
        seq_cutoff: 1,
        ..ParallelOptions::with_workers(workers)
    }
}

fn run_one(
    engine: &Engine,
    build: &(impl Fn(&mut grafter_runtime::Heap) -> grafter_runtime::NodeId + Sync),
    parallel: Option<ParallelOptions>,
) -> (Snapshot, Report) {
    let mut session = engine.session();
    if let Some(par) = parallel {
        session = session.with_parallel(par);
    }
    let root = session.build_tree(build);
    let report = session.run(root).expect("run succeeds");
    (session.snapshot(root), report)
}

fn assert_identical(seq: &(Snapshot, Report), par: &(Snapshot, Report), what: &str) {
    assert_eq!(seq.0, par.0, "{what}: heap snapshot diverged");
    assert_eq!(seq.1.metrics, par.1.metrics, "{what}: metrics diverged");
    assert_eq!(seq.1.globals, par.1.globals, "{what}: globals diverged");
    assert_eq!(seq.1.cache, par.1.cache, "{what}: cache stats diverged");
}

/// Every case study × tier × worker count: parallel == sequential, bit
/// for bit.
#[test]
fn parallel_matches_sequential_across_cases_and_tiers() {
    with_stack(STACK, || {
        let backends = [Backend::Interp, Backend::Vm, Backend::Jit(JitMode::Counted)];
        for case in case_studies() {
            for backend in backends {
                let engine = case.engine(backend);
                let build = |heap: &mut grafter_runtime::Heap| case.build_test(heap);
                let seq = run_one(&engine, &build, None);
                for workers in [1usize, 2, 4] {
                    let par = run_one(&engine, &build, Some(aggressive(workers)));
                    let what = format!("{} on {:?} with {} workers", case.name, backend, workers);
                    assert_identical(&seq, &par, &what);
                }
            }
        }
    });
}

/// JIT release mode reports visits only; the parallel path must preserve
/// exactly that shape (interpreted fork levels must not leak full
/// instruction counts into the release report).
#[test]
fn parallel_matches_sequential_jit_release() {
    with_stack(STACK, || {
        for case in case_studies() {
            let engine = case.engine(Backend::Jit(JitMode::Release));
            let build = |heap: &mut grafter_runtime::Heap| case.build_test(heap);
            let seq = run_one(&engine, &build, None);
            let par = run_one(&engine, &build, Some(aggressive(4)));
            assert_identical(&seq, &par, &format!("{} on Jit(Release)", case.name));
            assert_eq!(par.1.metrics.instructions, 0, "release reports visits only");
        }
    });
}

/// Both children fold into one global accumulator — a loop-carried
/// dependence through `SUM` — so the analyzer must refuse to certify any
/// parallel run, and the parallel session must fall back to sequential
/// execution with identical results.
#[test]
fn dependence_carrying_workload_is_refused() {
    let src = r#"
        global float SUM = 0.0;

        tree class Node {
            child Node* left;
            child Node* right;
            float val = 1.0;
            virtual traversal accumulate() {}
        }
        tree class Inner : Node {
            traversal accumulate() {
                SUM = SUM + val;
                this->left->accumulate();
                this->right->accumulate();
            }
        }
        tree class Leaf : Node {
            traversal accumulate() {
                SUM = SUM + val;
            }
        }
    "#;
    let engine = Engine::builder()
        .source(src)
        .entry("Node", &["accumulate"])
        .backend(Backend::Vm)
        .build()
        .expect("engine builds");
    assert!(
        !engine.fused_program().par.any_parallel(),
        "global-accumulator traversal must not be certified parallel-safe"
    );

    fn build(heap: &mut grafter_runtime::Heap, depth: u32) -> grafter_runtime::NodeId {
        if depth == 0 {
            return heap.alloc_by_name("Leaf").expect("alloc leaf");
        }
        let node = heap.alloc_by_name("Inner").expect("alloc inner");
        let left = build(heap, depth - 1);
        let right = build(heap, depth - 1);
        heap.set_child_by_name(node, "left", Some(left)).unwrap();
        heap.set_child_by_name(node, "right", Some(right)).unwrap();
        node
    }

    let builder = |heap: &mut grafter_runtime::Heap| build(heap, 6);
    let seq = run_one(&engine, &builder, None);
    let par = run_one(&engine, &builder, Some(aggressive(4)));
    assert_identical(&seq, &par, "dependence-carrying accumulator");
    assert_eq!(
        seq.1.global("SUM"),
        par.1.global("SUM"),
        "accumulated global must agree"
    );
}

/// A cache-attached session is inherently address-ordered, so the engine
/// ignores the parallel request and stays sequential — and bit-identical,
/// including the simulated cache traffic.
#[test]
fn cache_attached_sessions_stay_sequential() {
    with_stack(STACK, || {
        let case = case_studies()
            .into_iter()
            .find(|c| c.name == "kdtree")
            .expect("kdtree case exists");
        let engine = case.engine(Backend::Vm);
        let build = |heap: &mut grafter_runtime::Heap| case.build_test(heap);

        let cache = grafter_cachesim::CacheHierarchy::xeon();
        let mut seq_sess = engine.session().with_cache(cache.clone());
        let root = seq_sess.build_tree(build);
        let seq = seq_sess.run(root).expect("sequential cache run");
        let seq_snap = seq_sess.snapshot(root);

        let mut par_sess = engine
            .session()
            .with_cache(cache)
            .with_parallel(aggressive(4));
        let root = par_sess.build_tree(build);
        let par = par_sess.run(root).expect("parallel-requested cache run");
        let par_snap = par_sess.snapshot(root);

        assert!(seq.cache.is_some(), "cache stats reported");
        assert_eq!(seq_snap, par_snap, "cache-attached snapshot diverged");
        assert_eq!(seq.metrics, par.metrics, "cache-attached metrics diverged");
        assert_eq!(seq.cache, par.cache, "simulated cache traffic diverged");
    });
}

/// The parallel path must actually fork: at least one case study has a
/// certified parallel-safe run, and running it with multiple workers
/// pushes jobs through the process-wide pool.
#[test]
fn parallel_run_actually_forks() {
    with_stack(STACK, || {
        let case = case_studies()
            .into_iter()
            .find(|c| c.name == "kdtree")
            .expect("kdtree case exists");
        let engine = case.engine(Backend::Vm);
        assert!(
            engine.fused_program().par.any_parallel(),
            "kdtree must have a certified parallel-safe call run"
        );

        let before = pool_stats().jobs_executed;
        let build = |heap: &mut grafter_runtime::Heap| case.build_test(heap);
        let _ = run_one(&engine, &build, Some(aggressive(4)));
        let after = pool_stats().jobs_executed;
        assert!(
            after > before,
            "a 4-worker run over a certified program must submit pool jobs \
             (before={before}, after={after})"
        );
    });
}
