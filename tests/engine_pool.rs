//! The persistent batch worker pool: steady-state batches spawn zero
//! threads, panicking inputs poison only their own pooled session, the
//! streamed API delivers the same results in input order under a
//! bounded window, and a batch submitted from a pool worker completes
//! instead of waiting on the pool it occupies.

use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use grafter_engine::{pool_stats, Backend, BatchOptions, Engine};
use grafter_runtime::Heap;
use grafter_workloads::case_studies;

fn list_engine() -> Engine {
    let src = r#"
        tree class Node {
            child Node* next;
            int a = 0;
            virtual traversal inc() {}
        }
        tree class Cons : Node {
            traversal inc() { a = a + 1; this->next->inc(); }
        }
        tree class End : Node { }
    "#;
    Engine::builder()
        .source(src)
        .entry("Node", &["inc"])
        .backend(Backend::Vm)
        .build()
        .expect("list program compiles")
}

fn list_of(len: usize) -> impl Fn(&mut Heap) -> grafter_runtime::NodeId {
    move |heap: &mut Heap| {
        let mut node = heap.alloc_by_name("End").unwrap();
        for _ in 0..len {
            let cons = heap.alloc_by_name("Cons").unwrap();
            heap.set_child_by_name(cons, "next", Some(node)).unwrap();
            node = cons;
        }
        node
    }
}

#[test]
fn steady_state_batches_spawn_zero_threads() {
    let engine = list_engine();
    let opts = BatchOptions::with_workers(4);
    let inputs = |n: usize| (0..n).map(|_| list_of(16)).collect::<Vec<_>>();

    // Warm-up grows the pool.
    engine
        .run_batch_with(inputs(8), &opts)
        .expect("warm-up batch");
    let warm = pool_stats();
    assert!(warm.spawned_total >= 4, "pool grew to the requested width");

    // Steady state: many more batches, zero new threads.
    for _ in 0..5 {
        let reports = engine.run_batch_with(inputs(8), &opts).expect("batch");
        assert_eq!(reports.len(), 8);
        assert!(reports.iter().all(|r| r.global("a").is_none()));
    }
    let steady = pool_stats();
    assert_eq!(
        steady.spawned_total, warm.spawned_total,
        "steady-state batches must not spawn threads"
    );
    assert!(steady.jobs_executed > warm.jobs_executed);
}

#[test]
fn panicking_input_poisons_only_its_session() {
    let engine = list_engine();
    let n = 12;
    let panic_at = 5;
    type Input = Box<dyn FnOnce(&mut Heap) -> grafter_runtime::NodeId + Send>;
    let inputs: Vec<Input> = (0..n)
        .map(|i| {
            let build = list_of(8);
            let f: Input = if i == panic_at {
                Box::new(move |_: &mut Heap| panic!("request {panic_at} exploded"))
            } else {
                Box::new(move |heap: &mut Heap| build(heap))
            };
            f
        })
        .collect();

    let results = engine.try_run_batch(inputs, &BatchOptions::with_workers(3));
    assert_eq!(results.len(), n);
    for (i, result) in results.iter().enumerate() {
        if i == panic_at {
            let err = result.as_ref().expect_err("panicking input must error");
            let rendered = err.to_string();
            assert!(
                rendered.contains("worker panicked") && rendered.contains("exploded"),
                "typed runtime error names the panic: {rendered}"
            );
        } else {
            let report = result.as_ref().expect("other inputs unaffected");
            assert_eq!(report.metrics.visits, 9, "8 Cons + 1 End");
        }
    }

    // The engine (and pool) survive: the next batch is clean and
    // bit-identical to an unpoisoned run.
    let clean = engine
        .run_batch_with(
            (0..4).map(|_| list_of(8)).collect(),
            &BatchOptions::with_workers(3),
        )
        .expect("post-panic batch");
    assert!(clean.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn streamed_batches_arrive_in_order_with_bounded_window() {
    let engine = list_engine();
    for window in [1, 2, 7] {
        let n = 17;
        let mut seen = Vec::new();
        engine.run_batch_streamed(
            (0..n).map(|i| list_of(4 + (i % 3))).collect(),
            &BatchOptions::with_workers(4),
            window,
            |i, result| seen.push((i, result.expect("streamed input runs"))),
        );
        let order: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>(), "window={window}");

        // Same results as the collect-everything API, element for element.
        let collected = engine
            .run_batch_with(
                (0..n).map(|i| list_of(4 + (i % 3))).collect(),
                &BatchOptions::with_workers(4),
            )
            .expect("reference batch");
        for (i, (idx, report)) in seen.into_iter().enumerate() {
            assert_eq!(i, idx);
            assert_eq!(report, collected[i], "window={window} input {i}");
        }
    }
}

#[test]
fn case_study_batches_stay_bit_identical_through_the_pool() {
    for case in case_studies() {
        let engine = case.engine(Backend::Vm);
        let build = case.build;
        let size = case.test_size;
        let inputs: Vec<_> = (0..6)
            .map(|_| move |heap: &mut Heap| build(heap, size, 42))
            .collect();
        let reports = engine
            .run_batch_with(inputs, &BatchOptions::with_workers(3))
            .unwrap_or_else(|e| panic!("{}: batch failed: {e}", case.name));
        assert!(
            reports.windows(2).all(|w| w[0] == w[1]),
            "{}: pooled batch reports must be bit-identical",
            case.name
        );
    }
}

/// Tree builders run on pool workers. A builder that submits a batch of
/// its own must not wait on the pool it occupies: that batch runs on
/// dedicated threads, completes, and its reports are the ones a batch
/// from any other thread would return. A deadlock fails the test after
/// a generous timeout instead of hanging the suite (the stuck submitter
/// is then left unjoined).
#[test]
fn batch_from_a_tree_builder_on_a_pool_worker_completes() {
    let inner_lens = [3usize, 5, 7];
    let (tx, rx) = mpsc::channel();
    let submitter = thread::spawn(move || {
        let engine = list_engine();
        let engine_ref = &engine;
        let inputs: Vec<_> = (0..4)
            .map(|i| {
                move |heap: &mut Heap| {
                    let inner = engine_ref
                        .run_batch_with(
                            inner_lens.iter().map(|&len| list_of(len + i)).collect(),
                            &BatchOptions::with_workers(2),
                        )
                        .expect("nested batch runs");
                    // The outer tree's length carries the nested reports
                    // into the outer report, so wrong nested results show.
                    let visits: u64 = inner.iter().map(|r| r.metrics.visits).sum();
                    list_of(visits as usize)(heap)
                }
            })
            .collect();
        let _ = tx.send(engine.run_batch_with(inputs, &BatchOptions::with_workers(4)));
    });
    let reports = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a batch submitted from a pool worker deadlocked the pool")
        .expect("outer batch runs");
    submitter.join().expect("submitting thread finishes");
    assert_eq!(reports.len(), 4);
    for (i, report) in reports.iter().enumerate() {
        // A list of `len` cons cells visits `len + 1` nodes (the end node
        // included).
        let inner_visits: usize = inner_lens.iter().map(|&len| len + i + 1).sum();
        assert_eq!(
            report.metrics.visits as usize,
            inner_visits + 1,
            "input {i}: nested batch reports reached the outer tree"
        );
    }
}
