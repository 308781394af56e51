//! End-to-end protocol tests against a live in-process daemon: every
//! edge case a hostile or buggy client can produce must fail *typed* —
//! the connection (and always the daemon) survives, sessions don't leak,
//! and subsequent requests work.

use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use grafter_engine::{Backend, FusionOptions, OptLevel, ParallelOptions};
use grafter_obs::json::{parse, Json};
use grafter_runtime::Value;
use grafter_server::proto::{
    render_bare, render_explain, render_run, render_run_batch, render_run_with, write_frame,
    FrameReader, Incoming, InputSpec, ProgramSpec, TreeSpec, MAX_BODY,
};
use grafter_server::{Daemon, DaemonOptions};

const SRC: &str = "tree class N { int a = 0; virtual traversal t() { a = a + 1; } }";

fn program() -> ProgramSpec {
    ProgramSpec {
        source: SRC.to_string(),
        root: "N".to_string(),
        passes: vec!["t".to_string()],
        backend: Backend::Vm,
        opt_level: OptLevel::default(),
        fusion: FusionOptions::default(),
        args: Vec::new(),
    }
}

fn leaf() -> InputSpec {
    InputSpec::Tree(TreeSpec {
        class: "N".to_string(),
        fields: vec![("a".to_string(), Value::Int(0))],
        children: Vec::new(),
    })
}

/// A daemon serving on an ephemeral port until `shutdown` flips.
fn spawn_daemon() -> (SocketAddr, Arc<AtomicBool>, thread::JoinHandle<()>) {
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            cache_capacity: 8,
            workers: 2,
        },
    )
    .expect("bind ephemeral port");
    let addr = daemon.local_addr().expect("resolved address");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = thread::spawn(move || daemon.serve(&flag).expect("serve"));
    (addr, shutdown, handle)
}

struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: FrameReader::new(stream.try_clone().expect("clone stream")),
            writer: BufWriter::new(stream),
        }
    }

    /// Writes raw bytes (deliberately malformed frames).
    fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send raw");
        self.writer.flush().expect("flush raw");
    }

    fn recv(&mut self) -> Json {
        loop {
            match self.reader.read_frame().expect("read response frame") {
                Incoming::Frame(body) => return parse(&body).expect("parse response"),
                Incoming::Idle => {}
                Incoming::Closed => panic!("daemon closed the connection"),
            }
        }
    }

    fn call(&mut self, body: &str) -> Json {
        write_frame(&mut self.writer, body).expect("send frame");
        self.recv()
    }
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

fn error_stage(doc: &Json) -> &str {
    doc.get("error")
        .and_then(|e| e.get("stage"))
        .and_then(Json::as_str)
        .expect("error stage")
}

/// Extracts a response's `fusion` coverage object as (fused, missed,
/// blocked), asserting all three keys are present numbers.
fn fusion_counts(doc: &Json) -> (u64, u64, u64) {
    let f = doc.get("fusion").expect("fusion object");
    let n = |key: &str| f.get(key).and_then(Json::as_num).expect(key) as u64;
    (n("fused"), n("missed"), n("blocked"))
}

#[test]
fn ping_run_and_batch_round_trip() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let pong = client.call(&render_bare("ping"));
    assert!(is_ok(&pong));

    let report = client.call(&render_run(&program(), &leaf()));
    assert!(is_ok(&report), "run failed: {report:?}");
    let visits = report
        .get("report")
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get("visits"))
        .and_then(Json::as_num)
        .expect("report.metrics.visits");
    assert_eq!(visits as u64, 1, "one leaf, one visit");
    // Single-pass program: the run's fusion coverage object is present
    // with all-zero pair counts.
    assert_eq!(fusion_counts(&report), (0, 0, 0));

    // A batch streams back ordered chunks then a done frame.
    let inputs: Vec<InputSpec> = (0..5).map(|_| leaf()).collect();
    write_frame(
        &mut client.writer,
        &render_run_batch(&program(), &inputs, 4),
    )
    .expect("send batch");
    let mut seen = 0;
    let mut last_first = None;
    loop {
        let frame = client.recv();
        assert!(is_ok(&frame), "batch frame failed: {frame:?}");
        if matches!(frame.get("done"), Some(Json::Bool(true))) {
            assert_eq!(
                frame.get("total").and_then(Json::as_num).map(|n| n as u64),
                Some(5)
            );
            break;
        }
        let first = frame.get("first").and_then(Json::as_num).expect("first") as usize;
        if let Some(prev) = last_first {
            assert!(first > prev, "chunks must arrive in input order");
        }
        last_first = Some(first);
        seen += frame
            .get("results")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
    }
    assert_eq!(seen, 5);

    let stats = client.call(&render_bare("stats"));
    assert!(is_ok(&stats));
    // Stats aggregate coverage over resident engines; only the one
    // zero-pair engine is cached here.
    assert_eq!(fusion_counts(&stats), (0, 0, 0));
    let misses = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_num)
        .expect("cache.misses");
    assert_eq!(misses as u64, 1, "run and batch share one cached engine");
    let pool = stats.get("pool").expect("pool stats");
    let busy = pool.get("busy").and_then(Json::as_num).expect("pool.busy");
    let idle = pool.get("idle").and_then(Json::as_num).expect("pool.idle");
    let threads = pool
        .get("threads")
        .and_then(Json::as_num)
        .expect("pool.threads");
    assert_eq!(
        busy + idle,
        threads,
        "busy and idle gauges partition the pool"
    );

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn malformed_json_and_unknown_method_are_typed_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let resp = client.call("this is not json");
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    let resp = client.call("{\"method\":\"teleport\"}");
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    // Schema violation inside a known method.
    let resp = client.call("{\"method\":\"run\"}");
    assert!(!is_ok(&resp));

    // A compile error is typed with its pipeline stage.
    let mut bad = program();
    bad.source = "tree class N { this does not parse }".to_string();
    let resp = client.call(&render_run(&bad, &leaf()));
    assert!(!is_ok(&resp));
    assert_ne!(
        error_stage(&resp),
        "proto",
        "compile errors carry their stage"
    );

    // The same connection still works.
    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn oversized_body_is_refused_but_connection_survives() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let huge = "x".repeat(MAX_BODY + 1);
    let mut frame = Vec::with_capacity(huge.len() + 16);
    frame.extend_from_slice(format!("{}\n", huge.len()).as_bytes());
    frame.extend_from_slice(huge.as_bytes());
    frame.push(b'\n');
    client.send_raw(&frame);

    let resp = client.recv();
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("message")
            .contains("cap"),
        "error names the body cap"
    );

    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn bad_utf8_body_is_typed_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    client.send_raw(b"4\n\xff\xfeab\n");
    let resp = client.recv();
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");

    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn deeply_nested_frame_is_typed_and_survivable() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // 1 MiB of `[`: nesting far beyond the parser's depth cap.
    let resp = client.call(&"[".repeat(1 << 20));
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "proto");
    assert!(
        resp.get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("message")
            .contains("nesting deeper than"),
        "error names the depth cap"
    );

    assert!(is_ok(&client.call(&render_bare("ping"))));

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn mid_stream_disconnect_does_not_kill_the_daemon() {
    let (addr, shutdown, handle) = spawn_daemon();

    // Kick off a batch big enough for several chunk frames, read one
    // frame, then vanish.
    {
        let mut client = Client::connect(addr);
        let inputs: Vec<InputSpec> = (0..40).map(|_| leaf()).collect();
        write_frame(
            &mut client.writer,
            &render_run_batch(&program(), &inputs, 4),
        )
        .expect("send batch");
        let first = client.recv();
        assert!(is_ok(&first));
        // Dropped here: mid-stream disconnect.
    }

    // The daemon keeps serving: a fresh connection completes a full
    // batch with every result accounted for.
    let mut client = Client::connect(addr);
    let inputs: Vec<InputSpec> = (0..10).map(|_| leaf()).collect();
    write_frame(
        &mut client.writer,
        &render_run_batch(&program(), &inputs, 4),
    )
    .expect("send batch");
    let mut seen = 0;
    loop {
        let frame = client.recv();
        assert!(is_ok(&frame));
        if matches!(frame.get("done"), Some(Json::Bool(true))) {
            break;
        }
        seen += frame
            .get("results")
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
    }
    assert_eq!(seen, 10, "post-disconnect batches are complete");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn unknown_workload_and_oversized_gen_are_config_errors() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    let resp = client.call(&render_run(
        &program(),
        &InputSpec::Gen {
            workload: "btree".to_string(),
            size: 8,
            seed: 1,
        },
    ));
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "config");

    // A kdtree depth that would OOM the daemon is refused up front.
    let resp = client.call(&render_run(
        &program(),
        &InputSpec::Gen {
            workload: "kdtree".to_string(),
            size: 48,
            seed: 1,
        },
    ));
    assert!(!is_ok(&resp));
    assert_eq!(error_stage(&resp), "config");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

#[test]
fn shutdown_waits_for_a_partially_received_request() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);
    let body = render_bare("ping");

    // Send only the length header, flip shutdown, then finish the frame
    // within the grace period: the in-flight request must still be
    // answered before the daemon exits.
    client.send_raw(format!("{}\n", body.len()).as_bytes());
    thread::sleep(Duration::from_millis(120));
    shutdown.store(true, Ordering::SeqCst);
    thread::sleep(Duration::from_millis(120));
    client.send_raw(format!("{body}\n").as_bytes());

    let resp = client.recv();
    assert!(is_ok(&resp), "in-flight request answered during drain");

    handle.join().expect("daemon drains and exits");
}

/// The `explain` method compiles (or reuses) the program's engine and
/// returns its per-pair verdicts; a subsequent `run` and `stats` report
/// matching coverage counts.
#[test]
fn explain_round_trips_verdicts_and_matches_run_coverage() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // Two independent same-receiver calls: one pair per recursion depth,
    // all fused under default options.
    let mut fusable = program();
    fusable.source = "tree class Node { child Node* next; int a = 0; virtual traversal go() {} } \
                      tree class Cons : Node { traversal go() { a = a + 1; this->next->go(); \
                      this->next->go(); } } \
                      tree class End : Node { }"
        .to_string();
    fusable.root = "Node".to_string();
    fusable.passes = vec!["go".to_string()];

    let resp = client.call(&render_explain(&fusable));
    assert!(is_ok(&resp), "explain failed: {resp:?}");
    let explain = resp.get("explain").expect("explain document");
    let totals = explain.get("totals").expect("totals");
    let fused = totals.get("fused").and_then(Json::as_num).expect("fused") as u64;
    assert!(fused >= 1, "the pair program fuses at least one pair");
    let pairs = explain.get("pairs").and_then(Json::as_arr).expect("pairs");
    assert!(!pairs.is_empty());
    for p in pairs {
        assert!(p.get("verdict").and_then(Json::as_str).is_some());
        assert!(p.get("reason").and_then(Json::as_str).is_some());
        assert!(p.get("left").and_then(|l| l.get("span")).is_some());
    }

    // A run on the same program reports the same coverage, and the
    // explain-built engine is reused (same cache key).
    let report = client.call(&render_run(
        &fusable,
        &InputSpec::Tree(TreeSpec {
            class: "End".to_string(),
            fields: Vec::new(),
            children: Vec::new(),
        }),
    ));
    assert!(is_ok(&report), "run failed: {report:?}");
    let (run_fused, run_missed, run_blocked) = fusion_counts(&report);
    assert_eq!(run_fused, fused);

    let stats = client.call(&render_bare("stats"));
    assert!(is_ok(&stats));
    let misses = stats
        .get("cache")
        .and_then(|c| c.get("misses"))
        .and_then(Json::as_num)
        .expect("cache.misses");
    assert_eq!(misses as u64, 1, "explain and run share one cached engine");
    assert_eq!(fusion_counts(&stats), (run_fused, run_missed, run_blocked));

    // Explain on a broken program is a typed compile error.
    let mut bad = program();
    bad.source = "tree class N { nonsense }".to_string();
    let resp = client.call(&render_explain(&bad));
    assert!(!is_ok(&resp));
    assert_ne!(error_stage(&resp), "proto");

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}

/// A `run` with the `parallel` field must return the same report as a
/// sequential run of the same input — parallelism is server-side wall
/// time only, never a response change.
#[test]
fn parallel_run_matches_sequential_over_the_wire() {
    let (addr, shutdown, handle) = spawn_daemon();
    let mut client = Client::connect(addr);

    // Use a generated kdtree input against the real case-study program:
    // fetch its source from the workload crate so the daemon compiles
    // the same engine the differential suite exercises.
    let case = grafter_workloads::case_studies()
        .into_iter()
        .find(|c| c.name == "kdtree")
        .expect("kdtree case");
    let program = ProgramSpec {
        source: case.source.to_string(),
        root: case.root_class.to_string(),
        passes: case.passes.iter().map(|s| (*s).to_string()).collect(),
        backend: Backend::Vm,
        opt_level: OptLevel::default(),
        fusion: FusionOptions::default(),
        args: case.args.clone(),
    };
    let input = InputSpec::Gen {
        workload: "kdtree".to_string(),
        size: 8,
        seed: 42,
    };

    let seq = client.call(&render_run(&program, &input));
    assert!(is_ok(&seq), "sequential run failed: {seq:?}");
    let par_opts = ParallelOptions {
        workers: 4,
        fork_depth: 4,
        seq_cutoff: 1,
    };
    let par = client.call(&render_run_with(&program, &input, Some(&par_opts)));
    assert!(is_ok(&par), "parallel run failed: {par:?}");

    // Bit-identical everywhere except wall time.
    for key in ["metrics", "globals", "backend"] {
        assert_eq!(
            format!("{:?}", seq.get("report").and_then(|r| r.get(key))),
            format!("{:?}", par.get("report").and_then(|r| r.get(key))),
            "report.{key} diverged between sequential and parallel"
        );
    }

    shutdown.store(true, Ordering::SeqCst);
    drop(client);
    handle.join().expect("daemon thread");
}
