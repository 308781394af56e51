//! The `serve` workload: grafterd under a closed loop of two clients.
//!
//! The daemon (the `grafter_server` library, the same code the `grafterd`
//! binary runs) serves on an ephemeral localhost port with two pool
//! workers. Two client threads, one connection each, wait for every reply
//! before sending the next request, as `grafter-load` and `grafterc` do.
//! Every request is a `run` of a program, fused, VM tier, `O2`. Each
//! client repeats a cycle of [`CYCLE`] requests, fixed by request index:
//!
//! - **cached** (20 of 22): the program's cached engine on a `gen` input
//!   at bench size, as `grafter-load`'s steady phase sends, whose seed is
//!   drawn per request from a per-program pool;
//! - **inline** (1 of 22): an inline tree at test size shipped over the
//!   wire;
//! - **uncached** (1 of 22): a fresh source variant on a bench-size `gen`
//!   input, as `grafter-load`'s uncached phase sends (a unique comment
//!   changes the engine-cache key), which compiles on the request path.
//!
//! Each kind rotates over the four programs. Latencies are grouped by
//! program and kind, and the end-to-end metrics weigh every group alike
//! (see [`crate::stats`]), so the shares do not weigh the metrics: they
//! only set how many samples each group gets in a run. One in 22 gives an
//! inline or uncached group about a dozen samples in a 30 s run. Decoding
//! an inline test-size tree costs the daemon 75 ms (`kdtree`) to 700 ms
//! (`fmm`), against 6 to 40 ms for a cached bench-size run, so inline
//! requests take about half of the run's time.
//!
//! Every response is checked, outside its timed region, against an
//! in-process run of the same program on the same input.

use std::io::{self, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use grafter_engine::{Backend, FusionOptions, OptLevel};
use grafter_obs::json::{parse, Json};
use grafter_runtime::{Heap, NodeId, Value};
use grafter_server::proto::{
    build_tree_spec, render_bare, render_run, render_run_batch, write_frame, FrameReader, Incoming,
    InputSpec, ProgramSpec, TreeSpec,
};
use grafter_server::{Daemon, DaemonOptions};
use grafter_workloads::CaseStudy;

use crate::budget::Budget;
use crate::cases::{engine, stream_seed, streams, tree, WORKERS};
use crate::oracle::{check_response, Tally, WireOutcome};
use crate::speed;
use crate::stats::{mix, ms, Groups};
use crate::trace::Tracer;

/// Distinct `gen` seeds per program (each with an in-process reference).
const GEN_POOL: usize = 16;
/// Distinct inline trees per program: about one per inline request of a
/// run, so the inline groups' lower deciles do not hang on one tree.
const INLINE_POOL: usize = 16;
/// Requests per cycle of one client: one inline, one uncached, the rest
/// cached.
pub const CYCLE: usize = 22;

/// Request kinds, in metric-name order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Cached,
    Inline,
    Uncached,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Cached, Kind::Inline, Kind::Uncached];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cached => "cached",
            Kind::Inline => "inline",
            Kind::Uncached => "uncached",
        }
    }

    /// The kind of request number `j` of client `c`: the cycle's first
    /// request is inline, its middle one uncached, the rest cached.
    /// Client 1's cycle starts a quarter cycle later, so the two clients
    /// seldom send their slow requests together.
    fn of(j: usize, c: usize) -> Kind {
        match (j + c * CYCLE / 4) % CYCLE {
            0 => Kind::Inline,
            k if k == CYCLE / 2 => Kind::Uncached,
            _ => Kind::Cached,
        }
    }
}

/// One pre-rendered request and the outcome its response must carry.
struct Prepared {
    body: String,
    want: WireOutcome,
}

/// One program's wire spec and request pools.
struct ProgramPool {
    name: &'static str,
    spec: ProgramSpec,
    /// The size of `gen` inputs: the program's bench size.
    size: usize,
    gen_seeds: Vec<u64>,
    cached: Vec<Prepared>,
    inline: Vec<Prepared>,
}

/// A running daemon plus everything the clients send it.
pub struct Setup {
    pools: Vec<ProgramPool>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    daemon: Option<thread::JoinHandle<io::Result<()>>>,
}

impl Drop for Setup {
    /// Stops the daemon and waits for it to drain.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.daemon.take() {
            let _ = h.join();
        }
    }
}

/// One framed connection to the daemon.
pub struct Client {
    reader: FrameReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: FrameReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// Sends one request and returns the next response body.
    fn call(&mut self, body: &str) -> io::Result<String> {
        write_frame(&mut self.writer, body)?;
        self.read()
    }

    fn read(&mut self) -> io::Result<String> {
        loop {
            match self.reader.read_frame() {
                Ok(Incoming::Frame(body)) => return Ok(body),
                Ok(Incoming::Idle) => {}
                Ok(Incoming::Closed) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon hung up",
                    ))
                }
                Err(e) => return Err(io::Error::other(format!("protocol error: {e:?}"))),
            }
        }
    }

    /// One `run_batch`: reads chunk frames up to the closing `done` frame.
    fn call_batch(&mut self, body: &str) -> Result<(), String> {
        write_frame(&mut self.writer, body).map_err(|e| e.to_string())?;
        loop {
            let frame = self.read().map_err(|e| e.to_string())?;
            let doc = parse(&frame).map_err(|e| e.to_string())?;
            if doc.get("ok") != Some(&Json::Bool(true)) {
                return Err(format!("batch failed: {frame}"));
            }
            if doc.get("done") == Some(&Json::Bool(true)) {
                return Ok(());
            }
        }
    }
}

/// The daemon's counters, from its `stats` method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    pub lowerings: f64,
    pub spawned: f64,
    pub hits: f64,
    pub misses: f64,
    pub single_flight_waits: f64,
}

fn stats(client: &mut Client) -> Result<Stats, String> {
    let body = client
        .call(&render_bare("stats"))
        .map_err(|e| e.to_string())?;
    let doc = parse(&body).map_err(|e| e.to_string())?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |cur, k| cur.get(k))
            .and_then(Json::as_num)
            .ok_or_else(|| format!("stats lacks {}", path.join(".")))
    };
    Ok(Stats {
        lowerings: num(&["lowerings"])?,
        spawned: num(&["pool", "spawned_total"])?,
        hits: num(&["cache", "hits"])?,
        misses: num(&["cache", "misses"])?,
        single_flight_waits: num(&["cache", "single_flight_waits"])?,
    })
}

/// An inline wire tree equal to the heap tree under `root`. A reference
/// back to a node already emitted is left out (the wire format is a tree).
fn tree_spec(heap: &Heap, root: NodeId) -> TreeSpec {
    fn walk(heap: &Heap, id: NodeId, seen: &mut Vec<bool>) -> TreeSpec {
        seen[id.0 as usize] = true;
        let class = heap.class_of(id);
        let names = heap.layouts().slot_names(class);
        let mut spec = TreeSpec {
            class: heap.program().classes[class.index()].name.clone(),
            fields: Vec::new(),
            children: Vec::new(),
        };
        for (name, v) in names.iter().zip(heap.slots(id)) {
            match v {
                Value::Ref(Some(c)) if seen[c.0 as usize] => {}
                Value::Ref(Some(c)) => {
                    let child = walk(heap, *c, seen);
                    spec.children.push((name.clone(), Some(child)));
                }
                Value::Ref(None) => spec.children.push((name.clone(), None)),
                v => spec.fields.push((name.clone(), *v)),
            }
        }
        spec
    }
    walk(heap, root, &mut vec![false; heap.len()])
}

/// The program spec every request of `cs` carries: fused, VM tier, `O2`.
fn program_spec(cs: &CaseStudy) -> ProgramSpec {
    ProgramSpec {
        source: cs.source.to_string(),
        root: cs.root_class.to_string(),
        passes: cs.passes.iter().map(|p| p.to_string()).collect(),
        backend: Backend::Vm,
        opt_level: OptLevel::O2,
        fusion: FusionOptions::default(),
        args: cs.args.clone(),
    }
}

/// Prepares request pools with in-process references, starts the daemon
/// and warms it: one `run_batch` per program compiles its engine and grows
/// the worker pool to full width.
pub fn setup(cases: &[CaseStudy], seed: u64) -> io::Result<Setup> {
    let pools = cases
        .iter()
        .enumerate()
        .map(|(p, cs)| {
            let spec = program_spec(cs);
            let reference = engine(cs, true, Backend::Vm, None);
            let gen_seeds: Vec<u64> = (0..GEN_POOL)
                // The wire carries numbers as doubles: keep seeds exact in 53 bits.
                .map(|g| stream_seed(seed, streams::SERVE_GEN, (p * GEN_POOL + g) as u64) >> 11)
                .collect();
            let cached = gen_seeds
                .iter()
                .map(|&s| {
                    let mut session = reference.session();
                    let root = session.build_tree(tree(cs, cs.bench_size, s));
                    let report = session.run(root).expect("reference run");
                    let input = InputSpec::Gen {
                        workload: cs.name.to_string(),
                        size: cs.bench_size,
                        seed: s,
                    };
                    Prepared {
                        body: render_run(&spec, &input),
                        want: WireOutcome::of_report(&report),
                    }
                })
                .collect();
            let inline = (0..INLINE_POOL)
                .map(|i| {
                    let s = stream_seed(seed, streams::SERVE_INLINE, (p * INLINE_POOL + i) as u64);
                    let mut heap = reference.new_heap();
                    let root = tree(cs, cs.test_size, s)(&mut heap);
                    let spec_tree = tree_spec(&heap, root);
                    let mut session = reference.session();
                    let root = session.build_tree(|h| build_tree_spec(h, &spec_tree));
                    let report = session.run(root).expect("reference run");
                    Prepared {
                        body: render_run(&spec, &InputSpec::Tree(spec_tree)),
                        want: WireOutcome::of_report(&report),
                    }
                })
                .collect();
            ProgramPool {
                name: cs.name,
                spec,
                size: cs.bench_size,
                gen_seeds,
                cached,
                inline,
            }
        })
        .collect();

    let daemon = Daemon::bind(
        "127.0.0.1:0",
        DaemonOptions {
            workers: WORKERS,
            ..DaemonOptions::default()
        },
    )?;
    let addr = daemon.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = thread::Builder::new()
        .name("perfbench-grafterd".into())
        .spawn(move || daemon.serve(&flag))?;
    let setup = Setup {
        pools,
        addr,
        shutdown,
        daemon: Some(handle),
    };

    let mut client = Client::connect(addr)?;
    for (pool, cs) in setup.pools.iter().zip(cases) {
        let inputs: Vec<InputSpec> = (0..WORKERS as u64)
            .map(|k| InputSpec::Gen {
                workload: cs.name.to_string(),
                size: cs.test_size,
                seed: k,
            })
            .collect();
        client
            .call_batch(&render_run_batch(&pool.spec, &inputs, 8))
            .map_err(io::Error::other)?;
    }
    Ok(setup)
}

/// Client-side latencies and the daemon's counter deltas. Latencies and
/// throughput are speed-corrected (see [`crate::speed`]).
#[derive(Default)]
pub struct Samples {
    /// Every request's latency, grouped by `program/kind`.
    pub req_ms: Groups,
    /// Latencies per request kind (in [`Kind::ALL`] order), per program.
    pub by_kind: [Groups; 3],
    /// Completed requests per second over the phase.
    pub req_per_s: f64,
    /// `stats` after the phase minus `stats` before it.
    pub delta: Stats,
}

/// How long the clients run between two speed probes.
const SLICE: Duration = Duration::from_millis(250);

/// Slices on each side of a request whose probes correct it: a burst of
/// other tenants' load lasts seconds, a stray slow probe one slice.
const WINDOW: usize = 2;

/// What the clients and the conductor share: the clients run requests in
/// slices, and between slices, with every client parked and the daemon
/// idle, the conductor times the speed probe.
struct Slices {
    gate: Barrier,
    pause: AtomicBool,
    stop: AtomicBool,
    done: AtomicUsize,
    /// The current slice's index.
    slice: AtomicUsize,
}

/// One client's requests: kind, program, raw latency in ms, and the slice
/// the request started in.
type Latencies = Vec<(Kind, &'static str, f64, usize)>;

/// Drives the daemon with two closed-loop clients while `budget` lasts.
pub fn run(
    setup: &Setup,
    seed: u64,
    budget: Budget,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Samples {
    let mut clients: Vec<Client> = (0..WORKERS)
        .map(|_| Client::connect(setup.addr).expect("connect to the daemon"))
        .collect();
    let before = stats(&mut clients[0]);
    let per_client = budget.per_client(WORKERS);
    let slices = Slices {
        gate: Barrier::new(WORKERS + 1),
        pause: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        done: AtomicUsize::new(0),
        slice: AtomicUsize::new(0),
    };
    let phase = tracer.begin("serve", mix(seed, streams::SERVE_SCHEDULE), None);
    // per slice: the probe before it and how long it ran, in ms
    let mut probes = Vec::new();
    let mut lengths = Vec::new();
    let results: Vec<(Client, Latencies, Tally)> = thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let slices = &slices;
                scope
                    .spawn(move || drive(setup, slices, client, c, seed, per_client, tracer, phase))
            })
            .collect();
        loop {
            // daemon and clients keep both cores busy: probe both
            probes.push(speed::probe_on(WORKERS));
            slices.slice.store(lengths.len(), Ordering::SeqCst);
            slices.gate.wait();
            let start = Instant::now();
            while start.elapsed() < SLICE && slices.done.load(Ordering::SeqCst) < WORKERS {
                thread::sleep(Duration::from_millis(5));
            }
            slices.pause.store(true, Ordering::SeqCst);
            slices.gate.wait();
            lengths.push(ms(start.elapsed()));
            slices.pause.store(false, Ordering::SeqCst);
            if slices.done.load(Ordering::SeqCst) == WORKERS {
                slices.stop.store(true, Ordering::SeqCst);
                slices.gate.wait();
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    tracer.end(phase);

    // Each request is corrected by the median probe of the slices around
    // its own, so one stray probe does not skew a slice's requests.
    let probe_ms: Vec<f64> = (0..probes.len())
        .map(|i| speed::window_median(&probes, i, WINDOW))
        .collect();
    let mut s = Samples::default();
    let mut all = Vec::new();
    let mut clients = Vec::new();
    for (client, lat, t) in results {
        all.extend(lat);
        tally.absorb(t);
        clients.push(client);
    }
    let completed = all.len();
    // in the order the requests were sent, slice by slice (the tail cuts
    // each group's samples into stretches of the run)
    all.sort_by_key(|r| r.3);
    for (kind, program, raw, slice) in all {
        let x = speed::corrected(raw, probe_ms[slice]);
        s.req_ms.push(&format!("{program}/{}", kind.name()), x);
        s.by_kind[kind as usize].push(program, x);
    }
    let busy_ms: f64 = lengths
        .iter()
        .zip(&probe_ms)
        .map(|(&l, &p)| speed::corrected(l, p))
        .sum();
    s.req_per_s = completed as f64 * 1e3 / busy_ms;
    match (before, stats(&mut clients[0])) {
        (Ok(before), Ok(after)) => {
            s.delta = Stats {
                lowerings: after.lowerings - before.lowerings,
                spawned: after.spawned - before.spawned,
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                single_flight_waits: after.single_flight_waits - before.single_flight_waits,
            }
        }
        (Err(e), _) | (_, Err(e)) => tally.check(Err(format!("daemon stats: {e}"))),
    }
    s
}

/// One client's closed loop in slices: send, wait for the reply, check
/// it, repeat until the slice ends; park while the conductor probes.
#[allow(clippy::too_many_arguments)]
fn drive(
    setup: &Setup,
    slices: &Slices,
    mut client: Client,
    c: usize,
    seed: u64,
    budget: Budget,
    tracer: &Tracer,
    phase: crate::trace::SpanId,
) -> (Client, Latencies, Tally) {
    let mut lat = Vec::new();
    let mut tally = Tally::default();
    let stream = stream_seed(seed, streams::SERVE_SCHEDULE, c as u64);
    let mut sent = [0usize; 3];
    let mut j = 0usize;
    let mut finished = false;
    loop {
        slices.gate.wait();
        if slices.stop.load(Ordering::SeqCst) {
            break;
        }
        let slice = slices.slice.load(Ordering::SeqCst);
        while !finished && !slices.pause.load(Ordering::SeqCst) {
            if !budget.more(j) {
                finished = true;
                slices.done.fetch_add(1, Ordering::SeqCst);
                break;
            }
            let kind = Kind::of(j, c);
            // clients start their rotations apart, so few requests of a
            // kind still cover every program
            let n = setup.pools.len();
            let pool = &setup.pools[(sent[kind as usize] + c * n / WORKERS) % n];
            // this client's request number of this kind to this program
            let nth = sent[kind as usize] / n;
            sent[kind as usize] += 1;
            let pick = mix(stream, j as u64) as usize;
            let variant;
            let (body, want) = match kind {
                Kind::Cached => {
                    let r = &pool.cached[pick % pool.cached.len()];
                    (r.body.as_str(), &r.want)
                }
                Kind::Inline => {
                    // each client walks the pool from its own end, so a
                    // run's inline requests send distinct trees
                    let r = &pool.inline[(nth + c * INLINE_POOL / WORKERS) % INLINE_POOL];
                    (r.body.as_str(), &r.want)
                }
                Kind::Uncached => {
                    let g = pick % pool.gen_seeds.len();
                    let mut spec = pool.spec.clone();
                    spec.source = format!("{}\n/* variant {stream:x}-{j} */\n", spec.source);
                    let input = InputSpec::Gen {
                        workload: pool.name.to_string(),
                        size: pool.size,
                        seed: pool.gen_seeds[g],
                    };
                    variant = render_run(&spec, &input);
                    (variant.as_str(), &pool.cached[g].want)
                }
            };
            let span = tracer.begin(
                &format!("request.{}", kind.name()),
                mix(stream, j as u64),
                Some(phase),
            );
            let start = Instant::now();
            let reply = client.call(body);
            let raw = ms(start.elapsed());
            tracer.end(span);
            j += 1;
            match reply {
                Ok(reply) => {
                    lat.push((kind, pool.name, raw, slice));
                    tally.check(check_response(&reply, want));
                }
                Err(e) => {
                    tally.check(Err(format!("{} {} request: {e}", pool.name, kind.name())));
                    finished = true;
                    slices.done.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        slices.gate.wait();
    }
    (client, lat, tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cycles per client: each client sends two inline and two
    /// uncached requests, and together they cover every program.
    const REQUESTS: u64 = 4 * CYCLE as u64;

    fn requests(setup: &Setup) -> Tally {
        let mut tally = Tally::default();
        let deadline = Instant::now() + Duration::from_secs(600);
        let budget = Budget::count(REQUESTS as usize, deadline);
        run(setup, 5, budget, &Tracer::new(false), &mut tally);
        tally
    }

    #[test]
    fn a_wrong_reference_fails_every_request() {
        let _serial = crate::tests::serial();
        let cases = grafter_workloads::case_studies();
        let mut setup = setup(&cases, 5).expect("daemon starts");
        let tally = requests(&setup);
        assert_eq!(
            (tally.attempted, tally.failed),
            (REQUESTS, 0),
            "{:?}",
            tally.first_failure
        );

        // Every program's references move to the next program: no response
        // can match its reference any more.
        let first = setup.pools.remove(0);
        let wants: Vec<(Vec<WireOutcome>, Vec<WireOutcome>)> = setup
            .pools
            .iter()
            .chain(std::iter::once(&first))
            .map(|p| {
                (
                    p.cached.iter().map(|r| r.want.clone()).collect(),
                    p.inline.iter().map(|r| r.want.clone()).collect(),
                )
            })
            .collect();
        setup.pools.insert(0, first);
        for (pool, (cached, inline)) in setup.pools.iter_mut().zip(wants) {
            for (r, w) in pool.cached.iter_mut().zip(cached) {
                r.want = w;
            }
            for (r, w) in pool.inline.iter_mut().zip(inline) {
                r.want = w;
            }
        }
        let tally = requests(&setup);
        assert_eq!((tally.attempted, tally.failed), (REQUESTS, REQUESTS));
    }

    #[test]
    fn inline_trees_round_trip_through_the_wire_format() {
        let cases = grafter_workloads::case_studies();
        for cs in &cases {
            let reference = engine(cs, true, Backend::Vm, None);
            let mut heap = reference.new_heap();
            let root = tree(cs, cs.test_size, 9)(&mut heap);
            let mut copy = reference.new_heap();
            let copied = build_tree_spec(&mut copy, &tree_spec(&heap, root));
            assert_eq!(heap.snapshot(root), copy.snapshot(copied), "{}", cs.name);
        }
    }
}
