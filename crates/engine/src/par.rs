//! Intra-tree fork-join parallelism: the [`ForkHost`] that scatters
//! statically certified independent sibling subtrees across the
//! persistent worker pool.
//!
//! The dependence analysis (`grafter::SubtreeIndependence`) marks runs of
//! scheduled sibling calls whose access automata cannot touch each
//! other's subtrees and never write globals. A parallel run executes the
//! top `FORK_DEPTH` levels of the tree in the interpreter (the
//! *orchestrator*); at each certified run it carves one [`Heap`] shard
//! per sibling (`Heap::shard_for_subtree`) and scatters them, and at
//! every other dispatch below the fork depth it hands the whole subtree
//! to the engine's tier (`ForkHost::take_over` → VM or JIT). Shards and
//! counters merge back **in sibling order**, so heap snapshots, simulated
//! addresses, [`Metrics`], and globals are bit-identical to a sequential
//! run — parallelism changes wall time and nothing else.
//!
//! Sizing: subtrees smaller than `seq_cutoff` nodes never pay a shard; a
//! certified run with fewer than two big subtrees executes in-line. Pool
//! fan-out is bounded by a permit budget of `workers - 1` shared across
//! nested forks (the submitting thread always executes too), and waiting
//! threads drain queued jobs (`WorkerPool::wait_help`), so nested
//! fork-join cannot deadlock the fixed-size pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use grafter_obs::{ChainCounters, ExecCounters};
use grafter_runtime::{
    ForkHost, ForkOutcome, ForkTask, Heap, Interp, Metrics, PureRegistry, RuntimeError, Value,
};
use grafter_vm::{Backend, Vm};

use crate::engine::Engine;
use crate::pool;

/// Deepest tree level (root = 1) at which certified call runs fork;
/// below it, whole subtrees run sequentially in the engine's tier.
const FORK_DEPTH: usize = 4;

/// Tuning for intra-tree parallel runs, set per session with
/// [`Session::with_parallel`](crate::Session::with_parallel).
///
/// The default (`workers = 1`) is sequential execution; anything above
/// one enables forking when the engine's program has at least one
/// certified parallel-safe call run. A parallel run is bit-identical to
/// a sequential one — same snapshots, metrics and globals — and is only
/// attempted when no cache model is attached (cache simulation is
/// inherently address-ordered, so cache-attached sessions always run
/// sequentially).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelOptions {
    /// Total worker budget including the orchestrating thread; `1`
    /// disables forking entirely.
    pub workers: usize,
    /// Minimum live-node count for a subtree to be worth a shard; runs
    /// with fewer than two subtrees this big execute in-line. Settable
    /// so that differential tests (cutoff `1`) fork on test-size trees.
    pub seq_cutoff: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            workers: 1,
            seq_cutoff: 256,
        }
    }
}

impl ParallelOptions {
    /// Options with an explicit worker count and the default cutoff.
    pub fn with_workers(workers: usize) -> Self {
        ParallelOptions {
            workers,
            ..ParallelOptions::default()
        }
    }
}

/// The engine-side [`ForkHost`]: owns the worker budget and the shared
/// probe accumulators of one parallel run. Cloned into fork workers so
/// nested certified runs keep forking against the same budget.
pub(crate) struct ParHost<'e> {
    engine: &'e Engine,
    opts: ParallelOptions,
    pures: PureRegistry,
    /// Pool-job permits left (`workers - 1` at the start of the run);
    /// shared across nested forks so total fan-out honors the budget.
    permits: Arc<AtomicIsize>,
    probing: bool,
    /// Per-worker VM histograms, merged at join (not racing).
    probe_exec: Option<Arc<Mutex<ExecCounters>>>,
    /// Per-worker JIT histograms, merged at join (not racing).
    probe_chain: Option<Arc<Mutex<ChainCounters>>>,
}

impl Clone for ParHost<'_> {
    fn clone(&self) -> Self {
        ParHost {
            engine: self.engine,
            opts: self.opts.clone(),
            pures: self.pures.clone(),
            permits: Arc::clone(&self.permits),
            probing: self.probing,
            probe_exec: self.probe_exec.clone(),
            probe_chain: self.probe_chain.clone(),
        }
    }
}

impl<'e> ParHost<'e> {
    pub(crate) fn new(
        engine: &'e Engine,
        opts: ParallelOptions,
        pures: PureRegistry,
        probing: bool,
    ) -> Self {
        let permits = Arc::new(AtomicIsize::new(opts.workers.saturating_sub(1) as isize));
        let probe_exec = (probing && matches!(engine.backend, Backend::Vm))
            .then(|| {
                engine
                    .module
                    .as_ref()
                    .map(|m| Arc::new(Mutex::new(ExecCounters::new(m.n_functions(), m.n_ops()))))
            })
            .flatten();
        let probe_chain = (probing && matches!(engine.backend, Backend::Jit(_)))
            .then(|| {
                engine
                    .jit
                    .as_ref()
                    .map(|p| Arc::new(Mutex::new(p.counters())))
            })
            .flatten();
        ParHost {
            engine,
            opts,
            pures,
            permits,
            probing,
            probe_exec,
            probe_chain,
        }
    }

    /// The merged per-worker VM histograms of the run (probed VM engines).
    pub(crate) fn take_exec_counters(&self) -> Option<ExecCounters> {
        self.probe_exec
            .as_ref()
            .map(|m| m.lock().expect("probe counters lock").clone())
    }

    /// The merged per-worker JIT histograms of the run (probed JIT
    /// engines).
    pub(crate) fn take_chain_counters(&self) -> Option<ChainCounters> {
        self.probe_chain
            .as_ref()
            .map(|m| m.lock().expect("probe counters lock").clone())
    }

    /// Class-visit probing exists only on the interpreter tier; compiled
    /// tiers derive class rows from their own histograms.
    fn probing_classes(&self) -> bool {
        self.probing && matches!(self.engine.backend, Backend::Interp)
    }

    fn acquire_permits(&self, want: usize) -> usize {
        let mut got = 0;
        while got < want {
            let cur = self.permits.load(Ordering::Acquire);
            if cur <= 0 {
                break;
            }
            if self
                .permits
                .compare_exchange(cur, cur - 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                got += 1;
            }
        }
        got
    }

    fn release_permits(&self, n: usize) {
        self.permits.fetch_add(n as isize, Ordering::AcqRel);
    }

    /// Executes one dispatched subtree whose root sits at tree level
    /// `depth`. At or above the fork depth the node is interpreted with a
    /// nested host (so certified runs below it keep forking); deeper
    /// subtrees run entirely in the engine's tier.
    fn exec_task(
        &self,
        heap: &mut Heap,
        task: ForkTask,
        globals: &[Value],
        depth: usize,
    ) -> Result<ForkOutcome, RuntimeError> {
        if self.opts.workers > 1 && depth <= FORK_DEPTH {
            let mut host = self.clone();
            let mut interp = Interp::with_pures(&self.engine.fused, self.pures.clone());
            if self.probing_classes() {
                interp = interp.with_class_counts();
            }
            interp.set_globals_frame(globals);
            interp.run_stub_with_host(
                heap, task.stub, task.child, task.flags, task.args, &mut host, depth,
            )?;
            Ok(ForkOutcome {
                metrics: interp.metrics.clone(),
                class_visits: interp.take_class_counts(),
            })
        } else {
            self.run_tier(heap, task, globals, None)
        }
    }

    /// Runs one subtree dispatch in the engine's tier (no further
    /// forking). `copy_back`, when present, receives the executor's final
    /// global frame — used by [`ForkHost::run_subtree`], which runs
    /// sequentially and so may observe global writes.
    fn run_tier(
        &self,
        heap: &mut Heap,
        task: ForkTask,
        globals: &[Value],
        copy_back: Option<&mut [Value]>,
    ) -> Result<ForkOutcome, RuntimeError> {
        match self.engine.backend {
            Backend::Interp => {
                let mut interp = Interp::with_pures(&self.engine.fused, self.pures.clone());
                if self.probing_classes() {
                    interp = interp.with_class_counts();
                }
                interp.set_globals_frame(globals);
                interp.run_stub(heap, task.stub, task.child, task.flags, task.args)?;
                if let Some(out) = copy_back {
                    out.copy_from_slice(interp.globals_frame());
                }
                Ok(ForkOutcome {
                    metrics: interp.metrics.clone(),
                    class_visits: interp.take_class_counts(),
                })
            }
            Backend::Vm => {
                let module = self
                    .engine
                    .module
                    .as_ref()
                    .expect("vm engine holds its module (lowered at build)");
                let mut vm = Vm::with_pures(module, self.pures.clone());
                vm.set_globals_frame(globals);
                let stub = task.stub.0 as u16;
                if let Some(acc) = &self.probe_exec {
                    let mut counters = ExecCounters::new(module.n_functions(), module.n_ops());
                    vm.run_stub_probed(
                        heap,
                        stub,
                        task.child,
                        task.flags,
                        &task.args,
                        &mut counters,
                    )?;
                    acc.lock().expect("probe counters lock").merge(&counters);
                } else {
                    vm.run_stub(heap, stub, task.child, task.flags, &task.args)?;
                }
                if let Some(out) = copy_back {
                    out.copy_from_slice(vm.globals_frame());
                }
                Ok(ForkOutcome {
                    metrics: vm.metrics.clone(),
                    class_visits: None,
                })
            }
            Backend::Jit(_) => {
                let program = self
                    .engine
                    .jit
                    .as_ref()
                    .expect("jit engine holds its closure program (compiled at build)");
                let mut jit = grafter_vm::Jit::with_pures(program, self.pures.clone());
                if self.probe_chain.is_some() {
                    jit = jit.with_counters();
                }
                jit.set_globals_frame(globals);
                jit.run_stub(heap, task.stub.0 as u16, task.child, task.flags, &task.args)?;
                if let (Some(acc), Some(counters)) = (&self.probe_chain, jit.take_counters()) {
                    acc.lock().expect("probe counters lock").merge(&counters);
                }
                if let Some(out) = copy_back {
                    out.copy_from_slice(jit.globals_frame());
                }
                Ok(ForkOutcome {
                    metrics: jit.metrics().clone(),
                    class_visits: None,
                })
            }
        }
    }
}

/// A sibling's shard handed back by its worker, with the run's outcome.
type ForkResult = Mutex<Option<(Heap, Result<ForkOutcome, RuntimeError>)>>;

/// Everything one fork's workers share, borrowed from the forking call's
/// stack frame (the pool latch guarantees the frame outlives every
/// access, exactly as in the batch fan-out).
struct ForkCtx<'a> {
    host: &'a ParHost<'a>,
    /// Slot `i` holds sibling `i`'s task and shard until a worker claims
    /// it.
    slots: &'a [Mutex<Option<(ForkTask, Heap)>>],
    /// Slot `i` receives sibling `i`'s shard back plus its outcome.
    results: &'a [ForkResult],
    next: &'a AtomicUsize,
    globals: &'a [Value],
    /// Tree level of the forking node; every sibling root sits at
    /// `depth + 1`.
    depth: usize,
}

/// One worker's participation in a fork: claim sibling indices off the
/// shared counter until none remain. Runs on pool threads, on the forking
/// thread itself, and inside `wait_help` steals.
fn fork_worker(ctx: &ForkCtx<'_>) {
    loop {
        let i = ctx.next.fetch_add(1, Ordering::Relaxed);
        if i >= ctx.slots.len() {
            break;
        }
        let (task, mut shard) = ctx.slots[i]
            .lock()
            .expect("fork slot lock")
            .take()
            .expect("each sibling is claimed once");
        // The shard must come back for the in-order merge even if the
        // task panics, so catch here and surface a typed error.
        let result = catch_unwind(AssertUnwindSafe(|| {
            ctx.host
                .exec_task(&mut shard, task, ctx.globals, ctx.depth + 1)
        }))
        .unwrap_or_else(|payload| {
            let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "non-string panic payload".to_string()
            };
            Err(RuntimeError::WorkerPanic(msg))
        });
        *ctx.results[i].lock().expect("fork result lock") = Some((shard, result));
    }
}

/// The type-erased pool entry point for fork participation.
///
/// # Safety
///
/// `ctx` must point at a live `ForkCtx<'_>`; the forking thread
/// guarantees this by blocking on the pool latch before the context's
/// frame unwinds.
unsafe fn fork_job(ctx: *const ()) {
    let ctx = unsafe { &*(ctx as *const ForkCtx<'_>) };
    fork_worker(ctx);
}

impl ForkHost for ParHost<'_> {
    const ENABLED: bool = true;

    fn should_fork(&mut self, depth: usize) -> bool {
        self.opts.workers > 1 && depth <= FORK_DEPTH
    }

    fn take_over(&mut self, depth: usize) -> bool {
        // Below the fork depth the compiled tiers take whole subtrees;
        // on the interpreter tier the orchestrator IS the tier, so
        // handing over would be a pointless executor swap.
        depth > FORK_DEPTH && !matches!(self.engine.backend, Backend::Interp)
    }

    fn fork(
        &mut self,
        heap: &mut Heap,
        depth: usize,
        tasks: Vec<ForkTask>,
        globals: &[Value],
    ) -> Result<ForkOutcome, RuntimeError> {
        let n = tasks.len();
        let big = tasks
            .iter()
            .filter(|t| heap.subtree_nodes(t.child) >= self.opts.seq_cutoff)
            .count();
        if n < 2 || big < 2 {
            // Not worth scattering: run the siblings in-line, in order,
            // on the caller's heap. Certified runs never write globals,
            // so the read-only snapshot is exact.
            let mut out = ForkOutcome::default();
            for task in tasks {
                let o = self.exec_task(heap, task, globals, depth + 1)?;
                absorb(&mut out, o);
            }
            return Ok(out);
        }

        // Scatter: every sibling gets a shard (running any sibling on the
        // parent heap while shards are live would let a parent arena grow
        // under the shards' segment pointers), carved in sibling order so
        // the merges below reproduce sequential allocation order.
        let mut slots = Vec::with_capacity(n);
        for task in tasks {
            let shard = heap.shard_for_subtree(task.child);
            slots.push(Mutex::new(Some((task, shard))));
        }
        let results: Vec<ForkResult> = (0..n).map(|_| Mutex::new(None)).collect();
        {
            let ctx = ForkCtx {
                host: self,
                slots: &slots,
                results: &results,
                next: &AtomicUsize::new(0),
                globals,
                depth,
            };
            // `n - 1` extra hands at most: the forking thread works too.
            let extra = self.acquire_permits(n - 1);
            if extra > 0 {
                let pool = pool::pool();
                pool.ensure_threads(extra);
                let latch = pool.submit(extra, fork_job, &ctx as *const ForkCtx<'_> as *const ());
                fork_worker(&ctx);
                // Drain other forks' queued jobs while waiting: this is
                // what keeps nested fork-join live on a fixed-size pool.
                pool.wait_help(&latch);
                self.release_permits(extra);
            } else {
                fork_worker(&ctx);
            }
        }

        // Join strictly in sibling order: merges renumber shard-local
        // allocations exactly as sequential execution would have, and
        // counter reduction order is fixed. The first error by sibling
        // index (the one a sequential run hits first) wins — after every
        // shard has merged back, so the heap stays sound either way.
        let mut out = ForkOutcome::default();
        let mut first_err = None;
        for slot in results {
            let (shard, result) = slot
                .into_inner()
                .expect("fork result lock")
                .expect("every sibling deposits a result");
            heap.merge_shard(shard);
            match result {
                Ok(o) => absorb(&mut out, o),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    fn run_subtree(
        &mut self,
        heap: &mut Heap,
        task: ForkTask,
        globals: &mut [Value],
    ) -> Result<ForkOutcome, RuntimeError> {
        let snapshot: Vec<Value> = globals.to_vec();
        self.run_tier(heap, task, &snapshot, Some(globals))
    }
}

/// Sums one worker's counters into the fork's accumulator.
fn absorb(into: &mut ForkOutcome, from: ForkOutcome) {
    into.metrics.absorb(&from.metrics);
    match (&mut into.class_visits, from.class_visits) {
        (Some(acc), Some(counts)) => {
            for (a, c) in acc.iter_mut().zip(counts) {
                *a += c;
            }
        }
        (acc @ None, Some(counts)) => *acc = Some(counts),
        _ => {}
    }
}

/// Strips a parallel JIT-release report down to the release tier's
/// contract (visits counted, everything else zero): the orchestrator's
/// interpreted fork levels charge full metrics, which a sequential
/// release run would not report.
pub(crate) fn release_visits_only(metrics: Metrics) -> Metrics {
    Metrics {
        visits: metrics.visits,
        ..Metrics::default()
    }
}
