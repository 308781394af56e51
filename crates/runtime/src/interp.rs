//! The instrumented interpreter for fused programs.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use grafter::{
    CallPart, Diag, DiagnosticBag, FusedFnId, FusedProgram, ScheduledItem, Stage, StubId,
};
use grafter_cachesim::CacheHierarchy;
use grafter_frontend::{BinOp, DataAccess, Expr, MethodId, NodePath, Stmt};

use crate::heap::{Heap, NodeId, NODE_HEADER_BYTES, SLOT_BYTES};
use crate::metrics::{cost, Metrics};
use crate::ops::{binop, coerce, field_ty, flatten_globals, local_frame_layout};
use crate::pure::PureRegistry;
use crate::Value;

/// Errors surfaced while executing a fused program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RuntimeError {
    /// A data access navigated through a null child pointer.
    NullDeref,
    /// A `pure` function has no registered native implementation.
    MissingPure(String),
    /// A stub had no fused function for the receiver's dynamic type.
    MissingTarget(String),
    /// A child slot held a non-reference value (heap corruption).
    NotARef,
    /// A fork worker panicked while executing a scattered subtree.
    WorkerPanic(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::NullDeref => write!(f, "null child dereferenced in a data access"),
            RuntimeError::MissingPure(name) => {
                write!(f, "pure function `{name}` has no native implementation")
            }
            RuntimeError::MissingTarget(class) => {
                write!(f, "no fused function for dynamic type `{class}`")
            }
            RuntimeError::NotARef => write!(f, "child slot does not hold a reference"),
            RuntimeError::WorkerPanic(msg) => {
                write!(f, "fork worker panicked: {msg}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A runtime failure in the compiler's diagnostic currency, tagged
/// [`Stage::Runtime`] so callers can tell a bad program from a bad run.
impl From<RuntimeError> for Diag {
    fn from(e: RuntimeError) -> Diag {
        Diag::error_global(Stage::Runtime, e.to_string())
    }
}

impl From<RuntimeError> for DiagnosticBag {
    fn from(e: RuntimeError) -> DiagnosticBag {
        DiagnosticBag::from(Diag::from(e))
    }
}

type RResult<T> = Result<T, RuntimeError>;

enum Flow {
    Continue,
    Returned,
}

/// One parallel-safe sibling dispatch, packaged for a [`ForkHost`]: the
/// callee stub, the child receiver, the active-traversal flags and the
/// already-evaluated per-part arguments — exactly what a stub call needs,
/// with all pre-call costs (guards, navigation, flag shuffles, argument
/// evaluation) already charged by the preparing interpreter.
#[derive(Clone, Debug)]
pub struct ForkTask {
    /// Dispatch stub of the call.
    pub stub: StubId,
    /// Receiver node (root of the forked subtree).
    pub child: NodeId,
    /// Active-traversal flags of the call.
    pub flags: u64,
    /// Evaluated arguments, one vector per call part.
    pub args: Vec<Vec<Value>>,
}

/// Counters a [`ForkHost`] hands back after executing dispatched work,
/// merged in deterministic sibling order so totals are bit-identical to a
/// sequential run.
#[derive(Debug, Default)]
pub struct ForkOutcome {
    /// Summed [`Metrics`] of the executed subtrees.
    pub metrics: Metrics,
    /// Summed per-class visit counters, when the run is probed.
    pub class_visits: Option<Vec<u64>>,
}

/// Execution hook for intra-tree parallelism.
///
/// The interpreter consults the host at two points of its dispatch loop:
///
/// - at a statically certified parallel-safe call run ([`ForkHost::fork`]),
///   where the host may scatter the sibling subtrees across workers; and
/// - at every subtree dispatch ([`ForkHost::take_over`]), where the host
///   may hand the whole subtree to a different execution tier (the engine
///   runs fork-level nodes here and VM/JIT code below them).
///
/// Both hooks sit behind `if H::ENABLED`, so the `NoFork` instantiation
/// monomorphizes to exactly the sequential dispatch loop.
pub trait ForkHost {
    /// `false` compiles every hook out of the dispatch loop.
    const ENABLED: bool;

    /// Whether a parallel-safe call run under a node at tree depth
    /// `depth` (root = 1) should fork instead of running in-line.
    fn should_fork(&mut self, depth: usize) -> bool;

    /// Executes every prepared sibling task exactly once — scattered,
    /// in-line, or mixed — and returns the merged counters. `globals` is
    /// the caller's current global frame; the dependence analysis only
    /// certifies call runs that never write globals, so a read-only copy
    /// per worker is sound.
    ///
    /// # Errors
    ///
    /// Propagates the runtime error of the lowest-indexed failing sibling
    /// (the error a sequential run would have hit first).
    fn fork(
        &mut self,
        heap: &mut Heap,
        depth: usize,
        tasks: Vec<ForkTask>,
        globals: &[Value],
    ) -> RResult<ForkOutcome>;

    /// Whether the subtree dispatched at `depth` should leave the
    /// interpreter entirely (handed to [`ForkHost::run_subtree`]).
    fn take_over(&mut self, depth: usize) -> bool;

    /// Executes one whole subtree dispatch outside the interpreter (e.g.
    /// in the session's VM or JIT tier), returning its counters.
    ///
    /// Runs on the calling thread with exclusive heap access, so —
    /// unlike forked subtrees — it may write globals: the host seeds its
    /// executor from `globals` and copies the final frame back, which is
    /// exactly the sequential data flow.
    ///
    /// # Errors
    ///
    /// Propagates the subtree's runtime error unchanged.
    fn run_subtree(
        &mut self,
        heap: &mut Heap,
        task: ForkTask,
        globals: &mut [Value],
    ) -> RResult<ForkOutcome>;
}

/// The disabled host: plain sequential execution. `ENABLED = false`
/// compiles every hook call site out of the dispatch loop.
pub struct NoFork;

impl ForkHost for NoFork {
    const ENABLED: bool = false;

    fn should_fork(&mut self, _depth: usize) -> bool {
        false
    }

    fn fork(
        &mut self,
        _heap: &mut Heap,
        _depth: usize,
        _tasks: Vec<ForkTask>,
        _globals: &[Value],
    ) -> RResult<ForkOutcome> {
        unreachable!("NoFork is never enabled")
    }

    fn take_over(&mut self, _depth: usize) -> bool {
        false
    }

    fn run_subtree(
        &mut self,
        _heap: &mut Heap,
        _task: ForkTask,
        _globals: &mut [Value],
    ) -> RResult<ForkOutcome> {
        unreachable!("NoFork is never enabled")
    }
}

/// Executes a [`FusedProgram`] against a [`Heap`], collecting [`Metrics`]
/// and (optionally) driving a cache simulator.
pub struct Interp<'a> {
    fp: &'a FusedProgram,
    /// Counters for the current run (reset with [`Metrics::reset`]).
    pub metrics: Metrics,
    /// Optional simulated memory hierarchy fed with every field access.
    pub cache: Option<CacheHierarchy>,
    pures: PureRegistry,
    /// Flattened global values (structs expanded), plus their addresses.
    globals: Vec<Value>,
    global_offsets: Vec<usize>,
    /// Per-method local frame layout: slot offset of each local, total size.
    local_layouts: HashMap<MethodId, Rc<(Vec<usize>, usize)>>,
    /// Per-class visit counters of a probed run, indexed by
    /// [`grafter_frontend::ClassId`]; `None` (the default) records
    /// nothing and costs one predicted branch per dispatch.
    class_visits: Option<Vec<u64>>,
    /// Tree depth of the node currently dispatched (root = 1); what the
    /// [`ForkHost`] hooks receive to bound forking to the top levels.
    depth: usize,
}

const GLOBALS_BASE_ADDR: u64 = 0x1000;

impl<'a> Interp<'a> {
    /// Creates an interpreter with the default math pures and no cache.
    pub fn new(fp: &'a FusedProgram) -> Self {
        Interp::with_pures(fp, PureRegistry::with_math())
    }

    /// Creates an interpreter with a custom pure-function registry.
    pub fn with_pures(fp: &'a FusedProgram, pures: PureRegistry) -> Self {
        let (globals, global_offsets) = flatten_globals(&fp.program);
        Interp {
            fp,
            metrics: Metrics::default(),
            cache: None,
            pures,
            globals,
            global_offsets,
            local_layouts: HashMap::new(),
            class_visits: None,
            depth: 0,
        }
    }

    /// Attaches a cache hierarchy (all subsequent accesses are simulated).
    pub fn with_cache(mut self, cache: CacheHierarchy) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches zeroed per-class visit counters: every successful dispatch
    /// bumps the receiver's dynamic-class slot. `Metrics` and cache
    /// traffic are unchanged — the counters sit outside the cost model.
    pub fn with_class_counts(mut self) -> Self {
        self.class_visits = Some(vec![0; self.fp.program.classes.len()]);
        self
    }

    /// Detaches and returns the per-class visit counters, if
    /// [`Interp::with_class_counts`] attached any (indexed by class id).
    pub fn take_class_counts(&mut self) -> Option<Vec<u64>> {
        self.class_visits.take()
    }

    /// Sets a global variable by name before a run.
    pub fn set_global(&mut self, name: &str, value: Value) -> Option<()> {
        let g = self.fp.program.global_by_name(name)?;
        self.globals[self.global_offsets[g.index()]] = value;
        Some(())
    }

    /// Reads a global variable by name.
    pub fn global(&self, name: &str) -> Option<Value> {
        let g = self.fp.program.global_by_name(name)?;
        Some(self.globals[self.global_offsets[g.index()]])
    }

    /// Runs the fused program's entry sequence on `root`.
    ///
    /// `args[i]` are the arguments of the `i`-th entry traversal.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError`] if execution dereferences a null child in
    /// a data access, calls an unregistered pure, or dispatch fails.
    pub fn run(&mut self, heap: &mut Heap, root: NodeId, args: &[Vec<Value>]) -> RResult<()> {
        self.run_with_host(heap, root, args, &mut NoFork)
    }

    /// [`Interp::run`] with a [`ForkHost`] attached: statically certified
    /// parallel-safe sibling dispatches are offered to `host`, which may
    /// scatter them across workers or hand subtrees to another tier.
    /// With `host = NoFork` this is exactly [`Interp::run`].
    ///
    /// # Errors
    ///
    /// As [`Interp::run`], plus any error the host's workers hit (the
    /// lowest-sibling error, matching sequential order).
    pub fn run_with_host<H: ForkHost>(
        &mut self,
        heap: &mut Heap,
        root: NodeId,
        args: &[Vec<Value>],
        host: &mut H,
    ) -> RResult<()> {
        let entries = self.fp.entries.clone();
        if entries.len() == 1 {
            let stub = self.fp.stub(entries[0]);
            let n = stub.slots.len();
            let flags: u64 = (1u64 << n) - 1;
            let part_args: Vec<Vec<Value>> = (0..n)
                .map(|i| args.get(i).cloned().unwrap_or_default())
                .collect();
            self.call_stub(heap, entries[0], root, flags, part_args, host)?;
        } else {
            for (i, &entry) in entries.iter().enumerate() {
                let part_args = vec![args.get(i).cloned().unwrap_or_default()];
                self.call_stub(heap, entry, root, 0b1, part_args, host)?;
            }
        }
        Ok(())
    }

    /// Dispatches one stub call — the worker-side entry for executing a
    /// [`ForkTask`] on a (shard) heap. Charges exactly what the in-line
    /// call would have charged from the dispatch onward.
    ///
    /// # Errors
    ///
    /// As [`Interp::run`].
    pub fn run_stub(
        &mut self,
        heap: &mut Heap,
        stub: StubId,
        node: NodeId,
        flags: u64,
        args: Vec<Vec<Value>>,
    ) -> RResult<()> {
        self.call_stub(heap, stub, node, flags, args, &mut NoFork)
    }

    /// [`Interp::run_stub`] with a [`ForkHost`] attached and the dispatched
    /// node's tree depth (root = 1), so a forked worker can keep forking
    /// at the correct level.
    ///
    /// # Errors
    ///
    /// As [`Interp::run_with_host`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_stub_with_host<H: ForkHost>(
        &mut self,
        heap: &mut Heap,
        stub: StubId,
        node: NodeId,
        flags: u64,
        args: Vec<Vec<Value>>,
        host: &mut H,
        depth: usize,
    ) -> RResult<()> {
        let saved = self.depth;
        self.depth = depth.saturating_sub(1);
        let r = self.call_stub(heap, stub, node, flags, args, host);
        self.depth = saved;
        r
    }

    /// The flattened global frame (identical layout across all tiers —
    /// every executor flattens with `flatten_globals`).
    pub fn globals_frame(&self) -> &[Value] {
        &self.globals
    }

    /// Overwrites the flattened global frame (fork workers start from the
    /// orchestrator's snapshot).
    pub fn set_globals_frame(&mut self, frame: &[Value]) {
        assert_eq!(frame.len(), self.globals.len(), "global frame layout");
        self.globals.copy_from_slice(frame);
    }

    fn touch(&mut self, addr: u64) {
        if let Some(cache) = &mut self.cache {
            cache.access(addr);
        }
    }

    fn slot_addr(&self, heap: &Heap, node: NodeId, slot: usize) -> u64 {
        heap.addr_of(node) + NODE_HEADER_BYTES + SLOT_BYTES * slot as u64
    }

    fn local_layout(&mut self, method: MethodId) -> Rc<(Vec<usize>, usize)> {
        if let Some(l) = self.local_layouts.get(&method) {
            return Rc::clone(l);
        }
        let layout = Rc::new(local_frame_layout(&self.fp.program, method));
        self.local_layouts.insert(method, Rc::clone(&layout));
        layout
    }

    fn call_stub<H: ForkHost>(
        &mut self,
        heap: &mut Heap,
        stub: StubId,
        node: NodeId,
        flags: u64,
        part_args: Vec<Vec<Value>>,
        host: &mut H,
    ) -> RResult<()> {
        self.depth += 1;
        let r = self.dispatch_stub(heap, stub, node, flags, part_args, host);
        self.depth -= 1;
        r
    }

    fn dispatch_stub<H: ForkHost>(
        &mut self,
        heap: &mut Heap,
        stub: StubId,
        node: NodeId,
        flags: u64,
        part_args: Vec<Vec<Value>>,
        host: &mut H,
    ) -> RResult<()> {
        if H::ENABLED && host.take_over(self.depth) {
            // Hand the whole subtree to the host's tier before any
            // dispatch cost is charged: the host's executor charges the
            // full call from the dispatch onward, exactly as
            // `Interp::run_stub` would.
            let task = ForkTask {
                stub,
                child: node,
                flags,
                args: part_args,
            };
            let out = host.run_subtree(heap, task, &mut self.globals)?;
            self.absorb_outcome(out);
            return Ok(());
        }
        // Virtual dispatch: read the node header (type tag / vtable).
        self.metrics.instructions += cost::DISPATCH;
        self.metrics.loads += 1;
        self.touch(heap.addr_of(node));
        let class = heap.class_of(node);
        let Some(target) = self.fp.stub(stub).target_for(class) else {
            return Err(RuntimeError::MissingTarget(
                self.fp.program.classes[class.index()].name.clone(),
            ));
        };
        if let Some(counts) = &mut self.class_visits {
            counts[class.index()] += 1;
        }
        self.run_fn(heap, target, node, flags, part_args, host)
    }

    /// Folds a host's counters back in (deterministic reduction: hosts
    /// merge their workers in sibling order, then we absorb here at the
    /// point the sequential run would have accrued the same counts).
    fn absorb_outcome(&mut self, out: ForkOutcome) {
        self.metrics.absorb(&out.metrics);
        if let (Some(mine), Some(theirs)) = (&mut self.class_visits, &out.class_visits) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += t;
            }
        }
    }

    fn run_fn<H: ForkHost>(
        &mut self,
        heap: &mut Heap,
        fn_id: FusedFnId,
        node: NodeId,
        flags: u64,
        part_args: Vec<Vec<Value>>,
        host: &mut H,
    ) -> RResult<()> {
        self.metrics.visits += 1;
        // `fp` outlives `self`, so function data can be borrowed for the
        // whole call without holding a borrow of `self`.
        let fp = self.fp;
        let f = fp.function(fn_id);
        #[cfg(debug_assertions)]
        if std::env::var_os("GRAFTER_TRACE").is_some() {
            let names: Vec<&str> = f
                .seq
                .iter()
                .map(|m| fp.program.methods[m.index()].name.as_str())
                .collect();
            eprintln!(
                "F {:?} {:?} flags={:b} args={:?}",
                node, names, flags, part_args
            );
        }
        let multi = f.seq.len() > 1;
        let seq: &[MethodId] = &f.seq;

        // Build one frame per traversal copy, parameters first.
        let mut frames: Vec<Vec<Value>> = Vec::with_capacity(seq.len());
        for (ti, &m) in seq.iter().enumerate() {
            let layout = self.local_layout(m);
            let (offsets, size) = (&layout.0, layout.1);
            let mut frame = vec![Value::Int(0); size];
            let method = &fp.program.methods[m.index()];
            let args = part_args.get(ti).map(Vec::as_slice).unwrap_or(&[]);
            for (pi, arg) in args.iter().enumerate().take(method.n_params) {
                frame[offsets[pi]] = *arg;
            }
            frames.push(frame);
        }

        let mut active = flags;
        let mut i = 0;
        while i < f.body.len() {
            // Statically certified parallel-safe call run: offer the whole
            // run to the host. Charges up to and including argument
            // evaluation happen here, in sequential item order, so the
            // totals match a sequential run bit for bit.
            if H::ENABLED {
                if let Some(len) = fp.parallelism(fn_id).set_at(i) {
                    if host.should_fork(self.depth) {
                        let tasks = self.prepare_fork_tasks(
                            heap,
                            seq,
                            &mut frames,
                            node,
                            &f.body[i..i + len],
                            multi,
                            active,
                        )?;
                        let out = host.fork(heap, self.depth, tasks, &self.globals)?;
                        self.absorb_outcome(out);
                        i += len;
                        continue;
                    }
                }
            }
            let item = &f.body[i];
            i += 1;
            match item {
                ScheduledItem::Stmt { traversal, stmt } => {
                    if multi {
                        self.metrics.instructions += cost::GUARD;
                    }
                    let bit = 1u64 << traversal;
                    if active & bit == 0 {
                        continue;
                    }
                    let flow = self.exec_stmt(heap, seq, &mut frames, node, *traversal, stmt)?;
                    if matches!(flow, Flow::Returned) {
                        active &= !bit;
                        if active == 0 {
                            break;
                        }
                    }
                }
                ScheduledItem::Call {
                    receiver,
                    stub,
                    parts,
                } => {
                    if multi {
                        self.metrics.instructions += cost::GUARD;
                    }
                    // OR, not sum: several parts may share a traversal
                    // copy (e.g. a traversal that spawns the same helper
                    // twice on one child).
                    let mask: u64 = parts.iter().fold(0, |m, p| m | (1u64 << p.traversal));
                    if active & mask == 0 {
                        continue;
                    }
                    let Some(child) = self.navigate(heap, node, receiver)? else {
                        continue; // null child: traversal stops here
                    };
                    let mut call_flags = 0u64;
                    for (i, part) in parts.iter().enumerate() {
                        if multi {
                            self.metrics.instructions += cost::FLAG_SHUFFLE;
                        }
                        if active & (1u64 << part.traversal) != 0 {
                            call_flags |= 1u64 << i;
                        }
                    }
                    let args = self.eval_call_args(heap, seq, &mut frames, node, parts, active)?;
                    self.call_stub(heap, *stub, child, call_flags, args, host)?;
                }
            }
        }
        Ok(())
    }

    /// Prepares one [`ForkTask`] per live call in a parallel-safe run,
    /// charging exactly what the sequential loop charges before each call
    /// (guard, navigation, flag shuffles, argument evaluation), in item
    /// order. Null-child and fully-inactive calls produce no task — the
    /// sequential loop `continue`s past them too.
    #[allow(clippy::too_many_arguments)]
    fn prepare_fork_tasks(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        items: &[ScheduledItem],
        multi: bool,
        active: u64,
    ) -> RResult<Vec<ForkTask>> {
        let mut tasks = Vec::with_capacity(items.len());
        for item in items {
            let ScheduledItem::Call {
                receiver,
                stub,
                parts,
            } = item
            else {
                unreachable!("parallel-safe sets contain only Call items")
            };
            if multi {
                self.metrics.instructions += cost::GUARD;
            }
            let mask: u64 = parts.iter().fold(0, |m, p| m | (1u64 << p.traversal));
            if active & mask == 0 {
                continue;
            }
            let Some(child) = self.navigate(heap, node, receiver)? else {
                continue;
            };
            let mut call_flags = 0u64;
            for (i, part) in parts.iter().enumerate() {
                if multi {
                    self.metrics.instructions += cost::FLAG_SHUFFLE;
                }
                if active & (1u64 << part.traversal) != 0 {
                    call_flags |= 1u64 << i;
                }
            }
            let args = self.eval_call_args(heap, seq, frames, node, parts, active)?;
            tasks.push(ForkTask {
                stub: *stub,
                child,
                flags: call_flags,
                args,
            });
        }
        Ok(tasks)
    }

    fn eval_call_args(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        parts: &[CallPart],
        active: u64,
    ) -> RResult<Vec<Vec<Value>>> {
        let mut out = Vec::with_capacity(parts.len());
        for part in parts {
            if active & (1u64 << part.traversal) == 0 {
                // Truncated traversal: its callee never runs its statements,
                // so placeholder arguments are unobservable.
                out.push(vec![Value::Int(0); part.args.len()]);
                continue;
            }
            let mut vals = Vec::with_capacity(part.args.len());
            for a in &part.args {
                vals.push(self.eval(heap, seq, frames, node, part.traversal, a)?);
            }
            out.push(vals);
        }
        Ok(out)
    }

    /// Follows a receiver path, counting pointer loads; `None` if any step
    /// is null.
    fn navigate(&mut self, heap: &Heap, node: NodeId, path: &NodePath) -> RResult<Option<NodeId>> {
        let mut cur = node;
        for step in &path.steps {
            let class = heap.class_of(cur);
            let slot = heap.layouts().slot_of(class, step.field);
            self.metrics.instructions += 1;
            self.metrics.loads += 1;
            self.touch(self.slot_addr(heap, cur, slot));
            match heap.get(cur, slot) {
                Value::Ref(Some(c)) => cur = c,
                Value::Ref(None) => return Ok(None),
                _ => return Err(RuntimeError::NotARef),
            }
        }
        Ok(Some(cur))
    }

    fn exec_stmt(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        stmt: &Stmt,
    ) -> RResult<Flow> {
        match stmt {
            Stmt::Traverse(_) => {
                unreachable!("traversing calls are scheduled as Call items")
            }
            Stmt::Assign { target, value } => {
                let v = self.eval(heap, seq, frames, node, traversal, value)?;
                self.write_access(heap, seq, frames, node, traversal, target, v)?;
                Ok(Flow::Continue)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.metrics.instructions += 1; // branch
                let c = self
                    .eval(heap, seq, frames, node, traversal, cond)?
                    .as_bool();
                let branch = if c { then_branch } else { else_branch };
                for s in branch {
                    if let Flow::Returned = self.exec_stmt(heap, seq, frames, node, traversal, s)? {
                        return Ok(Flow::Returned);
                    }
                }
                Ok(Flow::Continue)
            }
            Stmt::LocalDef { local, init } => {
                if let Some(init) = init {
                    let v = self.eval(heap, seq, frames, node, traversal, init)?;
                    let method = seq[traversal];
                    let layout = self.local_layout(method);
                    let ty = self.fp.program.methods[method.index()].locals[local.index()].ty;
                    frames[traversal][layout.0[local.index()]] = coerce(ty, v);
                    self.metrics.instructions += 1;
                }
                Ok(Flow::Continue)
            }
            Stmt::New { target, class } => {
                // Navigate to the parent of the last step, then install a
                // fresh node in the child slot.
                let (parent, last) = self.navigate_to_parent(heap, node, target)?;
                let Some(parent) = parent else {
                    return Ok(Flow::Continue);
                };
                let fresh = heap.alloc(*class);
                self.metrics.instructions += cost::ALLOC;
                // Constructor initialises the node: touch its lines.
                let bytes = heap.layouts().node_bytes(*class);
                let base = heap.addr_of(fresh);
                if let Some(cache) = &mut self.cache {
                    cache.access_range(base, bytes);
                }
                self.metrics.stores += 1 + bytes / SLOT_BYTES;
                let pclass = heap.class_of(parent);
                let slot = heap.layouts().slot_of(pclass, last);
                self.touch(self.slot_addr(heap, parent, slot));
                heap.set(parent, slot, Value::Ref(Some(fresh)));
                Ok(Flow::Continue)
            }
            Stmt::Delete { target } => {
                let (parent, last) = self.navigate_to_parent(heap, node, target)?;
                let Some(parent) = parent else {
                    return Ok(Flow::Continue);
                };
                let pclass = heap.class_of(parent);
                let slot = heap.layouts().slot_of(pclass, last);
                self.metrics.loads += 1;
                self.touch(self.slot_addr(heap, parent, slot));
                if let Value::Ref(Some(victim)) = heap.get(parent, slot) {
                    let freed = heap.delete_subtree(victim);
                    self.metrics.instructions += cost::FREE * freed as u64;
                }
                heap.set(parent, slot, Value::Ref(None));
                self.metrics.stores += 1;
                Ok(Flow::Continue)
            }
            Stmt::Return => Ok(Flow::Returned),
            Stmt::PureStmt { pure, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(heap, seq, frames, node, traversal, a)?);
                }
                let name = &self.fp.program.pures[pure.index()].name;
                let Some(f) = self.pures.get(name) else {
                    return Err(RuntimeError::MissingPure(name.clone()));
                };
                self.metrics.instructions += 1 + args.len() as u64;
                f(&vals);
                Ok(Flow::Continue)
            }
        }
    }

    /// Navigates to the parent node of the last step of `path`, returning
    /// the parent and the final child field.
    fn navigate_to_parent(
        &mut self,
        heap: &Heap,
        node: NodeId,
        path: &NodePath,
    ) -> RResult<(Option<NodeId>, grafter_frontend::FieldId)> {
        let last = path
            .steps
            .last()
            .expect("topology targets have a step")
            .field;
        let prefix = NodePath {
            base_cast: path.base_cast,
            steps: path.steps[..path.steps.len() - 1].to_vec(),
        };
        Ok((self.navigate(heap, node, &prefix)?, last))
    }

    fn eval(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        expr: &Expr,
    ) -> RResult<Value> {
        match expr {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Float(v) => Ok(Value::Float(*v)),
            Expr::Bool(v) => Ok(Value::Bool(*v)),
            Expr::Read(access) => self.read_access(heap, seq, frames, node, traversal, access),
            Expr::Unary(op, e) => {
                let v = self.eval(heap, seq, frames, node, traversal, e)?;
                self.metrics.instructions += 1;
                Ok(crate::ops::unop(*op, v))
            }
            Expr::Binary(op, l, r) => {
                // && and || short-circuit like the C++ they model.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let lv = self.eval(heap, seq, frames, node, traversal, l)?.as_bool();
                    self.metrics.instructions += 1;
                    let short = matches!(op, BinOp::And) != lv;
                    // For And: short-circuit when lv == false; for Or, when
                    // lv == true.
                    if short {
                        return Ok(Value::Bool(lv));
                    }
                    let rv = self.eval(heap, seq, frames, node, traversal, r)?.as_bool();
                    return Ok(Value::Bool(rv));
                }
                let lv = self.eval(heap, seq, frames, node, traversal, l)?;
                let rv = self.eval(heap, seq, frames, node, traversal, r)?;
                self.metrics.instructions += 1;
                Ok(binop(*op, lv, rv))
            }
            Expr::PureCall(pure, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(heap, seq, frames, node, traversal, a)?);
                }
                let decl = &self.fp.program.pures[pure.index()];
                let Some(f) = self.pures.get(&decl.name) else {
                    return Err(RuntimeError::MissingPure(decl.name.clone()));
                };
                self.metrics.instructions += 1 + args.len() as u64;
                Ok(coerce(decl.return_type, f(&vals)))
            }
        }
    }

    fn read_access(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        access: &DataAccess,
    ) -> RResult<Value> {
        match access {
            DataAccess::OnTree { path, data } => {
                let Some(target) = self.navigate(heap, node, path)? else {
                    return Err(RuntimeError::NullDeref);
                };
                let class = heap.class_of(target);
                let slot = heap.layouts().slot_of_chain(class, data);
                self.metrics.instructions += 1;
                self.metrics.loads += 1;
                self.touch(self.slot_addr(heap, target, slot));
                Ok(heap.get(target, slot))
            }
            DataAccess::Local { local, members } => {
                let method = seq[traversal];
                let layout = self.local_layout(method);
                let mut slot = layout.0[local.index()];
                for m in members {
                    slot += heap.layouts().member_offset(*m);
                }
                self.metrics.instructions += 1;
                Ok(frames[traversal][slot])
            }
            DataAccess::Global { global, members } => {
                let mut idx = self.global_offsets[global.index()];
                for m in members {
                    idx += heap.layouts().member_offset(*m);
                }
                self.metrics.instructions += 1;
                self.metrics.loads += 1;
                self.touch(GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
                Ok(self.globals[idx])
            }
        }
    }

    // The interpreter threads its whole execution context (heap, fused
    // sequence, per-traversal frames) through every access.
    #[allow(clippy::too_many_arguments)]
    fn write_access(
        &mut self,
        heap: &mut Heap,
        seq: &[MethodId],
        frames: &mut [Vec<Value>],
        node: NodeId,
        traversal: usize,
        access: &DataAccess,
        value: Value,
    ) -> RResult<()> {
        match access {
            DataAccess::OnTree { path, data } => {
                let Some(target) = self.navigate(heap, node, path)? else {
                    return Err(RuntimeError::NullDeref);
                };
                let class = heap.class_of(target);
                let slot = heap.layouts().slot_of_chain(class, data);
                let ty = field_ty(&self.fp.program, data);
                self.metrics.instructions += 1;
                self.metrics.stores += 1;
                self.touch(self.slot_addr(heap, target, slot));
                #[cfg(debug_assertions)]
                if std::env::var_os("GRAFTER_TRACE").is_some() {
                    let last = data.last().unwrap();
                    eprintln!(
                        "W {:?} {} = {:?}",
                        target,
                        self.fp.program.fields[last.index()].name,
                        value
                    );
                }
                heap.set(target, slot, coerce(ty, value));
            }
            DataAccess::Local { local, members } => {
                let method = seq[traversal];
                let layout = self.local_layout(method);
                let mut slot = layout.0[local.index()];
                let mut ty = self.fp.program.methods[method.index()].locals[local.index()].ty;
                for m in members {
                    slot += heap.layouts().member_offset(*m);
                    ty = field_ty(&self.fp.program, &[*m]);
                }
                self.metrics.instructions += 1;
                frames[traversal][slot] = coerce(ty, value);
            }
            DataAccess::Global { global, members } => {
                let mut idx = self.global_offsets[global.index()];
                let mut ty = self.fp.program.globals[global.index()].ty;
                for m in members {
                    idx += heap.layouts().member_offset(*m);
                    ty = field_ty(&self.fp.program, &[*m]);
                }
                self.metrics.instructions += 1;
                self.metrics.stores += 1;
                self.touch(GLOBALS_BASE_ADDR + SLOT_BYTES * idx as u64);
                self.globals[idx] = coerce(ty, value);
            }
        }
        Ok(())
    }
}
