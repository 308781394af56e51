//! The four case studies and the engine configurations the workloads run.

use std::sync::Arc;

use grafter_engine::{Backend, Engine, FusionOptions, JitMode, OptLevel, Probe, TraceProbe};
use grafter_runtime::{Heap, NodeId};
use grafter_workloads::CaseStudy;

use crate::stats::mix;

/// Worker threads and client connections: the box has two cores.
pub const WORKERS: usize = 2;

/// One timed fused execution tier of the `traverse` workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Interp,
    Vm,
    Jit,
    JitRelease,
}

impl Tier {
    /// Every timed tier, in base rotation order.
    pub const ALL: [Tier; 4] = [Tier::Interp, Tier::Vm, Tier::Jit, Tier::JitRelease];

    /// Metric-name form of the tier.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::Vm => "vm",
            Tier::Jit => "jit",
            Tier::JitRelease => "jit_release",
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Tier::Interp => Backend::Interp,
            Tier::Vm => Backend::Vm,
            Tier::Jit => Backend::Jit(JitMode::Counted),
            Tier::JitRelease => Backend::Jit(JitMode::Release),
        }
    }
}

/// The case study's engine for `backend`, built from its pre-compiled
/// frontend artifact (the `traverse` set-up and the layer sweep).
pub fn engine(
    cs: &CaseStudy,
    fused: bool,
    backend: Backend,
    probe: Option<&Arc<TraceProbe>>,
) -> Engine {
    let fusion = if fused {
        FusionOptions::default()
    } else {
        FusionOptions::unfused()
    };
    let mut b = Engine::builder()
        .compiled(cs.compiled.clone())
        .entry(cs.root_class, &cs.passes)
        .args(cs.args.clone())
        .fusion(fusion)
        .backend(backend)
        .opt_level(OptLevel::O2);
    if let Some(p) = probe {
        b = b.probe(Arc::clone(p) as Arc<dyn Probe>);
    }
    b.build().expect("case-study entry sequence resolves")
}

/// A cold build exactly as a user makes one: from source, fused, VM tier,
/// `O2`, nothing shared with any earlier build.
pub fn cold_build(
    cs: &CaseStudy,
    probe: Option<&Arc<TraceProbe>>,
) -> Result<Engine, grafter_engine::Error> {
    let mut b = Engine::builder()
        .source(cs.source)
        .entry(cs.root_class, &cs.passes)
        .args(cs.args.clone())
        .backend(Backend::Vm)
        .opt_level(OptLevel::O2);
    if let Some(p) = probe {
        b = b.probe(Arc::clone(p) as Arc<dyn Probe>);
    }
    b.build()
}

/// A `Send` builder of the case study's tree of `size` from `seed`.
pub fn tree(cs: &CaseStudy, size: usize, seed: u64) -> impl FnOnce(&mut Heap) -> NodeId + Send {
    let build = cs.build;
    move |heap: &mut Heap| build(heap, size, seed)
}

/// The seed of item `i` of an input stream: distinct streams of one
/// workload seed never share trees.
pub fn stream_seed(seed: u64, stream: u64, i: u64) -> u64 {
    mix(mix(seed, stream), i)
}

/// Input streams (the `stream` argument of [`stream_seed`]).
pub mod streams {
    pub const COMPILE_CHECK: u64 = 1;
    pub const TRAVERSE: u64 = 2;
    pub const BATCH: u64 = 3;
    pub const SERVE_GEN: u64 = 4;
    pub const SERVE_INLINE: u64 = 5;
    pub const SERVE_SCHEDULE: u64 = 6;
    pub const SWEEP: u64 = 7;
}
