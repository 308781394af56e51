//! Tree runtime and instrumented interpreter for fused Grafter programs.
//!
//! The original Grafter emits C++ and measures with hardware counters. This
//! reproduction executes [`grafter::FusedProgram`]s directly on a simulated
//! heap, collecting the paper's four metrics deterministically:
//!
//! - **node visits** — one per dispatch of a (fused) traversal on a node;
//! - **instructions** — an abstract instruction count that charges the same
//!   overheads the generated C++ would execute (active-flag guards,
//!   call-flag shuffling, dispatch stubs), so fusion's instruction overhead
//!   is visible exactly as in the paper;
//! - **memory accesses / cache misses** — every field access is issued at a
//!   byte address to a [`grafter_cachesim::CacheHierarchy`];
//! - **runtime** — a cycle model (instructions + memory stalls); real
//!   wall-clock is measured by the `perfbench` repository benchmark.
//!
//! The heap assigns nodes bump-allocated addresses in construction order
//! (like `malloc` in the paper's C++ runs), so locality effects of fusion
//! are faithfully reproduced.
//!
//! # Example
//!
//! ```
//! use grafter::{fuse, FuseOptions};
//! use grafter_runtime::{Heap, Interp, Value};
//!
//! let src = r#"
//!     tree class Node {
//!         child Node* next;
//!         int a = 0; int b = 0;
//!         virtual traversal incA() {}
//!         virtual traversal incB() {}
//!     }
//!     tree class Cons : Node {
//!         traversal incA() { a = a + 1; this->next->incA(); }
//!         traversal incB() { b = b + 1; this->next->incB(); }
//!     }
//!     tree class End : Node { }
//! "#;
//! let program = grafter_frontend::compile(src).unwrap();
//! let fused = fuse(&program, "Node", &["incA", "incB"], &FuseOptions::default()).unwrap();
//!
//! let mut heap = Heap::new(&program);
//! let end = heap.alloc_by_name("End").unwrap();
//! let cons = heap.alloc_by_name("Cons").unwrap();
//! heap.set_child_by_name(cons, "next", Some(end)).unwrap();
//!
//! let mut interp = Interp::new(&fused);
//! interp.run(&mut heap, cons, &[]).unwrap();
//! assert_eq!(heap.get_by_name(cons, "a").unwrap(), Value::Int(1));
//! // One fused pass: a single visit of each of the two nodes.
//! assert_eq!(interp.metrics.visits, 2);
//! ```

mod heap;
mod interp;
mod metrics;
pub mod ops;
mod pure;

pub use heap::{default_literal, Heap, Layouts, NodeId, SnapValue, NODE_HEADER_BYTES, SLOT_BYTES};
pub use interp::{ForkHost, ForkOutcome, ForkTask, Interp, NoFork, RuntimeError};
pub use metrics::{cost, Metrics};
pub use pure::{NativeFn, PureRegistry};

/// Runs `f` on a dedicated thread with `bytes` of stack.
///
/// The interpreter recurses once per tree level, exactly like the C++ the
/// paper generates; very deep trees (long sibling chains) therefore need a
/// large stack. Experiment harnesses wrap their runs in this helper.
///
/// # Panics
///
/// Panics if the worker thread cannot be spawned or if `f` panics.
pub fn with_stack<T: Send + 'static>(bytes: usize, f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(bytes)
        .spawn(f)
        .expect("spawn worker with large stack")
        .join()
        .expect("worker thread panicked")
}

/// A runtime value stored in node slots, locals and globals.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Bool(bool),
    /// A child pointer (`None` = null).
    Ref(Option<NodeId>),
}

impl Value {
    /// Numeric view (int or float) as `f64`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not numeric.
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Float(v) => v,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    /// Integer view, truncating floats.
    ///
    /// # Panics
    ///
    /// Panics if the value is not numeric.
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(v) => v as i64,
            other => panic!("expected a number, got {other:?}"),
        }
    }

    /// Boolean view.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a bool.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(v) => v,
            other => panic!("expected a bool, got {other:?}"),
        }
    }
}
