//! `grafter-vm`: a bytecode compiler and register VM for fused traversals.
//!
//! The tree-walking interpreter in `grafter-runtime` executes a
//! [`grafter::FusedProgram`] by walking its statement trees, probing
//! layout `HashMap`s on every field access and allocating fresh frame
//! vectors on every node visit — faithful, but dominated by interpretive
//! dispatch overhead. This crate is the compiled execution tier:
//!
//! 1. [`lower`] compiles a fused program **once** into a flat [`Module`]:
//!    registers for locals and expression scratch, resolved field offsets
//!    (dense `class × field` table) instead of name/hash lookups, a jump
//!    table per dispatch stub keyed by the receiver's dynamic type, and
//!    constant-folded operand encoding;
//! 2. the [`opt`] pipeline rewrites the module ([`OptLevel::O2`] by
//!    default, configurable via [`lower_with`]/[`VmOptions`]): constant
//!    folding, peephole fusion of hot adjacent pairs into
//!    superinstructions, dead-register elimination, and
//!    monomorphic-dispatch devirtualisation — all observationally
//!    bit-identical to unoptimized code (same `Metrics`, cache traffic,
//!    errors), just fewer dispatch rounds;
//! 3. [`Vm`] executes the module with a single `match`-dispatch loop over
//!    the contiguous op vector, directly against the existing
//!    [`grafter_runtime::Heap`], producing the same
//!    [`grafter_runtime::Metrics`] and (optionally) feeding the same
//!    [`grafter_cachesim::CacheHierarchy`] as the interpreter —
//!    bit-identical counters, measurably less wall-clock per visit.
//!
//! Backend choice is one builder call away: [`Backend`] on
//! `grafter_engine::Engine::builder().backend(..)` selects the tier, and
//! the engine lowers (and jit-compiles) exactly once at build.
//!
//! # Example
//!
//! ```
//! use grafter::{fuse, Compiled, FuseOptions};
//! use grafter_vm::{lower, Vm};
//! use grafter_runtime::{Heap, Interp};
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
//! let compiled = Compiled::compile(src)?;
//! let fused = fuse(compiled.program(), "Node", &["incA", "incB"], &FuseOptions::default())?;
//!
//! // Same tree, one tier apart.
//! let build = |heap: &mut Heap| {
//!     let end = heap.alloc_by_name("End").unwrap();
//!     let cons = heap.alloc_by_name("Cons").unwrap();
//!     heap.set_child_by_name(cons, "next", Some(end)).unwrap();
//!     cons
//! };
//! let mut h1 = Heap::new(compiled.program());
//! let mut h2 = Heap::new(compiled.program());
//! let (r1, r2) = (build(&mut h1), build(&mut h2));
//!
//! let mut interp = Interp::new(&fused);
//! interp.run(&mut h1, r1, &[]).unwrap();
//!
//! let module = lower(&fused);
//! let mut vm = Vm::new(&module);
//! vm.run(&mut h2, r2, &[]).unwrap();
//!
//! assert_eq!(interp.metrics, vm.metrics); // identical metrics, bit for bit
//! assert_eq!(h1.snapshot(r1), h2.snapshot(r2)); // identical trees
//!
//! // The lowered artifact is inspectable (grafterc --emit bytecode).
//! assert!(module.disassemble().contains("fn 0"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::str::FromStr;

mod exec;
pub mod jit;
mod lower;
mod module;
pub mod opt;

pub use exec::Vm;
pub use jit::{compile_with, Jit, JitMode, JitProgram};
pub use lower::{lower, lower_with, lowering_count};
pub use module::{Co, Module, Op};
pub use opt::{optimize, OptLevel, OptReport, PassStat, VmOptions};

/// Which execution tier runs a fused artifact.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The instrumented tree-walking interpreter (`grafter-runtime`).
    #[default]
    Interp,
    /// The bytecode register VM (`grafter-vm`).
    Vm,
    /// The closure-threaded native tier ([`crate::jit`]): bytecode
    /// pre-compiled into per-basic-block closures, with the
    /// [`JitMode`] choosing bit-identical accounting or flat-out speed.
    Jit(JitMode),
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Backend::Interp => "interp",
            Backend::Vm => "vm",
            Backend::Jit(JitMode::Counted) => "jit",
            Backend::Jit(JitMode::Release) => "jit-release",
        })
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "interp" | "interpreter" => Ok(Backend::Interp),
            "vm" | "bytecode" => Ok(Backend::Vm),
            "jit" | "jit-counted" => Ok(Backend::Jit(JitMode::Counted)),
            "jit-release" => Ok(Backend::Jit(JitMode::Release)),
            other => Err(format!(
                "unknown backend `{other}` (expected interp|vm|jit|jit-release)"
            )),
        }
    }
}
