//! Dependence graphs for candidate fused functions (paper §3.2).
//!
//! A candidate fused function for a sequence `L` of concrete traversal
//! functions is (conceptually) the concatenation of their inlined bodies.
//! The dependence graph has one vertex per top-level statement; an edge
//! `u → v` (with `u` before `v` in the merged order) exists when
//!
//! 1. `u` and `v` may access the same memory location with at least one of
//!    them writing (tested by intersecting their access automata), or
//! 2. `u` and `v` come from the same traversal copy and either may `return`
//!    from it (control dependence).
//!
//! Statements from *different* inlined copies have disjoint local frames, so
//! local variables only induce dependences within a copy.

use grafter_frontend::{MethodId, Program, Stmt};

use crate::access::ProgramAccesses;

/// One statement of a merged (outlined + inlined) function body.
#[derive(Clone, Debug)]
pub struct MergedStmt {
    /// Which element of the fused sequence the statement came from.
    pub traversal: usize,
    /// Statement index within that traversal's body.
    pub index: usize,
    /// The statement itself.
    pub stmt: Stmt,
}

/// The dependence graph of a merged function body.
#[derive(Clone, Debug)]
pub struct DepGraph {
    n: usize,
    /// `succs[u]` = vertices that must stay after `u`.
    succs: Vec<Vec<usize>>,
    /// `preds[v]` = vertices that must stay before `v`.
    preds: Vec<Vec<usize>>,
}

impl DepGraph {
    /// Builds the merged statement list for a sequence of concrete
    /// functions, all invoked on the same node.
    pub fn merge_bodies(program: &Program, seq: &[MethodId]) -> Vec<MergedStmt> {
        let mut merged = Vec::new();
        for (ti, &m) in seq.iter().enumerate() {
            for (si, stmt) in program.methods[m.index()].body.iter().enumerate() {
                merged.push(MergedStmt {
                    traversal: ti,
                    index: si,
                    stmt: stmt.clone(),
                });
            }
        }
        merged
    }

    /// Builds the dependence graph over `merged`, the statement list of the
    /// sequence `seq` (used to attribute statements to their methods for
    /// access summaries).
    ///
    /// Data edges come from [`ProgramAccesses::conflict`], so a statement
    /// pair met again — in this body or in any other fused function built
    /// from the same `accesses` — costs a memo lookup, not six automata
    /// intersections.
    pub fn build(
        accesses: &mut ProgramAccesses<'_>,
        seq: &[MethodId],
        merged: &[MergedStmt],
    ) -> DepGraph {
        let n = merged.len();
        let stmt = |ms: &MergedStmt| (seq[ms.traversal], ms.index);
        let may_return: Vec<bool> = merged
            .iter()
            .map(|ms| accesses.summary(seq[ms.traversal], ms.index).may_return)
            .collect();

        let mut g = DepGraph {
            n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        };
        for u in 0..n {
            for v in (u + 1)..n {
                let same_frame = merged[u].traversal == merged[v].traversal;
                let control = same_frame && (may_return[u] || may_return[v]);
                if control
                    || accesses
                        .conflict(stmt(&merged[u]), stmt(&merged[v]), same_frame)
                        .is_some()
                {
                    g.succs[u].push(v);
                    g.preds[v].push(u);
                }
            }
        }
        g
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Whether there is a direct edge `u → v`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.succs[u].contains(&v)
    }

    /// Direct successors of `u`.
    pub fn succs(&self, u: usize) -> &[usize] {
        &self.succs[u]
    }

    /// Direct predecessors of `v`.
    pub fn preds(&self, v: usize) -> &[usize] {
        &self.preds[v]
    }

    /// Whether `v` is reachable from `u` by a non-empty path.
    pub fn reaches(&self, u: usize, v: usize) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack = vec![u];
        while let Some(x) = stack.pop() {
            for &s in &self.succs[x] {
                if s == v {
                    return true;
                }
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Whether `v` is reachable from `u` through at least one intermediate
    /// vertex that is *not* in `group`.
    ///
    /// This is the legality test for call grouping: merging the members of
    /// `group` into one vertex keeps the graph acyclic iff no member reaches
    /// another member through an outside vertex. The explain loop asks it
    /// of each candidate pair with `group = [u, v]`.
    pub fn reaches_outside(&self, u: usize, v: usize, group: &[usize]) -> bool {
        let mut seen = vec![false; self.n];
        let mut stack: Vec<usize> = Vec::new();
        for &s in &self.succs[u] {
            if !group.contains(&s) {
                stack.push(s);
            }
        }
        while let Some(x) = stack.pop() {
            if seen[x] {
                continue;
            }
            seen[x] = true;
            if x == v {
                return true;
            }
            for &s in &self.succs[x] {
                if s == v {
                    return true;
                }
                if !group.contains(&s) && !seen[s] {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Whether condensing the vertices by `group_of` (vertex → group id,
    /// ids below `len()`) leaves the graph acyclic — the legality test of
    /// greedy grouping, where a group may already hold several calls.
    pub fn condensation_acyclic(&self, group_of: &[usize]) -> bool {
        // Dense renumbering of group ids (ids are vertex indices).
        let mut remap = vec![usize::MAX; self.n];
        let mut k = 0;
        for &g in group_of {
            if remap[g] == usize::MAX {
                remap[g] = k;
                k += 1;
            }
        }
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut indeg = vec![0usize; k];
        for u in 0..self.n {
            for &v in &self.succs[u] {
                let (gu, gv) = (remap[group_of[u]], remap[group_of[v]]);
                if gu != gv && !succs[gu].contains(&gv) {
                    succs[gu].push(gv);
                    indeg[gv] += 1;
                }
            }
        }
        let mut ready: Vec<usize> = (0..k).filter(|&g| indeg[g] == 0).collect();
        let mut seen = 0;
        while let Some(g) = ready.pop() {
            seen += 1;
            for &s in &succs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        seen == k
    }

    /// Topological order of the graph with `groups` condensed into single
    /// super-vertices, stable with respect to original position (Kahn's
    /// algorithm, smallest-available first). Vertices in the same group come
    /// out consecutively, in original order.
    ///
    /// `group_of[v]` maps each vertex to its group id; every vertex belongs
    /// to exactly one group (singletons included).
    ///
    /// # Panics
    ///
    /// Panics if the condensed graph has a cycle — callers must only group
    /// calls whose condensation is legal (see [`DepGraph::reaches_outside`]).
    pub fn schedule(&self, group_of: &[usize], n_groups: usize) -> Vec<usize> {
        assert_eq!(group_of.len(), self.n);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for v in 0..self.n {
            members[group_of[v]].push(v);
        }
        // Build condensed edges and in-degrees.
        let mut gsuccs: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut indeg = vec![0usize; n_groups];
        for u in 0..self.n {
            for &v in &self.succs[u] {
                let (gu, gv) = (group_of[u], group_of[v]);
                if gu != gv && !gsuccs[gu].contains(&gv) {
                    gsuccs[gu].push(gv);
                    indeg[gv] += 1;
                }
            }
        }
        // Kahn, preferring the group whose first member is earliest.
        let mut ready: Vec<usize> = (0..n_groups).filter(|&g| indeg[g] == 0).collect();
        let mut order = Vec::with_capacity(self.n);
        let mut emitted = 0;
        while !ready.is_empty() {
            let (i, &g) = ready
                .iter()
                .enumerate()
                .min_by_key(|(_, &g)| members[g].first().copied().unwrap_or(usize::MAX))
                .expect("ready nonempty");
            ready.remove(i);
            order.extend(members[g].iter().copied());
            emitted += 1;
            for &s in &gsuccs[g] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        assert_eq!(
            emitted, n_groups,
            "condensed dependence graph must be acyclic"
        );
        order
    }

    /// Renders the graph in Graphviz DOT format, labelling vertices with
    /// their traversal index and statement kind — handy when inspecting why
    /// a grouping was rejected.
    pub fn to_dot(&self, merged: &[MergedStmt]) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph deps {\n  rankdir=TB;\n");
        for (v, ms) in merged.iter().enumerate() {
            let kind = match &ms.stmt {
                Stmt::Traverse(_) => "call",
                Stmt::Assign { .. } => "assign",
                Stmt::If { .. } => "if",
                Stmt::LocalDef { .. } => "local",
                Stmt::New { .. } => "new",
                Stmt::Delete { .. } => "delete",
                Stmt::Return => "return",
                Stmt::PureStmt { .. } => "pure",
            };
            let shape = if matches!(ms.stmt, Stmt::Traverse(_)) {
                "box"
            } else {
                "ellipse"
            };
            let _ = writeln!(
                out,
                "  v{v} [label=\"t{}#{} {kind}\", shape={shape}];",
                ms.traversal, ms.index
            );
        }
        for u in 0..self.n {
            for &v in &self.succs[u] {
                let _ = writeln!(out, "  v{u} -> v{v};");
            }
        }
        out.push_str("}\n");
        out
    }

    /// Validates that `order` (a permutation of vertices) respects every
    /// edge. Used by tests and debug assertions.
    pub fn order_is_valid(&self, order: &[usize]) -> bool {
        let mut pos = vec![0usize; self.n];
        for (i, &v) in order.iter().enumerate() {
            pos[v] = i;
        }
        (0..self.n).all(|u| self.succs[u].iter().all(|&v| pos[u] < pos[v]))
    }
}

// ---------------------------------------------------------------------
// Subtree independence (intra-tree parallelism)
// ---------------------------------------------------------------------

/// Why a pair of sibling call groups may not execute in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParBlock {
    /// The subtree effects conflict: a cross-subtree read/write or
    /// write/write overlap through the access automata.
    Conflict,
    /// A member call may write a global — a global-accumulator ordering
    /// hazard (parallel workers run against a read-only globals snapshot,
    /// so any subtree global write forces sequential execution).
    GlobalWrite,
}

/// The verdict for one ordered pair of grouped-call body items.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallPairVerdict {
    /// Body-item index of the earlier call.
    pub a: usize,
    /// Body-item index of the later call.
    pub b: usize,
    /// `None` when the pair is parallel-safe; otherwise why not.
    pub blocked: Option<ParBlock>,
}

/// Subtree-independence facts of one fused function's scheduled body.
///
/// A *parallel set* is a maximal run of consecutive `Call` body items
/// that are pairwise parallel-safe: no dependence edge connects any two
/// member vertices in either direction (no cross-subtree conflict) and no
/// member may write a global. Executing the member dispatches of one set
/// in any order — or concurrently on disjoint heap shards — produces the
/// same final state as the scheduled order.
#[derive(Clone, Debug, Default)]
pub struct FnParallelism {
    /// `(start, len)` in body-item indices, `len >= 2`: the items
    /// `body[start..start + len]` form one parallel set.
    pub sets: Vec<(usize, usize)>,
    /// Per-pair verdicts over the body's call items (diagnostics; the
    /// refusal tests assert on the block reason).
    pub pairs: Vec<CallPairVerdict>,
}

impl FnParallelism {
    /// The length of the parallel set starting exactly at `body_idx`, if
    /// one does.
    pub fn set_at(&self, body_idx: usize) -> Option<usize> {
        self.sets
            .iter()
            .find(|&&(start, _)| start == body_idx)
            .map(|&(_, len)| len)
    }
}

/// The per-fused-function subtree-independence verdicts of a whole fused
/// program (recorded on `FusedProgram::par`, indexed by `FusedFnId`).
#[derive(Clone, Debug, Default)]
pub struct SubtreeIndependence {
    /// One entry per fused function, in function-table order.
    pub fns: Vec<FnParallelism>,
}

impl SubtreeIndependence {
    /// The facts for fused function `index`.
    pub fn for_fn(&self, index: usize) -> &FnParallelism {
        &self.fns[index]
    }

    /// Whether any fused function has at least one parallel set (i.e.
    /// whether a parallel run of this program can fork at all).
    pub fn any_parallel(&self) -> bool {
        self.fns.iter().any(|f| !f.sets.is_empty())
    }
}

/// Classifies the grouped-call items of one scheduled body for parallel
/// execution.
///
/// `items` has one entry per scheduled body item, in body order:
/// `Some(member_vertices)` for a grouped call (vertex indices into
/// `graph`), `None` for a plain statement. `writes_globals[v]` says
/// whether merged vertex `v`'s summary may write any global (for call
/// vertices this covers the whole subtree traversal via the call
/// automata).
pub fn subtree_independence(
    graph: &DepGraph,
    items: &[Option<Vec<usize>>],
    writes_globals: &[bool],
) -> FnParallelism {
    let independent = |a: &[usize], b: &[usize]| {
        a.iter().all(|&u| {
            b.iter()
                .all(|&v| !graph.has_edge(u, v) && !graph.has_edge(v, u))
        })
    };
    let fork_ok = |members: &[usize]| members.iter().all(|&v| !writes_globals[v]);

    // Pairwise verdicts over all call items (diagnostics).
    let calls: Vec<(usize, &Vec<usize>)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.as_ref().map(|members| (i, members)))
        .collect();
    let mut pairs = Vec::new();
    for (i, &(a, ma)) in calls.iter().enumerate() {
        for &(b, mb) in &calls[i + 1..] {
            let blocked = if !independent(ma, mb) {
                Some(ParBlock::Conflict)
            } else if !fork_ok(ma) || !fork_ok(mb) {
                Some(ParBlock::GlobalWrite)
            } else {
                None
            };
            pairs.push(CallPairVerdict { a, b, blocked });
        }
    }

    // Maximal runs of consecutive, pairwise-safe call items.
    let mut sets = Vec::new();
    let mut run: Vec<(usize, &Vec<usize>)> = Vec::new();
    let mut flush = |run: &mut Vec<(usize, &Vec<usize>)>| {
        if run.len() >= 2 {
            sets.push((run[0].0, run.len()));
        }
        run.clear();
    };
    for (i, item) in items.iter().enumerate() {
        match item {
            Some(members) if fork_ok(members) => {
                if !run.iter().all(|&(_, m)| independent(m, members)) {
                    flush(&mut run);
                }
                run.push((i, members));
            }
            _ => flush(&mut run),
        }
    }
    flush(&mut run);
    FnParallelism { sets, pairs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grafter_frontend::compile;

    fn dep_fixture() -> (Program, Vec<MethodId>) {
        let p = compile(
            r#"
            tree class Node {
                child Node* next;
                int a = 0; int b = 0;
                virtual traversal writeA() {}
                virtual traversal readA() {}
                virtual traversal touchB() {}
            }
            tree class Cons : Node {
                traversal writeA() { a = 1; this->next->writeA(); }
                traversal readA() { b = a; this->next->readA(); }
                traversal touchB() { b = b + 1; this->next->touchB(); }
            }
            tree class End : Node { }
            "#,
        )
        .unwrap();
        let cons = p.class_by_name("Cons").unwrap();
        let seq = vec![
            p.method_on_class(cons, "writeA").unwrap(),
            p.method_on_class(cons, "readA").unwrap(),
        ];
        (p, seq)
    }

    #[test]
    fn merge_bodies_concatenates_in_order() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        assert_eq!(merged.len(), 4);
        assert_eq!(merged[0].traversal, 0);
        assert_eq!(merged[3].traversal, 1);
        assert_eq!(merged[1].index, 1);
    }

    #[test]
    fn detects_cross_traversal_data_dependence() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // writeA's `a = 1` (0) is a source of readA's `b = a` (2).
        assert!(g.has_edge(0, 2));
        // The recursive calls both touch `a` below: call (1) vs call (3).
        assert!(g.has_edge(1, 3));
        // writeA's statement does not conflict with readA's call (the call
        // only touches descendants' fields, not this node's `a`)... it does:
        // readA's call reads next.a etc., writeA's stmt writes this.a — no
        // overlap.
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn independent_traversals_have_no_cross_edges() {
        let p = compile(
            r#"
            tree class Node {
                child Node* next;
                int a = 0; int b = 0;
                virtual traversal incA() {}
                virtual traversal incB() {}
            }
            tree class Cons : Node {
                traversal incA() { a = a + 1; this->next->incA(); }
                traversal incB() { b = b + 1; this->next->incB(); }
            }
            tree class End : Node { }
            "#,
        )
        .unwrap();
        let cons = p.class_by_name("Cons").unwrap();
        let seq = vec![
            p.method_on_class(cons, "incA").unwrap(),
            p.method_on_class(cons, "incB").unwrap(),
        ];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        for u in 0..2 {
            for v in 2..4 {
                assert!(!g.has_edge(u, v), "{u} -> {v} should be absent");
            }
        }
        // Within incA, `a = a + 1` and the recursive call are independent
        // (the call only touches next's subtree).
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn control_dependence_pins_returns() {
        let p = compile(
            r#"
            tree class A {
                bool stop = false;
                int x = 0;
                int y = 0;
                traversal f() {
                    if (stop) { return; }
                    x = 1;
                    y = 2;
                }
            }
            "#,
        )
        .unwrap();
        let a = p.class_by_name("A").unwrap();
        let seq = vec![p.method_on_class(a, "f").unwrap()];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // The conditional return pins both later statements.
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
        // But x=1 and y=2 stay mutually independent.
        assert!(!g.has_edge(1, 2));
    }

    #[test]
    fn schedule_groups_consecutively_and_validly() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // Group the two calls (vertices 1 and 3) together if legal.
        assert!(!g.reaches_outside(1, 3, &[1, 3]));
        let group_of = vec![0, 1, 2, 1];
        let order = g.schedule(&group_of, 3);
        assert!(g.order_is_valid(&order), "order {order:?}");
        let p1 = order.iter().position(|&v| v == 1).unwrap();
        let p3 = order.iter().position(|&v| v == 3).unwrap();
        assert_eq!(p3, p1 + 1, "grouped calls are consecutive: {order:?}");
    }

    #[test]
    fn dot_output_names_calls_and_statements() {
        let (p, seq) = dep_fixture();
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        let dot = g.to_dot(&merged);
        assert!(dot.contains("digraph deps"));
        assert!(dot.contains("call"));
        assert!(dot.contains("assign"));
        assert!(dot.contains("->"));
    }

    #[test]
    fn sibling_subtree_calls_form_a_parallel_set() {
        let p = compile(
            r#"
            tree class Tree {
                int v = 0;
                virtual traversal bump() {}
            }
            tree class Inner : Tree {
                child Tree* left;
                child Tree* right;
                traversal bump() { v = v + 1; this->left->bump(); this->right->bump(); }
            }
            tree class Leaf : Tree { }
            "#,
        )
        .unwrap();
        let inner = p.class_by_name("Inner").unwrap();
        let seq = vec![p.method_on_class(inner, "bump").unwrap()];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // Body items: Stmt(v=v+1), Call(left), Call(right) — vertices 0,1,2.
        let items = vec![None, Some(vec![1]), Some(vec![2])];
        let writes_globals = vec![false, false, false];
        let par = subtree_independence(&g, &items, &writes_globals);
        assert_eq!(par.sets, vec![(1, 2)], "left/right dispatches fork");
        assert_eq!(par.set_at(1), Some(2));
        assert_eq!(par.set_at(2), None);
        assert_eq!(
            par.pairs,
            vec![CallPairVerdict {
                a: 1,
                b: 2,
                blocked: None
            }]
        );
    }

    #[test]
    fn global_accumulator_blocks_the_fork() {
        let p = compile(
            r#"
            global int SUM = 0;
            tree class Tree {
                int v = 0;
                virtual traversal sum() {}
            }
            tree class Inner : Tree {
                child Tree* left;
                child Tree* right;
                traversal sum() { SUM = SUM + v; this->left->sum(); this->right->sum(); }
            }
            tree class Leaf : Tree { }
            "#,
        )
        .unwrap();
        let inner = p.class_by_name("Inner").unwrap();
        let seq = vec![p.method_on_class(inner, "sum").unwrap()];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        let items = vec![None, Some(vec![1]), Some(vec![2])];
        let writes_globals: Vec<bool> = merged
            .iter()
            .map(|ms| {
                !acc.summary(seq[ms.traversal], ms.index)
                    .global_writes
                    .is_empty_language()
            })
            .collect();
        assert!(writes_globals[1] && writes_globals[2], "calls write SUM");
        let par = subtree_independence(&g, &items, &writes_globals);
        assert!(par.sets.is_empty(), "accumulating siblings must not fork");
        // Both subtrees write SUM, so the pair conflicts outright.
        assert_eq!(par.pairs[0].blocked, Some(ParBlock::Conflict));
    }

    #[test]
    fn reaches_outside_detects_blocking_vertex() {
        let p = compile(
            r#"
            tree class Node {
                child Node* next;
                int a = 0;
                virtual traversal f() {}
                virtual traversal g() {}
            }
            tree class Cons : Node {
                traversal f() { this->next->f(); a = 1; }
                traversal g() { a = 2; this->next->g(); }
            }
            tree class End : Node { }
            "#,
        )
        .unwrap();
        let cons = p.class_by_name("Cons").unwrap();
        let seq = vec![
            p.method_on_class(cons, "f").unwrap(),
            p.method_on_class(cons, "g").unwrap(),
        ];
        let merged = DepGraph::merge_bodies(&p, &seq);
        let mut acc = ProgramAccesses::new(&p);
        let g = DepGraph::build(&mut acc, &seq, &merged);
        // merged: 0 = call f, 1 = a=1, 2 = a=2, 3 = call g.
        // a=1 and a=2 conflict; both calls are on `next`.
        // Grouping the calls requires call(0) ... call(3) with a=1, a=2 in
        // between; 0→3 path through outside vertices does not exist (calls
        // touch only the next subtree, stores touch this.a).
        assert!(!g.reaches_outside(0, 3, &[0, 3]));
        // But a=1 (1) reaches a=2 (2) directly.
        assert!(g.reaches(1, 2));
    }
}
