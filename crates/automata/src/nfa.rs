//! Nondeterministic finite automata with epsilon transitions.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;

use crate::sym::Symbol;

/// Index of an automaton state.
pub type StateId = usize;

/// A nondeterministic finite automaton with epsilon transitions.
///
/// States are dense indices; state `start` is the unique initial state.
/// The automaton accepts a word if some path from `start` spelling the word
/// (modulo epsilon transitions and wildcard overlap) ends in an accepting
/// state.
#[derive(Clone, Debug, Default)]
pub struct Nfa<S> {
    transitions: Vec<Vec<(S, StateId)>>,
    epsilons: Vec<Vec<StateId>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl<S: Symbol> Nfa<S> {
    /// Creates an automaton with a single, non-accepting start state.
    ///
    /// Its language is empty until transitions and accept states are added.
    pub fn new() -> Self {
        Nfa {
            transitions: vec![Vec::new()],
            epsilons: vec![Vec::new()],
            accepting: vec![false],
            start: 0,
        }
    }

    /// Builds the primitive automaton for a single access path.
    ///
    /// A *read* of an access path also reads every non-empty prefix of the
    /// path, so with `prefixes_accept = true` every state except the start is
    /// accepting. A *write* touches only the full path, so with
    /// `prefixes_accept = false` only the final state accepts (the implied
    /// prefix reads are added to the statement's read automaton separately).
    pub fn from_path(path: &[S], prefixes_accept: bool) -> Self {
        let mut a = Nfa::new();
        let mut cur = a.start;
        for sym in path {
            let next = a.add_state();
            a.add_transition(cur, sym.clone(), next);
            if prefixes_accept {
                a.set_accepting(next, true);
            }
            cur = next;
        }
        a.set_accepting(cur, true);
        a
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if the automaton has no states other than an inert
    /// start state. Note this is *not* a language-emptiness test; see
    /// [`Nfa::is_empty_language`].
    pub fn is_empty(&self) -> bool {
        self.len() == 1 && self.transitions[0].is_empty() && !self.accepting[0]
    }

    /// The initial state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns `true` if `state` is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting[state]
    }

    /// Adds a fresh state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        self.transitions.push(Vec::new());
        self.epsilons.push(Vec::new());
        self.accepting.push(false);
        self.transitions.len() - 1
    }

    /// Adds a labelled transition.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) {
        if !self.transitions[from]
            .iter()
            .any(|(s, t)| *s == sym && *t == to)
        {
            self.transitions[from].push((sym, to));
        }
    }

    /// Adds an epsilon transition.
    pub fn add_epsilon(&mut self, from: StateId, to: StateId) {
        if from != to && !self.epsilons[from].contains(&to) {
            self.epsilons[from].push(to);
        }
    }

    /// Marks (or unmarks) a state as accepting.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) {
        self.accepting[state] = accepting;
    }

    /// Outgoing labelled transitions of a state.
    pub fn transitions_from(&self, state: StateId) -> &[(S, StateId)] {
        &self.transitions[state]
    }

    /// Outgoing epsilon transitions of a state.
    pub fn epsilons_from(&self, state: StateId) -> &[StateId] {
        &self.epsilons[state]
    }

    /// Copies `other` into `self` (disjoint state renaming) and returns the
    /// mapping applied to `other`'s state ids (i.e. the offset).
    fn absorb(&mut self, other: &Nfa<S>) -> usize {
        let offset = self.len();
        for st in 0..other.len() {
            self.transitions.push(
                other.transitions[st]
                    .iter()
                    .map(|(s, t)| (s.clone(), t + offset))
                    .collect(),
            );
            self.epsilons
                .push(other.epsilons[st].iter().map(|t| t + offset).collect());
            self.accepting.push(other.accepting[st]);
        }
        offset
    }

    /// Language union: returns an automaton accepting `L(self) ∪ L(other)`.
    pub fn union(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut u = Nfa::new();
        let a = u.absorb(self);
        let b = u.absorb(other);
        u.add_epsilon(u.start, self.start + a);
        u.add_epsilon(u.start, other.start + b);
        u
    }

    /// In-place union: merges `other` into `self` behind an epsilon edge
    /// from `self`'s start state.
    pub fn union_in_place(&mut self, other: &Nfa<S>) {
        let offset = self.absorb(other);
        let start = self.start;
        self.add_epsilon(start, other.start + offset);
    }

    /// Computes the epsilon closure of a set of states.
    fn eps_closure(&self, states: &mut BTreeSet<StateId>) {
        let mut queue: VecDeque<StateId> = states.iter().copied().collect();
        while let Some(st) = queue.pop_front() {
            for &next in &self.epsilons[st] {
                if states.insert(next) {
                    queue.push_back(next);
                }
            }
        }
    }

    /// Returns `true` if the automaton accepts no word at all.
    pub fn is_empty_language(&self) -> bool {
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start] = true;
        while let Some(st) = queue.pop_front() {
            if self.accepting[st] {
                return false;
            }
            for &next in &self.epsilons[st] {
                if !seen[next] {
                    seen[next] = true;
                    queue.push_back(next);
                }
            }
            for (_, next) in &self.transitions[st] {
                if !seen[*next] {
                    seen[*next] = true;
                    queue.push_back(*next);
                }
            }
        }
        true
    }

    /// Returns `true` if the automaton accepts `word`, taking wildcard
    /// transitions into account (a wildcard transition matches any input
    /// symbol, and a wildcard input symbol matches any transition).
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut current = BTreeSet::from([self.start]);
        self.eps_closure(&mut current);
        for sym in word {
            let mut next = BTreeSet::new();
            for &st in &current {
                for (label, to) in &self.transitions[st] {
                    if label.overlaps(sym) {
                        next.insert(*to);
                    }
                }
            }
            if next.is_empty() {
                return false;
            }
            self.eps_closure(&mut next);
            current = next;
        }
        current.iter().any(|&st| self.accepting[st])
    }

    /// Returns `true` if `L(self) ∩ L(other)` may be non-empty.
    ///
    /// This is the core dependence test of the compiler: two statements may
    /// conflict iff the write automaton of one intersects a read or write
    /// automaton of the other. The product of the two subset constructions
    /// is explored on the fly, stepping by the symbols `self` can read;
    /// wildcard transitions overlap every symbol.
    ///
    /// The test never misses a shared word, and it is exact when `self` has
    /// no wildcard transition. When `self` does, stepping by the wildcard
    /// merges `other`'s successors under *different* symbols into one
    /// subset, so the answer may be `true` for disjoint languages. It is
    /// therefore not symmetric: with `self = {*x, ay}` and `other = {by}`,
    /// `self.intersects(&other)` is `true` while `other.intersects(&self)`
    /// and the exact [`Nfa::intersection`] say the languages are disjoint.
    pub fn intersects(&self, other: &Nfa<S>) -> bool {
        let mut start = (BTreeSet::from([self.start]), BTreeSet::from([other.start]));
        self.eps_closure(&mut start.0);
        other.eps_closure(&mut start.1);

        let mut seen: HashSet<(BTreeSet<StateId>, BTreeSet<StateId>)> = HashSet::new();
        let mut queue = VecDeque::from([start.clone()]);
        seen.insert(start);

        while let Some((a_states, b_states)) = queue.pop_front() {
            let a_accepts = a_states.iter().any(|&s| self.accepting[s]);
            let b_accepts = b_states.iter().any(|&s| other.accepting[s]);
            if a_accepts && b_accepts {
                return true;
            }
            // Collect candidate symbols from both sides and advance the
            // product by every overlapping pair.
            let mut moves: BTreeMap<(BTreeSet<StateId>, BTreeSet<StateId>), ()> = BTreeMap::new();
            let mut a_syms: Vec<&S> = a_states
                .iter()
                .flat_map(|&s| self.transitions[s].iter().map(|(sym, _)| sym))
                .collect();
            // A symbol read by several states yields the same move each
            // time; `moves` is ordered, so expanding it once changes
            // neither the subsets built nor the visiting order.
            a_syms.sort();
            a_syms.dedup();
            for a_sym in a_syms {
                // Destination on the `self` side under `a_sym`.
                let mut a_next = BTreeSet::new();
                for &s in &a_states {
                    for (sym, to) in &self.transitions[s] {
                        if sym.overlaps(a_sym) {
                            a_next.insert(*to);
                        }
                    }
                }
                // Destination on the `other` side under `a_sym`.
                let mut b_next = BTreeSet::new();
                for &s in &b_states {
                    for (sym, to) in &other.transitions[s] {
                        if sym.overlaps(a_sym) {
                            b_next.insert(*to);
                        }
                    }
                }
                if a_next.is_empty() || b_next.is_empty() {
                    continue;
                }
                self.eps_closure(&mut a_next);
                other.eps_closure(&mut b_next);
                moves.insert((a_next, b_next), ());
            }
            for (pair, ()) in moves {
                if !seen.contains(&pair) {
                    seen.insert(pair.clone());
                    queue.push_back(pair);
                }
            }
        }
        false
    }

    /// Builds an explicit product automaton accepting exactly
    /// `L(self) ∩ L(other)`, wildcards included.
    ///
    /// Mostly useful for tests and debugging; the dependence test uses the
    /// cheaper on-the-fly [`Nfa::intersects`], which agrees with this
    /// product's emptiness unless `self` has a wildcard transition (then it
    /// may over-approximate, never under-approximate).
    pub fn intersection(&self, other: &Nfa<S>) -> Nfa<S> {
        let mut out = Nfa::new();
        let mut index: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut queue = VecDeque::new();

        // Work on raw state pairs; epsilon closures are chased per side when
        // a pair is expanded.
        let pair_state = |out: &mut Nfa<S>,
                          index: &mut HashMap<(StateId, StateId), StateId>,
                          queue: &mut VecDeque<(StateId, StateId)>,
                          a: StateId,
                          b: StateId| {
            *index.entry((a, b)).or_insert_with(|| {
                let id = out.add_state();
                queue.push_back((a, b));
                id
            })
        };

        index.insert((self.start, other.start), out.start);
        queue.push_back((self.start, other.start));

        while let Some((a, b)) = queue.pop_front() {
            let from = index[&(a, b)];
            let mut a_cl = BTreeSet::from([a]);
            self.eps_closure(&mut a_cl);
            let mut b_cl = BTreeSet::from([b]);
            other.eps_closure(&mut b_cl);
            if a_cl.iter().any(|&s| self.accepting[s]) && b_cl.iter().any(|&s| other.accepting[s]) {
                out.set_accepting(from, true);
            }
            for &sa in &a_cl {
                for (asym, ato) in &self.transitions[sa] {
                    for &sb in &b_cl {
                        for (bsym, bto) in &other.transitions[sb] {
                            if asym.overlaps(bsym) {
                                let to = pair_state(&mut out, &mut index, &mut queue, *ato, *bto);
                                out.add_transition(from, asym.meet(bsym), to);
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Determinizes the automaton by subset construction.
    ///
    /// Wildcard transitions are expanded over the concrete alphabet of the
    /// automaton plus a designated "fresh" symbol representing every symbol
    /// not otherwise mentioned; `fresh` must not appear in the automaton.
    pub fn determinize(&self, fresh: S) -> Dfa<S> {
        let mut alphabet: BTreeSet<S> = BTreeSet::new();
        let mut has_wildcard = false;
        for st in 0..self.len() {
            for (sym, _) in &self.transitions[st] {
                if sym.is_wildcard() {
                    has_wildcard = true;
                } else {
                    alphabet.insert(sym.clone());
                }
            }
        }
        if has_wildcard {
            alphabet.insert(fresh.clone());
        }
        let alphabet: Vec<S> = alphabet.into_iter().collect();
        let other = if has_wildcard {
            alphabet.iter().position(|s| *s == fresh)
        } else {
            None
        };

        let mut start = BTreeSet::from([self.start]);
        self.eps_closure(&mut start);

        let mut index: HashMap<BTreeSet<StateId>, StateId> = HashMap::new();
        let mut dfa = Dfa {
            alphabet: alphabet.clone(),
            other,
            transitions: Vec::new(),
            accepting: Vec::new(),
            start: 0,
        };
        index.insert(start.clone(), 0);
        dfa.transitions.push(vec![None; alphabet.len()]);
        dfa.accepting.push(start.iter().any(|&s| self.accepting[s]));
        let mut queue = VecDeque::from([start]);

        while let Some(states) = queue.pop_front() {
            let from = index[&states];
            for (ai, sym) in alphabet.iter().enumerate() {
                let mut next = BTreeSet::new();
                for &s in &states {
                    for (label, to) in &self.transitions[s] {
                        if label.overlaps(sym) {
                            next.insert(*to);
                        }
                    }
                }
                if next.is_empty() {
                    continue;
                }
                self.eps_closure(&mut next);
                let to = match index.get(&next) {
                    Some(&id) => id,
                    None => {
                        let id = dfa.transitions.len();
                        index.insert(next.clone(), id);
                        dfa.transitions.push(vec![None; alphabet.len()]);
                        dfa.accepting.push(next.iter().any(|&s| self.accepting[s]));
                        queue.push_back(next);
                        id
                    }
                };
                dfa.transitions[from][ai] = Some(to);
            }
        }
        dfa
    }

    /// Determinizes and minimises the automaton, returning an equivalent
    /// automaton with the minimal number of states (plus possibly a dead
    /// state removed). This mirrors the paper's Fig. 5c reduction step.
    pub fn minimize(&self, fresh: S) -> Dfa<S> {
        self.determinize(fresh).minimize()
    }

    /// Renders the automaton in Graphviz DOT format.
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph {name} {{");
        let _ = writeln!(out, "  rankdir=LR;");
        for st in 0..self.len() {
            let shape = if self.accepting[st] {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  s{st} [shape={shape}];");
        }
        let _ = writeln!(out, "  init [shape=point]; init -> s{};", self.start);
        for st in 0..self.len() {
            for (sym, to) in &self.transitions[st] {
                let _ = writeln!(out, "  s{st} -> s{to} [label=\"{sym:?}\"];");
            }
            for to in &self.epsilons[st] {
                let _ = writeln!(out, "  s{st} -> s{to} [label=\"eps\", style=dashed];");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// A deterministic finite automaton produced by [`Nfa::determinize`].
///
/// The transition table is dense over the discovered alphabet; `None` is the
/// (implicit) dead state.
#[derive(Clone, Debug)]
pub struct Dfa<S> {
    alphabet: Vec<S>,
    /// Column standing in for "every symbol not in the alphabet" when the
    /// source NFA had wildcard transitions.
    other: Option<usize>,
    transitions: Vec<Vec<Option<StateId>>>,
    accepting: Vec<bool>,
    start: StateId,
}

impl<S: Symbol> Dfa<S> {
    /// Number of states.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Returns `true` if the DFA has no states (never constructed this way,
    /// provided for completeness).
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Returns `true` if the DFA accepts `word` (wildcard-free input).
    pub fn accepts(&self, word: &[S]) -> bool {
        let mut st = self.start;
        for sym in word {
            let ai = match self
                .alphabet
                .iter()
                .position(|a| !a.is_wildcard() && a == sym)
                .or(self.other)
            {
                Some(ai) => ai,
                None => return false,
            };
            match self.transitions[st][ai] {
                Some(next) => st = next,
                None => return false,
            }
        }
        self.accepting[st]
    }

    /// Moore minimisation by iterated partition refinement.
    pub fn minimize(&self) -> Dfa<S> {
        let n = self.len();
        // Initial partition: accepting vs non-accepting.
        let mut class: Vec<usize> = self.accepting.iter().map(|&a| usize::from(a)).collect();
        loop {
            // Signature of a state: its class and the classes of successors.
            let mut sig_index: HashMap<(usize, Vec<Option<usize>>), usize> = HashMap::new();
            let mut next_class = vec![0usize; n];
            for st in 0..n {
                let sig = (
                    class[st],
                    self.transitions[st]
                        .iter()
                        .map(|t| t.map(|to| class[to]))
                        .collect::<Vec<_>>(),
                );
                let len = sig_index.len();
                let id = *sig_index.entry(sig).or_insert(len);
                next_class[st] = id;
            }
            if next_class == class {
                break;
            }
            class = next_class;
        }
        let n_classes = class.iter().max().map_or(0, |&m| m + 1);
        let mut transitions = vec![vec![None; self.alphabet.len()]; n_classes];
        let mut accepting = vec![false; n_classes];
        for st in 0..n {
            accepting[class[st]] = accepting[class[st]] || self.accepting[st];
            for (ai, t) in self.transitions[st].iter().enumerate() {
                transitions[class[st]][ai] = t.map(|to| class[to]);
            }
        }
        Dfa {
            alphabet: self.alphabet.clone(),
            other: self.other,
            transitions,
            accepting,
            start: class[self.start],
        }
    }
}
