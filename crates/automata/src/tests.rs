//! Unit and property tests for the automata crate.

use crate::{Nfa, PathSym};

fn path(word: &str) -> Vec<char> {
    word.chars().collect()
}

fn lit(word: &str) -> Nfa<char> {
    Nfa::from_path(&path(word), false)
}

fn lit_prefixes(word: &str) -> Nfa<char> {
    Nfa::from_path(&path(word), true)
}

#[test]
fn empty_automaton_accepts_nothing() {
    let a: Nfa<char> = Nfa::new();
    assert!(a.is_empty_language());
    assert!(!a.accepts(&path("a")));
    assert!(!a.accepts(&[]));
}

#[test]
fn primitive_path_accepts_exactly_itself() {
    let a = lit("abc");
    assert!(a.accepts(&path("abc")));
    assert!(!a.accepts(&path("ab")));
    assert!(!a.accepts(&path("abcd")));
    assert!(!a.accepts(&path("abd")));
    assert!(!a.accepts(&[]));
}

#[test]
fn prefix_reads_accept_every_nonempty_prefix() {
    let a = lit_prefixes("abc");
    assert!(a.accepts(&path("a")));
    assert!(a.accepts(&path("ab")));
    assert!(a.accepts(&path("abc")));
    assert!(!a.accepts(&[]));
    assert!(!a.accepts(&path("abcd")));
}

#[test]
fn union_accepts_both_languages() {
    let a = lit("ab").union(&lit("cd"));
    assert!(a.accepts(&path("ab")));
    assert!(a.accepts(&path("cd")));
    assert!(!a.accepts(&path("ac")));
    assert!(!a.is_empty_language());
}

#[test]
fn union_in_place_matches_union() {
    let mut a = lit("ab");
    a.union_in_place(&lit("cd"));
    assert!(a.accepts(&path("ab")));
    assert!(a.accepts(&path("cd")));
    assert!(!a.accepts(&path("ad")));
}

#[test]
fn intersects_detects_shared_word() {
    let a = lit("ab").union(&lit("xy"));
    let b = lit("xy").union(&lit("qq"));
    assert!(a.intersects(&b));
    let c = lit("zz");
    assert!(!a.intersects(&c));
}

#[test]
fn intersects_is_prefix_sensitive() {
    // write `a.b` vs read of prefixes of `a.b.c` — the read touches `a.b`.
    let write = lit("ab");
    let read = lit_prefixes("abc");
    assert!(write.intersects(&read));
    // write `a.b.q` does not clash with read prefixes of `a.b` only if no
    // prefix equals it.
    let write2 = lit("abq");
    let read2 = lit_prefixes("ab");
    assert!(!write2.intersects(&read2));
}

#[test]
fn wildcard_overlaps_everything() {
    // `a.*` (opaque object write) intersects a read of `a.x`.
    let w = lit("a*");
    let r = lit("ax");
    assert!(w.intersects(&r));
    assert!(r.intersects(&w));
    // ... but not a read of `b.x`.
    let r2 = lit("bx");
    assert!(!w.intersects(&r2));
}

#[test]
fn wildcard_self_loop_matches_any_suffix() {
    // Automaton for delete: `a` then any sequence of members.
    let mut a = lit("a");
    let last = a.len() - 1;
    a.add_transition(last, '*', last);
    assert!(a.accepts(&path("a")));
    assert!(a.accepts(&path("axyz")));
    assert!(!a.accepts(&path("bx")));
    let deep = lit("axq");
    assert!(a.intersects(&deep));
}

#[test]
fn accepts_wildcard_word_symbol() {
    let a = lit("ab");
    // A word containing a wildcard symbol (an "any" access) overlaps.
    assert!(a.accepts(&['a', '*']));
}

#[test]
fn intersection_product_agrees_with_on_the_fly() {
    let a = lit("ab").union(&lit_prefixes("xyz"));
    let b = lit("xy").union(&lit("qq"));
    let prod = a.intersection(&b);
    assert_eq!(prod.is_empty_language(), !a.intersects(&b));
    assert!(prod.accepts(&path("xy")));
    assert!(!prod.accepts(&path("ab")));
}

#[test]
fn intersects_over_approximates_through_a_left_wildcard() {
    // `{*x, ay}` vs `{by}`: stepping by `*` merges `a` and `b` successors.
    let a = lit("*x").union(&lit("ay"));
    let b = lit("by");
    assert!(a.intersection(&b).is_empty_language());
    assert!(a.intersects(&b), "a left wildcard over-approximates");
    assert!(!b.intersects(&a), "a wildcard-free left side is exact");
}

#[test]
fn intersection_with_disjoint_is_empty() {
    let a = lit("abc");
    let b = lit("abd");
    assert!(a.intersection(&b).is_empty_language());
    assert!(!a.intersects(&b));
}

#[test]
fn determinize_preserves_language() {
    let a = lit("ab").union(&lit_prefixes("ax"));
    let d = a.determinize('!');
    for w in ["ab", "a", "ax", "axx", "b", ""] {
        assert_eq!(a.accepts(&path(w)), d.accepts(&path(w)), "word {w:?}");
    }
}

#[test]
fn minimize_collapses_equivalent_states() {
    // Two branches with identical suffix language should collapse.
    let a = lit("ax").union(&lit("bx"));
    let d = a.determinize('!');
    let m = d.minimize();
    assert!(m.len() <= d.len());
    for w in ["ax", "bx", "a", "b", "x", "abx"] {
        assert_eq!(a.accepts(&path(w)), m.accepts(&path(w)), "word {w:?}");
    }
}

#[test]
fn minimize_handles_wildcards_via_fresh_symbol() {
    let mut a = lit("a");
    let last = a.len() - 1;
    a.add_transition(last, '*', last);
    let m = a.minimize('!');
    assert!(m.accepts(&path("a")));
    assert!(m.accepts(&path("axy")));
}

#[test]
fn path_sym_meet_and_overlap() {
    use crate::Symbol;
    assert!(PathSym::Any.overlaps(&PathSym::Field(3)));
    assert!(PathSym::Field(3).overlaps(&PathSym::Any));
    assert!(!PathSym::Field(3).overlaps(&PathSym::Field(4)));
    assert!(PathSym::Root.overlaps(&PathSym::Root));
    assert!(!PathSym::Root.overlaps(&PathSym::Field(0)));
    assert_eq!(PathSym::Any.meet(&PathSym::Field(7)), PathSym::Field(7));
    assert_eq!(PathSym::Field(7).meet(&PathSym::Any), PathSym::Field(7));
}

#[test]
fn dot_output_contains_states_and_labels() {
    let a = lit("ab");
    let dot = a.to_dot("g");
    assert!(dot.contains("digraph g"));
    assert!(dot.contains("doublecircle"));
    assert!(dot.contains("label=\"'a'\""));
}

#[test]
fn realistic_grafter_statement_automata() {
    // Models Fig. 4: reads of `Width = Content->Width + Border.Size*2`.
    // Tree reads: this->Content (prefix), this->Content.Width, this->Border.Size.
    const CONTENT: PathSym = PathSym::Field(0);
    const WIDTH: PathSym = PathSym::Field(1);
    const BORDER: PathSym = PathSym::Field(2);
    const SIZE: PathSym = PathSym::Field(3);

    let mut reads = Nfa::from_path(&[PathSym::Root, CONTENT, WIDTH], true);
    reads.union_in_place(&Nfa::from_path(&[PathSym::Root, BORDER, SIZE], true));
    // Write automaton of the same statement: this->Width.
    let write = Nfa::from_path(&[PathSym::Root, WIDTH], false);

    // A later statement writing this->Content.Width conflicts with the reads.
    let w2 = Nfa::from_path(&[PathSym::Root, CONTENT, WIDTH], false);
    assert!(reads.intersects(&w2));
    // Writing this->Content.Height does not.
    let w3 = Nfa::from_path(&[PathSym::Root, CONTENT, PathSym::Field(9)], false);
    assert!(!reads.intersects(&w3));
    // But it reads the prefix this->Content, which a topology mutation
    // (delete this->Content, i.e. Content followed by any suffix) clobbers.
    let mut del = Nfa::from_path(&[PathSym::Root, CONTENT], false);
    let last = del.len() - 1;
    del.add_transition(last, PathSym::Any, last);
    assert!(reads.intersects(&del));
    assert!(write.intersects(&Nfa::from_path(&[PathSym::Root, WIDTH], true)));
}

/// Randomised language properties. Originally proptest strategies; the
/// build environment is offline, so cases are drawn from the vendored
/// deterministic `rand` shim with fixed seeds instead.
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const CASES: usize = 128;

    fn word(rng: &mut StdRng) -> Vec<char> {
        let len = rng.gen_range(0..6usize);
        (0..len)
            .map(|_| ['a', 'b', 'c'][rng.gen_range(0..3usize)])
            .collect()
    }

    fn words(rng: &mut StdRng) -> Vec<Vec<char>> {
        let n = rng.gen_range(1..5usize);
        (0..n).map(|_| word(rng)).collect()
    }

    fn nfa_from_words(words: &[Vec<char>]) -> Nfa<char> {
        let mut a = Nfa::from_path(&words[0], false);
        for w in &words[1..] {
            a.union_in_place(&Nfa::from_path(w, false));
        }
        a
    }

    #[test]
    fn union_accepts_all_members() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..CASES {
            let ws = words(&mut rng);
            let a = nfa_from_words(&ws);
            for w in &ws {
                assert!(a.accepts(w));
            }
        }
    }

    #[test]
    fn intersects_iff_shared_word() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..CASES {
            let ws1 = words(&mut rng);
            let ws2 = words(&mut rng);
            let a = nfa_from_words(&ws1);
            let b = nfa_from_words(&ws2);
            let shared = ws1.iter().any(|w| ws2.contains(w));
            assert_eq!(a.intersects(&b), shared);
            // And the explicit product agrees.
            assert_eq!(!a.intersection(&b).is_empty_language(), shared);
        }
    }

    #[test]
    fn intersects_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..CASES {
            let a = nfa_from_words(&words(&mut rng));
            let b = nfa_from_words(&words(&mut rng));
            assert_eq!(a.intersects(&b), b.intersects(&a));
        }
    }

    /// A random automaton of at most five states over `a`, `b`, `c` and
    /// the wildcard `*`, with epsilons, self-loops and back edges.
    fn random_nfa(rng: &mut StdRng, wildcards: bool) -> Nfa<char> {
        let labels: &[char] = if wildcards {
            &['a', 'b', 'c', '*']
        } else {
            &['a', 'b', 'c']
        };
        let mut a = Nfa::new();
        for _ in 1..rng.gen_range(1..6usize) {
            a.add_state();
        }
        let n = a.len();
        for _ in 0..rng.gen_range(0..2 * n + 2) {
            let (from, to) = (rng.gen_range(0..n), rng.gen_range(0..n));
            a.add_transition(from, labels[rng.gen_range(0..labels.len())], to);
        }
        for _ in 0..rng.gen_range(0..n) {
            a.add_epsilon(rng.gen_range(0..n), rng.gen_range(0..n));
        }
        for st in 0..n {
            a.set_accepting(st, rng.gen_bool(0.3));
        }
        a
    }

    /// Every word over `a`, `b`, `c` of length at most `max`.
    fn all_words(max: usize) -> Vec<Vec<char>> {
        let mut words = vec![Vec::new()];
        let mut frontier = vec![Vec::new()];
        for _ in 0..max {
            frontier = frontier
                .iter()
                .flat_map(|w: &Vec<char>| {
                    ['a', 'b', 'c'].iter().map(move |&c| {
                        let mut next = w.clone();
                        next.push(c);
                        next
                    })
                })
                .collect();
            words.extend(frontier.iter().cloned());
        }
        words
    }

    /// `intersects` is sound: it never misses a shared word, whatever the
    /// wildcards, epsilons and loops; and it is exact when its receiver
    /// has no wildcard transition.
    #[test]
    fn intersects_never_misses_a_shared_word() {
        let mut rng = StdRng::seed_from_u64(7);
        let words = all_words(4);
        let mut over_approximations = 0;
        for case in 0..4 * CASES {
            let left_wildcards = case % 2 == 0;
            let a = random_nfa(&mut rng, left_wildcards);
            let b = random_nfa(&mut rng, true);
            let exact = !a.intersection(&b).is_empty_language();
            let fast = a.intersects(&b);
            assert!(!exact || fast, "case {case}: missed a shared word");
            if !left_wildcards {
                assert_eq!(fast, exact, "case {case}: wildcard-free left side");
            }
            over_approximations += usize::from(fast && !exact);
            if words.iter().any(|w| a.accepts(w) && b.accepts(w)) {
                assert!(exact, "case {case}: product lost a shared word");
            }
        }
        // The generator must reach the over-approximating case too.
        assert!(over_approximations > 0);
    }

    #[test]
    fn determinize_minimize_preserve_language() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..CASES {
            let a = nfa_from_words(&words(&mut rng));
            let probe = word(&mut rng);
            let d = a.determinize('!');
            let m = d.minimize();
            assert_eq!(a.accepts(&probe), d.accepts(&probe));
            assert_eq!(a.accepts(&probe), m.accepts(&probe));
            assert!(m.len() <= d.len());
        }
    }

    #[test]
    fn empty_language_iff_no_word_accepted() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..CASES {
            let a = nfa_from_words(&words(&mut rng));
            assert!(!a.is_empty_language());
        }
    }

    #[test]
    fn prefix_automaton_accepts_prefixes() {
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..CASES {
            let w = word(&mut rng);
            if w.is_empty() {
                continue;
            }
            let a = Nfa::from_path(&w, true);
            for k in 1..=w.len() {
                assert!(a.accepts(&w[..k]));
            }
            assert!(!a.accepts(&[]));
        }
    }
}
