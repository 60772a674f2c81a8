"""Differential fuzzing of the internal engines: the CNF solver against
truth-table enumeration, the regex automata against the stdlib matcher, and
the two satisfiability searches against each other."""
import itertools
import random
import re
import time
import tracemalloc

import pytest

from sclkit import automata
from sclkit.automata import (
    ALPHABET_SIZE,
    MAX_NFA_STATES,
    CharSet,
    UnsupportedPattern,
    compile_pattern,
    nfa_to_dfa,
    pattern_nfa,
)
from sclkit.decide import SearchBudget, bounded_sat, scl_bounded_sat
from sclkit.filters import bounded_axiomatisation
from sclkit.sat import _Cnf, _dpll
from sclkit.semantics import SemanticsMode
from sclkit.translate import tau
from sclkit.corpus import random_document
from oracles import reference_nfa_to_dfa


def _truth_table_sat(n_vars, clauses):
    for bits in itertools.product((False, True), repeat=n_vars):
        assign = (None,) + bits
        if all(any(assign[abs(l)] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def test_dpll_agrees_with_truth_tables():
    rng = random.Random(101)
    outcomes = set()
    # (instances, most variables, widest clause, most clauses per variable)
    for count, max_vars, max_width, density in ((400, 7, 3, 2), (300, 10, 5, 6)):
        for _ in range(count):
            n = rng.randint(1, max_vars)
            clauses = []
            for _ in range(rng.randint(1, density * n)):
                width = rng.randint(1, max_width)
                clause = tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(width))
                clauses.append(clause)
            model = _dpll(n, clauses)
            expected = _truth_table_sat(n, clauses)
            assert (model is not None) == expected
            outcomes.add(expected)
            if model is not None:
                assert all(any((model[abs(l)]) == (l > 0) for l in c) for c in clauses)
    assert outcomes == {False, True}


def _pigeonhole(pigeons, holes):
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    clauses += [(-var(p, h), -var(q, h)) for h in range(holes)
                for p, q in itertools.combinations(range(pigeons), 2)]
    return pigeons * holes, clauses


def test_dpll_refutes_pigeonhole_quickly():
    # six pigeons, five holes: unsat, and hard for a solver that learns nothing
    start = time.perf_counter()
    assert _dpll(*_pigeonhole(6, 5)) is None
    assert time.perf_counter() - start < 2.0
    n, clauses = _pigeonhole(6, 6)
    model = _dpll(n, clauses)
    assert model is not None
    assert all(any(model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_cardinality_encodings_match_brute_force():
    # every count of true literals, mixed polarities, both polarities of the
    # reified at-least literal, and the asserted at-most form
    for size in range(7):
        for n in range(size + 2):
            cnf = _Cnf()
            xs = [cnf.new_var() for _ in range(size)]
            lits = [x if i % 2 == 0 else -x for i, x in enumerate(xs)]
            g = cnf.at_least(n, lits)
            at_most = _Cnf()
            ys = [at_most.new_var() for _ in range(size)]
            at_most.assert_at_most(n, [y if i % 2 == 0 else -y for i, y in enumerate(ys)])
            for bits in itertools.product((False, True), repeat=size):
                fixed = [(x if b else -x,) for x, b in zip(xs, bits)]
                true_count = sum(b == (i % 2 == 0) for i, b in enumerate(bits))
                holds = true_count >= n
                assert (_dpll(cnf.n_vars, cnf.clauses + fixed + [(g,)]) is not None) == holds
                assert (_dpll(cnf.n_vars, cnf.clauses + fixed + [(-g,)]) is not None) != holds
                fixed = [(y if b else -y,) for y, b in zip(ys, bits)]
                assert ((_dpll(at_most.n_vars, at_most.clauses + fixed) is not None)
                        == (true_count <= n)), (size, n, bits)


def test_cnf_helpers_reify_correctly():
    rng = random.Random(103)
    for _ in range(120):
        cnf = _Cnf()
        a, b, c = cnf.new_var(), cnf.new_var(), cnf.new_var()
        g_and = cnf.and_([a, -b])
        g_or = cnf.or_([g_and, c])
        pick = rng.choice([g_or, -g_or, cnf.iff(a, c), cnf.at_least(2, [a, b, c])])
        cnf.add(pick)
        model = _dpll(cnf.n_vars, cnf.clauses)
        if model is None:
            continue
        va, vb, vc = model[a], model[b], model[c]
        val_and = va and not vb
        val_or = val_and or vc
        expected = {
            g_or: val_or, -g_or: not val_or,
        }.get(pick)
        if pick == cnf.iff(a, c):
            expected = va == vc
        elif isinstance(pick, int) and pick == cnf.at_least(2, [a, b, c]):
            expected = sum((va, vb, vc)) >= 2
        assert expected is True


_REGEX_POOL = [
    "^a*b$", "^(ab|cd)+$", "^a{2,4}$", "^[a-c]x?$", "^[^ab]c$", "a+b",
    "^(a|b)(c|d)$", "^x(yz)*$", "^ab?c{1,2}$", "c.d", "^$", "^a..d$",
    "^\\d{2}$", "^[a-d]{1,3}$", "(ab)|(ba)",
    "^a|b$", "^a.b$", "^ab$", "^\\d$", "^\\w+$", "^[^\\W\\d]$", "(?:ab)c", "\\x41",
]


def test_automata_agree_with_stdlib_matcher():
    rng = random.Random(107)
    alphabet = "abcdx1\n\u0663\u00e9 _A"
    for pattern in _REGEX_POOL:
        dfa = compile_pattern(pattern)
        for _ in range(250):
            word = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            assert dfa.accepts(word) == (re.search(pattern, word) is not None), (pattern, word)


def _numbered(dfa):
    """Per state, in breadth-first order from the start: whether it accepts,
    and its edges with their targets' positions in that order."""
    position = {dfa.start: 0}
    order, out = [dfa.start], []
    for state in order:
        edges = []
        for cs, nxt in dfa.transitions.get(state, ()):
            if nxt not in position:
                position[nxt] = len(order)
                order.append(nxt)
            edges.append((cs, position[nxt]))
        out.append((state in dfa.accepting, edges))
    return out


def test_subset_construction_matches_the_reference():
    extra = ["[a-c]+x|y{2,5}", "^\\s*\\w+\\s*$", "(\\d|[a-f]){2,3}", "a{30}", "a.{6}",
             "[^\\d\\s]z*", "^(a|b)*abb$", "\\Aab\\Z", "a$", "x*?y", "(a|ab)(c|bcd)(d*)",
             "\\W\\S\\D", "(\\w|\\d|\\s){5}"]
    for pattern in _REGEX_POOL + extra:
        nfa = pattern_nfa(pattern)
        assert _numbered(nfa_to_dfa(nfa)) == _numbered(reference_nfa_to_dfa(nfa)), pattern


def test_pattern_automata_are_bounded():
    start = time.perf_counter()
    dfa = compile_pattern.__wrapped__("a{1000}")
    assert time.perf_counter() - start < 10
    assert dfa.accepts("b" + "a" * 1000) and not dfa.accepts("a" * 999)
    # a chain of 1,500 states is counted without deep recursion
    assert compile_pattern("\\Aa{1500}\\Z").count_words(10) == 1
    # a.{20} needs 3 * 2**20 DFA states, a{100000} about 100,000 NFA states
    for pattern in ("a.{20}", "a{100000}", f"a{{{MAX_NFA_STATES}}}"):
        start = time.perf_counter()
        with pytest.raises(UnsupportedPattern, match="more than"):
            compile_pattern(pattern)
        assert time.perf_counter() - start < 5, pattern
    # 602 subsets of up to 306 NFA states each, named in 4 bytes per state
    tracemalloc.start()
    try:
        compile_pattern.__wrapped__("a{300}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_automata_counting_matches_enumeration():
    rng = random.Random(109)
    alphabet = "abcd"
    finite_patterns = ["^a{1,3}$", "^(ab|cd)$", "^[a-c]{2}$", "^x?$", "^(a|b)(a|b)$"]
    for pattern in finite_patterns:
        dfa = compile_pattern(pattern)
        words = [w for n in range(0, 5) for w in
                 ("".join(t) for t in itertools.product(alphabet + "x\n", repeat=n))
                 if re.search(pattern, "".join(w))]
        n = dfa.count_words(10 ** 6)
        assert n == len(set(words)), pattern
        assert sorted(dfa.enumerate_words(n)) == sorted(set(words))


def _first_words(pattern: str, max_words: int, alphabet: str, max_len: int) -> list:
    """Brute force: the strings over `alphabet` in which re.search finds the
    pattern, shortest first and lexicographic within a length."""
    out = []
    for n in range(max_len + 1):
        for chars in itertools.product(sorted(set(alphabet)), repeat=n):
            if re.search(pattern, "".join(chars)):
                out.append("".join(chars))
                if len(out) == max_words:
                    return out
    return out


def test_word_enumeration_matches_brute_force():
    # The first words put at each position one of the max_words smallest
    # characters its transition allows.  For patterns over a, b and c those
    # are letters, '\n' (which '$' matches before) or code points below
    # max_words + 2 ('.' skips one, '\n').
    patterns = ["a", "ab|b", "^a?b{1,2}$", "a.b", "[ab]c", "^(a|bc)*$", "a{3}", "^[^a]b", "b$",
                "^(ab|a)*c?$", "^.?$"]
    for max_words in (1, 3, 12):
        alphabet = "".join(map(chr, range(max_words + 2))) + "\nabc"
        for pattern in patterns:
            expected = _first_words(pattern, max_words, alphabet, 4)
            assert compile_pattern(pattern).enumerate_words(max_words) == expected, (pattern, max_words)


def test_word_enumeration_of_an_infinite_language_stays_small():
    # search semantics make the language of a{30} infinite; the frontier
    # once kept every prefix and ran out of memory
    dfa = compile_pattern("a{30}")
    tracemalloc.start()
    try:
        words = dfa.enumerate_words(5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert words == ["a" * 30] + [chr(i) + "a" * 30 for i in range(4)]
    assert peak < 2**20


def test_character_set_ranges_agree_with_explicit_sets():
    # sets of code points near 0, the surrogates and the last code point;
    # a complement stands for the scalar values outside its points
    points = [*range(6), *range(0xD7FD, 0xD803), *range(0xDFFD, 0xE003), *range(0x10FFFC, 0x110000)]
    rng = random.Random(113)

    def random_set():
        chars = set(rng.sample(points, rng.randint(0, 10)))
        bounds = [b for cp in sorted(chars) for b in (cp, cp + 1)]
        negated = rng.random() < 0.5
        return CharSet(tuple(b for b in bounds if bounds.count(b) == 1), negated), chars, negated

    for _ in range(400):
        (a, chars_a, neg_a), (b, chars_b, neg_b) = random_set(), random_set()
        both = a.intersect(b)
        inside = {cp for cp in points if (cp in chars_a) != neg_a and (cp in chars_b) != neg_b}
        assert {cp for cp in points if both.contains(cp)} == inside
        assert both.size() == (ALPHABET_SIZE - len(chars_a | chars_b) if neg_a and neg_b else len(inside))
        assert all(a.complement().contains(cp) != a.contains(cp) for cp in points)
        if not neg_a:
            assert list(a.iter_chars()) == sorted(chars_a)
    above = CharSet((0, 0xD7FE), True)  # every scalar value from U+D7FE on
    assert list(itertools.islice(above.iter_chars(), 4)) == [0xD7FE, 0xD7FF, 0xE000, 0xE001]


def _full_scan_category(pattern: str) -> tuple:
    """The ranges re finds in one string of every code point."""
    raw = bytearray(4 * 0x110000)
    raw[0::4] = bytes(range(256)) * 0x1100
    raw[1::4] = b"".join(bytes([b]) * 0x100 for b in range(256)) * 0x11
    raw[2::4] = b"".join(bytes([b]) * 0x10000 for b in range(0x11))
    every = raw.decode("utf-32-le", "surrogatepass")
    return tuple(b for m in re.finditer(pattern, every) for b in m.span())


def test_unicode_categories_scanned_per_plane_match_one_full_scan(monkeypatch):
    for name, pattern in automata._CATEGORY_PATTERNS.items():
        assert automata._category.__wrapped__(name).bounds == _full_scan_category(pattern), name
    # a range that runs across every plane boundary comes out whole
    monkeypatch.setitem(automata._CATEGORY_PATTERNS, "EVERY", r"[\s\S]+")
    assert automata._category.__wrapped__("EVERY").bounds == (0, 0x110000)


def test_unicode_category_scan_holds_one_plane_at_a_time():
    tracemalloc.start()
    try:
        automata._category.__wrapped__("WORD")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_canonical_sat_implies_axiomatised_uninterpreted_sat():
    # one direction of the bounded-axiomatisation equisatisfiability, checked
    # on filter-bearing documents where the graph search finds a witness
    rng = random.Random(113)
    from sclkit import shacl as sh
    from sclkit.rdf import Iri, Literal, XSD_INT

    budget = SearchBudget(max_fresh=2, max_triples=3, max_seconds=30)
    checked = 0
    for k in range(12):
        limit = Literal(str(rng.randint(0, 3)), XSD_INT)
        atoms = [sh.DatatypeConstraint(XSD_INT),
                 rng.choice([sh.MinInclusive(limit), sh.MaxInclusive(limit)])]
        m = sh.Document((
            sh.Shape(Iri(f"http://ex/s{k}"), (sh.NodeTarget(Iri("http://ex/n")),),
                     sh.PredPath(Iri("http://ex/r")),
                     sh.And((sh.MinCount(rng.randint(1, 2)), sh.AllValues(sh.And(tuple(atoms)))))),
        ))
        graph_level = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, budget)
        if not graph_level.is_sat:
            continue
        phi = tau(m)
        ax = bounded_axiomatisation(phi)
        assert scl_bounded_sat(phi.conjoin(ax.sentence), budget).is_sat
        checked += 1
    assert checked >= 6
