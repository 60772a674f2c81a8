"""The acceptance gate: one test per criterion, exact tolerances, one
pass/fail line each (run with -v -s to see them)."""
import itertools
import random
import time

import pytest

from sclkit.rdf import Iri, Literal, XSD_INT, nodes_of, parse_turtle, term_key
from sclkit import shacl as sh
from sclkit.scl import (
    ConstraintAxiom,
    PsiCount,
    PsiEq,
    PsiFilter,
    PsiNot,
    RelAtom,
    RelStep,
    SclSentence,
    ShapeRel,
    TargetNodeAxiom,
    psi_and_all,
)
from sclkit.filters import (
    MNRC_CAPS,
    OrderCmp,
    DatatypeAtom,
    bounded_axiomatisation,
    combo_cardinality,
    truncate_combination,
)
from sclkit.translate import tau, tau_inverse
from sclkit.semantics import (
    ALL_MODES,
    Assignment,
    SemanticsMode,
    gamma_transform,
    is_faithful,
    sentence_holds,
    stratified_assignment,
    validate,
)
from sclkit.decide import SearchBudget, emit_smtlib, scl_bounded_sat
from sclkit.corpus import (
    corpus_seed,
    random_document,
    random_filter_combination,
    random_graph,
)
from oracles import brute_force_faithful

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"


def iri(local):
    return Iri(EX + local)


def doc(text):
    return sh.document_from_graph(parse_turtle(PRE + text))


def report(n, name, started):
    print(f"\nACCEPTANCE {n} ({name}): PASS [{time.time() - started:.1f}s]")


# shared corpora -----------------------------------------------------------------

CORPUS_FEATURES = ("S", "Z", "A", "D", "C")


@pytest.fixture(scope="module")
def nonrecursive_corpus():
    rng = random.Random(corpus_seed())
    out = []
    for _ in range(500):
        m = random_document(rng, max_shapes=4, features=CORPUS_FEATURES,
                            recursive=False, max_count=2)
        out.append((m, random_graph(rng, max_nodes=4)))
    return out


@pytest.fixture(scope="module")
def recursive_corpus():
    rng = random.Random(corpus_seed() + 1)
    out = []
    for _ in range(200):
        m = random_document(rng, max_shapes=3, features=CORPUS_FEATURES,
                            recursive=True, max_count=2)
        out.append((m, random_graph(rng, max_nodes=4)))
    return out


FIG1_SHAPES = """
:studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
:disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
"""
FIG1_DATA = ":Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane . :Jane :hasFaculty :CS ."


def test_criterion_1_fig1_reproduction():
    started = time.time()
    m = doc(FIG1_SHAPES)
    g = parse_turtle(PRE + FIG1_DATA)
    bad = parse_turtle(PRE + FIG1_DATA.replace(":Jane :hasFaculty :CS", ":Jane :hasFaculty :Math"))
    for mode in ALL_MODES:
        assert validate(g, m, mode) is True
        assert validate(bad, m, mode) is False
    assert time.time() - started < 1.0
    report(1, "figure-1 validation", started)


def test_criterion_2_self_negation_semantics():
    started = time.time()
    m = doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS .")
    g = parse_turtle(PRE + ":a :p :b .")
    assert validate(g, m, SemanticsMode.BRAVE_PARTIAL) is True
    assert validate(g, m, SemanticsMode.BRAVE_TOTAL) is False
    assert time.time() - started < 1.0
    report(2, "self-negating shape, partial vs total", started)


def test_criterion_3_vegdish():
    started = time.time()
    m = doc("""
    :VegDishShape a sh:PropertyShape ; sh:targetNode :DailySpecial ; sh:path :hasIngredient ;
      sh:minCount 1 ; sh:qualifiedMaxCount 0 ; sh:qualifiedValueShape [ sh:not :VegIngredientShape ] .
    :VegIngredientShape a sh:PropertyShape ; sh:path [ sh:inversePath :hasIngredient ] ;
      sh:node :VegDishShape .
    """)
    g1 = parse_turtle(PRE + ":DailySpecial :hasIngredient :Chicken .")
    assert validate(g1, m, SemanticsMode.BRAVE_TOTAL) is True
    assert validate(g1, m, SemanticsMode.CAUTIOUS_TOTAL) is False
    assert time.time() - started < 1.0
    report(3, "brave vs cautious recursion", started)


def _phi_star(drop_ne3=False):
    def ilit(n):
        return Literal(str(n), XSD_INT)

    s = ShapeRel(iri("s"))
    conjuncts = [
        PsiFilter(OrderCmp(">", ilit(0))),
        PsiFilter(OrderCmp("<=", ilit(5))),
        PsiFilter(DatatypeAtom(XSD_INT)),
        PsiNot(PsiEq(ilit(2))),
    ]
    if not drop_ne3:
        conjuncts.append(PsiNot(PsiEq(ilit(3))))
    body = PsiCount(4, RelStep(RelAtom(iri("R"))), psi_and_all(conjuncts))
    return SclSentence((TargetNodeAxiom(s, iri("e")), ConstraintAxiom(s, body)))


def test_criterion_4_filter_axiomatisation_satisfiability():
    started = time.time()
    budget = SearchBudget(max_fresh=5, max_triples=99, max_seconds=10)
    phi = _phi_star()
    ax = bounded_axiomatisation(phi)
    assert not ax.approximate
    encoded = emit_smtlib(phi, ax.sentence)
    assert "(check-sat)" in encoded and "(assert" in encoded
    unsat_search = scl_bounded_sat(phi.conjoin(ax.sentence), budget)
    assert not unsat_search.is_sat  # three eligible anonymous values < four needed
    variant = _phi_star(drop_ne3=True)
    ax2 = bounded_axiomatisation(variant)
    sat_search = scl_bounded_sat(variant.conjoin(ax2.sentence), budget)
    assert sat_search.is_sat  # hand count: values {1, 4, 5} plus the constant 3
    assert time.time() - started < 10.0
    report(4, "bounded filter axiomatisation refutes/admits models", started)


def test_criterion_5_semantics_collapse_nonrecursive(nonrecursive_corpus):
    started = time.time()
    for m, g in nonrecursive_corpus:
        answers = {mode: validate(g, m, mode, use_fast_path=False) for mode in ALL_MODES}
        assert len(set(answers.values())) == 1, (answers, m)
    assert time.time() - started < 300
    report(5, "all four semantics agree on 500 non-recursive instances", started)


def test_criterion_6_partial_to_total_reduction(nonrecursive_corpus, recursive_corpus):
    started = time.time()
    pairs = [
        (SemanticsMode.BRAVE_PARTIAL, SemanticsMode.BRAVE_TOTAL),
        (SemanticsMode.CAUTIOUS_PARTIAL, SemanticsMode.CAUTIOUS_TOTAL),
    ]
    for m, g in itertools.chain(nonrecursive_corpus, recursive_corpus):
        gm = gamma_transform(m)
        for partial_mode, total_mode in pairs:
            assert validate(g, m, partial_mode, use_fast_path=False) == validate(
                g, gm, total_mode, use_fast_path=False
            ), (m, partial_mode)
    assert time.time() - started < 600
    report(6, "partial semantics reduces to total on the split document", started)


def test_criterion_7_translation_bridge(nonrecursive_corpus):
    started = time.time()
    # exhaustive micro-suite: every total assignment of small instances
    rng = random.Random(corpus_seed() + 2)
    micro = [(random_document(rng, max_shapes=3, features=CORPUS_FEATURES),
              random_graph(rng, max_nodes=3)) for _ in range(60)]
    micro += [(doc(FIG1_SHAPES), parse_turtle(PRE + FIG1_DATA))]
    checked = 0
    for m, g in micro:
        m = sh.eliminate_xone(m)
        phi = tau(m)
        nodes = sorted(nodes_of(g, m), key=term_key)
        shapes = m.names()
        pairs = [(n, s) for n in nodes for s in shapes]
        if len(pairs) > 10:
            continue
        for bits in itertools.product((True, False), repeat=len(pairs)):
            sigma = Assignment(nodes, shapes, dict(zip(pairs, bits)))
            assert is_faithful(g, sigma, m) == sentence_holds(phi, g, sigma)
            checked += 1
    assert checked >= 2000
    # round trip preserves validation across the corpus
    for m, g in nonrecursive_corpus[:120]:
        back = tau_inverse(tau(m))
        for mode in ALL_MODES:
            assert validate(g, m, mode) == validate(g, back, mode)
    assert time.time() - started < 300
    report(7, "faithfulness equals satisfaction of the translation; round trip", started)


def test_criterion_8_stratified_equals_brute_force(nonrecursive_corpus):
    started = time.time()
    rng = random.Random(corpus_seed() + 3)
    for m, _g in nonrecursive_corpus:
        base = sh.strip_targets(m)
        # brute force needs a small sign space; the document is unchanged
        g = random_graph(rng, max_nodes=3 if len(m.shapes) <= 3 else 2)
        rho = stratified_assignment(g, base)
        faithful = brute_force_faithful(g, base, total=True)
        assert faithful == [rho], m
        assert rho.is_total()
        if len(rho.nodes) * len(rho.shapes) <= 8:
            partial = brute_force_faithful(g, base, total=False)
            assert partial == [rho]  # unique even among partial assignments
    assert time.time() - started < 300
    report(8, "non-recursive least fixpoint is the unique faithful assignment", started)


def test_criterion_9_classifier_table():
    started = time.time()
    from sclkit.corpus import feature_witness
    from sclkit.decide import (DECIDABLE, EXPTIME_COMPLETE, FMP_NO, FMP_UNKNOWN, FMP_YES,
                               NEXPTIME, NEXPTIME_COMPLETE, TWO_EXPTIME, UNDECIDABLE,
                               UNKNOWN, classify)

    table = [
        (set(), DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
        ({"S"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
        ({"Z"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
        ({"A"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
        ({"S", "Z", "A"}, DECIDABLE, EXPTIME_COMPLETE, FMP_YES),
        ({"D"}, DECIDABLE, NEXPTIME, FMP_YES),
        ({"E"}, DECIDABLE, NEXPTIME, FMP_YES),
        ({"A", "E"}, DECIDABLE, NEXPTIME, FMP_YES),
        ({"Z", "A", "D", "E"}, DECIDABLE, NEXPTIME, FMP_YES),
        ({"C"}, DECIDABLE, NEXPTIME_COMPLETE, FMP_NO),
        ({"Z", "A", "D", "E", "C"}, DECIDABLE, NEXPTIME_COMPLETE, FMP_NO),
        ({"S", "D"}, DECIDABLE, TWO_EXPTIME, FMP_YES),
        ({"S", "Z", "A", "D"}, DECIDABLE, TWO_EXPTIME, FMP_YES),
        ({"T"}, DECIDABLE, TWO_EXPTIME, FMP_UNKNOWN),
        ({"S", "T", "D"}, DECIDABLE, TWO_EXPTIME, FMP_NO),
        ({"S", "Z", "A", "T", "D"}, DECIDABLE, TWO_EXPTIME, FMP_NO),
        ({"S", "O"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "A", "C"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "E", "C"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "E", "O'"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "Z", "A", "E"}, UNDECIDABLE, None, FMP_UNKNOWN),
        ({"S", "E"}, UNDECIDABLE, None, FMP_UNKNOWN),
        ({"S", "T", "O"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "A", "T", "C"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "T", "E", "C"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "T", "E", "O'"}, UNDECIDABLE, None, FMP_NO),
        ({"S", "Z", "A", "T", "E"}, UNDECIDABLE, None, FMP_UNKNOWN),
        ({"O"}, UNKNOWN, None, FMP_NO),
        ({"E", "O'"}, UNKNOWN, None, FMP_NO),
        ({"Z", "A", "T", "D", "E"}, UNKNOWN, None, FMP_UNKNOWN),
    ]
    assert len(table) >= 20
    for letters, decidability, complexity, fmp in table:
        verdict = classify(feature_witness(letters))
        assert (verdict.decidability, verdict.complexity, verdict.fmp) == (
            decidability, complexity, fmp), letters
    report(9, f"classifier matches the fragment map on {len(table)} fragments", started)


def test_criterion_10_capacity_lemmas():
    started = time.time()
    rng = random.Random(corpus_seed() + 4)
    known = (Literal("1", XSD_INT), Literal("4", XSD_INT), iri("k"))
    for _ in range(10_000):
        combo = random_filter_combination(rng)
        reduced = truncate_combination(combo, known)
        counts = reduced.type_counts()
        assert all(counts.get(t, 0) <= cap for t, cap in MNRC_CAPS.items())
        assert combo_cardinality(reduced, known) == combo_cardinality(combo, known)
    report(10, "capacity truncation never changes cardinality (10^4 cases)", started)
