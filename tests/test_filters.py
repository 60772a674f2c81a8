import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from sclkit.rdf import (Blank, Iri, Literal, RDF_LANGSTRING, XSD_BOOLEAN, XSD_DECIMAL, XSD_INT, XSD_INTEGER,
                        XSD_STRING, term_key)
from sclkit.filters import (
    DatatypeAtom,
    Eq,
    FilterAxiomError,
    FilterCombination,
    Finite,
    Huge,
    Infinite,
    KindAtom,
    LanguageTagAtom,
    MaxLengthAtom,
    MinLengthAtom,
    MNRC_CAPS,
    NotEq,
    Nu,
    OrderCmp,
    PatternAtom,
    Pos,
    bounded_axiomatisation,
    combo_cardinality,
    combo_witnesses,
    compare,
    eval_filter,
    naive_axiomatisation,
)
from generators import corpus_seed, random_filter_combination
from oracles import bound_le, truncate_combination, type_counts

EX = "http://ex/"


def ilit(n):
    return Literal(str(n), XSD_INT)


F_POS = OrderCmp(">", ilit(0))
F_LE5 = OrderCmp("<=", ilit(5))
F_INT = DatatypeAtom(XSD_INT)


def combo(*conjuncts):
    return FilterCombination.of(conjuncts)


def test_eval_filter_examples():
    assert eval_filter(KindAtom("IRI"), Iri(EX + "Alex"))
    assert not eval_filter(KindAtom("IRI"), Blank("b"))
    assert eval_filter(DatatypeAtom(XSD_INT), Literal("3", XSD_INT))
    assert not eval_filter(DatatypeAtom(XSD_INT), Literal("3", XSD_INTEGER))
    assert not eval_filter(OrderCmp(">", ilit(0)), Literal("abc"))  # cross-partition
    assert eval_filter(OrderCmp(">", ilit(0)), Literal("0.5", XSD_DECIMAL))
    assert eval_filter(OrderCmp(">", Literal("false", XSD_BOOLEAN)), Literal("true", XSD_BOOLEAN))
    assert eval_filter(LanguageTagAtom("EN"), Literal("hi", language="en"))
    assert eval_filter(MinLengthAtom(3), Iri("abc"))
    assert not eval_filter(MinLengthAtom(1), Blank("x"))
    assert eval_filter(PatternAtom("^a.c$"), Literal("abc"))
    assert eval_filter(PatternAtom("b"), Literal("abc"))  # search semantics


def test_cardinality_paper_examples():
    assert combo_cardinality(combo(Pos(F_POS), Pos(F_LE5), Pos(F_INT))) == Finite(5)
    c = combo(Pos(F_POS), Pos(F_LE5), Pos(F_INT), NotEq(ilit(2)), NotEq(ilit(3)))
    assert combo_cardinality(c) == Finite(3)
    assert combo_witnesses(c) == [ilit(1), ilit(4), ilit(5)]
    assert combo_cardinality(combo(Pos(KindAtom("IRI")), Pos(KindAtom("Literal")))) == Finite(0)
    assert combo_cardinality(combo(Pos(DatatypeAtom(XSD_BOOLEAN)))) == Finite(2)


def test_cardinality_infinite_and_huge():
    assert combo_cardinality(combo(Pos(F_INT))) == Infinite()
    assert combo_cardinality(combo(Pos(F_POS))) == Infinite()
    assert combo_cardinality(combo(Pos(DatatypeAtom(XSD_DECIMAL)), Pos(F_POS), Pos(F_LE5))) == Infinite()
    big = combo(Pos(F_INT), Pos(OrderCmp(">=", ilit(0))), Pos(OrderCmp("<=", ilit(2 ** 21))))
    assert combo_cardinality(big) == Huge()
    point = combo(Pos(DatatypeAtom(XSD_DECIMAL)), Pos(OrderCmp(">=", Literal("2.5", XSD_DECIMAL))),
                  Pos(OrderCmp("<=", Literal("2.5", XSD_DECIMAL))))
    assert combo_cardinality(point) == Finite(1)
    assert combo_witnesses(point) == [Literal("2.5", XSD_DECIMAL)]


def test_cardinality_with_nu_and_equality():
    known = [ilit(2), ilit(3), Iri(EX + "e")]
    base = (Pos(F_POS), Pos(F_LE5), Pos(F_INT))
    assert combo_cardinality(combo(*base, Nu()), known) == Finite(3)
    assert combo_cardinality(combo(*base, Eq(Iri(EX + "e"))), known) == Finite(0)
    assert combo_cardinality(combo(*base, Eq(ilit(2))), known) == Finite(1)
    assert combo_cardinality(combo(Eq(ilit(2)), NotEq(ilit(2)))) == Finite(0)
    assert combo_cardinality(combo(Eq(ilit(2)), Eq(ilit(3)))) == Finite(0)


def test_cardinality_language_tags_and_strings():
    assert combo_cardinality(combo(Pos(LanguageTagAtom("en")))) == Infinite()
    assert combo_cardinality(combo(Pos(LanguageTagAtom("en")), Pos(LanguageTagAtom("fr")))) == Finite(0)
    assert combo_cardinality(combo(Pos(LanguageTagAtom("en")), Pos(F_INT))) == Finite(0)
    assert combo_cardinality(
        combo(Pos(LanguageTagAtom("en")), Pos(DatatypeAtom(RDF_LANGSTRING)), Pos(MaxLengthAtom(0)))
    ) == Finite(1)
    assert combo_cardinality(combo(Pos(DatatypeAtom(XSD_STRING)), Pos(MaxLengthAtom(0)))) == Finite(1)
    exact = combo(Pos(DatatypeAtom(XSD_STRING)), Pos(OrderCmp(">=", Literal("ab"))),
                  Pos(OrderCmp("<=", Literal("ab"))))
    assert combo_cardinality(exact) == Finite(1)
    assert combo_cardinality(combo(Pos(DatatypeAtom(XSD_STRING)), Pos(OrderCmp(">", Literal("ab"))),
                                   Pos(OrderCmp("<", Literal("ab"))))) == Finite(0)


def test_cardinality_patterns():
    # '$' also matches before a final newline, as it does for re.search
    c = combo(Pos(PatternAtom("^b[aeiou]b$")), Pos(DatatypeAtom(XSD_STRING)))
    assert combo_cardinality(c) == Finite(10)
    assert combo_witnesses(c) == [Literal(w + end, XSD_STRING)
                                  for w in ("bab", "beb", "bib", "bob", "bub") for end in ("", "\n")]
    assert all(eval_filter(PatternAtom("^b[aeiou]b$"), w) for w in combo_witnesses(c))
    # "5\n" is no canonical integer: int() would fold it onto 5
    ints = combo(Pos(PatternAtom("^[0-9]$")), Pos(F_INT))
    assert combo_cardinality(ints) == Finite(10)
    unanchored = combo(Pos(PatternAtom("b")), Pos(DatatypeAtom(XSD_STRING)))
    assert combo_cardinality(unanchored) == Infinite()
    iris = combo(Pos(PatternAtom("^urn:x[01]$")), Pos(KindAtom("IRI")))
    assert combo_cardinality(iris) == Finite(4)


def test_cardinality_of_a_unicode_class_counts_what_the_matcher_accepts():
    digits = sum(1 for cp in range(0x110000) if re.fullmatch(r"\d", chr(cp)))
    c = combo(Pos(PatternAtom(r"^\d$")), Pos(DatatypeAtom(XSD_STRING)))
    assert combo_cardinality(c) == Finite(2 * digits)


def test_antitone_in_positive_conjuncts():
    rng = random.Random(corpus_seed())
    for _ in range(300):
        c = random_filter_combination(rng)
        extra = Pos(rng.choice([F_POS, F_LE5, F_INT, KindAtom("Literal"), MinLengthAtom(2)]))
        bigger = FilterCombination.of(c.conjuncts + (extra,))
        assert bound_le(combo_cardinality(bigger, _KNOWN), combo_cardinality(c, _KNOWN))


_KNOWN = (ilit(1), ilit(3), Literal("true", XSD_BOOLEAN), Literal("b", XSD_STRING), Iri(EX + "k0"))


def test_truncation_respects_caps_and_preserves_cardinality():
    rng = random.Random(corpus_seed() + 1)
    for _ in range(500):
        c = random_filter_combination(rng)
        reduced = truncate_combination(c, _KNOWN)
        counts = type_counts(reduced)
        for t, cap in MNRC_CAPS.items():
            assert counts.get(t, 0) <= cap
        assert combo_cardinality(reduced, _KNOWN) == combo_cardinality(c, _KNOWN)


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6),
       st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_integer_interval_counting_matches_enumeration(lo, hi, lo_strict, hi_strict):
    atoms = [Pos(F_INT),
             Pos(OrderCmp(">" if lo_strict else ">=", ilit(lo))),
             Pos(OrderCmp("<" if hi_strict else "<=", ilit(hi)))]
    expected = [v for v in range(-10, 11)
                if (v > lo if lo_strict else v >= lo) and (v < hi if hi_strict else v <= hi)]
    got = combo_cardinality(FilterCombination.of(atoms))
    assert got == Finite(len(expected))


def test_digit_length_count_builds_no_unlisted_witnesses(monkeypatch):
    # 0..999: every integer whose canonical form has at most three characters
    big = combo(Pos(DatatypeAtom(XSD_INTEGER)), Pos(MaxLengthAtom(3)),
                Pos(OrderCmp(">=", Literal("0", XSD_INTEGER))))
    made = []
    new = Literal.__new__
    monkeypatch.setattr(Literal, "__new__",
                        lambda cls, *args, **kwargs: made.append((args, kwargs)) or new(cls, *args, **kwargs))
    assert combo_cardinality(big) == Finite(1000)
    assert combo_witnesses(big) is None
    assert made == []
    # exclusion counts the canonical forms in range only: "05" is not one
    known = [Literal("5", XSD_INTEGER), Literal("05", XSD_INTEGER), Literal("1000", XSD_INTEGER)]
    assert combo_cardinality(combo(*big.conjuncts, Nu()), known) == Finite(999)
    assert combo_cardinality(combo(*big.conjuncts, NotEq(Literal("+7", XSD_INTEGER)))) == Finite(1000)


def test_digit_length_count_lists_small_witness_sets():
    # -9..99: canonical forms of at most two characters
    small = combo(Pos(DatatypeAtom(XSD_INTEGER)), Pos(MaxLengthAtom(2)))
    assert combo_cardinality(small) == Finite(109)
    expected = sorted((Literal(str(v), XSD_INTEGER) for v in range(-9, 100)), key=term_key)
    assert combo_witnesses(small) == expected
    known = [Literal("42", XSD_INTEGER), Literal("-09", XSD_INTEGER), Literal("42", XSD_INT)]
    assert combo_cardinality(combo(*small.conjuncts, Nu()), known) == Finite(108)
    assert combo_witnesses(combo(*small.conjuncts, Nu()), known) == [
        t for t in expected if t != Literal("42", XSD_INTEGER)]


# --- axiomatisations ---------------------------------------------------------------

def _phi_star():
    from sclkit.scl import (ConstraintAxiom, PsiCount, PsiEq, PsiFilter, PsiNot, RelAtom,
                            RelStep, SclSentence, ShapeRel, TargetNodeAxiom, psi_and_all)

    s = ShapeRel(Iri(EX + "s"))
    body = PsiCount(4, RelStep(RelAtom(Iri(EX + "R"))), psi_and_all([
        PsiFilter(F_POS), PsiFilter(F_LE5), PsiFilter(F_INT),
        PsiNot(PsiEq(ilit(2))), PsiNot(PsiEq(ilit(3))),
    ]))
    return SclSentence((TargetNodeAxiom(s, Iri(EX + "e")), ConstraintAxiom(s, body)))


def test_naive_axiomatisation_contains_witness_enumeration():
    from sclkit.scl import ConstraintAxiom, PsiEq, pretty

    result = naive_axiomatisation(_phi_star())
    assert not result.approximate
    # the main combination's enumeration block x=1 or x=4 or x=5 appears
    rendered = pretty(result.sentence)
    assert "x = \"1\"" in rendered and "x = \"4\"" in rendered and "x = \"5\"" in rendered
    # each fresh shape is defined twice (combination and enumeration)
    from collections import Counter

    counts = Counter(a.shape for a in result.sentence.constraint_axioms())
    assert counts and all(v == 2 for v in counts.values())


def test_naive_axiomatisation_empty_and_unsat_cases():
    from sclkit.scl import ConstraintAxiom, PsiNot, PsiTop, SclSentence, ShapeRel

    empty = SclSentence((ConstraintAxiom(ShapeRel(Iri(EX + "s")), PsiTop()),))
    result = naive_axiomatisation(empty)
    assert result.sentence.axioms == ()
    from sclkit.scl import PsiAnd, PsiFilter

    contradictory = SclSentence((ConstraintAxiom(
        ShapeRel(Iri(EX + "s")),
        PsiAnd(PsiFilter(KindAtom("IRI")), PsiFilter(KindAtom("Literal"))),
    ),))
    res2 = naive_axiomatisation(contradictory)
    bottoms = [a for a in res2.sentence.constraint_axioms()
               if isinstance(a.body, PsiNot) and isinstance(a.body.inner, PsiTop)]
    assert bottoms  # the unsatisfiable combination maps to bottom


def test_bounded_axiomatisation_structure():
    from sclkit.scl import AtMostAxiom, ConstraintAxiom

    result = bounded_axiomatisation(_phi_star())
    assert not result.approximate
    nu_axioms = [a for a in result.sentence.axioms if isinstance(a, ConstraintAxiom)]
    assert len(nu_axioms) == 1  # the nu definition
    at_most = [a for a in result.sentence.axioms if isinstance(a, AtMostAxiom)]
    bounds = {a.n for a in at_most}
    assert {0, 3, 5} <= bounds  # the three displayed conjuncts of the example
    sizes = {len(list(__import__("sclkit.scl", fromlist=["walk_psi"]).walk_psi(a.body)))
             for a in at_most}
    assert at_most and max(a.n for a in at_most) <= 2 ** 20


def test_bounded_axiomatisation_rejects_patterns_and_orders():
    from sclkit.scl import ConstraintAxiom, PsiFilter, PsiOrder, RelAtom, RelStep, SclSentence, ShapeRel

    pat = SclSentence((ConstraintAxiom(ShapeRel(Iri(EX + "s")), PsiFilter(PatternAtom("^a$"))),))
    with pytest.raises(FilterAxiomError, match="pattern"):
        bounded_axiomatisation(pat)
    order = SclSentence((ConstraintAxiom(
        ShapeRel(Iri(EX + "s")), PsiOrder(RelStep(RelAtom(Iri(EX + "r"))), RelAtom(Iri(EX + "q")), "<"),
    ),))
    with pytest.raises(FilterAxiomError, match="order"):
        bounded_axiomatisation(order)


def test_bounded_axiomatisation_filter_free_is_just_nu():
    from sclkit.scl import ConstraintAxiom, PsiTop, SclSentence, ShapeRel

    phi = SclSentence((ConstraintAxiom(ShapeRel(Iri(EX + "s")), PsiTop()),))
    result = bounded_axiomatisation(phi)
    assert len(result.sentence.axioms) == 1
    nu = result.sentence.axioms[0]
    assert isinstance(nu, ConstraintAxiom)
    assert isinstance(nu.body, PsiTop)  # no constants: empty conjunction


def test_naive_axiomatisation_equisatisfiability_suite():
    # canonical satisfiability equals uninterpreted satisfiability of the
    # sentence conjoined with its naive axiomatisation, on a curated suite
    from sclkit.decide import SearchBudget, scl_bounded_sat
    from sclkit.scl import (ConstraintAxiom, PsiCount, PsiEq, PsiExists, PsiFilter, PsiNot,
                            RelAtom, RelStep, SclSentence, ShapeRel, TargetNodeAxiom,
                            psi_and_all)

    s = __import__("sclkit.scl", fromlist=["ShapeRel"]).ShapeRel(Iri(EX + "s"))
    e, R = Iri(EX + "e"), Iri(EX + "R")
    budget = SearchBudget(max_fresh=4, max_triples=99, max_seconds=30)

    def sentence(body):
        return SclSentence((TargetNodeAxiom(s, e), ConstraintAxiom(s, body)))

    cases = [
        # (sentence, canonically satisfiable?)
        (sentence(PsiFilter(KindAtom("IRI"))), True),
        (sentence(psi_and_all([PsiFilter(KindAtom("IRI")), PsiFilter(KindAtom("Literal"))])), False),
        (sentence(PsiCount(3, RelStep(RelAtom(R)),
                           PsiFilter(DatatypeAtom(XSD_BOOLEAN)))), False),  # only two booleans
        (sentence(PsiCount(2, RelStep(RelAtom(R)),
                           PsiFilter(DatatypeAtom(XSD_BOOLEAN)))), True),
        (sentence(PsiExists(RelStep(RelAtom(R)), psi_and_all(
            [PsiFilter(F_POS), PsiFilter(OrderCmp("<", ilit(1))), PsiFilter(F_INT)]))), False),
        (sentence(psi_and_all([PsiFilter(F_INT), PsiEq(Iri(EX + "e"))])), False),  # an IRI is no int
    ]
    for phi, canonical_sat in cases:
        ax = naive_axiomatisation(phi)
        got = scl_bounded_sat(phi.conjoin(ax.sentence), budget)
        if canonical_sat:
            assert got.is_sat
        else:
            assert not got.is_sat


def test_bounded_axiomatisation_huge_combination_raises_flag():
    from sclkit.scl import (ConstraintAxiom, PsiCount, PsiFilter, RelAtom, RelStep,
                            SclSentence, ShapeRel, psi_and_all)

    wide = [PsiFilter(OrderCmp(">=", ilit(0))), PsiFilter(OrderCmp("<=", ilit(2 ** 21))),
            PsiFilter(DatatypeAtom(XSD_INT))]
    phi = SclSentence((ConstraintAxiom(
        ShapeRel(Iri(EX + "s")),
        PsiCount(2, RelStep(RelAtom(Iri(EX + "R"))), psi_and_all(wide)),
    ),))
    result = bounded_axiomatisation(phi)
    assert result.approximate
    assert result.skipped  # the huge window's counting conjunct is omitted
    from sclkit.scl import AtMostAxiom

    bounds = {a.n for a in result.sentence.axioms if isinstance(a, AtMostAxiom)}
    assert all(n <= 2 ** 20 for n in bounds)


# --- the bounded axiomatisation against its per-combination reference -----------

_PREFIXES = ("@prefix ex: <http://example.org/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
             "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")

# literal constants that pass some filters and fail others
_MIXED_CONSTANT_DOCUMENTS = (
    """ex:S a sh:PropertyShape ; sh:targetNode ex:a ; sh:path ex:p ; sh:hasValue 5 ;
         sh:datatype xsd:integer ; sh:minInclusive 3 ; sh:maxExclusive 9 .
       ex:T a sh:PropertyShape ; sh:targetClass ex:C ; sh:path ex:q ; sh:in ( "a" 6 ) ;
         sh:maxLength 1 ; sh:languageIn ( "en" ) .""",
    """ex:S a sh:PropertyShape ; sh:targetNode ex:a ; sh:path ex:p ; sh:in ( "a" 6 ) ;
         sh:datatype xsd:string ; sh:minLength 1 ; sh:maxLength 3 .
       ex:T a sh:PropertyShape ; sh:targetNode ex:b ; sh:path ex:q ; sh:hasValue 5 ;
         sh:maxInclusive 5 ; sh:minExclusive 4 .""",
    """ex:S a sh:PropertyShape ; sh:targetNode ex:a ; sh:path ex:p ;
         sh:in ( "ab"@en "x"@de 2.5 true ) ; sh:languageIn ( "en" "fr" ) ; sh:minLength 2 .
       ex:T a sh:PropertyShape ; sh:path ex:q ; sh:hasValue "b" ; sh:maxInclusive "c" ;
         sh:nodeKind sh:Literal .""",
    """ex:S a sh:PropertyShape ; sh:targetNode ex:a ; sh:path ex:p ; sh:in ( 0 7 "7" ) ;
         sh:datatype xsd:integer ; sh:minInclusive 0 ; sh:maxInclusive 2000000 .
       ex:T a sh:NodeShape ; sh:targetNode 7 ; sh:not ex:S .""",
)


def _assert_same_bounded_axiomatisation(phi) -> None:
    from sclkit.scl import pretty
    from oracles import reference_bounded_axiomatisation

    try:
        want = reference_bounded_axiomatisation(phi)
    except FilterAxiomError as e:
        with pytest.raises(FilterAxiomError, match=re.escape(str(e))):
            bounded_axiomatisation(phi)
        return
    got = bounded_axiomatisation(phi)
    assert pretty(got.sentence) == pretty(want.sentence)
    assert got.approximate == want.approximate
    assert got.skipped == want.skipped


def _parsed_sentence(turtle: str):
    from sclkit.rdf import parse_turtle
    from sclkit.shacl import document_from_graph
    from sclkit.translate import tau

    return tau(document_from_graph(parse_turtle(turtle)))


def test_bounded_axiomatisation_matches_reference_on_random_documents():
    from sclkit.corpus import random_document
    from sclkit.translate import tau

    for seed in range(150):
        m = random_document(random.Random(seed), max_shapes=4, recursive=seed % 2 == 1)
        _assert_same_bounded_axiomatisation(tau(m))


@pytest.mark.parametrize("n_filters, seeds", [(1, range(8)), (2, range(6)), (3, range(2))])
def test_bounded_axiomatisation_matches_reference_on_filter_families(n_filters, seeds):
    # the benchmark's template-count filter documents; four and five filters
    # give 46k and 100k combinations, 11 s and 25 s per comparison
    from test_grounding import _template_family

    for seed in seeds:
        turtle = _template_family("_filter_family")(random.Random(seed), n_filters)
        _assert_same_bounded_axiomatisation(_parsed_sentence(turtle))


@pytest.mark.parametrize("k", range(len(_MIXED_CONSTANT_DOCUMENTS)))
def test_bounded_axiomatisation_matches_reference_with_literal_constants(k):
    from sclkit.scl import AtMostAxiom, PsiEq, PsiFilter, walk_psi

    phi = _parsed_sentence(_PREFIXES + _MIXED_CONSTANT_DOCUMENTS[k])
    bounds = set()
    for axiom in bounded_axiomatisation(phi).sentence.axioms:
        if isinstance(axiom, AtMostAxiom):
            nodes = list(walk_psi(axiom.body))
            if any(isinstance(n, PsiEq) for n in nodes) and any(isinstance(n, PsiFilter) for n in nodes):
                bounds.add(axiom.n)
    assert bounds == {0, 1}  # a constant passes one filter part and fails another
    _assert_same_bounded_axiomatisation(phi)


def test_ill_typed_numeric_literals_compare_false():
    ten = Literal("10", XSD_INTEGER)
    for bad in (Literal("٣", XSD_INTEGER), Literal("1_0", XSD_INTEGER), Literal("1/2", XSD_DECIMAL),
                Literal("1e1", XSD_DECIMAL), Literal("", XSD_INT)):
        assert not compare("<=", bad, ten) and not compare(">", bad, ten)
        assert not eval_filter(OrderCmp("<=", ten), bad)
    # a limit outside the lexical space holds for no value
    assert not eval_filter(OrderCmp(">=", Literal("1_0", XSD_INTEGER)), ten)
    # signs, leading zeros and bare decimal points are in the lexical spaces
    assert compare("<", Literal("+3", XSD_INTEGER), Literal("05", XSD_INTEGER))
    assert compare("<", Literal(".5", XSD_DECIMAL), Literal("5.", XSD_DECIMAL))
    assert compare("<=", Literal("5.", XSD_DECIMAL), Literal("05", XSD_INTEGER))
