"""Goal-directed grounding against the full grounding.

`scl_bounded_sat` grounds a shape's definition only at the elements where the
rest of the problem mentions the shape.  The reference in `oracles.py` asserts
every axiom at every element; both must find a model on the same inputs, and
every witness of the goal-directed search must validate.  A conjunction is
grounded only until its left side is false, and a template without filter
atoms is searched without the bounded filter axiomatisation; neither may
change an answer.
"""
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import sclkit.decide
from sclkit import shacl as sh
from sclkit.corpus import random_document
from sclkit.decide import (
    SearchBudget,
    _Cnf,
    _Grounder,
    containment_sentence,
    scl_bounded_sat,
    template_sat,
)
from sclkit.filters import DatatypeAtom
from sclkit.rdf import XSD_STRING, Iri, parse_turtle
from sclkit.scl import (
    AtMostAxiom,
    ConstraintAxiom,
    PsiAnd,
    PsiEq,
    PsiFilter,
    PsiNot,
    PsiShape,
    PsiTop,
    SclSentence,
    ShapeRel,
    TargetNodeAxiom,
)
from sclkit.semantics import SemanticsMode, validate
from sclkit.translate import tau

from oracles import reference_bounded_sat

BUDGET = SearchBudget(max_fresh=2, max_triples=3, max_seconds=30)
A, B = ShapeRel(Iri("http://ex/A")), ShapeRel(Iri("http://ex/B"))
C = Iri("http://ex/c")


def _template_family(name: str):
    """A generator of the benchmark's template-count documents."""
    if "perfbench_workloads" not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[spec.name])
    return getattr(sys.modules["perfbench_workloads"], name)


def _witness_conforms(m: sh.Document, name: Iri, constraint, mode: SemanticsMode, result,
                      path=None) -> bool:
    """The template shape, targeted at the witness node, holds on the witness
    graph, as the benchmark's reference check has it."""
    probe = sh.Shape(name, (sh.NodeTarget(result.witness_node),), path, constraint)
    return validate(result.witness_graph, m.with_shape(probe), mode)


def _both_searches(monkeypatch, question):
    """The answer of `question()` with the goal-directed and with the full grounding."""
    goal_directed = question()
    with monkeypatch.context() as patch:
        patch.setattr(sclkit.decide, "scl_bounded_sat", reference_bounded_sat)
        reference = question()
    return goal_directed, reference


def test_goal_directed_grounding_matches_full_grounding_on_corpus():
    seen = {True: 0, False: 0}
    for seed in range(120):
        m = random_document(random.Random(seed), max_shapes=4, recursive=seed % 2 == 1)
        phi = tau(m)
        got = scl_bounded_sat(phi, BUDGET)
        assert got.is_sat == reference_bounded_sat(phi, BUDGET).is_sat, seed
        if got.is_sat:
            assert validate(got.witness_graph, m, SemanticsMode.BRAVE_TOTAL), seed
        seen[got.is_sat] += 1
    assert min(seen.values()) >= 10, seen


def test_goal_directed_containment_refutation_matches_full_grounding():
    # the negated target axioms of the second document pull in what they mention
    rng = random.Random(17)
    refuted = 0
    for k in range(60):
        m1, m2 = (random_document(rng, max_shapes=3) for _ in range(2))
        phi, negated = containment_sentence(m1, m2)
        got = scl_bounded_sat(phi, BUDGET, negated_target_disjunction=negated)
        assert got.is_sat == reference_bounded_sat(phi, BUDGET, negated).is_sat, k
        if got.is_sat:
            assert validate(got.witness_graph, m1, SemanticsMode.BRAVE_TOTAL), k
            assert not validate(got.witness_graph, m2, SemanticsMode.BRAVE_TOTAL), k
            refuted += 1
    assert 10 <= refuted < 60, refuted


def test_goal_directed_template_probes_match_full_grounding(monkeypatch):
    checked = 0
    for seed in range(24):
        m = random_document(random.Random(1000 + seed), max_shapes=3, recursive=seed % 3 == 0)
        names = list(m.names())
        first, last = names[0], names[-1]
        name = sh.NameMint(set(names)).fresh()
        constraint = sh.And((sh.Ref(first), sh.Not(sh.Ref(last))))
        for mode in (SemanticsMode.BRAVE_TOTAL, SemanticsMode.BRAVE_PARTIAL):
            got, ref = _both_searches(
                monkeypatch, lambda: template_sat(m, name, constraint, BUDGET, mode))
            assert got.is_sat == ref.is_sat, (seed, mode)
            if got.is_sat:
                assert _witness_conforms(m, name, constraint, mode, got), (seed, mode)
                checked += 1
    assert checked >= 10


@pytest.mark.parametrize("family, params, other", [
    ("_count_family", (3, 2), "A"), ("_count_family", (4, 3), "S"),
    ("_contradiction_family", (1, 2), "A"), ("_filter_family", (1,), "F0"),
    ("_filter_family", (2,), "F1"),
])
def test_goal_directed_grounding_on_template_count_families(monkeypatch, family, params, other):
    # the template-sat and shape-contains questions of the benchmark's rows
    m = sh.document_from_graph(parse_turtle(_template_family(family)(random.Random(7), *params)))
    t, other = Iri("http://example.org/T"), Iri("http://example.org/" + other)
    template = m.shape(t)
    rest = sh.Document(tuple(s for s in m.shapes if s.name != t))
    star = sh.NameMint(set(m.names())).fresh()
    for doc, name, constraint, path in ((rest, t, template.constraint, template.path),
                                        (m, star, sh.And((sh.Ref(t), sh.Not(sh.Ref(other)))), None)):
        got, ref = _both_searches(
            monkeypatch, lambda: template_sat(doc, name, constraint, BUDGET, path=path))
        assert got.is_sat == ref.is_sat, name
        if got.is_sat:
            assert _witness_conforms(doc, name, constraint, SemanticsMode.BRAVE_TOTAL, got, path)


def test_cyclic_sentence_with_unreached_contradiction_has_no_model():
    # B <-> not B is mentioned by no target, yet it has no total model; only
    # the cycle check keeps it asserted
    phi = SclSentence((
        ConstraintAxiom(A, PsiTop()),
        TargetNodeAxiom(A, C),
        ConstraintAxiom(B, PsiNot(PsiShape(B))),
    ))
    assert not scl_bounded_sat(phi, BUDGET).is_sat
    assert scl_bounded_sat(SclSentence(phi.axioms[:2]), BUDGET).is_sat


def test_shape_with_two_constraint_axioms_is_enforced_unreferenced():
    # the pair B <-> T, B <-> not T says nothing about where B holds, but no
    # element can satisfy both
    phi = SclSentence((
        ConstraintAxiom(A, PsiTop()),
        TargetNodeAxiom(A, C),
        ConstraintAxiom(B, PsiTop()),
        ConstraintAxiom(B, PsiNot(PsiTop())),
    ))
    assert not scl_bounded_sat(phi, BUDGET).is_sat
    assert scl_bounded_sat(SclSentence(phi.axioms[:3]), BUDGET).is_sat


@pytest.mark.parametrize("max_fresh, sizes", [(0, [1]), (1, [1]), (2, [1, 2]), (3, [1, 2, 3])])
def test_constant_free_sentence_solves_each_domain_size_once(monkeypatch, max_fresh, sizes):
    # no element at all is unsatisfiable at every size, so every size is
    # tried; without constants the domain is never empty and no size comes twice
    phi = SclSentence((AtMostAxiom(0, PsiTop()),))
    solved = []
    real_ground = sclkit.decide._ground_problem

    def ground(sentence, domain, *args):
        solved.append(len(domain))
        return real_ground(sentence, domain, *args)

    monkeypatch.setattr(sclkit.decide, "_ground_problem", ground)
    calls = []
    real_dpll = sclkit.decide._dpll
    monkeypatch.setattr(sclkit.decide, "_dpll", lambda *a: calls.append(a) or real_dpll(*a))
    budget = SearchBudget(max_fresh=max_fresh, max_triples=3, max_seconds=30)
    assert not scl_bounded_sat(phi, budget).is_sat
    assert solved == sizes
    assert len(calls) == len(sizes)


def test_conjunction_with_a_false_left_side_grounds_nothing_on_its_right():
    cnf = _Cnf()
    gr = _Grounder(cnf, [C, Iri("urn:sclkit:model:e0"), Iri("urn:sclkit:model:e1")], {C: 0})
    body = PsiAnd(PsiEq(C), PsiFilter(DatatypeAtom(XSD_STRING)))
    assert [gr.psi(body, i) for i in (1, 2)] == [cnf.FALSE, cnf.FALSE]
    assert not gr.filt_vars
    assert gr.psi(body, 0) == gr.filt_vars[(DatatypeAtom(XSD_STRING), 0)]


def test_at_least_builds_nothing_for_false_literals():
    # a counter row that only false literals could still complete is dead
    built = []
    for with_false in (False, True):
        cnf = _Cnf()
        x, y = cnf.new_var(), cnf.new_var()
        lits = [x, cnf.FALSE, y, cnf.FALSE] if with_false else [x, y]
        built.append((cnf.at_least(2, lits), cnf.at_least(3, lits), cnf.n_vars, cnf.clauses))
    assert built[0] == built[1]


def _answer(result) -> str:
    return json.dumps(result.to_json(), sort_keys=True)


def test_filter_free_template_answers_equal_those_with_the_axiomatisation(monkeypatch):
    # the skipped axiomatisation says only "at most one element equals c";
    # forcing it in must not change a byte of any answer
    questions = []
    for seed in range(40):
        m = random_document(random.Random(2000 + seed), max_shapes=3, recursive=seed % 2 == 1)
        names = list(m.names())
        constraint = sh.And((sh.Ref(names[0]), sh.Not(sh.Ref(names[-1]))))
        questions.append((m, sh.NameMint(set(names)).fresh(), constraint, None))
    for params in ((3, 2), (5, 3)):
        doc = sh.document_from_graph(parse_turtle(
            _template_family("_count_family")(random.Random(7), *params)))
        t = Iri("http://example.org/T")
        rest = sh.Document(tuple(s for s in doc.shapes if s.name != t))
        questions.append((rest, t, doc.shape(t).constraint, doc.shape(t).path))
    found = 0
    for m, name, constraint, path in questions:
        for mode in (SemanticsMode.BRAVE_TOTAL, SemanticsMode.BRAVE_PARTIAL):
            def ask():
                return template_sat(m, name, constraint, BUDGET, mode, path=path)
            got = ask()
            with monkeypatch.context() as patch:
                patch.setattr(sclkit.decide, "filter_atoms_of", lambda phi: True)
                assert _answer(got) == _answer(ask()), (name, mode)
            found += got.is_sat
    assert found >= 20


def test_template_out_of_time_keeps_the_approximate_flag():
    turtle = _template_family("_filter_family")(random.Random(7), 2)
    m = sh.document_from_graph(parse_turtle(turtle))
    t = Iri("http://example.org/T")
    rest = sh.Document(tuple(s for s in m.shapes if s.name != t))
    searched = template_sat(rest, t, m.shape(t).constraint, BUDGET)
    assert searched.is_sat and searched.approximate
    out_of_time = template_sat(rest, t, m.shape(t).constraint,
                               SearchBudget(max_fresh=2, max_triples=3, max_seconds=0))
    assert out_of_time.reason == "time budget exhausted"
    assert out_of_time.approximate
