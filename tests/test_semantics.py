import itertools
import json
import random
from pathlib import Path

import pytest

from sclkit.rdf import Graph, Iri, Triple, parse_turtle, nodes_of
from sclkit import shacl as sh
from sclkit.scl import PiAlt, PiSeq, PiStar, PiZeroOrOne, RelAtom, RelStep
from sclkit.semantics import (
    Assignment,
    SemanticsMode,
    SemanticsError,
    compile_document,
    eval_path,
    eval_psi,
    gamma_neg_name,
    gamma_pos_name,
    gamma_transform,
    is_faithful,
    stratified_assignment,
    target_holds,
    validate,
    validation_witness,
)
from sclkit.translate import shape_bodies, tau
from sclkit.corpus import CLASSES, random_document, random_graph
from oracles import (
    brute_force_faithful,
    brute_force_validate,
    complete_gamma_assignment,
    gamma_assignment,
    sentence_holds,
)

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"


def iri(local):
    return Iri(EX + local)


def doc(text):
    return sh.document_from_graph(parse_turtle(PRE + text))


FIG1_SHAPES = """
:studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
:disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
"""
FIG1_DATA = ":Alex a :Student ; :hasFaculty :CS ; :hasSupervisor :Jane . :Jane :hasFaculty :CS ."


def fig1():
    return parse_turtle(PRE + FIG1_DATA), doc(FIG1_SHAPES)


def fig1_sigma(g, m):
    nodes = sorted(nodes_of(g, m), key=repr)
    signs = {}
    for n in nodes:
        student = n == iri("Alex")
        signs[(n, iri("studentShape"))] = student
        signs[(n, iri("disjFacultyShape"))] = not student
    return Assignment(nodes, m.names(), signs)


def test_eval_path_examples():
    g, _ = fig1()
    seq = PiSeq(RelStep(RelAtom(iri("hasSupervisor"))), RelStep(RelAtom(iri("hasFaculty"))))
    assert eval_path(seq, iri("Alex"), g) == frozenset({iri("CS")})
    zo = PiZeroOrOne(RelStep(RelAtom(iri("r"))))
    assert eval_path(zo, iri("n"), Graph(())) == frozenset({iri("n")})
    cyc = Graph((Triple(iri("a"), iri("r"), iri("b")),
                 Triple(iri("b"), iri("r"), iri("c")),
                 Triple(iri("c"), iri("r"), iri("a"))))
    assert eval_path(PiStar(RelStep(RelAtom(iri("r")))), iri("a"), cyc) == frozenset(
        {iri("a"), iri("b"), iri("c")})
    inv = RelStep(RelAtom(iri("r"), inverted=True))
    assert eval_path(inv, iri("b"), cyc) == frozenset({iri("a")})
    alt = PiAlt(RelStep(RelAtom(iri("r"))), inv)
    assert eval_path(alt, iri("b"), cyc) == frozenset({iri("a"), iri("c")})


def test_eval_psi_fig1_cases():
    g, m = fig1()
    sigma = fig1_sigma(g, m)
    bodies = shape_bodies(m)
    from sclkit.scl import PsiShape, PsiTop, ShapeRel

    assert eval_psi(PsiTop(), iri("Alex"), g, sigma) is True
    assert eval_psi(PsiShape(ShapeRel(iri("disjFacultyShape"))), iri("Alex"), g, sigma) is False
    # the disjointness body is two-valued and false at Alex (witness CS)
    empty = Assignment(sigma.nodes, sigma.shapes, {})
    assert eval_psi(bodies[iri("disjFacultyShape")], iri("Alex"), g, empty) is False
    assert eval_psi(bodies[iri("studentShape")], iri("Alex"), g, empty) is None


def test_counting_window_rule():
    from sclkit.scl import PsiCount, PsiShape, ShapeRel

    g = Graph((Triple(iri("x"), iri("r"), iri("a")),
               Triple(iri("x"), iri("r"), iri("b")),
               Triple(iri("x"), iri("r"), iri("c"))))
    nodes = sorted(nodes_of(g, None), key=repr)
    shapes = [iri("s")]
    body = PsiCount(2, RelStep(RelAtom(iri("r"))), PsiShape(ShapeRel(iri("s"))))

    def sigma(signs):
        return Assignment(nodes, shapes, signs)

    two_true = sigma({(iri("a"), iri("s")): True, (iri("b"), iri("s")): True,
                      (iri("c"), iri("s")): False})
    assert eval_psi(body, iri("x"), g, two_true) is True
    all_false_but_one = sigma({(iri("a"), iri("s")): False, (iri("b"), iri("s")): False})
    assert eval_psi(body, iri("x"), g, all_false_but_one) is False  # 0 true + 1 undef < 2
    open_window = sigma({(iri("a"), iri("s")): True})
    assert eval_psi(body, iri("x"), g, open_window) is None  # 1 true + 2 undef


def _kleene_not(a):
    return None if a is None else not a


def _kleene_and(a, b):
    if a is False or b is False:
        return False
    return None if a is None or b is None else True


def _kleene_at_least(n, values):
    trues, undefs = values.count(True), values.count(None)
    if trues >= n:
        return True
    return False if trues + undefs < n else None


def test_connectives_follow_the_strong_kleene_tables():
    """¬, ∧, ∃ over two successors and ∃≥2 over three, at every operand
    combination.  Each operand is a shape atom whose sign is set or left
    out; the expected value is read through one more shape atom, `want`,
    so the check holds whatever the evaluator returns for a value."""
    from sclkit.scl import PsiAnd, PsiCount, PsiExists, PsiNot, PsiShape, ShapeRel

    r = RelStep(RelAtom(iri("r")))
    ys = [iri(f"y{k}") for k in range(3)]
    g = Graph(tuple(Triple(iri("x"), iri("r"), y) for y in ys))
    nodes = sorted(nodes_of(g, None), key=repr)
    p, q, s, want = (iri(n) for n in ("p", "q", "s", "want"))

    def atom(name):
        return PsiShape(ShapeRel(name))

    def check(psi, operands, expected, graph=g):
        signs = {pair: v for pair, v in operands if v is not None}
        if expected is not None:
            signs[(iri("x"), want)] = expected
        sigma = Assignment(nodes, [p, q, s, want], signs)
        assert eval_psi(psi, iri("x"), graph, sigma) is eval_psi(atom(want), iri("x"), graph, sigma), (
            psi, operands, expected)

    values = (True, False, None)
    two_successors = Graph(tuple(Triple(iri("x"), iri("r"), y) for y in ys[:2]))
    for a in values:
        check(PsiNot(atom(p)), [((iri("x"), p), a)], _kleene_not(a))
    for a, b in itertools.product(values, repeat=2):
        check(PsiAnd(atom(p), atom(q)), [((iri("x"), p), a), ((iri("x"), q), b)], _kleene_and(a, b))
        check(PsiExists(r, atom(s)), [((ys[0], s), a), ((ys[1], s), b)],
              _kleene_at_least(1, [a, b]), graph=two_successors)
    for combo in itertools.product(values, repeat=3):
        check(PsiCount(2, r, atom(s)), [((y, s), v) for y, v in zip(ys, combo)],
              _kleene_at_least(2, list(combo)))


def test_is_faithful_fig1_and_scope_check():
    g, m = fig1()
    assert is_faithful(g, fig1_sigma(g, m), m)
    bad = fig1_sigma(g, m)
    flipped = dict(bad.signs)
    flipped[(iri("Jane"), iri("studentShape"))] = True
    assert not is_faithful(g, Assignment(bad.nodes, bad.shapes, flipped), m)
    with pytest.raises(SemanticsError, match="scope"):
        is_faithful(g, Assignment([iri("Alex")], m.names(), {}), m)


def test_is_faithful_inconsistent_shape():
    m = doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS .")
    g = parse_turtle(PRE + ":a :p :b .")
    nodes = sorted(nodes_of(g, m), key=repr)
    empty = Assignment(nodes, m.names(), {})
    assert is_faithful(g, empty, m)
    positive = Assignment(nodes, m.names(), {(iri("a"), iri("InconsistentS")): True})
    assert not is_faithful(g, positive, m)


def test_stratified_assignment_matches_fig1():
    g, m = fig1()
    rho = stratified_assignment(g, m)
    assert rho == fig1_sigma(g, m)
    assert rho.is_total()


def test_stratified_top_constraint_marks_everything():
    m = doc(":s a sh:NodeShape .")
    g = parse_turtle(PRE + ":a :p :b .")
    rho = stratified_assignment(g, m)
    assert all(rho.sign(n, iri("s")) for n in rho.nodes)


def test_stratified_two_strata_complementary():
    m = doc(":s1 a sh:NodeShape ; sh:hasValue :a . :s2 a sh:NodeShape ; sh:not :s1 .")
    g = parse_turtle(PRE + ":a :p :b .")
    rho = stratified_assignment(g, m)
    for n in rho.nodes:
        assert rho.sign(n, iri("s1")) != rho.sign(n, iri("s2"))
    rec = doc(":I a sh:NodeShape ; sh:not :I .")
    with pytest.raises(SemanticsError):
        stratified_assignment(g, rec)


def test_validate_fig1_all_modes_and_invalid_variant():
    g, m = fig1()
    for mode in SemanticsMode:
        assert validate(g, m, mode)
        assert validate(g, m, mode, use_fast_path=False)
    bad = parse_turtle(PRE + FIG1_DATA.replace(":Jane :hasFaculty :CS", ":Jane :hasFaculty :Math"))
    for mode in SemanticsMode:
        assert not validate(bad, m, mode)
        assert not validate(bad, m, mode, use_fast_path=False)


def test_validate_inconsistent_and_vegdish():
    inc = doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS .")
    g = parse_turtle(PRE + ":a :p :b .")
    assert validate(g, inc, SemanticsMode.BRAVE_PARTIAL)
    assert not validate(g, inc, SemanticsMode.BRAVE_TOTAL)
    veg = doc("""
    :VegDishShape a sh:PropertyShape ; sh:targetNode :DailySpecial ; sh:path :hasIngredient ;
      sh:minCount 1 ; sh:qualifiedMaxCount 0 ; sh:qualifiedValueShape [ sh:not :VegIngredientShape ] .
    :VegIngredientShape a sh:PropertyShape ; sh:path [ sh:inversePath :hasIngredient ] ;
      sh:node :VegDishShape .
    """)
    g1 = parse_turtle(PRE + ":DailySpecial :hasIngredient :Chicken .")
    assert validate(g1, veg, SemanticsMode.BRAVE_TOTAL)
    assert not validate(g1, veg, SemanticsMode.CAUTIOUS_TOTAL)


def test_search_matches_brute_force_and_fast_path():
    rng = random.Random(41)
    for _ in range(40):
        m = random_document(rng, max_shapes=2, recursive=rng.random() < 0.5)
        g = random_graph(rng, max_nodes=2)
        for mode in SemanticsMode:
            witness = validation_witness(g, m, mode, use_fast_path=False)
            assert validate(g, m, mode) == (witness is not None) == brute_force_validate(g, m, mode)
            if witness is not None:
                assert is_faithful(g, witness, sh.eliminate_xone(m))
                assert witness.is_total() or not mode.total


def _corpus_slice(seed, count, limit=20000, recursive=True, xone=False):
    """A slice of the differential check: corpus documents of up to three
    shapes on three-node graphs, sign space at most `limit`.  With `xone`,
    every other document of two or more shapes gains a targeted shape that
    is the xone of some of them, on a graph of at most two nodes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_document(rng, max_shapes=3, recursive=recursive)
        max_nodes = 3
        if xone and len(m.shapes) > 1 and rng.random() < 0.5:
            names = tuple(rng.sample(m.names(), rng.randint(2, len(m.shapes))))
            target = sh.ClassTarget(rng.choice(CLASSES))
            m = sh.Document(m.shapes + (sh.Shape(iri("x"), (target,), None, sh.Xone(names)),))
            max_nodes = 2
        g = random_graph(rng, max_nodes=max_nodes)
        if 3 ** (len(nodes_of(g, m)) * len(sh.eliminate_xone(m).names())) <= limit:
            out.append((g, m))
    return out


def test_validation_matches_brute_force_on_recursive_corpus():
    # the fast path (least fixpoint first) and the full SAT route
    for g, m in _corpus_slice(71, 30) + _corpus_slice(83, 40):
        for mode in SemanticsMode:
            expected = brute_force_validate(g, m, mode)
            for fast in (True, False):
                witness = validation_witness(g, m, mode, use_fast_path=fast)
                assert (witness is not None) == expected, (m, mode, fast)
                if witness is not None:
                    assert is_faithful(g, witness, sh.eliminate_xone(m))
                    assert witness.is_total() or not mode.total


def test_non_recursive_validation_is_the_least_fixpoint_alone(monkeypatch):
    import sclkit.semantics

    cases = _corpus_slice(97, 40, recursive=False, xone=True)
    assert sum(any(isinstance(s.constraint, sh.Xone) for s in m.shapes) for _, m in cases) >= 5
    expected = [{mode: brute_force_validate(g, m, mode) for mode in SemanticsMode} for g, m in cases]

    def no_solver(*args):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(sclkit.semantics, "_dpll", no_solver)
    valid = 0
    for (g, m), verdicts in zip(cases, expected):
        rho = stratified_assignment(g, m)
        for mode in SemanticsMode:
            witness = validation_witness(g, m, mode)
            assert (witness is not None) == verdicts[mode], (m, mode)
            if witness is not None:
                assert witness == rho
                valid += 1
    assert 0 < valid < 4 * len(cases)


def test_validate_json_is_hash_seed_independent(tmp_path):
    # the least fixpoint leaves :t and :u undefined, so the brave-total
    # witness extends it with the solver's first model; grounding order must
    # not follow set iteration order
    import os
    import subprocess
    import sys

    import sclkit

    shapes = tmp_path / "shapes.ttl"
    shapes.write_text(PRE + """
    :s a sh:PropertyShape ; sh:targetSubjectsOf :r ; sh:path :r ;
       sh:qualifiedValueShape :t ; sh:qualifiedMinCount 1 .
    :t a sh:NodeShape ; sh:not :u .
    :u a sh:NodeShape ; sh:not :t .
    """)
    graph = tmp_path / "graph.ttl"
    graph.write_text(PRE + ":n0 :r :n1 , :n2 , :n3 . :n1 :r :n2 , :n0 . :n3 :r :n3 .")
    src = os.path.dirname(os.path.dirname(sclkit.__file__))
    outs = []
    for seed in ("0", "1"):
        for mode in ("brave-total", "cautious-partial"):
            argv = [sys.executable, "-m", "sclkit.cli", "--json", "validate",
                    "--graph", str(graph), "--doc", str(shapes), "--mode", mode]
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
            assert done.returncode == 0, done.stderr
            outs.append(done.stdout)
    assert outs[:2] == outs[2:]
    assert json.loads(outs[0])["result"] is True
    assert json.loads(outs[1])["result"] is False


# --- the partial-to-total transformation ------------------------------------------

def test_gamma_document_shape_and_bodies():
    m = doc(":I a sh:NodeShape ; sh:not :I .")
    gm = gamma_transform(m)
    pos, neg = gamma_pos_name(iri("I")), gamma_neg_name(iri("I"))
    assert set(gm.names()) == {pos, neg}
    assert gm.shape(pos).constraint == sh.And((sh.Not(sh.Ref(pos)), sh.Ref(neg)))
    assert gm.shape(neg).constraint == sh.And((sh.Ref(pos), sh.Not(sh.Ref(neg))))
    assert len(gm.shapes) == 2 * len(m.shapes)


def test_gamma_reference_free_shape():
    m = doc(":s a sh:NodeShape ; sh:hasValue :v .")
    gm = gamma_transform(m)
    assert gm.shape(gamma_pos_name(iri("s"))).constraint == sh.HasValue(iri("v"))
    assert gm.shape(gamma_neg_name(iri("s"))).constraint == sh.Not(sh.HasValue(iri("v")))


def test_gamma_assignment_cases():
    nodes = [iri("n")]
    shapes = [iri("s")]
    plus = gamma_assignment(Assignment(nodes, shapes, {(iri("n"), iri("s")): True}))
    assert plus.sign(iri("n"), gamma_pos_name(iri("s"))) is True
    assert plus.sign(iri("n"), gamma_neg_name(iri("s"))) is False
    empty = gamma_assignment(Assignment(nodes, shapes, {}))
    assert empty.sign(iri("n"), gamma_pos_name(iri("s"))) is False
    assert empty.sign(iri("n"), gamma_neg_name(iri("s"))) is False
    assert empty.is_total()


def test_gamma_lemma_on_small_instances():
    # conformance maps to the positive half, violation to the negative half,
    # undefined to neither, on every faithful assignment of random documents
    rng = random.Random(43)
    from sclkit.semantics import compile_document, EvalContext

    checked = 0
    for _ in range(30):
        m = random_document(rng, max_shapes=2, recursive=rng.random() < 0.5)
        m = sh.eliminate_xone(m)
        g = random_graph(rng, max_nodes=2)
        gm = gamma_transform(m)
        compiled = compile_document(m)
        compiled_gamma = compile_document(gm)
        for sigma in brute_force_faithful(g, sh.strip_targets(m), total=False):
            sig_gamma = complete_gamma_assignment(gamma_assignment(sigma), gm, g)
            ctx = EvalContext(g)
            ctx.sign = dict(sigma.signs)
            gctx = EvalContext(g)
            gctx.sign = dict(sig_gamma.signs)
            for shape in m.shapes:
                pos_body = compiled_gamma.bodies[gamma_pos_name(shape.name)]
                neg_body = compiled_gamma.bodies[gamma_neg_name(shape.name)]
                for node in sigma.nodes:
                    v = ctx.eval(compiled.bodies[shape.name], node)
                    pv = gctx.eval(pos_body, node)
                    nv = gctx.eval(neg_body, node)
                    assert (v is True) == (pv is True)
                    assert (v is False) == (nv is True)
                    assert (v is None) == (pv is False and nv is False)
                    checked += 1
    assert checked > 100


def test_gamma_qualified_counts_follow_strong_kleene():
    # a qualified max bound is true only when at most max values are not
    # violating, and a qualified min bound is false only when fewer than min
    # are not violating; undefined values count on the undecided side
    cases = [
        (":s a sh:PropertyShape ; sh:targetObjectsOf :r ; sh:path [ sh:zeroOrOnePath :r ] ; "
         "sh:minCount 1 ; sh:qualifiedValueShape :s ; sh:qualifiedMinCount 1 ; "
         "sh:qualifiedMaxCount 2 .", ":n3 :r :n0 , :n2 .", True),
        (":q a sh:PropertyShape ; sh:targetNode :a ; sh:path :r ; sh:qualifiedValueShape :u ; "
         "sh:qualifiedMaxCount 0 . :u a sh:NodeShape ; sh:not :u .", ":a :r :b .", False),
        (":t a sh:NodeShape ; sh:targetNode :a ; sh:not :q . :q a sh:PropertyShape ; "
         "sh:path :r ; sh:qualifiedValueShape :u ; sh:qualifiedMinCount 1 . "
         ":u a sh:NodeShape ; sh:not :u .", ":a :r :b .", False),
    ]
    for shapes, data, brave in cases:
        m, g = doc(shapes), parse_turtle(PRE + data)
        gm = gamma_transform(m)
        assert brute_force_validate(g, m, SemanticsMode.BRAVE_PARTIAL) is brave
        for partial_mode, total_mode in ((SemanticsMode.BRAVE_PARTIAL, SemanticsMode.BRAVE_TOTAL),
                                         (SemanticsMode.CAUTIOUS_PARTIAL,
                                          SemanticsMode.CAUTIOUS_TOTAL)):
            assert validate(g, gm, total_mode) == brute_force_validate(g, m, partial_mode)


def test_gamma_validation_equivalence_examples():
    inc = doc(":InconsistentS a sh:NodeShape ; sh:not :InconsistentS .")
    g = parse_turtle(PRE + ":a :p :b .")
    gm = gamma_transform(inc)
    assert validate(g, gm, SemanticsMode.BRAVE_TOTAL) == validate(g, inc, SemanticsMode.BRAVE_PARTIAL)


def test_sentence_holds_matches_faithfulness_on_fig1():
    g, m = fig1()
    phi = tau(m)
    sigma = fig1_sigma(g, m)
    assert sentence_holds(phi, g, sigma)
    flipped = dict(sigma.signs)
    flipped[(iri("CS"), iri("studentShape"))] = True
    assert not sentence_holds(phi, g, Assignment(sigma.nodes, sigma.shapes, flipped))


def test_mode_monotonicity_lattice():
    # total validity implies partial validity; cautious implies brave
    rng = random.Random(53)
    for _ in range(60):
        m = random_document(rng, max_shapes=3, recursive=rng.random() < 0.4)
        g = random_graph(rng, max_nodes=3)
        results = {mode: validate(g, m, mode, use_fast_path=False) for mode in SemanticsMode}
        if results[SemanticsMode.BRAVE_TOTAL]:
            assert results[SemanticsMode.BRAVE_PARTIAL]
        if results[SemanticsMode.CAUTIOUS_TOTAL]:
            assert results[SemanticsMode.BRAVE_TOTAL]
        if results[SemanticsMode.CAUTIOUS_PARTIAL]:
            assert results[SemanticsMode.BRAVE_PARTIAL]


def test_condition_one_alone_equals_target_free_faithfulness():
    # checking only the sign/evaluation agreement is the same as checking
    # faithfulness against the document with its targets removed
    from sclkit.semantics import EvalContext, compile_document

    rng = random.Random(67)
    for _ in range(30):
        full = sh.eliminate_xone(random_document(rng, max_shapes=2, recursive=rng.random() < 0.3))
        m = sh.strip_targets(full)  # one node scope for both sides
        g = random_graph(rng, max_nodes=2)
        compiled = compile_document(m)
        nodes = sorted(nodes_of(g, m), key=repr)
        pairs = [(n, s.name) for n in nodes for s in m.shapes]
        ctx = EvalContext(g)
        for _ in range(8):
            signs = {p: rng.random() < 0.5 for p in pairs if rng.random() < 0.8}
            sigma = Assignment(nodes, m.names(), signs)
            ctx.sign = dict(signs)
            condition_one = all(
                ((sigma.sign(n, s.name) is True) == (ctx.eval(compiled.bodies[s.name], n) is True))
                and ((sigma.sign(n, s.name) is False) == (ctx.eval(compiled.bodies[s.name], n) is False))
                for s in m.shapes for n in nodes
            )
            assert condition_one == is_faithful(g, sigma, sh.strip_targets(m))


def test_cautious_covers_absent_target_nodes():
    # the universally quantified assignments cover node-target constants even
    # when the graph never mentions them: a tautological constraint under a
    # partial assignment may still leave the target node undetermined
    m = doc(":s a sh:NodeShape ; sh:targetNode :c ; sh:or ( :s :neg ) . "
            ":neg a sh:NodeShape ; sh:not :s .")
    g = parse_turtle(PRE + ":a :p :b .")
    assert validate(g, m, SemanticsMode.BRAVE_PARTIAL, use_fast_path=False)
    assert validate(g, m, SemanticsMode.BRAVE_TOTAL, use_fast_path=False)
    assert not validate(g, m, SemanticsMode.CAUTIOUS_PARTIAL, use_fast_path=False)
    assert validate(g, m, SemanticsMode.CAUTIOUS_TOTAL, use_fast_path=False)
    for mode in SemanticsMode:
        assert validate(g, m, mode, use_fast_path=False) == brute_force_validate(g, m, mode)


def test_false_sign_free_target_body_skips_the_solver(monkeypatch):
    import sclkit.semantics

    # :s has no shape atom and fails at its target; :r leaves the least
    # fixpoint undefined in the recursive copy and is two-valued in the other
    g = parse_turtle(PRE + ":a :p :b .")
    cases = []
    for r in (":r a sh:NodeShape ; sh:not :r .", ":r a sh:NodeShape ; sh:class :C ."):
        m = doc(":s a sh:NodeShape ; sh:targetNode :a ; sh:hasValue :b . " + r)
        cases.append((m, {mode: brute_force_validate(g, m, mode) for mode in SemanticsMode}))
    assert [sh.is_recursive(m) for m, _ in cases] == [True, False]

    def no_solver(*args):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(sclkit.semantics, "_dpll", no_solver)
    for m, expected in cases:
        for mode in SemanticsMode:
            assert validation_witness(g, m, mode) is None
            assert not expected[mode]


def test_false_target_ends_non_recursive_validation_early(monkeypatch):
    from sclkit.semantics import EvalContext

    # :s fails at its target without reading a sign; the other shapes are
    # evaluated nowhere once that is known
    m = doc(":s a sh:NodeShape ; sh:targetNode :n0 ; sh:hasValue :b . "
            ":t a sh:PropertyShape ; sh:path :p ; sh:qualifiedValueShape :u ; sh:qualifiedMinCount 1 . "
            ":u a sh:NodeShape ; sh:not :s .")
    g = Graph(tuple(Triple(iri(f"n{i}"), iri("p"), iri(f"n{i + 1}")) for i in range(60)))
    pairs = len(nodes_of(g, m)) * len(m.shapes)
    top_level = []
    depth = [0]
    original = EvalContext.eval

    def counting(self, psi, node):
        top_level.append(depth[0] == 0)
        depth[0] += 1
        try:
            return original(self, psi, node)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(EvalContext, "eval", counting)
    for mode in SemanticsMode:
        top_level.clear()
        assert validation_witness(g, m, mode) is None
        assert 0 < sum(top_level) < pairs, mode


def test_witness_recheck_catches_a_wrong_solver_sign(monkeypatch):
    import sclkit.semantics

    # the least fixpoint leaves every pair undefined, so the solver answers
    m = doc(":s a sh:NodeShape ; sh:targetNode :a ; sh:not :t . :t a sh:NodeShape ; sh:not :s .")
    g = parse_turtle(PRE + ":a :p :b .")
    assert validation_witness(g, m, SemanticsMode.BRAVE_TOTAL) is not None
    solve = sclkit.semantics._solve

    def flipped(*args):
        model = solve(*args)
        model[(iri("a"), iri("t"))] = not model[(iri("a"), iri("t"))]
        return model

    monkeypatch.setattr(sclkit.semantics, "_solve", flipped)
    with pytest.raises(SemanticsError, match="not a faithful assignment"):
        validation_witness(g, m, SemanticsMode.BRAVE_TOTAL)


def test_witness_recheck_catches_a_wrong_fixpoint_sign(monkeypatch):
    import sclkit.semantics

    m = doc(":s a sh:NodeShape ; sh:targetNode :a ; sh:class :C . :t a sh:NodeShape ; sh:not :s .")
    g = parse_turtle(PRE + ":a a :C ; :p :b .")
    assert not sh.is_recursive(m)
    assert all(validation_witness(g, m, mode) is not None for mode in SemanticsMode)
    sweep = sclkit.semantics._least_fixpoint

    def flipped(ctx, *args):
        done = sweep(ctx, *args)
        ctx.sign[(iri("b"), iri("t"))] = not ctx.sign[(iri("b"), iri("t"))]
        return done

    monkeypatch.setattr(sclkit.semantics, "_least_fixpoint", flipped)
    for mode in SemanticsMode:
        with pytest.raises(SemanticsError, match="not a faithful assignment"):
            validation_witness(g, m, mode)


# --- the least strong-Kleene fixpoint ------------------------------------------------

def _least_faithful(faithful):
    """The assignment that every one of the listed assignments extends."""
    least = [s for s in faithful if all(s.signs.items() <= t.signs.items() for t in faithful)]
    assert len(least) == 1
    return least[0]


def test_least_fixpoint_lies_below_every_faithful_assignment():
    # with no targets, partial validation answers with the least fixpoint
    # itself; every faithful assignment, partial or total, extends it
    undefined_somewhere = 0
    for g, m in _corpus_slice(89, 40, limit=3 ** 8):
        free = sh.strip_targets(m)
        least = validation_witness(g, free, SemanticsMode.BRAVE_PARTIAL)
        partial = brute_force_faithful(g, free, total=False)
        assert least == _least_faithful(partial)
        for sigma in brute_force_faithful(g, free, total=True):
            assert least.signs.items() <= sigma.signs.items()
        undefined_somewhere += not least.is_total()
    assert undefined_somewhere >= 10


def test_fixpoint_decisions_skip_the_solver(monkeypatch):
    import sclkit.semantics

    cases = []
    for g, m in _corpus_slice(83, 40):
        # the least fixpoint over the validated scope, by brute force
        least = _least_faithful(brute_force_faithful(
            g, sh.strip_targets(m), total=False, extra_nodes=nodes_of(g, m)))
        target_signs = [least.sign(n, s.name) for s in sh.eliminate_xone(m).shapes
                        for t in s.targets for n in least.nodes if target_holds(g, t, n)]
        decided = least.is_total() or False in target_signs
        cases.append((g, m, decided, {mode: brute_force_validate(g, m, mode) for mode in SemanticsMode}))
    assert 10 <= sum(decided for _, _, decided, _ in cases) < len(cases)

    def no_solver(*args):
        raise AssertionError("the solver was called")

    monkeypatch.setattr(sclkit.semantics, "_dpll", no_solver)
    for g, m, decided, expected in cases:
        for mode in SemanticsMode if decided else (SemanticsMode.CAUTIOUS_PARTIAL,):
            assert validate(g, m, mode) == expected[mode], (m, mode)


def test_unique_lang_validation():
    m = doc(':s a sh:PropertyShape ; sh:targetNode :n ; sh:path :label ; sh:uniqueLang true . '
            ':t a sh:NodeShape ; sh:languageIn ( "en" "fr" ) .')
    ok = parse_turtle(PRE + ':n :label "hello"@en , "bonjour"@fr .')
    dup = parse_turtle(PRE + ':n :label "hello"@en , "hi"@en .')
    assert validate(ok, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(dup, m, SemanticsMode.BRAVE_TOTAL)


def test_closed_validation():
    m = doc("""
    :s a sh:NodeShape ; sh:targetNode :n ; sh:closed true ;
       sh:ignoredProperties ( :extra ) ; sh:property :p .
    :p a sh:PropertyShape ; sh:path :declared ; sh:minCount 1 .
    """)
    ok = parse_turtle(PRE + ":n :declared :v ; :extra :w .")
    assert validate(ok, m, SemanticsMode.BRAVE_TOTAL)
    # an edge over a relation the document mentions but does not declare
    m2 = doc("""
    :s a sh:NodeShape ; sh:targetNode :n ; sh:closed true ; sh:property :p .
    :p a sh:PropertyShape ; sh:path :declared ; sh:minCount 1 .
    :q a sh:PropertyShape ; sh:path :other ; sh:minCount 0 .
    """)
    bad = parse_turtle(PRE + ":n :declared :v ; :other :w .")
    assert not validate(bad, m2, SemanticsMode.BRAVE_TOTAL)


CLOSED_AT_A = (":S a sh:NodeShape ; sh:targetNode :a ; sh:closed true ; sh:property :P . "
               ":P a sh:PropertyShape ; sh:path :p ; sh:minCount 0 .")


def test_closed_and_unique_lang_range_over_the_graph_vocabulary():
    # sh:closed forbids every predicate neither declared nor ignored, and
    # sh:uniqueLang every language tag two values share, whether the shapes
    # name them or not; the verdicts are written out by hand, since the
    # brute-force oracle shares the translation
    closed = doc(CLOSED_AT_A)
    unique = doc(":S a sh:PropertyShape ; sh:targetNode :a ; sh:path :label ; sh:uniqueLang true .")
    closed_bad = parse_turtle(PRE + ":a :p :b ; :q :c .")
    unique_bad = parse_turtle(PRE + ':a :label "chat"@fr, "chatte"@fr .')
    for mode in SemanticsMode:
        assert not validate(closed_bad, closed, mode)
        assert not validate(unique_bad, unique, mode)
        assert validate(parse_turtle(PRE + ":a :p :b ."), closed, mode)
        assert validate(parse_turtle(PRE + ':a :label "chat"@fr, "cat"@en .'), unique, mode)
    for g, m in ((closed_bad, closed), (unique_bad, unique)):
        rho = stratified_assignment(g, m)
        assert rho.sign(iri("a"), iri("S")) is False
        flipped = dict(rho.signs)
        flipped[(iri("a"), iri("S"))] = True
        assert not is_faithful(g, Assignment(rho.nodes, rho.shapes, flipped), m)
        assert not brute_force_faithful(g, m, total=True)


def test_graph_bodies_translate_again_only_the_shapes_over_the_graph_names():
    every = (Path(__file__).parent / "fixtures" / "every-constraint.ttl").read_text()
    documents = (
        (doc(CLOSED_AT_A), parse_turtle(PRE + ":a :p :b ; :q :c .")),
        (doc(":S a sh:PropertyShape ; sh:targetNode :a ; sh:path :label ; sh:uniqueLang true ."),
         parse_turtle(PRE + ':a :label "chat"@fr, "chatte"@fr .')),
        (doc(":s a sh:NodeShape ; sh:targetNode :n ; sh:closed true ; "
             "sh:ignoredProperties ( :extra ) ; sh:property :p . "
             ":p a sh:PropertyShape ; sh:path :declared ; sh:minCount 1 ."),
         parse_turtle(PRE + ":n :declared :v ; :extra :w .")),
        (sh.document_from_graph(parse_turtle(every)), parse_turtle(every)),
    )
    for m, g in documents:
        compiled = compile_document(m)
        assert compiled.per_graph
        wide = shape_bodies(compiled.document, g)
        bodies = compiled.graph_bodies(g)
        assert list(bodies) == list(compiled.bodies)
        assert bodies == {name: wide[name] for name in bodies}


@pytest.mark.parametrize("mode", list(SemanticsMode))
def test_only_a_property_value_declares_a_path_of_a_closed_shape(mode):
    # sh:closed allows the paths of its sh:property values; a property shape
    # reached through sh:not, sh:or or sh:and declares nothing, so :p is
    # forbidden at :n whether or not :P holds there
    prop = ":P a sh:PropertyShape ; sh:path :p ; sh:minCount 2 . "
    closed = ":s a sh:NodeShape ; sh:targetNode :n ; sh:closed true ; "
    for reference, edges in (("sh:not :P", ":n :p :v ."), ("sh:or ( :P )", ":n :p :v1, :v2 ."),
                             ("sh:and ( :P )", ":n :p :v1, :v2 .")):
        m = doc(closed + reference + " . " + prop)
        assert not validate(parse_turtle(PRE + edges), m, mode), reference
    declared = doc(closed + "sh:property :P . " + prop)
    assert validate(parse_turtle(PRE + ":n :p :v1, :v2 ."), declared, mode)


def test_contains_finds_no_counterexample_a_closed_shape_forbids(tmp_path, capsys):
    # the first document forbids :q at :a, so no graph separates it from the
    # second; the bounded search cannot prove that and answers unknown
    from sclkit.cli import main

    doc1, doc2 = tmp_path / "closed.ttl", tmp_path / "no-q.ttl"
    doc1.write_text(PRE + CLOSED_AT_A)
    doc2.write_text(PRE + ":T a sh:PropertyShape ; sh:targetNode :a ; sh:path :q ; sh:maxCount 0 .")
    code = main(["--json", "contains", "--doc1", str(doc1), "--doc2", str(doc2),
                 "--fresh", "1", "--triples", "2"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["contained"], report["reason"]) == (
        2, "unknown", "no counterexample within budget")


def test_less_than_validation():
    m = doc(":s a sh:PropertyShape ; sh:targetSubjectsOf :small ; sh:path :small ; sh:lessThan :big .")
    ok = parse_turtle(PRE + ':n :small 1 ; :big 2, 3 .')
    bad = parse_turtle(PRE + ':n :small 1, 3 ; :big 2 .')
    cross = parse_turtle(PRE + ':n :small 1 ; :big "zz" .')
    assert validate(ok, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(bad, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(cross, m, SemanticsMode.BRAVE_TOTAL)  # incomparable pair fails
    m_le = doc(":s a sh:PropertyShape ; sh:targetSubjectsOf :small ; sh:path :small ; sh:lessThanOrEquals :big .")
    eq = parse_turtle(PRE + ':n :small 2 ; :big 2 .')
    assert validate(eq, m_le, SemanticsMode.BRAVE_TOTAL)
    assert not validate(eq, m, SemanticsMode.BRAVE_TOTAL)


def test_equals_validation():
    m = doc(":s a sh:PropertyShape ; sh:targetNode :n ; sh:path :a ; sh:equals :b .")
    same = parse_turtle(PRE + ":n :a :x ; :b :x .")
    differ = parse_turtle(PRE + ":n :a :x ; :b :x , :y .")
    assert validate(same, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(differ, m, SemanticsMode.BRAVE_TOTAL)


def test_pattern_and_filter_validation():
    m = doc(':s a sh:NodeShape ; sh:targetSubjectsOf :p ; sh:pattern "^urn:item" .')
    ok = parse_turtle("@prefix : <urn:item/> .\n:one :p :two .")
    bad = parse_turtle(PRE + ":n :p :v .")
    assert validate(ok, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(bad, m, SemanticsMode.BRAVE_TOTAL)
    m2 = doc(':s a sh:PropertyShape ; sh:targetNode :n ; sh:path :age ; '
             'sh:minInclusive "18"^^<http://www.w3.org/2001/XMLSchema#int> .')
    adult = parse_turtle(PRE + ':n :age "21"^^<http://www.w3.org/2001/XMLSchema#int> .')
    minor = parse_turtle(PRE + ':n :age "9"^^<http://www.w3.org/2001/XMLSchema#int> .')
    untyped = parse_turtle(PRE + ':n :age "old" .')
    assert validate(adult, m2, SemanticsMode.BRAVE_TOTAL)
    assert not validate(minor, m2, SemanticsMode.BRAVE_TOTAL)
    assert not validate(untyped, m2, SemanticsMode.BRAVE_TOTAL)


def test_language_in_validation():
    m = doc(':s a sh:PropertyShape ; sh:targetNode :n ; sh:path :label ; sh:languageIn ( "en" ) .')
    ok = parse_turtle(PRE + ':n :label "hello"@en .')
    bad = parse_turtle(PRE + ':n :label "bonjour"@fr .')
    plain = parse_turtle(PRE + ':n :label "plain" .')
    assert validate(ok, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(bad, m, SemanticsMode.BRAVE_TOTAL)
    assert not validate(plain, m, SemanticsMode.BRAVE_TOTAL)


def test_path_variants_validation():
    alt = doc(":s a sh:PropertyShape ; sh:targetNode :n ; "
              "sh:path [ sh:alternativePath ( :a :b ) ] ; sh:minCount 2 .")
    g = parse_turtle(PRE + ":n :a :x . :n :b :y .")
    assert validate(g, alt, SemanticsMode.BRAVE_TOTAL)
    one_or_more = doc(":s a sh:PropertyShape ; sh:targetNode :n ; "
                      "sh:path [ sh:oneOrMorePath :r ] ; sh:minCount 3 .")
    chain = parse_turtle(PRE + ":n :r :m . :m :r :o . :o :r :n .")
    assert validate(chain, one_or_more, SemanticsMode.BRAVE_TOTAL)
    short = parse_turtle(PRE + ":n :r :m .")
    assert not validate(short, one_or_more, SemanticsMode.BRAVE_TOTAL)
    zero_or_one = doc(":s a sh:PropertyShape ; sh:targetNode :n ; "
                      "sh:path [ sh:zeroOrOnePath :r ] ; sh:minCount 2 .")
    assert validate(short, zero_or_one, SemanticsMode.BRAVE_TOTAL)  # n itself plus :m


def test_compilation_and_stratified_evaluation_eliminate_xone_themselves():
    m = doc("""
    :s a sh:NodeShape ; sh:targetNode :a ; sh:xone ( :p :q :t ) .
    :p a sh:PropertyShape ; sh:path :r ; sh:minCount 1 .
    :q a sh:PropertyShape ; sh:path :r ; sh:minCount 2 .
    :t a sh:NodeShape ; sh:class :C .
    """)
    plain = sh.eliminate_xone(m)
    assert plain != m and len(plain.shapes) > len(m.shapes)  # the 3-way xone mints a shape
    compiled, expected = compile_document(m), compile_document(plain)
    assert compiled.document == plain
    assert compiled.bodies == expected.bodies and compiled.order == expected.order
    for data in (":a :r :b .", ":a :r :b, :c .", ":a a :C .", ":a a :C ; :r :b ."):
        g = parse_turtle(PRE + data)
        assert stratified_assignment(g, m) == stratified_assignment(g, plain)
        assert validate(g, m, SemanticsMode.BRAVE_TOTAL) == validate(g, plain, SemanticsMode.BRAVE_TOTAL)


def test_ill_typed_number_satisfies_no_range():
    m = doc(":s a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path :v ; sh:maxInclusive 10 ] .")
    xsd = "http://www.w3.org/2001/XMLSchema#"
    for value, valid in (("3", True), ("+3", True), ("٣", False), ("1_0", False)):
        g = parse_turtle(PRE + f':a :v "{value}"^^<{xsd}integer> .')
        assert validate(g, m, SemanticsMode.BRAVE_TOTAL) == valid
    g = parse_turtle(PRE + f':a :v "1/2"^^<{xsd}decimal> .')
    assert not validate(g, m, SemanticsMode.BRAVE_TOTAL)
