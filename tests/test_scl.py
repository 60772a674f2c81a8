import random

from sclkit.rdf import Iri, parse_turtle
from sclkit.shacl import document_from_graph
from sclkit import shacl as sh
from sclkit.translate import path_to_pi, tau
from sclkit.scl import (
    ConstraintAxiom,
    PiAlt,
    PiSeq,
    PiStar,
    PiZeroOrOne,
    PsiAnd,
    PsiCount,
    PsiDisjoint,
    PsiEq,
    PsiEquals,
    PsiExists,
    PsiNot,
    PsiOrder,
    PsiShape,
    PsiTop,
    RelAtom,
    RelStep,
    SclSentence,
    ShapeRel,
    TargetNodeAxiom,
    features_of,
    normalize,
    pretty,
    psi_and_all,
    psi_or,
    psi_or_all,
    walk_psi,
    well_formed,
)
from sclkit.corpus import random_document
from sclkit.decide import SearchBudget, scl_bounded_sat
from sclkit.filters import bounded_axiomatisation

from generators import feature_witness
from oracles import reference_walk_psi

EX = "http://ex/"
PRE = f"@prefix : <{EX}> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
R0, R1 = RelAtom(Iri(EX + "r0")), RelAtom(Iri(EX + "r1"))
S = ShapeRel(Iri(EX + "s"))
C = Iri(EX + "c")


def fig2_sentence():
    m = document_from_graph(parse_turtle(PRE + """
    :studentShape a sh:NodeShape ; sh:targetClass :Student ; sh:not :disjFacultyShape .
    :disjFacultyShape a sh:PropertyShape ; sh:path (:hasSupervisor :hasFaculty) ; sh:disjoint :hasFaculty .
    """))
    return tau(m)


def test_features_of_fig2():
    fs = features_of(fig2_sentence())
    assert fs.flags == frozenset({"S", "D"})
    assert not fs.recursive


def test_features_of_self_negation_is_base_and_recursive():
    m = document_from_graph(parse_turtle(PRE + ":I a sh:NodeShape ; sh:not :I ."))
    fs = features_of(tau(m))
    assert fs.flags == frozenset()
    assert fs.recursive


def test_star_anywhere_sets_t_flag():
    phi = SclSentence((ConstraintAxiom(S, PsiExists(PiStar(RelStep(R0)), PsiTop())),))
    assert "T" in features_of(phi).flags


def test_count_one_is_base_count_two_is_counting():
    one = SclSentence((ConstraintAxiom(S, PsiCount(1, RelStep(R0), PsiTop())),))
    two = SclSentence((ConstraintAxiom(S, PsiCount(2, RelStep(R0), PsiTop())),))
    assert "C" not in features_of(one).flags
    assert "C" in features_of(two).flags


def test_order_direction_flags():
    lt = SclSentence((ConstraintAxiom(S, PsiOrder(RelStep(R0), R1, "<")),))
    gt = SclSentence((ConstraintAxiom(S, PsiOrder(RelStep(R0), R1, ">")),))
    assert features_of(lt).flags == frozenset({"O'"})
    assert features_of(gt).flags == frozenset({"O"})


def test_well_formed():
    assert well_formed(fig2_sentence())
    undefined = SclSentence((TargetNodeAxiom(S, C),))
    assert not well_formed(undefined)
    doubled = SclSentence((
        ConstraintAxiom(S, PsiTop()),
        ConstraintAxiom(S, PsiNot(PsiTop())),
    ))
    assert not well_formed(doubled)


def test_feature_witnesses_have_exact_profiles():
    for letters in [set(), {"S"}, {"Z"}, {"A"}, {"T"}, {"D"}, {"E"}, {"O"}, {"O'"}, {"C"},
                    {"S", "Z", "A"}, {"Z", "A", "D", "E"}, {"S", "Z", "A", "T", "D"}]:
        w = feature_witness(letters)
        assert features_of(w).flags == frozenset(letters)
        assert well_formed(w)


# --- the normaliser ---------------------------------------------------------------

def _z_case():
    # exists over a zero-or-one path
    return PsiExists(PiZeroOrOne(RelStep(R0)), PsiShape(S))


def test_normalize_z_elimination_shape():
    phi = SclSentence((
        ConstraintAxiom(S, PsiTop()),
        ConstraintAxiom(ShapeRel(Iri(EX + "t")), _z_case()),
    ))
    out = normalize(phi)
    assert "Z" not in features_of(out).flags
    body = out.constraint_axioms()[1].body
    # psi(x) or exists y . pi(x,y) and psi(y), rendered through the or shortcut
    assert isinstance(body, PsiNot)
    assert well_formed(out)


def test_normalize_alt_elimination_in_exists_and_disjoint():
    phi = SclSentence((
        ConstraintAxiom(S, PsiAnd(
            PsiExists(PiAlt(RelStep(R0), RelStep(R1)), PsiTop()),
            PsiDisjoint(PiAlt(RelStep(R0), RelStep(R1)), R1),
        )),
    ))
    out = normalize(phi)
    assert "A" not in features_of(out).flags
    disjoints = [n for a in out.constraint_axioms() for n in walk_psi(a.body)
                 if isinstance(n, PsiDisjoint)]
    assert len(disjoints) == 2  # split into one conjunct per alternative


def test_normalize_seq_split_keeps_plain_quantifications():
    phi = SclSentence((
        ConstraintAxiom(S, PsiExists(PiSeq(RelStep(R0), RelStep(R1)), PsiShape(S))),
    ))
    out = normalize(phi)
    assert "S" not in features_of(out).flags
    for axiom in out.constraint_axioms():
        for node in walk_psi(axiom.body):
            if isinstance(node, PsiExists):
                assert isinstance(node.path, RelStep)


def test_normalize_leaves_star_and_equals_alone():
    star = PsiExists(PiStar(PiAlt(RelStep(R0), RelStep(R1))), PsiTop())
    eq = PsiEquals(PiAlt(RelStep(R0), RelStep(R1)), R1)
    phi = SclSentence((ConstraintAxiom(S, PsiAnd(star, eq)),))
    out = normalize(phi)
    flags = features_of(out).flags
    assert "T" in flags and "E" in flags and "A" in flags


def test_normalize_idempotent_and_wellformed_preserving():
    rng = random.Random(3)
    from sclkit.corpus import random_document

    for _ in range(20):
        m = random_document(rng, max_shapes=3)
        phi = tau(m)
        out = normalize(phi)
        assert well_formed(out)
        assert normalize(out) == out


def test_normalize_equisatisfiable_at_equal_bounds():
    # finite-model-invariant equisatisfiability at the same domain bounds
    rng = random.Random(17)
    from sclkit.corpus import random_document

    budget = SearchBudget(max_fresh=2, max_triples=99, max_seconds=30)
    checked = 0
    for _ in range(40):
        m = random_document(rng, max_shapes=2, features=("S", "Z", "A", "D"))
        phi = tau(m)
        flags = features_of(phi).flags
        if flags & {"T", "E", "C"}:
            continue
        out = normalize(phi)
        a = scl_bounded_sat(phi, budget).is_sat
        b = scl_bounded_sat(out, budget).is_sat
        assert a == b, pretty(phi)
        checked += 1
    assert checked >= 10


def test_pretty_fig2_golden():
    # shapes are ordered deterministically (by name), so the disjointness
    # axiom precedes the target/constraint axioms of the student shape
    text = pretty(fig2_sentence(), {"": EX})
    assert text == (
        "∀x. Σ:disjFacultyShape(x) ↔ ¬∃y. (∃z. (R:hasSupervisor(x, z) ∧ "
        "R:hasFaculty(z, y)) ∧ R:hasFaculty(x, y))\n"
        "∧ ∀x. isA(x, :Student) → Σ:studentShape(x)\n"
        "∧ ∀x. Σ:studentShape(x) ↔ ¬Σ:disjFacultyShape(x)"
    )


def test_normalize_strips_z_and_a_where_licensed():
    # pure path features inside existential scopes always rewrite away;
    # disjointness over plain predicate paths leaves nothing blocked
    rng = random.Random(59)
    from sclkit.corpus import random_document
    from sclkit.shacl import DisjointRel, Document, PredPath, Shape
    from sclkit.rdf import Iri

    for _ in range(30):
        m = random_document(rng, max_shapes=3, features=("S", "Z", "A"))
        out = normalize(tau_doc(m))
        assert not (features_of(out).flags & {"Z", "A"})
    plain_d = Document((Shape(Iri(EX + "d"), (), PredPath(Iri(EX + "r")), DisjointRel(Iri(EX + "q"))),))
    mixed = random_document(random.Random(60), max_shapes=2, features=("Z", "A"))
    merged = Document(plain_d.shapes + mixed.shapes)
    out = normalize(tau_doc(merged))
    assert not (features_of(out).flags & {"Z", "A"})


def tau_doc(m):
    from sclkit.translate import tau as _tau

    return _tau(m)


def test_normalize_preserves_satisfiability_with_counting():
    # counting blocks the path rewrites but flattening must stay harmless
    rng = random.Random(73)
    from sclkit.corpus import random_document
    from sclkit.decide import SearchBudget, scl_bounded_sat

    budget = SearchBudget(max_fresh=2, max_triples=99, max_seconds=30)
    checked = 0
    for _ in range(25):
        m = random_document(rng, max_shapes=2, features=("Z", "A", "C"))
        phi = tau_doc(m)
        out = normalize(phi)
        assert well_formed(out)
        a = scl_bounded_sat(phi, budget).is_sat
        b = scl_bounded_sat(out, budget).is_sat
        assert a == b
        checked += 1
    assert checked == 25


def test_walk_psi_is_the_recursive_preorder_on_random_sentences():
    from test_grounding import _template_family

    sentences = []
    for seed in range(60):
        phi = tau(random_document(random.Random(seed), max_shapes=4, recursive=seed % 2 == 1))
        sentences += [phi, normalize(phi)]
    for seed in range(3):
        turtle = _template_family("_filter_family")(random.Random(seed), 2)
        phi = tau(document_from_graph(parse_turtle(turtle)))
        sentences += [phi, bounded_axiomatisation(phi).sentence]
    walked = 0
    for phi in sentences:
        for axiom in phi.axioms:
            if hasattr(axiom, "body"):
                got = [id(n) for n in walk_psi(axiom.body)]
                assert got == [id(n) for n in reference_walk_psi(axiom.body)]
                walked += len(got)
    assert walked > 10_000


def test_walk_psi_walks_a_deep_chain_without_recursion():
    psi = PsiTop()
    for _ in range(10_000):
        psi = PsiNot(psi)
    nodes = list(walk_psi(psi))
    assert len(nodes) == 10_001
    assert isinstance(nodes[-1], PsiTop)


def _join_depth(node):
    """The most joins on a path from the root: PsiAnd (one per ∨ too), PiSeq, PiAlt."""
    if isinstance(node, PsiNot):
        return _join_depth(node.inner)
    if isinstance(node, (PsiAnd, PiSeq, PiAlt)):
        return 1 + max(_join_depth(node.left), _join_depth(node.right))
    return 0


def test_lists_join_into_balanced_trees():
    atoms = [PsiEq(Iri(f"{EX}v{i}")) for i in range(1200)]
    steps = [sh.PredPath(Iri(f"{EX}p{i}")) for i in range(1200)]
    for n in (2, 3, 4, 5, 7, 8, 9, 400, 1200):
        log2 = (n - 1).bit_length()  # ⌈log2 n⌉
        assert _join_depth(psi_and_all(atoms[:n])) == log2
        assert _join_depth(psi_or_all(atoms[:n])) == log2
        assert _join_depth(path_to_pi(sh.SeqPath(tuple(steps[:n])))) == log2
        assert _join_depth(path_to_pi(sh.AltPath(tuple(steps[:n])))) == log2


def test_lists_of_three_or_fewer_join_into_the_left_chain():
    a, b, c = (PsiEq(Iri(EX + x)) for x in "abc")
    assert psi_and_all([]) == PsiTop() and psi_or_all([]) == PsiNot(PsiTop())
    assert psi_and_all([a]) == psi_or_all([a]) == a
    assert psi_and_all([a, b]) == PsiAnd(a, b)
    assert psi_or_all([a, b]) == psi_or(a, b)
    assert psi_and_all([a, b, c]) == PsiAnd(PsiAnd(a, b), c)
    assert psi_or_all([a, b, c]) == psi_or(psi_or(a, b), c)
    p, q, r = (RelStep(RelAtom(Iri(EX + x))) for x in "pqr")
    assert path_to_pi(sh.SeqPath(tuple(sh.PredPath(Iri(EX + x)) for x in "pqr"))) == PiSeq(PiSeq(p, q), r)
    assert path_to_pi(sh.AltPath(tuple(sh.PredPath(Iri(EX + x)) for x in "pqr"))) == PiAlt(PiAlt(p, q), r)
