"""Refutation by three-valued evaluation (`semantics.AbstractContext`).

Its values equal the reference's (`oracles.reference_abstract_values`),
every "unsat" carries a certificate the reference confirms, and no claim
conflicts with a model or counterexample that exhaustive graph search or the
brute-force validator finds: on sat-contains' generator (seeds 3, 5 and 11)
and on the recursive corpus, in all four modes."""
import random

from sclkit import shacl as sh
from sclkit.corpus import random_document, random_graph
from sclkit.decide import (SearchBudget, bounded_sat, candidate_graphs, check_containment,
                           shape_containment, template_sat)
from sclkit.rdf import Iri, nodes_of, parse_turtle
from sclkit.scl import constants_of
from sclkit.semantics import OTHER, AbstractContext, SemanticsMode, compile_document, validate
from generators import corpus_seed
from oracles import brute_force_faithful, brute_force_validate, reference_abstract_values

# refutation runs before any search, so a spent budget leaves its answers alone
NO_SEARCH = SearchBudget(max_seconds=0.0)
# every graph of at most one triple over the documents' vocabulary and one fresh node
EXHAUSTIVE = SearchBudget(max_fresh=1, max_triples=1)
BRUTE_FORCE_LIMIT = 729


def _sat_contains_docs(seed: int, count: int) -> list:
    rng = random.Random(seed)
    return [random_document(rng, max_shapes=2, features=("Z", "A", "D", "C")) for _ in range(count)]


def _recursive_corpus() -> list:
    """`tests/test_acceptance.py`'s recursive corpus: (document, graph) pairs."""
    rng = random.Random(corpus_seed() + 1)
    out = []
    for _ in range(200):
        m = random_document(rng, max_shapes=3, features=("S", "Z", "A", "D", "C"),
                            recursive=True, max_count=2)
        out.append((m, random_graph(rng, max_nodes=4)))
    return out


def _valid(g, m, mode) -> bool:
    """Brute force where the sign space is small, else the validator."""
    pairs = len(nodes_of(g, m)) * len(sh.eliminate_xone(m).names())
    if (2 if mode.total else 3) ** pairs <= BRUTE_FORCE_LIMIT:
        return brute_force_validate(g, m, mode)
    return validate(g, m, mode)


def assert_certified(result, mode: SemanticsMode) -> None:
    """The reference gives every pair of the certificate its value, and the
    pairs make the claim: a node target that fails, every target holding
    (where every graph has a faithful assignment), or a shape failing at every
    element."""
    document, pairs, value = result.certificate
    elements, values = reference_abstract_values(document)
    assert all(values.get(pair) is value for pair in pairs), result.reason
    if value:
        assert not mode.total or not sh.is_recursive(document)
        for s in document.shapes:
            for t in s.targets:
                nodes = [t.node] if isinstance(t, sh.NodeTarget) else elements
                assert {(node, s.name) for node in nodes} <= set(pairs)
    elif len(pairs) == 1 and pairs[0][0] != OTHER:
        (node, name), = pairs
        assert sh.NodeTarget(node) in document.shape(name).targets
    else:
        assert pairs == tuple((e, pairs[0][1]) for e in elements)


def _sat_claims_hold(m, g, seen: dict) -> None:
    """No mode validates the given graph or a searched one for a refuted
    document; each document once."""
    if m not in seen:
        seen[m] = True
        assert not any(_valid(g, m, mode) for mode in SemanticsMode), m
        for h in candidate_graphs(m, EXHAUSTIVE):
            assert not any(validate(h, m, mode) for mode in SemanticsMode), (m, sorted(map(repr, h)))


def _contains_claim_holds(m1, m2, mode, graphs) -> None:
    for g in graphs:
        assert not (validate(g, m1, mode) and not validate(g, m2, mode)), (m1, m2, mode)


def _check_pairs(pairs: list) -> dict:
    """Every claim on (m1, graph1, m2) triples in all four modes, checked
    against exhaustive search and the given graphs; counts claims by kind."""
    counts = {"sat": 0, "contains": 0}
    refuted: dict = {}
    for m1, g1, m2 in pairs:
        for mode in SemanticsMode:
            sat = bounded_sat(m1, mode, NO_SEARCH)
            if sat.status == "unsat":
                counts["sat"] += 1
                assert_certified(sat, mode)
                _sat_claims_hold(m1, g1, refuted)
            contains = check_containment(m1, m2, mode, NO_SEARCH)
            if contains.status == "unsat":
                counts["contains"] += 1
                assert_certified(contains, mode)
                graphs = candidate_graphs(m1, EXHAUSTIVE, constants_of(compile_document(m2).sentence),
                                          sh.document_vocabulary(m2)[0])
                _contains_claim_holds(m1, m2, mode, [g1, *graphs])
                assert not (_valid(g1, m1, mode) and not _valid(g1, m2, mode))
    return counts


def test_abstract_values_equal_the_reference():
    docs = [m for seed in (3, 5, 11) for m in _sat_contains_docs(seed, 250)]
    docs += [m for m, _ in _recursive_corpus()]
    definite = 0
    for m in docs:
        compiled = compile_document(m)
        ctx = AbstractContext(compiled.document, compiled.bodies)
        elements, values = reference_abstract_values(m)
        assert (ctx.elements, ctx.sign) == (elements, values), m
        definite += bool(values)
    assert definite > len(docs) // 4


def test_no_claim_conflicts_with_a_witness_on_the_sat_contains_generator():
    for seed in (3, 5, 11):
        docs = _sat_contains_docs(seed, 60)
        pairs = [(m, parse_turtle(""), docs[(i + 1) % len(docs)]) for i, m in enumerate(docs)]
        counts = _check_pairs(pairs)
        assert counts["sat"] >= 8 and counts["contains"] >= 60, (seed, counts)


def test_no_claim_conflicts_with_a_witness_on_the_recursive_corpus():
    corpus = _recursive_corpus()
    pairs = [(m, g, corpus[(i + 1) % len(corpus)][0]) for i, (m, g) in enumerate(corpus)]
    counts = _check_pairs(pairs)
    assert counts["sat"] >= 8 and counts["contains"] >= 40, counts


def test_no_shape_containment_claim_conflicts_with_a_faithful_assignment():
    checked = 0
    for m, g in _recursive_corpus()[:100]:
        names = sorted(sh.eliminate_xone(m).names(), key=lambda i: i.value)
        for s, s_prime in zip(names, names[1:] + names[:1]):
            for mode in (SemanticsMode.BRAVE_PARTIAL, SemanticsMode.BRAVE_TOTAL):
                result = shape_containment(m, s, s_prime, mode, NO_SEARCH)
                if result.status != "unsat":
                    continue
                assert_certified(result, mode)
                checked += 1
                for h in (g, *candidate_graphs(m, EXHAUSTIVE)):
                    pairs = len(nodes_of(h, m)) * len(names)
                    if (2 if mode.total else 3) ** pairs > BRUTE_FORCE_LIMIT:
                        continue
                    for sigma in brute_force_faithful(h, m, mode.total):
                        assert not any(sigma.sign(n, s) is True and sigma.sign(n, s_prime) is False
                                       for n in sigma.nodes), (m, s, s_prime, mode)
    assert checked >= 10


def test_refuted_answers_name_their_pair():
    ex = "http://ex/"
    m = sh.document_from_graph(parse_turtle(
        f"@prefix : <{ex}> . @prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        ":s a sh:NodeShape ; sh:targetNode :n2 ; sh:hasValue :n3 ."))
    for mode in SemanticsMode:
        result = bounded_sat(m, mode, SearchBudget())
        assert (result.status, result.reason) == ("unsat", f"refuted: <{ex}s> fails at <{ex}n2>")
        assert result.to_json() == {"result": "unsat", "approximate": False, "reason": result.reason}
        assert result.certificate == (m, ((Iri(ex + "n2"), Iri(ex + "s")),), False)
        contains = check_containment(m, sh.Document(()), mode, SearchBudget())
        assert contains.reason == "doc1 " + result.reason


def _read(text: str):
    prefixes = ("@prefix : <http://ex/> . @prefix sh: <http://www.w3.org/ns/shacl#> .\n"
                "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")
    return parse_turtle(prefixes + text)


# (shapes, a graph that validates them in every mode): a filter away from the
# constants, and sh:uniqueLang and sh:closed, whose bodies grow with the graph
WITNESSED = [
    (":s a sh:PropertyShape ; sh:targetNode :a ; sh:path :r ;"
     " sh:qualifiedValueShape [ sh:datatype xsd:integer ] ; sh:qualifiedMinCount 1 .", ":a :r 1 ."),
    (":s a sh:NodeShape ; sh:targetNode :a ; sh:not :u ."
     " :u a sh:PropertyShape ; sh:path :p ; sh:uniqueLang true .", ':a :p "x"@en, "y"@en .'),
    (":s a sh:NodeShape ; sh:targetNode :a ; sh:not :c . :c a sh:NodeShape ; sh:closed true .",
     ":a :p :b ."),
]


def test_filters_and_graph_dependent_bodies_refute_no_valid_document():
    for shapes, data in WITNESSED:
        m, g = sh.document_from_graph(_read(shapes)), _read(data)
        for mode in SemanticsMode:
            assert validate(g, m, mode), (shapes, mode)
            assert bounded_sat(m, mode, NO_SEARCH).status != "unsat", (shapes, mode)


def test_a_filter_at_a_constant_is_decided():
    # :a is an IRI, so no graph makes it an integer
    m = sh.document_from_graph(_read(":s a sh:NodeShape ; sh:targetNode :a ; sh:datatype xsd:integer ."))
    result = bounded_sat(m, SemanticsMode.BRAVE_TOTAL, NO_SEARCH)
    assert result.status == "unsat"
    assert_certified(result, SemanticsMode.BRAVE_TOTAL)


def test_a_refuted_template_answers_before_order_atoms_raise():
    # sh:lessThan reads unknown here; the search's axiomatisation rejects it
    full = sh.document_from_graph(_read(
        ":s a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path :p ; sh:lessThan :q ] ."
        " :t a sh:NodeShape ; sh:node :s ; sh:hasValue :b, :c ."))
    t = full.shape(Iri("http://ex/t"))
    rest = sh.Document(tuple(s for s in full.shapes if s.name != t.name))
    result = template_sat(rest, t.name, t.constraint, NO_SEARCH)
    assert (result.status, result.reason) == ("unsat", "refuted: <http://ex/t> fails everywhere")
    assert_certified(result, SemanticsMode.BRAVE_TOTAL)


def test_a_quantifier_read_before_its_body_is_decided_is_read_again():
    # :u makes the document recursive, so the sweep follows no evaluation
    # order: it reads the property shape's ∃r before its value shape (:a and
    # :b at once, so false everywhere) has any value
    m = sh.document_from_graph(_read(
        ":t a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path :r ;"
        " sh:qualifiedValueShape [ sh:hasValue :a, :b ] ; sh:qualifiedMinCount 1 ] ."
        " :u a sh:NodeShape ; sh:not :u ."))
    for mode in SemanticsMode:
        result = bounded_sat(m, mode, NO_SEARCH)
        assert result.reason == "refuted: <http://ex/t> fails at <http://ex/a>", mode
        assert_certified(result, mode)


def test_every_target_holding_is_claimed_only_where_every_graph_has_a_faithful_assignment():
    # :t, true exactly where it is false, has no total faithful assignment in
    # any graph, so the total modes validate no graph; the partial modes leave
    # :t undefined, and :s's one target holds
    m2 = sh.document_from_graph(_read(":s a sh:NodeShape ; sh:targetNode :a ."
                                      " :t a sh:NodeShape ; sh:not :t ."))
    for mode in SemanticsMode:
        result = check_containment(sh.Document(()), m2, mode, SearchBudget(max_fresh=0, max_triples=0))
        if mode.total:
            assert result.status == "sat" and not validate(result.witness_graph, m2, mode)
        else:
            assert (result.status, result.reason) == ("unsat", "doc2 holds everywhere")
            assert_certified(result, mode)
