"""Fragment classification, desk-scale satisfiability and containment by
bounded model search, and first-order encodings for external provers.

Two search routines live here: a graph-level search that enumerates candidate
data graphs and runs the validator, and an uninterpreted-model search that
grounds sentences over a bounded domain into CNF (counting through
sequential counters) and runs the CDCL solver of `sat` (filters become free
monadic predicates there).  The grounding is goal-directed: without shape
cycles, a shape's one constraint axiom is grounded only where the targets, the
counting conjuncts or other grounded axioms mention it (Plaisted & Greenbaum).

Both prover formats, SMT-LIB 2 and TPTP FOF, come from one encoder: a single
walker fixes the first-order reading of a sentence, and a small syntax class
per format renders connectives, quantifiers, symbols and the file framing.
"""
from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Iterable, Iterator, Optional

from .rdf import (Graph, Iri, Literal, RDF_TYPE, Term, Triple, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER,
                  XSD_STRING, serialize_turtle, term_key, triple_key)
from . import shacl as sh
from .filters import (
    AxiomatisationResult,
    DatatypeAtom,
    FilterAtom,
    FilterCombination,
    LanguageTagAtom,
    NU_NAME,
    OrderCmp,
    Pos,
    bounded_axiomatisation,
    combo_witnesses,
    eval_filter,
)
from .scl import (
    AtMostAxiom,
    Axiom,
    ConstraintAxiom,
    FeatureSet,
    Pi,
    PiAlt,
    PiSeq,
    PiStar,
    PiZeroOrOne,
    Psi,
    PsiAnd,
    PsiCount,
    PsiDisjoint,
    PsiEq,
    PsiEquals,
    PsiExists,
    PsiFilter,
    PsiNot,
    PsiOrder,
    PsiShape,
    PsiTop,
    RelAtom,
    RelStep,
    SclSentence,
    ShapeRel,
    TargetAxiom,
    TargetClassAxiom,
    TargetNodeAxiom,
    TargetObjectsAxiom,
    TargetSubjectsAxiom,
    constants_of,
    features_of,
    filter_atoms_of,
    is_recursive_sentence,
    walk_psi,
)
from .sat import _Cnf, _dpll
from .semantics import (AbstractContext, Assignment, SemanticsMode, compile_document, gamma_pos_name,
                        gamma_transform, validate, validation_witness)
from .translate import CLOSED_RELATION, tau
from .value import value_class


class DecisionError(ValueError):
    pass


# --- fragment classification ---------------------------------------------------

DECIDABLE = "Decidable"
UNDECIDABLE = "Undecidable"
UNKNOWN = "Unknown"

EXPTIME_COMPLETE = "ExpTime-complete"
NEXPTIME = "NExpTime"
NEXPTIME_COMPLETE = "NExpTime-complete"
TWO_EXPTIME = "2ExpTime"

FMP_YES = "Yes"
FMP_NO = "No"
FMP_UNKNOWN = "Unknown"


@value_class
class Verdict:
    decidability: str
    complexity: Optional[str]
    fmp: str
    witnesses: tuple
    features: FeatureSet

    def to_json(self) -> dict:
        """The report schema of `sclkit classify --json`."""
        return {
            "features": sorted(self.features.flags),
            "recursive": self.features.recursive,
            "verdict": self.decidability,
            "complexity": self.complexity,
            "fmp": self.fmp,
            "witnesses": list(self.witnesses),
            "semantics": "total",
        }


_DECIDABLE_FRAGMENTS = (
    # (fragment letters, complexity label); first inclusion wins
    (frozenset("SZA"), EXPTIME_COMPLETE),
    (frozenset({"Z", "A", "D", "E"}), NEXPTIME),
    (frozenset({"Z", "A", "D", "E", "C"}), NEXPTIME_COMPLETE),
    (frozenset({"S", "Z", "A", "T", "D"}), TWO_EXPTIME),
)

_UNDECIDABLE_CORES = (
    frozenset({"S", "O"}),
    frozenset({"S", "A", "C"}),
    frozenset({"S", "E"}),
    frozenset({"S", "E", "C"}),
    frozenset({"S", "E", "O'"}),
    frozenset({"S", "Z", "A", "E"}),
)

_NO_FMP_CORES = (
    frozenset({"C"}),
    frozenset({"S", "T", "D"}),
    frozenset({"O"}),
    frozenset({"E", "O'"}),
)

_FMP_FRAGMENTS = (
    frozenset({"S", "Z", "A", "D"}),
    frozenset({"Z", "A", "D", "E"}),
)


def _letters(flags: Iterable[str]) -> str:
    order = "SZATDOEC"
    out = "".join(l for l in order if l in flags)
    if "O'" in flags:
        out += "O'"
    return out or "base"


def classify(phi: SclSentence) -> Verdict:
    """Decidability/complexity verdict of the sentence's feature fragment."""
    fs = features_of(phi)
    flags = set(fs.flags)
    witnesses: list[str] = []

    fmp = FMP_UNKNOWN
    for frag in _FMP_FRAGMENTS:
        if flags <= frag:
            fmp = FMP_YES
            witnesses.append(f"finite-models:within-{_letters(frag)}")
            break
    if fmp is FMP_UNKNOWN:
        for core in _NO_FMP_CORES:
            if core <= flags:
                fmp = FMP_NO
                witnesses.append(f"no-finite-models:contains-{_letters(core)}")
                break

    for core in _UNDECIDABLE_CORES:
        if core <= flags:
            witnesses.append(f"undecidable:contains-{_letters(core)}")
            return Verdict(UNDECIDABLE, None, fmp, tuple(witnesses), fs)
    for frag, label in _DECIDABLE_FRAGMENTS:
        if flags <= frag:
            witnesses.append(f"decidable:within-{_letters(frag)}")
            return Verdict(DECIDABLE, label, fmp, tuple(witnesses), fs)
    witnesses.append("no-known-result")
    return Verdict(UNKNOWN, None, fmp, tuple(witnesses), fs)


# --- budgets and results ---------------------------------------------------------

@value_class
class SearchBudget:
    max_fresh: int
    max_triples: int
    max_seconds: float

    def __init__(self, max_fresh: int = 2, max_triples: int = 8, max_seconds: float = 30.0):
        # "not >= 0" also rejects NaN, against which no deadline ever expires
        if max_fresh < 0 or max_triples < 0 or not max_seconds >= 0:
            raise ValueError("search budget bounds must be non-negative numbers")
        super().__init__(max_fresh, max_triples, max_seconds)


@value_class
class SatResult:
    status: str  # "sat" from a search, "unsat" from refutation, else "unknown"
    witness_graph: Optional[Graph] = None
    witness_assignment: Optional[Assignment] = None
    witness_node: Optional[Term] = None
    approximate: bool = False
    reason: Optional[str] = None
    # an "unsat"'s (document, pairs, value): each (node, shape) pair reads the
    # value over the document's AbstractContext; not in the report
    certificate: Optional[tuple] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    def to_json(self) -> dict:
        out: dict = {"result": self.status, "approximate": self.approximate}
        if self.reason:
            out["reason"] = self.reason
        if self.witness_graph is not None:
            out["witness_graph"] = serialize_turtle(self.witness_graph)
        if self.witness_assignment is not None:
            out["witness_assignment"] = self.witness_assignment.to_json()
        if self.witness_node is not None:
            out["witness_node"] = repr(self.witness_node)
        return out


class _Deadline:
    def __init__(self, seconds: float):
        self.t_end = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() > self.t_end


# --- graph-level bounded search ---------------------------------------------------

def _filter_sample_terms(sentence: SclSentence) -> list[Term]:
    """Deterministic candidate literals that satisfy the filter constraints of a
    document's sentence, so graph search can build filter-conforming witnesses."""
    atoms: list[FilterAtom] = []
    per_shape: list[list[FilterAtom]] = []
    for axiom in sentence.constraint_axioms():
        shape_atoms = [n.atom for n in walk_psi(axiom.body) if isinstance(n, PsiFilter)]
        if shape_atoms:
            per_shape.append(shape_atoms)
            atoms.extend(shape_atoms)
    if not atoms:
        return []
    pool: list[Term] = [
        Literal("0", XSD_INTEGER), Literal("1", XSD_INTEGER), Literal("2", XSD_INTEGER),
        Literal("0.5", XSD_DECIMAL),
        Literal("true", XSD_BOOLEAN), Literal("false", XSD_BOOLEAN),
        Literal("", XSD_STRING), Literal("a", XSD_STRING),
        Literal("a", language="en"),
    ]
    for atom in atoms:
        if isinstance(atom, OrderCmp):
            pool.append(atom.limit)
        elif isinstance(atom, DatatypeAtom):
            pool.extend(Literal(form, atom.datatype) for form in ("0", "1", "a"))
        elif isinstance(atom, LanguageTagAtom):
            pool.append(Literal("a", language=atom.tag))
    samples: list[Term] = []
    for group in per_shape:
        combo = FilterCombination.of([Pos(a) for a in group])
        wits = combo_witnesses(combo, (), limit=4)
        if wits:
            samples.extend(wits[:2])
        for a in group:
            wits = combo_witnesses(FilterCombination.of([Pos(a)]), (), limit=4)
            if wits:
                samples.extend(wits[:2])
            else:
                samples.extend(t for t in pool if eval_filter(a, t))
    seen = []
    for t in sorted(samples, key=term_key):
        if t not in seen:
            seen.append(t)
    return seen[:6]


def _fresh_usage_canonical(triples: tuple, fresh: list[Term]) -> bool:
    """Interchangeable fresh elements: keep only first-appearance-ordered uses."""
    order = {f: i for i, f in enumerate(fresh)}
    next_expected = 0
    for t in triples:
        for term in (t.subject, t.predicate, t.object):
            i = order.get(term)
            if i is None:
                continue
            if i > next_expected:
                return False
            if i == next_expected:
                next_expected += 1
    return True


def candidate_graphs(m: sh.Document, budget: SearchBudget,
                     extra_constants: Iterable[Term] = (),
                     extra_relations: Iterable[Iri] = ()) -> Iterator[Graph]:
    """Ascending enumeration of graphs over the document's vocabulary."""
    sentence = compile_document(m).sentence
    consts = sorted(constants_of(sentence) | set(extra_constants), key=term_key)
    consts += [t for t in _filter_sample_terms(sentence) if t not in set(consts)]
    rels = sh.document_vocabulary(m)[0] | set(extra_relations)
    if any(isinstance(node, sh.Closed) for s in m.shapes for node in sh.walk(s.constraint)):
        rels.add(CLOSED_RELATION)
    rels = sorted(rels, key=lambda i: i.value)
    fresh = [Iri(f"urn:sclkit:model:n{i}") for i in range(budget.max_fresh)]
    domain = consts + fresh
    if not rels or not domain:
        yield Graph(())
        return
    universe = sorted(
        (Triple(s, p, o) for p in rels for s in domain for o in domain), key=triple_key
    )
    max_k = min(budget.max_triples, len(universe))
    for k in range(0, max_k + 1):
        for combo in itertools.combinations(universe, k):
            if _fresh_usage_canonical(combo, fresh):
                yield Graph(combo)


def _graph_search(m: sh.Document, budget: SearchBudget, verdict, exhausted: str,
                  *vocabulary) -> SatResult:
    """The first result `verdict` gives on a candidate graph (see
    `candidate_graphs` for the extra vocabulary), in the deterministic
    enumeration order; "unknown" once time or graphs run out."""
    deadline = _Deadline(budget.max_seconds)
    for g in candidate_graphs(m, budget, *vocabulary):
        if deadline.expired():
            return SatResult("unknown", reason="time budget exhausted")
        result = verdict(g)
        if result is not None:
            return result
    return SatResult("unknown", reason=exhausted)


# --- refutation: AbstractContext values hold in every graph, so claims hold at any size ---

def _claim(ctx: AbstractContext, pairs: list, value: bool, reason: str) -> Optional[SatResult]:
    """"unsat" when every (node, shape) pair reads the value, else None."""
    if all(ctx.sign.get(pair) is value for pair in pairs):
        return SatResult("unsat", reason=reason, certificate=(ctx.document, tuple(pairs), value))


def _refuted(ctx: AbstractContext, prefix: str = "") -> Optional[SatResult]:
    """"unsat" when an sh:targetNode pair reads false, else None: a faithful
    assignment, which every valid graph has in every mode, would make it both
    false and true."""
    for shape in ctx.document.shapes:
        for t in shape.targets:
            if isinstance(t, sh.NodeTarget) and ctx.sign.get((t.node, shape.name)) is False:
                return _claim(ctx, [(t.node, shape.name)], False,
                              f"{prefix}refuted: {shape.name!r} fails at {t.node!r}")


def bounded_sat(m: sh.Document, mode: SemanticsMode, budget: SearchBudget) -> SatResult:
    """Refutation, else search for a graph the document validates."""
    compiled = compile_document(m)
    refuted = _refuted(AbstractContext(compiled.document, compiled.bodies))
    if refuted is not None:
        return refuted
    m = compiled.document

    def witness(g: Graph) -> Optional[SatResult]:
        sigma = validation_witness(g, m, mode)
        return None if sigma is None else SatResult("sat", witness_graph=g, witness_assignment=sigma)

    return _graph_search(m, budget, witness, "no model within budget")


def _rename_apart(m: sh.Document, taken: set, suffix: str) -> sh.Document:
    mapping = {name: Iri(name.value + suffix) for name in m.names() if name in taken}
    if not mapping:
        return m

    def rn(name: Iri) -> Iri:
        return mapping.get(name, name)

    def leaf(c: sh.Constraint) -> sh.Constraint:
        if isinstance(c, sh.Ref):
            return sh.Ref(rn(c.name))
        if isinstance(c, sh.Xone):
            return sh.Xone(tuple(rn(n) for n in c.names))
        if isinstance(c, sh.QualifiedValue):
            return sh.QualifiedValue(rn(c.ref), c.min_count, c.max_count,
                                     tuple(rn(s) for s in c.siblings))
        return c

    return sh.Document(tuple(
        sh.Shape(rn(s.name), s.targets, s.path, sh.rebuild(s.constraint, leaf)) for s in m.shapes
    ))


def containment_sentence(m1: sh.Document, m2: sh.Document):
    """The single existential sentence whose satisfiability refutes
    containment of non-recursive documents: the first document's sentence
    conjoined with the second's target-free sentence and the negation of the
    second's target axioms."""
    m2 = _rename_apart(m2, set(m1.names()), "#rhs")
    phi1 = tau(m1, extra_documents=(m2,))
    phi2_base = tau(sh.strip_targets(m2), extra_documents=(m1,))
    phi2_full = tau(m2, extra_documents=(m1,))
    negated_targets = tuple(a for a in phi2_full.axioms if isinstance(a, TargetAxiom))
    return phi1.conjoin(phi2_base), negated_targets


def check_containment(m1: sh.Document, m2: sh.Document, mode: SemanticsMode,
                      budget: SearchBudget) -> SatResult:
    """Counterexample search: sat means NOT contained, with the separating
    graph as witness.  "unsat" (contained) comes first, from refutation of
    m1, or from every target of m2 reading true where every graph has a
    faithful assignment of m2 (partial modes, or m2 not recursive)."""
    compiled1, compiled2 = compile_document(m1), compile_document(m2)
    refuted = _refuted(AbstractContext(compiled1.document, compiled1.bodies), "doc1 ")
    if refuted is None and (not mode.total or compiled2.order is not None):
        ctx = AbstractContext(compiled2.document, compiled2.bodies)
        pairs = [(node, s.name) for s in compiled2.document.shapes for t in s.targets
                 for node in ([t.node] if isinstance(t, sh.NodeTarget) else ctx.elements)]
        refuted = _claim(ctx, pairs, True, "doc2 holds everywhere")
    if refuted is not None:
        return refuted
    m1, m2 = compiled1.document, compiled2.document

    def counterexample(g: Graph) -> Optional[SatResult]:
        separates = validate(g, m1, mode) and not validate(g, m2, mode)
        return SatResult("sat", witness_graph=g) if separates else None

    return _graph_search(m1, budget, counterexample, "no counterexample within budget",
                         constants_of(compiled2.sentence), sh.document_vocabulary(m2)[0])


def template_sat(m: sh.Document, name: Iri, constraint: sh.Constraint,
                 budget: SearchBudget, mode: SemanticsMode = SemanticsMode.BRAVE_TOTAL,
                 path: Optional[sh.PathExpr] = None) -> SatResult:
    """Is there a node that can be forced to conform to a fresh shape?  "unsat"
    when refutation shows that none can, in a graph of any size; otherwise,
    reduced to uninterpreted-model search over the translated document plus
    its bounded filter axiomatisation: the fresh target constant ranges over
    the sentence's constants plus one unknown, which symmetry makes generic.
    A sentence without filter atoms goes without the axiomatisation: its "at
    most one element equals c" holds in every grounding.
    """
    if m.has_shape(name):
        raise DecisionError(f"template shape name {name!r} already occurs in the document")
    for ref in sh.referenced_names(constraint):
        if not m.has_shape(ref) and ref != name:
            raise DecisionError(f"template constraint references unknown shape {ref!r}")
    if not mode.brave:
        raise DecisionError("template satisfiability is defined for the brave modes")
    doc = m.with_shape(sh.Shape(name, (), path, constraint))
    phi = tau(doc)
    ctx = AbstractContext(doc, {a.shape.name: a.body for a in phi.constraint_axioms()})
    refuted = _refuted(ctx) or _claim(ctx, [(e, name) for e in ctx.elements], False,
                                      f"refuted: {name!r} fails everywhere")
    if refuted is not None:
        return refuted
    probe = ShapeRel(name)
    if mode is SemanticsMode.BRAVE_PARTIAL:
        phi = tau(gamma_transform(doc))
        probe = ShapeRel(gamma_pos_name(name))
    deadline = _Deadline(budget.max_seconds)
    # property-pair order atoms must still raise FilterAxiomError
    ax = AxiomatisationResult(SclSentence(()), False)
    if filter_atoms_of(phi) or features_of(phi).flags & {"O", "O'"}:
        ax = bounded_axiomatisation(phi, deadline)
    base = phi.conjoin(ax.sentence)
    candidates = sorted(constants_of(phi), key=term_key)  # the axiomatisation names no others
    candidates.append(Iri("urn:sclkit:model:probe"))
    for f in candidates:
        probe_sentence = base.conjoin(SclSentence((TargetNodeAxiom(probe, f),)))
        result = scl_bounded_sat(probe_sentence, budget, deadline=deadline)
        if result.is_sat:
            return SatResult("sat", witness_graph=result.witness_graph,
                             witness_assignment=result.witness_assignment,
                             witness_node=f, approximate=ax.approximate)
        if result.reason == "time budget exhausted":
            return SatResult("unknown", reason=result.reason, approximate=ax.approximate)
    return SatResult("unknown", reason="no model within budget", approximate=ax.approximate)


def shape_containment(m: sh.Document, s: Iri, s_prime: Iri, mode: SemanticsMode,
                      budget: SearchBudget) -> SatResult:
    """Sat means s is NOT contained in s_prime: some node can conform to s
    while violating s_prime in a faithful assignment."""
    m.shape(s)
    m.shape(s_prime)
    mint = sh.NameMint(set(m.names()))
    star = mint.fresh()
    counterexample = sh.And((sh.Ref(s), sh.Not(sh.Ref(s_prime))))
    return template_sat(m, star, counterexample, budget, mode)


# --- uninterpreted bounded model search -------------------------------------------

class _Grounder:
    __slots__ = ("cnf", "domain", "const_index", "rel_vars", "filt_vars", "shape_vars", "ord_vars",
                 "psi_memo", "pi_memo", "definitions", "undefined")

    def __init__(self, cnf: _Cnf, domain: list, const_index: dict, definitions: Optional[dict] = None):
        self.cnf = cnf
        self.domain = domain
        self.const_index = const_index
        self.rel_vars: dict = {}
        self.filt_vars: dict = {}
        self.shape_vars: dict = {}
        self.ord_vars: dict = {}
        self.psi_memo: dict = {}
        self.pi_memo: dict = {}
        self.definitions = definitions or {}  # shape name -> body, grounded on demand
        self.undefined: list = []  # mentioned pairs whose definition is not grounded

    def _var(self, table: dict, key) -> int:
        if key not in table:
            table[key] = self.cnf.new_var()
        return table[key]

    def rel(self, name: Term, i: int, j: int) -> int:
        return self._var(self.rel_vars, (name, i, j))

    def filt(self, atom: FilterAtom, i: int) -> int:
        return self._var(self.filt_vars, (atom, i))

    def shape(self, name: Iri, i: int) -> int:
        key = (name, i)
        if key not in self.shape_vars:
            self.shape_vars[key] = self.cnf.new_var()
            if name in self.definitions:
                self.undefined.append(key)
        return self.shape_vars[key]

    def order(self, op: str, j: int, k: int) -> int:
        # uninterpreted binary order relations lt / le
        if op in (">", ">="):
            return self.order({"<": ">", ">": "<", "<=": ">=", ">=": "<="}[op], k, j)
        return self._var(self.ord_vars, (op, j, k))

    def rel_atom(self, rel: RelAtom, i: int, j: int) -> int:
        if rel.inverted:
            return self.rel(rel.name, j, i)
        return self.rel(rel.name, i, j)

    def pi(self, pi: Pi, i: int, j: int) -> int:
        key = (id(pi), i, j)
        if key in self.pi_memo:
            return self.pi_memo[key]
        if isinstance(pi, RelStep):
            out = self.rel_atom(pi.rel, i, j)
        elif isinstance(pi, PiSeq):
            out = self.cnf.or_([
                self.cnf.and_([self.pi(pi.left, i, k), self.pi(pi.right, k, j)])
                for k in range(len(self.domain))
            ])
        elif isinstance(pi, PiZeroOrOne):
            out = self.cnf.TRUE if i == j else self.pi(pi.inner, i, j)
        elif isinstance(pi, PiAlt):
            out = self.cnf.or_([self.pi(pi.left, i, j), self.pi(pi.right, i, j)])
        else:
            out = self._star(pi, i, j)
        self.pi_memo[key] = out
        return out

    def _star(self, pi: PiStar, i: int, j: int) -> int:
        """Reachability by squaring: after level l, reach[a][b] holds when b
        is within 2^l steps of a."""
        key = ("star", id(pi))
        if key not in self.pi_memo:
            cnf, d = self.cnf, len(self.domain)
            reach = [[cnf.TRUE if a == b else self.pi(pi.inner, a, b) for b in range(d)] for a in range(d)]
            for _ in range(max(1, d.bit_length())):
                reach = [[cnf.or_([reach[a][b]] + [cnf.and_([reach[a][k], reach[k][b]]) for k in range(d)])
                          for b in range(d)] for a in range(d)]
            self.pi_memo[key] = reach
        return self.pi_memo[key][i][j]

    def psi(self, psi: Psi, i: int) -> int:
        key = (id(psi), i)
        if key in self.psi_memo:
            return self.psi_memo[key]
        out = self._psi(psi, i)
        self.psi_memo[key] = out
        return out

    def _psi(self, psi: Psi, i: int) -> int:
        cnf = self.cnf
        d = len(self.domain)
        if isinstance(psi, PsiTop):
            return cnf.TRUE
        if isinstance(psi, PsiNot):
            return -self.psi(psi.inner, i)
        if isinstance(psi, PsiAnd):
            # a false left side leaves the right ungrounded: Eq(c) ∧ ... costs one element
            left = self.psi(psi.left, i)
            return cnf.FALSE if left == cnf.FALSE else cnf.and_([left, self.psi(psi.right, i)])
        if isinstance(psi, PsiEq):
            j = self.const_index.get(psi.constant)
            return cnf.TRUE if j == i else cnf.FALSE
        if isinstance(psi, PsiFilter):
            return self.filt(psi.atom, i)
        if isinstance(psi, PsiShape):
            return self.shape(psi.rel.name, i)
        if isinstance(psi, PsiExists):
            return cnf.or_([
                cnf.and_([self.pi(psi.path, i, j), self.psi(psi.body, j)]) for j in range(d)
            ])
        if isinstance(psi, PsiCount):
            lits = [cnf.and_([self.pi(psi.path, i, j), self.psi(psi.body, j)]) for j in range(d)]
            return cnf.at_least(psi.n, lits)
        if isinstance(psi, PsiDisjoint):
            return cnf.and_([
                -cnf.and_([self.pi(psi.path, i, j), self.rel_atom(psi.rel, i, j)])
                for j in range(d)
            ])
        if isinstance(psi, PsiEquals):
            return cnf.and_([
                cnf.iff(self.pi(psi.path, i, j), self.rel_atom(psi.rel, i, j)) for j in range(d)
            ])
        if isinstance(psi, PsiOrder):
            parts = []
            for j in range(d):
                for k in range(d):
                    pair = cnf.and_([self.pi(psi.path, i, j), self.rel_atom(psi.rel, i, k)])
                    parts.append(cnf.or_([-pair, self.order(psi.op, j, k)]))
            return cnf.and_(parts)
        raise DecisionError(f"cannot ground {type(psi).__name__}")

    def axiom(self, axiom: Axiom) -> int:
        cnf = self.cnf
        d = len(self.domain)
        if isinstance(axiom, TargetNodeAxiom):
            j = self.const_index.get(axiom.constant)
            return cnf.FALSE if j is None else self.shape(axiom.shape.name, j)
        if isinstance(axiom, TargetClassAxiom):
            j = self.const_index.get(axiom.cls)
            if j is None:
                return cnf.TRUE
            return cnf.and_([
                cnf.or_([-self.rel(RDF_TYPE, i, j), self.shape(axiom.shape.name, i)])
                for i in range(d)
            ])
        if isinstance(axiom, TargetSubjectsAxiom):
            return cnf.and_([
                cnf.or_([-self.rel(axiom.rel, i, j), self.shape(axiom.shape.name, i)])
                for i in range(d) for j in range(d)
            ])
        if isinstance(axiom, TargetObjectsAxiom):
            return cnf.and_([
                cnf.or_([-self.rel(axiom.rel, j, i), self.shape(axiom.shape.name, i)])
                for i in range(d) for j in range(d)
            ])
        if isinstance(axiom, ConstraintAxiom):
            return cnf.and_([
                cnf.iff(self.shape(axiom.shape.name, i), self.psi(axiom.body, i))
                for i in range(d)
            ])
        raise DecisionError("counting conjuncts must be asserted, not reified")


def _definitions(sentence: SclSentence) -> dict:
    """The body of each shape with one constraint axiom, if no shape depends on
    itself: any model of the rest extends to it (s(x) := body(x)).  A cyclic
    unmentioned s <-> not s, or a shape's pair of axioms, still constrains."""
    if is_recursive_sentence(sentence):
        return {}
    axioms = sentence.constraint_axioms()
    counts = Counter(a.shape.name for a in axioms)
    return {a.shape.name: a.body for a in axioms if counts[a.shape.name] == 1}


def _ground_problem(sentence: SclSentence, domain: list, const_index: dict,
                    negated_target_disjunction: Optional[tuple] = None) -> tuple:
    cnf = _Cnf()
    gr = _Grounder(cnf, domain, const_index, definitions=_definitions(sentence))
    for axiom in sentence.axioms:
        if isinstance(axiom, AtMostAxiom):
            lits = [gr.psi(axiom.body, i) for i in range(len(domain))]
            cnf.assert_at_most(axiom.n, lits)
        elif not (isinstance(axiom, ConstraintAxiom) and axiom.shape.name in gr.definitions):
            cnf.add(gr.axiom(axiom))
    if negated_target_disjunction is not None:
        # at least one target axiom of the right-hand document must fail
        cnf.add(*(-gr.axiom(a) for a in negated_target_disjunction))
    while gr.undefined:  # a work list: a long reference chain costs no stack
        name, i = key = gr.undefined.pop()
        var, body = gr.shape_vars[key], gr.psi(gr.definitions[name], i)
        cnf.add(-var, body)
        cnf.add(var, -body)
    return cnf, gr


def _model_to_witness(model: list, gr: _Grounder, domain: list) -> tuple:
    triples = []
    for (name, i, j), var in gr.rel_vars.items():
        if model[var]:
            triples.append(Triple(domain[i], name, domain[j]))
    g = Graph(triples)
    # NU_NAME is the filter axiomatisation's own shape, not a shape of the document
    signs = {(domain[i], name): bool(model[var])
             for (name, i), var in gr.shape_vars.items() if name != NU_NAME}
    shape_names = {name for (_node, name) in signs}
    sigma = Assignment(nodes=domain, shapes=sorted(shape_names, key=lambda n: n.value),
                       signs=signs)
    return g, sigma


def _constants(sentence: SclSentence, negated_target_disjunction: Optional[tuple]) -> list:
    """The constants of the sentence and of the refuted target axioms, in
    term order.  A constant only a refuted axiom mentions still names an
    element of its own: without one, its target axiom would fail vacuously."""
    refuted = SclSentence(tuple(negated_target_disjunction or ()))
    return sorted(constants_of(sentence.conjoin(refuted)), key=term_key)


def scl_bounded_sat(sentence: SclSentence, budget: SearchBudget,
                    negated_target_disjunction: Optional[tuple] = None,
                    deadline: Optional[_Deadline] = None) -> SatResult:
    """Bounded uninterpreted-model search: ground over domains of increasing
    size (the constants plus up to max_fresh anonymous elements) and solve
    with CDCL.  Unknown when every size is unsatisfiable, since larger models
    may exist."""
    deadline = deadline or _Deadline(budget.max_seconds)
    consts = _constants(sentence, negated_target_disjunction)
    for size in range(max(len(consts), 1), max(len(consts) + budget.max_fresh, 1) + 1):
        if deadline.expired():
            return SatResult("unknown", reason="time budget exhausted")
        domain = consts + [Iri(f"urn:sclkit:model:e{i}") for i in range(size - len(consts))]
        const_index = {c: i for i, c in enumerate(consts)}
        cnf, gr = _ground_problem(sentence, domain, const_index, negated_target_disjunction)
        model = _dpll(cnf.n_vars, cnf.clauses)
        if model is not None:
            g, sigma = _model_to_witness(model, gr, domain)
            return SatResult("sat", witness_graph=g, witness_assignment=sigma)
    return SatResult("unknown", reason="no model within budget")


# --- prover encodings ----------------------------------------------------------

_COUNT_CAP = 64


class _SmtLib:
    """SMT-LIB 2 rendering: one uninterpreted sort `T`, quoted symbols."""

    var_prefix = "x"
    true = "true"

    def symbol(self, kind: str, hint: str, k: int) -> str:
        # a quoted symbol may contain neither `|` nor `\`
        text = hint.replace("|", "_").replace("\\", "_")
        return f"|{kind}:{text}|" if k == 1 else f"|{kind}:{text}_{k}|"

    def app(self, f: str, *args: str) -> str:
        return f"({f} {' '.join(args)})"

    # `and`/`or` are left-associative and take at least two arguments
    def conj(self, items: list) -> str:
        if len(items) < 2:
            return items[0] if items else "true"
        return f"(and {' '.join(items)})"

    def disj(self, items: list) -> str:
        if len(items) < 2:
            return items[0] if items else "false"
        return f"(or {' '.join(items)})"

    def neg(self, a: str) -> str:
        return f"(not {a})"

    def eq(self, a: str, b: str) -> str:
        return f"(= {a} {b})"

    iff = eq

    def implies(self, a: str, b: str) -> str:
        return f"(=> {a} {b})"

    def exists(self, vs: list, body: str) -> str:
        binds = " ".join(f"({v} T)" for v in vs)
        return f"(exists ({binds}) {body})"

    def forall(self, vs: list, body: str) -> str:
        binds = " ".join(f"({v} T)" for v in vs)
        return f"(forall ({binds}) {body})"

    def distinct(self, terms: list) -> list:
        """Conjuncts stating that the terms denote pairwise distinct elements."""
        return [f"(distinct {' '.join(terms)})"] if len(terms) > 1 else []

    def document(self, symbols: dict, distinct: list, formulas: list, uses_order: bool) -> str:
        lines = ["(set-logic UF)", "(declare-sort T 0)"]
        arity = {"c": "() T", "sh": "(T) Bool", "f": "(T) Bool", "r": "(T T) Bool"}
        for (kind, _key), name in sorted(symbols.items(), key=lambda kv: kv[1]):
            lines.append(f"(declare-fun {name} {arity[kind]})")
        if uses_order:
            lines.append("(declare-fun lt (T T) Bool)")
            lines.append("(declare-fun le (T T) Bool)")
        lines.extend(f"(assert {f})" for f in distinct + formulas)
        lines.append("(check-sat)")
        return "\n".join(lines) + "\n"


class _Tptp:
    """TPTP FOF rendering: lower-case alphanumeric symbols, upper-case variables."""

    var_prefix = "X"
    true = "$true"

    def symbol(self, kind: str, hint: str, k: int) -> str:
        base = "".join(ch if ch.isalnum() else "_" for ch in hint).lower().strip("_") or "x"
        return f"{kind}_{base}" if k == 1 else f"{kind}_{base}_{k}"

    def app(self, f: str, *args: str) -> str:
        return f"{f}({','.join(args)})"

    def conj(self, items: list) -> str:
        return f"({' & '.join(items)})" if items else "$true"

    def disj(self, items: list) -> str:
        return f"({' | '.join(items)})" if items else "$false"

    def neg(self, a: str) -> str:
        return f"~({a})"

    def eq(self, a: str, b: str) -> str:
        return f"({a} = {b})"

    def iff(self, a: str, b: str) -> str:
        return f"({a} <=> {b})"

    def implies(self, a: str, b: str) -> str:
        return f"({a} => {b})"

    def exists(self, vs: list, body: str) -> str:
        return f"(? [{','.join(vs)}] : {body})"

    def forall(self, vs: list, body: str) -> str:
        return f"(! [{','.join(vs)}] : {body})"

    def distinct(self, terms: list) -> list:
        """Conjuncts stating that the terms denote pairwise distinct elements."""
        return [f"({a} != {b})" for a, b in itertools.combinations(terms, 2)]

    def document(self, symbols: dict, distinct: list, formulas: list, uses_order: bool) -> str:
        lines = ["% shapes-constraint-logic sentence in FOF"]
        if distinct:
            lines.append(f"fof(distinct_constants, axiom, {self.conj(distinct)}).")
        lines.extend(f"fof(ax{i}, axiom, {f})." for i, f in enumerate(formulas))
        return "\n".join(lines) + "\n"


class _Emitter:
    """The first-order reading of a sentence, rendered by a format's syntax:
    counting quantifiers expand to distinct witnesses, at-most axioms to
    pigeonhole clauses, order atoms to free `lt`/`le` predicates."""

    def __init__(self, syntax):
        self.s = syntax
        self.names: dict = {}  # (kind, key) -> symbol
        self.used: set = set()
        self.fresh = 0
        self.uses_order = False

    def var(self) -> str:
        self.fresh += 1
        return f"{self.s.var_prefix}{self.fresh}"

    def symbol(self, kind: str, key, hint: str) -> str:
        full = (kind, key)
        if full not in self.names:
            # distinct keys may render alike; number the later ones apart
            k = 1
            while self.s.symbol(kind, hint, k) in self.used:
                k += 1
            self.names[full] = name = self.s.symbol(kind, hint, k)
            self.used.add(name)
        return self.names[full]

    def const(self, t: Term) -> str:
        return self.symbol("c", t, repr(t))

    def shape(self, name: Iri) -> str:
        return self.symbol("sh", name, name.value)

    def filt(self, atom) -> str:
        return self.symbol("f", atom, atom.describe())

    def rel(self, name: Term) -> str:
        return self.symbol("r", name, name.value if isinstance(name, Iri) else repr(name))

    def rel_atom(self, rel: RelAtom, x: str, y: str) -> str:
        if rel.inverted:
            x, y = y, x
        return self.s.app(self.rel(rel.name), x, y)

    def pi(self, pi: Pi, x: str, y: str) -> str:
        s = self.s
        if isinstance(pi, RelStep):
            return self.rel_atom(pi.rel, x, y)
        if isinstance(pi, PiSeq):
            z = self.var()
            return s.exists([z], s.conj([self.pi(pi.left, x, z), self.pi(pi.right, z, y)]))
        if isinstance(pi, PiZeroOrOne):
            return s.disj([s.eq(x, y), self.pi(pi.inner, x, y)])
        if isinstance(pi, PiAlt):
            return s.disj([self.pi(pi.left, x, y), self.pi(pi.right, x, y)])
        raise DecisionError("transitive closure is not first-order expressible; refusing to emit")

    def psi(self, psi: Psi, x: str) -> str:
        s = self.s
        if isinstance(psi, PsiTop):
            return s.true
        if isinstance(psi, PsiNot):
            return s.neg(self.psi(psi.inner, x))
        if isinstance(psi, PsiAnd):
            return s.conj([self.psi(psi.left, x), self.psi(psi.right, x)])
        if isinstance(psi, PsiEq):
            return s.eq(x, self.const(psi.constant))
        if isinstance(psi, PsiFilter):
            return s.app(self.filt(psi.atom), x)
        if isinstance(psi, PsiShape):
            return s.app(self.shape(psi.rel.name), x)
        if isinstance(psi, PsiExists):
            y = self.var()
            return s.exists([y], s.conj([self.pi(psi.path, x, y), self.psi(psi.body, y)]))
        if isinstance(psi, PsiCount):
            _check_cap(psi.n)
            ys = [self.var() for _ in range(psi.n)]
            witnesses = [s.conj([self.pi(psi.path, x, y), self.psi(psi.body, y)]) for y in ys]
            return s.exists(ys, s.conj(s.distinct(ys) + witnesses))
        if isinstance(psi, PsiDisjoint):
            y = self.var()
            return s.neg(s.exists([y], s.conj([self.pi(psi.path, x, y),
                                               self.rel_atom(psi.rel, x, y)])))
        if isinstance(psi, PsiEquals):
            y = self.var()
            return s.forall([y], s.iff(self.pi(psi.path, x, y), self.rel_atom(psi.rel, x, y)))
        y, z = self.var(), self.var()
        self.uses_order = True
        cmp_sym = {"<": "lt", "<=": "le", ">": "lt", ">=": "le"}[psi.op]
        a, b = (y, z) if psi.op in ("<", "<=") else (z, y)
        premise = s.conj([self.pi(psi.path, x, y), self.rel_atom(psi.rel, x, z)])
        return s.forall([y, z], s.implies(premise, s.app(cmp_sym, a, b)))

    def axiom(self, axiom: Axiom) -> str:
        s = self.s
        if isinstance(axiom, TargetNodeAxiom):
            return s.app(self.shape(axiom.shape.name), self.const(axiom.constant))
        if isinstance(axiom, TargetClassAxiom):
            x = self.var()
            return s.forall([x], s.implies(s.app(self.rel(RDF_TYPE), x, self.const(axiom.cls)),
                                           s.app(self.shape(axiom.shape.name), x)))
        if isinstance(axiom, (TargetSubjectsAxiom, TargetObjectsAxiom)):
            x, y = self.var(), self.var()
            edge = (x, y) if isinstance(axiom, TargetSubjectsAxiom) else (y, x)
            return s.forall([x, y], s.implies(s.app(self.rel(axiom.rel), *edge),
                                              s.app(self.shape(axiom.shape.name), x)))
        if isinstance(axiom, ConstraintAxiom):
            x = self.var()
            return s.forall([x], s.iff(s.app(self.shape(axiom.shape.name), x),
                                       self.psi(axiom.body, x)))
        _check_cap(axiom.n)
        ys = [self.var() for _ in range(axiom.n + 1)]
        bodies = s.conj([self.psi(axiom.body, y) for y in ys])
        return s.forall(ys, s.implies(bodies, s.disj([s.eq(a, b) for a, b in
                                                      itertools.combinations(ys, 2)])))

    def document(self, phi: SclSentence, axiomatisation: Optional[SclSentence],
                 negated_target_disjunction: Optional[tuple]) -> str:
        sentence = phi.conjoin(axiomatisation) if axiomatisation is not None else phi
        formulas = [self.axiom(a) for a in sentence.axioms]
        if negated_target_disjunction is not None:
            formulas.append(self.s.disj([self.s.neg(self.axiom(a))
                                         for a in negated_target_disjunction]))
        consts = [self.const(c) for c in _constants(sentence, negated_target_disjunction)]
        return self.s.document(self.names, self.s.distinct(consts), formulas, self.uses_order)


def _check_cap(n: int) -> None:
    if n > _COUNT_CAP:
        raise DecisionError(f"counting bound {n} exceeds the emission cap {_COUNT_CAP}")


def emit_smtlib(phi: SclSentence, axiomatisation: Optional[SclSentence] = None,
                negated_target_disjunction: Optional[tuple] = None) -> str:
    """SMT-LIB 2 encoding over one uninterpreted sort, ready for check-sat.

    `negated_target_disjunction` adds the containment-refutation disjunct:
    at least one of the given target axioms must fail.
    """
    return _Emitter(_SmtLib()).document(phi, axiomatisation, negated_target_disjunction)


def emit_tptp(phi: SclSentence, axiomatisation: Optional[SclSentence] = None,
              negated_target_disjunction: Optional[tuple] = None) -> str:
    """TPTP FOF encoding of the sentence (and optional filter axiomatisation)."""
    return _Emitter(_Tptp()).document(phi, axiomatisation, negated_target_disjunction)


def emit(fmt: str, phi: SclSentence, axiomatisation: Optional[SclSentence] = None,
         negated_target_disjunction: Optional[tuple] = None) -> str:
    """The prover encoding in the named format, `smtlib2` or `tptp`."""
    emitters = {"smtlib2": emit_smtlib, "tptp": emit_tptp}
    if fmt not in emitters:
        raise DecisionError(f"unknown prover encoding {fmt!r}; expected smtlib2 or tptp")
    return emitters[fmt](phi, axiomatisation, negated_target_disjunction)
