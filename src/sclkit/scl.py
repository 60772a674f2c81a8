"""The shapes constraint logic: sentence/formula ASTs, feature profiling,
well-formedness, and the satisfiability-preserving normaliser.

A sentence is a conjunction of target axioms and constraint axioms.  The
unary formulae (Psi) and path formulae (Pi) follow the grammar the shape
translation emits; disjunction and universal path quantification are the
usual negation shortcuts and are not separate nodes.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Union

from .rdf import Iri, Term, RDF_TYPE
from .shacl import NameMint, evaluation_order
from .value import value_class

if TYPE_CHECKING:
    from .filters import FilterAtom


@value_class
class ShapeRel:
    name: Iri


# --- path formulae -----------------------------------------------------------

@value_class
class RelAtom:
    name: Term
    inverted: bool = False


@value_class
class RelStep:
    rel: RelAtom


@value_class
class PiSeq:
    left: "Pi"
    right: "Pi"


@value_class
class PiZeroOrOne:
    inner: "Pi"


@value_class
class PiAlt:
    left: "Pi"
    right: "Pi"


@value_class
class PiStar:
    inner: "Pi"


Pi = Union[RelStep, PiSeq, PiZeroOrOne, PiAlt, PiStar]


# --- unary formulae ----------------------------------------------------------

@value_class
class PsiTop:
    pass


@value_class
class PsiNot:
    inner: "Psi"


@value_class
class PsiAnd:
    left: "Psi"
    right: "Psi"


@value_class
class PsiEq:
    constant: Term


@value_class
class PsiFilter:
    atom: FilterAtom


@value_class
class PsiShape:
    rel: ShapeRel


@value_class
class PsiExists:
    path: Pi
    body: "Psi"


@value_class
class PsiDisjoint:
    path: Pi
    rel: RelAtom


@value_class
class PsiEquals:
    path: Pi
    rel: RelAtom


@value_class
class PsiOrder:
    path: Pi
    rel: RelAtom
    op: str  # "<", "<=", ">", ">=" comparing path value against rel value


@value_class
class PsiCount:
    n: int
    path: Pi
    body: "Psi"

    def __init__(self, n: int, path: Pi, body: Psi):
        if n < 1:
            raise ValueError("counting quantifier needs n >= 1")
        super().__init__(n, path, body)


Psi = Union[PsiTop, PsiNot, PsiAnd, PsiEq, PsiFilter, PsiShape, PsiExists,
            PsiDisjoint, PsiEquals, PsiOrder, PsiCount]


def psi_or(left: Psi, right: Psi) -> Psi:
    return PsiNot(PsiAnd(PsiNot(left), PsiNot(right)))


def balanced(join, items: list):
    """The items of a non-empty list joined neighbour by neighbour, level by
    level, so n items nest ⌈log2 n⌉ deep and no walker of the result recurses
    far.  Up to three items give the left chain ((a ∘ b) ∘ c)."""
    while len(items) > 1:
        pairs = [join(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        items = pairs + items[2 * len(pairs):]
    return items[0]


def psi_and_all(items: list) -> Psi:
    return balanced(PsiAnd, items) if items else PsiTop()


def psi_or_all(items: list) -> Psi:
    return balanced(psi_or, items) if items else PsiNot(PsiTop())


def psi_forall(path: Pi, body: Psi) -> Psi:
    return PsiNot(PsiExists(path, PsiNot(body)))


# --- axioms and sentences ----------------------------------------------------

@value_class
class TargetNodeAxiom:
    shape: ShapeRel
    constant: Term


@value_class
class TargetClassAxiom:
    shape: ShapeRel
    cls: Term


@value_class
class TargetSubjectsAxiom:
    shape: ShapeRel
    rel: Iri


@value_class
class TargetObjectsAxiom:
    shape: ShapeRel
    rel: Iri


@value_class
class ConstraintAxiom:
    shape: ShapeRel
    body: Psi


@value_class
class AtMostAxiom:
    """Top-level counting conjunct of the bounded filter axiomatisation.

    Not part of the core sentence grammar; tolerated as a sentence-level
    conjunct so the bounded axiomatisation has a home.
    """

    n: int
    body: Psi


Axiom = Union[TargetNodeAxiom, TargetClassAxiom, TargetSubjectsAxiom,
              TargetObjectsAxiom, ConstraintAxiom, AtMostAxiom]

TargetAxiom = (TargetNodeAxiom, TargetClassAxiom, TargetSubjectsAxiom, TargetObjectsAxiom)


@value_class
class SclSentence:
    axioms: tuple = ()

    def __iter__(self) -> Iterator[Axiom]:
        return iter(self.axioms)

    def conjoin(self, other: "SclSentence") -> "SclSentence":
        return SclSentence(self.axioms + other.axioms)

    def constraint_axioms(self) -> list:
        return [a for a in self.axioms if isinstance(a, ConstraintAxiom)]

    def target_axioms(self) -> list:
        return [a for a in self.axioms if isinstance(a, TargetAxiom)]


def walk_psi(psi: Psi) -> Iterator[Psi]:
    """Every subformula in preorder, left before right; an explicit stack, so
    a long conjunction chain costs no generator depth."""
    stack = [psi]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, PsiNot):
            stack.append(node.inner)
        elif isinstance(node, PsiAnd):
            stack += (node.right, node.left)
        elif isinstance(node, (PsiExists, PsiCount)):
            stack.append(node.body)


def walk_pi(pi: Pi) -> Iterator[Pi]:
    yield pi
    if isinstance(pi, (PiSeq, PiAlt)):
        yield from walk_pi(pi.left)
        yield from walk_pi(pi.right)
    elif isinstance(pi, (PiZeroOrOne, PiStar)):
        yield from walk_pi(pi.inner)


def shape_rels_of(sentence: SclSentence) -> set[ShapeRel]:
    rels: set[ShapeRel] = set()
    for axiom in sentence.axioms:
        if not isinstance(axiom, AtMostAxiom):
            rels.add(axiom.shape)
        if not isinstance(axiom, TargetAxiom):
            rels |= {p.rel for p in walk_psi(axiom.body) if isinstance(p, PsiShape)}
    return rels


def relation_names(sentence: SclSentence) -> set[Term]:
    """Binary relation names occurring anywhere in the sentence."""
    names: set[Term] = set()
    for axiom in sentence.axioms:
        if isinstance(axiom, TargetClassAxiom):
            names.add(RDF_TYPE)
        elif isinstance(axiom, (TargetSubjectsAxiom, TargetObjectsAxiom)):
            names.add(axiom.rel)
        elif isinstance(axiom, (ConstraintAxiom, AtMostAxiom)):
            for node in walk_psi(axiom.body):
                if isinstance(node, (PsiDisjoint, PsiEquals, PsiOrder)):
                    names.add(node.rel.name)
                if isinstance(node, (PsiExists, PsiCount, PsiDisjoint, PsiEquals, PsiOrder)):
                    for step in walk_pi(node.path):
                        if isinstance(step, RelStep):
                            names.add(step.rel.name)
    return names


def constants_of(sentence: SclSentence) -> set[Term]:
    consts: set[Term] = set()
    for axiom in sentence.axioms:
        if isinstance(axiom, TargetNodeAxiom):
            consts.add(axiom.constant)
        elif isinstance(axiom, TargetClassAxiom):
            consts.add(axiom.cls)
        elif isinstance(axiom, (ConstraintAxiom, AtMostAxiom)):
            for node in walk_psi(axiom.body):
                if isinstance(node, PsiEq):
                    consts.add(node.constant)
    return consts


def filter_atoms_of(sentence: SclSentence) -> set[FilterAtom]:
    atoms: set[FilterAtom] = set()
    for axiom in sentence.axioms:
        if isinstance(axiom, (ConstraintAxiom, AtMostAxiom)):
            atoms |= {n.atom for n in walk_psi(axiom.body) if isinstance(n, PsiFilter)}
    return atoms


# --- feature profiling -------------------------------------------------------

FEATURES = ("S", "Z", "A", "T", "D", "O", "O'", "E", "C")


@value_class
class FeatureSet:
    flags: frozenset
    recursive: bool

    def __str__(self) -> str:
        letters = "".join(f for f in FEATURES if f in self.flags)
        return (letters or "base") + (" (recursive)" if self.recursive else "")


def _pi_flags(pi: Pi, flags: set) -> None:
    for node in walk_pi(pi):
        if isinstance(node, PiSeq):
            flags.add("S")
        elif isinstance(node, PiZeroOrOne):
            flags.add("Z")
        elif isinstance(node, PiAlt):
            flags.add("A")
        elif isinstance(node, PiStar):
            flags.add("T")


def features_of(sentence: SclSentence) -> FeatureSet:
    flags: set = set()
    for axiom in sentence.axioms:
        if not isinstance(axiom, (ConstraintAxiom, AtMostAxiom)):
            continue
        for node in walk_psi(axiom.body):
            if isinstance(node, PsiDisjoint):
                flags.add("D")
            elif isinstance(node, PsiEquals):
                flags.add("E")
            elif isinstance(node, PsiOrder):
                flags.add("O" if node.op in (">", ">=") else "O'")
            elif isinstance(node, PsiCount) and node.n >= 2:
                flags.add("C")
            if isinstance(node, (PsiExists, PsiCount, PsiDisjoint, PsiEquals, PsiOrder)):
                _pi_flags(node.path, flags)
        if isinstance(axiom, AtMostAxiom) and axiom.n >= 1:
            flags.add("C")
    return FeatureSet(frozenset(flags), recursive=is_recursive_sentence(sentence))


def is_recursive_sentence(sentence: SclSentence) -> bool:
    """Cycle in the shape-reference dependency graph of constraint axioms."""
    deps: dict[ShapeRel, set[ShapeRel]] = {}
    for axiom in sentence.constraint_axioms():
        deps.setdefault(axiom.shape, set()).update(
            n.rel for n in walk_psi(axiom.body) if isinstance(n, PsiShape)
        )
    return evaluation_order(deps) is None


def well_formed(sentence: SclSentence) -> bool:
    """Each shape relation has exactly one defining constraint axiom."""
    counts: dict[ShapeRel, int] = {}
    for axiom in sentence.constraint_axioms():
        counts[axiom.shape] = counts.get(axiom.shape, 0) + 1
    return all(counts.get(rel, 0) == 1 for rel in shape_rels_of(sentence))


# --- Theorem-4 normaliser ----------------------------------------------------

_ATOMIC = (PsiTop, PsiEq, PsiFilter, PsiShape)


class _Normalizer:
    def __init__(self, sentence: SclSentence):
        taken = {rel.name for rel in shape_rels_of(sentence)}
        self.mint = NameMint(taken)
        self.extra: list[ConstraintAxiom] = []
        self.memo: dict[Psi, Psi] = {}

    def atomize(self, body: Psi) -> Psi:
        """Replace a non-atomic quantifier body by a fresh defined shape atom."""
        if isinstance(body, _ATOMIC):
            return body
        if body in self.memo:
            return self.memo[body]
        rel = ShapeRel(self.mint.fresh())
        self.extra.append(ConstraintAxiom(rel, body))
        atom = PsiShape(rel)
        self.memo[body] = atom
        return atom

    def exists(self, path: Pi, body: Psi) -> Psi:
        """S/Z/A elimination inside a plain existential quantification."""
        if isinstance(path, RelStep):
            return PsiExists(path, body)
        if isinstance(path, PiStar):
            return PsiExists(path, body)  # no rewriting under transitive closure
        if isinstance(path, PiSeq):
            return self.exists(path.left, self.atomize(self.exists(path.right, body)))
        if isinstance(path, PiZeroOrOne):
            body = self.atomize(body)
            return psi_or(body, self.exists(path.inner, body))
        body = self.atomize(body)
        return psi_or(self.exists(path.left, body), self.exists(path.right, body))

    def hoist_alt(self, path: Pi) -> list:
        """Rewrite a path to a union of alternative-free paths (Star kept opaque)."""
        if isinstance(path, RelStep) or isinstance(path, PiStar):
            return [path]
        if isinstance(path, PiAlt):
            return self.hoist_alt(path.left) + self.hoist_alt(path.right)
        if isinstance(path, PiSeq):
            return [PiSeq(l, r) for l in self.hoist_alt(path.left) for r in self.hoist_alt(path.right)]
        return [PiZeroOrOne(p) for p in self.hoist_alt(path.inner)]

    def psi(self, node: Psi) -> Psi:
        if isinstance(node, _ATOMIC):
            return node
        if isinstance(node, PsiNot):
            return PsiNot(self.psi(node.inner))
        if isinstance(node, PsiAnd):
            return PsiAnd(self.psi(node.left), self.psi(node.right))
        if isinstance(node, PsiExists):
            return self.exists(node.path, self.atomize(self.psi(node.body)))
        if isinstance(node, PsiCount):
            if node.n == 1:  # a count of one is a plain existential
                return self.exists(node.path, self.atomize(self.psi(node.body)))
            # proper counting blocks the path rewrites; only the body flattens
            body = self.psi(node.body)
            if not isinstance(body, _ATOMIC):
                body = self.atomize(body)
            return PsiCount(node.n, node.path, body)
        if isinstance(node, PsiDisjoint):
            return psi_and_all([PsiDisjoint(p, node.rel) for p in self.hoist_alt(node.path)])
        if isinstance(node, PsiOrder):
            return psi_and_all([PsiOrder(p, node.rel, node.op) for p in self.hoist_alt(node.path)])
        return node  # PsiEquals: no licensed rewrite


def normalize(sentence: SclSentence) -> SclSentence:
    """Theorem-4 normal form: quantifier bodies flattened to defined shape
    atoms, Z and A eliminated from existential scopes, A hoisted out of
    disjointness/order atoms.  Equisatisfiable with the input on finite and
    infinite structures alike; nothing is rewritten under transitive closure
    or inside equality atoms."""
    nz = _Normalizer(sentence)
    out: list[Axiom] = []
    for axiom in sentence.axioms:
        if isinstance(axiom, ConstraintAxiom):
            out.append(ConstraintAxiom(axiom.shape, nz.psi(axiom.body)))
        elif isinstance(axiom, AtMostAxiom):
            out.append(AtMostAxiom(axiom.n, nz.psi(axiom.body)))
        else:
            out.append(axiom)
    return SclSentence(tuple(out) + tuple(nz.extra))


# --- pretty printer ----------------------------------------------------------

_VARS = ("x", "y", "z", "w", "v", "u")


def _var(depth: int) -> str:
    return _VARS[depth] if depth < len(_VARS) else f"x{depth}"


class PrettyPrinter:
    """Mathematical-notation rendering (UTF-8) for golden tests and the CLI."""

    def __init__(self, prefixes: Optional[dict] = None):
        self.prefixes = dict(prefixes or {})

    def iri(self, iri: Iri) -> str:
        for name, ns in sorted(self.prefixes.items(), key=lambda kv: -len(kv[1])):
            if iri.value.startswith(ns):
                return f"{name}:{iri.value[len(ns):]}"
        return f"<{iri.value}>"

    def term(self, t: Term) -> str:
        if isinstance(t, Iri):
            return self.iri(t)
        return repr(t)

    def rel(self, r: RelAtom) -> str:
        if r.name == RDF_TYPE:
            base = "isA"
        else:
            base = f"R{self.iri(r.name)}" if isinstance(r.name, Iri) else self.term(r.name)
        return base + ("⁻" if r.inverted else "")

    def shape(self, rel: ShapeRel) -> str:
        return f"Σ{self.iri(rel.name)}"

    def pi(self, pi: Pi, x: str, y: str, depth: int) -> str:
        if isinstance(pi, RelStep):
            return f"{self.rel(pi.rel)}({x}, {y})"
        if isinstance(pi, PiSeq):
            z = _var(depth)
            return f"∃{z}. {self.pi(pi.left, x, z, depth + 1)} ∧ {self.pi(pi.right, z, y, depth + 1)}"
        if isinstance(pi, PiZeroOrOne):
            return f"({x} = {y} ∨ {self.pi(pi.inner, x, y, depth)})"
        if isinstance(pi, PiAlt):
            return f"({self.pi(pi.left, x, y, depth)} ∨ {self.pi(pi.right, x, y, depth)})"
        return f"({self.pi(pi.inner, x, y, depth)})*"

    def psi(self, psi: Psi, x: str, depth: int) -> str:
        if isinstance(psi, PsiTop):
            return "⊤"
        if isinstance(psi, PsiNot):
            return f"¬{self.psi(psi.inner, x, depth)}"
        if isinstance(psi, PsiAnd):
            return f"({self.psi(psi.left, x, depth)} ∧ {self.psi(psi.right, x, depth)})"
        if isinstance(psi, PsiEq):
            return f"{x} = {self.term(psi.constant)}"
        if isinstance(psi, PsiFilter):
            return f"{psi.atom.describe()}({x})"
        if isinstance(psi, PsiShape):
            return f"{self.shape(psi.rel)}({x})"
        if isinstance(psi, PsiExists):
            y = _var(depth)
            return f"∃{y}. {self.pi(psi.path, x, y, depth + 1)} ∧ {self.psi(psi.body, y, depth + 1)}"
        if isinstance(psi, PsiDisjoint):
            y = _var(depth)
            return f"¬∃{y}. {self.pi(psi.path, x, y, depth + 1)} ∧ {self.rel(psi.rel)}({x}, {y})"
        if isinstance(psi, PsiEquals):
            y = _var(depth)
            return f"∀{y}. {self.pi(psi.path, x, y, depth + 1)} ↔ {self.rel(psi.rel)}({x}, {y})"
        if isinstance(psi, PsiOrder):
            y, z = _var(depth), _var(depth + 1)
            return (f"∀{y}, {z}. {self.pi(psi.path, x, y, depth + 2)} ∧ "
                    f"{self.rel(psi.rel)}({x}, {z}) → {y} {psi.op.replace('<=', '≤').replace('>=', '≥')} {z}")
        y = _var(depth)
        return f"∃≥{psi.n}{y}. {self.pi(psi.path, x, y, depth + 1)} ∧ {self.psi(psi.body, y, depth + 1)}"

    def axiom(self, axiom: Axiom) -> str:
        if isinstance(axiom, TargetNodeAxiom):
            return f"{self.shape(axiom.shape)}({self.term(axiom.constant)})"
        if isinstance(axiom, TargetClassAxiom):
            return f"∀x. isA(x, {self.term(axiom.cls)}) → {self.shape(axiom.shape)}(x)"
        if isinstance(axiom, TargetSubjectsAxiom):
            return f"∀x, y. {self.rel(RelAtom(axiom.rel))}(x, y) → {self.shape(axiom.shape)}(x)"
        if isinstance(axiom, TargetObjectsAxiom):
            return f"∀x, y. {self.rel(RelAtom(axiom.rel, inverted=True))}(x, y) → {self.shape(axiom.shape)}(x)"
        if isinstance(axiom, ConstraintAxiom):
            return f"∀x. {self.shape(axiom.shape)}(x) ↔ {self.psi(axiom.body, 'x', 1)}"
        return f"∃≤{axiom.n}x. {self.psi(axiom.body, 'x', 1)}"

    def sentence(self, sentence: SclSentence) -> str:
        if not sentence.axioms:
            return "⊤"
        return "\n∧ ".join(self.axiom(a) for a in sentence.axioms)


def pretty(sentence: SclSentence, prefixes: Optional[dict] = None) -> str:
    return PrettyPrinter(prefixes).sentence(sentence)
