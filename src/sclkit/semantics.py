"""Three-valued constraint evaluation, faithful assignments, the four
validation semantics, and the partial-to-total document transformation.

Validation takes the least strong-Kleene fixpoint, which is total for a
non-recursive document, and asks the CDCL solver of `sat` only about the
pairs that fixpoint leaves undefined.

Constraints are evaluated through their logic translation, the shape bodies
of `compile_document`: one strong-Kleene evaluator over one graph covers
every constraint kind.  Its values are those an assignment stores, True,
False and None for undefined; shape atoms are the only source of None.
"""
from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain, product
from typing import AbstractSet, Optional

from .rdf import Graph, Iri, RDF_TYPE, Term, nodes_of, term_key
from . import shacl as sh
from .filters import compare, eval_filter
from .sat import _Cnf, _dpll
from .scl import (
    AtMostAxiom,
    ConstraintAxiom,
    Pi,
    PiAlt,
    PiSeq,
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
    PsiShape,
    PsiTop,
    RelAtom,
    RelStep,
    TargetClassAxiom,
    TargetNodeAxiom,
    TargetObjectsAxiom,
    TargetSubjectsAxiom,
)
from .translate import _declared_property_relations, shape_bodies


class SemanticsMode(Enum):
    BRAVE_PARTIAL = "brave-partial"
    BRAVE_TOTAL = "brave-total"
    CAUTIOUS_PARTIAL = "cautious-partial"
    CAUTIOUS_TOTAL = "cautious-total"

    @property
    def brave(self) -> bool:
        return self in (SemanticsMode.BRAVE_PARTIAL, SemanticsMode.BRAVE_TOTAL)

    @property
    def total(self) -> bool:
        return self in (SemanticsMode.BRAVE_TOTAL, SemanticsMode.CAUTIOUS_TOTAL)


ALL_MODES = tuple(SemanticsMode)


class Assignment:
    """Signed shape literals per node over a fixed (nodes, shapes) scope."""

    __slots__ = ("nodes", "shapes", "signs", "_hash")

    def __init__(self, nodes, shapes, signs):
        self.nodes = tuple(sorted(set(nodes), key=term_key))
        self.shapes = tuple(sorted(set(shapes), key=lambda i: i.value))
        clean = {}
        node_set, shape_set = set(self.nodes), set(self.shapes)
        for (node, name), sign in dict(signs).items():
            if node not in node_set or name not in shape_set:
                raise ValueError(f"assignment entry ({node!r}, {name!r}) outside scope")
            clean[(node, name)] = bool(sign)
        self.signs = clean
        self._hash = None  # computed on the first hash()

    def sign(self, node: Term, name: Iri) -> Optional[bool]:
        return self.signs.get((node, name))

    def is_total(self) -> bool:
        return len(self.signs) == len(self.nodes) * len(self.shapes)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Assignment) and self.nodes == other.nodes
                and self.shapes == other.shapes and self.signs == other.signs)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nodes, self.shapes, frozenset(self.signs.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Assignment({len(self.signs)} signs over {len(self.nodes)}x{len(self.shapes)})"

    def to_json(self) -> dict:
        labels: dict = {node: [] for node in self.nodes}
        for (node, name), sign in self.signs.items():
            labels[node].append(("+" if sign else "-") + name.value)
        return {repr(node): sorted(ls) for node, ls in labels.items()}


class SemanticsError(ValueError):
    pass


@lru_cache(maxsize=128)
def compile_document(m: sh.Document):
    """The xone-free document, its shape bodies (in evaluation order if any) and that
    order (None if recursive); the cache finds the returned `document` by identity."""
    plain = sh.eliminate_xone(m)
    if plain is not m:
        return compile_document(plain)
    bodies = shape_bodies(m)
    order = sh.evaluation_order({s.name: sh.referenced_names(s.constraint) for s in m.shapes})
    return _Compiled(m, {name: bodies[name] for name in order} if order else bodies, order)


class _Compiled:
    __slots__ = ("document", "bodies", "order", "per_graph")

    def __init__(self, document: sh.Document, bodies: dict, order: Optional[list]):
        self.document = document
        self.bodies = bodies
        self.order = order
        # the shapes with sh:closed or sh:uniqueLang, which range over the graph's names
        self.per_graph = tuple(s for s in document.shapes
                               if any(isinstance(c, (sh.Closed, sh.UniqueLang)) for c in sh.walk(s.constraint)))

    def graph_bodies(self, g: Graph) -> dict:
        """The bodies, with the `per_graph` shapes translated again with the
        predicates and language tags of the graph at hand."""
        if not self.per_graph:
            return self.bodies
        return {**self.bodies, **shape_bodies(self.document, g, self.per_graph)}


def target_holds(g: Graph, t: sh.TargetDecl, node: Term) -> bool:
    if isinstance(t, sh.NodeTarget):
        return node == t.node
    if isinstance(t, sh.ClassTarget):
        return g.has(node, RDF_TYPE, t.cls)
    if isinstance(t, sh.SubjectsOfTarget):
        return bool(g.objects(node, t.rel))
    return bool(g.subjects(t.rel, node))


def _targeted_pairs(g: Graph, m: sh.Document, nodes) -> list:
    """The (node, shape) pairs the targets select among `nodes` (sorted by
    term_key), by shape, then target, then term order."""
    pairs = []
    for shape in m.shapes:
        for t in shape.targets:
            if isinstance(t, sh.NodeTarget):
                found = [t.node]
            elif isinstance(t, sh.ClassTarget):
                found = sorted(g.subjects(RDF_TYPE, t.cls), key=term_key)
            else:
                found = [node for node in nodes if target_holds(g, t, node)]
            pairs.extend((node, shape.name) for node in found)
    return pairs


class EvalContext:
    """Evaluator over one graph; path results are cached, shape atoms are
    read through a mutable sign lookup."""

    def __init__(self, g: Graph):
        self.g = g
        self.sign = {}  # (Term, Iri) -> bool, read by shape atoms
        self._paths: dict = {}

    def rel_values(self, node: Term, rel: RelAtom) -> AbstractSet[Term]:
        if rel.inverted:
            return self.g.subjects(rel.name, node)
        return self.g.objects(node, rel.name)

    def eval_path(self, pi: Pi, node: Term) -> AbstractSet[Term]:
        key = (id(pi), node)
        got = self._paths.get(key)
        if got is not None:
            return got
        if isinstance(pi, RelStep):
            out = self.rel_values(node, pi.rel)
        elif isinstance(pi, PiSeq):
            out = frozenset(
                y for mid in self.eval_path(pi.left, node) for y in self.eval_path(pi.right, mid)
            )
        elif isinstance(pi, PiZeroOrOne):
            out = self.eval_path(pi.inner, node) | {node}
        elif isinstance(pi, PiAlt):
            out = self.eval_path(pi.left, node) | self.eval_path(pi.right, node)
        else:  # reflexive-transitive closure
            seen = {node}
            frontier = [node]
            while frontier:
                cur = frontier.pop()
                for nxt in self.eval_path(pi.inner, cur):
                    if nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            out = frozenset(seen)
        self._paths[key] = out
        return out

    def eval(self, psi: Psi, node: Term) -> Optional[bool]:
        if isinstance(psi, PsiTop):
            return True
        if isinstance(psi, PsiNot):
            v = self.eval(psi.inner, node)
            return None if v is None else not v
        if isinstance(psi, PsiAnd):
            left = self.eval(psi.left, node)
            if left is False:
                return False
            right = self.eval(psi.right, node)
            return False if right is False else left and right
        if isinstance(psi, PsiEq):
            return node == psi.constant
        if isinstance(psi, PsiFilter):
            return eval_filter(psi.atom, node)
        if isinstance(psi, PsiShape):
            return self.sign.get((node, psi.rel.name))
        if isinstance(psi, PsiExists):
            best = False
            for y in self.eval_path(psi.path, node):
                v = self.eval(psi.body, y)
                if v:
                    return True
                if v is None:
                    best = None
            return best
        if isinstance(psi, PsiCount):
            true_n = undef_n = 0
            for y in self.eval_path(psi.path, node):
                v = self.eval(psi.body, y)
                if v:
                    true_n += 1
                elif v is None:
                    undef_n += 1
            if true_n >= psi.n:
                return True
            if true_n + undef_n < psi.n:
                return False
            return None
        if isinstance(psi, PsiDisjoint):
            return not (self.eval_path(psi.path, node) & self.rel_values(node, psi.rel))
        if isinstance(psi, PsiEquals):
            return self.eval_path(psi.path, node) == self.rel_values(node, psi.rel)
        # property-pair order: every (path value, relation value) pair must
        # compare within one partition; incomparable pairs fail the atom
        zs = self.rel_values(node, psi.rel)
        return all(compare(psi.op, y, z) for y in self.eval_path(psi.path, node) for z in zs)


def eval_path(pi: Pi, node: Term, g: Graph) -> frozenset:
    """The set of terms the path formula reaches from a node."""
    return frozenset(EvalContext(g).eval_path(pi, node))


def eval_psi(psi: Psi, node: Term, g: Graph, sigma: Assignment) -> Optional[bool]:
    """Strong-Kleene value of a formula at a node under an assignment: True,
    False, or None for undefined."""
    ctx = EvalContext(g)
    ctx.sign = dict(sigma.signs)
    return ctx.eval(psi, node)


def is_faithful(g: Graph, sigma: Assignment, m: sh.Document) -> bool:
    """Signs match the constraint evaluations everywhere, and every targeted
    node carries the positive literal of its shape."""
    compiled = compile_document(m)
    m = compiled.document
    if set(sigma.nodes) != set(nodes_of(g, m)) or set(sigma.shapes) != set(m.names()):
        raise SemanticsError("assignment scope does not match (nodes(G,M), shapes(M))")
    ctx = EvalContext(g)
    ctx.sign = dict(sigma.signs)
    return _faithful(ctx, compiled.graph_bodies(g), sigma.nodes, _targeted_pairs(g, m, sigma.nodes))


def _faithful(ctx: EvalContext, bodies: dict, nodes, targeted: list) -> bool:
    """`is_faithful` for the signs of `ctx`, the bodies and targeted pairs given."""
    if any(ctx.eval(body, node) != ctx.sign.get((node, name))
           for name, body in bodies.items() for node in nodes):
        return False
    return all(ctx.sign.get(pair) is True for pair in targeted)


def stratified_assignment(g: Graph, m: sh.Document) -> Assignment:
    """The unique total assignment faithful for the target-free document, its
    least fixpoint; rejects recursive input."""
    compiled = compile_document(m)
    if compiled.order is None:
        raise SemanticsError("stratified evaluation needs a non-recursive document")
    nodes = sorted(nodes_of(g, compiled.document), key=term_key)
    ctx = EvalContext(g)
    _least_fixpoint(ctx, compiled.graph_bodies(g), nodes, [])
    if len(ctx.sign) != len(nodes) * len(compiled.bodies):
        raise SemanticsError("undefined evaluation in a non-recursive document")
    return Assignment(nodes, compiled.document.names(), ctx.sign)


def _least_fixpoint(ctx: EvalContext, bodies: dict, nodes: list, targeted: list) -> bool:
    """Sweep undefined pairs into `ctx.sign` until none gets a sign: targeted
    pairs first, then shape by shape in the (evaluation) order of `bodies`, so
    a non-recursive document is total after one sweep.  False on a false target."""
    targets = dict.fromkeys(targeted)
    undefined = chain(targets, ((node, name) for name in bodies
                                for node in nodes if (node, name) not in targets))
    added = True
    while added:
        rest, added = [], False
        for pair in undefined:
            v = ctx.eval(bodies[pair[1]], pair[0])
            if v is None:
                rest.append(pair)
            elif not v and pair in targets:
                return False
            else:
                ctx.sign[pair] = v
                added = True
        undefined = rest
    return True


# --- validation as satisfiability --------------------------------------------------

def validation_witness(g: Graph, m: sh.Document, mode: SemanticsMode,
                       use_fast_path: bool = True) -> Optional[Assignment]:
    """A faithful assignment (targets included) when the graph is valid under
    the mode, else None.

    Validation first takes the least strong-Kleene fixpoint, which every
    faithful assignment extends; for a non-recursive document it is total,
    the unique faithful assignment.  A targeted pair it makes false answers
    None; when it is total, or in a partial mode makes every targeted pair
    true, it is the witness; and in cautious-partial mode a targeted pair it
    leaves undefined answers None.  Otherwise the pairs it leaves undefined
    go to the solver.  Without the fast path every pair goes to the solver.
    Every witness is re-checked for faithfulness before it is returned."""
    compiled = compile_document(m)
    m = compiled.document
    bodies = compiled.graph_bodies(g)
    ctx = EvalContext(g)
    nodes = sorted(nodes_of(g, m), key=term_key)
    shapes = sorted(m.names(), key=lambda i: i.value)
    targeted = _targeted_pairs(g, m, nodes)
    decided = False
    if use_fast_path:
        if not _least_fixpoint(ctx, bodies, nodes, targeted):
            return None
        targets_true = all(ctx.sign.get(p) for p in targeted)
        if not targets_true and mode is SemanticsMode.CAUTIOUS_PARTIAL:
            return None
        decided = len(ctx.sign) == len(nodes) * len(shapes) or (targets_true and not mode.total)
    if not decided:
        model = _solve(ctx, bodies, nodes, shapes, targeted, mode)
        if model is None:
            return None
        ctx.sign.update(model)
    if not _faithful(ctx, bodies, nodes, targeted):
        raise SemanticsError("validation witness is not a faithful assignment")
    return Assignment(nodes, shapes, ctx.sign)


def _solve(ctx: EvalContext, bodies: dict, nodes: list, shapes: list, targeted: list,
           mode: SemanticsMode) -> Optional[dict]:
    """Signs for the pairs `ctx.sign` leaves undefined that extend it to a
    faithful assignment valid under the mode, or None.  Each such pair gets
    an "is true" and an "is false" variable, its shape body is grounded over
    the fixed graph to a strong-Kleene pair of literals (constant where the
    defined signs decide it), and faithfulness ties the two.  Brave validity is
    one SAT call with the targeted pairs asserted true; cautious validity adds a
    refutation of "some targeted pair is not true" over the target-free
    assignments of the same (nodes(G, M), shapes(M)) scope."""
    undefined = [p for p in product(nodes, shapes) if p not in ctx.sign]
    cnf = _Cnf()
    var = {pair: (cnf.TRUE, cnf.FALSE) if v else (cnf.FALSE, cnf.TRUE)
           for pair, v in ctx.sign.items()}
    for pair in undefined:
        t, f = var[pair] = (cnf.new_var(), cnf.new_var())
        cnf.add(-t, -f)
        if mode.total:
            cnf.add(t, f)
    memo: dict = {}

    def ground(psi: Psi, node: Term) -> tuple:
        """The (is true, is false) literals of a formula at a node."""
        key = (id(psi), node)
        if key in memo:
            return memo[key]
        v = ctx.eval(psi, node)
        if v is not None:
            out = (cnf.TRUE, cnf.FALSE) if v else (cnf.FALSE, cnf.TRUE)
        elif isinstance(psi, PsiShape):
            out = var[(node, psi.rel.name)]
        elif isinstance(psi, PsiNot):
            out = ground(psi.inner, node)[::-1]
        elif isinstance(psi, PsiAnd):
            (lt, lf), (rt, rf) = ground(psi.left, node), ground(psi.right, node)
            out = (cnf.and_([lt, rt]), cnf.or_([lf, rf]))
        else:  # PsiExists or PsiCount over the path's successors
            succ = [ground(psi.body, y)
                    for y in sorted(ctx.eval_path(psi.path, node), key=term_key)]
            n = psi.n if isinstance(psi, PsiCount) else 1
            out = (cnf.at_least(n, [t for t, _ in succ]),
                   -cnf.at_least(n, [-f for _, f in succ]))
        memo[key] = out
        return out

    for node, name in undefined:
        for v, b in zip(var[(node, name)], ground(bodies[name], node)):
            cnf.add(-v, b)
            cnf.add(v, -b)
    model = _dpll(cnf.n_vars, cnf.clauses + [(var[p][0],) for p in targeted])
    if model is None:
        return None
    if not mode.brave:
        # no target-free faithful assignment may leave a targeted pair
        # non-true; the scope covers node-target constants the graph lacks
        some_not_true = tuple(-var[p][0] for p in targeted)
        if _dpll(cnf.n_vars, cnf.clauses + [some_not_true]) is not None:
            return None
    return {pair: bool(model[var[pair][0]]) for pair in undefined
            if model[var[pair][0]] or model[var[pair][1]]}


def validate(g: Graph, m: sh.Document, mode: SemanticsMode, use_fast_path: bool = True) -> bool:
    """Validity of the graph under one of the four extended semantics."""
    return validation_witness(g, m, mode, use_fast_path) is not None


def sentence_holds(phi, g: Graph, sigma: Assignment) -> bool:
    """Whether a sentence holds over the structure induced by a graph and a
    total assignment: quantifiers range over the structure's domain (the
    assignment's node scope), constants outside it denote nothing."""
    if not sigma.is_total():
        raise SemanticsError("sentence evaluation needs a total assignment")
    ctx = EvalContext(g)
    ctx.sign = dict(sigma.signs)
    known_shapes = set(sigma.shapes)

    def shape_sign(node: Term, name: Iri) -> bool:
        # relations the assignment does not cover hold nowhere
        return bool(ctx.sign.get((node, name)))

    def holds(v: Optional[bool]) -> bool:
        if v is None:
            raise SemanticsError("undefined truth value over a total structure")
        return v

    domain = sigma.nodes
    for axiom in phi.axioms:
        if isinstance(axiom, TargetNodeAxiom):
            if axiom.constant not in set(domain) or not shape_sign(axiom.constant, axiom.shape.name):
                return False
        elif isinstance(axiom, TargetClassAxiom):
            for n in domain:
                if g.has(n, RDF_TYPE, axiom.cls) and not shape_sign(n, axiom.shape.name):
                    return False
        elif isinstance(axiom, TargetSubjectsAxiom):
            for n in domain:
                if g.objects(n, axiom.rel) and not shape_sign(n, axiom.shape.name):
                    return False
        elif isinstance(axiom, TargetObjectsAxiom):
            for n in domain:
                if g.subjects(axiom.rel, n) and not shape_sign(n, axiom.shape.name):
                    return False
        elif isinstance(axiom, ConstraintAxiom):
            if axiom.shape.name not in known_shapes:
                raise SemanticsError(f"assignment does not cover {axiom.shape.name!r}")
            for n in domain:
                v = holds(ctx.eval(axiom.body, n))
                if v != shape_sign(n, axiom.shape.name):
                    return False
        elif isinstance(axiom, AtMostAxiom):
            count = sum(1 for n in domain if holds(ctx.eval(axiom.body, n)))
            if count > axiom.n:
                return False
    return True


# --- partial-to-total transformation ---------------------------------------------

GAMMA_POS_NS = "urn:sclkit:gamma:pos:"
GAMMA_NEG_NS = "urn:sclkit:gamma:neg:"
GAMMA_AUX_NS = "urn:sclkit:gamma:aux:"


def gamma_pos_name(name: Iri) -> Iri:
    return Iri(GAMMA_POS_NS + name.value)


def gamma_neg_name(name: Iri) -> Iri:
    return Iri(GAMMA_NEG_NS + name.value)


def _split_literal(name: Iri, value: bool) -> sh.Constraint:
    """"name is true" (value true) or "name is false" over the split names."""
    pos, neg = sh.Ref(gamma_pos_name(name)), sh.Ref(gamma_neg_name(name))
    return sh.And((pos, sh.Not(neg))) if value else sh.And((sh.Not(pos), neg))


# the connective the negative half of Γ takes in place of each one
_DUAL = {sh.And: sh.Or, sh.Or: sh.And, sh.AllValues: sh.SomeValues, sh.SomeValues: sh.AllValues}


class _GammaRewriter:
    def __init__(self):
        self.aux: dict = {}
        self.aux_shapes: list = []

    def _aux_for(self, c: sh.QualifiedValue, conform: bool) -> Iri:
        """A shape for qualified values that conform (true for `c.ref`, false
        for every sibling) or, with `conform` false, that do not violate."""
        key = (c.ref, c.siblings, conform)
        if key in self.aux:
            return self.aux[key]
        name = Iri(f"{GAMMA_AUX_NS}{len(self.aux)}")
        if conform:
            parts = [_split_literal(c.ref, True)] + [_split_literal(s, False) for s in c.siblings]
        else:
            parts = [sh.Not(_split_literal(c.ref, False))] + [
                sh.Not(_split_literal(s, True)) for s in c.siblings]
        constraint = parts[0] if len(parts) == 1 else sh.And(tuple(parts))
        self.aux[key] = name
        self.aux_shapes.append(sh.Shape(name, (), None, constraint))
        return name

    def _qualified(self, c: sh.QualifiedValue, positive: bool) -> sh.Constraint:
        parts = []
        if c.min_count is not None and c.min_count >= 1:
            # true: min values conform; false: fewer than min do not violate
            parts.append(sh.QualifiedValue(self._aux_for(c, True), c.min_count) if positive
                         else sh.Not(sh.QualifiedValue(self._aux_for(c, False), c.min_count)))
        if c.max_count is not None:
            # true: at most max do not violate; false: more than max conform
            parts.append(sh.QualifiedValue(self._aux_for(c, False), None, c.max_count) if positive
                         else sh.QualifiedValue(self._aux_for(c, True), c.max_count + 1))
        if not parts:
            return sh.Top() if positive else sh.Not(sh.Top())
        if len(parts) == 1:
            return parts[0]
        return sh.And(tuple(parts)) if positive else sh.Or(tuple(parts))

    def split(self, c: sh.Constraint, positive: bool) -> sh.Constraint:
        """"c is true" (positive) or "c is false" over the split names: a
        negation flips the polarity, and the false side takes each
        connective's dual."""
        if isinstance(c, sh.Ref):
            return _split_literal(c.name, positive)
        if isinstance(c, sh.Not):
            return self.split(c.inner, not positive)
        if isinstance(c, sh.QualifiedValue):
            return self._qualified(c, positive)
        if type(c) in _DUAL:
            kind = type(c) if positive else _DUAL[type(c)]
            if isinstance(c, (sh.And, sh.Or)):
                return kind(tuple(self.split(i, positive) for i in c.items))
            return kind(self.split(c.inner, positive))
        return c if positive else sh.Not(c)


def gamma_transform(m: sh.Document) -> sh.Document:
    """Split each shape into a positive and a negative half so that validity
    under partial semantics becomes validity under total semantics.  The
    negative half carries no targets: targets demand conformance, which the
    positive half models.  The split hides a closed shape's sh:property values
    inside conjunctions, so each sh:closed first lists their paths as ignored."""
    m = sh.eliminate_xone(m)
    rw = _GammaRewriter()
    shapes = []
    for shape in m.shapes:
        declared = _declared_property_relations(shape, m)
        c = sh.rebuild(shape.constraint, lambda x: sh.Closed(tuple(sorted(
            set(x.ignored) | declared, key=lambda i: i.value))) if isinstance(x, sh.Closed) else x)
        shapes.append(sh.Shape(gamma_pos_name(shape.name), shape.targets, shape.path, rw.split(c, True)))
        shapes.append(sh.Shape(gamma_neg_name(shape.name), (), shape.path, rw.split(c, False)))
    return sh.Document(tuple(shapes) + tuple(rw.aux_shapes))


def gamma_assignment(sigma: Assignment) -> Assignment:
    """The total assignment over the split shape names: conformance maps to
    (+pos, -neg), violation to (-pos, +neg), undefined to (-pos, -neg)."""
    shapes = []
    for name in sigma.shapes:
        shapes.extend((gamma_pos_name(name), gamma_neg_name(name)))
    signs = {}
    for node in sigma.nodes:
        for name in sigma.shapes:
            s = sigma.sign(node, name)
            signs[(node, gamma_pos_name(name))] = s is True
            signs[(node, gamma_neg_name(name))] = s is False
    return Assignment(sigma.nodes, shapes, signs)


def complete_gamma_assignment(sigma_gamma: Assignment, gm: sh.Document, g: Graph) -> Assignment:
    """Extend a split assignment over the auxiliary shapes of the transformed
    document; their constraints are two-valued given the split signs."""
    aux_names = [n for n in gm.names() if n.value.startswith(GAMMA_AUX_NS)]
    if not aux_names:
        return sigma_gamma
    compiled = compile_document(gm)
    ctx = EvalContext(g)
    ctx.sign = dict(sigma_gamma.signs)
    signs = dict(sigma_gamma.signs)
    for name in aux_names:
        for node in sigma_gamma.nodes:
            v = ctx.eval(compiled.bodies[name], node)
            if v is None:
                raise SemanticsError("auxiliary shape evaluation must be two-valued")
            signs[(node, name)] = v
    return Assignment(sigma_gamma.nodes, list(sigma_gamma.shapes) + aux_names, signs)
