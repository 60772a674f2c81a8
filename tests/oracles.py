"""Independent brute-force oracles the property suites compare against.

These deliberately avoid the library's search machinery: assignments are
enumerated exhaustively without propagation or stratification, and the
exclusive-or evaluator works directly on the constraint tree.  The reference
Turtle reader is the character-walking reader the library had before its
reader moved to compiled patterns.  The reference grounding shares the
library's grounder and solver but asserts every axiom at every domain
element, which the library's goal-directed grounding no longer does.  The
reference bounded axiomatisation counts every filter combination afresh with
`combo_cardinality`; the library counts each filter part once and derives
the bounds of its equality and Nu combinations from that count.  The
reference subset construction partitions every subset state's edge labels
afresh, duplicates included, and rescans all the state's edges for each
atom; the library partitions each set of distinct labels once.
"""
from __future__ import annotations

import itertools

from sclkit.rdf import (
    MAX_NESTING,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INTEGER,
    Blank,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    TurtleError,
    nodes_of,
    term_key,
)
from sclkit import shacl as sh
from sclkit.automata import Dfa, Nfa, _partition
from sclkit.decide import SatResult, _Cnf, _Grounder, _dpll
from sclkit.filters import (
    NU_NAME,
    AxiomatisationResult,
    FilterAxiomError,
    Huge,
    Infinite,
    PatternAtom,
    _bounded_combos,
    _combo_psi,
    _gather,
    combo_cardinality,
)
from sclkit.scl import (
    AtMostAxiom,
    ConstraintAxiom,
    PsiAnd,
    PsiCount,
    PsiEq,
    PsiExists,
    PsiNot,
    PsiOrder,
    SclSentence,
    ShapeRel,
    constants_of,
    psi_and_all,
    walk_psi,
)
from sclkit.semantics import (
    Assignment,
    EvalContext,
    SemanticsMode,
    target_holds,
)
from sclkit.translate import shape_bodies


def brute_force_faithful(g: Graph, m: sh.Document, total: bool, extra_nodes=()):
    """Every faithful assignment, by checking all sign combinations."""
    m = sh.eliminate_xone(m)
    bodies = shape_bodies(m, g)  # sh:closed and sh:uniqueLang over the graph's names too
    nodes = sorted(nodes_of(g, m) | frozenset(extra_nodes), key=term_key)
    shapes = sorted(m.names(), key=lambda i: i.value)
    pairs = [(n, s) for n in nodes for s in shapes]
    targeted = {
        (n, shape.name)
        for shape in m.shapes for t in shape.targets for n in nodes if target_holds(g, t, n)
    }
    values = (True, False) if total else (True, False, None)
    out = []
    ctx = EvalContext(g)  # its path cache is sign-independent
    for combo in itertools.product(values, repeat=len(pairs)):
        ctx.sign = {p: v for p, v in zip(pairs, combo) if v is not None}
        ok = True
        for (node, name), assigned in zip(pairs, combo):
            if ctx.eval(bodies[name], node) is not assigned:
                ok = False
                break
            if (node, name) in targeted and assigned is not True:
                ok = False
                break
        if ok:
            out.append(Assignment(nodes, shapes, dict(ctx.sign)))
    return out


def brute_force_validate(g: Graph, m: sh.Document, mode: SemanticsMode) -> bool:
    """Validity via exhaustive assignment enumeration, straight from the
    definitions table."""
    faithful = brute_force_faithful(g, m, mode.total)
    if mode.brave:
        return bool(faithful)
    if not faithful:
        return False
    base = brute_force_faithful(g, sh.strip_targets(m), mode.total,
                                extra_nodes=nodes_of(g, m))
    targeted_ok = []
    m2 = sh.eliminate_xone(m)
    for sigma in base:
        ok = True
        for shape in m2.shapes:
            for t in shape.targets:
                for node in sigma.nodes:
                    if target_holds(g, t, node) and sigma.sign(node, shape.name) is not True:
                        ok = False
        targeted_ok.append(ok)
    return all(targeted_ok)


def reference_nfa_to_dfa(nfa: Nfa) -> Dfa:
    """Subset construction without caps or shared partitions."""
    def closure(states) -> frozenset:
        out, stack = set(states), list(states)
        while stack:
            for t in nfa.eps[stack.pop()]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    labels = list(nfa.labels)
    start = closure({nfa.start})
    transitions, accepting, stack, seen = {}, set(), [start], {start}
    while stack:
        group = stack.pop()
        if nfa.accept in group:
            accepting.add(group)
        labelled = [(labels[i], dst) for s in group for i, dst in nfa.edges[s]]
        transitions[group] = []
        for atom in _partition([cs for cs, _ in labelled]):
            targets = {dst for cs, dst in labelled if not cs.intersect(atom).is_empty()}
            if targets:
                t = closure(targets)
                transitions[group].append((atom, t))
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
    return Dfa(start, transitions, accepting)


def full_ground_problem(sentence: SclSentence, domain: list, const_index: dict,
                        negated_target_disjunction=None):
    """Every axiom of the sentence asserted at every domain element."""
    cnf = _Cnf()
    gr = _Grounder(cnf, domain, const_index)
    for axiom in sentence.axioms:
        if isinstance(axiom, AtMostAxiom):
            cnf.assert_at_most(axiom.n, [gr.psi(axiom.body, i) for i in range(len(domain))])
        else:
            cnf.add(gr.axiom(axiom))
    if negated_target_disjunction is not None:
        cnf.add(*(-gr.axiom(a) for a in negated_target_disjunction))
    return cnf, gr


def reference_bounded_sat(sentence: SclSentence, budget, negated_target_disjunction=None,
                          deadline=None) -> SatResult:
    """`scl_bounded_sat` on the full grounding, without a deadline: "sat" if
    some domain of the constants plus at most `budget.max_fresh` elements has
    a model, else "unknown".  Its witness is left out."""
    refuted = SclSentence(tuple(negated_target_disjunction or ()))
    consts = sorted(constants_of(sentence.conjoin(refuted)), key=term_key)
    const_index = {c: i for i, c in enumerate(consts)}
    for extra in range(budget.max_fresh + 1):
        domain = consts + [Iri(f"urn:sclkit:model:e{i}") for i in range(extra)]
        cnf, _ = full_ground_problem(sentence, domain or [Iri("urn:sclkit:model:e0")],
                                     const_index, negated_target_disjunction)
        if _dpll(cnf.n_vars, cnf.clauses) is not None:
            return SatResult("sat")
    return SatResult("unknown", reason="no model within budget")


def reference_bounded_axiomatisation(phi) -> AxiomatisationResult:
    """`bounded_axiomatisation` with each combination's bound read from
    `combo_cardinality`, every combination counted on its own."""
    constants, atoms, taken = _gather(phi)
    for atom in atoms:
        if isinstance(atom, PatternAtom):
            raise FilterAxiomError("bounded axiomatisation excludes sh:pattern filters")
    for axiom in phi.axioms:
        if hasattr(axiom, "body"):
            for node in walk_psi(axiom.body):
                if isinstance(node, PsiOrder):
                    raise FilterAxiomError(
                        "bounded axiomatisation excludes property-pair order atoms"
                    )

    nu_name = NU_NAME if NU_NAME not in taken else sh.NameMint(taken, NU_NAME.value + ":").fresh()
    nu_rel = ShapeRel(nu_name)
    known = frozenset(constants)
    axioms = [ConstraintAxiom(nu_rel, psi_and_all([PsiNot(PsiEq(c)) for c in constants]))]
    approximate = False
    skipped = []
    for combo in sorted(_bounded_combos(constants, atoms), key=lambda c: c.describe()):
        bound = combo_cardinality(combo, known)
        if isinstance(bound, Infinite):
            continue
        if isinstance(bound, Huge):
            approximate = True
            skipped.append(combo)
            continue
        axioms.append(AtMostAxiom(bound.n, _combo_psi(combo, nu_rel)))
    return AxiomatisationResult(SclSentence(tuple(axioms)), approximate, tuple(skipped))


def reference_walk_psi(psi):
    """Preorder of a formula by plain recursion."""
    out = [psi]
    if isinstance(psi, PsiNot):
        out += reference_walk_psi(psi.inner)
    elif isinstance(psi, PsiAnd):
        out += reference_walk_psi(psi.left) + reference_walk_psi(psi.right)
    elif isinstance(psi, (PsiExists, PsiCount)):
        out += reference_walk_psi(psi.body)
    return out


def _xor_eval(c: sh.Constraint, node, g: Graph, sign) -> bool:
    """Two-valued evaluation of a node-level constraint tree with native
    exclusive-or, reading shape references from a total sign map."""
    if isinstance(c, sh.Top):
        return True
    if isinstance(c, sh.Ref):
        return sign[(node, c.name)]
    if isinstance(c, sh.Not):
        return not _xor_eval(c.inner, node, g, sign)
    if isinstance(c, sh.And):
        return all(_xor_eval(i, node, g, sign) for i in c.items)
    if isinstance(c, sh.Or):
        return any(_xor_eval(i, node, g, sign) for i in c.items)
    if isinstance(c, sh.Xone):
        return sum(1 for n in c.names if sign[(node, n)]) == 1
    if isinstance(c, sh.HasValue):
        return node == c.value
    if isinstance(c, sh.ClassConstraint):
        from sclkit.rdf import RDF_TYPE

        return g.has(node, RDF_TYPE, c.cls)
    raise NotImplementedError(type(c).__name__)


def native_xor_validate(g: Graph, m: sh.Document) -> bool:
    """Brave-total validity with sh:xone evaluated natively (no elimination)."""
    nodes = sorted(nodes_of(g, m), key=term_key)
    shapes = sorted(m.names(), key=lambda i: i.value)
    pairs = [(n, s) for n in nodes for s in shapes]
    targeted = {
        (n, shape.name)
        for shape in m.shapes for t in shape.targets for n in nodes if target_holds(g, t, n)
    }
    by_name = {s.name: s for s in m.shapes}
    for combo in itertools.product((True, False), repeat=len(pairs)):
        sign = dict(zip(pairs, combo))
        if any(not sign[p] for p in targeted):
            continue
        if all(sign[(n, name)] == _xor_eval(by_name[name].constraint, n, g, sign)
               for (n, name) in pairs):
            return True
    return False


# --- reference Turtle reader ------------------------------------------------
# The character-walking reader the library used before its reader moved to
# compiled patterns, kept verbatim as the differential reference.  It differs
# from the library on purpose in two ways only: a bad \u or \U escape escapes
# as a bare ValueError or yields a lone surrogate, and any str.isdigit()
# character starts or continues a number.

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f", '"': '"', "'": "'", "\\": "\\"}


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, msg: str) -> TurtleError:
        return TurtleError(msg, self.line, self.col)

    def _advance(self, n: int) -> str:
        s = self.text[self.pos : self.pos + n]
        for ch in s:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n
        return s

    def skip_ws(self) -> None:
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
            elif ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance(1)
            else:
                return

    def eof(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def take(self, s: str) -> None:
        if not self.startswith(s):
            raise self.error(f"expected {s!r}")
        self._advance(len(s))

    def take_while(self, pred) -> str:
        start = self.pos
        while self.pos < len(self.text) and pred(self.text[self.pos]):
            self._advance(1)
        return self.text[start : self.pos]

    def read_iriref(self) -> str:
        self.take("<")
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated IRI")
            ch = self._advance(1)
            if ch == ">":
                return "".join(out)
            if ch in " \n\t":
                raise self.error("whitespace in IRI")
            out.append(ch)

    def read_string(self) -> str:
        quote = self.text[self.pos]
        long = self.text.startswith(quote * 3, self.pos)
        self._advance(3 if long else 1)
        terminator = quote * 3 if long else quote
        out = []
        while True:
            if self.pos >= len(self.text):
                raise self.error("unterminated string literal")
            if self.text.startswith(terminator, self.pos):
                self._advance(len(terminator))
                return "".join(out)
            ch = self._advance(1)
            if ch == "\\":
                if self.pos >= len(self.text):
                    raise self.error("dangling escape")
                esc = self._advance(1)
                if esc in _ESCAPES:
                    out.append(_ESCAPES[esc])
                elif esc == "u":
                    out.append(chr(int(self._advance(4), 16)))
                elif esc == "U":
                    out.append(chr(int(self._advance(8), 16)))
                else:
                    raise self.error(f"unknown escape \\{esc}")
            elif not long and ch == "\n":
                raise self.error("newline in single-quoted string")
            else:
                out.append(ch)


def _is_pname_char(ch: str) -> bool:
    return ch.isalnum() or ch in "_-.%\u00b7" or ord(ch) > 0x7F


class _Parser:
    def __init__(self, text: str):
        self.lex = _Lexer(text)
        self.prefixes: dict[str, str] = {}
        self.base = ""
        self.triples: list[Triple] = []
        self._blank_counter = 0
        self._blank_map: dict[str, Blank] = {}
        self.depth = 0  # open brackets around the current position

    # Blank labels are skolemised per parse; source labels are not preserved.
    def fresh_blank(self) -> Blank:
        b = Blank(f"b{self._blank_counter}")
        self._blank_counter += 1
        return b

    def named_blank(self, label: str) -> Blank:
        if label not in self._blank_map:
            self._blank_map[label] = self.fresh_blank()
        return self._blank_map[label]

    def emit(self, s: Term, p: Term, o: Term) -> None:
        self.triples.append(Triple(s, p, o))

    def parse(self) -> Graph:
        while not self.lex.eof():
            if self.lex.startswith("@prefix") or self.lex.startswith("@base"):
                self.directive()
            else:
                self.triples_block()
        return Graph(self.triples)

    def directive(self) -> None:
        if self.lex.startswith("@prefix"):
            self.lex.take("@prefix")
            self.lex.skip_ws()
            name = self.lex.take_while(_is_pname_char)
            self.lex.take(":")
            self.lex.skip_ws()
            iri = self.lex.read_iriref()
            self.prefixes[name] = self.base + iri if self.base and not _is_absolute(iri) else iri
        else:
            self.lex.take("@base")
            self.lex.skip_ws()
            self.base = self.lex.read_iriref()
        self.lex.take(".")

    def triples_block(self) -> None:
        subject = self.node()
        self.predicate_object_list(subject)
        self.lex.take(".")

    def predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.verb()
            while True:
                obj = self.node()
                self.emit(subject, predicate, obj)
                if self.lex.peek() == ",":
                    self.lex.take(",")
                else:
                    break
            if self.lex.peek() == ";":
                self.lex.take(";")
                # permit trailing semicolon
                if self.lex.peek() in (".", "]", ""):
                    return
            else:
                return

    def verb(self) -> Term:
        if self.lex.peek() == "a" and not _is_pname_char(self.lex.text[self.lex.pos + 1 : self.lex.pos + 2] or " "):
            self.lex.take("a")
            return RDF_TYPE
        return self.node()

    def node(self) -> Term:
        ch = self.lex.peek()
        if not ch:
            raise self.lex.error("unexpected end of input")
        if ch == "<":
            iri = self.lex.read_iriref()
            if not _is_absolute(iri):
                iri = self.base + iri
            return Iri(iri)
        if ch == "_":
            self.lex.take("_:")
            label = self.lex.take_while(_is_pname_char)
            return self.named_blank(label)
        if ch in "[(":
            # one bound on bracket nesting keeps every recursive walker over
            # the parsed document inside Python's recursion limit
            if self.depth == MAX_NESTING:
                raise self.lex.error(f"brackets nested deeper than {MAX_NESTING}")
            self.depth += 1
            out = self.collection() if ch == "(" else self.blank_node()
            self.depth -= 1
            return out
        if ch in "\"'":
            return self.literal()
        if ch.isdigit() or ch in "+-":
            return self.number()
        # prefixed name, or the bare booleans
        name = self.lex.take_while(_is_pname_char)
        if self.lex.peek() == ":":
            self.lex.take(":")
            local = self.lex.take_while(_is_pname_char)
            if local.endswith("."):
                # a trailing dot belongs to the statement terminator
                self.lex.pos -= 1
                self.lex.col -= 1
                local = local[:-1]
            if name not in self.prefixes:
                raise self.lex.error(f"undefined prefix {name!r}")
            return Iri(self.prefixes[name] + local)
        if name == "true" or name == "false":
            return Literal(name, XSD_BOOLEAN)
        raise self.lex.error(f"unexpected token {name or ch!r}")

    def blank_node(self) -> Blank:
        self.lex.take("[")
        b = self.fresh_blank()
        if self.lex.peek() != "]":
            self.predicate_object_list(b)
        self.lex.take("]")
        return b

    def collection(self) -> Term:
        self.lex.take("(")
        items = []
        while self.lex.peek() != ")":
            if self.lex.eof():
                raise self.lex.error("unterminated collection")
            items.append(self.node())
        self.lex.take(")")
        return self.build_list(items)

    def build_list(self, items: list) -> Term:
        head: Term = RDF_NIL
        for item in reversed(items):
            node = self.fresh_blank()
            self.emit(node, RDF_FIRST, item)
            self.emit(node, RDF_REST, head)
            head = node
        return head

    def literal(self) -> Literal:
        lexical = self.lex.read_string()
        if self.lex.text.startswith("@", self.lex.pos):
            self.lex.take("@")
            tag = self.lex.take_while(lambda c: c.isalnum() or c == "-")
            if not tag:
                raise self.lex.error("malformed language tag")
            return Literal(lexical, language=tag)
        if self.lex.text.startswith("^^", self.lex.pos):
            self.lex.take("^^")
            dt = self.node()
            if not isinstance(dt, Iri):
                raise self.lex.error("datatype must be an IRI")
            return Literal(lexical, dt)
        return Literal(lexical)

    def number(self) -> Literal:
        text = self.lex.take_while(lambda c: c.isdigit() or c in "+-.")
        if text.endswith("."):
            # statement dot, not a decimal point
            self.lex.pos -= 1
            self.lex.col -= 1
            text = text[:-1]
        body = text.lstrip("+-")
        if body.count(".") == 1 and all(p.isdigit() for p in body.split(".")) and not body.endswith("."):
            return Literal(text, XSD_DECIMAL)
        if body.isdigit():
            return Literal(text, XSD_INTEGER)
        raise self.lex.error(f"malformed number {text!r}")


def _is_absolute(iri: str) -> bool:
    head = iri.split(":", 1)[0]
    return ":" in iri and head.isalnum() and head[:1].isalpha()


def reference_parse_turtle(text: str) -> Graph:
    return _Parser(text).parse()
