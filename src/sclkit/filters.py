"""Canonical filter semantics, filter combinations, the exact-cardinality
function over the RDF-term domain, and the naive and bounded axiomatisations
that let uninterpreted models stand in for canonical ones.

The canonical domain: IRIs and blank nodes are unconstrained string-named
spaces; literals are (lexical form, datatype[, language tag]) with exact
value spaces for xsd:integer / xsd:int (the mathematical integers),
xsd:decimal (finite-fraction rationals), xsd:boolean, xsd:string, and
rdf:langString; every other datatype is uninterpreted.  Order comparisons
live inside the comparison-type partition (numeric, string, boolean);
comparisons across partitions are false.
"""
from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .automata import ALPHABET_SIZE, compile_pattern, length_window_dfa
from .rdf import (
    Iri,
    Blank,
    Literal,
    RDF_LANGSTRING,
    Term,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_INT,
    XSD_INTEGER,
    XSD_STRING,
    _xsd_number,
    term_key,
)
from .scl import (AtMostAxiom, ConstraintAxiom, PsiEq, PsiFilter, PsiNot, PsiOrder, PsiShape, PsiTop,
                  SclSentence, ShapeRel, constants_of, filter_atoms_of, psi_and_all, psi_or_all,
                  shape_rels_of, walk_psi)
from .shacl import NameMint
from .value import value_class

HUGE_THRESHOLD = 2 ** 20
WITNESS_LIMIT = 256
_ENUM_LIMIT = 4096

INTEGER_DATATYPES = (XSD_INTEGER, XSD_INT)


class FilterAxiomError(ValueError):
    pass


# --- filter atoms -------------------------------------------------------------

@value_class
class KindAtom:
    kind: str  # "IRI" | "Literal" | "BlankNode"

    def describe(self) -> str:
        return f"F_is{self.kind}"


@value_class
class DatatypeAtom:
    datatype: Iri

    def describe(self) -> str:
        return f"F_dt=<{self.datatype.value}>"


@value_class
class LanguageTagAtom:
    tag: str

    def describe(self) -> str:
        return f"F_lang={self.tag}"


@value_class
class MinLengthAtom:
    length: int

    def describe(self) -> str:
        return f"F_len≥{self.length}"


@value_class
class MaxLengthAtom:
    length: int

    def describe(self) -> str:
        return f"F_len≤{self.length}"


@value_class
class PatternAtom:
    regex: str

    def describe(self) -> str:
        return f"F_re({self.regex})"


@value_class
class OrderCmp:
    op: str  # "<" | "<=" | ">" | ">="
    limit: Literal

    def describe(self) -> str:
        return f"F{self.op}{self.limit.lexical}"


FilterAtom = Union[KindAtom, DatatypeAtom, LanguageTagAtom, MinLengthAtom,
                   MaxLengthAtom, PatternAtom, OrderCmp]


def string_repr(t: Term) -> Optional[str]:
    """The string a length/pattern filter inspects; none for blank nodes."""
    if isinstance(t, Iri):
        return t.value
    if isinstance(t, Literal):
        return t.lexical
    return None


def comparison_value(t: Term):
    """(partition, value) of a term under the order partition, or None."""
    if not isinstance(t, Literal):
        return None
    integer = t.datatype in INTEGER_DATATYPES
    if integer or t.datatype == XSD_DECIMAL:
        value = _xsd_number(t.lexical, integer)
        return None if value is None else ("num", Fraction(value))
    if t.datatype == XSD_BOOLEAN:
        if t.lexical in ("true", "1"):
            return ("bool", 1)
        if t.lexical in ("false", "0"):
            return ("bool", 0)
        return None
    if t.datatype == XSD_STRING:
        return ("str", t.lexical)
    return None


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def compare(op: str, a: Term, b: Term) -> bool:
    """`a op b` under the term order: false unless both terms lie in one
    comparison partition."""
    av, bv = comparison_value(a), comparison_value(b)
    return av is not None and bv is not None and av[0] == bv[0] and _OPS[op](av[1], bv[1])


def eval_filter(atom: FilterAtom, t: Term) -> bool:
    """Canonical truth value of a monadic filter on a term."""
    if isinstance(atom, KindAtom):
        return {"IRI": Iri, "Literal": Literal, "BlankNode": Blank}[atom.kind] is type(t)
    if isinstance(atom, DatatypeAtom):
        return isinstance(t, Literal) and t.datatype == atom.datatype
    if isinstance(atom, LanguageTagAtom):
        return isinstance(t, Literal) and t.language == atom.tag.lower()
    if isinstance(atom, MinLengthAtom):
        s = string_repr(t)
        return s is not None and len(s) >= atom.length
    if isinstance(atom, MaxLengthAtom):
        s = string_repr(t)
        return s is not None and len(s) <= atom.length
    if isinstance(atom, PatternAtom):
        s = string_repr(t)
        return s is not None and re.search(atom.regex, s) is not None
    return compare(atom.op, t, atom.limit)


# --- filter combinations --------------------------------------------------------

@value_class
class Eq:
    constant: Term


@value_class
class NotEq:
    constant: Term


@value_class
class Nu:
    """The "none of the known constants" shape atom."""


@value_class
class Pos:
    atom: FilterAtom


@value_class
class Neg:
    atom: FilterAtom


Conjunct = Union[Eq, NotEq, Nu, Pos, Neg]


def _atom_type(atom: FilterAtom) -> str:
    if isinstance(atom, KindAtom):
        return "nodekind"
    if isinstance(atom, DatatypeAtom):
        return "datatype"
    if isinstance(atom, LanguageTagAtom):
        return "language"
    if isinstance(atom, (MinLengthAtom, MaxLengthAtom)):
        return "length"
    if isinstance(atom, PatternAtom):
        return "pattern"
    return "order"


def conjunct_type(c: Conjunct) -> str:
    if isinstance(c, (Eq, NotEq, Nu)):
        return "equality"
    return _atom_type(c.atom)


# per-type maximum non-redundant capacity; pattern has none
MNRC_CAPS = {"datatype": 2, "language": 2, "order": 2, "length": 2, "nodekind": 3, "equality": 1}


def _describe_conjunct(c: Conjunct) -> str:
    if isinstance(c, Eq):
        return f"x={c.constant!r}"
    if isinstance(c, NotEq):
        return f"x≠{c.constant!r}"
    if isinstance(c, Nu):
        return "ν(x)"
    if isinstance(c, Pos):
        return f"{c.atom.describe()}(x)"
    return f"¬{c.atom.describe()}(x)"


def _conjunct_key(c: Conjunct) -> tuple:
    if isinstance(c, Eq):
        return (0, term_key(c.constant))
    if isinstance(c, NotEq):
        return (1, term_key(c.constant))
    if isinstance(c, Nu):
        return (2, ())
    sign = 3 if isinstance(c, Pos) else 4
    return (sign, (c.atom.describe(),))


@value_class
class FilterCombination:
    conjuncts: tuple

    @staticmethod
    def of(conjuncts: Iterable[Conjunct]) -> "FilterCombination":
        return FilterCombination(tuple(sorted(set(conjuncts), key=_conjunct_key)))

    def without(self, c: Conjunct) -> "FilterCombination":
        return FilterCombination(tuple(x for x in self.conjuncts if x != c))

    def type_counts(self) -> dict:
        counts: dict = {}
        for c in self.conjuncts:
            t = conjunct_type(c)
            counts[t] = counts.get(t, 0) + 1
        return counts

    def describe(self) -> str:
        return " ∧ ".join(_describe_conjunct(c) for c in self.conjuncts) or "⊤"


# --- cardinality bounds ----------------------------------------------------------

@value_class
class Finite:
    n: int


@value_class
class Infinite:
    pass


@value_class
class Huge:
    """Finite, but above the counting threshold."""


CardinalityBound = Union[Finite, Infinite, Huge]


def bound_le(a: CardinalityBound, b: CardinalityBound) -> bool:
    rank = {Finite: 0, Huge: 1, Infinite: 2}
    if isinstance(a, Finite) and isinstance(b, Finite):
        return a.n <= b.n
    return rank[type(a)] <= rank[type(b)]


class _IntegerForms:
    """The canonical literals of one integer datatype over disjoint value
    ranges, built only when listed."""

    __slots__ = ("dt", "ranges")

    def __init__(self, dt: Iri, ranges: list):
        self.dt = dt
        self.ranges = ranges  # [(low, high)], both included

    def __iter__(self) -> Iterator[Literal]:
        for a, b in self.ranges:
            for v in range(a, b + 1):
                yield Literal(str(v), self.dt)

    def __contains__(self, t) -> bool:
        if not isinstance(t, Literal) or t.datatype != self.dt:
            return False
        v = _xsd_number(t.lexical, True)
        return v is not None and str(v) == t.lexical and any(a <= v <= b for a, b in self.ranges)


class _Count:
    """Exact count plus (optionally) the witness terms, with saturation.

    The witnesses are kept in parts, each a list of terms or an
    `_IntegerForms`, so a count read only for its size builds none of them.
    """

    __slots__ = ("kind", "n", "parts")

    def __init__(self, kind: str, n: int = 0, parts=None):
        self.kind = kind  # "finite" | "infinite"
        self.n = n
        self.parts = parts  # None when not enumerable

    @property
    def witnesses(self) -> Optional[list]:
        if self.parts is None:
            return None
        return [t for part in self.parts for t in part]

    def members(self, terms: set) -> list:
        """The given terms that are witnesses."""
        found = []
        for part in self.parts:
            if isinstance(part, _IntegerForms):
                found += [t for t in terms if t in part]
            elif terms:
                found += [t for t in part if t in terms]
        return found

    @staticmethod
    def zero() -> "_Count":
        return _Count("finite", 0, [])

    @staticmethod
    def infinite() -> "_Count":
        return _Count("infinite")

    @staticmethod
    def exactly(witnesses: list) -> "_Count":
        return _Count("finite", len(witnesses), [list(witnesses)])

    @staticmethod
    def counted(n: int) -> "_Count":
        return _Count("finite", n, None)

    def add(self, other: "_Count") -> "_Count":
        if self.kind == "infinite" or other.kind == "infinite":
            return _Count.infinite()
        parts = None
        if self.parts is not None and other.parts is not None and self.n + other.n <= _ENUM_LIMIT:
            parts = self.parts + other.parts
        return _Count("finite", self.n + other.n, parts)


def _decimal_canonical(v: Fraction) -> Optional[str]:
    """Minimal decimal string of a fraction, None when not a finite decimal."""
    den = v.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return None
    digits = max(twos, fives)
    scaled = abs(int(v * 10 ** digits))
    s = str(scaled).rjust(digits + 1, "0")
    sign = "-" if v < 0 else ""
    if digits == 0:
        return sign + s
    head, tail = s[:-digits], s[-digits:]
    tail = tail.rstrip("0")
    return sign + head + ("." + tail if tail else "")


_INT_CANONICAL = "^(0|-?[1-9][0-9]*)\\Z"
_DEC_CANONICAL = "^(0|-?[1-9][0-9]*)(\\.[0-9]*[1-9])?\\Z"


class _Atoms:
    """Structured view of the positive/negative filter atoms of a combination."""

    __slots__ = ("pos_kinds", "neg_kinds", "pos_dts", "neg_dts", "pos_tags", "neg_tags", "min_len",
                 "max_len", "orders", "pos_patterns", "neg_patterns", "all_conjuncts")

    def __init__(self, pos: list, neg: list):
        self.pos_kinds: list = []
        self.neg_kinds: list = []
        self.pos_dts: list = []
        self.neg_dts: list = []
        self.pos_tags: list = []
        self.neg_tags: list = []
        self.min_len = 0
        self.max_len: Optional[int] = None
        self.orders: list = []  # (op, limit, positive)
        self.pos_patterns: list = []
        self.neg_patterns: list = []
        self.all_conjuncts = [Pos(x) for x in pos] + [Neg(x) for x in neg]
        for atom in pos:
            if isinstance(atom, KindAtom):
                self.pos_kinds.append(atom.kind)
            elif isinstance(atom, DatatypeAtom):
                self.pos_dts.append(atom.datatype)
            elif isinstance(atom, LanguageTagAtom):
                self.pos_tags.append(atom.tag.lower())
            elif isinstance(atom, MinLengthAtom):
                self.min_len = max(self.min_len, atom.length)
            elif isinstance(atom, MaxLengthAtom):
                self.max_len = atom.length if self.max_len is None else min(self.max_len, atom.length)
            elif isinstance(atom, PatternAtom):
                self.pos_patterns.append(atom.regex)
            else:
                self.orders.append((atom.op, atom.limit, True))
        for atom in neg:
            if isinstance(atom, KindAtom):
                self.neg_kinds.append(atom.kind)
            elif isinstance(atom, DatatypeAtom):
                self.neg_dts.append(atom.datatype)
            elif isinstance(atom, LanguageTagAtom):
                self.neg_tags.append(atom.tag.lower())
            elif isinstance(atom, MinLengthAtom):
                # not(length >= n): length <= n - 1
                self.max_len = atom.length - 1 if self.max_len is None else min(self.max_len, atom.length - 1)
            elif isinstance(atom, MaxLengthAtom):
                self.min_len = max(self.min_len, atom.length + 1)
            elif isinstance(atom, PatternAtom):
                self.neg_patterns.append(atom.regex)
            else:
                self.orders.append((atom.op, atom.limit, False))

    def kind_allows(self, kind: str) -> bool:
        if any(k != kind for k in self.pos_kinds):
            return False
        return kind not in self.neg_kinds

    def has_patterns(self) -> bool:
        return bool(self.pos_patterns or self.neg_patterns)

    def has_positive_order(self) -> bool:
        return any(positive for _, _, positive in self.orders)


def _satisfies(term: Term, conjuncts: list) -> bool:
    for c in conjuncts:
        if isinstance(c, Pos):
            if not eval_filter(c.atom, term):
                return False
        elif isinstance(c, Neg):
            if eval_filter(c.atom, term):
                return False
    return True


def _candidates(terms: Iterable[Term], conjuncts: list) -> _Count:
    return _Count.exactly([t for t in terms if _satisfies(t, conjuncts)])


def _count_forms(atoms: _Atoms) -> _Count:
    """Strings satisfying the length window and the pattern atoms."""
    min_len, max_len = atoms.min_len, atoms.max_len
    if max_len is not None and max_len < min_len:
        return _Count.zero()
    if atoms.has_patterns():
        return _dfa_forms(length_window_dfa(min_len, max_len), atoms)
    if max_len is None:
        return _Count.infinite()
    total = sum(ALPHABET_SIZE ** l for l in range(min_len, max_len + 1))
    if total <= 1:
        return _Count.exactly([""] * total)
    return _Count.counted(total)


def _pattern_value_forms(atoms: _Atoms, canonical: str) -> _Count:
    """Canonical value strings compatible with patterns and length window."""
    window = length_window_dfa(atoms.min_len, atoms.max_len)
    return _dfa_forms(compile_pattern(canonical).intersect(window), atoms)


def _dfa_forms(dfa, atoms: _Atoms) -> _Count:
    """Words of the automaton that also satisfy the pattern atoms."""
    for p in atoms.pos_patterns:
        dfa = dfa.intersect(compile_pattern(p))
    for p in atoms.neg_patterns:
        dfa = dfa.intersect(compile_pattern(p).complement())
    if dfa.is_empty():
        return _Count.zero()
    n = dfa.count_words(HUGE_THRESHOLD)
    if n is None:
        return _Count.counted(HUGE_THRESHOLD + 1) if dfa.is_finite() else _Count.infinite()
    if n <= _ENUM_LIMIT:
        return _Count.exactly(dfa.enumerate_words(n))
    return _Count.counted(n)


class _Interval:
    """A one-dimensional interval with open/closed ends over a total order."""

    def __init__(self):
        self.lo = None
        self.lo_strict = False
        self.hi = None
        self.hi_strict = False
        self.empty = False

    def add(self, op: str, value, positive: bool) -> None:
        # a negated comparison flips into the complementary bound
        if not positive:
            op = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}[op]
        if op in (">", ">="):
            strict = op == ">"
            if self.lo is None or value > self.lo or (value == self.lo and strict and not self.lo_strict):
                self.lo, self.lo_strict = value, strict
        else:
            strict = op == "<"
            if self.hi is None or value < self.hi or (value == self.hi and strict and not self.hi_strict):
                self.hi, self.hi_strict = value, strict

    def finish(self) -> "_Interval":
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi or (self.lo == self.hi and (self.lo_strict or self.hi_strict)):
                self.empty = True
        return self

    def is_unconstrained(self) -> bool:
        return self.lo is None and self.hi is None

    def contains(self, v) -> bool:
        if self.lo is not None and (v < self.lo or (v == self.lo and self.lo_strict)):
            return False
        if self.hi is not None and (v > self.hi or (v == self.hi and self.hi_strict)):
            return False
        return True


def _order_interval(atoms: _Atoms, partition: str) -> Optional[_Interval]:
    """Interval over one partition; None when a positive atom cannot hold."""
    iv = _Interval()
    for op, limit, positive in atoms.orders:
        lv = comparison_value(limit)
        if lv is None or lv[0] != partition:
            if positive:
                return None  # cross-partition positive comparison never holds
            continue  # negation of a false comparison constrains nothing
        iv.add(op, lv[1], positive)
    return iv.finish()


def _int_lower(iv: _Interval) -> Optional[int]:
    if iv.lo is None:
        return None
    if iv.lo.denominator == 1:
        return int(iv.lo) + (1 if iv.lo_strict else 0)
    return math.floor(iv.lo) + 1


def _int_upper(iv: _Interval) -> Optional[int]:
    if iv.hi is None:
        return None
    if iv.hi.denominator == 1:
        return int(iv.hi) - (1 if iv.hi_strict else 0)
    return math.floor(iv.hi)


# --- per-branch counting ---------------------------------------------------------

def _blank_branch(atoms: _Atoms) -> _Count:
    """All blank nodes behave identically under every filter."""
    if atoms.kind_allows("BlankNode") and _satisfies(Blank("probe"), atoms.all_conjuncts):
        return _Count.infinite()
    return _Count.zero()


def _iri_branch(atoms: _Atoms) -> _Count:
    if not atoms.kind_allows("IRI"):
        return _Count.zero()
    if atoms.pos_dts or atoms.pos_tags or atoms.has_positive_order():
        return _Count.zero()
    count = _count_forms(atoms)
    if count.parts is not None:
        return _Count.exactly([Iri(w) for w in count.witnesses])
    return count


def _digit_length_count(atoms: _Atoms, lo: Optional[int], hi: Optional[int], dt: Iri) -> _Count:
    """Integers within the interval whose canonical form fits the length
    window, counted per digit length in closed form."""
    max_len = atoms.max_len
    kept = []
    for length in range(max(1, atoms.min_len), (max_len or 0) + 1):
        ranges = [(0, 9)] if length == 1 else [(10 ** (length - 1), 10 ** length - 1)]
        neg_digits = length - 1  # a sign character occupies one slot
        if neg_digits == 1:
            ranges.append((-9, -1))
        elif neg_digits > 1:
            ranges.append((-(10 ** neg_digits - 1), -(10 ** (neg_digits - 1))))
        for a, b in ranges:
            if lo is not None:
                a = max(a, lo)
            if hi is not None:
                b = min(b, hi)
            if b >= a:
                kept.append((a, b))
    total = sum(b - a + 1 for a, b in kept)
    if total <= _ENUM_LIMIT:
        return _Count("finite", total, [_IntegerForms(dt, kept)])
    return _Count.counted(total)


def _integer_branch(atoms: _Atoms, dt: Iri) -> _Count:
    iv = _order_interval(atoms, "num")
    if iv is None or iv.empty:
        return _Count.zero()
    lo, hi = _int_lower(iv), _int_upper(iv)

    def lit(v: int) -> Literal:
        return Literal(str(v), dt)

    if lo is not None and hi is not None:
        if hi < lo:
            return _Count.zero()
        width = hi - lo + 1
        if width <= _ENUM_LIMIT:
            return _candidates((lit(v) for v in range(lo, hi + 1)), atoms.all_conjuncts)
        if atoms.has_patterns():
            forms = _pattern_value_forms(atoms, _INT_CANONICAL)
            if forms.parts is not None:
                return _candidates((lit(int(w)) for w in forms.witnesses
                                    if lo <= int(w) <= hi), atoms.all_conjuncts)
            return _Count.counted(HUGE_THRESHOLD + 1)  # finite via the interval
        if atoms.max_len is not None or atoms.min_len > 0:
            return _digit_length_count(atoms, lo, hi, dt)
        return _Count.counted(width)

    # at least one open side
    if atoms.has_patterns():
        forms = _pattern_value_forms(atoms, _INT_CANONICAL)
        if forms.parts is not None:
            kept = (lit(int(w)) for w in forms.witnesses
                    if (lo is None or int(w) >= lo) and (hi is None or int(w) <= hi))
            return _candidates(kept, atoms.all_conjuncts)
        if forms.kind == "infinite":
            return _Count.infinite()
        # finitely many matching values, interval membership unresolved
        return forms if iv.is_unconstrained() else _Count.counted(HUGE_THRESHOLD + 1)
    if atoms.max_len is not None:
        return _digit_length_count(atoms, lo, hi, dt)
    return _Count.infinite()


def _decimal_branch(atoms: _Atoms) -> _Count:
    iv = _order_interval(atoms, "num")
    if iv is None or iv.empty:
        return _Count.zero()
    if iv.lo is not None and iv.lo == iv.hi:
        form = _decimal_canonical(iv.lo)
        if form is None:
            return _Count.zero()
        return _candidates([Literal(form, XSD_DECIMAL)], atoms.all_conjuncts)
    if atoms.has_patterns():
        forms = _pattern_value_forms(atoms, _DEC_CANONICAL)
        if forms.parts is not None:
            kept = (Literal(w, XSD_DECIMAL) for w in forms.witnesses if iv.contains(Fraction(w)))
            return _candidates(kept, atoms.all_conjuncts)
        if forms.kind == "finite":
            return _Count.counted(HUGE_THRESHOLD + 1)
        # infinitely many matching forms; a non-degenerate interval keeps
        # infinitely many of them only in general position (over-approximated)
        return _Count.infinite()
    if atoms.max_len is not None:
        return _Count.counted(HUGE_THRESHOLD + 1)  # finitely many short forms
    return _Count.infinite()


def _boolean_branch(atoms: _Atoms) -> _Count:
    return _candidates(
        [Literal("false", XSD_BOOLEAN), Literal("true", XSD_BOOLEAN)], atoms.all_conjuncts
    )


def _string_interval_candidates(iv: _Interval) -> Optional[list]:
    """Finite member list of a string interval, or None when infinite."""
    if iv.empty:
        return []
    if iv.lo is not None and iv.hi is not None:
        if iv.lo == iv.hi:
            return [] if (iv.lo_strict or iv.hi_strict) else [iv.lo]
        # (w, w + "\x00"*k) contains exactly the null-padded extensions of w
        if iv.hi.startswith(iv.lo) and set(iv.hi[len(iv.lo):]) == {"\x00"}:
            pad = len(iv.hi) - len(iv.lo)
            out = [iv.lo + "\x00" * i for i in range(0, pad + 1)]
            if iv.lo_strict:
                out = out[1:]
            if iv.hi_strict:
                out = out[:-1]
            return out
    return None


def _string_branch(atoms: _Atoms) -> _Count:
    iv = _order_interval(atoms, "str")
    if iv is None or iv.empty:
        return _Count.zero()
    members = _string_interval_candidates(iv)
    if members is not None:
        return _candidates((Literal(w, XSD_STRING) for w in members), atoms.all_conjuncts)
    count = _count_forms(atoms)
    if count.kind == "infinite":
        # a non-degenerate string interval always keeps infinitely many
        # unconstrained forms (extend below the upper bound)
        return _Count.infinite()
    if count.parts is not None:
        return _Count.exactly([Literal(w, XSD_STRING) for w in count.witnesses if iv.contains(w)])
    if iv.is_unconstrained():
        return count
    return _Count.counted(HUGE_THRESHOLD + 1)  # finite via the length bound


def _langstring_branch(atoms: _Atoms, tag: Optional[str]) -> _Count:
    if atoms.has_positive_order():
        return _Count.zero()
    if tag is None:
        # tags range over an infinite space; negated tags remove finitely many
        count = _count_forms(atoms)
        if count.kind == "finite" and count.n == 0:
            return _Count.zero()
        return _Count.infinite()
    if tag in atoms.neg_tags:
        return _Count.zero()
    count = _count_forms(atoms)
    if count.parts is not None:
        return _Count.exactly([Literal(w, language=tag) for w in count.witnesses])
    return count


def _plain_datatype_branch(atoms: _Atoms, dt: Iri) -> _Count:
    """A datatype with an uninterpreted value space: any lexical form."""
    if atoms.has_positive_order() or atoms.pos_tags:
        return _Count.zero()
    count = _count_forms(atoms)
    if count.parts is not None:
        return _Count.exactly([Literal(w, dt) for w in count.witnesses])
    return count


def _fresh_datatype_branch(atoms: _Atoms) -> _Count:
    """Literals of the infinitely many datatypes nothing interprets."""
    if atoms.has_positive_order() or atoms.pos_tags:
        return _Count.zero()
    count = _count_forms(atoms)
    if count.kind == "finite" and count.n == 0:
        return _Count.zero()
    return _Count.infinite()


def _literal_branches(atoms: _Atoms) -> _Count:
    if not atoms.kind_allows("Literal"):
        return _Count.zero()
    if len(set(atoms.pos_tags)) > 1 or len(set(atoms.pos_dts)) > 1:
        return _Count.zero()
    if atoms.pos_tags:
        if atoms.pos_dts and atoms.pos_dts[0] != RDF_LANGSTRING:
            return _Count.zero()
        if RDF_LANGSTRING in atoms.neg_dts:
            return _Count.zero()
        return _langstring_branch(atoms, atoms.pos_tags[0])
    if atoms.pos_dts:
        dt = atoms.pos_dts[0]
        if dt in atoms.neg_dts:
            return _Count.zero()
        if dt in INTEGER_DATATYPES:
            return _integer_branch(atoms, dt)
        if dt == XSD_DECIMAL:
            return _decimal_branch(atoms)
        if dt == XSD_BOOLEAN:
            return _boolean_branch(atoms)
        if dt == XSD_STRING:
            return _string_branch(atoms)
        if dt == RDF_LANGSTRING:
            return _langstring_branch(atoms, None)
        return _plain_datatype_branch(atoms, dt)
    # no positive datatype: sum the interpreted universe, the open-tag
    # space, and the fresh uninterpreted datatypes
    total = _Count.zero()
    for dt in INTEGER_DATATYPES:
        if dt not in atoms.neg_dts:
            total = total.add(_integer_branch(atoms, dt))
    if XSD_DECIMAL not in atoms.neg_dts:
        total = total.add(_decimal_branch(atoms))
    if XSD_BOOLEAN not in atoms.neg_dts:
        total = total.add(_boolean_branch(atoms))
    if XSD_STRING not in atoms.neg_dts:
        total = total.add(_string_branch(atoms))
    if RDF_LANGSTRING not in atoms.neg_dts:
        total = total.add(_langstring_branch(atoms, None))
    return total.add(_fresh_datatype_branch(atoms))


def _combo_count(combo: FilterCombination, known_constants: frozenset) -> tuple:
    """(count, dropped): the terms satisfying the combination's filters, and
    the constants among them that its inequalities or Nu exclude."""
    eqs = [c.constant for c in combo.conjuncts if isinstance(c, Eq)]
    noteqs = {c.constant for c in combo.conjuncts if isinstance(c, NotEq)}
    has_nu = any(isinstance(c, Nu) for c in combo.conjuncts)
    filter_conjuncts = [c for c in combo.conjuncts if isinstance(c, (Pos, Neg))]

    if eqs:
        if len(set(eqs)) > 1:
            return _Count.zero(), []
        c = eqs[0]
        if c in noteqs or (has_nu and c in known_constants):
            return _Count.zero(), []
        return _candidates([c], filter_conjuncts), []

    excluded = set(noteqs)
    if has_nu:
        excluded |= set(known_constants)
    total = _filter_count(filter_conjuncts)
    return total, _members(total, excluded, filter_conjuncts)


def _filter_count(filter_conjuncts: list) -> _Count:
    """The terms satisfying the Pos/Neg conjuncts."""
    atoms = _Atoms([c.atom for c in filter_conjuncts if isinstance(c, Pos)],
                      [c.atom for c in filter_conjuncts if isinstance(c, Neg)])
    return _blank_branch(atoms).add(_iri_branch(atoms)).add(_literal_branches(atoms))


def _members(total: _Count, excluded, filter_conjuncts: list) -> list:
    """The excluded terms that the count includes."""
    if total.kind == "infinite":
        return []  # removing finitely many members keeps it infinite
    if total.parts is not None:
        return total.members(excluded)
    return [e for e in excluded if _satisfies(e, filter_conjuncts)]


def _bound(count: _Count, dropped: list) -> CardinalityBound:
    if count.kind == "infinite":
        return Infinite()
    n = count.n - len(dropped)
    return Huge() if n > HUGE_THRESHOLD else Finite(n)


def combo_cardinality(combo: FilterCombination, known_constants: Iterable[Term] = ()) -> CardinalityBound:
    """|γ(F)|: the exact size of the canonical satisfying set, Infinite when
    provably infinite, Huge when finite but above the counting threshold."""
    return _bound(*_combo_count(combo, frozenset(known_constants)))


def combo_witnesses(combo: FilterCombination, known_constants: Iterable[Term] = (),
                    limit: int = WITNESS_LIMIT) -> Optional[list]:
    """The satisfying terms when finite and enumerable, else None."""
    count, dropped = _combo_count(combo, frozenset(known_constants))
    if count.kind != "finite" or count.parts is None or count.n - len(dropped) > limit:
        return None
    witnesses = count.witnesses
    if dropped:
        witnesses = [t for t in witnesses if t not in dropped]
    return sorted(witnesses, key=term_key)


def truncate_combination(combo: FilterCombination, known_constants: Iterable[Term] = ()) -> FilterCombination:
    """Drop conjuncts beyond each type's capacity without changing |γ|.

    The capacity lemmas guarantee some conjunct of an over-full type whose
    removal preserves the cardinality; raises if none exists.
    """
    known = frozenset(known_constants)
    current = combo
    while True:
        counts = current.type_counts()
        over = sorted(t for t, n in counts.items() if t in MNRC_CAPS and n > MNRC_CAPS[t])
        if not over:
            return current
        reference = combo_cardinality(current, known)
        for c in current.conjuncts:
            if conjunct_type(c) != over[0]:
                continue
            candidate = current.without(c)
            if combo_cardinality(candidate, known) == reference:
                current = candidate
                break
        else:
            raise FilterAxiomError(
                f"no capacity-preserving truncation for {current.describe()} (type {over[0]})"
            )


# --- axiomatisations ------------------------------------------------------------

NU_NAME = Iri("urn:sclkit:nu")
_MAX_NAIVE_ATOMS = 10


@value_class
class AxiomatisationResult:
    sentence: SclSentence
    approximate: bool
    skipped: tuple = ()


def _combo_psi(combo: FilterCombination, nu_rel):
    parts = []
    for c in combo.conjuncts:
        if isinstance(c, Eq):
            parts.append(PsiEq(c.constant))
        elif isinstance(c, NotEq):
            parts.append(PsiNot(PsiEq(c.constant)))
        elif isinstance(c, Nu):
            parts.append(PsiShape(nu_rel))
        elif isinstance(c, Pos):
            parts.append(PsiFilter(c.atom))
        else:
            parts.append(PsiNot(PsiFilter(c.atom)))
    return psi_and_all(parts)


def _gather(phi: SclSentence) -> tuple:
    return (sorted(constants_of(phi), key=term_key),
            sorted(filter_atoms_of(phi), key=lambda a: a.describe()),
            {rel.name for rel in shape_rels_of(phi)})


def naive_axiomatisation(phi: SclSentence) -> AxiomatisationResult:
    """One fresh shape per filter combination with a non-infinite satisfying
    set, defined both by the combination and by the enumeration of its
    witnesses (bottom when empty).  Exponential in the filter/constant count."""
    constants, atoms, taken = _gather(phi)
    for atom in atoms:
        if isinstance(atom, PatternAtom):
            compile_pattern(atom.regex)  # raises UnsupportedPattern on non-regular input
    if len(constants) + len(atoms) > _MAX_NAIVE_ATOMS:
        raise FilterAxiomError(
            f"naive axiomatisation over {len(constants)} constants and {len(atoms)} filters "
            f"is too large (cap {_MAX_NAIVE_ATOMS} atoms total)"
        )
    mint = NameMint(taken)
    known = frozenset(constants)
    axioms = []
    approximate = False
    skipped = []
    options: list[list] = [[None, Eq(c), NotEq(c)] for c in constants]
    options += [[None, Pos(a), Neg(a)] for a in atoms]

    def expand(i: int, acc: list) -> None:
        nonlocal approximate
        if i == len(options):
            if not acc:
                return
            combo = FilterCombination.of(acc)
            bound = combo_cardinality(combo, known)
            if isinstance(bound, Infinite):
                return
            wit = combo_witnesses(combo, known)
            if wit is None:
                approximate = True
                skipped.append(combo)
                return
            rel = ShapeRel(mint.fresh())
            enumeration = psi_or_all([PsiEq(w) for w in wit]) if wit else PsiNot(PsiTop())
            axioms.append(ConstraintAxiom(rel, _combo_psi(combo, None)))
            axioms.append(ConstraintAxiom(rel, enumeration))
            return
        for choice in options[i]:
            expand(i + 1, acc + ([choice] if choice is not None else []))

    expand(0, [])
    return AxiomatisationResult(SclSentence(tuple(axioms)), approximate, tuple(skipped))


def _bounded_combos(constants: list, atoms: list, deadline=None) -> Optional[list]:
    """The filter combinations the bounded axiomatisation counts; None once a
    given `deadline` expires."""
    by_type: dict = {}
    for a in atoms:
        by_type.setdefault(_atom_type(a), []).append(a)

    def signed_subsets(items: list, cap: int) -> list:
        out: list[tuple] = [()]
        for a in items:
            extended = [prev + (s,) for prev in out if len(prev) < cap for s in (Pos(a), Neg(a))]
            out = out + extended
        return out

    combos: list[tuple] = [()]
    for t in sorted(by_type):
        group = signed_subsets(by_type[t], MNRC_CAPS[t])
        combos = [prev + g for prev in combos for g in group]
    equality_options: list = [(), *([Eq(c)] for c in constants), (Nu(),)]
    equality_options = [tuple(e) for e in equality_options]
    out = []
    for i, c in enumerate(prev + e for prev in combos for e in equality_options):
        if i % 1024 == 0 and deadline is not None and deadline.expired():
            return None
        if c:
            out.append(FilterCombination.of(c))
    return out


def bounded_axiomatisation(phi: SclSentence, deadline=None) -> AxiomatisationResult:
    """Nu's defining axiom plus one counting conjunct per bounded filter
    combination with a finite satisfying set; polynomial in the input.  Each
    filter part F (the Pos/Neg conjuncts) is counted once: Nu ∧ F drops the
    known constants from F's count, and Eq(c) ∧ F is 1 or 0 as c passes F.
    Once a given `deadline` expires, the combinations left go without an axiom
    and the result is approximate, as for those too large to count."""
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

    nu_name = NU_NAME if NU_NAME not in taken else NameMint(taken, NU_NAME.value + ":").fresh()
    nu_rel = ShapeRel(nu_name)
    known = frozenset(constants)
    axioms = [ConstraintAxiom(nu_rel, psi_and_all([PsiNot(PsiEq(c)) for c in constants]))]
    combos = _bounded_combos(constants, atoms, deadline)
    approximate = combos is None
    skipped = []
    passes = {c: {a: eval_filter(a, c) for a in atoms} for c in constants}
    totals: dict = {}  # filter part -> its count, for this call only
    for combo in sorted(combos or (), key=lambda c: c.describe()):
        if deadline is not None and deadline.expired():
            approximate = True
            break
        head, part = combo.conjuncts[0], [x for x in combo.conjuncts if isinstance(x, (Pos, Neg))]
        if isinstance(head, Eq):
            bound = Finite(int(all(passes[head.constant][x.atom] == isinstance(x, Pos) for x in part)))
        else:
            key = tuple(part)
            if key not in totals:
                totals[key] = _filter_count(part)
            bound = _bound(totals[key], _members(totals[key], known, part) if isinstance(head, Nu) else [])
        if isinstance(bound, Infinite):
            continue
        if isinstance(bound, Huge):
            approximate = True
            skipped.append(combo)
            continue
        axioms.append(AtMostAxiom(bound.n, _combo_psi(combo, nu_rel)))
    return AxiomatisationResult(SclSentence(tuple(axioms)), approximate, tuple(skipped))
