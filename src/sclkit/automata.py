"""Regular-expression compilation to finite automata, with the analyses the
filter cardinality function needs: emptiness, language finiteness, exact word
counts over the Unicode alphabet, and lexicographic word enumeration.

A pattern means what `re.search` matches.  The automaton is built from the
stdlib's own parse tree, so escapes, classes, groups, alternation and the
greedy and lazy quantifiers read exactly as `re` reads them: \\d, \\w and \\s
follow the Unicode rules of str patterns, '.' excludes '\\n', and '$' also
matches before a final '\\n'.  '^', '\\A', '$' and '\\Z' count at the ends of
each top-level alternative; an unanchored end is wrapped in an implicit match
of any string (search semantics).  Inline flags, back-references, lookarounds,
word boundaries, possessive and atomic groups, and anchors anywhere else raise
UnsupportedPattern, as does a pattern `re` rejects.  So does a pattern whose
automata outgrow MAX_NFA_STATES or MAX_DFA_STATES: the subset construction
can take exponentially many states (search semantics give `a.{k}` 3 * 2**k),
and the caps bound the time and memory one compilation takes.
"""
from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from functools import lru_cache
from typing import Iterator, Optional

from .value import value_class

try:
    from re import _constants as _sre, _parser as _sre_parse
except ImportError:  # Python 3.10
    import sre_constants as _sre
    import sre_parse as _sre_parse

# Unicode scalar values (code points minus surrogates).
ALPHABET_SIZE = 0x110000 - 0x800

# Larger automata raise UnsupportedPattern.
MAX_NFA_STATES = 2000
MAX_DFA_STATES = 4096


class UnsupportedPattern(ValueError):
    pass


_END = 0x110000  # one past the last code point
_SCALARS = (0, 0xD800, 0xE000, _END)


def _complement(bounds: tuple) -> tuple:
    bounds = bounds[1:] if bounds[:1] == (0,) else (0,) + bounds
    return bounds[:-1] if bounds[-1:] == (_END,) else bounds + (_END,)


def _intersection(x: tuple, y: tuple) -> tuple:
    """Per range of the shorter operand, one slice of the longer one."""
    if len(x) > len(y):
        x, y = y, x
    out = []
    for k in range(0, len(x), 2):
        lo, hi = x[k], x[k + 1]
        i, j = bisect_right(y, lo), bisect_left(y, hi)
        if i % 2:
            out.append(lo)
        out.extend(y[i:j])
        if j % 2:
            out.append(hi)
    return tuple(out)


@value_class
class CharSet:
    """A set of code points, possibly represented as a complement.  `bounds`
    lists its ranges [lo, hi) as strictly ascending lo0, hi0, lo1, hi1, ...,
    so each operation costs time per range, not per code point."""

    bounds: tuple
    negated: bool = False

    def size(self) -> int:
        n = sum(self.bounds[1::2]) - sum(self.bounds[::2])
        return ALPHABET_SIZE - n if self.negated else n

    def contains(self, cp: int) -> bool:
        return bisect_right(self.bounds, cp) % 2 != self.negated

    def complement(self) -> "CharSet":
        return CharSet(self.bounds, not self.negated)

    def intersect(self, other: "CharSet") -> "CharSet":
        if not self.negated and not other.negated:
            return CharSet(_intersection(self.bounds, other.bounds))
        if self.negated and other.negated:
            # the complement of a union
            return CharSet(_complement(_intersection(_complement(self.bounds), _complement(other.bounds))), True)
        pos, neg = (self, other) if not self.negated else (other, self)
        return CharSet(_intersection(pos.bounds, _complement(neg.bounds)))

    def is_empty(self) -> bool:
        return self.size() == 0

    def iter_chars(self) -> Iterator[int]:
        """Ascending code points; the complement case skips surrogates."""
        bounds = _intersection(_complement(self.bounds), _SCALARS) if self.negated else self.bounds
        for lo, hi in zip(bounds[::2], bounds[1::2]):
            yield from range(lo, hi)


ANY = CharSet((), True)


# --- character sets of the stdlib parse tree ---------------------------------------

_CATEGORY_PATTERNS = {"DIGIT": r"\d+", "SPACE": r"\s+", "WORD": r"\w+"}


@lru_cache(maxsize=None)
def _category(name: str) -> CharSet:
    """The code points of \\d, \\s or \\w, as re finds them in the string of
    every code point.  Each plane of 65,536 code points is decoded from UTF-32
    bytes written one byte column at a time (all 17 take about 6 ms; one chr()
    per code point takes about 230 ms) and scanned on its own, so no buffer
    holds more than a plane; a range running on across a plane boundary is
    merged."""
    plane = bytearray(4 * 0x10000)
    plane[0::4] = bytes(range(256)) * 0x100
    plane[1::4] = b"".join(bytes([b]) * 0x100 for b in range(256))
    bounds: list = []
    for p in range(0x11):
        plane[2::4] = bytes([p]) * 0x10000
        for m in re.finditer(_CATEGORY_PATTERNS[name], plane.decode("utf-32-le", "surrogatepass")):
            bounds += (m.start() + (p << 16), m.end() + (p << 16))
    cuts = set(bounds[1::2]).intersection(bounds[::2])  # where one range ends as the next starts
    return CharSet(tuple(b for b in bounds if b not in cuts))


def _charset(op, av) -> CharSet:
    """The characters one single-character parse item matches."""
    if op is _sre.LITERAL:
        return CharSet((av, av + 1))
    if op is _sre.NOT_LITERAL:
        return CharSet((av, av + 1), True)
    if op is _sre.ANY:
        return CharSet((0x0A, 0x0B), True)
    if op is _sre.ANY_ALL:
        return ANY
    if op is _sre.RANGE:
        return CharSet((av[0], av[1] + 1))
    if op is _sre.CATEGORY:
        name = av.name.removeprefix("CATEGORY_")
        base = _category(name.removeprefix("NOT_"))
        return base.complement() if name.startswith("NOT_") else base
    # IN: the union of its members, complemented after a leading NEGATE
    outside = ANY
    for member in av:
        if member[0] is not _sre.NEGATE:
            outside = outside.intersect(_charset(*member).complement())
    if av and av[0][0] is _sre.NEGATE:
        return outside
    return outside.complement()


_CHAR_OPS = (_sre.LITERAL, _sre.NOT_LITERAL, _sre.ANY, _sre.ANY_ALL, _sre.IN)

# --- NFA / DFA -----------------------------------------------------------------

class Nfa:
    def __init__(self):
        self.n_states = 0
        self.eps: list[set] = []
        self.edges: list[list] = []  # per state: list of (label index, dst)
        self.labels: dict = {}  # each distinct CharSet on an edge -> its index
        self.start = self.new_state()
        self.accept = self.new_state()

    def new_state(self) -> int:
        if self.n_states == MAX_NFA_STATES:
            raise UnsupportedPattern(f"more than {MAX_NFA_STATES} NFA states")
        self.n_states += 1
        self.eps.append(set())
        self.edges.append([])
        return self.n_states - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps[a].add(b)

    def add_edge(self, a: int, cs: CharSet, b: int) -> None:
        if not cs.is_empty():
            self.edges[a].append((self.labels.setdefault(cs, len(self.labels)), b))


def _build(nfa: Nfa, items, src: int, dst: int) -> None:
    """Thompson construction of a sequence of parse items between two states."""
    items = list(items)
    for item in items[:-1]:
        mid = nfa.new_state()
        _build_item(nfa, item, src, mid)
        src = mid
    if items:
        _build_item(nfa, items[-1], src, dst)
    else:
        nfa.add_eps(src, dst)


def _build_item(nfa: Nfa, item, src: int, dst: int) -> None:
    op, av = item
    if op in _CHAR_OPS:
        nfa.add_edge(src, _charset(op, av), dst)
    elif op is _sre.BRANCH:
        for alt in av[1]:
            _build(nfa, alt, src, dst)
    elif op is _sre.SUBPATTERN:
        if av[1] or av[2]:
            raise UnsupportedPattern("inline flags are unsupported")
        _build(nfa, av[3], src, dst)
    elif op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT):
        lo, hi, body = av
        for _ in range(lo):
            mid = nfa.new_state()
            _build(nfa, body, src, mid)
            src = mid
        if hi == _sre.MAXREPEAT:
            mid = nfa.new_state()
            nfa.add_eps(src, mid)
            _build(nfa, body, mid, mid)
            src = mid
        else:
            for _ in range(hi - lo):
                mid = nfa.new_state()
                nfa.add_eps(src, mid)
                _build(nfa, body, src, mid)
                src = mid
        nfa.add_eps(src, dst)
    elif op is _sre.AT and av.name.startswith(("AT_BEGINNING", "AT_END")):
        raise UnsupportedPattern(f"{av.name} counts only at the ends of a top-level alternative")
    else:
        raise UnsupportedPattern(f"{(av if op is _sre.AT else op).name} is unsupported")


def _partition(charsets: list) -> list:
    """Split overlapping charsets into disjoint atoms covering their union."""
    atoms = [ANY]
    for cs in charsets:
        pieces = (atom.intersect(part) for atom in atoms for part in (cs, cs.complement()))
        atoms = [piece for piece in pieces if not piece.is_empty()]
    return atoms


class Dfa:
    """Deterministic automaton; missing transitions reject."""

    def __init__(self, start, transitions, accepting):
        self.start = start
        self.transitions = transitions  # state -> list of (CharSet, state)
        self.accepting = accepting

    def accepts(self, word: str) -> bool:
        state = self.start
        for ch in word:
            cp = ord(ch)
            for cs, nxt in self.transitions.get(state, ()):
                if cs.contains(cp):
                    state = nxt
                    break
            else:
                return False
        return state in self.accepting

    def _live_states(self) -> set:
        """The states on a path from the start to an accepting state: those
        reached forwards, then those of them reached backwards from one."""
        reach = {self.start}
        stack = [self.start]
        preds: dict = {}
        while stack:
            s = stack.pop()
            for _, nxt in self.transitions.get(s, ()):
                preds.setdefault(nxt, []).append(s)
                if nxt not in reach:
                    reach.add(nxt)
                    stack.append(nxt)
        live = reach & set(self.accepting)
        stack = list(live)
        while stack:
            for s in preds.get(stack.pop(), ()):
                if s not in live:
                    live.add(s)
                    stack.append(s)
        return live

    def is_empty(self) -> bool:
        return self.start not in self._live_states()

    def _live_order(self) -> Optional[list]:
        """The live states in topological order (Kahn's algorithm), or None
        when a cycle runs through them."""
        live = self._live_states()
        succ = {s: [nxt for _, nxt in self.transitions.get(s, ()) if nxt in live] for s in live}
        indegree = dict.fromkeys(live, 0)
        for s in live:
            for nxt in succ[s]:
                indegree[nxt] += 1
        order = [s for s in live if indegree[s] == 0]
        for s in order:
            for nxt in succ[s]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    order.append(nxt)
        return order if len(order) == len(live) else None

    def is_finite(self) -> bool:
        """No cycle through a live state."""
        return self._live_order() is not None

    def count_words(self, limit: int) -> Optional[int]:
        """Exact number of accepted words, or None if infinite or above limit."""
        order = self._live_order()
        if order is None:
            return None
        count: dict = {}
        for s in reversed(order):
            count[s] = (s in self.accepting) + sum(
                cs.size() * count[nxt] for cs, nxt in self.transitions.get(s, ()) if nxt in count)
        n = count.get(self.start, 0)  # an accepting start is live
        return None if n > limit else n

    def enumerate_words(self, max_words: int) -> list:
        """Shortest-first, lexicographic within a length."""
        out: list[str] = []
        live = self._live_states()
        if self.start in self.accepting:
            out.append("")
        frontier = [("", self.start)]
        guard = 0
        while frontier and len(out) < max_words:
            guard += 1
            if guard > 100000:
                break
            nxt_frontier = []
            for word, state in frontier:
                for cs, nxt in self.transitions.get(state, ()):
                    if nxt not in live:
                        continue
                    for i, cp in enumerate(cs.iter_chars()):
                        if i >= max_words:
                            break
                        nxt_frontier.append((word + chr(cp), nxt))
            nxt_frontier.sort(key=lambda ws: ws[0])
            # A word behind max_words smaller words in the same state stays
            # behind them under every suffix, so it can never be output.
            per_state: dict = {}
            frontier = []
            for word, state in nxt_frontier:
                if per_state.get(state, 0) == max_words:
                    continue
                per_state[state] = per_state.get(state, 0) + 1
                frontier.append((word, state))
                if state in self.accepting and len(out) < max_words:
                    out.append(word)
        return out

    def intersect(self, other: "Dfa") -> "Dfa":
        start = (self.start, other.start)
        transitions: dict = {}
        accepting = set()
        stack = [start]
        seen = {start}
        while stack:
            s = stack.pop()
            a, b = s
            if a in self.accepting and b in other.accepting:
                accepting.add(s)
            edges = []
            for cs1, n1 in self.transitions.get(a, ()):
                for cs2, n2 in other.transitions.get(b, ()):
                    both = cs1.intersect(cs2)
                    if both.is_empty():
                        continue
                    t = (n1, n2)
                    edges.append((both, t))
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            transitions[s] = edges
        return Dfa(start, transitions, accepting)

    def complement(self) -> "Dfa":
        """Complete with a sink, then flip acceptance."""
        sink = "__sink__"
        transitions: dict = {}
        states = set(self.transitions) | {self.start, sink} | set(self.accepting)
        for s in states:
            edges = list(self.transitions.get(s, ()))
            rest = ANY
            for cs, _ in edges:
                rest = rest.intersect(cs.complement())
            if not rest.is_empty():
                edges.append((rest, sink))
            transitions[s] = edges
        accepting = {s for s in states if s not in self.accepting}
        return Dfa(self.start, transitions, accepting)


def nfa_to_dfa(nfa: Nfa) -> Dfa:
    """Subset construction.  A DFA state is named by its subset's NFA states
    packed in order, 4 bytes each where a set takes some 40, and the subset
    itself lives only until its edges are built."""
    def closure(states: frozenset) -> frozenset:
        out = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in nfa.eps[s]:
                if t not in out:
                    out.add(t)
                    stack.append(t)
        return frozenset(out)

    def name(group: frozenset) -> bytes:
        return array("I", sorted(group)).tobytes()

    labels = list(nfa.labels)
    start = closure(frozenset({nfa.start}))
    splits: dict = {}  # label indices -> the partition's atoms, each with the indices it meets
    transitions: dict = {}
    accepting = set()
    stack = [(name(start), start)]
    seen = {stack[0][0]}
    while stack:
        here, group = stack.pop()
        if nfa.accept in group:
            accepting.add(here)
        targets_of: dict = {}  # each label index of the group -> its targets
        for s in group:
            for i, dst in nfa.edges[s]:
                targets_of.setdefault(i, set()).add(dst)
        key = tuple(targets_of)
        if key not in splits:
            charsets = [labels[i] for i in key]
            splits[key] = [(atom, [i for i, cs in zip(key, charsets) if not cs.intersect(atom).is_empty()])
                           for atom in _partition(charsets)]
        edges = []
        for atom, meets in splits[key]:
            targets = set().union(*(targets_of[i] for i in meets))
            if not targets:
                continue
            t = closure(frozenset(targets))
            there = name(t)
            edges.append((atom, there))
            if there not in seen:
                if len(seen) == MAX_DFA_STATES:
                    raise UnsupportedPattern(f"more than {MAX_DFA_STATES} DFA states")
                seen.add(there)
                stack.append((there, t))
        transitions[here] = edges
    return Dfa(name(start), transitions, accepting)


_ANY_STRING = (_sre.MAX_REPEAT, (0, _sre.MAXREPEAT, [(_sre.ANY_ALL, None)]))
_END_TAILS = {
    None: [_ANY_STRING],
    _sre.AT_END: [(_sre.MAX_REPEAT, (0, 1, [(_sre.LITERAL, ord("\n"))]))],
    _sre.AT_END_STRING: [],
}


def _search_alternatives(items, anchored=False, end=None) -> Iterator[list]:
    """Each top-level alternative as parse items for the strings re.search finds
    it in: its anchors are stripped, and an open end matches any string."""
    items = list(items)
    while items and items[0][0] is _sre.AT and items[0][1] in (_sre.AT_BEGINNING, _sre.AT_BEGINNING_STRING):
        anchored = True
        del items[0]
    while items and items[-1][0] is _sre.AT and items[-1][1] in (_sre.AT_END, _sre.AT_END_STRING):
        if end is not _sre.AT_END_STRING:
            end = items[-1][1]
        del items[-1]
    if len(items) == 1 and items[0][0] is _sre.BRANCH:
        for alt in items[0][1][1]:
            yield from _search_alternatives(alt, anchored, end)
    else:
        yield ([] if anchored else [_ANY_STRING]) + items + _END_TAILS[end]


def pattern_nfa(pattern: str) -> Nfa:
    """NFA of the strings in which re.search finds the pattern."""
    nfa = Nfa()
    parsed = _sre_parse.parse(pattern)
    if parsed.state.flags & ~_sre.SRE_FLAG_UNICODE:
        raise UnsupportedPattern("inline flags are unsupported")
    for alt in _search_alternatives(parsed):
        _build(nfa, alt, nfa.start, nfa.accept)
    return nfa


@lru_cache(maxsize=512)
def compile_pattern(pattern: str) -> Dfa:
    """DFA of the strings in which re.search finds the pattern."""
    try:
        return nfa_to_dfa(pattern_nfa(pattern))
    except (_sre.error, UnsupportedPattern) as exc:
        raise UnsupportedPattern(f"{exc} in pattern {pattern!r}") from None

def length_window_dfa(min_len: int, max_len: Optional[int]) -> Dfa:
    """Accepts strings whose length lies in [min_len, max_len]."""
    transitions: dict = {}
    last = min_len if max_len is None else max_len
    for i in range(last):
        transitions[i] = [(ANY, i + 1)]
    if max_len is None:
        transitions[last] = [(ANY, last)]
        accepting = {last} | set(range(min_len, last))
    else:
        transitions.setdefault(last, [])
        accepting = set(range(min_len, max_len + 1))
    return Dfa(0, transitions, accepting)
