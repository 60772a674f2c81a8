"""Regular-expression compilation to finite automata, with the analyses the
filter cardinality function needs: emptiness, language finiteness, exact word
counts over the Unicode alphabet, and lexicographic word enumeration.

Supported syntax: literals, escapes (\\d \\D \\w \\W \\s \\S and escaped
metacharacters), '.', character classes with ranges and negation, groups,
alternation, and the *, +, ?, {m}, {m,}, {m,n} quantifiers.  '^' and '$'
anchors are honoured at the pattern ends; unanchored patterns are wrapped in
implicit .* on the open sides (search semantics).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

# Unicode scalar values (code points minus surrogates).
ALPHABET_SIZE = 0x110000 - 0x800


class UnsupportedPattern(ValueError):
    pass


@dataclass(frozen=True)
class CharSet:
    """A set of code points, possibly represented as a complement."""

    chars: frozenset
    negated: bool = False

    def size(self) -> int:
        return ALPHABET_SIZE - len(self.chars) if self.negated else len(self.chars)

    def contains(self, cp: int) -> bool:
        return (cp in self.chars) != self.negated

    def intersect(self, other: "CharSet") -> "CharSet":
        if not self.negated and not other.negated:
            return CharSet(self.chars & other.chars)
        if self.negated and other.negated:
            return CharSet(self.chars | other.chars, True)
        pos, neg = (self, other) if not self.negated else (other, self)
        return CharSet(frozenset(c for c in pos.chars if c not in neg.chars))

    def is_empty(self) -> bool:
        return self.size() == 0

    def iter_chars(self) -> Iterator[int]:
        """Ascending code points; lazy over the complement case."""
        if not self.negated:
            yield from sorted(self.chars)
            return
        excluded = self.chars
        cp = 0
        while cp < 0x110000:
            if 0xD800 <= cp <= 0xDFFF:
                cp = 0xE000
                continue
            if cp not in excluded:
                yield cp
            cp += 1


ANY = CharSet(frozenset(), True)

_CLASS_SHORTHAND = {
    "d": CharSet(frozenset(range(0x30, 0x3A))),
    "w": CharSet(frozenset(range(0x30, 0x3A)) | frozenset(range(0x41, 0x5B))
                 | frozenset(range(0x61, 0x7B)) | {0x5F}),
    "s": CharSet(frozenset(ord(c) for c in " \t\n\r\f\v")),
}
_ESCAPE_LITERAL = {"n": "\n", "t": "\t", "r": "\r", "f": "\f", "v": "\v", "0": "\0"}


# --- regex AST ----------------------------------------------------------------

@dataclass(frozen=True)
class RSym:
    cs: CharSet


@dataclass(frozen=True)
class REps:
    pass


@dataclass(frozen=True)
class RCat:
    parts: tuple


@dataclass(frozen=True)
class RAlt:
    parts: tuple


@dataclass(frozen=True)
class RStar:
    inner: object


class _RegexParser:
    def __init__(self, pattern: str):
        self.p = pattern
        self.i = 0

    def error(self, msg: str) -> UnsupportedPattern:
        return UnsupportedPattern(f"{msg} in pattern {self.p!r} at offset {self.i}")

    def peek(self) -> str:
        return self.p[self.i] if self.i < len(self.p) else ""

    def parse(self):
        anchored_start = self.p.startswith("^")
        anchored_end = self.p.endswith("$") and not self.p.endswith("\\$")
        if anchored_start:
            self.i = 1
        end = len(self.p) - 1 if anchored_end else len(self.p)
        node = self.alternation(end)
        if self.i != end:
            raise self.error("trailing garbage")
        parts = []
        if not anchored_start:
            parts.append(RStar(RSym(ANY)))
        parts.append(node)
        if not anchored_end:
            parts.append(RStar(RSym(ANY)))
        return RCat(tuple(parts))

    def alternation(self, end: int):
        parts = [self.concat(end)]
        while self.i < end and self.peek() == "|":
            self.i += 1
            parts.append(self.concat(end))
        return parts[0] if len(parts) == 1 else RAlt(tuple(parts))

    def concat(self, end: int):
        parts = []
        while self.i < end and self.peek() not in "|)":
            parts.append(self.atom_with_quantifier(end))
        if not parts:
            return REps()
        return parts[0] if len(parts) == 1 else RCat(tuple(parts))

    def atom_with_quantifier(self, end: int):
        node = self.atom(end)
        while self.i < end and self.peek() in "*+?{":
            ch = self.peek()
            if ch == "*":
                self.i += 1
                node = RStar(node)
            elif ch == "+":
                self.i += 1
                node = RCat((node, RStar(node)))
            elif ch == "?":
                self.i += 1
                node = RAlt((node, REps()))
            else:
                node = self.bounded(node)
            if self.i < end and self.peek() in "*+?":
                # nested quantifiers like a** are pointless but harmless
                continue
        return node

    def bounded(self, node):
        close = self.p.find("}", self.i)
        if close < 0:
            raise self.error("unterminated {quantifier}")
        spec = self.p[self.i + 1 : close]
        self.i = close + 1
        if "," in spec:
            lo_s, hi_s = spec.split(",", 1)
            lo = int(lo_s) if lo_s else 0
            hi = int(hi_s) if hi_s else None
        else:
            lo = hi = int(spec)
        parts = [node] * lo
        if hi is None:
            parts.append(RStar(node))
        else:
            if hi < lo:
                raise self.error("bad {m,n} bounds")
            parts.extend([RAlt((node, REps()))] * (hi - lo))
        return RCat(tuple(parts)) if parts else REps()

    def atom(self, end: int):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            if self.peek() == "?":
                raise self.error("lookaround/group flags unsupported")
            node = self.alternation(end)
            if self.peek() != ")":
                raise self.error("unbalanced parenthesis")
            self.i += 1
            return node
        if ch == "[":
            return RSym(self.char_class())
        if ch == ".":
            self.i += 1
            return RSym(ANY)
        if ch == "\\":
            return RSym(self.escape())
        if ch in "*+?{":
            raise self.error("dangling quantifier")
        if ch in "^$":
            raise self.error("inner anchors unsupported")
        self.i += 1
        return RSym(CharSet(frozenset({ord(ch)})))

    def escape(self) -> CharSet:
        self.i += 1
        ch = self.peek()
        if not ch:
            raise self.error("dangling escape")
        self.i += 1
        if ch in _CLASS_SHORTHAND:
            return _CLASS_SHORTHAND[ch]
        if ch.upper() == ch and ch.lower() in _CLASS_SHORTHAND:
            base = _CLASS_SHORTHAND[ch.lower()]
            return CharSet(base.chars, not base.negated)
        if ch in _ESCAPE_LITERAL:
            return CharSet(frozenset({ord(_ESCAPE_LITERAL[ch])}))
        if ch == "u":
            hexs = self.p[self.i : self.i + 4]
            self.i += 4
            return CharSet(frozenset({int(hexs, 16)}))
        if ch.isalnum():
            raise self.error(f"unsupported escape \\{ch}")
        return CharSet(frozenset({ord(ch)}))

    def char_class(self) -> CharSet:
        self.i += 1
        negated = self.peek() == "^"
        if negated:
            self.i += 1
        chars: set[int] = set()
        sub_negated: list[CharSet] = []
        first = True
        while True:
            ch = self.peek()
            if not ch:
                raise self.error("unterminated character class")
            if ch == "]" and not first:
                self.i += 1
                break
            first = False
            if ch == "\\":
                cs = self.escape()
                if cs.negated:
                    sub_negated.append(cs)
                else:
                    chars |= set(cs.chars)
                continue
            self.i += 1
            if self.peek() == "-" and self.p[self.i + 1 : self.i + 2] not in ("]", ""):
                self.i += 1
                hi = self.peek()
                self.i += 1
                if hi == "\\":
                    raise self.error("escape as range bound unsupported")
                chars |= set(range(ord(ch), ord(hi) + 1))
            else:
                chars.add(ord(ch))
        out = CharSet(frozenset(chars))
        for cs in sub_negated:
            # union with a complement set: complement of (complement minus chars)
            out = CharSet(frozenset(c for c in cs.chars if not out.contains(c)), True)
        if negated:
            return CharSet(out.chars, not out.negated)
        return out


# --- NFA / DFA -----------------------------------------------------------------

class Nfa:
    def __init__(self):
        self.n_states = 0
        self.eps: list[set] = []
        self.edges: list[list] = []  # per state: list of (CharSet, dst)
        self.start = self.new_state()
        self.accept = self.new_state()

    def new_state(self) -> int:
        self.n_states += 1
        self.eps.append(set())
        self.edges.append([])
        return self.n_states - 1

    def add_eps(self, a: int, b: int) -> None:
        self.eps[a].add(b)

    def add_edge(self, a: int, cs: CharSet, b: int) -> None:
        if not cs.is_empty():
            self.edges[a].append((cs, b))


def _build(nfa: Nfa, node, src: int, dst: int) -> None:
    if isinstance(node, REps):
        nfa.add_eps(src, dst)
    elif isinstance(node, RSym):
        nfa.add_edge(src, node.cs, dst)
    elif isinstance(node, RCat):
        cur = src
        for part in node.parts[:-1] if node.parts else ():
            nxt = nfa.new_state()
            _build(nfa, part, cur, nxt)
            cur = nxt
        if node.parts:
            _build(nfa, node.parts[-1], cur, dst)
        else:
            nfa.add_eps(src, dst)
    elif isinstance(node, RAlt):
        for part in node.parts:
            _build(nfa, part, src, dst)
    elif isinstance(node, RStar):
        mid = nfa.new_state()
        nfa.add_eps(src, mid)
        _build(nfa, node.inner, mid, mid)
        nfa.add_eps(mid, dst)
    else:  # pragma: no cover
        raise UnsupportedPattern(f"unknown regex node {node!r}")


def _partition(charsets: list) -> list:
    """Split overlapping charsets into disjoint atoms covering their union."""
    atoms = [ANY]
    for cs in charsets:
        new: list[CharSet] = []
        for atom in atoms:
            inside = atom.intersect(cs)
            outside = atom.intersect(CharSet(cs.chars, not cs.negated))
            for piece in (inside, outside):
                if not piece.is_empty():
                    new.append(piece)
        atoms = new
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
        reach = {self.start}
        stack = [self.start]
        while stack:
            s = stack.pop()
            for _, nxt in self.transitions.get(s, ()):
                if nxt not in reach:
                    reach.add(nxt)
                    stack.append(nxt)
        coreach = set(self.accepting)
        changed = True
        while changed:
            changed = False
            for s, edges in self.transitions.items():
                if s not in coreach and any(nxt in coreach for _, nxt in edges):
                    coreach.add(s)
                    changed = True
        return reach & coreach

    def is_empty(self) -> bool:
        return self.start not in self._live_states()

    def is_finite(self) -> bool:
        """No cycle through a live state."""
        live = self._live_states()
        colour: dict = {}

        def visit(s) -> bool:
            colour[s] = 1
            for _, nxt in self.transitions.get(s, ()):
                if nxt not in live:
                    continue
                c = colour.get(nxt)
                if c == 1 or (c is None and visit(nxt)):
                    return True
            colour[s] = 2
            return False

        return not any(visit(s) for s in live if s not in colour)

    def count_words(self, limit: int) -> Optional[int]:
        """Exact number of accepted words, or None if infinite or above limit."""
        if not self.is_finite():
            return None
        live = self._live_states()
        memo: dict = {}

        def count(s) -> int:
            if s in memo:
                return memo[s]
            total = 1 if s in self.accepting else 0
            for cs, nxt in self.transitions.get(s, ()):
                if nxt in live:
                    total += cs.size() * count(nxt)
            memo[s] = total
            return total

        if self.start not in live:
            return 1 if self.start in self.accepting else 0
        n = count(self.start)
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
            for word, state in nxt_frontier:
                if state in self.accepting and len(out) < max_words:
                    out.append(word)
            frontier = nxt_frontier
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
            covered = [cs for cs, _ in edges]
            rest = ANY
            for cs in covered:
                rest = rest.intersect(CharSet(cs.chars, not cs.negated))
            if not rest.is_empty():
                edges.append((rest, sink))
            transitions[s] = edges
        accepting = {s for s in states if s not in self.accepting}
        return Dfa(self.start, transitions, accepting)


def nfa_to_dfa(nfa: Nfa) -> Dfa:
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

    start = closure(frozenset({nfa.start}))
    transitions: dict = {}
    accepting = set()
    stack = [start]
    seen = {start}
    while stack:
        group = stack.pop()
        if nfa.accept in group:
            accepting.add(group)
        charsets = [cs for s in group for cs, _ in nfa.edges[s]]
        edges = []
        for atom in _partition(charsets):
            targets = {dst for s in group for cs, dst in nfa.edges[s] if not cs.intersect(atom).is_empty()}
            if not targets:
                continue
            t = closure(frozenset(targets))
            edges.append((atom, t))
            if t not in seen:
                seen.add(t)
                stack.append(t)
        transitions[group] = edges
    return Dfa(start, transitions, accepting)


@lru_cache(maxsize=512)
def compile_pattern(pattern: str) -> Dfa:
    """DFA of the strings the pattern matches (search semantics, anchors honoured)."""
    ast = _RegexParser(pattern).parse()
    nfa = Nfa()
    _build(nfa, ast, nfa.start, nfa.accept)
    return nfa_to_dfa(nfa)


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
