"""The propositional layer shared by validation and the bounded model search:
a CNF builder with memoised Tseitin gates and sequential counters, and a
small deterministic CDCL solver."""
from __future__ import annotations

from typing import Iterable, Optional


class _Cnf:
    def __init__(self):
        self.n_vars = 1  # var 1 is the constant-true literal
        self.clauses: list[tuple] = [(1,)]
        self.TRUE = 1
        self.FALSE = -1
        self._and_memo: dict = {}

    def new_var(self) -> int:
        self.n_vars += 1
        return self.n_vars

    def add(self, *lits: int) -> None:
        self.clauses.append(tuple(lits))

    def and_(self, lits: Iterable[int]) -> int:
        lits = set(lits)
        if self.FALSE in lits or any(-l in lits for l in lits):
            return self.FALSE
        lits.discard(self.TRUE)
        if not lits:
            return self.TRUE
        # sorted, so gate numbering and clause order do not follow set order
        key = tuple(sorted(lits))
        if len(key) == 1:
            return key[0]
        if key in self._and_memo:
            return self._and_memo[key]
        g = self.new_var()
        for l in key:
            self.add(-g, l)
        self.add(g, *(-l for l in key))
        self._and_memo[key] = g
        return g

    def or_(self, lits: Iterable[int]) -> int:
        return -self.and_([-l for l in lits])

    def iff(self, a: int, b: int) -> int:
        return self.and_([self.or_([-a, b]), self.or_([a, -b])])

    def at_least(self, n: int, lits: list) -> int:
        """A literal equivalent to "at least n of lits hold" (Sinz's
        sequential counter, reified in both polarities)."""
        if n <= 0:
            return self.TRUE
        lits = [l for l in lits if l != self.FALSE]  # they never count
        if n > len(lits):
            return self.FALSE
        if n == 1:
            return self.or_(lits)
        # row[c]: at least c of the literals seen so far; rows that can no
        # longer reach n with the literals left are not built
        row = [self.TRUE] + [self.FALSE] * n
        for i, x in enumerate(lits):
            for c in range(min(i + 1, n), max(1, n - len(lits) + i + 1) - 1, -1):
                row[c] = self.or_([row[c], self.and_([row[c - 1], x])])
        return row[n]

    def assert_at_most(self, n: int, lits: list) -> None:
        self.add(-self.at_least(n + 1, lits))


def _dpll(n_vars: int, clauses: list) -> Optional[list]:
    """Deterministic CDCL: two watched literals, 1-UIP clause learning with
    non-chronological backjumping, and the decision "lowest unassigned
    variable, false first".  Returns a model (index-by-var booleans) or None."""
    # val[l] and watches[l] (the clauses watching l) are indexed by literal:
    # l = -v counts from the end of the list, past the positive half
    val: list = [None] * (2 * n_vars + 2)
    watches: list = [[] for _ in range(2 * n_vars + 2)]
    level = [0] * (n_vars + 1)
    reason: list = [None] * (n_vars + 1)  # an implied literal sits first in its reason
    trail: list = []
    trail_lim: list = []  # trail length at each decision
    for clause in clauses:
        c = list(dict.fromkeys(clause))
        if len(c) > 1:
            watches[c[0]].append(c)
            watches[c[1]].append(c)
        elif not c or val[c[0]] is False:
            return None
        elif val[c[0]] is None:
            val[c[0]], val[-c[0]] = True, False
            trail.append(c[0])
    qhead = 0

    def propagate() -> Optional[list]:
        nonlocal qhead
        lvl = len(trail_lim)
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            ws = watches[false_lit]
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                first = c[0]
                if first == false_lit:
                    first = c[0] = c[1]
                    c[1] = false_lit
                if val[first]:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk] is not False:
                        c[1] = lk
                        c[k] = false_lit
                        watches[lk].append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if val[first] is False:
                        del ws[j:i]
                        return c
                    val[first], val[-first] = True, False
                    v = abs(first)
                    level[v] = lvl
                    reason[v] = c
                    trail.append(first)
            del ws[j:]
        return None

    def analyze(confl: list) -> list:
        """The 1-UIP clause of a conflict, asserting literal first and a
        literal of the backjump level second."""
        cur = len(trail_lim)
        seen = set()
        learnt = [0]
        pending = 0
        idx = len(trail) - 1
        start = 0
        while True:
            for k in range(start, len(confl)):
                q = confl[k]
                v = abs(q)
                if v not in seen and level[v]:
                    seen.add(v)
                    if level[v] == cur:
                        pending += 1
                    else:
                        learnt.append(q)
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            idx -= 1
            pending -= 1
            if not pending:
                break
            confl = reason[abs(p)]
            start = 1
        learnt[0] = -p
        if len(learnt) > 1:
            top = max(range(1, len(learnt)), key=lambda k: level[abs(learnt[k])])
            learnt[1], learnt[top] = learnt[top], learnt[1]
        return learnt

    nxt = 1  # no variable below it is unassigned
    while True:
        confl = propagate()
        if confl is not None:
            if not trail_lim:
                return None
            learnt = analyze(confl)
            back = level[abs(learnt[1])] if len(learnt) > 1 else 0
            mark = trail_lim[back]
            for lit in trail[mark:]:
                val[lit] = val[-lit] = None
                v = abs(lit)
                reason[v] = None
                if v < nxt:
                    nxt = v
            del trail[mark:]
            del trail_lim[back:]
            qhead = mark
            lit = learnt[0]
            if len(learnt) > 1:
                watches[lit].append(learnt)
                watches[learnt[1]].append(learnt)
                reason[abs(lit)] = learnt
            val[lit], val[-lit] = True, False
            level[abs(lit)] = back
            trail.append(lit)
            continue
        while nxt <= n_vars and val[nxt] is not None:
            nxt += 1
        if nxt > n_vars:
            true_lits = {v if val[v] else -v for v in range(1, n_vars + 1)}
            assert all(not true_lits.isdisjoint(c) for c in clauses)
            return [None] + val[1:n_vars + 1]
        trail_lim.append(len(trail))
        val[nxt], val[-nxt] = False, True
        level[nxt] = len(trail_lim)
        trail.append(-nxt)
