"""Reference checks for the verdicts the CLI prints.

Every reference starts from the files the CLI read, parsed back, not from the
generated objects: writing a document to Turtle and reading it back can change
it, and the CLI only ever sees the file.

- validate: tests/oracles.py brute force where the sign space is small enough
  to enumerate; otherwise, for non-recursive documents, the propagation search
  (the CLI takes the stratified path for those); otherwise unchecked.
- sat / contains / template-sat / shape-contains: a "sat" witness graph is
  re-validated with the interpreted validator (brute force where small).
  "unknown" makes no claim and is not checked.
- translate, untranslate, classify, axiomatise, emit: the output is well formed.
"""
from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from sclkit import shacl as sh
from sclkit.rdf import Iri, nodes_of, parse_turtle
from sclkit.semantics import SemanticsMode, validate

# largest number of sign combinations the brute-force oracle may enumerate
BRUTE_FORCE_LIMIT = 4096


class CheckFailed(Exception):
    pass


@lru_cache(maxsize=None)
def _graph(path: str):
    return parse_turtle(Path(path).read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def _document(path: str):
    return sh.document_from_graph(_graph(path))


def _enumerable(g, m, mode: SemanticsMode) -> bool:
    pairs = len(nodes_of(g, m)) * len(sh.eliminate_xone(m).names())
    return (2 if mode.total else 3) ** pairs <= BRUTE_FORCE_LIMIT


def _term(text: str):
    """A term printed in N-Triples form, read back."""
    return next(iter(parse_turtle(f"<urn:check:s> <urn:check:p> {text} ."))).object


class Checker:
    def __init__(self, oracles):
        self.oracles = oracles
        self.by_method: dict = {}

    def _count(self, method: str) -> None:
        self.by_method[method] = self.by_method.get(method, 0) + 1

    def _valid(self, g, m, mode: SemanticsMode) -> bool:
        """Reference validity; brute force when the sign space allows."""
        if _enumerable(g, m, mode):
            self._count("brute-force")
            return self.oracles.brute_force_validate(g, m, mode)
        self._count("interpreted")
        return validate(g, m, mode, use_fast_path=False)

    def check(self, op, stdout: str) -> bool:
        """True when checked, False when the output makes no checkable claim;
        raises CheckFailed on a wrong answer."""
        if op.command == "emit":
            if not stdout.strip():
                raise CheckFailed("empty encoding")
            self._count("well-formed")
            return True
        payload = json.loads(stdout)
        handler = getattr(self, "_" + op.command.replace("-", "_"))
        return handler(op, payload)

    def _validate(self, op, payload) -> bool:
        g, m = _graph(op.files["graph"]), _document(op.files["doc"])
        mode = SemanticsMode(op.mode)
        if sh.is_recursive(m) and not _enumerable(g, m, mode):
            return False
        want = self._valid(g, m, mode)
        if payload["result"] is not want:
            raise CheckFailed(f"valid={payload['result']}, reference says {want}")
        return True

    def _sat(self, op, payload) -> bool:
        if payload["result"] != "sat":
            return False
        g = parse_turtle(payload["witness_graph"])
        if not self._valid(g, _document(op.files["doc"]), SemanticsMode(op.mode)):
            raise CheckFailed("sat witness graph does not validate")
        return True

    def _contains(self, op, payload) -> bool:
        if payload["result"] != "sat":
            return False
        g = parse_turtle(payload["witness_graph"])
        mode = SemanticsMode(op.mode)
        if not self._valid(g, _document(op.files["doc1"]), mode):
            raise CheckFailed("counterexample does not validate against doc1")
        if self._valid(g, _document(op.files["doc2"]), mode):
            raise CheckFailed("counterexample validates against doc2")
        return True

    def _template_witness(self, payload, m, probe: sh.Shape) -> bool:
        if payload["result"] != "sat":
            return False
        g = parse_turtle(payload["witness_graph"])
        node = _term(payload["witness_node"])
        targeted = sh.Shape(probe.name, (sh.NodeTarget(node),), probe.path, probe.constraint)
        doc = sh.Document(tuple(s for s in m.shapes if s.name != probe.name) + (targeted,))
        if not self._valid(g, doc, SemanticsMode.BRAVE_TOTAL):
            raise CheckFailed(f"witness node {payload['witness_node']} does not conform")
        return True

    def _template_sat(self, op, payload) -> bool:
        m = _document(op.files["doc"])
        return self._template_witness(payload, m, m.shape(Iri(op.shape1)))

    def _shape_contains(self, op, payload) -> bool:
        m = _document(op.files["doc"])
        star = sh.NameMint(set(m.names())).fresh()
        probe = sh.Shape(star, (), None,
                         sh.And((sh.Ref(Iri(op.shape1)), sh.Not(sh.Ref(Iri(op.shape2))))))
        return self._template_witness(payload, m, probe)

    def _translate(self, op, payload) -> bool:
        if not payload["sentence"]:
            raise CheckFailed("empty sentence")
        self._count("well-formed")
        return True

    def _untranslate(self, op, payload) -> bool:
        sh.document_from_graph(parse_turtle(payload["document"]))
        self._count("well-formed")
        return True

    def _classify(self, op, payload) -> bool:
        if payload["verdict"] not in ("Decidable", "Undecidable", "Unknown"):
            raise CheckFailed(f"unexpected verdict {payload['verdict']!r}")
        self._count("well-formed")
        return True

    def _axiomatise(self, op, payload) -> bool:
        if "axiomatisation" not in payload:
            raise CheckFailed("no axiomatisation in the report")
        self._count("well-formed")
        return True
