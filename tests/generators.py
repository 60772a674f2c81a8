"""Seeded generators the property suites draw from beside `sclkit.corpus`:
filter combinations for the capacity suite, and the fragment witness
sentences the classifier tests run against.

Seeding honours the SCLKIT_SEED environment variable so suites are
reproducible but reseedable.
"""
from __future__ import annotations

import os
import random
from typing import Iterable

from sclkit.corpus import EX
from sclkit.filters import (
    DatatypeAtom,
    Eq,
    FilterCombination,
    KindAtom,
    LanguageTagAtom,
    MaxLengthAtom,
    MinLengthAtom,
    Nu,
    OrderCmp,
    Neg,
    Pos,
)
from sclkit.rdf import Iri, Literal, RDF_TYPE, XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER, XSD_STRING
from sclkit.scl import (
    ConstraintAxiom,
    PiAlt,
    PiSeq,
    PiStar,
    PiZeroOrOne,
    PsiCount,
    PsiDisjoint,
    PsiEq,
    PsiEquals,
    PsiExists,
    PsiNot,
    PsiOrder,
    PsiTop,
    RelAtom,
    RelStep,
    SclSentence,
    ShapeRel,
    TargetClassAxiom,
    TargetNodeAxiom,
    psi_and_all,
)

DEFAULT_SEED = 93281


def corpus_seed() -> int:
    return int(os.environ.get("SCLKIT_SEED", DEFAULT_SEED))


# --- filter combinations for the capacity suite -----------------------------------

_LIMITS = [Literal(str(v), XSD_INTEGER) for v in (-2, 0, 1, 5)] + [
    Literal("2.5", XSD_DECIMAL), Literal("true", XSD_BOOLEAN), Literal("b", XSD_STRING),
]
_DATATYPES = [XSD_INTEGER, XSD_DECIMAL, XSD_BOOLEAN, XSD_STRING,
              Iri(EX + "dt1"), Iri(EX + "dt2")]
_TAGS = ["en", "fr", "de"]
_KNOWN_CONSTANTS = (
    Literal("1", XSD_INTEGER), Literal("3", XSD_INTEGER), Literal("true", XSD_BOOLEAN),
    Literal("b", XSD_STRING), Iri(EX + "k0"),
)


def random_filter_combination(rng: random.Random) -> FilterCombination:
    """A bounded-alphabet combination (x=c, nu, F, not-F) whose per-type atom
    counts may exceed the capacity caps.  Order atoms always come with a
    positive datatype, the configuration the capacity lemmas cover."""
    conjuncts: list = []
    n_order = rng.choice([0, 0, 1, 2, 3, 4])
    ops = ["<", "<=", ">", ">="]
    for _ in range(n_order):
        atom = OrderCmp(rng.choice(ops), rng.choice(_LIMITS))
        conjuncts.append(Pos(atom) if rng.random() < 0.8 else Neg(atom))
    n_length = rng.choice([0, 0, 1, 2, 3])
    for _ in range(n_length):
        atom = rng.choice([MinLengthAtom(rng.randint(0, 4)), MaxLengthAtom(rng.randint(0, 4))])
        conjuncts.append(Pos(atom) if rng.random() < 0.7 else Neg(atom))
    if n_order or n_length:
        conjuncts.append(Pos(DatatypeAtom(rng.choice(_DATATYPES[:4]))))
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        atom = DatatypeAtom(rng.choice(_DATATYPES))
        conjuncts.append(Pos(atom) if rng.random() < 0.5 else Neg(atom))
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        atom = LanguageTagAtom(rng.choice(_TAGS))
        conjuncts.append(Pos(atom) if rng.random() < 0.5 else Neg(atom))
    for _ in range(rng.choice([0, 0, 1, 2, 3, 4])):
        kind = rng.choice(["IRI", "Literal", "BlankNode"])
        conjuncts.append(Pos(KindAtom(kind)) if rng.random() < 0.5 else Neg(KindAtom(kind)))
    pick = rng.random()
    if pick < 0.2:
        conjuncts.append(Eq(rng.choice(_KNOWN_CONSTANTS)))
    elif pick < 0.4:
        conjuncts.append(Nu())
    if not conjuncts:
        conjuncts.append(Pos(KindAtom("IRI")))
    return FilterCombination.of(conjuncts)


# --- fragment witness sentences ---------------------------------------------------

_R = [Iri(EX + f"rel{i}") for i in range(8)]
_TILES = [Iri(EX + "tileA"), Iri(EX + "tileB")]


def _rel(i: int, inverted: bool = False) -> RelAtom:
    return RelAtom(_R[i], inverted)


def feature_witness(letters: Iterable[str]) -> SclSentence:
    """A small well-formed sentence whose feature profile is exactly the
    requested letter set."""
    letters = frozenset(letters)
    parts = []
    path = RelStep(_rel(0))
    if "S" in letters:
        parts.append(PsiExists(PiSeq(RelStep(_rel(0)), RelStep(_rel(1))), PsiTop()))
    if "Z" in letters:
        parts.append(PsiExists(PiZeroOrOne(RelStep(_rel(0))), PsiTop()))
    if "A" in letters:
        parts.append(PsiExists(PiAlt(RelStep(_rel(0)), RelStep(_rel(1))), PsiTop()))
    if "T" in letters:
        parts.append(PsiExists(PiStar(RelStep(_rel(0))), PsiTop()))
    if "D" in letters:
        parts.append(PsiDisjoint(path, _rel(1)))
    if "E" in letters:
        parts.append(PsiEquals(path, _rel(1)))
    if "O" in letters:
        parts.append(PsiOrder(path, _rel(1), ">"))
    if "O'" in letters:
        parts.append(PsiOrder(path, _rel(1), "<"))
    if "C" in letters:
        parts.append(PsiCount(2, path, PsiTop()))
    rel = ShapeRel(Iri(EX + "witness"))
    return SclSentence((
        TargetNodeAxiom(rel, Iri(EX + "origin")),
        ConstraintAxiom(rel, psi_and_all(parts)),
    ))


def _grid_base(gamma) -> SclSentence:
    """The tiling-system skeleton shared by the undecidability witnesses:
    an origin carrying some tile, and per-tile axioms demanding compatible
    right/up neighbours plus the fragment-specific square-closing formula."""
    H, V = _rel(0), _rel(1)
    axioms = []
    origin = Iri(EX + "origin")
    for t, other in ((_TILES[0], _TILES[1]), (_TILES[1], _TILES[0])):
        tile_rel = ShapeRel(Iri(EX + f"tile-{t.value[-1]}"))
        body = psi_and_all([
            PsiNot(PsiExists(RelStep(RelAtom(RDF_TYPE)), PsiEq(other))),
            PsiNot(PsiExists(RelStep(H), PsiNot(PsiExists(RelStep(RelAtom(RDF_TYPE)), PsiEq(t))))),
            PsiNot(PsiExists(RelStep(V), PsiNot(PsiExists(RelStep(RelAtom(RDF_TYPE)), PsiEq(other))))),
            PsiExists(RelStep(H), PsiTop()),
            PsiExists(RelStep(V), PsiTop()),
            gamma,
        ])
        axioms.append(TargetClassAxiom(tile_rel, t))
        axioms.append(ConstraintAxiom(tile_rel, body))
    lead = ShapeRel(Iri(EX + "origin-shape"))
    axioms.append(TargetNodeAxiom(lead, origin))
    axioms.append(ConstraintAxiom(lead, PsiExists(RelStep(RelAtom(RDF_TYPE)), PsiEq(_TILES[0]))))
    return SclSentence(tuple(axioms))


def domino_witness(fragment: str) -> SclSentence:
    """Sentences in the shape of the undecidability reductions, one per
    undecidable core fragment."""
    H, V, D = _rel(0), _rel(1), _rel(2)
    hv = PiSeq(RelStep(H), RelStep(V))
    vh = PiSeq(RelStep(V), RelStep(H))
    if fragment == "SO":
        gamma = psi_and_all([
            PsiExists(RelStep(D), PsiTop()),
            PsiOrder(hv, D, "<="),
            PsiOrder(hv, D, ">="),
            PsiOrder(vh, D, "<="),
            PsiOrder(vh, D, ">="),
        ])
        return _grid_base(gamma)
    if fragment == "SAC":
        gamma = PsiNot(PsiCount(2, PiAlt(hv, vh), PsiTop()))
        return _grid_base(gamma)
    if fragment == "SEC":
        gamma = psi_and_all([
            PsiNot(PsiCount(2, RelStep(D), PsiTop())),
            PsiEquals(hv, D),
            PsiEquals(vh, D),
        ])
        return _grid_base(gamma)
    if fragment == "SEO'":
        gamma = psi_and_all([
            PsiOrder(RelStep(D), D, "<="),
            PsiEquals(hv, D),
            PsiEquals(vh, D),
        ])
        return _grid_base(gamma)
    if fragment == "SZAE":
        D0, D1, E0, E1 = _rel(3), _rel(4), _rel(5), _rel(6)
        d0_sym = PiAlt(RelStep(D0), RelStep(RelAtom(D0.name, True)))
        d1_sym = PiAlt(RelStep(D1), RelStep(RelAtom(D1.name, True)))
        gamma = psi_and_all([
            PsiEquals(PiAlt(RelStep(D0), RelStep(D1)), D),
            PsiEquals(PiAlt(hv, vh), D),
            PsiEquals(PiZeroOrOne(d0_sym), E0),
            PsiEquals(PiZeroOrOne(d1_sym), E1),
            PsiEquals(PiSeq(RelStep(E0), RelStep(E0)), E0),
            PsiEquals(PiSeq(RelStep(E1), RelStep(E1)), E1),
        ])
        return _grid_base(gamma)
    if fragment == "SE":
        # role-value-map flavour: compositions forced equal / different
        R0, P, Q = _rel(3), _rel(4), _rel(5)
        comp = PiSeq(RelStep(R0), RelStep(P))
        gamma = psi_and_all([
            PsiEquals(comp, Q),
            PsiNot(PsiEquals(PiSeq(RelStep(P), RelStep(Q)), R0)),
        ])
        return _grid_base(gamma)
    raise ValueError(f"no witness for fragment {fragment!r}")
