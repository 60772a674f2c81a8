"""The seeded document and graph generators the benchmark draws from, over a
fixed vocabulary of relations, classes, nodes and shape names."""
from __future__ import annotations

import random
from typing import Iterable

from .rdf import Graph, Iri, RDF_TYPE, Triple
from . import shacl as sh

EX = "http://example.org/"
RELATIONS = tuple(Iri(EX + f"r{i}") for i in range(3))
CLASSES = tuple(Iri(EX + f"C{i}") for i in range(2))
NODES = tuple(Iri(EX + f"n{i}") for i in range(4))
SHAPE_NAMES = tuple(Iri(EX + f"s{i}") for i in range(6))


def _random_path(rng: random.Random, features: frozenset, depth: int = 0) -> sh.PathExpr:
    options = ["pred", "inverse"]
    if depth < 2:
        if "S" in features:
            options.append("seq")
        if "A" in features:
            options.append("alt")
        if "Z" in features:
            options.append("zeroOrOne")
        if "T" in features:
            options.append("star")
    kind = rng.choice(options)
    if kind == "pred":
        return sh.PredPath(rng.choice(RELATIONS))
    if kind == "inverse":
        return sh.InversePath(rng.choice(RELATIONS))
    if kind == "seq":
        return sh.SeqPath((_random_path(rng, features, depth + 1),
                           _random_path(rng, features, depth + 1)))
    if kind == "alt":
        return sh.AltPath((_random_path(rng, features, depth + 1),
                           _random_path(rng, features, depth + 1)))
    if kind == "zeroOrOne":
        return sh.ZeroOrOnePath(_random_path(rng, features, depth + 1))
    return sh.ZeroOrMorePath(_random_path(rng, features, depth + 1))


def _random_node_constraint(rng: random.Random, refs: list, depth: int) -> sh.Constraint:
    options = ["top", "hasValue", "class"]
    if refs:
        options += ["ref", "ref"]
    if depth < 2:
        options += ["not", "and", "or"]
    kind = rng.choice(options)
    if kind == "top":
        return sh.Top()
    if kind == "hasValue":
        return sh.HasValue(rng.choice(NODES))
    if kind == "class":
        return sh.ClassConstraint(rng.choice(CLASSES))
    if kind == "ref":
        return sh.Ref(rng.choice(refs))
    if kind == "not":
        return sh.Not(_random_node_constraint(rng, refs, depth + 1))
    items = tuple(_random_node_constraint(rng, refs, depth + 1) for _ in range(2))
    return sh.And(items) if kind == "and" else sh.Or(items)


def _random_property_constraint(rng: random.Random, refs: list, features: frozenset,
                                max_count: int) -> sh.Constraint:
    options = ["min", "some", "all"]
    if "C" in features:
        options += ["min2", "max"]
    if "D" in features:
        options += ["disjoint", "disjoint"]
    if refs and "C" in features:
        options.append("qualified")
    kind = rng.choice(options)
    if kind == "min":
        return sh.MinCount(1)
    if kind == "min2":
        return sh.MinCount(rng.randint(1, max_count))
    if kind == "max":
        return sh.MaxCount(rng.randint(0, max_count))
    if kind == "some":
        return sh.SomeValues(_random_node_constraint(rng, refs, 1))
    if kind == "all":
        return sh.AllValues(_random_node_constraint(rng, refs, 1))
    if kind == "disjoint":
        return sh.DisjointRel(rng.choice(RELATIONS))
    return sh.QualifiedValue(rng.choice(refs), min_count=rng.randint(1, max_count),
                             max_count=rng.choice([None, max_count]))


def random_document(rng: random.Random, max_shapes: int = 4,
                    features: Iterable[str] = ("S", "Z", "A", "D", "C"),
                    recursive: bool = False, max_count: int = 2) -> sh.Document:
    """A random document over the fixed vocabulary.  Non-recursive documents
    reference strictly later shapes; recursive generation retries until a
    reference cycle exists."""
    features = frozenset(features)
    for _ in range(64):
        n = rng.randint(1, max_shapes)
        names = list(SHAPE_NAMES[:n])
        shapes = []
        for i, name in enumerate(names):
            refs = names[i + 1:] if not recursive else names
            targets = []
            for _ in range(rng.randint(0, 2)):
                pick = rng.randrange(4)
                if pick == 0:
                    targets.append(sh.NodeTarget(rng.choice(NODES)))
                elif pick == 1:
                    targets.append(sh.ClassTarget(rng.choice(CLASSES)))
                elif pick == 2:
                    targets.append(sh.SubjectsOfTarget(rng.choice(RELATIONS)))
                else:
                    targets.append(sh.ObjectsOfTarget(rng.choice(RELATIONS)))
            if rng.random() < 0.5:
                path = _random_path(rng, features)
                parts: list[sh.Constraint] = []
                for _ in range(rng.randint(1, 2)):
                    part = _random_property_constraint(rng, refs, features, max_count)
                    # one counting-slot constraint per shape keeps the triple
                    # encoding faithful (a shape has one qualified-value slot)
                    if isinstance(part, (sh.QualifiedValue, sh.SomeValues)) and any(
                        isinstance(p, (sh.QualifiedValue, sh.SomeValues)) for p in parts
                    ):
                        continue
                    parts.append(part)
                constraint: sh.Constraint = parts[0] if len(parts) == 1 else sh.And(tuple(parts))
                shapes.append(sh.Shape(name, tuple(dict.fromkeys(targets)), path, constraint))
            else:
                constraint = _random_node_constraint(rng, refs, 0)
                shapes.append(sh.Shape(name, tuple(dict.fromkeys(targets)), None, constraint))
        doc = sh.Document(tuple(shapes))
        if recursive == sh.is_recursive(doc):
            return doc
    raise RuntimeError("could not generate a document with the requested recursion")


def random_graph(rng: random.Random, max_nodes: int = 4) -> Graph:
    """A graph over the first 1..max_nodes corpus nodes, where each possible
    edge and class membership holds with chance 1/4."""
    nodes = list(NODES[: rng.randint(1, max_nodes)])
    triples = []
    for rel in RELATIONS:
        for s in nodes:
            for o in nodes:
                if rng.random() < 0.25:
                    triples.append(Triple(s, rel, o))
    for s in nodes:
        for cls in CLASSES:
            if rng.random() < 0.25:
                triples.append(Triple(s, RDF_TYPE, cls))
    return Graph(triples)
