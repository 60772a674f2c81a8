"""Seeded inputs for the four benchmark workloads.

Each generator writes its Turtle files under a work directory and returns a
Workload: the pool of CLI operations a run cycles through, plus a few cheap
warm-up operations.  The seed is the only source of randomness, so the same
seed gives byte-identical files and the same operation sequence.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from sclkit.corpus import CLASSES, NODES, RELATIONS, EX, random_document, random_graph
from sclkit.rdf import Graph, Iri, RDF_TYPE, Triple, serialize_turtle
from sclkit.semantics import SemanticsMode
from sclkit.shacl import document_to_graph

MODES = tuple(m.value for m in SemanticsMode)
RECURSIVE_FEATURES = ("S", "Z", "A", "D", "C")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its reference check needs."""
    command: str
    argv: tuple
    budget: Optional[float] = None   # the op's --seconds, if it takes one
    files: dict = field(default_factory=dict)   # role -> path read by the CLI
    mode: Optional[str] = None
    shape1: Optional[str] = None
    shape2: Optional[str] = None


@dataclass(frozen=True)
class Spec:
    """Per-workload constants.  `op_limit` is the benchmark's own ceiling on
    one op: past it the op is interrupted and counted as undecided.  For a
    budgeted op it sits well past --seconds + 0.5 s, so lateness still shows.
    `tail` is the latency percentile reported as latency_tail_ms, fixed per
    workload so runs stay comparable; each run has at least ten samples
    beyond it."""
    op_limit: float
    tail: float


SPECS = {
    "cli-mix": Spec(op_limit=10.0, tail=96.0),
    "validate-recursive": Spec(op_limit=0.1, tail=95.0),
    "sat-contains": Spec(op_limit=2.5, tail=90.0),
    "template-count": Spec(op_limit=2.5, tail=80.0),
}


@dataclass
class Workload:
    """`ops` is a sequence of rounds of `round_size` ops, each round the same
    mix of op kinds and sizes; a run's figures come from the whole rounds it
    completes, so every run weighs the same mix."""
    ops: list
    warmup: list
    round_size: int


class _Files:
    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def write(self, text: str, stem: str) -> str:
        self.count += 1
        path = self.root / f"{self.count:05d}-{stem}.ttl"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def document(self, m, stem: str = "doc") -> str:
        return self.write(serialize_turtle(document_to_graph(m)), stem)

    def graph(self, g: Graph, stem: str = "graph") -> str:
        return self.write(serialize_turtle(g), stem)


def _validate(doc: str, graph: str, mode: str) -> Op:
    return Op("validate", ("--json", "validate", "--graph", graph, "--doc", doc, "--mode", mode),
              files={"doc": doc, "graph": graph}, mode=mode)


# --- cli-mix ---------------------------------------------------------------------

# Data-graph sizes, in triples; the seed draws the triples, the ladder fixes
# the size mix so runs with different seeds compare.  It stops at 800: at 1600
# a valid (document, graph) pair costs three times an invalid one (the witness
# assignment is searched and serialised) and those ops took half of a run, so
# the number of valid pairs a seed drew moved the figures between seeds.  p96
# falls inside the cluster of invalid 800-triple validations.
GRAPH_LADDER = (25, 50, 100, 200, 400, 800)
# Several draws of each size: with one, the single 800-triple graph a seed
# drew set the cost of a third of the run and the seed moved ops_per_s by 20%.
GRAPHS_PER_SIZE = 6
# Each document gets two validations and three of the six compilation
# commands; twelve documents make a round, in which every (mode, size) pair
# is validated once and every command runs six times.
ROUND_DOCS = 12
# twelve rounds, so that each draw of the graphs serves two rounds per pass
CLI_MIX_DOCS = 12 * ROUND_DOCS
COMPILE_OPS = (
    ("translate",), ("untranslate",), ("classify",), ("axiomatise", "--mode", "naive"),
    ("emit", "--format", "smtlib2"), ("emit", "--format", "tptp"),
)


def _sized_graph(rng: random.Random, n_triples: int) -> Graph:
    """A graph of exactly n_triples over the corpus relations and classes,
    on the corpus nodes plus enough extra nodes for about four triples each."""
    extra = max(0, n_triples // 4 - len(NODES))
    nodes = list(NODES) + [Iri(EX + f"m{i}") for i in range(extra)]
    triples: set = set()
    while len(triples) < n_triples:
        s = rng.choice(nodes)
        if rng.random() < 0.2:
            triples.add(Triple(s, RDF_TYPE, rng.choice(CLASSES)))
        else:
            triples.add(Triple(s, rng.choice(RELATIONS), rng.choice(nodes)))
    return Graph(sorted(triples, key=lambda t: (t.subject.value, t.predicate.value, repr(t.object))))


def cli_mix(seed: int, files: _Files, scale: float = 1.0) -> Workload:
    rng = random.Random(seed)
    docs = [files.document(random_document(rng, max_shapes=4, recursive=False, max_count=2))
            for _ in range(max(2, int(CLI_MIX_DOCS * scale)))]
    ladder = GRAPH_LADDER if scale >= 1 else GRAPH_LADDER[:3]
    draws = max(1, int(GRAPHS_PER_SIZE * scale))
    graphs = [[files.graph(_sized_graph(rng, n), f"graph{n}") for n in ladder]
              for _ in range(draws)]
    per_round = 2 * ROUND_DOCS
    ops = []
    for i, doc in enumerate(docs):
        for j in (2 * i, 2 * i + 1):
            graph = graphs[j // per_round % draws][j // len(MODES) % len(ladder)]
            ops.append(_validate(doc, graph, MODES[j % len(MODES)]))
        for k in range(3):
            extra = COMPILE_OPS[(3 * i + k) % len(COMPILE_OPS)]
            ops.append(Op(extra[0], ("--json", extra[0], "--doc", doc) + extra[1:],
                          files={"doc": doc}))
    warmup = [_validate(docs[0], graphs[0][0], MODES[0]), ops[2]]
    return Workload(ops, warmup, round_size=5 * ROUND_DOCS)


# --- validate-recursive ----------------------------------------------------------

RECURSIVE_INSTANCES = 800


def validate_recursive(seed: int, files: _Files, scale: float = 1.0) -> Workload:
    """The acceptance corpus generator's parameters; every drawn instance is
    kept, each validated in all four modes."""
    rng = random.Random(seed)
    ops = []
    for _ in range(max(2, int(RECURSIVE_INSTANCES * scale))):
        m = random_document(rng, max_shapes=3, features=RECURSIVE_FEATURES,
                            recursive=True, max_count=2)
        g = random_graph(rng, max_nodes=4)
        doc, graph = files.document(m), files.graph(g)
        ops.extend(_validate(doc, graph, mode) for mode in MODES)
    return Workload(ops, ops[:1], round_size=len(MODES))


# --- sat-contains ----------------------------------------------------------------

SAT_DOCS = 250
SAT_BUDGET = 0.05


def _budgeted(command: str, argv: tuple, budget: float, **kw) -> Op:
    return Op(command, ("--json", command) + argv + ("--seconds", str(budget)), budget=budget, **kw)


def sat_contains(seed: int, files: _Files, scale: float = 1.0) -> Workload:
    rng = random.Random(seed)
    docs = [files.document(random_document(rng, max_shapes=2, features=("Z", "A", "D", "C")))
            for _ in range(max(2, int(SAT_DOCS * scale)))]
    ops = []
    for i, doc in enumerate(docs):
        other = docs[(i + 1) % len(docs)]
        for mode in ("brave-total", "cautious-total"):
            ops.append(_budgeted("sat", ("--doc", doc, "--mode", mode), SAT_BUDGET,
                                 files={"doc": doc}, mode=mode))
            ops.append(_budgeted("contains", ("--doc1", doc, "--doc2", other, "--mode", mode),
                                 SAT_BUDGET, files={"doc1": doc, "doc2": other}, mode=mode))
    warmup = [_budgeted("sat", ("--doc", docs[0]), 0.01, files={"doc": docs[0]}, mode="brave-total")]
    return Workload(ops, warmup, round_size=4)


# --- template-count --------------------------------------------------------------

TEMPLATE_BUDGET = 0.2
TEMPLATE = "http://example.org/T"
PREFIXES = ("@prefix ex: <http://example.org/> .\n"
            "@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n")


def _names(rng: random.Random, stem: str, k: int) -> list:
    return [f"ex:{stem}{i}" for i in rng.sample(range(100), k)]


def _count_family(rng: random.Random, n: int, k: int) -> str:
    """(a) satisfiable: k qualified r-successors in a class, n target constants."""
    consts = ", ".join(_names(rng, "c", n))
    cls_a, cls_s = _names(rng, "C", 2)
    rel = _names(rng, "r", 1)[0]
    return PREFIXES + (
        f"ex:A a sh:NodeShape ; sh:targetNode {consts} ; sh:class {cls_a} .\n"
        f"ex:S a sh:NodeShape ; sh:class {cls_s} .\n"
        f"ex:T a sh:PropertyShape ; sh:path {rel} ; sh:qualifiedValueShape ex:S ; "
        f"sh:qualifiedMinCount {k} .\n")


def _contradiction_family(rng: random.Random, n: int, k: int) -> str:
    """(b) unsatisfiable: at most k-1 r-values, yet k outside a class."""
    consts = ", ".join(_names(rng, "c", n))
    cls_a, cls_k = _names(rng, "C", 2)
    rel = _names(rng, "r", 1)[0]
    return PREFIXES + (
        f"ex:A a sh:NodeShape ; sh:targetNode {consts} ; sh:class {cls_a} .\n"
        f"ex:K a sh:NodeShape ; sh:class {cls_k} .\n"
        f"ex:N a sh:NodeShape ; sh:not ex:K .\n"
        f"ex:T a sh:PropertyShape ; sh:path {rel} ; sh:maxCount {k - 1} ; "
        f"sh:qualifiedValueShape ex:N ; sh:qualifiedMinCount {k} .\n")


def _filter_family(rng: random.Random, n_filters: int) -> str:
    """(c) filter shapes (datatype, order bounds, lengths, languageIn); the
    template requires the first of them."""
    cls = _names(rng, "C", 2)
    rels = _names(rng, "r", 3)
    lo = rng.randint(0, 5)
    hi = lo + rng.randint(2, 8)
    short = rng.randint(0, 2)
    tags = " ".join(f'"{t}"' for t in rng.sample(["en", "de", "fr", "es"], 2))
    kinds = [
        f"sh:datatype xsd:integer ; sh:minInclusive {lo} ; sh:maxExclusive {hi}",
        f"sh:minLength {short} ; sh:maxLength {short + rng.randint(1, 3)}",
        f"sh:languageIn ( {tags} )",
        f"sh:datatype xsd:string ; sh:maxLength {rng.randint(1, 4)}",
        f"sh:maxInclusive {hi}",
    ]
    lines = []
    for i in range(n_filters):
        target = f"sh:targetClass {cls[i % 2]} ; " if i < 2 else ""
        lines.append(f"ex:F{i} a sh:PropertyShape ; {target}sh:path {rels[i % 3]} ; {kinds[i]} .")
    lines.append("ex:T a sh:NodeShape ; sh:node ex:F0 .")
    return PREFIXES + "\n".join(lines) + "\n"


# (family, parameters, the shape that shape-contains tests ex:T against); the
# seed draws the vocabulary and filter bounds, the table fixes the sizes.  The
# same op's cost varies up to twofold from one process to the next even at a
# fixed hash seed, so a percentile is only steady inside a band of many ops of
# nearby cost: with a gap or a cluster edge at the percentile, it jumped by a
# sixth to a quarter between runs.  The rows fill one band around the median
# and one around the p80 (the tail percentile, see SPECS).  The contradiction
# row runs past its budget (late_ratio).  It keeps one target constant: with
# two, how long DPLL takes on shape-contains depends on the process's
# string-hash seed (0.2 s, or past the op limit).
TEMPLATE_TABLE = (
    # under 30 ms
    ("count", (3, 2), "A"), ("count", (5, 1), "S"), ("count", (4, 4), "A"),
    ("count", (6, 1), "S"), ("count", (5, 3), "A"), ("count", (6, 2), "S"),
    ("filters", (1,), "F0"), ("count", (7, 2), "A"), ("count", (6, 3), "S"),
    ("count", (6, 5), "A"),
    # 30-70 ms: the median
    ("count", (7, 3), "S"), ("count", (7, 4), "A"), ("count", (7, 5), "S"),
    ("count", (10, 2), "A"), ("count", (11, 2), "S"), ("count", (7, 6), "A"),
    ("count", (9, 3), "S"), ("count", (8, 3), "A"),
    # 80-160 ms: the p80
    ("count", (8, 6), "S"), ("count", (10, 3), "A"), ("count", (10, 3), "S"),
    ("count", (8, 4), "A"), ("count", (8, 5), "S"), ("count", (8, 5), "A"),
    ("count", (11, 3), "S"), ("count", (11, 3), "A"), ("count", (9, 4), "S"),
    ("count", (9, 4), "A"),
    # 0.2-1 s
    ("filters", (2,), "F1"), ("contradiction", (1, 2), "A"),
)
TEMPLATE_ROUNDS = 3


def template_count(seed: int, files: _Files, scale: float = 1.0) -> Workload:
    rng = random.Random(seed)
    families = {"count": _count_family, "contradiction": _contradiction_family,
                "filters": _filter_family}
    ops = []
    rounds = max(1, int(TEMPLATE_ROUNDS * scale))
    table = TEMPLATE_TABLE if scale >= 1 else TEMPLATE_TABLE[::3]
    # a stride coprime to the table size interleaves the families, so a run
    # that stops part-way through a round still sees every cost class
    order = [table[(i * 7) % len(table)] for i in range(len(table))]
    for _ in range(rounds):
        for family, params, other in order:
            doc = files.write(families[family](rng, *params), family)
            ops.append(_budgeted("template-sat", ("--doc", doc, "--template", TEMPLATE),
                                 TEMPLATE_BUDGET, files={"doc": doc}, shape1=TEMPLATE))
            other = "http://example.org/" + other
            ops.append(_budgeted("shape-contains",
                                 ("--doc", doc, "--shape1", TEMPLATE, "--shape2", other),
                                 TEMPLATE_BUDGET, files={"doc": doc}, shape1=TEMPLATE, shape2=other))
    warm = files.write(_count_family(rng, 1, 1), "warmup")
    warmup = [_budgeted("template-sat", ("--doc", warm, "--template", TEMPLATE),
                        TEMPLATE_BUDGET, files={"doc": warm}, shape1=TEMPLATE)]
    return Workload(ops, warmup, round_size=2 * len(order))


GENERATORS = {
    "cli-mix": cli_mix,
    "validate-recursive": validate_recursive,
    "sat-contains": sat_contains,
    "template-count": template_count,
}


def build(name: str, seed: int, root: Path, scale: float = 1.0) -> Workload:
    root.mkdir(parents=True, exist_ok=True)
    return GENERATORS[name](seed, _Files(root), scale)
