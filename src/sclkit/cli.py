"""Command-line front end: validate, translate, untranslate, classify, sat,
contains, template-sat, axiomatise, emit.

Exit codes: 0 definitive result, 2 unknown / budget exhausted, 1 error.
Reports are deterministic; --json switches to the machine-readable schema.
"""
from __future__ import annotations

import argparse
import json
import sys

from .rdf import Iri, parse_turtle, serialize_turtle, TurtleError
from .shacl import Document, DocumentError, document_from_graph, document_to_graph
from .scl import normalize, pretty
from .translate import TranslationError, tau, tau_inverse
from .semantics import SemanticsMode, validation_witness
from .decide import (
    DecisionError,
    SatResult,
    SearchBudget,
    bounded_sat,
    check_containment,
    classify,
    emit,
    shape_containment,
    template_sat,
)
from .filters import FilterAxiomError, bounded_axiomatisation, naive_axiomatisation

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_turtle(fh.read())


def _read_document(path: str) -> Document:
    return document_from_graph(_read_graph(path))


def _budget(args) -> SearchBudget:
    return SearchBudget(max_fresh=args.fresh, max_triples=args.triples,
                        max_seconds=args.seconds)


def _emit_report(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _sat_exit(result: SatResult) -> int:
    return EXIT_UNKNOWN if result.status == "unknown" else EXIT_OK


def cmd_validate(args) -> int:
    g = _read_graph(args.graph)
    m = _read_document(args.doc)
    mode = SemanticsMode(args.mode)
    witness = validation_witness(g, m, mode)
    valid = witness is not None
    payload = {"result": valid, "mode": mode.value}
    if valid:
        payload["witness_assignment"] = witness.to_json()
    _emit_report(args, payload, f"valid={'true' if valid else 'false'} ({mode.value})")
    return EXIT_OK


def cmd_translate(args) -> int:
    m = _read_document(args.doc)
    phi = tau(m)
    if args.normalize:
        phi = normalize(phi)
    text = pretty(phi)
    _emit_report(args, {"sentence": text}, text)
    return EXIT_OK


def cmd_untranslate(args) -> int:
    m = _read_document(args.doc)
    back = tau_inverse(tau(m))
    out = serialize_turtle(document_to_graph(back))
    _emit_report(args, {"document": out}, out)
    return EXIT_OK


def cmd_classify(args) -> int:
    m = _read_document(args.doc)
    verdict = classify(tau(m))
    text = (f"features={''.join(sorted(verdict.features.flags)) or 'base'} "
            f"recursive={'true' if verdict.features.recursive else 'false'} "
            f"decidability={verdict.decidability} "
            f"complexity={verdict.complexity or '-'} fmp={verdict.fmp}")
    _emit_report(args, verdict.to_json(), text)
    return EXIT_OK


def cmd_sat(args) -> int:
    m = _read_document(args.doc)
    mode = SemanticsMode(args.mode)
    result = bounded_sat(m, mode, _budget(args))
    payload = {**classify(tau(m)).to_json(), **result.to_json()}
    text = f"satisfiable={result.status}"
    if result.is_sat and result.witness_graph is not None:
        text += f" (witness: {len(result.witness_graph)} triples)"
    _emit_report(args, payload, text)
    return _sat_exit(result)


def cmd_contains(args) -> int:
    m1 = _read_document(args.doc1)
    m2 = _read_document(args.doc2)
    mode = SemanticsMode(args.mode)
    result = check_containment(m1, m2, mode, _budget(args))
    contained = {"sat": "false", "unsat": "true", "unknown": "unknown"}[result.status]
    payload = {"contained": contained, **result.to_json()}
    _emit_report(args, payload, f"contained={contained}")
    return _sat_exit(result)


def cmd_template_sat(args) -> int:
    m = _read_document(args.doc)
    name = Iri(args.template)
    if not m.has_shape(name):
        raise DecisionError(f"template shape {args.template} not found in the document")
    template = m.shape(name)
    if template.targets:
        raise DecisionError("the template shape must not carry targets")
    rest = Document(tuple(s for s in m.shapes if s.name != name))
    mode = SemanticsMode(args.mode)
    result = template_sat(rest, name, template.constraint, _budget(args), mode,
                          path=template.path)
    _emit_report(args, result.to_json(), f"template-satisfiable={result.status}")
    return _sat_exit(result)


def cmd_shape_contains(args) -> int:
    m = _read_document(args.doc)
    mode = SemanticsMode(args.mode)
    result = shape_containment(m, Iri(args.shape1), Iri(args.shape2), mode, _budget(args))
    contained = {"sat": "false", "unsat": "true", "unknown": "unknown"}[result.status]
    payload = {"contained": contained, **result.to_json()}
    _emit_report(args, payload, f"shape-contained={contained}")
    return _sat_exit(result)


def cmd_axiomatise(args) -> int:
    m = _read_document(args.doc)
    phi = tau(m)
    result = (naive_axiomatisation if args.mode == "naive" else bounded_axiomatisation)(phi)
    text = pretty(result.sentence)
    _emit_report(args, {"axiomatisation": text, "approximate": result.approximate}, text)
    return EXIT_OK


def cmd_emit(args) -> int:
    m = _read_document(args.doc)
    phi = tau(m)
    ax = None
    if args.axioms == "naive":
        ax = naive_axiomatisation(phi).sentence
    elif args.axioms == "bounded":
        ax = bounded_axiomatisation(phi).sentence
    print(emit(args.format, phi, ax), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1: argparse's 2 means unknown here
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sclkit",
        description="Shape documents as constraint logic: validation, "
                    "satisfiability, containment, classification.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    sub = parser.add_subparsers(dest="command", required=True)

    modes = [m.value for m in SemanticsMode]

    def add_budget(p) -> None:
        p.add_argument("--fresh", type=int, default=2, help="fresh elements (default 2)")
        p.add_argument("--triples", type=int, default=8, help="max triples (default 8)")
        p.add_argument("--seconds", type=float, default=30.0, help="time budget (default 30)")

    p = sub.add_parser("validate", help="validate a data graph against a shapes file")
    p.add_argument("--graph", required=True)
    p.add_argument("--doc", required=True)
    p.add_argument("--mode", choices=modes, default="brave-total")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("translate", help="compile shapes to a logic sentence")
    p.add_argument("--doc", required=True)
    p.add_argument("--normalize", action="store_true")
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("untranslate", help="round-trip shapes through the logic and back")
    p.add_argument("--doc", required=True)
    p.set_defaults(func=cmd_untranslate)

    p = sub.add_parser("classify", help="decidability verdict of the shapes' fragment")
    p.add_argument("--doc", required=True)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sat", help="bounded satisfiability search")
    p.add_argument("--doc", required=True)
    p.add_argument("--mode", choices=modes, default="brave-total")
    add_budget(p)
    p.set_defaults(func=cmd_sat)

    p = sub.add_parser("contains", help="bounded containment counterexample search")
    p.add_argument("--doc1", required=True)
    p.add_argument("--doc2", required=True)
    p.add_argument("--mode", choices=modes, default="brave-total")
    add_budget(p)
    p.set_defaults(func=cmd_contains)

    p = sub.add_parser("template-sat", help="satisfiability of a target-free template shape")
    p.add_argument("--doc", required=True)
    p.add_argument("--template", required=True, help="IRI of the template shape in the document")
    p.add_argument("--mode", choices=["brave-partial", "brave-total"], default="brave-total")
    add_budget(p)
    p.set_defaults(func=cmd_template_sat)

    p = sub.add_parser("shape-contains", help="containment between two shapes of one document")
    p.add_argument("--doc", required=True)
    p.add_argument("--shape1", required=True)
    p.add_argument("--shape2", required=True)
    p.add_argument("--mode", choices=["brave-partial", "brave-total"], default="brave-total")
    add_budget(p)
    p.set_defaults(func=cmd_shape_contains)

    p = sub.add_parser("axiomatise", help="filter axiomatisation of the shapes' sentence")
    p.add_argument("--doc", required=True)
    p.add_argument("--mode", choices=["naive", "bounded"], required=True)
    p.set_defaults(func=cmd_axiomatise)

    p = sub.add_parser("emit", help="first-order encoding for an external prover")
    p.add_argument("--doc", required=True)
    p.add_argument("--format", choices=["smtlib2", "tptp"], required=True)
    p.add_argument("--axioms", choices=["none", "naive", "bounded"], default="none")
    p.set_defaults(func=cmd_emit)

    return parser


# built on the first call and reused: building costs far more than parsing,
# and parse_args keeps no state from one call to the next
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (TurtleError, DocumentError, TranslationError, DecisionError,
            FilterAxiomError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
