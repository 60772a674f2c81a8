import argparse
import json
import os
import random
import time

import pytest

from sclkit.cli import build_parser, main
from sclkit.corpus import random_graph
from sclkit.rdf import parse_turtle
from sclkit.semantics import SemanticsMode, validation_witness
from sclkit.shacl import document_from_graph

HERE = os.path.dirname(__file__)


def fx(name):
    return os.path.join(HERE, "fixtures", name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys):
    code, out, _ = run(capsys, "validate", "--graph", fx("fig1-graph.ttl"),
                       "--doc", fx("fig1-shapes.ttl"), "--mode", "brave-total")
    assert code == 0
    assert "valid=true" in out
    code, out, _ = run(capsys, "validate", "--graph", fx("fig1-graph-invalid.ttl"),
                       "--doc", fx("fig1-shapes.ttl"), "--mode", "cautious-partial")
    assert code == 0
    assert "valid=false" in out


def test_validate_json_deterministic(capsys):
    args = ("--json", "validate", "--graph", fx("fig1-graph.ttl"), "--doc", fx("fig1-shapes.ttl"))
    code, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert code == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["result"] is True
    assert report["mode"] == "brave-total"
    # the witness assignment maps nodes to signed shape names
    alex = report["witness_assignment"]["<http://ex/Alex>"]
    assert "+http://ex/studentShape" in alex
    assert "-http://ex/disjFacultyShape" in alex


def test_translate_pretty(capsys):
    code, out, _ = run(capsys, "translate", "--doc", fx("fig1-shapes.ttl"))
    assert code == 0
    assert "Σ" in out and "↔" in out
    code, out, _ = run(capsys, "translate", "--doc", fx("fig1-shapes.ttl"), "--normalize")
    assert code == 0


def test_untranslate_roundtrip(capsys):
    code, out, _ = run(capsys, "untranslate", "--doc", fx("fig1-shapes.ttl"))
    assert code == 0
    assert "disjoint" in out and "targetClass" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "--json", "classify", "--doc", fx("fig1-shapes.ttl"))
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "Decidable"
    assert report["complexity"] == "2ExpTime"
    assert report["fmp"] == "Yes"
    assert report["features"] == ["D", "S"]
    assert report["witnesses"]
    assert report["semantics"] == "total"


def test_sat_json_schema(capsys):
    code, out, _ = run(capsys, "--json", "sat", "--doc", fx("fig1-shapes.ttl"),
                       "--triples", "2", "--fresh", "1")
    assert code == 0
    report = json.loads(out)
    assert {"verdict", "complexity", "fmp", "witnesses", "result", "approximate"} <= set(report)
    assert report["result"] == "sat"
    assert "witness_graph" in report


def test_sat_definitive_and_unknown_exit_codes(capsys):
    code, out, _ = run(capsys, "sat", "--doc", fx("fig1-shapes.ttl"),
                       "--triples", "2", "--fresh", "1")
    assert code == 0
    assert "satisfiable=sat" in out
    code, out, _ = run(capsys, "sat", "--doc", fx("template.ttl"),
                       "--triples", "1", "--fresh", "1", "--mode", "brave-total")
    assert code == 0  # empty graph satisfies the untargeted document
    code, out, _ = run(capsys, "--json", "template-sat", "--doc", fx("template.ttl"),
                       "--template", "http://ex/probe", "--fresh", "1", "--seconds", "20")
    assert code == 2
    assert json.loads(out)["result"] == "unknown"


def test_contains(capsys):
    code, out, _ = run(capsys, "contains", "--doc1", fx("filtered.ttl"),
                       "--doc2", fx("filtered.ttl"), "--triples", "2", "--fresh", "1",
                       "--seconds", "10")
    assert code == 2  # no counterexample found, honestly unknown
    assert "contained=unknown" in out


def test_shape_contains(capsys):
    code, out, _ = run(capsys, "shape-contains", "--doc", fx("fig1-shapes.ttl"),
                       "--shape1", "http://ex/studentShape", "--shape2", "http://ex/studentShape",
                       "--fresh", "1")
    assert code == 2
    assert "shape-contained=unknown" in out  # no witness against self-containment


def test_template_sat_json_is_hash_seed_independent():
    import subprocess
    import sys

    import sclkit

    src = os.path.dirname(os.path.dirname(sclkit.__file__))
    argv = [sys.executable, "-m", "sclkit.cli", "--json", "template-sat",
            "--doc", fx("count-contradiction.ttl"), "--template", "http://ex/T"]
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(argv, env=env, capture_output=True, timeout=60)
        assert done.returncode == 2, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["reason"] == "no model within budget"


def _json_commands() -> list:
    """Every command on small fixtures, as `--json` argument lists."""
    fig1 = ("--doc", fx("fig1-shapes.ttl"))
    return [
        *(("validate", "--graph", fx("fig1-graph.ttl"), *fig1, "--mode", mode)
          for mode in ("brave-partial", "brave-total", "cautious-partial", "cautious-total")),
        ("sat", *fig1, "--triples", "2", "--fresh", "1"),
        ("sat", "--doc", fx("refutable.ttl")),
        ("contains", "--doc1", fx("fig1-shapes.ttl"), "--doc2", fx("filtered.ttl"),
         "--triples", "2", "--fresh", "1"),
        ("contains", "--doc1", fx("refutable.ttl"), "--doc2", fx("fig1-shapes.ttl")),
        ("classify", *fig1),
        ("template-sat", "--doc", fx("template.ttl"), "--template", "http://ex/probe", "--fresh", "1"),
        ("shape-contains", *fig1, "--shape1", "http://ex/studentShape",
         "--shape2", "http://ex/disjFacultyShape", "--fresh", "1"),
    ]


def _json_under_hash_seeds(commands: list) -> list:
    """The `--json` output and exit codes of the commands, run in one
    subprocess per hash seed, 0 and 1."""
    import subprocess
    import sys

    import sclkit

    src = os.path.dirname(os.path.dirname(sclkit.__file__))
    driver = ("import json, sys\nfrom sclkit.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n    print('exit', main(['--json', *argv]))\n")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", driver, json.dumps(commands)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("exit ") == len(commands)
        outs.append(done.stdout)
    return outs


def test_json_output_is_hash_seed_independent():
    # value classes hash their fields, whose strings hash by PYTHONHASHSEED,
    # so set iteration order follows it; no command's output may follow it
    outs = _json_under_hash_seeds(_json_commands())
    assert outs[0] == outs[1]


def test_sat_and_contains_json_is_hash_seed_independent(tmp_path):
    # sat-contains' own documents: answers refutation gives and answers the
    # search decides; one triple and one fresh node bound every search, so
    # none is cut by the clock
    import random

    from sclkit.corpus import random_document
    from sclkit.rdf import serialize_turtle
    from sclkit.shacl import document_to_graph

    rng = random.Random(3)
    docs = []
    for i in range(16):
        m = random_document(rng, max_shapes=2, features=("Z", "A", "D", "C"))
        (tmp_path / f"d{i}.ttl").write_text(serialize_turtle(document_to_graph(m)), encoding="utf-8")
        docs.append(str(tmp_path / f"d{i}.ttl"))
    budget = ("--triples", "1", "--fresh", "1")
    commands = [argv for i, doc in enumerate(docs) for mode in ("brave-total", "cautious-partial")
                for argv in (("sat", "--doc", doc, "--mode", mode, *budget),
                             ("contains", "--doc1", doc, "--doc2", docs[i - 1], "--mode", mode, *budget))]
    outs = _json_under_hash_seeds(commands)
    assert outs[0] == outs[1]
    assert outs[0].count('"result": "unsat"') >= 8 and outs[0].count('"result": "sat"') >= 8
    assert "time budget exhausted" not in outs[0]


def test_json_output_is_independent_of_term_addresses(capsys, tmp_path):
    # terms hash by identity, so set iteration order follows where they sit
    # in memory; a second run, after the first run's terms are freed and
    # their memory taken by unrelated objects, must print the same bytes.
    # The fixtures' IRIs move to a namespace of their own, which no other
    # test keeps alive.
    import gc

    from sclkit import rdf
    from sclkit.semantics import compile_document

    def private(arg: str) -> str:
        if os.path.isfile(arg):
            copy = tmp_path / os.path.basename(arg)
            with open(arg, encoding="utf-8") as f:
                copy.write_text(f.read().replace("http://ex/", "http://ex/addresses/"), encoding="utf-8")
            return str(copy)
        return arg.replace("http://ex/", "http://ex/addresses/")

    commands = [[private(arg) for arg in argv] for argv in _json_commands()]

    def run() -> tuple:
        exits = [main(["--json", *argv]) for argv in commands]
        return capsys.readouterr().out, exits

    def addresses() -> dict:
        return {key: id(term) for key, entry in rdf._TERMS.copy().items() if (term := entry()) is not None}

    first = run()
    cached = addresses()
    compile_document.cache_clear()  # the only cache that holds terms
    gc.collect()
    kept = addresses()
    freed = {key: at for key, at in cached.items() if key not in kept}
    ballast = [(n,) * size for n in range(20_000) for size in range(1, 7)]  # noqa: F841
    second = run()
    assert second == first
    assert len(first[1]) == len(commands) and "addresses" in first[0]
    again = addresses()
    remade = [key for key in freed if key in again]
    moved = sum(again[key] != freed[key] for key in remade)
    assert remade and moved > len(remade) // 2


def test_deep_nesting_is_an_error_not_a_crash(tmp_path):
    import subprocess
    import sys

    import sclkit

    pre = "@prefix : <http://ex/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    shapes = tmp_path / "deep.ttl"
    shapes.write_text(pre + ":s a sh:NodeShape ; sh:targetNode :a ; sh:not "
                      + "[ sh:not " * 1200 + ":t" + " ]" * 1200 + " .")
    src = os.path.dirname(os.path.dirname(sclkit.__file__))
    # a path that contains itself is nested without end
    for doc, error in ((str(shapes), "error: brackets nested deeper"),
                       (fx("cyclic-path.ttl"), "error: sh:path nested deeper than 128")):
        argv = [sys.executable, "-m", "sclkit.cli", "validate",
                "--graph", fx("fig1-graph.ttl"), "--doc", doc]
        done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        assert error in done.stderr
        assert "Traceback" not in done.stderr


def test_deepest_accepted_nesting_runs_every_command(capsys, tmp_path):
    from sclkit.rdf import MAX_NESTING

    pre = "@prefix : <http://ex/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    half = MAX_NESTING // 2

    def members(prefix, n):
        return " ".join(f"{prefix}{i}" for i in range(n))

    documents = {
        "not": ":s a sh:NodeShape ; sh:targetNode :a ; sh:not "
               + "[ sh:not " * MAX_NESTING + ":s" + " ]" * MAX_NESTING + " .",
        "property": ":s a sh:NodeShape ; sh:targetNode :a ; sh:property "
                    + "[ sh:path :p ; sh:node [ sh:property " * (half - 1)
                    + "[ sh:path [ sh:zeroOrMorePath :p ] ; sh:node :s ]"
                    + " ] ]" * (half - 1) + " .",
        # SHACL lists are n-ary and SCL's joins binary: long lists, and the
        # long chains of shapes that sh:xone and sh:node make
        "in": ":s a sh:NodeShape ; sh:targetNode :a ; sh:in ( " + members(":v", 400) + " ) .",
        "or": ":s a sh:NodeShape ; sh:targetNode :a ; sh:or ( " + members(":m", 400) + " ) .",
        "and": ":s a sh:NodeShape ; sh:targetNode :a ; sh:and ( " + members(":m", 1200) + " ) .",
        "xone": ":s a sh:NodeShape ; sh:targetNode :a ; sh:xone ( " + members(":m", 1100) + " ) .",
        "node chain": ":s a sh:NodeShape ; sh:targetNode :a ; sh:node :m0 . "
                      + " ".join(f":m{i} sh:node :m{i + 1} ." for i in range(1199)),
    }
    graph = tmp_path / "graph.ttl"
    graph.write_text(pre + ":a :p :b . :b :p :a .")
    budget = ("--fresh", "0", "--triples", "1", "--seconds", "0.2")
    for name, body in documents.items():
        doc = tmp_path / f"{name}.ttl"
        doc.write_text(pre + body + " :T a sh:NodeShape ; sh:node :s .")
        d = str(doc)
        commands = [
            ("validate", "--graph", str(graph), "--doc", d, "--mode", "cautious-partial"),
            ("translate", "--normalize", "--doc", d),
            ("untranslate", "--doc", d),
            ("classify", "--doc", d),
            ("sat", "--doc", d, "--mode", "brave-partial") + budget,
            ("contains", "--doc1", d, "--doc2", d) + budget,
            ("template-sat", "--doc", d, "--template", "http://ex/T",
             "--mode", "brave-partial") + budget,
            ("axiomatise", "--doc", d, "--mode", "bounded"),
            ("emit", "--doc", d, "--format", "tptp"),
        ]
        for argv in commands:
            code, _, err = run(capsys, "--json", *argv)
            assert code in (0, 1, 2), (name, argv)
            assert "nested deeper" not in err
    # a closed shape forbids each of the graph's 1,100 predicates
    closed = tmp_path / "closed.ttl"
    closed.write_text(pre + ":s a sh:NodeShape ; sh:targetNode :a ; sh:closed true .")
    graph.write_text(pre + " ".join(f":a :p{i} :b ." for i in range(1100)))
    code, out, _ = run(capsys, "--json", "validate", "--graph", str(graph), "--doc", str(closed))
    assert code == 0 and json.loads(out)["result"] is False


def test_nested_closures_translate_to_one_closure(capsys, tmp_path):
    # π+ holds π twice, so 127 directly nested sh:oneOrMorePath, the deepest
    # the reader takes, would hold 2^127 copies of the step if not collapsed
    from sclkit.rdf import MAX_NESTING

    pre = "@prefix : <http://ex/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
    k = MAX_NESTING - 1
    doc = tmp_path / "nested.ttl"
    doc.write_text(pre + ":s a sh:NodeShape ; sh:targetNode :a ; sh:property [ sh:path "
                   + "[ sh:oneOrMorePath " * k + ":p" + " ]" * k + " ; sh:minCount 2 ] .")
    graph = tmp_path / "graph.ttl"
    graph.write_text(pre + ":a :p :b . :b :p :a .")
    d = str(doc)
    started = time.perf_counter()
    for argv in (("translate", "--doc", d), ("untranslate", "--doc", d), ("classify", "--doc", d),
                 ("validate", "--graph", str(graph), "--doc", d)):
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        assert len(out) < 10_000, argv
    for fmt in ("smtlib2", "tptp"):
        code, _, err = run(capsys, "emit", "--doc", d, "--format", fmt)
        assert code == 1 and "transitive closure is not first-order expressible" in err
    assert time.perf_counter() - started < 2.0
    code, out, _ = run(capsys, "--json", "validate", "--graph", str(graph), "--doc", d)
    assert json.loads(out)["result"] is True  # :a reaches :b and itself


def test_closures_nested_through_a_sequence_untranslate_linearly(capsys):
    # the sentence holds π·π* at each of 14 levels, 2^14 copies of the
    # innermost step in all; untranslate reads each π·π* back as one closure
    d = fx("nested-sequence-closure.ttl")
    started = time.perf_counter()
    code, out, _ = run(capsys, "untranslate", "--doc", d)
    assert time.perf_counter() - started < 1.0
    assert code == 0 and len(out) < 10_000 and out.count("oneOrMorePath") == 14
    with open(d, encoding="utf-8") as fh:
        m = document_from_graph(parse_turtle(fh.read()))
    back = document_from_graph(parse_turtle(out))
    rng = random.Random(31)
    seen = set()
    for _ in range(20):
        g = random_graph(rng)
        for mode in SemanticsMode:
            valid = validation_witness(g, m, mode) is not None
            assert (validation_witness(g, back, mode) is not None) == valid, mode
            seen.add(valid)
    assert seen == {True, False}

def test_axiomatise(capsys):
    code, out, _ = run(capsys, "axiomatise", "--doc", fx("filtered.ttl"), "--mode", "bounded")
    assert code == 0
    assert "∃≤" in out
    code, out, _ = run(capsys, "axiomatise", "--doc", fx("filtered.ttl"), "--mode", "naive")
    assert code == 0


def test_axiomatise_rejects_patterns_past_the_automaton_caps(tmp_path, capsys):
    doc = tmp_path / "doc.ttl"
    for pattern, want in (("a{1000}", 0), ("a.{20}", 1), ("a{100000}", 1)):
        doc.write_text("@prefix sh: <http://www.w3.org/ns/shacl#> . @prefix : <http://ex/> .\n"
                       f':s a sh:NodeShape ; sh:targetClass :C ; sh:pattern "{pattern}" .')
        code, _, err = run(capsys, "axiomatise", "--doc", str(doc), "--mode", "naive")
        assert code == want, (pattern, err)
        assert ("states in pattern" in err) == (want == 1), err


def test_emit(capsys):
    code, out, _ = run(capsys, "emit", "--doc", fx("fig1-shapes.ttl"), "--format", "smtlib2")
    assert code == 0
    assert out.startswith("(set-logic UF)")
    code, out, _ = run(capsys, "emit", "--doc", fx("filtered.ttl"), "--format", "tptp",
                       "--axioms", "bounded")
    assert code == 0
    assert "fof(" in out


def test_order_atoms_without_filters_are_still_an_error(capsys, tmp_path):
    # template search skips the filter axiomatisation when there are no
    # filters, but the property-pair order atoms it cannot treat still fail
    doc = tmp_path / "order.ttl"
    doc.write_text(
        "@prefix ex: <http://example.org/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "ex:S a sh:NodeShape ; sh:targetNode ex:a ; sh:property [ sh:path ex:p ; sh:lessThan ex:q ] .\n"
        "ex:T a sh:NodeShape ; sh:node ex:S .\n", encoding="utf-8")
    for argv in (("template-sat", "--doc", str(doc), "--template", "http://example.org/T"),
                 ("shape-contains", "--doc", str(doc), "--shape1", "http://example.org/S",
                  "--shape2", "http://example.org/T")):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "property-pair order atoms" in err


def test_witness_lists_no_axiomatisation_shape(capsys, tmp_path):
    # the filter axiomatisation's own shape urn:sclkit:nu is not a shape of
    # the document, so no witness assignment names it
    doc = tmp_path / "filters.ttl"
    doc.write_text(
        "@prefix ex: <http://example.org/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        "ex:F0 a sh:PropertyShape ; sh:targetClass ex:C0 ; sh:path ex:r0 ;"
        " sh:datatype xsd:integer ; sh:minInclusive 1 ; sh:maxExclusive 4 .\n"
        "ex:F1 a sh:PropertyShape ; sh:targetClass ex:C1 ; sh:path ex:r1 ;"
        " sh:minLength 0 ; sh:maxLength 2 .\n"
        "ex:R a sh:NodeShape ; sh:property [ sh:path ex:r2 ; sh:node ex:R ] .\n"
        "ex:A a sh:NodeShape ; sh:class ex:C0 .\n"
        "ex:T a sh:NodeShape ; sh:node ex:F0 .\n", encoding="utf-8")
    cases = [("template-sat", "--template", "http://example.org/T"),
             ("shape-contains", "--shape1", "http://example.org/T",
              "--shape2", "http://example.org/F1"),
             # a cyclic sentence without filters
             ("shape-contains", "--shape1", "http://example.org/R",
              "--shape2", "http://example.org/A")]
    for command, *rest in cases:
        code, out, _ = run(capsys, "--json", command, "--doc", str(doc), *rest)
        report = json.loads(out)
        assert (code, report["result"]) == (0, "sat")
        labels = [label for node in report["witness_assignment"].values() for label in node]
        assert labels
        assert not any("urn:sclkit:nu" in label for label in labels)


def test_template_sat_out_of_time_reports_approximate(capsys, tmp_path):
    # a length window has too many members to count, so the axiomatisation is
    # approximate, whether the search ends in time or not
    doc = tmp_path / "lengths.ttl"
    doc.write_text(
        "@prefix ex: <http://example.org/> .\n@prefix sh: <http://www.w3.org/ns/shacl#> .\n"
        "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        "ex:F a sh:PropertyShape ; sh:targetClass ex:C ; sh:path ex:p ; sh:datatype xsd:string ;"
        " sh:minLength 1 ; sh:maxLength 3 .\nex:T a sh:NodeShape ; sh:node ex:F .\n",
        encoding="utf-8")
    argv = ("--json", "template-sat", "--doc", str(doc), "--template", "http://example.org/T")
    code, out, _ = run(capsys, *argv, "--seconds", "5")
    assert (code, json.loads(out)["approximate"]) == (0, True)
    code, out, _ = run(capsys, *argv, "--seconds", "0")
    assert code == 2
    report = json.loads(out)
    assert report["reason"] == "time budget exhausted"
    assert report["approximate"] is True


def test_error_exit_code(capsys):
    code, _, err = run(capsys, "validate", "--graph", fx("missing.ttl"),
                       "--doc", fx("fig1-shapes.ttl"))
    assert code == 1
    assert "error:" in err


def test_nan_time_budget_is_an_error(capsys):
    code, _, err = run(capsys, "sat", "--doc", fx("fig1-shapes.ttl"), "--seconds", "nan")
    assert code == 1
    assert "error:" in err


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    return exc.value.code


SUBCOMMANDS = sorted(next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_usage_errors_exit_1_and_help_exits_0(command, capsys):
    # exit 2 means "unknown", so a missing required argument is an error (1)
    assert _exit_code([command]) == 1
    assert "the following arguments are required" in capsys.readouterr().err
    assert _exit_code([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: sclkit {command}")


def test_usage_errors_of_the_top_level_parser_exit_1(capsys):
    assert _exit_code(["validate", "--doc", fx("fig1-shapes.ttl")]) == 1
    assert "required: --graph" in capsys.readouterr().err
    assert _exit_code([]) == 1
    assert _exit_code(["no-such-command"]) == 1
    assert _exit_code(["--help"]) == 0
    assert "invalid choice: 'no-such-command'" in capsys.readouterr().err


def test_one_parser_serves_every_call(capsys, monkeypatch):
    import sclkit.cli as cli

    calls = [
        ("--json", "validate", "--graph", fx("fig1-graph.ttl"), "--doc", fx("fig1-shapes.ttl"),
         "--mode", "cautious-partial"),
        ("--json", "sat", "--doc", fx("fig1-shapes.ttl"), "--triples", "2", "--fresh", "1",
         "--seconds", "0.5"),
        ("contains", "--doc1", fx("fig1-shapes.ttl"), "--mode", "no-such-mode"),
        ("contains", "--doc1", fx("filtered.ttl"), "--doc2", fx("fig1-shapes.ttl"),
         "--triples", "2", "--fresh", "1"),
        ("validate", "--graph", fx("fig1-graph-invalid.ttl"), "--doc", fx("fig1-shapes.ttl")),
    ]

    def outcome(argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(outcome(argv))
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    shared = [outcome(argv) for argv in calls]
    assert len(builds) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 1, 0, 0]
    assert "invalid choice: 'no-such-mode'" in shared[2][2]
    assert json.loads(shared[0][1])["mode"] == "cautious-partial"
    # neither --json nor --mode of earlier calls carries over, nor --seconds
    assert shared[4][1] == "valid=false (brave-total)\n"
    assert cli._parser.parse_args(list(calls[3])).seconds == 30.0
