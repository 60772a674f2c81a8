"""Smoke test of the benchmark: every workload runs briefly, traced and
untraced, and prints every metric BENCHMARK.json declares, with its unit.

    python -m pytest perfbench
"""
from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
ALL_E2E = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "decided_ratio",
           "error_ratio", "late_ratio", "peak_rss_mb")


def _smoke(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout


def _sections(out: str) -> dict:
    parts = re.split(r"^== (\S+) seed=\d+ trace=(\d):", out, flags=re.M)
    return {(parts[i], parts[i + 1]): parts[i + 2] for i in range(1, len(parts), 3)}


def test_smoke_prints_every_metric_with_its_unit_and_repeats_across_hash_seeds():
    first, second = _smoke("0"), _smoke("1")
    sections = _sections(first)
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert sorted(sections) == sorted((n, t) for n in names for t in "01")
    e2e_units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert set(e2e_units) <= set(ALL_E2E)
    for (name, trace), text in sections.items():
        for metric in ALL_E2E:
            unit = e2e_units.get(metric, "ratio")
            assert re.search(rf"^  {re.escape(metric)} +\S+ {re.escape(unit)}\b", text, re.M), \
                (name, metric)
        assert "error_ratio                   0 ratio" in text, (name, text)
        if trace == "1":
            for metric in BENCHMARK["per_layer"]:
                assert re.search(rf"^  {re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}\b",
                                 text, re.M), (name, metric)
    # an op cut short by a time limit in one process may finish in the other,
    # so compare the ops both processes completed
    lines = lambda out: re.findall(r"digests of uncut outputs: (.*)", out)
    assert len(lines(first)) == len(lines(second)) == 2 * len(names)
    for a, b in zip(lines(first), lines(second)):
        a, b = dict(x.split(":") for x in a.split()), dict(x.split(":") for x in b.split())
        shared = a.keys() & b.keys()
        assert len(shared) >= 0.9 * max(len(a), len(b))
        assert all(a[k] == b[k] for k in shared)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:],
                           "--workload", BENCHMARK["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
