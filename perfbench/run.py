"""sclkit benchmark: seeded CLI workloads run in-process in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One client, one process: each operation is one `sclkit.cli.main([... "--json"
...])` call on Turtle files written at set-up, with stdout captured in memory,
and the next starts when it returns.  The run cycles through the workload's
pool of operations for --seconds, then checks every verdict it can against a
reference (see checks.py) and prints a metric table followed, as the last line,
by one JSON object.  --trace 1 runs each operation twice, once under the
layer tracer (tracing.py) and once without, alternating which goes first, and
reports per-layer metrics and the tracing overhead instead.

The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "decided_ratio": "ratio", "peak_rss_mb": "MB",
}
# also printed, but not in the JSON: both are 0 on a healthy run
GATES = {"error_ratio": "ratio", "late_ratio": "ratio"}
SETUP_REPEATS = 3
CHECK_SECONDS = 4.0
LATE_SLACK = 0.5
SMOKE_SCALE = 0.05
# On a shared host a process gets a varying share of the cores and memory
# system: on the 2-vCPU machine this was tuned on, the same ops ran up to a
# third slower for tens of seconds at a time.  After each op the run times a fixed piece of pure-Python work (a calibration
# chunk) for a tenth of the op's time, so the chunks sample the machine's speed
# in step with the ops (and likewise during set-up), and the times in the JSON
# line are scaled to a machine on which a chunk takes CAL_REFERENCE_S (all but
# the time an op spends waiting out its budget or the op limit).  A change to sclkit moves the ops,
# not the chunks.
CAL_SHARE = 0.1
CAL_STEPS = 300
CAL_REFERENCE_S = 0.001


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    src = ROOT / "src"
    if not (src / "sclkit" / "cli.py").is_file():
        _die(f"no sclkit sources under {src}")
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    import sclkit.cli
    if Path(sclkit.cli.__file__).resolve().parent != src / "sclkit":
        _die(f"sclkit imported from {sclkit.cli.__file__}, not {src}")
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    return sclkit.cli, oracles


class _Term:
    __slots__ = ("iri", "value")

    def __init__(self, iri, value):
        self.iri, self.value = iri, value

    def key(self):
        return self.value, self.iri


def _calibration_chunk() -> float:
    """Seconds for one fixed piece of work that reads like a small parser:
    string formatting, splitting and stripping, int() with its exception, a
    slotted class, dict lookups, a generator, a keyed sort and a join.  Of
    the chunks tried it tracked the ops best: run after run, the scaled op
    time of the same cli-mix ops spread 0.01 (quartiles over median) where
    the raw time spread 0.17; an integer loop on a small table, with its
    small code footprint, followed the machine only part of the way (0.09).
    The collector is off while it runs and it frees all it made, so the
    program's heap neither slows it nor is disturbed by it."""
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    seen, keys = {}, []
    for i in range(CAL_STEPS):
        parts = f'<http://ex.org/n{i % 97}> <http://ex.org/p{i % 7}> "{i}" .'.split(" ")
        iri = parts[0].strip("<>")
        try:
            value = int(parts[2].strip('"'))
        except ValueError:
            value = -1
        term = _Term(iri, value)
        if isinstance(term.iri, str) and iri not in seen:
            seen[iri] = term
        keys.append(term.key())
        keys.extend(word.upper() for word in parts[1:2])
    keys.sort(key=str)
    "|".join(map(str, keys[:50]))
    del seen, keys
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    return elapsed


def _calibrate(chunks: list, seconds: float) -> None:
    """Append chunk times until they add up to CAL_SHARE of `seconds`."""
    spent = 0.0
    while spent < CAL_SHARE * seconds or not spent:
        chunks.append(_calibration_chunk())
        spent += chunks[-1]


class OpLimit(BaseException):
    """Raised into an op that outlived the workload's op limit."""


class Runner:
    def __init__(self, cli, spec, tracer=None):
        self.cli = cli
        self.spec = spec
        self.tracer = tracer
        self._in_op = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame):
        if self._in_op:
            raise OpLimit()

    def execute(self, op, traced: bool = False) -> dict:
        out, err = io.StringIO(), io.StringIO()
        limit = self.spec.op_limit + (op.budget or 0.0)
        code, outcome = None, "ok"
        if traced:
            self.tracer.install()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            self._in_op = True
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
            self._in_op = False
        except OpLimit:
            outcome = "capped"
        except SystemExit as exc:
            code, outcome = exc.code, "exit"
        except Exception:
            outcome = "raised"
            err.write(traceback.format_exc())
        finally:
            self._in_op = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        if traced:
            self.tracer.close_open()
            self.tracer.uninstall()
        return {"seconds": elapsed, "code": code, "outcome": outcome,
                "stdout": out.getvalue(), "stderr": err.getvalue()}


def _verdict(op, res) -> tuple:
    """(decided, cut short by a budget or the op limit, error message or None)."""
    if res["outcome"] == "capped":
        return False, True, None
    if res["outcome"] != "ok":
        return False, False, f"{res['outcome']}: {res['stderr'].strip()[-300:]}"
    if res["code"] not in (0, 2):
        return False, False, f"exit {res['code']}: {res['stderr'].strip()[-300:]}"
    if op.command == "emit":
        return True, False, None
    try:
        payload = json.loads(res["stdout"])
    except ValueError as exc:
        return False, False, f"unparseable --json output: {exc}"
    result = payload.get("result", True)
    if isinstance(result, bool) or op.command not in (
            "sat", "contains", "template-sat", "shape-contains"):
        return True, False, None
    cut = payload.get("reason") == "time budget exhausted"
    if (res["code"] == 2) != (result == "unknown"):
        return False, cut, f"exit {res['code']} with result {result}"
    return result in ("sat", "unsat"), cut, None


def _percentile(sorted_values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density over each
    one's share of [0, 1].  Where op costs leave a gap at the percentile, a
    single order statistic jumps across it from run to run; this estimate
    moves with the ops on both sides."""
    n = len(sorted_values)
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 8
    total = weighted = 0.0
    for i, value in enumerate(sorted_values):
        for j in range(steps):
            x = (i * steps + j + 0.5) / (n * steps)
            w = math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            total += w
            weighted += w * value
    return weighted / total


def _timings(seconds: list, tail: float) -> dict:
    latencies = sorted(s * 1000 for s in seconds)
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "latency_p50_ms": _percentile(latencies, 50),
        "latency_tail_ms": _percentile(latencies, tail),
    }


def run(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        one_pass: bool = False) -> dict:
    import workloads
    from checks import CheckFailed, Checker
    from tracing import Tracer, metric_units

    cli, oracles = PROGRAM
    spec = workloads.SPECS[name]
    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        setups, setup_chunks = [], []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            shutil.rmtree(work, ignore_errors=True)
            wl = workloads.build(name, seed, work, scale)
            runner = Runner(cli, spec, tracer)
            for op in wl.warmup:
                runner.execute(op)
            setups.append(time.perf_counter() - t)
            _calibrate(setup_chunks, setups[-1])
        setup_raw = IMPORT_SECONDS + statistics.median(setups)
        setup_cal_s = statistics.fmean(setup_chunks)

        records = []          # (op index, result, traced)
        cache_before = tracer.cache_info() if trace else None
        loop_start = time.perf_counter()
        deadline = loop_start + seconds
        chunks = []           # calibration chunk times, in loop order
        i = rounds_chunks = 0
        while time.perf_counter() < deadline and not (one_pass and i == len(wl.ops)):
            index = i % len(wl.ops)
            op = wl.ops[index]
            if trace:
                tracer.op = i
                order = (True, False) if i % 2 == 0 else (False, True)
                for traced in order:
                    records.append((index, runner.execute(op, traced), traced))
            else:
                records.append((index, runner.execute(op), False))
            _calibrate(chunks, sum(res["seconds"] for _, res, _ in records[-(2 if trace else 1):]))
            i += 1
            if i % wl.round_size == 0:
                rounds_chunks = len(chunks)
        loop_seconds = time.perf_counter() - loop_start
        # timings come from the whole rounds completed (all ops if none was)
        timed = i - i % wl.round_size
        if timed == 0:
            timed, rounds_chunks = i, len(chunks)
        cal_s = statistics.fmean(chunks[:rounds_chunks])
        scale_to_reference = CAL_REFERENCE_S / cal_s
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        cache_after = tracer.cache_info() if trace else None

        # verdicts, determinism across repeats of one op, reference checks
        errors = []
        first: dict = {}
        digests: dict = {}
        decided = late = budgeted = capped = repeats = 0
        clock_s = []          # per record, the part of its time set by a clock
        for n, (index, res, traced) in enumerate(records):
            op = wl.ops[index]
            ok, cut, error = _verdict(op, res)
            if res["outcome"] == "capped":
                clock_s.append(res["seconds"])
            else:
                clock_s.append(min(res["seconds"], op.budget) if cut else 0.0)
            decided += ok
            capped += res["outcome"] == "capped"
            if op.budget is not None:
                budgeted += 1
                late += res["seconds"] > op.budget + LATE_SLACK
            if traced and cut and res["outcome"] == "ok":
                tracer.counters["decide.budget_exhausted"] += 1
            if error is None and not cut:
                digest = hashlib.sha256(res["stdout"].encode()).hexdigest()
                repeats += index in digests
                if digests.setdefault(index, digest) != digest:
                    error = "output differs from an earlier run of the same op"
                first.setdefault(index, res)
            if error is not None:
                errors.append((n, index, error))

        checker = Checker(oracles)
        checked = unchecked = 0
        check_deadline = time.perf_counter() + CHECK_SECONDS
        bad_ops = {}
        for index, res in first.items():
            if time.perf_counter() > check_deadline:
                unchecked += 1
                continue
            try:
                checked += checker.check(wl.ops[index], res["stdout"])
            except CheckFailed as exc:
                bad_ops[index] = f"reference check failed: {exc}"
            except Exception:
                bad_ops[index] = f"reference check raised: {traceback.format_exc()[-300:]}"
        for n, (index, res, traced) in enumerate(records):
            if index in bad_ops:
                errors.append((n, index, bad_ops[index]))
        failed_runs = {n for n, _, _ in errors}

        attempted = len(records)
        per_op = 2 if trace else 1
        measured = [(res["seconds"], clock) for (_, res, traced), clock
                    in zip(records[:timed * per_op], clock_s) if traced == trace]
        # an op waiting out its budget or the op limit takes as long on any
        # machine, so only the rest of its time is scaled
        raw = _timings([seconds for seconds, _ in measured], spec.tail)
        scaled = _timings([clock + (seconds - clock) * scale_to_reference
                           for seconds, clock in measured], spec.tail)
        e2e = {
            "setup_s": setup_raw * CAL_REFERENCE_S / setup_cal_s,
            **scaled,
            "decided_ratio": decided / attempted,
            "peak_rss_mb": peak_rss_mb,
            "error_ratio": len(failed_runs) / attempted,
            "late_ratio": late / budgeted if budgeted else 0.0,
        }
        report = {
            "workload": name, "seed": seed, "trace": trace, "attempted": attempted,
            "failed": len(failed_runs), "e2e": e2e, "errors": errors, "ops": wl.ops,
            "budgeted": budgeted, "late": late, "capped": capped, "decided": decided,
            "checked": checked,
            "unchecked": unchecked, "distinct": len(first), "by_method": checker.by_method,
            "tail": spec.tail, "loop_seconds": loop_seconds, "timed": timed,
            "round_size": wl.round_size, "raw": {"setup_s": setup_raw, **raw},
            "cal_s": cal_s, "setup_cal_s": setup_cal_s,
            "repeats": repeats, "digests": digests,
        }
        if trace:
            untraced = [res["seconds"] for _, res, traced in records if not traced]
            traced_s = [res["seconds"] for _, res, traced in records if traced]
            hits = misses = 0
            if cache_before and cache_after:
                hits = cache_after.hits - cache_before.hits
                misses = cache_after.misses - cache_before.misses
            layers = tracer.metrics(len(traced_s), hits, misses)
            layers["trace.ops_per_s"] = len(traced_s) / sum(traced_s)
            layers["trace.untraced_ops_per_s"] = len(untraced) / sum(untraced)
            layers["trace.overhead_ratio"] = sum(traced_s) / sum(untraced) - 1
            layers["trace.spans_per_op"] = len(tracer.spans) / len(traced_s)
            report["layers"] = layers
            report["layer_units"] = metric_units()
            report["missing"] = tracer.missing
            trace_file = ROOT / ".perfbench" / "traces" / f"{name}-seed{seed}.jsonl"
            tracer.write(trace_file)
            report["trace_file"] = trace_file
        return report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(rep: dict) -> None:
    from tracing import LAYER_MAP

    e2e = rep["e2e"]
    print(f"== {rep['workload']} seed={rep['seed']} trace={int(rep['trace'])}: "
          f"{rep['attempted']} ops in {rep['loop_seconds']:.2f} s "
          f"(closed loop, 1 client, {rep['distinct']} distinct uncut ops); timings from the"
          f" first {rep['timed']} (rounds of {rep['round_size']})")
    for name, unit in {**END_TO_END, **GATES}.items():
        note = ""
        if name == "latency_tail_ms":
            note = f"p{rep['tail']:g}"
        elif name == "decided_ratio":
            note = f"{rep['decided']} of {rep['attempted']}; {rep['capped']} hit the op limit"
        elif name == "error_ratio":
            note = f"{rep['failed']} of {rep['attempted']}"
        elif name == "late_ratio":
            note = (f"{rep['late']} of {rep['budgeted']} budgeted ops" if rep["budgeted"]
                    else "no budgeted ops")
        print(f"  {name:<18} {_fmt(e2e[name]):>12} {unit:<6} {note}")
    print(f"  times above are scaled to a {CAL_REFERENCE_S * 1000:g} ms calibration chunk (mean chunk"
          f" {rep['setup_cal_s'] * 1000:.4g} ms during set-up, {rep['cal_s'] * 1000:.4g} ms during"
          " the timed rounds); as timed here: "
          + ", ".join(f"{k} {_fmt(v)}" for k, v in rep["raw"].items()))
    need = math.ceil(10 / (1 - rep["tail"] / 100))
    if rep["timed"] < need:
        print(f"  warning: p{rep['tail']:g} needs {need} ops for 10 samples beyond it")
    methods = ", ".join(f"{k} {v}" for k, v in sorted(rep["by_method"].items()))
    print(f"  checked {rep['checked']} of {rep['distinct']} distinct ops against references"
          f" ({methods or 'none'}); {rep['unchecked']} left for lack of time;"
          f" {rep['repeats']} repeat runs compared byte for byte")
    for n, index, message in rep["errors"][:10]:
        op = rep["ops"][index]
        print(f"  FAILED op #{n}: sclkit {' '.join(op.argv)}\n    {message}")
    if "layers" in rep:
        units = rep["layer_units"]
        selfs = {k: v for k, v in rep["layers"].items() if k.endswith("_self_s")}
        selfs["cli.self_s"] = rep["layers"]["cli.self_s"]
        total = sum(selfs.values()) or 1.0
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])[:5]
        print("  top self time: " + ", ".join(f"{k} {v / total:.0%}" for k, v in ranked))
        for name, value in rep["layers"].items():
            affects = LAYER_MAP.get(name, "")
            print(f"  {name:<40} {_fmt(value):>12} {units[name]:<9} {affects}")
        if rep["missing"]:
            print(f"  not traced (absent from the package): {', '.join(rep['missing'])}")
        print(f"  spans written to {rep['trace_file'].relative_to(ROOT)}")


def smoke(seed: int) -> int:
    """Every workload, briefly, untraced and traced; prints every metric with
    its unit and a digest of each uncut output for comparison across runs."""
    import workloads

    ok = True
    for name in workloads.GENERATORS:
        for trace in (False, True):
            rep = run(name, seed, seconds=math.inf, trace=trace, scale=SMOKE_SCALE,
                      one_pass=True)
            print_report(rep)
            print("  digests of uncut outputs: "
                  + " ".join(f"{k}:{v[:12]}" for k, v in sorted(rep["digests"].items())))
            ok &= rep["failed"] == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly, traced and untraced")
    args = parser.parse_args(argv)
    global PROGRAM, IMPORT_SECONDS
    PROGRAM = _import_program()
    IMPORT_SECONDS = time.perf_counter() - STARTED
    import workloads

    if args.smoke:
        return smoke(args.seed)
    if args.workload not in workloads.GENERATORS:
        parser.error(f"--workload must be one of {', '.join(workloads.GENERATORS)}")
    rep = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(rep)
    if args.trace:
        metrics = {k: {"value": v, "unit": rep["layer_units"][k]} for k, v in rep["layers"].items()}
    else:
        metrics = {k: {"value": rep["e2e"][k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": rep["failed"] == 0, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
