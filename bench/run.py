#!/usr/bin/env python3
"""stlog benchmark: real CLI requests, every answer checked, stdlib only.

Run from the repository root:

    python3 bench/run.py --workload chi-corpus --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

Each request is `stlog.cli.main([..., "--json"])` called in-process with
stdout captured, one request after another from a single client (a
closed loop, one thread).  `logmod.clear_cache()` runs before every
request, so each request costs what a fresh `stlog` process would pay.
A run repeats whole passes over its requests while another pass still
fits in `--seconds` (at least one) and reports medians over passes.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of one traced pass (see
tracing.py), after an untraced pass that gives the tracing overhead.
`--seed` fixes how the inputs are presented (the order of the requests,
the order of the hyperplane lines and a nonzero scale of each line) but
never their mathematical content, so every seed costs the same; the chi
corpus itself comes from `--corpus-seed` (0 by default, 1 held out).
Results with provenance go to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference"

MODULES = ("cli", "logmod", "groebner", "stpoly", "lattice", "verify",
           "arrangement", "fixtures")
SETUP_REPEATS = 11
TAIL_SHARE = 10     # tail_s sums the slowest tenth of a pass's requests
END_TO_END = (("wall_s", "s"), ("tail_s", "s"), ("body_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "frac"))


@dataclass
class Request:
    id: str
    argv: list
    check: Callable[[str], Optional[str]]   # stdout -> error message or None


# ---------------------------------------------------------------------------
# the program under test

def load_program():
    """Fresh import of stlog from this checkout's src/ (never an installed copy)."""
    if not (SRC / "stlog" / "cli.py").is_file():
        raise SystemExit(f"bench: no stlog sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "stlog" or m.startswith("stlog.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"stlog.{name}") for name in MODULES}
    if not Path(mods["cli"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: stlog imported from {mods['cli'].__file__}")
    return argparse.Namespace(**mods)


def write_input(workdir: Path, name: str, arr, mult, rng: random.Random) -> Path:
    """Write (arr, mult) as an .arr file in a seeded presentation.

    Lines come in shuffled order and each form is scaled by a nonzero
    integer; the parser canonicalizes both away.
    """
    lines = []
    for h, m in zip(arr.hyperplanes, mult.values):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        lines.append("H " + " ".join(str(k * c) for c in h.coeffs)
                     + (f" m={m}" if m != 1 else ""))
    rng.shuffle(lines)
    path = workdir / f"{name}.arr"
    path.write_text(f"ell {arr.ell}\n" + "\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# workloads: each returns its requests, with an oracle per request

def chi_corpus(prog, seed, corpus_seed, workdir, refs):
    rng = random.Random(seed)
    requests = []
    for name, arr, mult in prog.verify.random_corpus(corpus_seed):
        path = write_input(workdir, name, arr, mult, rng)

        def check(out, arr=arr):
            # the lattice's Moebius sum is independent of the Psi pipeline
            expected = prog.lattice.characteristic_polynomial(arr).to_json()
            got = json.loads(out)["chi"]
            return None if got == expected else f"chi {got} != lattice {expected}"
        requests.append(Request(name, ["chi", str(path), "--json"], check))
    rng.shuffle(requests)
    return requests


TAME_FIXTURES = ("ex1", "generic_3_4", "ex2_A", "ex2_Aprime", "ex2_B")
TAME_COMMANDS = (("tame",), ("free",), ("betti", "-p", "2"))


def _betti(d):
    return {(r["i"], r["d"]): r["count"] for r in d["betti"]}


# values stated in the paper, checked on top of the recorded outputs
PAPER_VALUES = {
    "ex2_A free": lambda d: d["free"] and d["exponents"] == [1, 3, 3, 3],
    "ex2_B tame": lambda d: not d["tame"] and d["pd_omega"]["1"] == 2,
    "ex1 betti -p 2": lambda d: (_betti(d).get((0, 3)) == 4
                                 and _betti(d).get((1, 4)) == 1),
}


def tame_paper(prog, seed, corpus_seed, workdir, refs):
    rng = random.Random(seed)
    requests = []
    for name in TAME_FIXTURES:
        arr, mult = prog.fixtures.load(name)
        path = write_input(workdir, name, arr, mult, rng)
        for cmd in TAME_COMMANDS:
            rid = " ".join((name,) + cmd)

            def check(out, rid=rid):
                paper = PAPER_VALUES.get(rid)
                if paper is not None and not paper(json.loads(out)):
                    return "paper value not reproduced"
                return None if out == refs["tame-paper"][rid] else "differs from reference"
            requests.append(Request(rid, [*cmd, str(path), "--json"], check))
    rng.shuffle(requests)
    return requests


def verify_paper(prog, seed, corpus_seed, workdir, refs):
    # the report echoes its seed; every other byte is seed-independent
    expected = refs["verify-paper"].replace('"seed": 0,', f'"seed": {seed},', 1)

    def check(out):
        report = json.loads(out)
        if not report["passed"] or report["failures"] != 0:
            return f"{report['failures']} verify checks failed"
        return None if out == expected else "differs from reference"
    return [Request("verify paper",
                    ["verify", "--suite", "paper", "--seed", str(seed), "--json"],
                    check)]


WORKLOADS = {"chi-corpus": chi_corpus, "tame-paper": tame_paper,
             "verify-paper": verify_paper}


def load_references():
    return {"tame-paper": json.loads((REFERENCE / "tame-paper.json").read_text()),
            "verify-paper": (REFERENCE / "verify-paper.json").read_text()}


# ---------------------------------------------------------------------------
# running

def run_pass(prog, requests, tracer=None):
    """One closed-loop pass; a failing request is recorded, never raised."""
    clear_cache = getattr(prog.logmod, "clear_cache", None)
    records = []
    for req in requests:
        if clear_cache is not None:
            clear_cache()
        out, err = io.StringIO(), io.StringIO()
        error = None
        if tracer is not None:
            tracer.begin(req.id)
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = prog.cli.main(req.argv)
        except SystemExit as exc:           # argparse rejected the request
            code = exc.code
        except Exception:
            code, error = None, traceback.format_exc(limit=-3)
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        if error is None and code != 0:
            error = f"exit code {code}: {err.getvalue().strip()}"
        if error is None:
            try:
                error = req.check(out.getvalue())
            except (ValueError, KeyError, TypeError) as exc:
                error = f"malformed output: {exc!r}"
        records.append({"id": req.id, "seconds": seconds, "error": error})
    return records


def pass_times(records):
    times = sorted((r["seconds"] for r in records), reverse=True)
    tail = -(-len(times) // TAIL_SHARE)
    # a single-request workload has no body: its request is both
    return {"wall_s": sum(times), "tail_s": sum(times[:tail]),
            "body_s": sum(times[tail:] or times)}


def setup(args, refs):
    """Import the program and write the inputs; returns (seconds, prog, requests)."""
    start = time.perf_counter()
    prog = load_program()
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    requests = WORKLOADS[args.workload](prog, args.seed, args.corpus_seed,
                                        workdir, refs)
    return time.perf_counter() - start, prog, requests


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args):
    return {"workload": args.workload, "seed": args.seed,
            "corpus_seed": args.corpus_seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
            "commit": git_commit()}


def timed_passes(prog, requests, seconds):
    """Untraced passes while one more still fits in `seconds`; at least one."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        passes.append(run_pass(prog, requests))
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return passes


def end_to_end(passes, setups):
    per_pass = [pass_times(p) for p in passes]
    values = {name: statistics.median(t[name] for t in per_pass)
              for name in ("wall_s", "tail_s", "body_s")}
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [r for p in passes for r in p]
    values["ok_frac"] = sum(r["error"] is None for r in records) / len(records)
    return values, dict(END_TO_END)


def traced_passes(prog, requests, trace_file):
    """An untraced pass, then a traced one; the spans go to trace_file."""
    reference = run_pass(prog, requests)
    tracer = tracing.Tracer()
    restore = tracing.install(prog, tracer)
    try:
        traced = run_pass(prog, requests, tracer)
    finally:
        tracing.uninstall(restore)
    overhead = pass_times(traced)["wall_s"] / pass_times(reference)["wall_s"] - 1
    spans = [dict(zip(("name", "start", "end", "parent", "request"), s[:5]))
             for s in tracer.spans]
    trace_file.write_text(json.dumps(spans) + "\n")
    values = tracing.layer_metrics(tracer, overhead)
    units = {name: unit for name, unit, *_ in tracing.PER_LAYER}
    return [reference, traced], values, units, sorted(tracer.missing)


def run_workload(args):
    refs = load_references()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, prog, requests = setup(args, refs)
        setups.append(seconds)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-corpus{args.corpus_seed}-trace{args.trace}"
    result = {"provenance": provenance(args), "setup_s": setups}
    if args.trace:
        trace_file = RESULTS / f"{stem}.spans.json"
        passes, values, units, missing = traced_passes(prog, requests, trace_file)
        result.update(trace_file=str(trace_file.relative_to(ROOT)),
                      missing_hooks=missing)
    else:
        passes = timed_passes(prog, requests, args.seconds)
        values, units = end_to_end(passes, setups)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    result.update(passes=passes, metrics=metrics)
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    records = [r for p in passes for r in p]
    failed = [r for r in records if r["error"] is not None]
    for r in failed:
        print(f"FAILED {r['id']}: {r['error']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, one after another; one table."""
    summary = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed)]
        done = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"bench: {workload} exited with {done.returncode}")
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="presentation of the inputs (order, line scale)")
    parser.add_argument("--seconds", type=int, default=40,
                        help="measuring time; whole passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=0,
                        help="random_corpus seed of chi-corpus (1 is held out)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
