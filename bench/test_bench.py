"""Tests of the benchmark itself:  python3 -m pytest bench -q

The last test runs one traced pass of every workload (about a minute and
a half on a 2-core machine).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

COUNTERS = [name for name, unit, *_ in tracing.PER_LAYER
            if unit in ("count", "bits", "ratio")]


def requests_for(workload, seed=0):
    refs = run.load_references()
    workdir = run.WORK / "test"
    workdir.mkdir(parents=True, exist_ok=True)
    prog = run.load_program()
    return prog, run.WORKLOADS[workload](prog, seed, 0, workdir, refs)


def traced_pass(prog, requests):
    tracer = tracing.Tracer()
    restore = tracing.install(prog, tracer)
    try:
        records = run.run_pass(prog, requests, tracer)
    finally:
        tracing.uninstall(restore)
    assert [r["error"] for r in records] == [None] * len(records)
    return tracing.layer_metrics(tracer, 0.0)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == [(n, u, b) for n, u, b, *_ in tracing.PER_LAYER])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_every_binding_site_is_wrapped_and_restored():
    prog = run.load_program()
    originals = {"logmod": ("kernel_of_map", "minimalize_generators",
                            "minimal_free_resolution"),
                 "stpoly": ("derivation_module", "quotient_colength"),
                 "groebner": ("minimalize_generators", "syzygy_module",
                              "groebner_basis")}
    before = {(m, a): getattr(getattr(prog, m), a)
              for m, attrs in originals.items() for a in attrs}
    restore = tracing.install(prog, tracing.Tracer())
    try:
        for (m, a), fn in before.items():
            assert getattr(getattr(prog, m), a) is not fn, f"{m}.{a} not wrapped"
    finally:
        tracing.uninstall(restore)
    for (m, a), fn in before.items():
        assert getattr(getattr(prog, m), a) is fn


def test_two_traced_passes_give_identical_counters():
    prog, requests = requests_for("tame-paper", seed=3)
    small = [r for r in requests if r.id.split()[0] in ("ex1", "generic_3_4", "ex2_A")]
    first = traced_pass(prog, small)
    second = traced_pass(prog, small)
    assert {k: first[k] for k in COUNTERS} == {k: second[k] for k in COUNTERS}


def test_missing_function_reads_null_not_error():
    prog, requests = requests_for("tame-paper")
    del prog.logmod.is_free           # as if a refactor had removed it
    del prog.logmod.clear_cache
    requests = [r for r in requests if r.id == "ex1 tame"]
    values = traced_pass(prog, requests)
    assert values["logmod.is_free.self_s"] is None
    assert values["groebner.spairs"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_named_layer_metrics_are_measured(workload):
    prog, requests = requests_for(workload)
    values = traced_pass(prog, requests)
    named = [name for name, _, _, read_on, _ in tracing.PER_LAYER
             if read_on == workload]
    assert named
    for name in named:
        assert values[name] is not None and values[name] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "tame-paper",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
