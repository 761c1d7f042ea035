"""The benchmark's trace contract: every function and counter that
`bench/tracing.py` hooks must still exist in `stlog`.  A hook that no
longer resolves is reported as missing and its per-layer metrics read
None, which a traced benchmark run shows only in its result files; a
hook that resolves but is bypassed reads 0, which is checked for the
spans of the resolution pipeline."""

import importlib.util
from pathlib import Path

import stlog
from stlog import cli, fixtures     # cli imports every traced layer

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_ex1(tmp_path, capsys, *command):
    """The tracer and per-layer metrics of one traced `stlog command ex1`."""
    tracing = load_tracing()
    path = tmp_path / "ex1.arr"
    path.write_text(fixtures.fixture_text("ex1"))
    tracer = tracing.Tracer()
    restore = tracing.install(stlog, tracer)
    try:
        tracer.begin(f"ex1 {' '.join(command)}")
        assert cli.main([*command, str(path)]) == 0
        tracer.end()
    finally:
        tracing.uninstall(restore)
    capsys.readouterr()
    return tracer, tracing.layer_metrics(tracer, 0.0)


def test_every_traced_name_resolves(tmp_path, capsys):
    tracer, metrics = traced_ex1(tmp_path, capsys, "chi")
    assert not tracer.missing
    assert [name for name, value in metrics.items() if value is None] == []


def test_logmod_reaches_the_work_through_the_traced_names(tmp_path, capsys):
    # a name that still exists but is no longer called reads 0, not None:
    # the kernel and the resolution of each D^p must run inside the spans
    # of `kernel_of_map` and `minimal_free_resolution` (`betti` resolves
    # D^2; `chi` reads only Hilbert numerators and resolves no D^p)
    _, metrics = traced_ex1(tmp_path, capsys, "betti", "-p", "2")
    assert metrics["groebner.kernel_of_map.self_s"] > 0
    assert metrics["groebner.minimal_free_resolution.levels"] > 0
