"""The benchmark's trace contract: every function and counter that
`bench/tracing.py` hooks must still exist in `stlog`.  A hook that no
longer resolves is reported as missing and its per-layer metrics read
None, which a traced benchmark run shows only in its result files."""

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


def test_every_traced_name_resolves(tmp_path, capsys):
    tracing = load_tracing()
    path = tmp_path / "ex1.arr"
    path.write_text(fixtures.fixture_text("ex1"))
    tracer = tracing.Tracer()
    restore = tracing.install(stlog, tracer)
    try:
        tracer.begin("ex1 chi")
        assert cli.main(["chi", str(path)]) == 0
        tracer.end()
    finally:
        tracing.uninstall(restore)
    capsys.readouterr()
    assert not tracer.missing
    metrics = tracing.layer_metrics(tracer, 0.0)
    assert [name for name, value in metrics.items() if value is None] == []
