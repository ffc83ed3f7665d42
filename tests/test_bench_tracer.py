"""The benchmark's traced mode rebinds names in robinlab; every one must exist."""
import importlib
import importlib.util
from pathlib import Path

from robinlab.cli import RowSink

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    tracer = _tracer()
    for table in (tracer.WRAPPED, tracer.GENERATORS):
        for mod_name, attrs in table.items():
            module = importlib.import_module(mod_name)
            for attr in attrs:
                assert callable(getattr(module, attr, None)), f"{mod_name}.{attr}"
    assert callable(RowSink.write) and callable(RowSink.finish)
