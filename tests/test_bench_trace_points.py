"""The benchmark's trace points name functions that exist in the package.

bench/run.py wraps module functions and methods by name when run with
--trace 1; a rename in the package would break it only there.
"""

import importlib.util
import sys
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


class LookupTracer:
    """Stands in for the benchmark's Tracer: looks each target up, wraps nothing."""

    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, count=None):
        getattr(owner, attr)
        self.names.append(name)


def test_trace_points_resolve(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)   # dataclasses look their module up
    monkeypatch.setattr(sys, "path", list(sys.path))     # _import_program prepends to it
    spec.loader.exec_module(run)
    run._import_program()
    tracer = LookupTracer()
    run.install_trace_points(tracer)
    assert "decoder.beam" in tracer.names and "docid.load_index" in tracer.names
