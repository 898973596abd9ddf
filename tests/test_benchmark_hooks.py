"""The benchmark's span tracer resolves every package function it wraps.

perfbench/spans.py names rbsvie functions by module and attribute, so a
rename or deletion here would otherwise show only in a traced benchmark
run.  The tracer is built, not installed.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_resolves_every_layer_call(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    assert tracer.names == [entry[0] for entry in spans.LAYER_CALLS]
    for module in spans._NAMESPACES:
        importlib.import_module(module)
