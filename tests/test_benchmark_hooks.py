"""The benchmark's span tracer resolves every package function it wraps.

perfbench/spans.py names rbsvie functions by module and attribute, so a
rename or deletion here would otherwise show only in a traced benchmark
run.  The tracer is built, not installed.  Its work counters read
attributes of real results, so each reader is applied to one.
"""

import importlib
from pathlib import Path

from rbsvie import mc
from rbsvie.instances import catalog_instance
from rbsvie.volterra import solve

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_resolves_every_layer_call(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    assert tracer.names == [entry[0] for entry in spans.LAYER_CALLS]
    for module in spans._NAMESPACES:
        importlib.import_module(module)


def test_benchmark_counters_read_real_results(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    spec = catalog_instance("linear_z")
    lat = spec.lattice(4)
    bundle = mc.simulate(lat.grid, spec, 200, 7)
    results = {
        "instances.driver": spec.driver(0.0, 0.0, lat.x[1], lat.x[1], lat.x[1]),
        "volterra.solve": solve(lat, spec),
        "mc.solve_mc": mc.solve_mc(bundle, spec, mc.RegressionBasis("polynomial", 2)),
    }
    assert set(results) == set(spans.COUNTERS)
    counts = {counter: read(results[span])
              for span, (counter, read) in spans.COUNTERS.items()}
    assert counts == {"instances.driver_evals": 2, "volterra.iterations": 1,
                      "mc.iterations": 1}
