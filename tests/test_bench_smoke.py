"""The benchmark's workloads build, run and pass their own checks.

``bench/`` is imported, never changed: one instance of each workload
declared in BENCHMARK.json is built at seed 1, its job runs under the
tracer with the benchmark's annotators, and the workload's checks must
report no failure.  A change that removes a name the benchmark uses
fails here.
"""

import json
import math
from pathlib import Path

import pytest

import plstab

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import annotators
    import tracer
    import workloads

    return workloads, tracer, annotators


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_job_passes_its_checks(bench, name):
    workloads, tracer, annotators = bench
    wl = workloads.WORKLOADS[name]
    [inst] = wl.build(1, 1)
    original = plstab.plcore.sup_convolution
    tr = tracer.Tracer()
    tr.install(annotators.ANNOTATORS)
    try:
        tr.active = True
        out = wl.job(inst)
    finally:
        tr.active = False
        tr.uninstall()
    assert plstab.plcore.sup_convolution is original
    assert tr.span_name, "the tracer recorded no span"
    assert wl.check(inst, out) == []
    assert math.isfinite(wl.error(out))
