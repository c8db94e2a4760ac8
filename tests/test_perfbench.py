"""The benchmark's traced layer names exist in the program (no Spark needed).

``perfbench/workloads.py`` traces program functions by module attribute;
a renamed or removed function would only show as an ``AttributeError`` in
the benchmark's traced pass.
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads, tracer


@pytest.mark.parametrize("probes", ["_minoaner_probes", "_baselines_probes"])
def test_traced_names_exist(perfbench_modules, probes):
    workloads, tracer = perfbench_modules
    found = getattr(workloads, probes)(tracer.Tracer(None, "t"))
    assert found
    for p in found:
        assert hasattr(p.module, p.attr), f"{p.module.__name__}.{p.attr}"
