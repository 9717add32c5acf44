"""The benchmark's generated inputs parse under the measure schema, so a
stricter reader cannot quietly turn benchmark cases into failures."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from lpmink.serialization import measure_spec_from_dict

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """bench/workloads.py, imported without writing a bytecode cache next to it."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload",
                         ["density-loop", "atomic-large", "stress-corpus", "reduced-routes"])
def test_every_case_parses(workloads, workload, seed):
    cases = workloads.generate(workload, seed)
    assert cases
    for case in cases:
        measure_spec_from_dict(json.loads(case.measure_json))
