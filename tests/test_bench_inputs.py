"""The benchmark's generated inputs parse under the measure schema, so a
stricter reader cannot quietly turn benchmark cases into failures."""

import json

import pytest

from conftest import import_bench_module

from lpmink.serialization import measure_spec_from_dict


@pytest.fixture(scope="module")
def workloads():
    return import_bench_module("workloads")


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload",
                         ["density-loop", "atomic-large", "stress-corpus", "reduced-routes"])
def test_every_case_parses(workloads, workload, seed):
    cases = workloads.generate(workload, seed)
    assert cases
    for case in cases:
        measure_spec_from_dict(json.loads(case.measure_json))
