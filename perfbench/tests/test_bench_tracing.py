"""Tracing leaves rows bitwise unchanged and restores what it wrapped."""

import json
import random
import sys

import numpy as np
import pytest

from checks import fingerprint
from fastmix import experiments
from fastmix.solver import SolverConfig
from tracing import SELF_METRICS, Tracer, layer_metrics
from workloads import random_graph


@pytest.fixture
def specs(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(random_graph(random.Random(3), 7)))
    config = SolverConfig(max_iters=60)
    return [experiments.ExperimentSpec("custom", {"path": str(path)}, config),
            experiments.ExperimentSpec("torus", {"m": 3, "d": 2}, config),
            experiments.ExperimentSpec("knkn", {"n": 3}, config),
            experiments.ExperimentSpec("ising_tree", {"b": 2, "r": 1, "beta": 0.5})]


def wrappable_attributes():
    modules = [m for k, m in sys.modules.items() if k == "fastmix" or k.startswith("fastmix.")]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    for name in ("eigh", "eigvalsh"):
        snapshot[("numpy.linalg", name)] = getattr(np.linalg, name)
    return snapshot


def current(key):
    module, name = key
    return getattr(sys.modules[module], name)


def test_traced_rows_are_bitwise_identical(specs):
    plain = [fingerprint(experiments.run_experiment(s)) for s in specs]
    with Tracer() as tracer:
        traced = [fingerprint(experiments.run_experiment(s)) for s in specs]
    assert traced == plain
    assert sum(1 for s in tracer.spans if s.name == "experiments.run_experiment") == 4


def test_self_times_sum_to_the_row_time(specs):
    with Tracer() as tracer:
        for s in specs:
            experiments.run_experiment(s)
    metrics = layer_metrics(tracer.spans)
    total = sum(metrics[name] for name in SELF_METRICS)
    assert total == pytest.approx(metrics["experiments.row_s"], rel=1e-9)
    assert metrics["solver.lapack_calls"] > 0
    # each of the three graph rows enumerates subsets twice, the Ising row never
    assert metrics["lower_bounds.vertex_expansion_calls"] == 6 / 4


def test_every_wrapped_attribute_is_restored_after_an_exception(specs):
    before = wrappable_attributes()
    with pytest.raises(RuntimeError, match="inside"):
        with Tracer():
            assert experiments.spectrum is not before[("fastmix.experiments", "spectrum")]
            assert np.linalg.eigh is not before[("numpy.linalg", "eigh")]
            experiments.run_experiment(specs[0])
            raise RuntimeError("inside")
    assert all(current(key) is value for key, value in before.items())


def test_every_lookup_place_gets_the_same_wrapper():
    from fastmix import glauber, solver, spectral

    with Tracer():
        assert experiments.spectrum is solver.spectrum is glauber.spectrum
        assert experiments.spectrum is spectral.spectrum
        assert experiments.spectrum.__wrapped__ is not spectral.spectrum


def test_lapack_is_recorded_only_inside_a_solve():
    with Tracer() as tracer:
        np.linalg.eigh(np.eye(3))
        np.linalg.eigvalsh(np.eye(3))
    assert tracer.spans == []
