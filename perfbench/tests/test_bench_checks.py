"""The benchmark's row check: bad rows are counted as failed, never emitted."""

import math
from types import SimpleNamespace

import pytest

from checks import _exceeds, headline, relaxation_time, row_problems
from run import run_ladder
from workloads import GRAPH_FIELDS, ISING_FIELDS, Instance

GRAPH = Instance("g", "custom", {"path": "g.json"},
                 GRAPH_FIELDS + ("lb_expansion", "ub_cheeger"))
TORUS = Instance("t", "torus", {"m": 6, "d": 2}, GRAPH_FIELDS + ("lb_embed",), tight=True)
ISING = Instance("i", "ising_tree", {"b": 2, "r": 1, "beta": 0.5},
                 ISING_FIELDS + ("tau2_uniform", "tau2_rated", "prop_ok"), exact=True)


def graph_row(**changes):
    row = {"family": "custom", "params": {"path": "g.json"}, "lb_embed": None,
           "lb_expansion": 1.5, "tau2_solver": 3.0, "ub_congestion": 9.0,
           "ub_cheeger": 400.0, "tau2_standard": 5.0}
    row.update(changes)
    return row


def torus_row(**changes):
    row = {"family": "torus", "params": {"m": 6, "d": 2}, "lb_embed": 4.0,
           "lb_expansion": None, "tau2_solver": 4.0 + 1e-12, "ub_congestion": 29.1,
           "ub_cheeger": None, "tau2_standard": 5.0}
    row.update(changes)
    return row


def ising_row(**changes):
    row = {"family": "ising_tree", "params": {"b": 2, "r": 1, "beta": 0.5},
           "max_width": 2, "log_mean_bound": 5.0, "log_max_bound": 6.0,
           "tau2_majority_lower": None, "tau2_uniform": 3.0, "tau2_rated": 4.0,
           "prop_ok": True}
    row.update(changes)
    return row


def ladder_of(instance, row):
    """One-job ladder whose harness returns ``row`` (or raises it)."""
    def run_experiment(spec):
        if isinstance(row, Exception):
            raise row
        return row
    job = SimpleNamespace(instance=instance, spec=None)
    references = {}
    if instance.exact:
        references[instance.label] = {"tau2_uniform": 3.0, "tau2_rated": 4.0}
    return run_ladder(SimpleNamespace(run_experiment=run_experiment), [job], references)


def test_good_rows_pass_and_are_emitted():
    for instance, row in ((GRAPH, graph_row()), (TORUS, torus_row()), (ISING, ising_row())):
        ladder = ladder_of(instance, row)
        assert ladder.failed == [] and ladder.rows == {instance.label: row}


@pytest.mark.parametrize("row", [
    graph_row(tau2_solver=math.nan),
    graph_row(lb_expansion=math.nan),
    graph_row(ub_congestion=math.inf),
    graph_row(lb_expansion=3.5),                     # lower bound above the value
    graph_row(ub_congestion=2.0),                    # value above an upper bound
    graph_row(ub_cheeger=None),                      # expected field dropped
    graph_row(family="knkn"),                        # row for another instance
    graph_row(tau2_solver="3.0"),
    ValueError("boom"),
], ids=["nan-value", "nan-lower", "inf-upper", "inverted-lower", "inverted-upper",
        "missing", "wrong-instance", "string", "raises"])
def test_bad_graph_rows_fail_and_are_not_emitted(row):
    ladder = ladder_of(GRAPH, row)
    assert [label for label, _ in ladder.failed] == ["g"]
    assert ladder.rows == {}
    assert "g" in ladder.row_s


def test_nan_passes_the_greater_than_form_but_not_ours():
    lb, tau = 1.5, math.nan
    assert not (lb > tau + 1e-6)
    # the sandwich comparison itself rejects NaN, not only the finiteness check
    assert _exceeds(lb, tau, "lb", "tau") and _exceeds(tau, lb, "tau", "ub")
    assert _exceeds(1.0, 2.0, "lb", "tau") == []


def test_torus_rows_must_meet_the_embedding_bound():
    assert row_problems(TORUS, torus_row(tau2_solver=4.0 * (1 + 1e-5)))
    assert row_problems(TORUS, torus_row(tau2_solver=4.0 * (1 + 1e-7))) == []


@pytest.mark.parametrize("changes", [
    {"tau2_rated": math.exp(5.0) * 2},               # rated above its mean bound
    {"tau2_uniform": math.exp(6.0) * 2},             # uniform above its max bound
    {"tau2_majority_lower": 10.0},                   # lower bound above the value
    {"prop_ok": False},
    {"tau2_rated": 4.0 * (1 + 1e-5)},                # disagrees with the reference
    {"log_mean_bound": math.nan},
])
def test_bad_ising_rows_fail(changes):
    ladder = ladder_of(ISING, ising_row(**changes))
    assert len(ladder.failed) == 1 and ladder.rows == {}


def test_huge_log_bounds_do_not_overflow():
    row = ising_row(log_mean_bound=1000.0, log_max_bound=1000.0)
    assert row_problems(ISING, row, {"tau2_uniform": 3.0, "tau2_rated": 4.0}) == []


def test_a_row_whose_reference_cannot_be_built_fails():
    params = {"b": 1, "r": 1, "beta": 0.5}   # no such tree
    instance = Instance("i", "ising_tree", params, (), exact=True)
    job = SimpleNamespace(instance=instance, spec=None)
    harness = SimpleNamespace(run_experiment=lambda spec: ising_row(params=params))
    ladder = run_ladder(harness, [job], {})
    assert len(ladder.failed) == 1 and ladder.rows == {}


def test_headline_pairs():
    assert headline(graph_row()) == (3.0, 1.5)
    assert headline(torus_row(lb_expansion=2.0)) == (4.0 + 1e-12, 4.0)
    assert headline(ising_row()) == (4.0, 4.0)
    bounds_only = ising_row(tau2_uniform=None, tau2_rated=None, prop_ok=None,
                            tau2_majority_lower=2.0)
    assert headline(bounds_only) == (math.exp(5.0), 2.0)


def test_reference_relaxation_time_of_a_two_state_chain():
    # P = [[1-a, a], [b, 1-b]] has lambda2 = 1 - a - b
    import numpy as np
    a, b = 0.2, 0.3
    P = np.array([[1 - a, a], [b, 1 - b]])
    pi = np.array([b, a]) / (a + b)
    assert relaxation_time(P, pi) == pytest.approx(1.0 / (a + b), rel=1e-12)


def test_tail_note_needs_ten_samples_beyond_the_percentile():
    from run import tail_note

    assert "max 3" in tail_note([1.0, 2.0, 3.0])
    assert tail_note([float(x) for x in range(20)]).startswith("n=20; p50 ")
