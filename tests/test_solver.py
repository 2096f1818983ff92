import numpy as np
import pytest

from fastmix.chains import TransitionGraph, max_degree_chain, validate_chain
from fastmix.families import (complete_graph, cycle_graph, geometric_graph,
                              knkn_graph, path_graph, torus_graph)
from fastmix.lower_bounds import expansion_lower_bound
from fastmix.solver import (GRID_MAX_EDGES, FlowProjector, OracleResult,
                            SolverConfig, grid_oracle, solve_fastest_mixing)
from fastmix.spectral import spectrum
from fastmix.upper_bounds import (cheeger_upper_bound, congestion,
                                  equalize_congestion, shortest_path_system)
from helpers import random_connected_graph

SMALL = SolverConfig(max_iters=5000, step_constant=0.02)


class TestSolveFastestMixing:
    def test_two_states_exact(self):
        result = solve_fastest_mixing(TransitionGraph(2, [(0, 1)]),
                                      SolverConfig(max_iters=300))
        assert result.lambda2_star == pytest.approx(-1.0, abs=1e-12)
        assert result.tau2_star == pytest.approx(0.5, abs=1e-12)
        assert result.chain.P[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_three_node_path(self):
        result = solve_fastest_mixing(path_graph(3), SMALL)
        assert result.tau2_star == pytest.approx(2.0, abs=1e-2)

    def test_cycle4(self):
        result = solve_fastest_mixing(cycle_graph(4), SMALL)
        assert result.tau2_star == pytest.approx(1.0, abs=1e-3)

    def test_result_chain_is_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            result = solve_fastest_mixing(graph, SolverConfig(max_iters=400))
            assert validate_chain(result.chain) == []
            summary = spectrum(result.chain)
            assert result.lambda2_star == pytest.approx(summary.lambda2, abs=1e-9)

    def test_history_is_monotone_best_iterate(self):
        result = solve_fastest_mixing(knkn_graph(3), SolverConfig(max_iters=800))
        history = np.array(result.history)
        assert np.all(np.diff(history) <= 0)
        assert result.iterations == len(history)
        assert result.certificate_gap >= 0.0

    def test_deterministic(self):
        graph = knkn_graph(3)
        a = solve_fastest_mixing(graph, SolverConfig(max_iters=300))
        b = solve_fastest_mixing(graph, SolverConfig(max_iters=300))
        assert a.lambda2_star == b.lambda2_star
        assert np.array_equal(a.chain.P, b.chain.P)

    def test_single_state_rejected(self):
        with pytest.raises(ValueError):
            solve_fastest_mixing(TransitionGraph(1, []))

    def test_bad_config_rejected(self):
        for kwargs in ({"max_iters": 0}, {"max_iters": float("nan")},
                       {"step_constant": 0.0}, {"step_constant": -1.0},
                       {"step_constant": float("nan")}, {"step_constant": float("inf")},
                       {"projection_tol": 0.0}, {"projection_tol": float("nan")},
                       {"projection_tol": float("inf")}):
            with pytest.raises(ValueError):
                SolverConfig(**kwargs)

    def test_projection_work_is_reported(self):
        result = solve_fastest_mixing(knkn_graph(3), SolverConfig(max_iters=300))
        assert result.projection_steps >= result.projection_max_steps >= 1
        assert result.projection_capped == 0
        payload = result.to_json_dict()
        for key in ("projection_steps", "projection_max_steps", "projection_capped"):
            assert payload[key] == getattr(result, key)


def _assert_kkt(graph, project, y, q):
    """The KKT certificate of the projection of y onto the flow box."""
    tol, lam, pi = project.tol, project.lam, graph.pi
    loads = np.zeros(graph.n)
    for k, (i, j) in enumerate(graph.edges):
        loads[i] += q[k]
        loads[j] += q[k]
    slack = pi - loads
    assert q.min() >= 0.0
    assert slack.min() >= -tol
    assert lam.min() >= 0.0
    assert np.all(np.minimum(lam, np.abs(slack)) <= tol)      # complementary slackness
    assert np.array_equal(q, np.maximum(y - lam[project.ei] - lam[project.ej], 0.0))


def _projection_cases():
    rng = np.random.default_rng(2024)
    graphs = [random_connected_graph(rng, int(rng.integers(3, 17)))    # uneven pi
              for _ in range(12)]
    graphs += [random_connected_graph(rng, n, extra_edge_prob=0.0)      # trees
               for n in (2, 5, 9, 16)]
    graphs += [cycle_graph(4), cycle_graph(10), torus_graph(4, 2)]      # bipartite
    return graphs


class TestFlowProjector:
    @pytest.mark.parametrize("graph", _projection_cases(), ids=repr)
    def test_kkt_certificate_with_warm_starts(self, graph):
        rng = np.random.default_rng(graph.n)
        project = FlowProjector(graph, 1e-10)
        scale = graph.pi.max()
        y = rng.uniform(-0.5, 1.5, size=len(graph.edges)) * scale
        for _ in range(25):
            q = project(y)
            _assert_kkt(graph, project, y, q)
            y = q + rng.normal(scale=0.1 * scale, size=len(graph.edges))
        assert project.capped == 0
        assert project.max_steps <= 20

    @pytest.mark.parametrize("graph", _projection_cases(), ids=repr)
    def test_feasible_input_comes_back_unchanged(self, graph):
        y = max_degree_chain(graph).flows()[[e[0] for e in graph.edges],
                                            [e[1] for e in graph.edges]]
        project = FlowProjector(graph, 1e-10)
        assert np.array_equal(project(y), y)
        assert project.steps == 0

    def test_negative_input_gives_zero_flows(self):
        graph = knkn_graph(4)
        project = FlowProjector(graph, 1e-10)
        m = len(graph.edges)
        assert np.array_equal(project(-np.ones(m)), np.zeros(m))
        project(np.ones(m))                         # leave warm multipliers behind
        assert project.lam.max() > 0.0
        y = -np.linspace(0.01, 1.0, m)
        q = project(y)
        assert np.array_equal(q, np.zeros(m))
        _assert_kkt(graph, project, y, q)


class TestGridOracle:
    def test_two_states(self):
        oracle = grid_oracle(TransitionGraph(2, [(0, 1)]), resolution=200)
        assert oracle.lambda2 == pytest.approx(-1.0, abs=1e-12)

    def test_path3_value(self):
        oracle = grid_oracle(path_graph(3), resolution=200)
        assert oracle.lambda2 == pytest.approx(0.5, abs=1e-12)
        assert validate_chain(oracle.chain) == []

    def test_triangle_value(self):
        # trace bound: lambda2 >= (tr P - 1)/2 >= -1/2, attained by the
        # loopless uniform chain, so the oracle must land exactly there
        oracle = grid_oracle(complete_graph(3), resolution=100)
        assert oracle.lambda2 == pytest.approx(-0.5, abs=1e-12)

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError, match="edge flows"):
            grid_oracle(cycle_graph(5), resolution=10)
        assert GRID_MAX_EDGES == 4

    def test_resolution_bounds(self):
        graph = TransitionGraph(2, [(0, 1)])
        with pytest.raises(ValueError):
            grid_oracle(graph, resolution=0)
        with pytest.raises(ValueError):
            grid_oracle(graph, resolution=500)


class TestSolverAgainstOracle:
    @pytest.mark.parametrize("graph,resolution", [
        (TransitionGraph(2, [(0, 1)]), 100),
        (path_graph(3), 100),
        (complete_graph(3), 60),
        (path_graph(4), 40),
    ])
    def test_agreement_within_grid_spacing(self, graph, resolution):
        oracle = grid_oracle(graph, resolution)
        result = solve_fastest_mixing(graph, SMALL)
        assert result.lambda2_star <= oracle.lambda2 + 2 * oracle.spacing
        # the oracle chain is feasible, so it cannot beat the true optimum
        # by more than its own discretization
        assert oracle.lambda2 >= result.lambda2_star - 2 * oracle.spacing


class TestSandwichCertification:
    def test_bounds_bracket_solver_value(self):
        cases = [knkn_graph(3), knkn_graph(4), cycle_graph(4), cycle_graph(7),
                 complete_graph(4), torus_graph(3, 2), geometric_graph(6, 2),
                 path_graph(5)]
        config = SolverConfig(max_iters=3000, step_constant=0.05)
        for graph in cases:
            tau2 = solve_fastest_mixing(graph, config).tau2_star
            assert expansion_lower_bound(graph).value <= tau2 + 1e-6
            paths = shortest_path_system(graph)
            rho = congestion(equalize_congestion(graph, paths), paths).rho_bar
            assert tau2 <= rho + 1e-6
            assert tau2 <= cheeger_upper_bound(graph) + 1e-6

    def test_oracle_result_type(self):
        oracle = grid_oracle(path_graph(3), resolution=20)
        assert isinstance(oracle, OracleResult)
        assert oracle.spacing == pytest.approx((1 / 3) / 20)
