import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastmix import solver
from fastmix.chains import ReversibleChain, TransitionGraph, saturate_flows, validate_chain
from fastmix.experiments import SANDWICH_SLACK
from fastmix.families import (complete_graph, geometric_graph, knkn_graph,
                              path_graph, torus_graph)
from fastmix.lower_bounds import (embedding_bound, expansion_lower_bound,
                                  make_geometric_embedding, make_knkn_embedding,
                                  make_torus_embedding)
from fastmix.solver import CERTIFIED_GAP, SolverConfig, solve_fastest_mixing
from fastmix.spectral import spectrum, symmetrized
from fastmix.upper_bounds import (cheeger_upper_bound, congestion,
                                  equalize_congestion, shortest_path_system)
from helpers import (GRID_MAX_EDGES, REFERENCE_GRAPHS, OracleResult,
                     cover_slacks_reference, grid_oracle, random_connected_graph,
                     solve_reference)

SMALL = SolverConfig(max_iters=5000)


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
        result = solve_fastest_mixing(torus_graph(4, 1), SMALL)
        assert result.tau2_star == pytest.approx(1.0, abs=1e-3)

    def test_result_chain_is_feasible(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            result = solve_fastest_mixing(graph, SolverConfig(max_iters=400))
            assert validate_chain(result.chain) == []
            summary = spectrum(result.chain)
            assert result.lambda2_star == pytest.approx(summary.lambda2, abs=1e-9)

    def test_history_has_one_value_per_newton_step(self):
        result = solve_fastest_mixing(knkn_graph(3), SolverConfig(max_iters=800))
        history = np.array(result.history)
        assert result.iterations == len(history) >= 1
        assert np.all(np.isfinite(history))
        # 1 - gamma of the last iterate is a lambda2 bound of its chain,
        # which saturation can only lower
        assert history[-1] < history[0]
        assert history[-1] >= result.lambda2_star - 1e-9
        assert 0.0 <= result.certified_gap <= CERTIFIED_GAP

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
        for value in (0, -3, float("nan")):
            with pytest.raises(ValueError):
                SolverConfig(max_iters=value)

    def test_json_fields(self):
        result = solve_fastest_mixing(torus_graph(5, 1))
        payload = result.to_json_dict()
        assert set(payload) == {"lambda2_star", "tau2_star", "lower_bound",
                                "certified_gap", "iterations", "certificates", "stop"}
        assert payload["stop"] == result.stop == "certified"
        assert payload["certificates"] == result.certificates >= 1
        assert payload["certified_gap"] == pytest.approx(
            (result.tau2_star - result.lower_bound) / result.tau2_star, rel=1e-12)


class TestStopReason:
    def test_certified(self):
        result = solve_fastest_mixing(knkn_graph(8))
        assert result.stop == "certified"
        assert result.certified_gap <= CERTIFIED_GAP

    def test_newton_cap(self):
        result = solve_fastest_mixing(knkn_graph(8), SolverConfig(max_iters=1))
        assert result.stop == "newton_cap"
        assert result.iterations == 1
        assert result.certified_gap > CERTIFIED_GAP

    def test_step_that_leaves_the_iterate_unchanged_ends_the_centring(self, monkeypatch):
        # rounding can make the line search accept a step that does not move
        # (q, gamma); such a centring must end, not spin out the Newton budget
        monkeypatch.setattr(solver._Barrier, "line_search",
                            lambda self, q, gamma, t, chol, grad, step: (q, gamma, chol))
        graph = torus_graph(4, 2)
        result = solve_fastest_mixing(graph)
        assert result.iterations == 0
        assert result.stop in ("certified", "no_improvement")
        assert validate_chain(result.chain) == []
        assert 0.0 < result.lower_bound <= result.tau2_star


def test_newton_steps_with_one_blas_thread():
    # the predictor follows the central path: restarting each centre from
    # the last one took 61 (torus 8x8) and 70 (knkn 8) Newton steps
    script = (
        "from fastmix.families import knkn_graph, torus_graph\n"
        "from fastmix.solver import solve_fastest_mixing\n"
        "for graph in (torus_graph(8, 2), knkn_graph(8)):\n"
        "    result = solve_fastest_mixing(graph)\n"
        "    print(result.iterations, result.stop)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {"PYTHONPATH": str(src), "PATH": ""}
    env.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                       "MKL_NUM_THREADS")})
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    (torus, torus_stop), (knkn, knkn_stop) = (line.split() for line in done.stdout.splitlines())
    assert int(torus) <= 35 and torus_stop == "certified"
    assert int(knkn) <= 40 and knkn_stop == "certified"


class TestBarrier:
    @staticmethod
    def centred(barrier, q, gamma, chol, t):
        for _ in range(100):
            grad, step, tangent = barrier.newton(q, gamma, t, chol)
            if -float(grad @ step) <= 1e-24:
                break
            moved = barrier.line_search(q, gamma, t, chol, grad, step)
            if moved is None:
                break
            q, gamma, chol = moved
        return q, gamma, chol, tangent

    def test_factor_is_the_shifted_symmetrized_laplacian(self):
        graph = random_connected_graph(np.random.default_rng(7), 9)
        barrier = solver._Barrier(graph)
        q = 0.3 * saturate_flows(graph, np.full(len(graph.ends), 1.0))
        gamma = 0.01
        u = np.sqrt(graph.pi)
        S = symmetrized(ReversibleChain(graph, q))
        N = (1.0 - gamma) * np.eye(graph.n) - S + (1.0 + gamma) * np.outer(u, u)
        chol = barrier.factor(q, gamma)
        np.testing.assert_allclose(chol @ chol.T, N, rtol=0, atol=1e-14)
        assert barrier.factor(q, 10.0) is None

    def test_tangent_is_the_derivative_of_the_centres(self):
        graph = random_connected_graph(np.random.default_rng(11), 7)
        barrier = solver._Barrier(graph)
        q = 0.5 * saturate_flows(graph, np.full(len(graph.ends), 1.0))
        chol = barrier.factor(q, 0.0)
        t = 200.0
        q, gamma, chol, tangent = self.centred(barrier, q, 0.0, chol, t)
        dt = 1e-4 * t
        q2, gamma2, _, _ = self.centred(barrier, q, gamma, chol, t + dt)
        moved = np.append(q2 - q, gamma2 - gamma) / dt
        np.testing.assert_allclose(moved, tangent, rtol=1e-3, atol=1e-3 * np.abs(tangent).max())


# (graph, its closed-form embedding, whether that embedding is optimal)
ANALYTIC = [
    (knkn_graph(3), make_knkn_embedding(3), True),
    (knkn_graph(6), make_knkn_embedding(6), True),
    (torus_graph(4, 1), make_torus_embedding(4, 1), True),
    (torus_graph(7, 1), make_torus_embedding(7, 1), True),
    (torus_graph(12, 1), make_torus_embedding(12, 1), True),
    (torus_graph(3, 2), make_torus_embedding(3, 2), True),
    (torus_graph(5, 2), make_torus_embedding(5, 2), True),
    (torus_graph(4, 3), make_torus_embedding(4, 3), True),
    # the geometric closed forms are valid but not tight: the dual beats them
    (geometric_graph(6, 2), make_geometric_embedding(6, 2), False),
    (geometric_graph(9, 3), make_geometric_embedding(9, 3), False),
    (geometric_graph(8, 2, 2), make_geometric_embedding(8, 2, 2), False),
]


class TestDualCertificate:
    @pytest.mark.parametrize("graph,embedding,tight", ANALYTIC, ids=repr)
    def test_dual_bound_matches_the_analytic_embedding(self, graph, embedding, tight):
        analytic = embedding_bound(graph, embedding)
        result = solve_fastest_mixing(graph)
        assert result.lower_bound >= analytic * (1 - 1e-6)
        if tight:
            assert result.lower_bound == pytest.approx(analytic, rel=1e-6)
            assert result.tau2_star == pytest.approx(analytic, rel=1e-9)

    @pytest.mark.parametrize("graph,embedding,tight", ANALYTIC, ids=repr)
    def test_tau_agrees_with_the_jacobi_spectrum(self, graph, embedding, tight):
        result = solve_fastest_mixing(graph)
        jacobi = spectrum(result.chain)
        assert result.tau2_star == pytest.approx(jacobi.relaxation_time, rel=1e-9)
        assert result.lambda2_star == pytest.approx(jacobi.lambda2, abs=1e-9)

    def test_embedding_is_the_certificate(self):
        graph = random_connected_graph(np.random.default_rng(5), 9)
        result = solve_fastest_mixing(graph)
        assert embedding_bound(graph, result.embedding) == result.lower_bound
        assert result.lower_bound <= result.tau2_star
        assert result.certified_gap <= 1e-5

    @pytest.mark.parametrize("cap", [1, 2, 5, 20])
    def test_newton_cap_still_certifies(self, cap):
        graph = random_connected_graph(np.random.default_rng(cap), 8)
        result = solve_fastest_mixing(graph, SolverConfig(max_iters=cap))
        assert result.iterations <= cap
        assert len(result.history) == result.iterations
        assert validate_chain(result.chain) == []
        assert embedding_bound(graph, result.embedding) == result.lower_bound
        assert 0.0 < result.lower_bound <= result.tau2_star
        full = solve_fastest_mixing(graph)
        assert full.certified_gap <= result.certified_gap
        assert result.lower_bound <= full.tau2_star and full.lower_bound <= result.tau2_star

    def test_beats_the_equalized_chain_on_linked_cliques(self):
        # the equalized chain is not optimal on knkn: the embedding bound is
        for n in (3, 4):
            graph = knkn_graph(n)
            W = shortest_path_system(graph)
            equalized = spectrum(equalize_congestion(graph, W)).relaxation_time
            result = solve_fastest_mixing(graph)
            assert result.tau2_star < equalized - 1e-3


def assert_same_result(result, reference):
    """Bitwise equality of every field."""
    assert np.array_equal(result.chain.P, reference.chain.P)
    for name in ("lambda2_star", "tau2_star", "lower_bound", "certified_gap", "iterations",
                 "certificates", "stop"):
        assert getattr(result, name) == getattr(reference, name), name
    assert result.history == reference.history
    assert np.array_equal(result.embedding.vectors, reference.embedding.vectors)
    assert np.array_equal(result.embedding.slacks, reference.embedding.slacks)
    assert result.certificates >= 1


def _random_uneven(n):
    return random_connected_graph(np.random.default_rng(1000 + n), n)


# the zoo, random uneven-pi graphs of the benchmark's sizes, and larger families
CERTIFIED_CASES = (
    list(REFERENCE_GRAPHS)
    + [(f"random{n}-uneven-b", lambda n=n: _random_uneven(n)) for n in range(12, 17)]
    + [("torus6x6", lambda: torus_graph(6, 2)), ("knkn8", lambda: knkn_graph(8)),
       ("K3-half", lambda: TransitionGraph(3, [(0, 1), (0, 2), (1, 2)], [0.5, 0.25, 0.25]))]
)
# only centres near the end of a solve are certified
MAX_CERTIFICATES = 4
# the saturated start is optimal and every centre's dual exact: on these the
# skipped centres would each have certified, so skipping costs Newton steps
STARTS_AT_OPTIMUM = {"cycle3", "tree2-uneven"} | {f"complete{n}" for n in range(2, 13)}


class TestCertifiedCentres:
    """The solver certifies few centres, returns what the reference that
    certifies every centre (``helpers.solve_reference``) returns, and skips
    no centre whose certificate would have ended the solve."""

    @staticmethod
    def reference_recording_lengths(graph, config, monkeypatch):
        lengths = []

        def recording(graph, d2):
            lengths.append(d2)
            return cover_slacks_reference(graph, d2)

        with monkeypatch.context() as patch:
            patch.setattr(solver, "_cover_slacks", recording)
            reference, skipped = solve_reference(graph, config)
        return reference, skipped, lengths

    @pytest.mark.parametrize("name, build", CERTIFIED_CASES, ids=[c[0] for c in CERTIFIED_CASES])
    def test_bitwise_equal_to_certifying_every_centre(self, name, build, monkeypatch):
        graph = build()
        reference, skipped, lengths = self.reference_recording_lengths(graph, None, monkeypatch)
        result = solve_fastest_mixing(graph)
        assert_same_result(result, reference)
        assert result.certificates <= MAX_CERTIFICATES
        if name in STARTS_AT_OPTIMUM:
            assert result.certificates == 1
            assert all(gap <= CERTIFIED_GAP for gap in skipped), skipped
        else:
            assert all(gap > CERTIFIED_GAP for gap in skipped), skipped
        assert result.certified_gap <= CERTIFIED_GAP or result.stop != "certified"
        for d2 in lengths:
            assert np.array_equal(solver._cover_slacks(graph, d2),
                                  cover_slacks_reference(graph, d2))

    @pytest.mark.parametrize("cap", [1, 2, 5, 9])
    @pytest.mark.parametrize("build", [lambda: _random_uneven(12), lambda: knkn_graph(8),
                                       lambda: complete_graph(6), lambda: torus_graph(9, 1)],
                             ids=["random12-uneven-b", "knkn8", "complete6", "cycle9"])
    def test_capped_solve_ends_with_a_certified_pair(self, cap, build, monkeypatch):
        graph = build()
        config = SolverConfig(max_iters=cap)
        reference, _, _ = self.reference_recording_lengths(graph, config, monkeypatch)
        result = solve_fastest_mixing(graph, config)
        assert_same_result(result, reference)
        assert result.iterations <= cap
        assert validate_chain(result.chain) == []
        assert embedding_bound(graph, result.embedding) == result.lower_bound
        assert 0.0 < result.lower_bound <= result.tau2_star


@st.composite
def uneven_instances(draw):
    """Connected graphs on 2..9 nodes: a random tree plus random extra edges,
    with pi weights drawn from [0.05, 1] (uneven up to a factor of 20)."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    return TransitionGraph(n, sorted(edges), weights / weights.sum())


@settings(max_examples=40, deadline=None)
@given(uneven_instances())
def test_certified_sandwich_property(graph):
    result = solve_fastest_mixing(graph)
    assert embedding_bound(graph, result.embedding) == result.lower_bound
    W = shortest_path_system(graph)
    upper = congestion(equalize_congestion(graph, W), W).rho_bar
    assert result.lower_bound <= result.tau2_star <= upper + SANDWICH_SLACK
    assert result.certified_gap <= 1e-4


def test_report_row_never_imports_scipy(tmp_path):
    # importing scipy.optimize lifts a fresh process's resident memory from
    # ~27 MB to ~76 MB (scipy 1.17, numpy 2.4), more than any row needs
    graph = random_connected_graph(np.random.default_rng(3), 10)
    path = tmp_path / "g.json"
    graph.save(path)
    script = (
        "import sys\n"
        "from fastmix import cli\n"
        f"code = cli.main(['report', '--family', 'custom', '--sweep', 'path={path}'])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": str(src), "PATH": ""}, timeout=120)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout)[0]
    assert row["lb_embed"] <= row["tau2_solver"] <= row["ub_congestion"]
    assert math.isfinite(row["certified_gap"]) and row["certified_gap"] <= 1e-4


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
            grid_oracle(torus_graph(5, 1), resolution=10)
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
        cases = [knkn_graph(3), knkn_graph(4), torus_graph(4, 1), torus_graph(7, 1),
                 complete_graph(4), torus_graph(3, 2), geometric_graph(6, 2),
                 path_graph(5)]
        config = SolverConfig(max_iters=3000)
        for graph in cases:
            tau2 = solve_fastest_mixing(graph, config).tau2_star
            assert expansion_lower_bound(graph).value <= tau2 + 1e-6
            W = shortest_path_system(graph)
            rho = congestion(equalize_congestion(graph, W), W).rho_bar
            assert tau2 <= rho + 1e-6
            assert tau2 <= cheeger_upper_bound(graph) + 1e-6

    def test_oracle_result_type(self):
        oracle = grid_oracle(path_graph(3), resolution=20)
        assert isinstance(oracle, OracleResult)
        assert oracle.spacing == pytest.approx((1 / 3) / 20)
