import json
import math

import numpy as np
import pytest

from fastmix.chains import (ReversibleChain, TransitionGraph, edge_flow,
                            fit_to_budgets, load_chain_csv, max_degree_chain,
                            save_chain_csv, symmetric_walk, validate_chain)
from fastmix.families import cycle_graph, complete_graph, knkn_graph, torus_graph
from fastmix.upper_bounds import equalize_congestion, shortest_path_system
from helpers import random_connected_graph, random_valid_chain


def flip_chain():
    graph = TransitionGraph(2, [(0, 1)])
    return ReversibleChain(graph, [[0.0, 1.0], [1.0, 0.0]])


class TestTransitionGraph:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            TransitionGraph(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_explicit_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            TransitionGraph(2, [(0, 0), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            TransitionGraph(2, [(0, 2)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            TransitionGraph(4, [(0, 1), (2, 3)])

    def test_rejects_bad_pi(self):
        with pytest.raises(ValueError, match="positive"):
            TransitionGraph(2, [(0, 1)], [1.0, 0.0])
        with pytest.raises(ValueError, match="sums"):
            TransitionGraph(2, [(0, 1)], [0.6, 0.6])

    @pytest.mark.parametrize("pi", [[math.nan, math.nan], [0.5, math.nan],
                                    [math.inf, 0.5], [-math.inf, math.inf]])
    def test_rejects_non_finite_pi(self, pi):
        with pytest.raises(ValueError, match="finite"):
            TransitionGraph(2, [(0, 1)], pi)

    def test_canonical_order(self):
        g = TransitionGraph(3, [(2, 1), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.neighbors(1) == (0, 2)


class TestValidateChain:
    def test_flip_chain_valid(self):
        assert validate_chain(flip_chain()) == []

    def test_row_sum_violation_reported(self):
        graph = TransitionGraph(2, [(0, 1)])
        chain = ReversibleChain(graph, [[0.5, 0.6], [0.6, 0.4]])
        report = validate_chain(chain)
        assert len(report) == 1
        assert "row 0" in report[0]

    def test_off_edge_mass_reported(self):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])
        P = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
        report = validate_chain(chain := ReversibleChain(graph, P))
        assert any("non-edge (0,2)" in msg for msg in report)
        assert chain.P[0, 2] == 0.25

    def test_detailed_balance_violation_reported(self):
        graph = TransitionGraph(2, [(0, 1)], [0.25, 0.75])
        chain = ReversibleChain(graph, [[0.5, 0.5], [0.5, 0.5]])
        report = validate_chain(chain)
        assert any("detailed balance" in msg for msg in report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_reported(self, bad):
        graph = TransitionGraph(2, [(0, 1)])
        assert validate_chain(ReversibleChain(graph, np.full((2, 2), bad))) != []
        chain = ReversibleChain(graph, [[0.0, 1.0], [1.0, bad]])
        assert any("row 1" in msg for msg in validate_chain(chain))

    def test_nan_off_edge_entry_reported(self):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        P[0, 2] = float("nan")
        report = validate_chain(ReversibleChain(graph, P))
        assert any("non-edge (0,2)" in msg for msg in report)

    def test_equalized_linked_cliques_chain_valid(self):
        graph = knkn_graph(3)
        chain = equalize_congestion(graph, shortest_path_system(graph))
        assert validate_chain(chain) == []


class TestEdgeFlow:
    def test_flip_chain_flow(self):
        assert edge_flow(flip_chain(), 0, 1) == 0.5

    def test_symmetry_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            chain = random_valid_chain(rng, graph)
            for i, j in graph.edges:
                assert abs(edge_flow(chain, i, j) - edge_flow(chain, j, i)) <= 1e-10

    def test_equalized_bridge_flow_closed_form(self):
        graph = knkn_graph(3)
        chain = equalize_congestion(graph, shortest_path_system(graph))
        assert edge_flow(chain, 0, 3) == pytest.approx(7 / 78, abs=1e-12)

    def test_flow_conservation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            chain = random_valid_chain(rng, graph)
            rows = chain.flows().sum(axis=1)
            assert np.all(np.abs(rows - graph.pi) <= 1e-10)


class TestMaxDegreeChain:
    def test_two_nodes(self):
        chain = max_degree_chain(TransitionGraph(2, [(0, 1)]))
        # closed neighborhood of either node carries all the mass
        assert chain.P[0, 1] == pytest.approx(0.5)
        assert validate_chain(chain) == []

    def test_complete_graph(self):
        chain = max_degree_chain(complete_graph(5))
        off = chain.P[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 1 / 5)

    def test_linked_cliques(self):
        chain = max_degree_chain(knkn_graph(3))
        for i, j in chain.graph.edges:
            assert chain.P[i, j] == pytest.approx(1 / 4)

    def test_always_validates(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            graph = random_connected_graph(rng, int(rng.integers(2, 10)))
            assert validate_chain(max_degree_chain(graph)) == []


class TestFlowBudgets:
    def test_fit_to_budgets_scales_stars_back(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            graph = random_connected_graph(rng, int(rng.integers(2, 10)))
            q = rng.uniform(0.0, 2.0, size=len(graph.edges)) * graph.pi.max()
            expected = q.copy()
            for i in range(graph.n):   # reference: one ordered pass of star scalings
                idx = graph.incident_edges(i)
                if expected[idx].sum() > graph.pi[i]:
                    expected[idx] *= graph.pi[i] / expected[idx].sum()
            out = fit_to_budgets(graph, q)
            assert out is q and np.array_equal(out, expected)
            for i in range(graph.n):   # the rescaled sum may round one ulp high
                assert q[graph.incident_edges(i)].sum() <= graph.pi[i] * (1 + 1e-15)


class TestSymmetricWalk:
    def test_cycle(self):
        chain = symmetric_walk(cycle_graph(4))
        assert chain.P[0, 1] == 0.5 and chain.P[0, 3] == 0.5
        assert validate_chain(chain) == []

    def test_complete(self):
        chain = symmetric_walk(complete_graph(6))
        assert chain.P[2, 3] == pytest.approx(1 / 5)

    def test_torus(self):
        chain = symmetric_walk(torus_graph(3, 2))
        assert sorted(chain.P[0][chain.P[0] > 0]) == pytest.approx([0.25] * 4)
        assert validate_chain(chain) == []

    def test_nonuniform_pi_rejected(self):
        graph = TransitionGraph(2, [(0, 1)], [0.3, 0.7])
        with pytest.raises(ValueError, match="uniform"):
            symmetric_walk(graph)


class TestSerialization:
    def test_graph_round_trip(self, tmp_path):
        graph = knkn_graph(4)
        path = tmp_path / "g.json"
        graph.save(path)
        back = TransitionGraph.load(path)
        assert back.edges == graph.edges
        assert back.n == graph.n
        assert np.array_equal(back.pi, graph.pi)

    def test_graph_json_default_pi(self):
        g = TransitionGraph.from_json_dict({"n": 2, "edges": [[0, 1]]})
        assert np.array_equal(g.pi, [0.5, 0.5])

    def test_chain_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        graph = random_connected_graph(rng, 6)
        chain = random_valid_chain(rng, graph)
        path = tmp_path / "chain.csv"
        save_chain_csv(chain, path)
        back = load_chain_csv(graph, path)
        assert np.array_equal(back.P, chain.P)
