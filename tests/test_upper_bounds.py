import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings

from fastmix.chains import ReversibleChain, TransitionGraph, max_degree_chain, validate_chain
from fastmix.families import complete_graph, cycle_graph, knkn_graph, torus_graph
from fastmix.lower_bounds import expansion_lower_bound
from fastmix.solver import SolverConfig, solve_fastest_mixing
from fastmix.spectral import spectrum
from fastmix.upper_bounds import (cheeger_bound_from_expansion, cheeger_upper_bound,
                                  congestion, equalize_congestion, shortest_path_system)
from helpers import (check_congestion_soundness, layout_graphs, random_connected_graph,
                     tree_loads_reference)


def reference_paths(graph):
    """The per-pair BFS walk the vectorized path system must reproduce."""
    dist = []
    for source in range(graph.n):
        d = [-1] * graph.n
        d[source] = 0
        queue = [source]
        for u in queue:
            for v in graph.neighbors(u):
                if d[v] < 0:
                    d[v] = d[u] + 1
                    queue.append(v)
        dist.append(d)
    paths = {}
    for x in range(graph.n):
        for y in range(x + 1, graph.n):
            nodes = [x]
            while nodes[-1] != y:
                cur = nodes[-1]
                nodes.append(next(v for v in graph.neighbors(cur)
                                  if dist[x][v] == dist[x][cur] + 1
                                  and dist[v][y] == dist[x][y] - dist[x][cur] - 1))
            paths[(x, y)] = tuple(nodes)
    return paths


def reference_loads(graph, paths):
    """Per-pair, per-hop accumulation of W, in pair order."""
    W = np.zeros(len(graph.edges))
    for (x, y), nodes in sorted(paths.items()):
        weight = graph.pi[x] * graph.pi[y] * (len(nodes) - 1)
        for a, b in zip(nodes, nodes[1:]):
            W[graph.edge_index[(min(a, b), max(a, b))]] += weight
    return W


def reference_cases():
    rng = np.random.default_rng(52)
    graphs = [random_connected_graph(rng, int(rng.integers(2, 14)),
                                     extra_edge_prob=float(rng.choice([0.0, 0.3])))
              for _ in range(8)]
    return graphs + [knkn_graph(4), cycle_graph(7), torus_graph(5, 2), complete_graph(5)]


def check_paths_and_loads(graph):
    W = shortest_path_system(graph)
    assert W.tobytes() == tree_loads_reference(graph).tobytes()
    # the trees sum W in another order than the pairs do
    np.testing.assert_allclose(W, reference_loads(graph, reference_paths(graph)),
                               rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("graph", reference_cases(), ids=repr)
def test_vectorized_paths_and_loads_match_the_loops(graph):
    check_paths_and_loads(graph)


@settings(max_examples=40, deadline=None)
@given(layout_graphs())
def test_paths_and_loads_match_the_loops_on_random_shapes(graph):
    check_paths_and_loads(graph)


class TestShortestPaths:
    def test_complete_graph_single_edges(self):
        # every pair is one edge: W = pi(x) pi(y) = 1/16 on each
        assert shortest_path_system(complete_graph(4)).tolist() == [1 / 16] * 6

    def test_linked_cliques_cross_path(self):
        # 0-indexed: every pair across the cliques crosses the bridge (0,3);
        # the spoke (1,2) carries its own pair alone
        graph = knkn_graph(3)
        W = shortest_path_system(graph)
        assert W[graph.edge_index[(0, 3)]] == pytest.approx(7 / 12, rel=1e-15)
        assert W[graph.edge_index[(1, 2)]] == 1 / 36

    def test_cycle_tie_break(self):
        # both ties go to the smaller neighbour: the pair (0, 2) runs through
        # 1 and (1, 3) through 0, so edge (0,1) carries three pairs, (2,3) one
        graph = cycle_graph(4)
        assert graph.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert shortest_path_system(graph).tolist() == [5 / 16, 3 / 16, 3 / 16, 1 / 16]

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="two nodes"):
            shortest_path_system(TransitionGraph(1, []))

    def test_arrays_are_read_only(self):
        W = shortest_path_system(knkn_graph(3))
        assert W.shape == (7,) and W.dtype == np.float64
        with pytest.raises(ValueError):
            W[0] = 1

    def test_loads_of_another_graph_rejected(self):
        graph = knkn_graph(3)
        chain = max_degree_chain(graph)
        for loads in (shortest_path_system(cycle_graph(4)), np.ones(8), np.ones((7, 1)), []):
            with pytest.raises(ValueError, match=r"expected one per edge \(7,\)"):
                congestion(chain, loads)
            with pytest.raises(ValueError, match=r"expected one per edge \(7,\)"):
                equalize_congestion(graph, loads)


class TestCongestion:
    def test_linked_cliques_loads(self):
        graph = knkn_graph(3)
        chain = max_degree_chain(graph)
        report = congestion(chain, shortest_path_system(graph))
        loads = dict(zip(graph.edges, report.loads))
        assert loads[(0, 3)] == pytest.approx(7 / 12, abs=1e-12)
        assert loads[(0, 1)] == pytest.approx(1 / 4, abs=1e-12)
        assert loads[(1, 2)] == pytest.approx(1 / 36, abs=1e-12)

    def test_flip_chain_value(self):
        # single pair, unit length: W = pi(0) pi(1) = 1/4 over Q = 1/2
        graph = TransitionGraph(2, [(0, 1)])
        chain = ReversibleChain.from_matrix(graph, [[0.0, 1.0], [1.0, 0.0]])
        report = congestion(chain, shortest_path_system(graph))
        assert report.rho_bar == pytest.approx(0.5)
        assert spectrum(chain).relaxation_time <= report.rho_bar + 1e-12

    def test_zero_flow_loaded_edge_is_infinite(self):
        graph = cycle_graph(4)
        flows = np.array([0.25, 0.25, 0.25, 0.0])
        chain = ReversibleChain(graph, flows)
        report = congestion(chain, shortest_path_system(graph))
        assert report.rho_bar == math.inf
        assert report.argmax_edge == (2, 3)

    def test_soundness_on_random_chains(self):
        check_congestion_soundness(seed=33, cases=50)


class TestEqualizeCongestion:
    def test_linked_cliques_closed_forms(self):
        for n in range(3, 9):
            graph = knkn_graph(n)
            chain = equalize_congestion(graph, shortest_path_system(graph))
            q_bridge = chain.flows[graph.edge_index[(0, n)]]
            q_spoke = chain.flows[graph.edge_index[(0, 1)]]
            assert q_bridge == pytest.approx((3 * n - 2) / (2 * n * (6 * n - 5)), abs=1e-8)
            assert q_spoke == pytest.approx(3 / (2 * n * (6 * n - 5)), abs=1e-8)

    def test_linked_cliques_rho_matches_closed_form(self):
        for n in (3, 5, 8):
            graph = knkn_graph(n)
            W = shortest_path_system(graph)
            report = congestion(equalize_congestion(graph, W), W)
            assert report.rho_bar == pytest.approx(3 * n * (1 - 5 / (6 * n)), abs=1e-9)

    def test_complete_graph_fixed_point(self):
        chain = equalize_congestion(complete_graph(5), shortest_path_system(complete_graph(5)))
        off = chain.P[~np.eye(5, dtype=bool)]
        assert np.allclose(off, 1 / 4, atol=1e-12)

    def test_output_validates(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            chain = equalize_congestion(graph, shortest_path_system(graph))
            assert validate_chain(chain) == []

    def test_never_worse_than_max_degree(self):
        rng = np.random.default_rng(35)
        for _ in range(15):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            W = shortest_path_system(graph)
            rho_eq = congestion(equalize_congestion(graph, W), W).rho_bar
            rho_pd = congestion(max_degree_chain(graph), W).rho_bar
            assert rho_eq <= rho_pd + 1e-9

    def test_linked_cliques_spectral_upper(self):
        for n in range(3, 21):
            graph = knkn_graph(n)
            chain = equalize_congestion(graph, shortest_path_system(graph))
            tau2 = spectrum(chain).relaxation_time
            assert tau2 <= 3 * n * (1 - 5 / (6 * n)) + 1e-6


class TestCheeger:
    def test_linked_cliques(self):
        assert cheeger_upper_bound(knkn_graph(3)) == pytest.approx(288.0)

    def test_single_edge(self):
        assert cheeger_upper_bound(TransitionGraph(2, [(0, 1)])) == pytest.approx(8.0)

    def test_no_cut_list(self):
        # the minimum over a cut list is no vertex expansion: over [[1, 2]]
        # the value read 128 against the true 288, and over [] it read 0.0
        assert list(inspect.signature(cheeger_upper_bound).parameters) == ["graph"]
        for cuts in ([[1, 2]], []):
            with pytest.raises(TypeError):
                cheeger_upper_bound(knkn_graph(3), cuts)

    def test_complete4_dominates_solver(self):
        graph = complete_graph(4)
        bound = cheeger_upper_bound(graph)
        assert bound == pytest.approx(32.0)
        tau2 = solve_fastest_mixing(graph, SolverConfig(max_iters=1500)).tau2_star
        assert bound >= tau2

    def test_from_expansion_matches_bitwise(self):
        rng = np.random.default_rng(37)
        for _ in range(6):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            upsilon = expansion_lower_bound(graph).upsilon
            assert cheeger_bound_from_expansion(graph, upsilon) == \
                cheeger_upper_bound(graph)

    def test_dominates_solver_on_random_graphs(self):
        rng = np.random.default_rng(36)
        config = SolverConfig(max_iters=1500)
        for _ in range(8):
            graph = random_connected_graph(rng, int(rng.integers(2, 8)))
            assert cheeger_upper_bound(graph) >= \
                solve_fastest_mixing(graph, config).tau2_star - 1e-6


def test_path_loads_sum_rule():
    # summing W over a node's star counts every pair's path visits there
    graph = knkn_graph(3)
    W = shortest_path_system(graph)
    star = W[graph.incident_edges(0)].sum()
    assert star / graph.pi[0] == pytest.approx(3 * 3 * (1 - 5 / (6 * 3)), abs=1e-12)
