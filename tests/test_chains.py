import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastmix.chains import (ReversibleChain, TransitionGraph, chain_from_flows,
                            edge_flow, fit_to_budgets, load_chain_csv,
                            max_closed_neighborhood_mass, max_degree_chain,
                            saturate_flows, save_chain_csv, symmetric_walk,
                            validate_chain)
from fastmix.families import cycle_graph, complete_graph, knkn_graph, torus_graph
from fastmix.lower_bounds import specified_chain_bound
from fastmix.spectral import rayleigh_quotient
from fastmix.upper_bounds import (congestion, equalize_congestion, path_loads,
                                  shortest_path_system)
from helpers import (REFERENCE_GRAPHS, canonical_edges_reference,
                     chain_from_flows_reference, closed_neighborhood_mass_reference,
                     congestion_reference, connected_reference,
                     dirichlet_reference, equalized_rho_reference, max_degree_chain_reference,
                     random_connected_graph, random_valid_chain, support_reference)


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

    @pytest.mark.parametrize("edge", [[0, 1.9], (0, 1, 5), ("0", "1"), (0, None),
                                      (0, math.inf), (0, math.nan), (0,), [0, [1]]])
    def test_rejects_malformed_edges(self, edge):
        # each of these used to be truncated to an edge (0, 1) or to crash
        with pytest.raises(ValueError, match=re.escape(repr(edge))):
            TransitionGraph(3, [(1, 2), edge])

    def test_accepts_integral_numbers_and_arrays(self):
        expected = TransitionGraph(3, [(0, 1), (1, 2)])
        for edges in ([(0.0, 1), (np.int32(2), 1.0)],
                      np.array([[1, 0], [2, 1]]), np.array([[0.0, 1.0], [1.0, 2.0]]),
                      ((i, i + 1) for i in range(2))):
            g = TransitionGraph(3, edges)
            assert g.edges == expected.edges and g.ends.dtype == np.int64

    @pytest.mark.parametrize("n", [2.9, "2", math.inf, math.nan, None])
    def test_rejects_non_integral_node_count(self, n):
        # 2.9 used to be read as 2 nodes, "2" as 2 and inf raised OverflowError
        with pytest.raises(ValueError, match="node count"):
            TransitionGraph(n, [(0, 1)])

    def test_accepts_integral_node_counts(self):
        for n in (2.0, np.int32(2), np.float64(2.0)):
            g = TransitionGraph(n, [(0, 1)])
            assert g.n == 2 and type(g.n) is int

    @pytest.mark.parametrize("data, key", [({"edges": [[0, 1]]}, "'n'"),
                                           ({"n": 2}, "'edges'")])
    def test_json_without_a_required_key(self, data, key):
        with pytest.raises(ValueError, match=key):
            TransitionGraph.from_json_dict(data)

    def test_too_few_edges_rejected_before_allocating(self):
        # a connected graph on n nodes has at least n - 1 edges; without the
        # early check this would allocate pi for 10^15 nodes
        with pytest.raises(ValueError, match="connected"):
            TransitionGraph(10 ** 15, [(0, 1)])

    def test_edge_arrays_are_read_only(self):
        g = knkn_graph(3)
        for array in (g.ends, g.star_offsets, g.star_owners, g.star_nodes, g.star_edges):
            assert not array.flags.writeable
        assert g.ends.shape == (len(g.edges), 2)
        assert g.star_offsets[-1] == 2 * len(g.edges)


def layout_checks(graph):
    """The edge arrays and everything read from them, against the loops of ``helpers``."""
    rng = np.random.default_rng(graph.n)
    n, edges = graph.n, graph.edges
    # canonicalization and connectivity, from flipped and shuffled input
    given_edges = [(j, i) if rng.random() < 0.5 else (i, j)
                   for i, j in rng.permutation(np.array(edges, dtype=int).reshape(-1, 2))]
    assert TransitionGraph(n, given_edges, graph.pi).edges == \
        canonical_edges_reference(n, given_edges) == edges
    assert connected_reference(n, edges)
    for i in range(n):
        assert graph.neighbors(i) == tuple(sorted({j for e in edges if i in e
                                                   for j in e if j != i}))
        assert graph.incident_edges(i) == [graph.edge_index[(min(i, j), max(i, j))]
                                           for j in graph.neighbors(i)]
    pi_star = max_closed_neighborhood_mass(graph)
    assert pi_star.hex() == closed_neighborhood_mass_reference(graph).hex()
    assert max_degree_chain(graph).P.tobytes() == max_degree_chain_reference(graph).tobytes()
    q = rng.uniform(0.0, 1.0, size=len(edges)) * graph.pi.min() / max(n - 1, 1)
    assert chain_from_flows(graph, q).P.tobytes() == \
        chain_from_flows_reference(graph, q).tobytes()
    # every off-diagonal entry carries mass: the non-edges are reported
    allowed = support_reference(graph) | np.eye(n, dtype=bool)
    report = validate_chain(ReversibleChain(graph, np.full((n, n), 1.0 / n)))
    assert [msg for msg in report if "non-edge" in msg] == \
        [f"mass {1.0 / n:.3e} on non-edge ({i},{j})" for i, j in np.argwhere(~allowed)]
    if n > 1:
        # these two sum their edge terms in a different order: equal up to rounding
        chain = max_degree_chain(graph)
        g = rng.normal(size=n)
        var = float(graph.pi @ (g - graph.pi @ g) ** 2)
        assert rayleigh_quotient(chain, g) == \
            pytest.approx(dirichlet_reference(chain, g) / var, rel=1e-12)
        psi = rng.normal(size=(n, 3))
        psi -= graph.pi @ psi
        assert specified_chain_bound(chain, psi) == pytest.approx(
            float(graph.pi @ np.sum(psi ** 2, axis=1)) / dirichlet_reference(chain, psi),
            rel=1e-12)
        paths = shortest_path_system(graph)
        W = path_loads(graph, paths)
        rho = equalized_rho_reference(graph, W)
        equalized = equalize_congestion(graph, paths, W)
        assert equalized.P.tobytes() == \
            chain_from_flows(graph, saturate_flows(graph, W / rho)).P.tobytes()
        for chain in (equalized, max_degree_chain(graph)):
            report = congestion(chain, paths, W)
            loads, ratios, rho_bar, argmax = congestion_reference(chain, W)
            assert (report.edge_loads, report.ratios, report.argmax_edge) == \
                (loads, ratios, argmax)
            assert report.rho_bar.hex() == rho_bar.hex()


def uneven_pi(rng, n):
    pi = rng.uniform(0.05, 1.0, size=n)
    return pi / pi.sum()


# stars of degree >= 8 make numpy's pairwise sums differ from sequential ones
LAYOUT_GRAPHS = REFERENCE_GRAPHS + [
    ("star20-uneven", lambda: TransitionGraph(
        20, [(0, k) for k in range(1, 20)], uneven_pi(np.random.default_rng(1), 20))),
    ("path20-uneven", lambda: TransitionGraph(
        20, [(k, k + 1) for k in range(19)], uneven_pi(np.random.default_rng(2), 20))),
    ("complete16-uneven", lambda: TransitionGraph(
        16, complete_graph(16).edges, uneven_pi(np.random.default_rng(3), 16))),
    ("single-node", lambda: TransitionGraph(1, [])),
]


@st.composite
def layout_graphs(draw):
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["sparse", "dense", "star", "path", "complete"]))
    if shape == "star":
        edges = [(0, k) for k in range(1, n)]
    elif shape == "path":
        edges = [(k, k + 1) for k in range(n - 1)]
    elif shape == "complete":
        edges = complete_graph(n).edges
    else:
        edges = random_connected_graph(
            rng, n, extra_edge_prob=0.15 if shape == "sparse" else 0.7).edges
    return TransitionGraph(n, edges, uneven_pi(rng, n))


class TestEdgeLayoutReference:
    """Array expressions over the graph's edge arrays against the loops they replaced."""

    @pytest.mark.parametrize("build", [b for _, b in LAYOUT_GRAPHS],
                             ids=[name for name, _ in LAYOUT_GRAPHS])
    def test_zoo_bitwise(self, build):
        layout_checks(build())

    @settings(max_examples=60, deadline=None)
    @given(layout_graphs())
    def test_random_graphs_bitwise(self, graph):
        layout_checks(graph)

    def test_zoo_has_wide_stars(self):
        # the sequential and pairwise sums part ways from 8 terms up
        widest = max(int(np.diff(build().star_offsets).max(initial=0))
                     for _, build in LAYOUT_GRAPHS)
        assert widest >= 15

    def test_disconnected_reference_agrees(self):
        assert not connected_reference(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            TransitionGraph(4, [(0, 1), (2, 3)])
        # as many edges as a spanning tree needs, in two components
        edges = [(0, 1), (0, 2), (1, 2), (3, 4)]
        assert not connected_reference(5, edges)
        with pytest.raises(ValueError, match="connected"):
            TransitionGraph(5, edges)

    def test_long_path_builds(self):
        # a search that grows the reached set one edge layer per pass makes
        # n - 1 passes here
        n = 200_000
        graph = TransitionGraph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
        assert graph.n == n and len(graph.ends) == n - 1
        assert graph.degree(0) == graph.degree(n - 1) == 1


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
            rows = (graph.pi[:, None] * chain.P).sum(axis=1)
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
