import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from fastmix import solver
from fastmix.chains import (ReversibleChain, TransitionGraph, _dense_violations,
                            fit_to_budgets, load_chain_csv,
                            max_closed_neighborhood_mass, max_degree_chain,
                            saturate_flows, save_chain_csv, symmetric_walk,
                            validate_chain)
from fastmix.families import complete_graph, knkn_graph, torus_graph
from fastmix.lower_bounds import specified_chain_bound
from fastmix.spectral import laplacian, rayleigh_quotient, spectrum, symmetrized
from fastmix.upper_bounds import congestion, equalize_congestion, shortest_path_system
from helpers import (REFERENCE_GRAPHS, canonical_edges_reference,
                     closed_neighborhood_mass_reference, congestion_reference,
                     connected_reference, dirichlet_reference, edge_ids, edge_pairs,
                     equalized_rho_reference, incident_edges, layout_graphs,
                     matrix_from_flows_reference, max_degree_flows_reference, neighbors,
                     random_connected_graph, random_valid_chain, star_sums_reference,
                     support_reference, uneven_pi)


def flip_chain():
    graph = TransitionGraph(2, [(0, 1)])
    return ReversibleChain.from_matrix(graph, [[0.0, 1.0], [1.0, 0.0]])


def dense_report(graph, P):
    """Every dense violation of ``P``; ``from_matrix`` must refuse it, naming the first three."""
    report = _dense_violations(graph, np.asarray(P, dtype=float))
    assert report
    with pytest.raises(ValueError, match=re.escape("invalid chain: " + "; ".join(report[:3]))):
        ReversibleChain.from_matrix(graph, P)
    return report


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

    @pytest.mark.parametrize("edges, pi, message", [
        (None, None, "not a list of node pairs"), (1, None, "not a list of node pairs"),
        ([(0, 1)], {}, "not an array of numbers"),
        ([(0, 1)], [0.5, {}], "not an array of numbers")])
    def test_rejects_non_numeric_input(self, edges, pi, message):
        with pytest.raises(ValueError, match=message):
            TransitionGraph(2, edges, pi)

    def test_canonical_order(self):
        g = TransitionGraph(3, [(2, 1), (1, 0), (0, 2)])
        assert g.ends.tolist() == [[0, 1], [0, 2], [1, 2]]
        assert neighbors(g, 1) == (0, 2)

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
            assert np.array_equal(g.ends, expected.ends) and g.ends.dtype == np.int64

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
        assert g.ends.shape == (7, 2)
        assert g.star_offsets[-1] == 2 * len(g.ends)


def layout_checks(graph):
    """The edge arrays and everything read from them, against the loops of ``helpers``."""
    rng = np.random.default_rng(graph.n)
    n, edges = graph.n, edge_pairs(graph)
    # canonicalization and connectivity, from flipped and shuffled input
    given_edges = [(j, i) if rng.random() < 0.5 else (i, j)
                   for i, j in rng.permutation(np.array(edges, dtype=int).reshape(-1, 2))]
    assert edge_pairs(TransitionGraph(n, given_edges, graph.pi)) == \
        canonical_edges_reference(n, given_edges) == edges
    assert connected_reference(n, edges)
    for i in range(n):
        assert neighbors(graph, i) == tuple(sorted({j for e in edges if i in e
                                                    for j in e if j != i}))
        assert incident_edges(graph, i) == [edges.index((min(i, j), max(i, j)))
                                             for j in neighbors(graph, i)]
    pi_star = max_closed_neighborhood_mass(graph)
    assert pi_star.hex() == closed_neighborhood_mass_reference(graph).hex()
    standard = max_degree_chain(graph)
    assert standard.flows.tobytes() == max_degree_flows_reference(graph).tobytes()
    assert standard.P.tobytes() == matrix_from_flows_reference(graph, standard.flows).tobytes()
    q = rng.uniform(0.0, 1.0, size=len(edges)) * graph.pi.min() / max(n - 1, 1)
    assert ReversibleChain(graph, q).P.tobytes() == \
        matrix_from_flows_reference(graph, q).tobytes()
    # the star-sum kernel and the flow Laplacian S = I - L that spectra and
    # the solver's barrier read
    values = rng.normal(size=len(edges))
    assert graph.star_sums(values).tobytes() == star_sums_reference(graph, values).tobytes()
    root = np.sqrt(graph.pi)
    for chain in (standard, ReversibleChain(graph, q)):
        L = laplacian(graph, chain.flows)
        assert L.tobytes() == L.T.tobytes()
        assert np.abs(L @ root).max() <= 1e-15
        assert symmetrized(chain).tobytes() == (np.eye(n) - L).tobytes()
        # L holds load/pi exactly, so S and P share the diagonal 1 - load/pi
        assert np.diag(L).tobytes() == (star_sums_reference(graph, chain.flows)
                                        / graph.pi).tobytes()
    # every off-diagonal entry carries mass: the non-edges are reported
    allowed = support_reference(graph) | np.eye(n, dtype=bool)
    report = _dense_violations(graph, np.full((n, n), 1.0 / n))
    assert [msg for msg in report if "non-edge" in msg] == \
        [f"mass {1.0 / n:.3e} on non-edge ({i},{j})" for i, j in np.argwhere(~allowed)]
    if n > 1:
        # the barrier's N = L(q) - gamma (I - u u^T) + u u^T, as handed to Cholesky
        handed = []
        cholesky = np.linalg.cholesky
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", lambda N: handed.append(N.copy()) or cholesky(N))
            solver._Barrier(graph).factor(q, 0.25)
        uu = np.outer(root, root)
        assert np.abs(handed[0] - (laplacian(graph, q) - 0.25 * (np.eye(n) - uu) + uu)).max() \
            <= 1e-15
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
        W = shortest_path_system(graph)
        rho = equalized_rho_reference(graph, W)
        equalized = equalize_congestion(graph, W)
        assert equalized.flows.tobytes() == saturate_flows(graph, W / rho).tobytes()
        for chain in (equalized, max_degree_chain(graph)):
            report = congestion(chain, W)
            loads, ratios, rho_bar, argmax = congestion_reference(chain, W)
            assert report.loads.tobytes() == loads.tobytes()
            assert report.ratios.tobytes() == ratios.tobytes()
            assert report.argmax_edge == argmax
            assert report.rho_bar.hex() == rho_bar.hex()


# stars of degree >= 8 make numpy's pairwise sums differ from sequential ones
LAYOUT_GRAPHS = REFERENCE_GRAPHS + [
    ("star20-uneven", lambda: TransitionGraph(
        20, [(0, k) for k in range(1, 20)], uneven_pi(np.random.default_rng(1), 20))),
    ("path20-uneven", lambda: TransitionGraph(
        20, [(k, k + 1) for k in range(19)], uneven_pi(np.random.default_rng(2), 20))),
    ("complete16-uneven", lambda: TransitionGraph(
        16, complete_graph(16).ends, uneven_pi(np.random.default_rng(3), 16))),
    ("single-node", lambda: TransitionGraph(1, [])),
]


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
        degree = np.diff(graph.star_offsets)
        assert degree[0] == degree[n - 1] == 1


class TestValidateChain:
    def test_flip_chain_valid(self):
        chain = flip_chain()
        assert validate_chain(chain) == []
        assert chain.flows.tolist() == [0.5]

    def test_row_sum_violation_reported(self):
        graph = TransitionGraph(2, [(0, 1)])
        report = dense_report(graph, [[0.5, 0.6], [0.6, 0.4]])
        assert len(report) == 1
        assert "row 0" in report[0]

    def test_off_edge_mass_reported(self):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])
        P = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
        report = dense_report(graph, P)
        assert report[0] == "mass 2.500e-01 on non-edge (0,2)"

    def test_detailed_balance_violation_reported(self):
        graph = TransitionGraph(2, [(0, 1)], [0.25, 0.75])
        report = dense_report(graph, [[0.5, 0.5], [0.5, 0.5]])
        assert any("detailed balance" in msg for msg in report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entries_reported(self, bad):
        graph = TransitionGraph(2, [(0, 1)])
        assert dense_report(graph, np.full((2, 2), bad)) != []
        report = dense_report(graph, [[0.0, 1.0], [1.0, bad]])
        assert any("row 1" in msg for msg in report)

    def test_nan_off_edge_entry_reported(self):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])
        P = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        P[0, 2] = float("nan")
        report = dense_report(graph, P)
        assert any("non-edge (0,2)" in msg for msg in report)

    def test_dense_shape_checked(self):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match=re.escape("P has shape (2, 2), expected (3,3)")):
            ReversibleChain.from_matrix(graph, np.eye(2))
        with pytest.raises(ValueError, match="not an array of numbers"):
            ReversibleChain.from_matrix(graph, [[1.0, 0.0, 0.0], [0.0, 1.0]])

    def test_dense_matrix_read_as_its_edge_flows(self):
        # the flows are pi(i) P(i,j) of each edge i < j; the diagonal is recomputed
        graph = TransitionGraph(3, [(0, 1), (1, 2)], [0.25, 0.5, 0.25])
        P = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]
        chain = ReversibleChain.from_matrix(graph, P)
        assert chain.flows.tolist() == [0.125, 0.125]
        assert np.array_equal(chain.P, P)

    def test_row_sum_within_tolerance_but_negative_diagonal_refused(self, tmp_path):
        # each row sums to 1 + 5e-11 (within STOCHASTIC_TOL), so the dense
        # checks pass, but the flows leave the diagonal at -5e-11
        graph = TransitionGraph(2, [(0, 1)])
        path = tmp_path / "over.csv"
        path.write_text("0.0,1.00000000005\n1.00000000005,0.0\n")
        with pytest.raises(ValueError, match=re.escape(
                "invalid chain: node 0 has load 0.500000000025 over pi(0) = 0.5")):
            load_chain_csv(graph, path)

    def test_flows_must_match_the_edges(self):
        graph = TransitionGraph(2, [(0, 1)])
        with pytest.raises(ValueError, match=re.escape("flows have shape (2, 2), expected (1,)")):
            ReversibleChain(graph, [[0.0, 1.0], [1.0, 0.0]])

    def test_flows_and_matrix_read_only(self):
        chain = max_degree_chain(knkn_graph(3))
        assert not chain.flows.flags.writeable and not chain.P.flags.writeable
        assert chain.P is chain.P

    @pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf"), -float("inf")])
    def test_bad_flow_reported(self, bad):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])
        report = validate_chain(ReversibleChain(graph, [0.1, bad]))
        assert report[0] == f"negative or non-finite flow q(1,2) = {bad:.3e}"

    def test_overloaded_node_reported(self):
        graph = TransitionGraph(3, [(0, 1), (1, 2)])      # pi = 1/3 each
        report = validate_chain(ReversibleChain(graph, [0.2, 0.2]))
        assert len(report) == 1
        assert report[0].startswith("node 1 has load 0.4 over pi(1) = 0.333")
        assert float(report[0].rsplit("= ", 1)[1].rstrip(")")) == \
            pytest.approx(1.0 - 0.4 * 3, rel=1e-3)

    def test_flow_tolerances(self):
        graph = TransitionGraph(2, [(0, 1)])
        for q, ok in [(-1e-13, True), (-1e-11, False), (0.5 * (1 + 1e-13), True),
                      (0.5 * (1 + 1e-11), False)]:
            assert (validate_chain(ReversibleChain(graph, [q])) == []) == ok

    def test_equalized_linked_cliques_chain_valid(self):
        graph = knkn_graph(3)
        chain = equalize_congestion(graph, shortest_path_system(graph))
        assert validate_chain(chain) == []

    def test_path_chains_stay_linear(self):
        # nothing here touches the dense P: at n = 10^5 it alone would ask for 80 GB
        n = 100_000
        graph = TransitionGraph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))
        g = np.cos(np.arange(n))
        tracemalloc.start()
        try:
            chain = max_degree_chain(graph)
            assert validate_chain(chain) == []
            assert rayleigh_quotient(chain, g) > 0.0
            assert specified_chain_bound(chain, g - graph.pi @ g) > 0.0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "P" not in vars(chain)
        assert peak < 32 * 2 ** 20


class TestEdgeFlow:
    def test_symmetry_on_random_chains(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            chain = random_valid_chain(rng, graph)
            for k, (i, j) in enumerate(edge_pairs(graph)):
                assert abs(chain.flows[k] - graph.pi[i] * chain.P[i, j]) <= 1e-10
                assert abs(chain.flows[k] - graph.pi[j] * chain.P[j, i]) <= 1e-10

    def test_equalized_bridge_flow_closed_form(self):
        graph = knkn_graph(3)
        chain = equalize_congestion(graph, shortest_path_system(graph))
        assert chain.flows[edge_ids(graph)[(0, 3)]] == pytest.approx(7 / 78, abs=1e-12)

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
        for i, j in edge_pairs(chain.graph):
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
            q = rng.uniform(0.0, 2.0, size=len(graph.ends)) * graph.pi.max()
            expected = q.copy()
            for i in range(graph.n):   # reference: one ordered pass of star scalings
                idx = incident_edges(graph, i)
                if expected[idx].sum() > graph.pi[i]:
                    expected[idx] *= graph.pi[i] / expected[idx].sum()
            out = fit_to_budgets(graph, q)
            assert out is q and np.array_equal(out, expected)
            for i in range(graph.n):   # the rescaled sum may round one ulp high
                assert q[incident_edges(graph, i)].sum() <= graph.pi[i] * (1 + 1e-15)


class TestSymmetricWalk:
    def test_cycle(self):
        chain = symmetric_walk(torus_graph(4, 1))
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

    def test_non_regular_graph_rejected(self):
        # a walk on the path 0-1-2 would break detailed balance at node 1
        with pytest.raises(ValueError, match=r"not regular \(degrees 1 to 2\)"):
            symmetric_walk(TransitionGraph(3, [(0, 1), (1, 2)]))


class TestSerialization:
    def test_graph_round_trip(self, tmp_path):
        graph = knkn_graph(4)
        path = tmp_path / "g.json"
        graph.save(path)
        back = TransitionGraph.load(path)
        assert np.array_equal(back.ends, graph.ends)
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
        # read back as the flows of the written matrix; the diagonal is recomputed
        ei, ej = graph.ends.T
        assert back.flows.tobytes() == (graph.pi[ei] * chain.P[ei, ej]).tobytes()
        assert np.allclose(back.P, chain.P, rtol=0.0, atol=1e-15)
        assert spectrum(back).relaxation_time == \
            pytest.approx(spectrum(chain).relaxation_time, rel=1e-12)
