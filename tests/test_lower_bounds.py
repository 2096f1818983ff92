import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastmix.chains import ReversibleChain, TransitionGraph, symmetric_walk
from fastmix.families import (complete_graph, geometric_graph, knkn_graph,
                              torus_graph)
from fastmix.lower_bounds import (Embedding, embedding_bound, embedding_violations,
                                  expansion_lower_bound, make_geometric_embedding,
                                  make_knkn_embedding, make_torus_embedding,
                                  specified_chain_bound, vertex_expansion)
from fastmix.solver import SolverConfig, solve_fastest_mixing
from fastmix.spectral import spectrum
from helpers import (REFERENCE_GRAPHS, expansion_witness_reference, neighbors,
                     random_connected_graph, random_valid_chain,
                     vertex_expansion_reference)

SQ2 = math.sqrt(2.0)


def circle_vectors(n, radius):
    angles = 2 * math.pi * np.arange(n) / n
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


class TestEmbeddingBound:
    def test_cycle4_circle_is_one(self):
        graph = torus_graph(4, 1)
        emb = Embedding(circle_vectors(4, 1.0), np.ones(4))
        assert embedding_bound(graph, emb) == pytest.approx(1.0, abs=1e-12)

    def test_linked_cliques_closed_form(self):
        for n in range(3, 9):
            bound = embedding_bound(knkn_graph(n), make_knkn_embedding(n))
            assert bound == pytest.approx(0.5 + (n - 1) * (3 + 2 * SQ2) / 2, abs=1e-9)

    def test_edge_budget_violation_rejected(self):
        graph = TransitionGraph(2, [(0, 1)])
        half = math.sqrt(3.0) / 2
        emb = Embedding(np.array([-half, half]), np.ones(2))
        with pytest.raises(ValueError, match=r"edge \(0,1\)"):
            embedding_bound(graph, emb)

    def test_centering_violation_rejected(self):
        graph = TransitionGraph(2, [(0, 1)])
        emb = Embedding(np.array([0.0, 1.0]), np.ones(2))
        assert any("centered" in v for v in embedding_violations(graph, emb))

    def test_normalization_violation_rejected(self):
        graph = TransitionGraph(2, [(0, 1)])
        emb = Embedding(np.array([-0.5, 0.5]), np.full(2, 3.0))
        with pytest.raises(ValueError, match="normalization"):
            embedding_bound(graph, emb)


class TestNonFiniteEmbeddings:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_embedding_rejects_non_finite_vectors(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Embedding(np.array([bad, 0.5]), np.ones(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_embedding_rejects_non_finite_slacks(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Embedding(np.array([-0.5, 0.5]), np.array([1.0, bad]))

    @pytest.mark.parametrize("vectors, slacks", [({"a": 1}, [1.0]), ([0.0, [1.0]], [1.0, 1.0]),
                                                 ([0.0, 1.0], [None, {}])])
    def test_embedding_rejects_non_numbers(self, vectors, slacks):
        with pytest.raises(ValueError, match="not an array of numbers"):
            Embedding(vectors, slacks)

    def test_all_nan_json_is_rejected(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"d": 1, "psi": [[NaN], [NaN]], "w": [NaN, NaN]}')
        with pytest.raises(ValueError, match="finite"):
            Embedding.load(path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_edge_length_is_a_violation(self):
        # finite vectors whose squared distance overflows to inf
        graph = TransitionGraph(2, [(0, 1)])
        emb = Embedding(np.array([-1e200, 1e200]), np.ones(2))
        assert any("edge (0,1)" in v for v in embedding_violations(graph, emb))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_length_over_an_overflowing_budget_is_a_violation(self):
        # slacks of 1e308 at two light ends: the budget of (0,2) overflows to
        # inf as well, and inf <= inf would pass its squared length 3.24e308
        pi = np.array([5e-309, 1.0, 5e-309])
        graph = TransitionGraph(3, [(0, 1), (0, 2), (1, 2)], pi)
        emb = Embedding(np.array([9e153, 0.0, -9e153]), np.array([1e308, 0.0, 1e308]))
        report = embedding_violations(graph, emb)
        assert report == ["edge (0,2): squared distance inf exceeds w(i)+w(j) = inf"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_value_of_a_light_far_node_stays_finite(self):
        # psi(0)^2 = 5.0e308 overflows, but pi(0) psi(0)^2 = 2.5: the value
        # read +inf, a lower bound on tau* that is false
        pi = np.array([5e-309, 5e-309, 1.0])
        graph = TransitionGraph(3, [(0, 1), (1, 2)], pi)
        emb = Embedding(np.array([2.24e154, 9.4e153, 0.0]), np.array([9e307, 9e307, 0.1]))
        expected = float(np.sum(pi * (emb.vectors[:, 0] / 1e154) ** 2)) * 1e308
        assert embedding_bound(graph, emb) == pytest.approx(expected, rel=1e-12)
        assert embedding_bound(graph, emb) == pytest.approx(2.950, abs=1e-3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_specified_chain_bound_rejects_non_finite_vectors(self, bad):
        graph = TransitionGraph(2, [(0, 1)])
        chain = ReversibleChain(graph, [0.5])
        with pytest.raises(ValueError, match="finite"):
            specified_chain_bound(chain, [bad, -1.0])


class TestSpecifiedChainBound:
    def test_flip_chain(self):
        graph = TransitionGraph(2, [(0, 1)])
        chain = ReversibleChain(graph, [0.5])
        assert specified_chain_bound(chain, [1.0, -1.0]) == pytest.approx(0.5)

    def test_cycle_walks_exact(self):
        for n in range(3, 13):
            chain = symmetric_walk(torus_graph(n, 1))
            radius = SQ2 / (2 * math.sin(math.pi / n))
            bound = specified_chain_bound(chain, circle_vectors(n, radius))
            assert bound == pytest.approx(spectrum(chain).relaxation_time, abs=1e-8)

    def test_never_exceeds_tau2(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            chain = random_valid_chain(rng, graph)
            vecs = rng.normal(size=(graph.n, 2))
            vecs -= graph.pi @ vecs  # center under pi
            try:
                bound = specified_chain_bound(chain, vecs)
            except ValueError:
                continue
            assert bound <= spectrum(chain).relaxation_time + 1e-9

    def test_degenerate_vectors_rejected(self):
        chain = symmetric_walk(torus_graph(4, 1))
        with pytest.raises(ValueError, match="degenerate"):
            specified_chain_bound(chain, np.zeros(4))


class TestVertexExpansion:
    def test_linked_cliques(self):
        for n in range(2, 7):
            upsilon, subset = vertex_expansion(knkn_graph(n))
            assert upsilon == pytest.approx(1 / n, abs=1e-12)
            assert subset == tuple(range(n))

    def test_single_edge(self):
        upsilon, _ = vertex_expansion(TransitionGraph(2, [(0, 1)]))
        assert upsilon == pytest.approx(1.0)

    def test_cycle4(self):
        upsilon, subset = vertex_expansion(torus_graph(4, 1))
        assert upsilon == pytest.approx(1.0)
        assert subset == (0, 1)

    def test_candidate_list(self):
        graph = knkn_graph(3)
        upsilon, subset = vertex_expansion(graph, candidates=[(0, 1, 2), (0,)])
        assert upsilon == pytest.approx(1 / 3)
        assert subset == (0, 1, 2)

    def test_too_large_without_candidates(self):
        rng = np.random.default_rng(0)
        graph = random_connected_graph(rng, 25, extra_edge_prob=0.1)
        with pytest.raises(ValueError, match="candidate"):
            vertex_expansion(graph)


@st.composite
def graphs_with_candidates(draw):
    n = draw(st.integers(2, 26))
    graph = random_connected_graph(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                   n, extra_edge_prob=draw(st.sampled_from([0.0, 0.2, 0.6])),
                                   uniform_pi=draw(st.booleans()))
    # unsorted, with repeats and repeated subsets; at most n - 1 entries keeps them proper
    subset = st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1)
    return graph, draw(st.lists(subset, min_size=1, max_size=30))


class TestVertexExpansionReference:
    """The block evaluator against the per-subset loop of ``helpers``."""

    @pytest.mark.parametrize("build", [b for _, b in REFERENCE_GRAPHS],
                             ids=[name for name, _ in REFERENCE_GRAPHS])
    def test_exhaustive_bitwise(self, build):
        graph = build()
        upsilon, subset = vertex_expansion(graph)
        expected = vertex_expansion_reference(graph)
        assert (upsilon.hex(), subset) == (expected[0].hex(), expected[1])

    @settings(max_examples=60, deadline=None)
    @given(graphs_with_candidates())
    def test_candidates_bitwise(self, case):
        graph, candidates = case
        upsilon, subset = vertex_expansion(graph, candidates)
        expected = vertex_expansion_reference(graph, candidates)
        assert (upsilon.hex(), subset) == (expected[0].hex(), expected[1])

    def test_parameter_names_are_kept(self):
        # callers and tracers bind the arguments by these names
        assert list(inspect.signature(vertex_expansion).parameters) == ["graph", "candidates"]

    def test_light_complement_is_summed(self):
        # pi({0, 1}) rounds to 1.0, so 1 - pi(S) would be 0 for that cut; the
        # complement summed over {2} gives the ratio 1e-17/1e-17 = 1, which
        # ties the cut {0}
        graph = TransitionGraph(3, [(0, 1), (1, 2)], [0.5, 0.5, 1e-17])
        assert vertex_expansion(graph) == vertex_expansion_reference(graph) == (1.0, (0,))

    def test_light_complement_sets_the_minimum(self):
        # at the cut {0, 1}, pi(dS) = pi({2}) is half of pi(S^c) = pi({2, 3});
        # a complement taken as 1 - pi(S) = 0 hid the cut and gave 1.0
        graph = TransitionGraph(4, [(0, 1), (1, 2), (2, 3)], [0.5, 0.5, 1e-17, 1e-17])
        assert vertex_expansion(graph) == vertex_expansion_reference(graph) == (0.5, (0, 1))
        assert expansion_lower_bound(graph).value == 1.0

    def test_single_node_has_no_cut(self):
        graph = TransitionGraph(1, [])
        assert vertex_expansion(graph) == vertex_expansion_reference(graph) == (math.inf, None)
        assert vertex_expansion(torus_graph(4, 1), []) == (math.inf, None)
        # with no cut there is no bound to take
        for graph, candidates in ((graph, None), (torus_graph(4, 1), [])):
            with pytest.raises(ValueError, match="no proper cut"):
                expansion_lower_bound(graph, candidates)

    def test_candidates_across_blocks(self):
        rng = np.random.default_rng(5)
        graph = torus_graph(30, 1)
        candidates = [tuple(np.flatnonzero(rng.random(30) < 0.5)) for _ in range(1500)]
        candidates = [c for c in candidates if 0 < len(c) < 30]
        # arcs tie at the minimum; the lexicographically smallest must win
        candidates += [tuple(range(k, k + 15)) for k in range(15, -1, -1)]
        upsilon, subset = vertex_expansion(graph, candidates)
        assert (upsilon, subset) == vertex_expansion_reference(graph, candidates)
        assert subset == tuple(range(15))

    def test_high_degree_does_not_wrap(self):
        # 256 leaves of a 300-leaf star reach the centre 256 times: a uint8
        # count would wrap to 0 and lose the centre from the boundary
        n = 301
        graph = TransitionGraph(n, [(0, k) for k in range(1, n)])
        upsilon, subset = vertex_expansion(graph, [tuple(range(1, 257))])
        assert upsilon == vertex_expansion_reference(graph, [tuple(range(1, 257))])[0]
        assert upsilon == pytest.approx(1 / 45, rel=1e-12)

    @pytest.mark.parametrize("bad", [5, 4, -1, 1.5, math.inf, "1", None])
    def test_bad_candidate_node_rejected(self, bad):
        with pytest.raises(ValueError, match=f"candidate node {bad!r}"):
            vertex_expansion(torus_graph(4, 1), candidates=[(0, 1), (bad,)])

    @pytest.mark.parametrize("subset", [(), (0, 1, 2, 3), (3, 2, 1, 0, 0)])
    def test_improper_candidate_rejected(self, subset):
        with pytest.raises(ValueError, match="proper and nonempty"):
            vertex_expansion(torus_graph(4, 1), candidates=[(0,), subset])

    def test_allocation_is_bounded(self):
        graph = random_connected_graph(np.random.default_rng(3), 16)
        tracemalloc.start()
        try:
            vertex_expansion(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024


class TestExpansionLowerBound:
    @pytest.mark.parametrize("build", [b for _, b in REFERENCE_GRAPHS[::4]],
                             ids=[name for name, _ in REFERENCE_GRAPHS[::4]])
    def test_witness_matches_loops_bitwise(self, build):
        graph = build()
        bound = expansion_lower_bound(graph)
        upsilon, s_min = vertex_expansion_reference(graph)
        subset, vectors, slacks = expansion_witness_reference(graph, s_min)
        assert bound.upsilon.hex() == upsilon.hex()
        assert bound.value.hex() == (1.0 / (2.0 * upsilon)).hex()
        assert bound.subset == subset
        assert bound.embedding.vectors.tobytes() == vectors[:, None].tobytes()
        assert bound.embedding.slacks.tobytes() == slacks.tobytes()

    def test_light_inner_boundary_witness_is_feasible(self):
        # the witness's crossing edge has squared length (pi_s + pi_c)^2 /
        # pi(inner) = 1.0000000000000002e17, one ulp past 1/pi(inner) = 1e17:
        # its slack is that length, so the witness passes the unchanged check
        graph = TransitionGraph(4, [(0, 1), (1, 2), (2, 3)], [0.5, 0.5, 1e-17, 1e-17])
        bound = expansion_lower_bound(graph)
        assert embedding_violations(graph, bound.embedding) == []
        assert embedding_bound(graph, bound.embedding) >= bound.value == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8),
           st.lists(st.sampled_from([5e-324, 1e-310, 1e-300, 1e-200, 1e-17, 1e-9]),
                    min_size=1, max_size=7))
    def test_witness_where_returned_certifies_the_value(self, seed, n, light):
        # extreme pi: the witness may be withheld, never wrong, and the
        # value 1/(2 Upsilon) is always returned
        rng = np.random.default_rng(seed)
        pi = rng.uniform(0.1, 1.0, size=n)
        light = light[:n - 1]
        pi[:len(light)] = light
        pi[len(light):] *= (1.0 - sum(light)) / pi[len(light):].sum()
        graph = random_connected_graph(rng, n, extra_edge_prob=float(rng.uniform(0.0, 0.6)))
        graph = TransitionGraph(n, graph.ends, rng.permutation(pi))
        bound = expansion_lower_bound(graph)
        assert bound.value == 1.0 / (2.0 * vertex_expansion(graph)[0])
        if bound.embedding is not None:
            assert embedding_bound(graph, bound.embedding) >= bound.value

    def test_linked_cliques_value(self):
        bound = expansion_lower_bound(knkn_graph(3))
        assert bound.value == pytest.approx(1.5)

    def test_witness_identity(self):
        rng = np.random.default_rng(22)
        graphs = [knkn_graph(3), torus_graph(5, 1), complete_graph(4),
                  random_connected_graph(rng, 7),
                  random_connected_graph(rng, 6)]
        for graph in graphs:
            bound = expansion_lower_bound(graph)
            value = embedding_bound(graph, bound.embedding)  # also checks feasibility
            in_s = set(bound.subset)
            pi_s = sum(graph.pi[v] for v in bound.subset)
            inner = {i for i in bound.subset
                     if any(j not in in_s for j in neighbors(graph, i))}
            expected = pi_s * (1 - pi_s) / sum(graph.pi[v] for v in inner)
            assert value == pytest.approx(expected, abs=1e-9)
            assert value >= bound.value - 1e-9

    def test_two_state_instance_is_tight(self):
        graph = TransitionGraph(2, [(0, 1)])
        bound = expansion_lower_bound(graph)
        assert bound.value == pytest.approx(0.5)
        result = solve_fastest_mixing(graph, SolverConfig(max_iters=200))
        assert result.tau2_star == pytest.approx(0.5, abs=1e-12)

    def test_cycle4_value(self):
        assert expansion_lower_bound(torus_graph(4, 1)).value == pytest.approx(0.5)


class TestAnalyticEmbeddings:
    def test_cycle_values(self):
        assert embedding_bound(torus_graph(4, 1), make_torus_embedding(4, 1)) == \
            pytest.approx(1.0, abs=1e-12)
        for n in range(3, 17):
            bound = embedding_bound(torus_graph(n, 1), make_torus_embedding(n, 1))
            assert bound == pytest.approx(1 / (2 * math.sin(math.pi / n) ** 2), abs=1e-9)
            assert bound >= n ** 2 / (2 * math.pi ** 2)

    def test_cycle_matches_symmetric_walk(self):
        for n in range(3, 17):
            bound = embedding_bound(torus_graph(n, 1), make_torus_embedding(n, 1))
            tau2 = spectrum(symmetric_walk(torus_graph(n, 1))).relaxation_time
            assert bound == pytest.approx(tau2, abs=1e-8)

    def test_torus_value(self):
        graph = torus_graph(3, 2)
        bound = embedding_bound(graph, make_torus_embedding(3, 2))
        assert bound == pytest.approx(4 / 3, abs=1e-9)
        assert bound >= 2 * 9 / (2 * math.pi ** 2)

    def test_geometric_value(self):
        graph = geometric_graph(6, 2)
        bound = embedding_bound(graph, make_geometric_embedding(6, 2))
        assert bound == pytest.approx(2 / 3, abs=1e-9)
        assert bound >= 6 ** 2 / (2 * 2 ** 2 * math.pi ** 2)

    def test_geometric_two_dimensional_feasible(self):
        graph = geometric_graph(6, 2, d=2)
        bound = embedding_bound(graph, make_geometric_embedding(6, 2, d=2))
        assert bound == pytest.approx(2 / 3, abs=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_knkn_embedding(2)
        with pytest.raises(ValueError):
            make_torus_embedding(2, 1)
        with pytest.raises(ValueError):
            make_geometric_embedding(6, 3)   # k >= m/2
        with pytest.raises(ValueError):
            make_geometric_embedding(7, 2)   # k does not divide m


class TestSandwich:
    def test_embedding_bounds_below_solver_value(self):
        cases = [
            (knkn_graph(3), make_knkn_embedding(3)),
            (torus_graph(4, 1), make_torus_embedding(4, 1)),
            (torus_graph(7, 1), make_torus_embedding(7, 1)),
            (torus_graph(3, 2), make_torus_embedding(3, 2)),
            (geometric_graph(6, 2), make_geometric_embedding(6, 2)),
            (complete_graph(4), None),
            (torus_graph(10, 1), make_torus_embedding(10, 1)),
        ]
        config = SolverConfig(max_iters=3000)
        for graph, emb in cases:
            tau2 = solve_fastest_mixing(graph, config).tau2_star
            if emb is not None:
                assert embedding_bound(graph, emb) <= tau2 + 1e-6
            assert expansion_lower_bound(graph).value <= tau2 + 1e-6


def test_embedding_json_round_trip(tmp_path):
    emb = make_torus_embedding(3, 2)
    path = tmp_path / "emb.json"
    emb.save(path)
    back = Embedding.load(path)
    assert np.array_equal(back.vectors, emb.vectors)
    assert np.array_equal(back.slacks, emb.slacks)
    assert back.dimension == 4
