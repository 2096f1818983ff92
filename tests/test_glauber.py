import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastmix.chains import TransitionGraph, validate_chain
from fastmix.families import ising_tree
from fastmix.glauber import (DENSE_STATE_CAP, TREE_SITE_CAP, RateVector, SpinSystem, TreeSpec,
                             build_glauber_chain, check_rate_improvement_limits,
                             configuration_graph, heat_bath_kernels,
                             kbar, log_site_bounds, log_zeta, majority_cut_bound,
                             node_widths, optimal_rates, prefix_cut_sizes,
                             rates_from_log_bounds, recursive_majority, site_bounds,
                             state_color_indices, uniform_rates)
from fastmix.solver import SolverConfig, solve_fastest_mixing
from fastmix.spectral import spectrum
from helpers import edge_pairs, exact_majority_stats, leaves, prefix_cut_sizes_reference


def ising_edge(beta):
    return SpinSystem.ising(2, [(0, 1)], beta)


def hot_edge():
    # infinite-temperature edge: constant couplings, still a valid system
    return SpinSystem(2, [(0, 1)], colors=(-1, +1), coupling=lambda v, w, a, b: 1.0)


class TestSpinSystem:
    def test_ising_requires_positive_beta(self):
        with pytest.raises(ValueError, match="beta"):
            SpinSystem.ising(2, [(0, 1)], 0.0)

    def test_rejects_nonpositive_couplings(self):
        with pytest.raises(ValueError, match="positive"):
            SpinSystem(2, [(0, 1)], (-1, 1), lambda v, w, a, b: a * b)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_rejects_non_finite_couplings(self, value):
        with pytest.raises(ValueError, match="positive and finite"):
            SpinSystem(2, [(0, 1)], (-1, 1),
                       lambda v, w, a, b: value if (a, b) == (1, -1) else 1.0)

    def test_rejects_overflowing_ising_couplings(self):
        # exp(800) overflows before any table is checked: the same
        # ValueError as a non-finite coupling, not an OverflowError
        with pytest.raises(ValueError, match="overflows.*positive and finite"):
            SpinSystem.ising(2, [(0, 1)], 800.0)

    def test_coupling_is_read_once_into_tables(self):
        calls = []

        def coupling(v, w, a, b):
            calls.append((v, w, a, b))
            return 1.0 + v + 2 * w + (a == b)

        sys_ = SpinSystem(3, [(2, 1), (0, 1)], (0, 1, 2), coupling)
        assert sorted(calls) == sorted((v, w, a, b) for v, w in ((0, 1), (1, 2))
                                       for a in range(3) for b in range(3))
        assert sys_.tables[(1, 2)][0, 2] == coupling(1, 2, 0, 2)
        del calls[:]
        build_glauber_chain(sys_, uniform_rates(3))
        kbar(sys_)
        assert calls == []

    def test_rejects_duplicate_site_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            SpinSystem.ising(2, [(0, 1), (1, 0)], 1.0)

    @pytest.mark.parametrize("edge", [(0, 1.5), (0, 2), (0, 0), ("0", "1"), (0, 1, 2)])
    def test_rejects_bad_site_edges(self, edge):
        # the site edges go through the same node-id check as a graph's edges
        with pytest.raises(ValueError, match="range|self-loop|pair"):
            SpinSystem.ising(2, [edge], 1.0)

    def test_state_indexing_bit_convention(self):
        digits = state_color_indices(ising_edge(1.0))
        # +1 color has index 1, carried by bit v of the state index
        assert digits[0b01, 0] == 1 and digits[0b01, 1] == 0
        assert digits[0b10, 1] == 1


class TestKernel:
    def test_constant_couplings_give_half(self):
        for K in heat_bath_kernels(hot_edge()):
            assert K.shape == (2, 2)
            assert np.all(K == 0.5)

    def test_edge_flip_probability(self):
        beta = 0.7
        K = heat_bath_kernels(ising_edge(beta))[0]
        # site 0 writes -1 (index 0) while its neighbor holds +1 (index 1)
        assert K[1, 0] == pytest.approx(math.exp(-beta) / (math.exp(beta) + math.exp(-beta)))

    def test_isolated_site_uniform(self):
        sys_ = SpinSystem(1, [], colors=("a", "b", "c"), coupling=lambda v, w, a, b: 1.0)
        (K,) = heat_bath_kernels(sys_)
        assert K.shape == (1, 3)
        assert K[0, 2] == pytest.approx(1 / 3)

    def test_normalization(self):
        for K in heat_bath_kernels(ising_edge(1.3)):
            assert np.allclose(K.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@st.composite
def spin_systems_with_rates(draw):
    """1-4 sites, 2 or 3 colors, random positive couplings, rates with zeros."""
    n = draw(st.integers(1, 4))
    q = draw(st.sampled_from([2, 3]))
    pairs = [(v, w) for v in range(n) for w in range(v + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    values = st.floats(0.05, 20.0)
    tables = {e: [[draw(values) for _ in range(q)] for _ in range(q)] for e in edges}
    system = SpinSystem(n, edges, tuple(range(q)),
                        lambda v, w, a, b: tables[(v, w)][a][b])
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n)
                   .filter(lambda ws: sum(ws) > 0))
    rho = np.array(weights) / sum(weights)
    return system, RateVector(rho)


def scalar_reference(system, rho):
    """Transition matrix and kbar entry by entry with scalar floats.

    Products run over the sorted neighbors and sums left to right, the
    order the vectorized kernel keeps, so each move P(s, t) times pi(s) must
    give the chain's flow bitwise.
    """
    q, N = len(system.colors), system.n_states
    P = np.zeros((N, N))
    smallest = math.inf
    for m in range(N):
        digit = [m // q ** v % q for v in range(system.n_sites)]
        off = 0.0
        for v in range(system.n_sites):
            weights = []
            for c in range(q):
                prod = 1.0
                for w in system.neighbors[v]:
                    prod *= (system.tables[(v, w)][c, digit[w]] if v < w
                             else system.tables[(w, v)][digit[w], c])
                weights.append(prod)
            total = 0.0
            for x in weights:
                total += x
            law = [x / total for x in weights]
            smallest = min(smallest, min(law))
            if rho[v] == 0.0:
                continue
            for c in range(q):
                if c != digit[v]:
                    move = rho[v] * law[c]
                    P[m, m + (c - digit[v]) * q ** v] = move
                    off += move
        P[m, m] = 1.0 - off
    return P, 1.0 / smallest


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(spin_systems_with_rates())
    def test_matches_scalar_reference_bitwise(self, case):
        system, rates = case
        P, kb = scalar_reference(system, rates.rho)
        chain = build_glauber_chain(system, rates)
        s, t = chain.graph.ends.T
        pi = chain.graph.pi
        assert chain.flows.tobytes() == (pi[s] * P[s, t]).tobytes()
        # the reverse side pi(t) rho_v K_v(t, a), computed on its own
        np.testing.assert_allclose(chain.flows, pi[t] * P[t, s], rtol=1e-12, atol=0)
        off_edges = P - np.diag(np.diag(P))
        off_edges[s, t] = off_edges[t, s] = 0.0
        assert not off_edges.any()
        np.testing.assert_allclose(chain.P, P, rtol=1e-12, atol=1e-15)
        assert kbar(system) == kb

    @settings(max_examples=40, deadline=None)
    @given(spin_systems_with_rates())
    def test_rows_sum_to_one(self, case):
        system, _ = case
        q = len(system.colors)
        kernels = heat_bath_kernels(system)
        for v, K in enumerate(kernels):
            assert K.shape == (q ** len(system.neighbors[v]), q)
            assert np.all(K > 0)
            assert np.allclose(K.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(spin_systems_with_rates())
    def test_kernel_is_the_gibbs_conditional(self, case):
        system, _ = case
        q = len(system.colors)
        pi = configuration_graph(system).pi
        digits = state_color_indices(system)
        kernels = heat_bath_kernels(system)
        for m in range(system.n_states):
            for v, nbrs in enumerate(system.neighbors):
                profile = sum(digits[m, w] * q ** k for k, w in enumerate(nbrs))
                column = [m + (c - digits[m, v]) * q ** v for c in range(q)]
                conditional = pi[column] / pi[column].sum()
                assert np.allclose(kernels[v][profile], conditional, rtol=1e-9, atol=0)

    @settings(max_examples=40, deadline=None)
    @given(spin_systems_with_rates())
    def test_chain_is_valid(self, case):
        system, rates = case
        assert validate_chain(build_glauber_chain(system, rates)) == []

    @settings(max_examples=40, deadline=None)
    @given(spin_systems_with_rates())
    def test_kbar_at_least_q(self, case):
        system, _ = case
        # the smallest of q probabilities summing to one is at most 1/q, up
        # to the rounding of the normalization
        assert kbar(system) >= len(system.colors) * (1 - 1e-12)


class TestGlauberChain:
    def test_hot_edge_entries(self):
        chain = build_glauber_chain(hot_edge(), uniform_rates(2))
        off = chain.P[~np.eye(4, dtype=bool)]
        assert sorted(set(np.round(off, 12))) == [0.0, 0.25]
        assert validate_chain(chain) == []

    def test_detailed_balance_all_pairs(self):
        sys_ = ising_edge(1.0)
        chain = build_glauber_chain(sys_, uniform_rates(2))
        pi = chain.graph.pi
        P, _ = scalar_reference(sys_, uniform_rates(2).rho)
        for k, (x, y) in enumerate(edge_pairs(chain.graph)):
            assert chain.flows[k] == pytest.approx(pi[y] * P[y, x], rel=1e-12, abs=0)
        for x in range(4):
            for y in range(4):
                assert abs(pi[x] * chain.P[x, y] - pi[y] * chain.P[y, x]) <= 1e-10

    def test_three_leaf_star_chain_valid(self):
        _, sys_ = ising_tree(3, 1, 0.5)
        chain = build_glauber_chain(sys_, uniform_rates(4))
        assert chain.graph.n == 16
        assert validate_chain(chain) == []

    @settings(max_examples=40, deadline=None)
    @given(spin_systems_with_rates())
    def test_shared_configuration_graph_gives_the_same_chain(self, case):
        system, rates = case
        graph = configuration_graph(system)
        shared = build_glauber_chain(system, rates, graph)
        own = build_glauber_chain(system, rates)
        assert shared.graph is graph
        assert shared.flows.tobytes() == own.flows.tobytes()
        assert np.array_equal(shared.graph.ends, own.graph.ends)
        assert np.array_equal(shared.pi, own.pi)

    def test_configuration_graph_must_fit_the_system(self):
        with pytest.raises(ValueError, match="graph has 4 nodes"):
            build_glauber_chain(ising_tree(3, 1, 0.5)[1], uniform_rates(4),
                                configuration_graph(ising_edge(0.4)))

    def test_graph_must_hold_every_move(self):
        # the path 0-1-2-3 lacks the move 0 -> 2 of the edge's second site
        with pytest.raises(ValueError, match="lacks a single-site move"):
            build_glauber_chain(ising_edge(0.4), uniform_rates(2),
                                TransitionGraph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_build_allocates_no_dense_matrix(self):
        # 512 states: a dense float matrix would take 2 MiB
        _, system = ising_tree(8, 1, 0.5)
        graph = configuration_graph(system)
        tracemalloc.start()
        try:
            chain = build_glauber_chain(system, uniform_rates(system.n_sites), graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.n_states == DENSE_STATE_CAP
        assert "P" not in vars(chain) and peak < 2 ** 20
        assert validate_chain(chain) == []

    def test_dense_state_cap(self):
        # ten isolated sites: 1024 states, past the cap, rejected before any
        # configuration is enumerated or any matrix allocated
        system = SpinSystem(10, [], colors=(-1, +1), coupling=lambda v, w, a, b: 1.0)
        assert system.n_states == 1024 > DENSE_STATE_CAP == 512
        with pytest.raises(ValueError, match="dense chain cap 512"):
            build_glauber_chain(system, uniform_rates(10))

    def test_configuration_graph_edges_are_single_site_moves(self):
        graph = configuration_graph(ising_edge(0.4))
        assert graph.ends.tolist() == [[0, 1], [0, 2], [1, 3], [2, 3]]

    def test_gibbs_weights(self):
        pi = configuration_graph(ising_edge(1.0)).pi
        z = 2 * math.exp(1.0) + 2 * math.exp(-1.0)
        assert pi[0b00] == pytest.approx(math.exp(1.0) / z)   # aligned spins
        assert pi[0b01] == pytest.approx(math.exp(-1.0) / z)


class TestKbar:
    def test_hot_edge(self):
        assert kbar(hot_edge()) == pytest.approx(2.0)

    def test_ising_edge_formula(self):
        for beta in (0.5, 1.0, 2.0):
            assert kbar(ising_edge(beta)) == pytest.approx(1 + math.exp(2 * beta))

    def test_isolated_sites(self):
        sys_ = SpinSystem(2, [], colors=(0, 1, 2, 3), coupling=lambda v, w, a, b: 1.0)
        assert kbar(sys_) == pytest.approx(4.0)

    @pytest.mark.parametrize("b,r", [(3, 2), (4, 2)])
    def test_large_trees_without_enumeration(self, b, r):
        # the worst kernel flips a site against all of its max-degree
        # neighbors: kbar = 1 + exp(2 beta Delta), bitwise.  b4r2 has 2^21
        # states, past STATE_SPACE_CAP, which kbar never enumerates.
        tree, system = ising_tree(b, r, 0.5)
        assert kbar(system) == 1 + math.exp(2 * 0.5 * tree.max_degree)


class TestRateImprovementLimits:
    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_ising_edge(self, beta):
        sys_ = ising_edge(beta)
        fastest = solve_fastest_mixing(configuration_graph(sys_),
                                       SolverConfig(max_iters=1500))
        # the edge is not a TreeSpec: its widths come from the prefix counter
        widths = prefix_cut_sizes(2, sys_.edges, [0, 1])
        rates = rates_from_log_bounds(log_site_bounds(2, widths, 1, beta))
        rated = build_glauber_chain(sys_, rates)
        report = check_rate_improvement_limits(sys_, fastest, rated)
        assert report.kbar == pytest.approx(1 + math.exp(2 * beta))
        assert report.ok_fastest and report.ok_rated

    def test_product_chain_factorizes(self):
        # without couplings the two sites relax independently: tau2 of the
        # pair chain is exactly |V| times the single-site value (= 1)
        chain = build_glauber_chain(hot_edge(), uniform_rates(2))
        assert spectrum(chain).relaxation_time == pytest.approx(2.0, abs=1e-9)

    def test_three_leaf_star(self):
        tree, sys_ = ising_tree(3, 1, 0.5)
        fastest = solve_fastest_mixing(configuration_graph(sys_),
                                       SolverConfig(max_iters=1200))
        rated = build_glauber_chain(sys_, optimal_rates(tree, 0.5))
        report = check_rate_improvement_limits(sys_, fastest, rated)
        assert report.ok_fastest and report.ok_rated


class TestNodeWidths:
    def test_three_leaf_star(self):
        widths, max_width = node_widths(TreeSpec(3, 1))
        assert list(widths) == [3, 2, 1, 0]
        assert max_width == 3

    def test_two_level_first_child(self):
        tree = TreeSpec(3, 2)
        widths, max_width = node_widths(tree)
        assert widths[1] == 5           # root's first child opens the most edges
        assert max_width == 5 == (tree.branching - 1) * tree.levels + 1

    def test_matches_direct_cut_counting(self):
        for r in (1, 2, 3):
            tree = TreeSpec(3, r)
            widths, _ = node_widths(tree)
            direct = prefix_cut_sizes(tree.node_count, tree.site_edges(),
                                      list(range(tree.node_count)))
            assert list(widths) == direct

    def test_max_within_cutwidth_cap(self):
        for b in (2, 3, 4):
            for r in (1, 2, 3, 4):
                _, max_width = node_widths(TreeSpec(b, r))
                assert max_width <= (b - 1) * r + 1

    def test_branching_one_rejected(self):
        with pytest.raises(ValueError):
            TreeSpec(1, 3)

    def test_site_cap_checked_before_building(self):
        # 2.2e12 sites: building their lists exhausts memory, so only the
        # spec is made here, never ising_tree(2, 40, ...)
        for b, r in ((2, 40), (2, 10 ** 9), (10 ** 30, 1), (2, 17), (TREE_SITE_CAP, 1)):
            with pytest.raises(ValueError, match=f"cap of {TREE_SITE_CAP} sites"):
                TreeSpec(b, r)
        assert TreeSpec(2, 16).node_count <= TREE_SITE_CAP
        assert TreeSpec(TREE_SITE_CAP - 1, 1).node_count == TREE_SITE_CAP

    def test_node_count_matches_structure(self):
        for b in (2, 3, 5):
            for r in (1, 2, 3):
                tree = TreeSpec(b, r)
                assert tree.node_count == (b ** (r + 1) - 1) // (b - 1)
                assert len(tree.node_levels()) == tree.node_count
                assert len(tree.site_edges()) == tree.node_count - 1
                assert len(leaves(tree)) == b ** r

    def test_prefix_counts_validate_order(self):
        with pytest.raises(ValueError, match="permutation"):
            prefix_cut_sizes(3, [(0, 1)], [0, 1])

    @pytest.mark.parametrize("bad", [-1, 3, 1.5])
    def test_prefix_counts_reject_non_node_endpoints(self, bad):
        # a negative id must not wrap around to the last node
        with pytest.raises(ValueError, match="out of range"):
            prefix_cut_sizes(3, [(0, 1), (bad, 2)], [0, 1, 2])

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_prefix_counts_match_the_double_loop(self, data):
        n = data.draw(st.integers(1, 12))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
        edges = sorted(data.draw(st.sets(pairs, max_size=3 * n)))
        order = data.draw(st.permutations(range(n)))
        assert prefix_cut_sizes(n, edges, order) == prefix_cut_sizes_reference(n, edges, order)


class TestSiteBounds:
    def test_zeta_closed_value(self):
        beta = math.log(2.0) / 4.0   # e^{4 beta} = 2
        assert math.exp(log_zeta(3, beta)) == pytest.approx(7.0, abs=1e-12)

    def test_zeta_large_beta_no_overflow(self):
        assert log_zeta(3, 200.0) == pytest.approx(4 * 2 * 200.0, rel=1e-12)

    def test_level_recursion_total(self):
        for b in (2, 3):
            for r in range(2, 7):
                for beta in (0.25, 0.5, 1.0):
                    report = site_bounds(TreeSpec(b, r), beta)
                    assert report.log_total == pytest.approx(report.log_total_closed,
                                                             abs=1e-6)

    def test_star_max_is_root(self):
        tree = TreeSpec(3, 1)
        report = site_bounds(tree, 0.8)
        n = tree.node_count
        assert report.log_max == pytest.approx(2 * math.log(n) + (12 + 6) * 0.8)
        assert np.argmax(report.log_values) == 0

    def test_equal_widths_leave_no_room(self):
        log_b = log_site_bounds(5, [2, 2, 2, 2, 2], 3, 1.0)
        assert math.log(np.exp(log_b).mean()) == pytest.approx(log_b.max())


class TestRates:
    def test_equal_bounds_give_uniform(self):
        rates = rates_from_log_bounds(np.full(6, 3.7))
        assert np.allclose(rates.rho, 1 / 6)

    def test_root_gets_largest_rate(self):
        rates = optimal_rates(TreeSpec(3, 1), 1.0)
        assert np.argmax(rates.rho) == 0

    def test_normalization_across_trees(self):
        for b in (2, 3):
            for r in range(1, 7):
                rates = optimal_rates(TreeSpec(b, r), 0.7)
                assert abs(rates.rho.sum() - 1.0) <= 1e-12
                assert np.all(rates.rho >= 0)

    def test_rate_vector_validation(self):
        with pytest.raises(ValueError):
            RateVector(np.array([0.7, 0.7]))
        with pytest.raises(ValueError):
            RateVector(np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            RateVector(np.array([math.nan, 1.0]))

    def test_rated_chain_beats_its_bound(self):
        # the whole point of the tuned rates: tau2 within the averaged bound
        for beta in (0.5, 1.0):
            tree, sys_ = ising_tree(3, 1, beta)
            report = site_bounds(tree, beta)
            rated = build_glauber_chain(sys_, optimal_rates(tree, beta))
            uniform = build_glauber_chain(sys_, uniform_rates(sys_.n_sites))
            assert spectrum(rated).relaxation_time <= report.mean + 1e-6
            assert spectrum(uniform).relaxation_time <= report.max_value + 1e-6


class TestRecursiveMajority:
    def test_three_leaf_examples(self):
        tree = TreeSpec(3, 1)
        assert recursive_majority(tree, [-1, 1, 1, -1]) == 1
        assert recursive_majority(tree, [1, 1, 1, 1]) == 1

    def test_internal_spins_ignored(self):
        tree = TreeSpec(3, 2)
        sigma = np.ones(tree.node_count, dtype=int)
        for leaf in leaves(tree):
            sigma[leaf] = -1
        assert recursive_majority(tree, sigma) == -1

    def test_even_branching_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            recursive_majority(TreeSpec(2, 1), [1, 1, 1])

    def test_antisymmetry_exhaustive(self):
        from fastmix.glauber import _majority_table
        for r in (1, 2):
            tree, sys_ = ising_tree(3, r, 1.0)
            spins = np.asarray(sys_.colors)[state_color_indices(sys_)]
            table = _majority_table(tree, spins)
            flipped = table[np.arange(len(table))[::-1]]  # complementing bits
            assert np.array_equal(table, -flipped)


class TestMajorityCutBound:
    def test_epsilon_at_infinite_temperature(self):
        bound = majority_cut_bound(TreeSpec(3, 3), 0.0)
        assert bound.epsilon == pytest.approx(0.5)

    def test_single_level_is_vacuous(self):
        bound = majority_cut_bound(TreeSpec(3, 1), 1.0)
        assert bound.flip_probability_bound == pytest.approx(1.0)
        assert bound.vacuous

    def test_two_levels_exact_enumeration(self):
        bound = majority_cut_bound(TreeSpec(3, 2), 1.0)
        stats = exact_majority_stats(TreeSpec(3, 2), 1.0)
        assert stats.pi_S == pytest.approx(0.5, abs=1e-12)
        assert stats.flip_probability <= bound.flip_probability_bound
        assert stats.boundary_measure <= bound.boundary_measure_bound
        assert stats.phi_S <= bound.flip_probability_bound

    def test_cut_is_exactly_balanced(self):
        # spin-flip symmetry pins pi(S) at one half for any temperature
        for r, beta in ((1, 0.7), (2, 0.25)):
            stats = exact_majority_stats(TreeSpec(3, r), beta)
            assert stats.pi_S == pytest.approx(0.5, abs=1e-12)

    def test_uniform_chain_bound_from_phi(self):
        # the enumerated conductance certifies the uniform-rate lower bound
        tree = TreeSpec(3, 2)
        bound = majority_cut_bound(tree, 1.0)
        stats = exact_majority_stats(tree, 1.0)
        assert bound.uniform_lambda2_lower <= 1 - 2 * stats.phi_S + 1e-12

    def test_wrong_branching_rejected(self):
        with pytest.raises(ValueError, match="branching 3"):
            majority_cut_bound(TreeSpec(2, 2), 1.0)
