import math

import numpy as np
import pytest

from fastmix.chains import ReversibleChain, TransitionGraph
from fastmix.families import complete_graph, cycle_graph
from fastmix.spectral import (jacobi_eigvalsh, rayleigh_quotient, spectrum, summarize,
                              symmetrized)
from fastmix.chains import symmetric_walk
from helpers import (check_rayleigh_dominates_gap, random_connected_graph,
                     random_valid_chain)


class TestJacobi:
    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 5, 8, 12, 20):
            A = rng.normal(size=(n, n))
            A = 0.5 * (A + A.T)
            w = jacobi_eigvalsh(A)
            w_ref = np.linalg.eigvalsh(A)[::-1]
            assert np.allclose(w, w_ref, atol=1e-10)

    def test_descending_order(self):
        w = jacobi_eigvalsh(np.diag([3.0, -1.0, 7.0]))
        assert list(w) == [7.0, 3.0, -1.0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigvalsh(np.zeros((2, 3)))


class TestSpectrum:
    def test_identity_chain_has_infinite_relaxation(self):
        chain = ReversibleChain(complete_graph(3), np.zeros(3))
        assert np.array_equal(chain.P, np.eye(3))
        summary = spectrum(chain)
        assert summary.lambda2 == pytest.approx(1.0)
        assert summary.relaxation_time == math.inf

    def test_complete_graph_chain(self):
        chain = ReversibleChain.from_matrix(complete_graph(3), np.full((3, 3), 1 / 3))
        summary = spectrum(chain)
        assert np.allclose(summary.eigenvalues, [1.0, 0.0, 0.0], atol=1e-12)
        assert summary.relaxation_time == pytest.approx(1.0)

    def test_cycle4_walk_matches_circulant_formula(self):
        # eigenvalues of the cycle walk are cos(2 pi k / n)
        chain = symmetric_walk(cycle_graph(4))
        summary = spectrum(chain)
        expected = sorted((math.cos(2 * math.pi * k / 4) for k in range(4)),
                          reverse=True)
        assert np.allclose(summary.eigenvalues, expected, atol=1e-10)
        assert summary.lambda2 == pytest.approx(0.0, abs=1e-10)
        assert summary.relaxation_time == pytest.approx(1.0)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            graph = random_connected_graph(rng, int(rng.integers(2, 9)))
            chain = random_valid_chain(rng, graph)
            direct = np.sort(np.linalg.eigvals(chain.P).real)[::-1]
            assert np.allclose(spectrum(chain).eigenvalues, direct, atol=1e-9)

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(4)
        graph = random_connected_graph(rng, 7)
        chain = random_valid_chain(rng, graph)
        a, b = spectrum(chain), spectrum(chain)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert a.lambda2 == b.lambda2 and a.relaxation_time == b.relaxation_time

    def test_rejects_invalid_chain(self):
        graph = TransitionGraph(2, [(0, 1)], [0.25, 0.75])
        with pytest.raises(ValueError, match="invalid chain: detailed balance"):
            ReversibleChain.from_matrix(graph, [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="invalid chain: node 0 has load 0.5"):
            spectrum(ReversibleChain(graph, [0.5]))


class TestRayleigh:
    def test_flip_chain(self):
        graph = TransitionGraph(2, [(0, 1)])
        chain = ReversibleChain(graph, [0.5])
        assert rayleigh_quotient(chain, [1.0, -1.0]) == pytest.approx(2.0)

    def test_cycle_hand_value(self):
        chain = symmetric_walk(cycle_graph(4))
        assert rayleigh_quotient(chain, [1.0, 0.0, -1.0, 0.0]) == pytest.approx(1.0)

    def test_second_eigenvector_attains_gap(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            graph = random_connected_graph(rng, int(rng.integers(3, 9)))
            chain = random_valid_chain(rng, graph)
            # right eigenvector of P for lambda2, mapped back from S
            _, V = np.linalg.eigh(symmetrized(chain))
            g = V[:, -2] / np.sqrt(chain.pi)
            gap = 1.0 - spectrum(chain).lambda2
            assert rayleigh_quotient(chain, g) == pytest.approx(gap, abs=1e-8)

    def test_constant_function_rejected(self):
        chain = symmetric_walk(cycle_graph(4))
        with pytest.raises(ValueError, match="constant"):
            rayleigh_quotient(chain, np.ones(4))

    def test_dominates_gap_on_random_instances(self):
        check_rayleigh_dominates_gap(seed=12, chains=200, functions=20)


class TestSummarize:
    def test_matches_spectrum_on_lapack_eigenvalues(self):
        chain = symmetric_walk(cycle_graph(6))
        lapack = summarize(np.linalg.eigvalsh(symmetrized(chain))[::-1])
        jacobi = spectrum(chain)
        assert lapack.relaxation_time == pytest.approx(jacobi.relaxation_time, rel=1e-12)
        assert np.allclose(lapack.eigenvalues, jacobi.eigenvalues, atol=1e-12)

    @pytest.mark.parametrize("eigenvalues", [[0.9, 0.5], [1.0, -1.5], [1.2, 0.5],
                                             [math.nan, 0.5], [1.0, math.nan]])
    def test_rejects_impossible_spectra(self, eigenvalues):
        with pytest.raises(ArithmeticError):
            summarize(eigenvalues)

    def test_near_reducible_is_infinite(self):
        assert summarize([1.0, 1.0 - 1e-13, 0.2]).relaxation_time == math.inf
        assert summarize([1.0]).relaxation_time == math.inf
        assert summarize([1.0, 0.5, -1.0]).relaxation_time == pytest.approx(2.0)


def test_symmetrized_is_symmetric():
    rng = np.random.default_rng(6)
    graph = random_connected_graph(rng, 6)
    chain = random_valid_chain(rng, graph)
    S = symmetrized(chain)
    assert np.array_equal(S, S.T)
