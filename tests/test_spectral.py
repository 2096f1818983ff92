import math

import numpy as np
import pytest

from fastmix.chains import ReversibleChain, TransitionGraph, max_degree_chain
from fastmix.families import complete_graph, torus_graph
from fastmix.spectral import (jacobi_eigvalsh, rayleigh_quotient, spectrum, summarize,
                              symmetrized)
from fastmix.chains import symmetric_walk
from helpers import (check_rayleigh_dominates_gap, jacobi_eigvalsh_reference,
                     random_connected_graph, random_valid_chain, symmetrized_reference)


def _symmetric_inputs():
    """Random symmetric matrices of odd and even n from 2 to 65; a diagonal
    one (no rotation); tridiagonal and block-diagonal ones, whose rounds hold
    exactly-zero pairs; and the torus 8x8 max-degree S (repeated eigenvalues)."""
    rng = np.random.default_rng(0)
    for n in range(2, 66):
        A = rng.normal(size=(n, n))
        yield f"random{n}", 0.5 * (A + A.T)
    yield "diagonal", np.diag(rng.normal(size=9))
    for n in (9, 10):
        off = rng.normal(size=n - 1)
        yield f"tridiagonal{n}", np.diag(rng.normal(size=n)) + np.diag(off, 1) + np.diag(off, -1)
    A = rng.normal(size=(4, 4))
    yield "block-diagonal", np.kron(np.eye(3), A + A.T)
    yield "torus8x8", symmetrized(max_degree_chain(torus_graph(8, 2)))


SYMMETRIC_INPUTS = dict(_symmetric_inputs())


class TestJacobi:
    @pytest.mark.parametrize("A", SYMMETRIC_INPUTS.values(), ids=SYMMETRIC_INPUTS.keys())
    def test_matches_lapack_on_random_symmetric(self, A):
        w = jacobi_eigvalsh(A)
        w_ref = np.linalg.eigvalsh(A)[::-1]
        assert np.allclose(w, w_ref, atol=1e-10)
        assert np.array_equal(w, jacobi_eigvalsh(A))
        if len(A) <= 16:    # one rotation at a time: rounding differs, not the method
            assert np.allclose(w, jacobi_eigvalsh_reference(A), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [6, 7])
    def test_every_pair_is_rotated(self, n):
        # one off-diagonal pair (i, j): a sweep that missed it would never converge
        d = np.arange(1.0, n + 1.0)
        for i in range(n):
            for j in range(i + 1, n):
                A = np.diag(d)
                A[i, j] = A[j, i] = 0.5
                mid, half = 0.5 * (d[i] + d[j]), math.hypot(0.5 * (d[j] - d[i]), 0.5)
                expected = np.sort(np.r_[np.delete(d, [i, j]), mid - half, mid + half])[::-1]
                assert np.allclose(jacobi_eigvalsh(A, max_sweeps=3), expected, atol=1e-14)

    def test_one_by_one(self):
        assert jacobi_eigvalsh([[2.5]]).tolist() == [2.5]

    def test_leaves_its_input_alone(self):
        A = symmetrized(max_degree_chain(torus_graph(3, 2)))
        before = A.copy()
        jacobi_eigvalsh(A)
        assert np.array_equal(A, before)

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
        chain = symmetric_walk(torus_graph(4, 1))
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
        chain = symmetric_walk(torus_graph(4, 1))
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
        chain = symmetric_walk(torus_graph(4, 1))
        with pytest.raises(ValueError, match="constant"):
            rayleigh_quotient(chain, np.ones(4))

    def test_dominates_gap_on_random_instances(self):
        check_rayleigh_dominates_gap(seed=12, chains=200, functions=20)


class TestSummarize:
    def test_matches_spectrum_on_lapack_eigenvalues(self):
        chain = symmetric_walk(torus_graph(6, 1))
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


def test_symmetrized_matches_the_dense_formula():
    rng = np.random.default_rng(7)
    for _ in range(50):
        graph = random_connected_graph(rng, int(rng.integers(2, 12)))
        chain = random_valid_chain(rng, graph)
        assert np.allclose(symmetrized(chain), symmetrized_reference(chain),
                           rtol=0.0, atol=1e-15)


def test_spectrum_builds_no_dense_p():
    chain = max_degree_chain(torus_graph(4, 2))
    spectrum(chain)
    assert "P" not in vars(chain)
