"""Spectra of reversible chains and the relaxation time.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` (``D = diag(pi)``) symmetric,
so the full spectrum of P is real.  In the edge flows S = I - L(q), and
``laplacian`` is the one writer of the flow Laplacian L(q), which the
solver's barrier reads too; its diagonal load/pi takes the node loads from
the graph's one star-sum kernel, ``TransitionGraph.star_sums``.  Every
output reads eigenvalues only, so they are computed here from S without
eigenvectors, by cyclic Jacobi sweeps of whole-array rounds in elementwise
numpy (no BLAS, so bitwise repeatable at any thread count).  A test
function's Rayleigh quotient bounds the gap ``1 - lambda2`` from above by
the variational characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import validate_chain

JACOBI_OFF_TOL = 1e-12     # off-diagonal Frobenius norm at convergence
UNIT_EIGENVALUE_TOL = 1e-9
REDUCIBLE_TOL = 1e-12      # lambda2 this close to 1 means +inf relaxation


def _rotate(X, Y, c, s, T, U):
    """Overwrite X and Y with c X - s Y and s X + c Y, through the buffers T and U."""
    np.multiply(X, c, out=T)
    np.multiply(Y, s, out=U)
    T -= U
    np.multiply(X, s, out=U)
    Y *= c
    Y += U
    X[...] = T


def jacobi_eigvalsh(A, off_tol=JACOBI_OFF_TOL, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every (p, q) pair once until the off-diagonal Frobenius
    norm drops below ``off_tol``; the eigenvalues are the diagonal left
    behind, sorted in descending order.  A sweep is m - 1 rounds of disjoint
    pairs (m = n, or n + 1 with a zero row and column), in the round-robin
    ordering of Brent and Luk (1985): the copy is kept in ring order, a round
    rotates the columns, then the rows, of all pairs (k, m - 1 - k) at once,
    and the ring turns.  No eigenvectors are accumulated.  Deterministic:
    identical input gives bitwise identical output.
    """
    M = np.asarray(A, dtype=float)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError("matrix must be square")
    m, h = n + n % 2, (n + 1) // 2
    A, work = np.zeros((m, m)), np.empty((m, m))
    A[:n, :n] = M
    back = slice(m - 1, h - 1, -1)      # the partners of positions 0..h-1
    d, anti = A.diagonal(), A.reshape(-1)[m - 1:-1:m - 1]   # anti[k] = A[k, m-1-k]
    turn = ((slice(0, 1), slice(0, 1)), (slice(1, 2), slice(m - 1, m)),
            (slice(2, m), slice(1, m - 1)))
    for _ in range(max_sweeps):
        np.fill_diagonal(np.multiply(A, A, out=work), 0.0)
        if math.sqrt(np.sum(work)) < off_tol:
            break
        for _ in range(m - 1):
            live = np.abs(anti[:h]) >= 1e-300      # the others get c = 1, s = 0
            theta = (d[back] - d[:h]) / (2.0 * np.where(live, anti[:h], 1.0))
            t = np.where(live, np.copysign(1.0, theta)
                         / (np.abs(theta) + np.hypot(theta, 1.0)), 0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            _rotate(A[:, :h], A[:, back], c, s, *work.reshape(2, m, h))
            _rotate(A[:h], A[back], c[:, None], s[:, None], *work.reshape(2, h, m))
            anti[:] = 0.0
            np.copyto(work, A)              # turn the ring: position m - 1 to 1
            for rows, from_rows in turn:
                for cols, from_cols in turn:
                    A[rows, cols] = work[from_rows, from_cols]
    w = A.diagonal()[:n].copy()
    return w[np.argsort(-w, kind="stable")]


@dataclass(frozen=True)
class SpectralSummary:
    """Eigenvalues (descending), the second largest, and 1/(1 - lambda2)."""

    eigenvalues: np.ndarray
    lambda2: float
    relaxation_time: float

    def to_json_dict(self):
        return {"eigenvalues": [float(x) for x in self.eigenvalues],
                "lambda2": self.lambda2,
                "relaxation_time": self.relaxation_time}


def laplacian(graph, flows):
    """The flow Laplacian L(q) = sum_e q_e a_e a_e^T, a_e = e_i/sqrt(pi(i)) -
    e_j/sqrt(pi(j)): load(i)/pi(i) on the diagonal and -q/sqrt(pi(i) pi(j))
    at (i, j) and (j, i) of each edge; exactly symmetric, and L sqrt(pi) = 0
    up to rounding.  The one place that writes these entries."""
    ei, ej = graph.ends.T
    L = np.diag(graph.star_sums(flows) / graph.pi)
    L[ei, ej] = L[ej, ei] = -flows / np.sqrt(graph.pi[ei] * graph.pi[ej])
    return L


def symmetrized(chain):
    """S = D^{1/2} P D^{-1/2} = I - L(q), written over L's own array."""
    S = laplacian(chain.graph, chain.flows)
    np.subtract(0.0, S, out=S)          # 0.0 - 0.0 keeps the zeros positive
    S.flat[::len(S) + 1] += 1.0
    return S


def summarize(eigenvalues):
    """Summary of a chain's symmetrized eigenvalues, given in descending order.

    Checks that the top eigenvalue is 1 and that the spectrum lies in
    [-1, 1], both within 1e-9.  The relaxation time is ``1/(1 - lambda2)``,
    reported as ``+inf`` when ``lambda2`` sits within 1e-12 of 1 (reducible
    or near-reducible input).
    """
    w = np.asarray(eigenvalues, dtype=float)
    if not (abs(w[0] - 1.0) <= UNIT_EIGENVALUE_TOL):
        raise ArithmeticError(f"top eigenvalue {w[0]!r} is not 1")
    if not (w[-1] >= -1.0 - UNIT_EIGENVALUE_TOL and w[0] <= 1.0 + UNIT_EIGENVALUE_TOL):
        raise ArithmeticError("eigenvalue outside [-1, 1]")
    if len(w) == 1:
        lam2, rel = 1.0, math.inf
    else:
        lam2 = float(w[1])
        rel = math.inf if lam2 >= 1.0 - REDUCIBLE_TOL else 1.0 / (1.0 - lam2)
    return SpectralSummary(eigenvalues=w, lambda2=lam2, relaxation_time=rel)


def spectrum(chain):
    """Full spectrum of a valid reversible chain, by Jacobi rotations (see :func:`summarize`)."""
    report = validate_chain(chain)
    if report:
        raise ValueError("invalid chain: " + "; ".join(report[:3]))
    return summarize(jacobi_eigvalsh(symmetrized(chain)))


def rayleigh_quotient(chain, g):
    """Dirichlet-form-to-variance ratio of a test function.

    Computes ``sum_{(i,j) in E} (g(i) - g(j))^2 Q(i,j) / Var_pi(g)`` (each
    edge counted once).  By the variational characterization this is at
    least ``1 - lambda2`` for any non-constant g.
    """
    g = np.asarray(g, dtype=float)
    pi = chain.pi
    mean = float(pi @ g)
    var = float(pi @ (g - mean) ** 2)
    if var <= 1e-300:
        raise ValueError("g is constant pi-a.e.: zero variance")
    ei, ej = chain.graph.ends.T
    return float(np.sum((g[ei] - g[ej]) ** 2 * chain.flows)) / var
