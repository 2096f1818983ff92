"""Spectra of reversible chains and the relaxation time.

Reversibility makes ``S = D^{1/2} P D^{-1/2}`` (``D = diag(pi)``) symmetric,
so the full spectrum of P is real.  Every output reads eigenvalues only, so
they are computed here, without eigenvectors, by a cyclic Jacobi rotation
sweep, which is dependency-free and robust for the dense, modest sized
matrices this package deals with.  A test function's Rayleigh quotient
bounds the gap ``1 - lambda2`` from above by the variational
characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import validate_chain

JACOBI_OFF_TOL = 1e-12     # off-diagonal Frobenius norm at convergence
UNIT_EIGENVALUE_TOL = 1e-9
REDUCIBLE_TOL = 1e-12      # lambda2 this close to 1 means +inf relaxation


def jacobi_eigvalsh(A, off_tol=JACOBI_OFF_TOL, max_sweeps=100):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations.

    Sweeps rotate every (p, q) pair in row order until the off-diagonal
    Frobenius norm drops below ``off_tol``, and the eigenvalues are the
    diagonal left behind, sorted in descending order.  No eigenvectors are
    accumulated.  Deterministic: identical input gives bitwise identical
    output.
    """
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("matrix must be square")
    if n == 1:
        return np.array([A[0, 0]])

    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * np.sum(np.triu(A, 1) ** 2))
        if off < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * rp - s * rq
                A[:, q] = s * rp + c * rq
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                A[p, q] = A[q, p] = 0.0

    w = np.diag(A).copy()
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


def symmetrized(chain):
    """Return S = D^{1/2} P D^{-1/2}, averaged to kill rounding asymmetry."""
    s = np.sqrt(chain.pi)
    S = s[:, None] * chain.P / s[None, :]
    return 0.5 * (S + S.T)


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
