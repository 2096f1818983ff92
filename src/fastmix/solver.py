"""Fastest-mixing chains by an interior-point method, with a certified dual.

In the symmetric edge flows q_e = pi(i)P(i,j) the symmetrized chain is
S = I - L(q), with L(q) = sum_e q_e a_e a_e^T and a_e = e_i/sqrt(pi_i) -
e_j/sqrt(pi_j).  ``spectral.laplacian`` writes L(q) for both ``spectrum``
and the barrier here, and every node load (L's diagonal, the slacks, the
slack LP's edge sums) comes from ``TransitionGraph.star_sums``.  So
1 - lambda2 is the smallest eigenvalue gamma of L(q) on the complement of
u = sqrt(pi), and the fastest chain solves the SDP

    maximize gamma  s.t.  L(q) >= gamma I on u^perp,  q >= 0,
                          node loads sum_{e at i} q_e <= pi_i

(Boyd, Diaconis and Xiao, SIAM Rev. 46, 2004).  A log-barrier method solves
it by following the central path, the barrier problem's minimizers as its
parameter t grows (Vandenberghe and Boyd, SIAM Rev. 38, 1996).  t grows by
BARRIER_GROWTH from one centre to the next.  At a centre the gradient
vanishes and its derivative in t is -e_gamma, so the path's tangent is
H^{-1} e_gamma; it comes out of the last Newton solve as a second column.
Before centring at the next t, a predictor step moves (q, gamma) along it
by the change in t, cut to _PREDICTOR_BOUNDARY of the way to q = 0 or
s = 0 and halved until N stays positive definite.  Newton steps then
centre the new point.

A barrier centre yields a certified pair:

* the primal: its flows, saturated to a maximal point of the node budgets,
  define a valid chain, whose relaxation time is read from LAPACK
  eigenvalues;
* the dual: the Lagrange dual of the SDP is the paper's embedding bound
  (Sun, Boyd, Xiao and Diaconis, SIAM Rev. 48, 2006).  At the centre,
  Z = M^{-1}/t and w = 1/(t s) are dual feasible, where M is the matrix of
  the cone constraint and s holds the node slacks.  The Gram factor of Z
  gives pi-centred vectors.  Off an exact centre w = 1/(t s) falls short on
  some edges, so the slacks are refitted as the cheapest ones for those
  vectors (a small LP), raised where rounding leaves an edge short, and
  ``embedding_bound`` evaluates the resulting embedding.

The barrier's own gap at a centre is nu/t, and the certified gap is a
fraction of nu/(t gamma) that shrinks with it.  So a centre is certified
only where even a certificate BARRIER_GROWTH^2 times sharper than
nu/(t gamma) could meet CERTIFIED_GAP (the window), and where the solve
ends anyway: when the Newton budget is spent, and after a centring that
took no step.  Centres in the window are centred to a Newton decrement^2/2
of CENTERING_TOL, so their certificates are taken at tightly centred
points; the others only to LOOSE_CENTERING_TOL, as the predictor needs no
more.  A centring also ends when rounding stalls it: when the line search
finds no step, or its accepted step leaves (q, gamma) unchanged.  A solve
that starts at its optimum (uniform pi on a complete graph) certifies only
once its centres reach the window.  The solve stops
(``SolverResult.stop``) once the certified gap (tau - lb)/tau is at most
CERTIFIED_GAP ("certified"), once it stops improving from one certificate
to the next ("no_improvement"), or after ``max_iters`` Newton steps
("newton_cap").  ``iterations`` counts the Newton steps taken (the entries
of ``history``); predictor steps are not among them.
The tests cross-check the solver on instances with very few edges against
a brute-force grid search over the same flow variables.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .chains import ReversibleChain, max_degree_chain, saturate_flows, validate_chain
from .lower_bounds import Embedding, embedding_bound
# the solver never calls ``spectrum``: it stays imported because perfbench
# wraps it at every module that names it and asserts ``solver.spectrum``
# resolves to that wrapper
from .spectral import laplacian, spectrum, summarize, symmetrized  # noqa: F401

CERTIFIED_GAP = 1e-6      # stop once (tau - lb)/tau is this small
BARRIER_GROWTH = 8.0      # factor on t from one centre to the next
CENTERING_TOL = 1e-9      # Newton decrement^2 / 2 that ends a centring in the window
LOOSE_CENTERING_TOL = 1e-2  # ... and one outside it
_BOUNDARY = 0.99          # fraction of the way to q = 0 or s = 0 a Newton step may go
_PREDICTOR_BOUNDARY = 0.9   # ... and a predictor step
_ARMIJO = 0.25            # sufficient-decrease fraction of the line search
_MAX_HALVINGS = 60        # line-search step halvings before giving up
_LP_GAP = 1e-12           # relative duality gap that ends the slack LP
_LP_RIDGE = 1e-15         # relative ridge on the LP's normal equations
_LP_MAX_STEPS = 100


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 3000     # cap on Newton steps

    def __post_init__(self):
        if not (self.max_iters >= 1):
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")


@dataclass(frozen=True)
class SolverResult:
    """The fastest chain found and the embedding that certifies it.

    ``lower_bound`` is ``embedding_bound`` of ``embedding``, so
    lower_bound <= optimal tau2 <= tau2_star, and ``certified_gap`` is
    (tau2_star - lower_bound) / tau2_star.  ``history`` holds 1 - gamma of
    the barrier iterate after each Newton step; ``iterations`` counts them.
    ``certificates`` counts the centres certified, each one slack LP, and
    ``stop`` says why the solve ended: "certified", "no_improvement" or
    "newton_cap".
    """

    chain: ReversibleChain
    lambda2_star: float
    tau2_star: float
    lower_bound: float
    certified_gap: float
    iterations: int
    certificates: int
    stop: str
    embedding: Embedding = field(repr=False)
    history: list = field(repr=False, default_factory=list)

    def to_json_dict(self):
        return {"lambda2_star": self.lambda2_star, "tau2_star": self.tau2_star,
                "lower_bound": self.lower_bound, "certified_gap": self.certified_gap,
                "iterations": self.iterations, "certificates": self.certificates,
                "stop": self.stop}


class _Barrier:
    """The barrier problem of the SDP at parameter t:

        minimize  -t gamma - log det N - sum_e log q_e - sum_i log s_i,

    where s = pi - loads(q) and N = L(q) - gamma (I - u u^T) + u u^T equals M
    on u^perp and keeps u as an eigenvector of eigenvalue 1.  With
    X = N^{-1} the derivatives are those of Vandenberghe and Boyd: the
    log-det part has gradient -a_e^T X a_e in q_e and tr X - 1 in gamma, and
    Hessian (a_e^T X a_f)^2, -|X a_e|^2 and tr X^2 - 1.
    """

    def __init__(self, graph):
        m = len(graph.ends)
        self.graph, self.n, self.pi = graph, graph.n, graph.pi
        self.ei, self.ej = graph.ends.T
        root = np.sqrt(self.pi)
        self.inv_root = 1.0 / root
        self.uu = np.outer(root, root)
        # the scaled incidence: column e is a_e
        self._incidence = np.zeros((self.n, m))
        self._incidence[self.ei, np.arange(m)] = self.inv_root[self.ei]
        self._incidence[self.ej, np.arange(m)] = -self.inv_root[self.ej]
        # the load barrier's Hessian adds 1/s_k^2 at (e, f) for every pair of
        # edges meeting at node k.  Two distinct edges share at most one
        # node, so each off-diagonal pair is met once: its flat position in
        # the (m+1)^2 Hessian, and k.  A diagonal entry gets both ends' terms.
        owners = graph.star_owners
        a, b = np.nonzero(owners[:, None] == owners[None, :])   # star entry pairs
        e, f = graph.star_edges[a], graph.star_edges[b]
        apart = e != f
        self._pair_index = e[apart] * (m + 1) + f[apart]
        self._pair_node = owners[a[apart]]
        self._diag_index = np.arange(m) * (m + 2)

    def slacks(self, q):
        return self.pi - self.graph.star_sums(q)

    def factor(self, q, gamma):
        """Cholesky factor of N, or None outside the cone."""
        N = laplacian(self.graph, q)
        N.flat[::self.n + 1] -= gamma
        N += (1.0 + gamma) * self.uu
        try:
            return np.linalg.cholesky(N)
        except np.linalg.LinAlgError:
            return None

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def newton(self, q, gamma, t, chol):
        """Gradient, Newton step and central-path tangent at (q, gamma).

        At a centre the gradient vanishes and its derivative in t is
        -e_gamma, so the centres move along H^{-1} e_gamma as t grows; that
        tangent is the second column of the same Newton solve.  ValueError
        when the system leaves the floating-point range (pi far from even:
        1/q^2 overflows for q below ~1e-154).
        """
        ei, ej, A = self.ei, self.ej, self._incidence
        m = len(q)
        R = np.linalg.inv(chol)
        X = R.T @ R
        Y = X @ A                                         # column e: X a_e
        G = A.T @ Y                                       # a_e^T X a_f
        inv_s = 1.0 / self.slacks(q)
        grad = np.empty(m + 1)
        grad[:m] = inv_s[ei] + inv_s[ej] - np.diag(G) - 1.0 / q
        grad[m] = np.trace(X) - 1.0 - t
        H = np.empty((m + 1, m + 1))
        np.multiply(G, G, out=H[:m, :m])
        del G                    # freed before the solve copies H: peak memory
        inv_s2 = inv_s ** 2
        flat = H.reshape(-1)
        flat[self._pair_index] += inv_s2[self._pair_node]
        # the diagonal adds its ends' load terms in star order, then 1/q_e^2
        flat[self._diag_index] = flat[self._diag_index] + inv_s2[ei] + inv_s2[ej] + 1.0 / q ** 2
        H[:m, m] = H[m, :m] = -np.einsum("ke,ke->e", Y, Y)
        H[m, m] = np.einsum("ij,ij->", X, X) - 1.0
        # Jacobi scaling keeps the solve accurate as M nears singularity
        scale = 1.0 / np.sqrt(np.diag(H))
        H *= scale[:, None]
        H *= scale[None, :]
        rhs = np.zeros((m + 1, 2))
        rhs[:, 0] = -grad * scale
        rhs[m, 1] = scale[m]
        if not (np.isfinite(H).all() and np.isfinite(rhs).all()):
            raise _range_error(self.pi, "Newton system")
        solved = np.linalg.solve(H, rhs)
        return grad, scale * solved[:, 0], scale * solved[:, 1]

    def _room(self, q, dq, fraction):
        """The largest step up to 1 along (dq, -loads(dq)) that goes at most
        ``fraction`` of the way to q = 0 or s = 0; also the slacks and their
        change."""
        s = self.slacks(q)
        ds = -self.graph.star_sums(dq)
        alpha = 1.0
        for x, dx in ((q, dq), (s, ds)):
            shrinking = dx < 0.0
            if shrinking.any():
                alpha = min(alpha, fraction * float(np.min(-x[shrinking] / dx[shrinking])))
        return alpha, s, ds

    def predict(self, q, gamma, chol, move):
        """(q, gamma) moved along ``move``: cut to _PREDICTOR_BOUNDARY of the
        way to the boundary, then halved until N stays positive definite.
        Returns the point unmoved when no halving is accepted."""
        m = len(q)
        dq, dgamma = move[:m], move[m]
        alpha, _, _ = self._room(q, dq, _PREDICTOR_BOUNDARY)
        for _ in range(_MAX_HALVINGS):
            trial_q, trial_gamma = q + alpha * dq, gamma + alpha * dgamma
            trial = self.factor(trial_q, trial_gamma)
            if trial is not None:
                return trial_q, trial_gamma, trial
            alpha *= 0.5
        return q, gamma, chol

    def line_search(self, q, gamma, t, chol, grad, step):
        """Backtracking step along ``step``; None when no step decreases enough.

        The objective's change is summed from per-term differences, which
        stay accurate where the objective itself is dominated by t gamma.
        """
        m = len(q)
        dq, dgamma = step[:m], step[m]
        alpha, s, ds = self._room(q, dq, _BOUNDARY)
        slope = float(grad @ step)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        for _ in range(_MAX_HALVINGS):
            trial_q, trial_gamma = q + alpha * dq, gamma + alpha * dgamma
            trial = self.factor(trial_q, trial_gamma)
            if trial is not None:
                change = (-t * alpha * dgamma
                          - (2.0 * np.sum(np.log(np.diag(trial))) - logdet)
                          - np.sum(np.log1p(alpha * dq / q))
                          - np.sum(np.log1p(alpha * ds / s)))
                if change <= _ARMIJO * alpha * slope:
                    return trial_q, trial_gamma, trial
            alpha *= 0.5
        return None

    def embedding(self, chol):
        """The dual point of the barrier iterate as a feasible embedding.

        With N = C C^T and R = C^{-1}, the vectors R[:, i]/sqrt(pi_i),
        pi-centred, have the Gram form of t Z, and their squared edge lengths
        are a_e^T X a_e.  The slacks are the cheapest ones for these vectors
        (:func:`_cover_slacks`), raised where rounding leaves an edge short,
        and the embedding is scaled to sum pi w = 1.
        """
        g, ei, ej = self.graph, self.ei, self.ej
        psi = np.linalg.inv(chol).T * self.inv_root[:, None]
        psi -= self.pi @ psi
        d2 = np.sum((psi[ei] - psi[ej]) ** 2, axis=1)
        w = _cover_slacks(g, d2)
        # no star of a connected graph with n >= 2 is empty
        short = np.maximum(d2 - w[ei] - w[ej], 0.0)
        w += np.maximum.reduceat(short[g.star_edges], g.star_offsets[:-1])
        total = float(self.pi @ w)
        return Embedding(psi / math.sqrt(total), w / total)


def _range_error(pi, what):
    return ValueError(f"the solver's {what} leaves the floating-point range "
                      f"(pi spans {pi.min():.3g} to {pi.max():.3g})")


def _cover_slacks(graph, lengths):
    """Slacks w >= 0 minimizing pi.w subject to w_i + w_j >= lengths_e.

    A weighted fractional vertex cover LP, solved by a primal-dual
    path-following method with Mehrotra's predictor-corrector steps from a
    strictly feasible start.  Its dual is max lengths.x over flows x >= 0
    with node loads at most pi.  Each step solves the n x n normal
    equations of the cover variables.  The iterate is one array, the cover
    side (w, z) and then the flow side (x, v), and each side takes one
    ratio test.
    """
    pi, (ei, ej), edge_sum = graph.pi, graph.ends.T, graph.star_sums
    n, m = graph.n, len(lengths)
    half = n + m
    scale = float(lengths.max())
    c = lengths / scale

    def parts(a):
        return a[:n], a[n:half], a[half:half + m], a[half + m:]

    state = np.empty(2 * half)
    w, z, x, v = parts(state)
    w[:] = 1.0
    z[:] = 2.0 - c                                # w_i + w_j - c_e
    x[:] = 0.5 * float(pi.min()) / float(np.diff(graph.star_offsets).max())
    v[:] = pi - edge_sum(x)
    K = np.zeros((n, n))
    diag = np.arange(n)

    def direction(target_zx, target_wv, r_p, r_d):
        """The Newton direction, laid out like ``state``."""
        ratio = x / z
        K[ei, ej] = K[ej, ei] = ratio             # edges are unique
        k_diag = edge_sum(ratio) + v / w
        # a relative ridge keeps K invertible where the LP is degenerate
        k_diag += _LP_RIDGE * k_diag.max()
        K[diag, diag] = k_diag
        rhs = edge_sum(ratio * r_p + target_zx / z) + target_wv / w - r_d
        dw = np.linalg.solve(K, rhs)
        dx = ratio * (r_p - dw[ei] - dw[ej]) + target_zx / z
        return np.concatenate((dw, (target_zx - z * dx) / x, dx, (target_wv - v * dw) / w))

    def step(d):
        """``state`` moved along ``d``, each side by up to 0.995 of the way to
        its boundary and at most 1."""
        room = np.divide(-state, d, out=np.full(2 * half, np.inf), where=d < 0.0)
        sizes = [min(1.0, 0.995 * float(room[:half].min())),
                 min(1.0, 0.995 * float(room[half:].min()))]
        return state + np.repeat(sizes, half) * d

    for _ in range(_LP_MAX_STEPS):
        gap = float(z @ x + w @ v)
        if gap <= _LP_GAP * float(pi @ w):
            break
        mu = gap / (n + m)
        r_p = c - w[ei] - w[ej] + z
        r_d = pi - edge_sum(x) - v
        d = direction(-z * x, -w * v, r_p, r_d)
        aw, az, ax, av = parts(step(d))
        sigma = (float(az @ ax + aw @ av) / gap) ** 3
        dw, dz, dx, dv = parts(d)
        moved = step(direction(sigma * mu - z * x - dz * dx,
                               sigma * mu - w * v - dw * dv, r_p, r_d))
        if not np.isfinite(moved).all():
            break
        state[:] = moved
    return w * scale


def _certify(barrier, q, chol):
    """Saturated primal chain and dual embedding of the barrier iterate."""
    graph = barrier.graph
    chain = ReversibleChain(graph, saturate_flows(graph, q))
    report = validate_chain(chain)
    if report:
        raise RuntimeError("solver produced an infeasible chain: " + report[0])
    summary = summarize(np.linalg.eigvalsh(symmetrized(chain))[::-1])
    tau = summary.relaxation_time
    embedding = barrier.embedding(chol)
    lower = embedding_bound(graph, embedding)
    return SolverResult(chain=chain, lambda2_star=summary.lambda2, tau2_star=tau,
                        lower_bound=lower, certified_gap=(tau - lower) / tau,
                        iterations=0, certificates=0, stop="", embedding=embedding)


def solve_fastest_mixing(graph, config=None):
    """The fastest chain on ``graph`` and an embedding certifying it.

    Starts from half the max-degree chain's flows pi(i) pi(j) / pi_* and
    gamma = 0, where L(q) + u u^T is positive definite because the graph is
    connected.  ValueError when that start, or a Newton system, leaves the
    floating-point range: a start flow underflows to zero, say.
    """
    config = config or SolverConfig()
    n = graph.n
    if n < 2:
        raise ValueError("need at least two states")
    barrier = _Barrier(graph)
    ei, ej, pi = barrier.ei, barrier.ej, graph.pi
    q = 0.5 * max_degree_chain(graph).flows
    gamma = 0.0
    chol = barrier.factor(q, gamma)
    if chol is None or not (np.all(q > 0.0) and np.all(barrier.slacks(q) > 0.0)):
        raise _range_error(pi, "start")
    # nu barrier terms bound the gap at a centre by nu/t; start where that
    # bound is the mean eigenvalue of L(q) on u^perp, tr L(q)/(n-1)
    nu = len(q) + 2 * n - 1
    t = nu * (n - 1) / float(np.sum(q / pi[ei] + q / pi[ej]))

    def certifiable(t, gamma):
        # the window: a certificate BARRIER_GROWTH^2 times sharper than the
        # barrier's nu/(t gamma) could end the solve
        return nu / t <= BARRIER_GROWTH ** 2 * CERTIFIED_GAP * gamma

    history = []
    best = None
    certificates = 0
    while True:
        # centre at t, tightly where a certificate can be taken; the solve's
        # first Newton step is never skipped
        start = len(history)
        while len(history) < config.max_iters:
            grad, step, tangent = barrier.newton(q, gamma, t, chol)
            tol = CENTERING_TOL if certifiable(t, gamma) else LOOSE_CENTERING_TOL
            if history and -float(grad @ step) <= 2.0 * tol:
                break
            moved = barrier.line_search(q, gamma, t, chol, grad, step)
            # rounding has stalled the line search, or its accepted step
            # leaves the iterate where it was
            if moved is None or (moved[1] == gamma and np.array_equal(moved[0], q)):
                break
            q, gamma, chol = moved
            history.append(1.0 - gamma)
        spent = len(history) >= config.max_iters
        if spent or len(history) == start or certifiable(t, gamma):
            certified = _certify(barrier, q, chol)
            certificates += 1
            if best is not None and not (certified.certified_gap < best.certified_gap):
                stop = "no_improvement"
                break
            best = certified
            if best.certified_gap <= CERTIFIED_GAP:
                stop = "certified"
                break
            if spent:
                stop = "newton_cap"
                break
        # predict the next centre along the tangent of the last Newton solve
        q, gamma, chol = barrier.predict(q, gamma, chol, (BARRIER_GROWTH - 1.0) * t * tangent)
        t *= BARRIER_GROWTH
    return dataclasses.replace(best, iterations=len(history), certificates=certificates,
                               stop=stop, history=history)
