"""Numerical oracle for the fastest-mixing problem on small instances.

Minimizes the second eigenvalue over reversible chains supported on the
graph by projected subgradient descent in the symmetric edge-flow variables
Q(i,j) = pi(i)P(i,j): reversibility is then plain symmetry and the feasible
set is the box {Q >= 0, node budgets sum_j Q(i,j) <= pi(i)}.  Every step
ends with the exact Euclidean projection onto that box, computed from its
n-dimensional dual by projected Newton.  A brute-force grid oracle over the
same variables is provided for cross-checking on instances with very few
edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chains import (ReversibleChain, chain_from_flows, fit_to_budgets,
                     max_degree_chain, saturate_flows, symmetric_walk,
                     validate_chain)
from .spectral import spectrum

DEGENERACY_TOL = 1e-12
GRID_MAX_EDGES = 4
GRID_MAX_RESOLUTION = 200
GRID_MAX_POINTS = 20_000_000
_EIG_CHUNK = 200_000
PROJECTION_MAX_STEPS = 50   # Newton steps per projection; 1-3 are typical
_ARMIJO = 1e-4              # sufficient-decrease fraction of the line search
_MAX_HALVINGS = 50          # line-search step halvings before giving up


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 5000
    step_constant: float = 0.1       # step at iteration t is c / sqrt(t)
    projection_tol: float = 1e-10    # KKT residual of each flow projection

    def __post_init__(self):
        if not (self.max_iters >= 1):
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters!r}")
        for name in ("step_constant", "projection_tol"):
            value = getattr(self, name)
            if not (value > 0) or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class SolverResult:
    chain: ReversibleChain
    lambda2_star: float
    tau2_star: float
    iterations: int
    certificate_gap: float
    projection_steps: int            # Newton steps over every projection
    projection_max_steps: int        # the most Newton steps one projection took
    projection_capped: int           # projections stopped short of projection_tol
    history: list = field(repr=False, default_factory=list)

    def to_json_dict(self):
        return {"lambda2_star": self.lambda2_star, "tau2_star": self.tau2_star,
                "iterations": self.iterations, "certificate_gap": self.certificate_gap,
                "projection_steps": self.projection_steps,
                "projection_max_steps": self.projection_max_steps,
                "projection_capped": self.projection_capped}


def _symmetrized_from_flows(q, pi, sqrt_pi, ei, ej, n):
    """D^{1/2} P D^{-1/2} of the chain with edge flows ``q``.

    ``q`` holds one flow per edge on its last axis; any leading axes are
    batch axes, and each batch entry is built exactly as an unbatched call.
    """
    batch = q.shape[:-1]
    S = np.zeros(batch + (n, n))
    S[..., ei, ej] = q / (sqrt_pi[ei] * sqrt_pi[ej])
    S += S.swapaxes(-1, -2)
    row_off = np.zeros(batch + (n,))
    np.add.at(row_off, (..., ei), q)
    np.add.at(row_off, (..., ej), q)
    diag = np.arange(n)
    S[..., diag, diag] = 1.0 - row_off / pi
    return S


def _second_pair(w, V):
    """Second-largest eigenvalue and a deterministic eigenvector for it.

    ``np.linalg.eigh`` sorts ascending; near-degenerate columns are broken
    by the lexicographically largest absolute vector (any of them is a valid
    subgradient generator).
    """
    lam2 = w[-2]
    cand = [k for k in range(len(w) - 1) if abs(w[k] - lam2) <= DEGENERACY_TOL]
    best = cand[0]
    for k in cand[1:]:
        a, b = np.abs(V[:, k]), np.abs(V[:, best])
        for x, y in zip(a, b):
            if x != y:
                if x > y:
                    best = k
                break
    return lam2, V[:, best]


class FlowProjector:
    """Exact Euclidean projection onto the flow box, warm-started call to call.

    The box {Q >= 0, sum_{e at i} Q_e <= pi_i} has the n-dimensional dual

        min_{lam >= 0}  h(lam) = 1/2 |max(0, y - lam[ei] - lam[ej])|^2 + pi . lam,

    whose gradient is pi minus the node loads of Q(lam) = max(0, y - lam[ei]
    - lam[ej]); at the minimizer Q(lam) is the projection of y.  h is
    minimized by projected Newton with an Armijo search along the projected
    arc (Bertsekas, SIAM J. Control Optim. 20, 1982), starting from the
    previous call's multipliers ``lam``:

    * multipliers within ``tol`` of zero whose gradient is positive are held
      at the bound with a diagonal step, and so are nodes without active
      edges (Q_e > 0), whose multiplier is sent straight to zero;
    * the other multipliers take the Newton step of the reduced Hessian, the
      signless Laplacian of the active edges, ridged by min(1, residual) so
      that bipartite active components, where it is singular, still give a
      step.

    A call ends once the projected-gradient residual
    max |lam - max(0, lam - grad)| is at most ``tol``: node loads then
    exceed pi by at most ``tol``.  ``steps``, ``max_steps`` and ``capped``
    count the Newton steps, the most in one call, and the calls that
    stopped short of ``tol`` (step cap or stalled line search).
    """

    def __init__(self, graph, tol):
        self.pi, self.tol, self.n = graph.pi, tol, graph.n
        self.ei = ei = np.array([e[0] for e in graph.edges])
        self.ej = ej = np.array([e[1] for e in graph.edges])
        n = graph.n
        self.lam = np.zeros(n)
        # flat positions of each edge's four Hessian entries, and their edges
        self._hessian_index = np.concatenate([ei * n + ej, ej * n + ei,
                                              ei * (n + 1), ej * (n + 1)])
        self._hessian_edge = np.tile(np.arange(len(ei)), 4)
        self.steps = 0
        self.max_steps = 0
        self.capped = 0

    def _flows(self, y, lam):
        q = np.maximum(y - lam[self.ei] - lam[self.ej], 0.0)
        load = (np.bincount(self.ei, weights=q, minlength=self.n)
                + np.bincount(self.ej, weights=q, minlength=self.n))
        return q, self.pi - load

    def __call__(self, y):
        n = self.n
        lam = self.lam
        q, grad = self._flows(y, lam)
        steps = 0
        while True:
            resid = float(np.abs(lam - np.maximum(lam - grad, 0.0)).max())
            if resid <= self.tol:
                break
            if steps == PROJECTION_MAX_STEPS:
                self.capped += 1
                break
            steps += 1
            active = (q > 0.0).astype(float)
            degree = (np.bincount(self.ei, weights=active, minlength=n)
                      + np.bincount(self.ej, weights=active, minlength=n))
            ridge = min(1.0, resid)
            isolated = degree == 0.0
            held = isolated | ((lam <= self.tol) & (grad > 0.0))
            direction = np.where(isolated, lam, grad / (degree + ridge))
            free = np.nonzero(~held)[0]
            if free.size:
                H = np.bincount(self._hessian_index, weights=active[self._hessian_edge],
                                minlength=n * n).reshape(n, n)
                H.flat[::n + 1] += ridge
                direction[free] = np.linalg.solve(H[free[:, None], free], grad[free])
            slope = float(grad[free] @ direction[free])

            alpha = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = np.maximum(lam - alpha * direction, 0.0)
                q_trial, grad_trial = self._flows(y, trial)
                shift = lam - trial
                # h(lam) - h(trial) as a sum of differences: on edges active
                # at both points q - q_trial is the multiplier shift itself,
                # which keeps the sum exact near the optimum, where the two
                # values of h agree to rounding
                both = (q > 0.0) & (q_trial > 0.0)
                change = np.where(both, -(shift[self.ei] + shift[self.ej]), q - q_trial)
                decrease = 0.5 * float(change @ (q + q_trial)) + float(self.pi @ shift)
                expected = alpha * slope + float(grad[held] @ shift[held])
                if decrease >= _ARMIJO * expected:
                    break
                alpha *= 0.5
            else:
                self.capped += 1
                break
            lam, q, grad = trial, q_trial, grad_trial
        self.lam = lam
        self.steps += steps
        self.max_steps = max(self.max_steps, steps)
        return q


def _candidate_flows(graph, best_q):
    """Deterministic finishers that replace the best descent iterate.

    lambda2 is non-increasing in every flow (each Rayleigh quotient is
    linear with a nonpositive flow coefficient), so the saturated iterate
    stands in for the raw one; the symmetric walk and the
    congestion-equalized chain catch the symmetric instances where those
    are exactly optimal.
    """
    from .upper_bounds import equalize_congestion, shortest_path_system

    candidates = [saturate_flows(graph, best_q)]
    degrees = {graph.degree(i) for i in range(graph.n)}
    if graph.uniform_pi() and len(degrees) == 1:
        walk = symmetric_walk(graph)
        candidates.append(walk.flows()[[e[0] for e in graph.edges],
                                       [e[1] for e in graph.edges]])
    equalized = equalize_congestion(graph, shortest_path_system(graph))
    candidates.append(equalized.flows()[[e[0] for e in graph.edges],
                                        [e[1] for e in graph.edges]])
    return candidates


def solve_fastest_mixing(graph, config=None):
    """Minimize lambda2 by projected subgradient descent on the flow box.

    The subgradient at Q comes from the second eigenvector u of the
    symmetrized matrix: d lambda2 / d Q(i,j) = -(u_i/sqrt(pi_i) -
    u_j/sqrt(pi_j))^2, so the descent step raises flow where that squared
    mismatch is largest, normalized to unit length, with step c/sqrt(t),
    and is followed by the exact Euclidean projection back onto the flow
    box (:class:`FlowProjector`).
    The best iterate is kept, then a few deterministic closed-form
    candidates are compared (its saturated version, the symmetric walk when
    it is reversible, the congestion-equalized chain), and the winner is
    returned as a feasible, validated chain.
    """
    config = config or SolverConfig()
    n = graph.n
    if n < 2:
        raise ValueError("need at least two states")
    pi = graph.pi
    sqrt_pi = np.sqrt(pi)
    project = FlowProjector(graph, config.projection_tol)
    ei, ej = project.ei, project.ej

    q = max_degree_chain(graph).flows()[ei, ej].copy()

    best_lambda = math.inf
    best_q = q.copy()
    last_lambda = math.nan
    history = []
    iterations = 0
    for t in range(1, config.max_iters + 1):
        iterations = t
        S = _symmetrized_from_flows(q, pi, sqrt_pi, ei, ej, n)
        w, V = np.linalg.eigh(S)
        lam2, u = _second_pair(w, V)
        last_lambda = lam2
        if lam2 < best_lambda:
            best_lambda = lam2
            best_q = q.copy()
        history.append(best_lambda)

        direction = (u[ei] / sqrt_pi[ei] - u[ej] / sqrt_pi[ej]) ** 2
        norm = np.linalg.norm(direction)
        if norm <= 1e-15:
            break
        q = project(q + (config.step_constant / math.sqrt(t)) * direction / norm)

    candidates = _candidate_flows(graph, fit_to_budgets(graph, best_q))
    finals = [np.linalg.eigvalsh(_symmetrized_from_flows(c, pi, sqrt_pi, ei, ej, n))[-2]
              for c in candidates]
    winner = candidates[int(np.argmin(finals))]

    chain = chain_from_flows(graph, winner)
    report = validate_chain(chain)
    if report:
        raise RuntimeError("solver produced an infeasible chain: " + report[0])
    summary = spectrum(chain)
    return SolverResult(chain=chain,
                        lambda2_star=summary.lambda2,
                        tau2_star=summary.relaxation_time,
                        iterations=iterations,
                        certificate_gap=abs(best_lambda - last_lambda),
                        projection_steps=project.steps,
                        projection_max_steps=project.max_steps,
                        projection_capped=project.capped,
                        history=history)


@dataclass(frozen=True)
class OracleResult:
    chain: ReversibleChain
    lambda2: float
    spacing: float


def grid_oracle(graph, resolution):
    """Exhaustive grid search over the free edge flows.

    Only meant for instances with at most four non-loop edges; every grid
    point respecting the node budgets is evaluated with a batched
    eigensolver and the minimizer is returned.
    """
    m = len(graph.edges)
    if m > GRID_MAX_EDGES:
        raise ValueError(f"{m} free edge flows exceed the grid oracle cap of {GRID_MAX_EDGES}")
    if not (1 <= resolution <= GRID_MAX_RESOLUTION):
        raise ValueError(f"resolution must be in 1..{GRID_MAX_RESOLUTION}")
    n, pi = graph.n, graph.pi
    sqrt_pi = np.sqrt(pi)
    ei = np.array([e[0] for e in graph.edges])
    ej = np.array([e[1] for e in graph.edges])

    caps = np.minimum(pi[ei], pi[ej])
    axes = [np.linspace(0.0, c, resolution + 1) for c in caps]
    if (resolution + 1) ** m > GRID_MAX_POINTS:
        raise ValueError("grid too fine; lower the resolution")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)

    incidence = np.zeros((n, m))
    incidence[ei, np.arange(m)] = 1.0
    incidence[ej, np.arange(m)] = 1.0
    feasible = np.all(points @ incidence.T <= pi + 1e-12, axis=1)
    points = points[feasible]

    best_lambda = math.inf
    best_q = None
    for start in range(0, len(points), _EIG_CHUNK):
        block = points[start:start + _EIG_CHUNK]
        S = _symmetrized_from_flows(block, pi, sqrt_pi, ei, ej, n)
        lams = np.linalg.eigvalsh(S)[:, -2]
        k = int(np.argmin(lams))
        if lams[k] < best_lambda:
            best_lambda = float(lams[k])
            best_q = block[k].copy()

    chain = chain_from_flows(graph, best_q)
    return OracleResult(chain=chain, lambda2=best_lambda,
                        spacing=float(caps.max() / resolution))
