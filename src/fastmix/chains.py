"""Transition graphs, reversible chains, validation and standard constructors.

A problem instance is an undirected graph together with a target stationary
distribution ``pi``.  Self-loops are implicitly present on every node, so a
transition matrix may put mass on its diagonal even though ``edges`` only
lists proper (i != j) pairs.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path

import numpy as np

PI_SUM_TOL = 1e-12      # normalization of the stationary distribution
STOCHASTIC_TOL = 1e-10  # row sums / detailed balance
NONNEG_TOL = 1e-12      # entry nonnegativity and off-edge zeros


def _canonical_edges(n, edges):
    seen = set()
    out = []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if i == j:
            raise ValueError(f"explicit self-loop ({i},{i}): self-loops are implicit")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        out.append(key)
    out.sort()
    return tuple(out)


class TransitionGraph:
    """Undirected graph with implicit self-loops and a stationary distribution.

    Nodes are ``0..n-1``; ``edges`` holds canonical ``(min, max)`` pairs in
    sorted order.  The graph must be connected and ``pi`` finite, strictly
    positive and summing to one.
    """

    def __init__(self, n, edges, pi=None):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.edges = _canonical_edges(n, edges)
        if pi is None:
            pi = np.full(n, 1.0 / n)
        pi = np.asarray(pi, dtype=float).copy()
        if pi.shape != (n,):
            raise ValueError(f"pi has shape {pi.shape}, expected ({n},)")
        if not np.all((pi > 0.0) & np.isfinite(pi)):
            raise ValueError("pi must be finite and strictly positive")
        if abs(pi.sum() - 1.0) > PI_SUM_TOL:
            raise ValueError(f"pi sums to {pi.sum()!r}, not 1 within {PI_SUM_TOL}")
        pi.flags.writeable = False
        self.pi = pi

        nbrs = [[] for _ in range(n)]
        for i, j in self.edges:
            nbrs[i].append(j)
            nbrs[j].append(i)
        self._neighbors = tuple(tuple(sorted(a)) for a in nbrs)
        self._edge_index = {e: k for k, e in enumerate(self.edges)}
        if not self._connected():
            raise ValueError("graph is not connected")

    def _connected(self):
        if self.n == 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self._neighbors[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n

    def neighbors(self, i):
        """Sorted non-loop neighbors of node ``i``."""
        return self._neighbors[i]

    def degree(self, i):
        return len(self._neighbors[i])

    def has_edge(self, i, j):
        return i != j and j in self._neighbors[i]

    @property
    def edge_index(self):
        """Mapping canonical edge -> position in ``self.edges``."""
        return self._edge_index

    def incident_edges(self, i):
        """Indices into ``edges`` of the edges touching node ``i``."""
        idx = self.edge_index
        return [idx[(min(i, j), max(i, j))] for j in self._neighbors[i]]

    def uniform_pi(self, tol=1e-12):
        return bool(np.all(np.abs(self.pi - 1.0 / self.n) <= tol))

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return {"n": self.n, "edges": [list(e) for e in self.edges],
                "pi": [float(p) for p in self.pi]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(data["n"], data["edges"], data.get("pi"))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    def __repr__(self):
        return f"TransitionGraph(n={self.n}, m={len(self.edges)})"


class ReversibleChain:
    """A transition matrix attached to its (graph, pi) instance.

    Construction only checks dimensions; use :func:`validate_chain` for the
    full feasibility report (support, stochasticity, detailed balance).
    """

    def __init__(self, graph, P):
        P = np.asarray(P, dtype=float).copy()
        if P.shape != (graph.n, graph.n):
            raise ValueError(f"P has shape {P.shape}, expected ({graph.n},{graph.n})")
        P.flags.writeable = False
        self.graph = graph
        self.P = P

    @property
    def pi(self):
        return self.graph.pi

    def flows(self):
        """Edge-flow matrix Q with Q[i,j] = pi[i] * P[i,j]."""
        return self.pi[:, None] * self.P

    def __repr__(self):
        return f"ReversibleChain(n={self.graph.n})"


def validate_chain(chain):
    """Check a chain against every feasibility constraint of its instance.

    Returns a list of human-readable violation messages (with indices and
    magnitudes); an empty list means the chain is feasible.  Every check is
    written as ``not (x <= tol)``, so NaN entries fail it.
    """
    g, P = chain.graph, chain.P
    report = []

    neg = np.argwhere(~(P >= -NONNEG_TOL))
    for i, j in neg:
        report.append(f"negative or non-finite entry P[{i},{j}] = {P[i, j]:.3e}")

    off = ~np.eye(g.n, dtype=bool)
    allowed = np.zeros((g.n, g.n), dtype=bool)
    for i, j in g.edges:
        allowed[i, j] = allowed[j, i] = True
    bad = np.argwhere(off & ~allowed & ~(np.abs(P) <= NONNEG_TOL))
    for i, j in bad:
        report.append(f"mass {P[i, j]:.3e} on non-edge ({i},{j})")

    rows = P.sum(axis=1)
    for i in np.nonzero(~(np.abs(rows - 1.0) <= STOCHASTIC_TOL))[0]:
        report.append(f"row {i} sums to {rows[i]!r} (|1 - sum| = {abs(1 - rows[i]):.3e})")

    F = chain.pi[:, None] * P
    gap = np.abs(F - F.T)
    for i, j in np.argwhere(np.triu(~(gap <= STOCHASTIC_TOL), 1)):
        report.append(
            f"detailed balance broken on ({i},{j}): "
            f"pi(i)P(i,j) - pi(j)P(j,i) = {F[i, j] - F[j, i]:.3e}")
    return report


def edge_flow(chain, i, j):
    """Ergodic flow Q(i,j) = pi(i) P(i,j); symmetric for reversible chains."""
    return float(chain.pi[i] * chain.P[i, j])


def max_closed_neighborhood_mass(graph):
    """``pi_*``: the largest pi-mass of a closed neighborhood {i} + N(i)."""
    pi = graph.pi
    closed = np.array([pi[i] + sum(pi[j] for j in graph.neighbors(i))
                       for i in range(graph.n)])
    return closed.max()


def max_degree_chain(graph):
    """The canonical max-degree chain: P(i,j) = pi(j)/pi_* on edges.

    ``pi_*`` is the largest closed-neighborhood mass (the self-loop term is
    included, keeping row sums below one without clipping); leftover mass
    goes on the diagonal.
    """
    pi = graph.pi
    pi_star = max_closed_neighborhood_mass(graph)
    P = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
        P[i, j] = pi[j] / pi_star
        P[j, i] = pi[i] / pi_star
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return ReversibleChain(graph, P)


def symmetric_walk(graph):
    """Uniform step to a random non-loop neighbor.

    Only supported for uniform pi; reversibility w.r.t. uniform pi holds
    exactly when the graph is regular.
    """
    if not graph.uniform_pi():
        raise ValueError("symmetric walk requires a uniform stationary distribution")
    P = np.zeros((graph.n, graph.n))
    for i in range(graph.n):
        for j in graph.neighbors(i):
            P[i, j] = 1.0 / graph.degree(i)
    return ReversibleChain(graph, P)


def chain_from_flows(graph, flow_by_edge):
    """Build a chain from symmetric edge flows (one value per graph edge).

    Residual mass pi(i) - sum of incident flows lands on the self-loop;
    callers are responsible for keeping row budgets nonnegative.
    """
    q = np.asarray(flow_by_edge, dtype=float)
    if q.shape != (len(graph.edges),):
        raise ValueError("need one flow value per edge")
    P = np.zeros((graph.n, graph.n))
    for k, (i, j) in enumerate(graph.edges):
        P[i, j] = q[k] / graph.pi[i]
        P[j, i] = q[k] / graph.pi[j]
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return ReversibleChain(graph, P)


def saturate_flows(graph, flows, sweeps=500, tol=1e-15):
    """Grow symmetric edge flows to a maximal point inside the node budgets.

    Fair-share sweeps: every edge whose two endpoints both have residual
    budget receives the smaller per-edge share, until no edge can grow.
    Useful because the second eigenvalue never increases when flow is added.
    """
    q = np.asarray(flows, dtype=float).copy()
    ei = np.array([e[0] for e in graph.edges])
    ej = np.array([e[1] for e in graph.edges])
    resid = graph.pi.copy()
    np.subtract.at(resid, ei, q)
    np.subtract.at(resid, ej, q)
    resid = np.maximum(resid, 0.0)
    for _ in range(sweeps):
        open_edge = (resid[ei] > tol) & (resid[ej] > tol)
        if not open_edge.any():
            break
        free = np.zeros(graph.n)
        np.add.at(free, ei[open_edge], 1.0)
        np.add.at(free, ej[open_edge], 1.0)
        share = np.divide(resid, free, out=np.zeros_like(resid), where=free > 0)
        delta = np.where(open_edge, np.minimum(share[ei], share[ej]), 0.0)
        if delta.max() <= tol:
            break
        q += delta
        np.subtract.at(resid, ei, delta)
        np.subtract.at(resid, ej, delta)
        resid = np.maximum(resid, 0.0)
    return fit_to_budgets(graph, q)


def fit_to_budgets(graph, q):
    """Rounding guard: scale every node star over its budget back, in place.

    For nonnegative flows one ordered pass suffices, because scaling a star
    only shrinks the sums of the stars that share its edges.
    """
    for i in range(graph.n):
        idx = graph.incident_edges(i)
        total = q[idx].sum()
        if total > graph.pi[i]:
            q[idx] *= graph.pi[i] / total
    return q


def save_chain_csv(chain, path):
    """Dense CSV, one row of P per line, full round-trip precision."""
    lines = [",".join(repr(float(x)) for x in row) for row in chain.P]
    Path(path).write_text("\n".join(lines) + "\n")


def load_chain_csv(graph, path):
    rows = [[float(x) for x in line.split(",")]
            for line in Path(path).read_text().strip().splitlines()]
    return ReversibleChain(graph, np.array(rows))
