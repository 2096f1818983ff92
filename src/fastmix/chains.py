"""Transition graphs, reversible chains, validation and standard constructors.

A problem instance is an undirected graph together with a target stationary
distribution ``pi``.  Self-loops are implicitly present on every node, so a
transition matrix may put mass on its diagonal even though ``edges`` only
lists proper (i != j) pairs.
"""

from __future__ import annotations

import functools
import json
import numbers
from pathlib import Path

import numpy as np

PI_SUM_TOL = 1e-12      # normalization of the stationary distribution
STOCHASTIC_TOL = 1e-10  # row sums / detailed balance
NONNEG_TOL = 1e-12      # entry nonnegativity and off-edge zeros


def _integral(value):
    """Whether ``value`` is a number equal to an integer: ``2`` and ``2.0``,
    but not ``"2"``, None, ``2.9`` or a non-finite number."""
    return isinstance(value, numbers.Real) and value % 1 == 0


def _node_ids(values, n):
    """``values`` as int64 node ids (0 where masked), and the mask of the non-ids.

    Node ids are the integers 0..n-1, also as other numbers equal to them
    (``1.0``); strings, None, fractions and non-finite numbers are none.
    """
    with np.errstate(invalid="ignore"):
        if isinstance(values, np.ndarray) and values.dtype.kind in "biuf":
            bad = ~((values >= 0) & (values < n) & (values % 1 == 0))
        else:                               # judge the entries as given
            values = np.asarray(values, dtype=object)
            bad = ~np.frompyfunc(lambda v: _integral(v) and 0 <= v < n,
                                 1, 1)(values).astype(bool)
    return np.where(bad, 0, values).astype(np.int64), bad


def _canonical_edges(n, edges):
    """Validated edges as sorted canonical ``(min, max)`` rows of an (m, 2) array."""
    edges = edges if isinstance(edges, np.ndarray) else list(edges)
    if len(edges) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    ends, bad = _node_ids(edges, n)
    if ends.ndim != 2 or ends.shape[1] != 2:
        k = next(k for k, e in enumerate(edges) if np.ndim(e) != 1 or len(e) != 2)
        raise ValueError(f"edge {edges[k]!r} is not a pair of nodes")
    if bad.any():
        raise ValueError(f"edge {edges[int(np.argmax(bad.any(axis=1)))]!r} out of range "
                         f"for n={n}: endpoints are integer node ids 0..{n - 1}")
    loops = ends[:, 0] == ends[:, 1]
    if loops.any():
        i = int(ends[np.argmax(loops), 0])
        raise ValueError(f"explicit self-loop ({i},{i}): self-loops are implicit")
    ends = np.sort(ends, axis=1)
    ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
    repeated = np.all(ends[1:] == ends[:-1], axis=1)
    if repeated.any():
        raise ValueError(f"duplicate edge {tuple(ends[np.argmax(repeated)].tolist())}")
    return ends


def _stars(n, ends):
    """CSR stars: offsets, then per entry its node, neighbour (ascending) and edge id."""
    owners = ends.T.ravel()
    nodes = ends[:, ::-1].T.ravel()
    order = np.lexsort((nodes, owners))
    offsets = np.concatenate([[0], np.cumsum(np.bincount(owners, minlength=n))])
    return offsets, owners[order], nodes[order], np.tile(np.arange(len(ends)), 2)[order]


def _connected(offsets, nodes):
    """Whether node 0 reaches every node: a depth-first search over the CSR
    stars, O(n + m)."""
    n = len(offsets) - 1
    offsets, nodes = offsets.tolist(), nodes.tolist()
    reached = bytearray(n)
    reached[0] = 1
    stack, count = [0], 1
    while stack:
        i = stack.pop()
        for j in nodes[offsets[i]:offsets[i + 1]]:
            if not reached[j]:
                reached[j] = 1
                count += 1
                stack.append(j)
    return count == n


class TransitionGraph:
    """Undirected graph with implicit self-loops and a stationary distribution.

    Nodes are ``0..n-1``.  The graph owns its edge layout as read-only arrays,
    which every bound and lookup reads: ``ends`` holds the canonical
    ``(min, max)`` pairs in sorted order (edge ids are its rows); node i's star
    is positions ``star_offsets[i]:star_offsets[i + 1]`` of ``star_owners``
    (i), ``star_nodes`` (its neighbours, ascending) and ``star_edges`` (their
    edge ids).  The graph must be connected and ``pi`` finite, positive and
    summing to one.
    """

    def __init__(self, n, edges, pi=None):
        with np.errstate(invalid="ignore"):
            if not _integral(n):
                raise ValueError(f"node count {n!r} is not an integer")
        n = int(n)
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.ends = _canonical_edges(n, edges)
        if len(self.ends) < n - 1:          # before any array of n entries
            raise ValueError("graph is not connected")
        if pi is None:
            pi = np.full(n, 1.0 / n)
        pi = np.asarray(pi, dtype=float).copy()
        if pi.shape != (n,):
            raise ValueError(f"pi has shape {pi.shape}, expected ({n},)")
        if not np.all((pi > 0.0) & np.isfinite(pi)):
            raise ValueError("pi must be finite and strictly positive")
        if abs(pi.sum() - 1.0) > PI_SUM_TOL:
            raise ValueError(f"pi sums to {pi.sum()!r}, not 1 within {PI_SUM_TOL}")
        self.pi = pi
        self.star_offsets, self.star_owners, self.star_nodes, self.star_edges = \
            _stars(n, self.ends)
        if not _connected(self.star_offsets, self.star_nodes):
            raise ValueError("graph is not connected")
        for array in (self.pi, self.ends, self.star_offsets, self.star_owners,
                      self.star_nodes, self.star_edges):
            array.flags.writeable = False

    @functools.cached_property
    def edges(self):
        """Canonical ``(min, max)`` pairs in sorted order, as tuples."""
        return tuple(map(tuple, self.ends.tolist()))

    def neighbors(self, i):
        """Sorted non-loop neighbors of node ``i``."""
        return tuple(self.star_nodes[self.star_offsets[i]:self.star_offsets[i + 1]].tolist())

    def degree(self, i):
        return int(self.star_offsets[i + 1] - self.star_offsets[i])

    def has_edge(self, i, j):
        return i != j and j in self.neighbors(i)

    @functools.cached_property
    def edge_index(self):
        """Mapping canonical edge -> position in ``self.edges``."""
        return {e: k for k, e in enumerate(self.edges)}

    def incident_edges(self, i):
        """Indices into ``edges`` of the edges touching node ``i``."""
        return self.star_edges[self.star_offsets[i]:self.star_offsets[i + 1]].tolist()

    def uniform_pi(self, tol=1e-12):
        return bool(np.all(np.abs(self.pi - 1.0 / self.n) <= tol))

    # -- serialization ------------------------------------------------

    def to_json_dict(self):
        return {"n": self.n, "edges": self.ends.tolist(),
                "pi": [float(p) for p in self.pi]}

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("graph data is not a JSON object")
        for key in ("n", "edges"):
            if key not in data:
                raise ValueError(f"graph data lacks the key {key!r}")
        return cls(data["n"], data["edges"], data.get("pi"))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    def __repr__(self):
        return f"TransitionGraph(n={self.n}, m={len(self.ends)})"


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

    ei, ej = g.ends.T
    allowed = np.eye(g.n, dtype=bool)
    allowed[ei, ej] = allowed[ej, ei] = True
    bad = np.argwhere(~allowed & ~(np.abs(P) <= NONNEG_TOL))
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
    """``pi_*``: the largest pi-mass of a closed neighborhood {i} + N(i).

    Each neighbourhood is summed in ascending neighbour order, from 0.0
    (``bincount`` adds its weights in input order).
    """
    pi = graph.pi
    neighborhood = np.bincount(graph.star_owners, weights=pi[graph.star_nodes],
                               minlength=graph.n)
    return (pi + neighborhood).max()


def max_degree_chain(graph):
    """The canonical max-degree chain: P(i,j) = pi(j)/pi_* on edges.

    ``pi_*`` is the largest closed-neighborhood mass (the self-loop term is
    included, keeping row sums below one without clipping); leftover mass
    goes on the diagonal.
    """
    pi = graph.pi
    pi_star = max_closed_neighborhood_mass(graph)
    ei, ej = graph.ends.T
    P = np.zeros((graph.n, graph.n))
    P[ei, ej] = pi[ej] / pi_star
    P[ej, ei] = pi[ei] / pi_star
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return ReversibleChain(graph, P)


def symmetric_walk(graph):
    """Uniform step to a random non-loop neighbor.

    Only supported for uniform pi; reversibility w.r.t. uniform pi holds
    exactly when the graph is regular.
    """
    if not graph.uniform_pi():
        raise ValueError("symmetric walk requires a uniform stationary distribution")
    degree = np.diff(graph.star_offsets)
    P = np.zeros((graph.n, graph.n))
    P[graph.star_owners, graph.star_nodes] = 1.0 / degree[graph.star_owners]
    return ReversibleChain(graph, P)


def chain_from_flows(graph, flow_by_edge):
    """Build a chain from symmetric edge flows (one value per graph edge).

    Residual mass pi(i) - sum of incident flows lands on the self-loop;
    callers are responsible for keeping row budgets nonnegative.
    """
    q = np.asarray(flow_by_edge, dtype=float)
    if q.shape != (len(graph.ends),):
        raise ValueError("need one flow value per edge")
    ei, ej = graph.ends.T
    P = np.zeros((graph.n, graph.n))
    P[ei, ej] = q / graph.pi[ei]
    P[ej, ei] = q / graph.pi[ej]
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return ReversibleChain(graph, P)


def saturate_flows(graph, flows, sweeps=500, tol=1e-15):
    """Grow symmetric edge flows to a maximal point inside the node budgets.

    Fair-share sweeps: every edge whose two endpoints both have residual
    budget receives the smaller per-edge share, until no edge can grow.
    Useful because the second eigenvalue never increases when flow is added.
    """
    q = np.asarray(flows, dtype=float).copy()
    ei, ej = graph.ends.T
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
    offsets = graph.star_offsets
    for i in range(graph.n):
        idx = graph.star_edges[offsets[i]:offsets[i + 1]]
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
