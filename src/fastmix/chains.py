"""Transition graphs, reversible chains, validation and standard constructors.

A problem instance is an undirected graph together with a target stationary
distribution ``pi``.  Self-loops are implicitly present on every node, so a
transition matrix may put mass on its diagonal even though ``edges`` only
lists proper (i != j) pairs.  A chain is held as its edge flows, and all
here is O(n + m) but the dense ``ReversibleChain.P`` and ``from_matrix``.
"""

from __future__ import annotations

import functools
import json
import numbers
from pathlib import Path

import numpy as np

PI_SUM_TOL = 1e-12      # normalization of the stationary distribution
STOCHASTIC_TOL = 1e-10  # row sums / detailed balance of a dense matrix
NONNEG_TOL = 1e-12      # nonnegative flows and diagonals, off-edge zeros
SATURATE_SWEEPS = 500   # fair-share sweeps of saturate_flows at most
SATURATE_TOL = 1e-15    # budget and flow increments below it count as zero


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


def _float_array(values, what):
    """``values`` as a new float array; ValueError naming ``what`` when numpy
    cannot read them as numbers (objects, ragged nesting, non-numeric text)."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} is not an array of numbers ({exc})") from None


def _read_json(path, what):
    """The JSON value in a file; ValueError if it nests too deeply to parse."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{what} file {path} nests too deeply to parse") from None


def _canonical_edges(n, edges):
    """Validated edges as sorted canonical ``(min, max)`` rows of an (m, 2) array."""
    if not isinstance(edges, np.ndarray):
        try:
            edges = list(edges)
        except TypeError:
            raise ValueError(f"edges {edges!r} are not a list of node pairs") from None
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
        pi = _float_array(pi, "pi")
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

    def star_sums(self, edge_values):
        """Per node, the sum of ``edge_values`` (one per row of ``ends``) over
        its star: from 0.0, adding in ascending neighbour order (``bincount``
        adds its weights in input order).  Every edge-to-node sum reads it."""
        return np.bincount(self.star_owners, weights=edge_values[self.star_edges],
                           minlength=self.n)

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
        return cls.from_json_dict(_read_json(path, "graph"))

    def __repr__(self):
        return f"TransitionGraph(n={self.n}, m={len(self.ends)})"


class ReversibleChain:
    """A reversible chain on its (graph, pi) instance, held as its edge flows.

    ``flows[k]`` is q = pi(i) P(i,j) = pi(j) P(j,i) on edge k of
    ``graph.ends``; each self-loop keeps the rest of its node's mass.
    Construction only checks the length; :func:`validate_chain` checks
    feasibility.  The dense ``P`` is built on first use, which only the CSV
    writer makes (spectra build S from the flows), and :meth:`from_matrix`
    is the one way in from a dense matrix.
    """

    def __init__(self, graph, flows):
        flows = _float_array(flows, "flows")
        if flows.shape != (len(graph.ends),):
            raise ValueError(f"flows have shape {flows.shape}, expected ({len(graph.ends)},)")
        flows.flags.writeable = False
        self.graph = graph
        self.flows = flows

    @classmethod
    def from_matrix(cls, graph, P):
        """The chain of its edge flows pi(i) P(i,j), i < j, once P passes the
        dense checks and these flows pass :func:`validate_chain` (a row sum
        within ``STOCHASTIC_TOL`` of one can still leave a diagonal below
        ``-NONNEG_TOL``); ValueError names the first violations otherwise."""
        P = _float_array(P, "P")
        if P.shape != (graph.n, graph.n):
            raise ValueError(f"P has shape {P.shape}, expected ({graph.n},{graph.n})")
        ei, ej = graph.ends.T
        chain = cls(graph, graph.pi[ei] * P[ei, ej])
        report = _dense_violations(graph, P) or validate_chain(chain)
        if report:
            raise ValueError("invalid chain: " + "; ".join(report[:3]))
        return chain

    @functools.cached_property
    def P(self):
        """Read-only dense matrix: q/pi(i) at (i, j), 1 - load(i)/pi(i) on the
        diagonal; only the CSV writer reads it (spectra use ``symmetrized``)."""
        g = self.graph
        ei, ej = g.ends.T
        P = np.zeros((g.n, g.n))
        P[ei, ej] = self.flows / g.pi[ei]
        P[ej, ei] = self.flows / g.pi[ej]
        np.fill_diagonal(P, 1.0 - g.star_sums(self.flows) / g.pi)
        P.flags.writeable = False
        return P

    @property
    def pi(self):
        return self.graph.pi

    def __repr__(self):
        return f"ReversibleChain(n={self.graph.n})"


def _dense_violations(graph, P):
    """Messages for every entry that breaks a chain constraint (negative or
    non-finite, mass on a non-edge, row sum, detailed balance); NaN fails."""
    report = [f"negative or non-finite entry P[{i},{j}] = {P[i, j]:.3e}"
              for i, j in np.argwhere(~((P >= -NONNEG_TOL) & np.isfinite(P)))]
    ei, ej = graph.ends.T
    allowed = np.eye(graph.n, dtype=bool)
    allowed[ei, ej] = allowed[ej, ei] = True
    for i, j in np.argwhere(~allowed & ~(np.abs(P) <= NONNEG_TOL)):
        report.append(f"mass {P[i, j]:.3e} on non-edge ({i},{j})")
    rows = P.sum(axis=1)
    for i in np.nonzero(~(np.abs(rows - 1.0) <= STOCHASTIC_TOL))[0]:
        report.append(f"row {i} sums to {float(rows[i])!r} (|1 - sum| = {abs(1 - rows[i]):.3e})")
    F = graph.pi[:, None] * P
    with np.errstate(invalid="ignore"):         # inf - inf is NaN, reported as such
        gap = F - F.T
    for i, j in np.argwhere(np.triu(~(np.abs(gap) <= STOCHASTIC_TOL), 1)):
        report.append(f"detailed balance broken on ({i},{j}): "
                      f"pi(i)P(i,j) - pi(j)P(j,i) = {gap[i, j]:.3e}")
    return report


def validate_chain(chain):
    """Violation messages of a chain's flows, in O(n + m); none: it is feasible.

    Every flow must be finite and every flow and diagonal entry 1 - load/pi
    at least ``-NONNEG_TOL``, with the checks written ``not (x <= tol)`` so
    that NaN fails; row sums and detailed balance hold by construction.
    """
    g, q = chain.graph, chain.flows
    report = [f"negative or non-finite flow q({g.ends[k, 0]},{g.ends[k, 1]}) = {q[k]:.3e}"
              for k in np.flatnonzero(~((-q <= NONNEG_TOL) & np.isfinite(q)))]
    loads = g.star_sums(q)
    diagonal = 1.0 - loads / g.pi
    for i in np.flatnonzero(~(-diagonal <= NONNEG_TOL)):
        report.append(f"node {i} has load {float(loads[i])!r} over pi({i}) = "
                      f"{float(g.pi[i])!r} (diagonal P[{i},{i}] = {diagonal[i]:.3e})")
    return report


def edge_flow(chain, i, j):
    """Ergodic flow Q(i,j) = pi(i) P(i,j) = Q(j,i) of the edge {i, j}."""
    return float(chain.flows[chain.graph.edge_index[(min(i, j), max(i, j))]])


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
    goes on the diagonal.  Its flows are pi(i) (pi(j)/pi_*).
    """
    pi = graph.pi
    ei, ej = graph.ends.T
    return ReversibleChain(graph, pi[ei] * (pi[ej] / max_closed_neighborhood_mass(graph)))


def symmetric_walk(graph):
    """Uniform step to a random non-loop neighbor, flows 1/(n deg); only for
    uniform pi on a regular graph, where the walk is reversible."""
    if not np.all(np.abs(graph.pi - 1.0 / graph.n) <= 1e-12):
        raise ValueError("symmetric walk requires a uniform stationary distribution")
    degree = np.diff(graph.star_offsets)
    if degree.min() != degree.max():
        raise ValueError(f"symmetric walk requires a regular graph; this one is not "
                         f"regular (degrees {degree.min()} to {degree.max()})")
    return ReversibleChain(graph, 1.0 / (graph.n * degree[graph.ends[:, 0]]))


def saturate_flows(graph, flows):
    """Grow symmetric edge flows to a maximal point inside the node budgets.

    Fair-share sweeps: every edge whose two endpoints both have residual
    budget receives the smaller per-edge share, until no edge can grow.
    Useful because the second eigenvalue never increases when flow is added.
    """
    q = np.asarray(flows, dtype=float).copy()
    ei, ej = graph.ends.T
    resid = np.maximum(graph.pi - graph.star_sums(q), 0.0)
    for _ in range(SATURATE_SWEEPS):
        open_edge = (resid[ei] > SATURATE_TOL) & (resid[ej] > SATURATE_TOL)
        if not open_edge.any():
            break
        free = graph.star_sums(open_edge)
        share = np.divide(resid, free, out=np.zeros_like(resid), where=free > 0)
        delta = np.where(open_edge, np.minimum(share[ei], share[ej]), 0.0)
        if delta.max() <= SATURATE_TOL:
            break
        q += delta
        resid = np.maximum(resid - graph.star_sums(delta), 0.0)
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
    """The chain of a dense CSV, read by :meth:`ReversibleChain.from_matrix`."""
    rows = [[float(x) for x in line.split(",")]
            for line in Path(path).read_text().strip().splitlines()]
    return ReversibleChain.from_matrix(graph, rows)
