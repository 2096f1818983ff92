"""Upper bounds on the optimal relaxation time: canonical paths and Cheeger.

The congestion of a path system bounds tau2 of any chain on the instance,
and because the path loads W(e) depend only on (graph, pi, paths), the bound
can be minimized over edge flows.  ``equalize_congestion`` performs that
minimization exactly: the optimum puts flow proportional to load, pinned by
the most loaded node star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import (chain_from_flows, max_closed_neighborhood_mass,
                     saturate_flows)
from .lower_bounds import vertex_expansion


class PathSystem:
    """One simple path per unordered node pair, stored from the smaller endpoint.

    ``paths`` maps node pairs to node sequences.  They are kept in two flat
    integer arrays: ``nodes`` concatenates the paths, pair (x, y) with x < y
    in lexicographic order, and the k-th pair's path is
    ``nodes[offsets[k]:offsets[k + 1]]``.  ``path(x, y)`` returns the node
    sequence oriented x -> y, so the (y, x) query is the exact reversal of
    the (x, y) one.
    """

    def __init__(self, graph, paths):
        by_pair = {}
        for (x, y), nodes in paths.items():
            x, y = int(x), int(y)
            if x == y:
                raise ValueError("paths connect distinct nodes")
            key = (min(x, y), max(x, y))
            nodes = tuple(int(v) for v in nodes)
            if nodes and nodes[0] == key[1]:
                nodes = nodes[::-1]
            if not nodes or nodes[0] != key[0] or nodes[-1] != key[1]:
                raise ValueError(f"path for {key} does not connect its endpoints")
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"path for {key} repeats a node")
            for a, b in zip(nodes, nodes[1:]):
                if not graph.has_edge(a, b):
                    raise ValueError(f"path for {key} uses non-edge ({a},{b})")
            by_pair[key] = nodes
        n = graph.n
        expected = n * (n - 1) // 2
        if len(by_pair) != expected:
            raise ValueError(f"need a path for all {expected} pairs, got {len(by_pair)}")
        ordered = [by_pair[(x, y)] for x in range(n) for y in range(x + 1, n)]
        self._adopt(graph, np.array([v for nodes in ordered for v in nodes], dtype=np.int32),
                    np.cumsum([0] + [len(nodes) for nodes in ordered]))

    @classmethod
    def _from_flat(cls, graph, nodes, offsets):
        """Adopt flat arrays that are valid by construction."""
        system = cls.__new__(cls)
        system._adopt(graph, nodes, offsets)
        return system

    def _adopt(self, graph, nodes, offsets):
        nodes.flags.writeable = False
        offsets.flags.writeable = False
        self.graph, self.nodes, self.offsets = graph, nodes, offsets

    def path(self, x, y):
        a, b = min(x, y), max(x, y)
        k = a * self.graph.n - a * (a + 1) // 2 + (b - a - 1)
        nodes = tuple(int(v) for v in self.nodes[self.offsets[k]:self.offsets[k + 1]])
        return nodes if x <= y else nodes[::-1]

    def pairs(self):
        """((x, y), nodes) for every pair x < y, in lexicographic order."""
        n = self.graph.n
        for x in range(n):
            for y in range(x + 1, n):
                yield (x, y), self.path(x, y)


def _distances(graph):
    """All-pairs hop distances by breadth-first frontiers of the adjacency matrix."""
    n = graph.n
    ei, ej = graph.ends.T
    adjacency = np.zeros((n, n))
    adjacency[ei, ej] = adjacency[ej, ei] = 1.0
    dist = np.where(np.eye(n, dtype=bool), 0, -1)
    frontier = np.eye(n)
    level = 0
    while frontier.any():
        level += 1
        frontier = ((frontier @ adjacency > 0) & (dist < 0)).astype(float)
        dist[frontier > 0] = level
    return dist


def shortest_path_system(graph):
    """BFS shortest paths; ties resolved to the lexicographically smallest
    node sequence as seen from the smaller endpoint.

    All pairs walk from x towards y at once: each step moves to the
    smallest neighbor one hop further from x and one hop closer to y.
    """
    n = graph.n
    dist = _distances(graph)
    first, second = np.triu_indices(n, 1)
    length = dist[first, second]
    # row i holds i's star: neighbors are sorted, so the first admissible
    # column is the lexicographic choice; padding columns are never admissible
    owners = graph.star_owners
    column = np.arange(len(owners)) - graph.star_offsets[owners]
    width = int(column.max(initial=0)) + 1
    neighbors = np.zeros((n, width), dtype=np.int64)
    real = np.zeros((n, width), dtype=bool)
    neighbors[owners, column] = graph.star_nodes
    real[owners, column] = True
    longest = int(length.max()) if length.size else 0
    walk = np.zeros((len(first), longest + 1), dtype=np.int32)
    walk[:, 0] = first
    for step in range(longest):
        moving = np.nonzero(length > step)[0]
        here, x, y = walk[moving, step], first[moving], second[moving]
        cand = neighbors[here]
        ok = (real[here] & (dist[x[:, None], cand] == step + 1)
              & (dist[cand, y[:, None]] == (length[moving] - step - 1)[:, None]))
        if not ok.any(axis=1).all():
            raise RuntimeError("BFS walk stalled; graph data inconsistent")
        walk[moving, step + 1] = cand[np.arange(len(moving)), np.argmax(ok, axis=1)]
    on_path = np.arange(longest + 1)[None, :] <= length[:, None]
    offsets = np.concatenate([[0], np.cumsum(length + 1)])
    return PathSystem._from_flat(graph, walk[on_path], offsets)


def path_loads(graph, paths):
    """W(e) = sum over paths through e of pi(x) pi(y) |path|, per edge.

    Contributions are summed per edge in pair order, then hop order.
    """
    pi, n, m = graph.pi, graph.n, len(graph.ends)
    nodes, offsets = paths.nodes, paths.offsets
    first, second = np.triu_indices(n, 1)
    hops = np.diff(offsets) - 1
    # consecutive positions of ``nodes`` form a hop, except where one path
    # ends and the next begins: those steps weigh 0, and land in the spare
    # bin m when they are no edge
    ei, ej = graph.ends.T
    edge_id = np.full((n, n), m)
    edge_id[ei, ej] = edge_id[ej, ei] = np.arange(m)
    weight = np.repeat(pi[first] * pi[second] * hops, hops + 1)[:-1]
    weight[offsets[1:-1] - 1] = 0.0
    return np.bincount(edge_id[nodes[:-1], nodes[1:]], weights=weight,
                       minlength=m + 1)[:m]


@dataclass(frozen=True)
class CongestionReport:
    """Per-edge loads and load/flow ratios; rho_bar is the worst ratio."""

    edge_loads: dict
    ratios: dict
    rho_bar: float
    argmax_edge: tuple

    def to_json_dict(self):
        return {"W": {f"{i},{j}": w for (i, j), w in self.edge_loads.items()},
                "ratios": {f"{i},{j}": r for (i, j), r in self.ratios.items()},
                "rho_bar": self.rho_bar,
                "argmax_edge": list(self.argmax_edge)}


def congestion(chain, paths, loads=None):
    """Canonical-paths congestion of a chain: tau2(chain) <= rho_bar.

    An edge carrying load but zero flow makes the bound vacuous; it is
    reported as +inf with the offending edge as argmax.  ``loads`` are the
    path loads W when the caller already has them.
    """
    graph = chain.graph
    W = np.asarray(path_loads(graph, paths) if loads is None else loads)
    ei, ej = graph.ends.T
    q = graph.pi[ei] * chain.P[ei, ej]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(q > 0.0, W / q, np.where(W > 0.0, math.inf, 0.0))
    worst = int(np.argmax(ratios)) if len(ratios) else None   # the first maximum
    return CongestionReport(edge_loads=dict(zip(graph.edges, W.tolist())),
                            ratios=dict(zip(graph.edges, ratios.tolist())),
                            rho_bar=0.0 if worst is None else float(ratios[worst]),
                            argmax_edge=None if worst is None else graph.edges[worst])


def equalize_congestion(graph, paths, loads=None):
    """Flows minimizing the congestion of a fixed path system.

    Ratios W(e)/Q(e) <= rho are jointly feasible iff every node star fits its
    budget, so the optimum is rho* = max_i sum_{e at i} W(e) / pi(i) with
    base flows W(e)/rho*.  The most loaded star then sits exactly at rho*;
    leftover node budgets are spent by symmetric proportional padding (which
    can only lower the other ratios) and any remaining mass stays on the
    self-loops.  ``loads`` are the path loads W when the caller already has
    them.
    """
    W = path_loads(graph, paths) if loads is None else loads
    # W[star].sum() per star, rounded alike: that is 0.0 plus numpy's pairwise
    # sum (unlike a sequential one from 8 terms up), which add.reduceat
    # computes over stars led by a 0.0 each
    owners = graph.star_owners
    padded = np.zeros(len(owners) + graph.n)
    padded[np.arange(len(owners)) + owners + 1] = W[graph.star_edges]
    star_sums = np.add.reduceat(padded, graph.star_offsets[:-1] + np.arange(graph.n))
    rho_star = (star_sums / graph.pi).max()
    return chain_from_flows(graph, saturate_flows(graph, W / rho_star))


def cheeger_bound_from_expansion(graph, upsilon):
    """Cheeger bound through the max-degree chain: (pi_*/pi_0)^2 * 2/Upsilon^2.

    ``upsilon`` is the graph's vertex expansion, as returned by
    ``vertex_expansion`` or carried by ``expansion_lower_bound``.
    """
    pi_star = max_closed_neighborhood_mass(graph)
    pi_0 = graph.pi.min()
    return float((pi_star / pi_0) ** 2 * 2.0 / upsilon ** 2)


def cheeger_upper_bound(graph, candidates=None):
    """Cheeger bound, computing the vertex expansion (over ``candidates`` if given)."""
    upsilon, _ = vertex_expansion(graph, candidates)
    return cheeger_bound_from_expansion(graph, upsilon)
