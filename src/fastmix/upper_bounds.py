"""Upper bounds on the optimal relaxation time: canonical paths and Cheeger.

The congestion of a path system bounds tau2 of any chain on the instance,
and because the path loads W(e) depend only on (graph, pi, paths), the bound
can be minimized over edge flows.  ``equalize_congestion`` performs that
minimization exactly: the optimum puts flow proportional to load, pinned by
the most loaded node star.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .chains import (chain_from_flows, max_closed_neighborhood_mass,
                     saturate_flows)
from .lower_bounds import vertex_expansion


class PathSystem:
    """One simple path per unordered node pair, stored from the smaller endpoint.

    ``path(x, y)`` returns the node sequence oriented x -> y, so the (y, x)
    query is the exact reversal of the (x, y) one.
    """

    def __init__(self, graph, paths):
        self.graph = graph
        self._paths = {}
        for (x, y), nodes in paths.items():
            x, y = int(x), int(y)
            if x == y:
                raise ValueError("paths connect distinct nodes")
            key = (min(x, y), max(x, y))
            nodes = tuple(int(v) for v in nodes)
            if nodes[0] == key[1]:
                nodes = nodes[::-1]
            if nodes[0] != key[0] or nodes[-1] != key[1]:
                raise ValueError(f"path for {key} does not connect its endpoints")
            if len(set(nodes)) != len(nodes):
                raise ValueError(f"path for {key} repeats a node")
            for a, b in zip(nodes, nodes[1:]):
                if not graph.has_edge(a, b):
                    raise ValueError(f"path for {key} uses non-edge ({a},{b})")
            self._paths[key] = nodes
        expected = graph.n * (graph.n - 1) // 2
        if len(self._paths) != expected:
            raise ValueError(f"need a path for all {expected} pairs, got {len(self._paths)}")

    def path(self, x, y):
        nodes = self._paths[(min(x, y), max(x, y))]
        return nodes if x <= y else nodes[::-1]

    def pairs(self):
        return self._paths.items()


def _bfs_distances(graph, source):
    dist = [-1] * graph.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def shortest_path_system(graph):
    """BFS shortest paths; ties resolved to the lexicographically smallest
    node sequence as seen from the smaller endpoint."""
    dist = [_bfs_distances(graph, s) for s in range(graph.n)]
    paths = {}
    for x in range(graph.n):
        for y in range(x + 1, graph.n):
            nodes = [x]
            cur = x
            while cur != y:
                # neighbors are sorted, so the first admissible step is the
                # lexicographic choice
                for v in graph.neighbors(cur):
                    if dist[x][v] == dist[x][cur] + 1 and \
                            dist[v][y] == dist[x][y] - dist[x][cur] - 1:
                        nodes.append(v)
                        cur = v
                        break
                else:
                    raise RuntimeError("BFS walk stalled; graph data inconsistent")
            paths[(x, y)] = tuple(nodes)
    return PathSystem(graph, paths)


def path_loads(graph, paths):
    """W(e) = sum over paths through e of pi(x) pi(y) |path|, per edge."""
    pi = graph.pi
    W = np.zeros(len(graph.edges))
    index = graph.edge_index
    for (x, y), nodes in paths.pairs():
        weight = pi[x] * pi[y] * (len(nodes) - 1)
        for a, b in zip(nodes, nodes[1:]):
            W[index[(min(a, b), max(a, b))]] += weight
    return W


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


def congestion(chain, paths):
    """Canonical-paths congestion of a chain: tau2(chain) <= rho_bar.

    An edge carrying load but zero flow makes the bound vacuous; it is
    reported as +inf with the offending edge as argmax.
    """
    graph = chain.graph
    W = path_loads(graph, paths)
    loads, ratios = {}, {}
    rho_bar, argmax = 0.0, None
    for k, (i, j) in enumerate(graph.edges):
        q = graph.pi[i] * chain.P[i, j]
        loads[(i, j)] = float(W[k])
        if q > 0.0:
            ratio = float(W[k] / q)
        elif W[k] > 0.0:
            ratio = math.inf
        else:
            ratio = 0.0
        ratios[(i, j)] = ratio
        if ratio > rho_bar or argmax is None:
            rho_bar, argmax = ratio, (i, j)
    return CongestionReport(edge_loads=loads, ratios=ratios,
                            rho_bar=rho_bar, argmax_edge=argmax)


def equalize_congestion(graph, paths):
    """Flows minimizing the congestion of a fixed path system.

    Ratios W(e)/Q(e) <= rho are jointly feasible iff every node star fits its
    budget, so the optimum is rho* = max_i sum_{e at i} W(e) / pi(i) with
    base flows W(e)/rho*.  The most loaded star then sits exactly at rho*;
    leftover node budgets are spent by symmetric proportional padding (which
    can only lower the other ratios) and any remaining mass stays on the
    self-loops.
    """
    W = path_loads(graph, paths)
    stars = [graph.incident_edges(i) for i in range(graph.n)]
    rho_star = max(W[stars[i]].sum() / graph.pi[i] for i in range(graph.n))
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
