"""Upper bounds on the optimal relaxation time: canonical paths and Cheeger.

The canonical-paths bound routes every node pair along one shortest path.
The path of x < y walks from x, and each step goes to the smallest
neighbour one hop closer to y.  On a shortest path that neighbour is also
one hop further from x, so the walk is the lexicographically smallest
shortest path as seen from x, and the walks into one root y form a BFS tree
rooted at y.  Every output of the bound reads only the path loads W(e), so
``shortest_path_system`` returns just W, one entry per row of ``graph.ends``:
it builds the n trees at once over the graph's CSR stars, in O(n m) memory
while it runs, sums W over them and keeps none of them.

The congestion of the path system bounds tau2 of any chain on the instance,
and the bound can be minimized over edge flows.  ``equalize_congestion``
performs that minimization exactly: the optimum puts flow proportional to
load, pinned by the most loaded node star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import (ReversibleChain, TransitionGraph, max_closed_neighborhood_mass,
                     saturate_flows)
from .lower_bounds import vertex_expansion


def shortest_path_system(graph):
    """The path loads W, read-only, one per row of ``graph.ends``.

    W(e) is the sum of pi(x) pi(y) d(x, y) over the pairs x < y whose path
    uses edge e.  Every root's BFS tree is built for all roots at once, and
    none is kept.

    Hop distances grow one BFS level per pass: a node joins root y's next
    level when some neighbour is on its frontier, one OR over each star.  A
    node's step towards y is the first star position whose neighbour is one
    hop closer.  W is accumulated from the deepest level up: ``acc[v, y]``
    sums pi(x) d(x, y) over the sources x < y in v's subtree, and the edge
    from v towards y carries pi(y) acc[v, y].  Each sum over children and
    over edges adds its terms in ascending (v, y) order.
    """
    n, pi = graph.n, graph.pi
    if n < 2:
        raise ValueError(f"a path system needs at least two nodes, got n={n}")
    # on a connected graph with n >= 2 no star is empty, so each reduceat
    # segment is exactly one star
    starts, nodes = graph.star_offsets[:-1], graph.star_nodes
    dist = np.where(np.eye(n, dtype=bool), 0, -1).astype(np.int32)
    frontier = np.eye(n, dtype=bool)
    depth = 0
    while frontier.any():
        depth += 1
        frontier = np.logical_or.reduceat(frontier[nodes], starts, axis=0) & (dist < 0)
        dist[frontier] = depth
    closer = dist[nodes] == dist[graph.star_owners] - 1
    position = np.arange(len(nodes), dtype=np.int32)[:, None]
    hop = np.minimum.reduceat(np.where(closer, position, np.int32(len(nodes))),
                              starts, axis=0).ravel()
    acc = np.where(np.arange(n)[:, None] < np.arange(n), pi[:, None] * dist, 0.0).ravel()
    for level in range(depth - 1, 0, -1):
        pair = np.flatnonzero(dist == level)            # v n + y, ascending
        above = nodes[hop[pair]] * n + pair % n
        acc += np.bincount(above, weights=acc[pair], minlength=n * n)
    pair = np.flatnonzero(dist > 0)
    loads = np.bincount(graph.star_edges[hop[pair]], weights=pi[pair % n] * acc[pair],
                        minlength=len(graph.ends))
    loads.flags.writeable = False
    return loads


def _edge_loads(graph, loads):
    """``loads`` as W, after checking it has one entry per edge of ``graph``."""
    if np.shape(loads) != (len(graph.ends),):
        raise ValueError(f"loads have shape {np.shape(loads)}, expected one per edge "
                         f"({len(graph.ends)},)")
    return np.asarray(loads, dtype=float)


@dataclass(frozen=True, eq=False)
class CongestionReport:
    """Per-edge loads W and load/flow ratios, in the order of ``graph.ends``;
    rho_bar is the worst ratio and argmax_edge its first edge."""

    graph: TransitionGraph
    loads: np.ndarray
    ratios: np.ndarray
    rho_bar: float
    argmax_edge: tuple

    def to_json_dict(self):
        keys = [f"{i},{j}" for i, j in self.graph.ends.tolist()]
        return {"W": dict(zip(keys, self.loads.tolist())),
                "ratios": dict(zip(keys, self.ratios.tolist())),
                "rho_bar": self.rho_bar,
                "argmax_edge": list(self.argmax_edge)}


def congestion(chain, loads):
    """Canonical-paths congestion of a chain under path loads W: tau2(chain) <= rho_bar.

    An edge carrying load but zero flow makes the bound vacuous; it is
    reported as +inf with the offending edge as argmax.
    """
    graph, q = chain.graph, chain.flows
    W = _edge_loads(graph, loads)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(q > 0.0, W / q, np.where(W > 0.0, math.inf, 0.0))
    worst = int(np.argmax(ratios))          # the first maximum
    return CongestionReport(graph=graph, loads=W, ratios=ratios, rho_bar=float(ratios[worst]),
                            argmax_edge=tuple(graph.ends[worst].tolist()))


def equalize_congestion(graph, loads):
    """Flows minimizing the congestion of a fixed path system.

    Ratios W(e)/Q(e) <= rho are jointly feasible iff every node star fits its
    budget, so the optimum is rho* = max_i sum_{e at i} W(e) / pi(i) with
    base flows W(e)/rho*; the star sums are ``graph.star_sums(W)``, the same
    kernel as a chain's node loads.  The most loaded star then sits exactly
    at rho*; leftover node budgets are spent by symmetric proportional
    padding (which can only lower the other ratios) and any remaining mass
    stays on the self-loops.
    """
    W = _edge_loads(graph, loads)
    rho_star = (graph.star_sums(W) / graph.pi).max()
    return ReversibleChain(graph, saturate_flows(graph, W / rho_star))


def cheeger_bound_from_expansion(graph, upsilon):
    """Cheeger bound through the max-degree chain: (pi_*/pi_0)^2 * 2/Upsilon^2.

    ``upsilon`` must be the graph's vertex expansion, the minimum over every
    cut, as returned by ``vertex_expansion(graph)`` or carried by
    ``expansion_lower_bound(graph)``.  A minimum over only some cuts can
    exceed it, and the value it gives is then no upper bound.

    Both factors are at least their floor, pi_*/pi_0 >= 1 and 2/Upsilon^2
    >= 2 (Upsilon <= 1: a cut S with pi(S) >= 1/2 has pi(dS) <= pi(S^c)),
    so a step that overflows means the bound is past the float range, and
    it is +inf, with no warning.
    """
    pi_star = max_closed_neighborhood_mass(graph)
    pi_0 = graph.pi.min()
    with np.errstate(over="ignore", divide="ignore"):
        return float((pi_star / pi_0) ** 2 * 2.0 / upsilon ** 2)


def cheeger_upper_bound(graph):
    """Cheeger bound, computing the vertex expansion over every cut."""
    upsilon, _ = vertex_expansion(graph)
    return cheeger_bound_from_expansion(graph, upsilon)
