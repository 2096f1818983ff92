"""Generators for the benchmark graph families and Ising tree systems.

Node numbering conventions (relied upon by the analytic embeddings):

* ``knkn_graph(n)``: one complete side on ``0..n-1``, the other on
  ``n..2n-1``, linking edge ``(0, n)``.
* ``torus_graph(m, d)``: row-major, first coordinate slowest.
* ``ising_tree``: sites in DFS preorder from the root.
"""

from __future__ import annotations

import numpy as np

from .chains import TransitionGraph
from .glauber import SpinSystem, TreeSpec


def knkn_graph(n):
    """Two n-node complete graphs joined by a single edge, uniform pi."""
    if n < 2:
        raise ValueError("need n >= 2 per side")
    edges = [(side + i, side + j) for side in (0, n) for i in range(n) for j in range(i + 1, n)]
    return TransitionGraph(2 * n, edges + [(0, n)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("need n >= 3")
    return TransitionGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    if n < 2:
        raise ValueError("need n >= 2")
    return TransitionGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    if n < 2:
        raise ValueError("need n >= 2")
    return TransitionGraph(n, [(i, i + 1) for i in range(n - 1)])


def torus_coordinates(index, m, d):
    """Coordinates (i_1, ..., i_d) of a row-major torus node index."""
    coords = []
    for _ in range(d):
        coords.append(index % m)
        index //= m
    return tuple(reversed(coords))


def torus_index(coords, m):
    index = 0
    for c in coords:
        index = index * m + (c % m)
    return index


def torus_graph(m, d):
    """Nearest-neighbor graph of the d-dimensional m-point torus."""
    if m < 3 or d < 1:
        raise ValueError("need m >= 3, d >= 1")
    index = np.arange(m ** d).reshape((m,) * d)
    steps = [np.roll(index, -1, axis=axis).ravel() for axis in range(d)]
    return TransitionGraph(m ** d, np.column_stack([np.tile(index.ravel(), d),
                                                    np.concatenate(steps)]))


def geometric_graph(m, k, d=1):
    """Torus points joined whenever every coordinate is at most k cells apart."""
    if not (1 <= k < m / 2):
        raise ValueError("need 1 <= k < m/2")
    if m % k != 0:
        raise ValueError("k must divide m")
    if d < 1:
        raise ValueError("need d >= 1")
    coords = np.array([torus_coordinates(i, m, d) for i in range(m ** d)])
    gap = np.abs(coords[:, None] - coords[None, :])
    near = np.all(np.minimum(gap, m - gap) <= k, axis=2)
    return TransitionGraph(m ** d, np.argwhere(np.triu(near, 1)))


def ising_tree(b, r, beta):
    """Complete b-ary tree spec plus its Ising spin system."""
    tree = TreeSpec(branching=b, levels=r)
    system = SpinSystem.ising(tree.node_count, tree.site_edges(), beta)
    return tree, system


FAMILIES = ("knkn", "cycle", "torus", "geometric", "ising_tree", "custom")


def generate(family, params):
    """Dispatch a family name + parameter dict to the matching generator."""

    def need(key):
        if key not in params:
            raise ValueError(f"family {family!r} needs the parameter {key!r}")
        return params[key]

    if family == "knkn":
        return knkn_graph(int(need("n")))
    if family == "cycle":
        return cycle_graph(int(need("n")))
    if family == "torus":
        return torus_graph(int(need("m")), int(need("d")))
    if family == "geometric":
        return geometric_graph(int(need("m")), int(need("k")), int(params.get("d", 1)))
    if family == "ising_tree":
        return ising_tree(int(need("b")), int(need("r")), float(need("beta")))
    if family == "custom":
        return TransitionGraph.load(need("path"))
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
