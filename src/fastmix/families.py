"""Generators for the benchmark graph families and Ising tree systems.

Node numbering conventions (relied upon by the analytic embeddings):

* ``knkn_graph(n)``: one complete side on ``0..n-1``, the other on
  ``n..2n-1``, linking edge ``(0, n)``.
* ``torus_graph(m, d)`` (the cycle family is d = 1) and
  ``geometric_graph(m, k, d)``: row-major, first coordinate slowest.
* ``ising_tree``: sites in DFS preorder from the root.

Each graph generator computes its edge count from its parameters and
refuses, with ValueError, an instance past ``chains.EDGE_CAP`` before it
builds anything.
"""

from __future__ import annotations

import itertools

import numpy as np

from .chains import EDGE_CAP, TransitionGraph, check_edge_count
from .glauber import SpinSystem, TreeSpec


def knkn_graph(n):
    """Two n-node complete graphs joined by a single edge, uniform pi."""
    if n < 2:
        raise ValueError("need n >= 2 per side")
    check_edge_count(n * (n - 1) + 1, f"knkn n={n}")
    edges = [(side + i, side + j) for side in (0, n) for i in range(n) for j in range(i + 1, n)]
    return TransitionGraph(2 * n, edges + [(0, n)])


def complete_graph(n):
    if n < 2:
        raise ValueError("need n >= 2")
    return TransitionGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n):
    if n < 2:
        raise ValueError("need n >= 2")
    return TransitionGraph(n, [(i, i + 1) for i in range(n - 1)])


def _lattice(m, d, what, k=None):
    """The m^d-point torus, node i joined to i + s (mod m in each coordinate)
    for each step s: the d unit steps, or one of each +/- pair of the nonzero
    offsets with every |coordinate| <= k.  The edge count is checked before
    anything is built, and without taking the power m^d >= 2^d once d alone
    is past the cap."""
    if d >= EDGE_CAP.bit_length():
        raise ValueError(f"{what}: past the cap of {EDGE_CAP} edges")
    n = m ** d
    if k is None:
        check_edge_count(n * d, what)
        steps = np.eye(d, dtype=np.int64)
    else:
        check_edge_count(n * ((2 * k + 1) ** d - 1) // 2, what)
        # the lexicographically positive offsets: first nonzero coordinate > 0
        steps = [s for s in itertools.product(range(-k, k + 1), repeat=d) if s > (0,) * d]
    grid = np.arange(n).reshape((m,) * d)
    targets = [np.roll(grid, np.negative(s), tuple(range(d))).ravel() for s in steps]
    return TransitionGraph(n, np.column_stack([np.tile(grid.ravel(), len(targets)),
                                               np.concatenate(targets)]))


def torus_graph(m, d):
    """Nearest-neighbor graph of the d-dimensional m-point torus."""
    if m < 3 or d < 1:
        raise ValueError("need m >= 3, d >= 1")
    return _lattice(m, d, f"torus m={m} d={d}")


def geometric_graph(m, k, d=1):
    """Torus points joined whenever every coordinate is at most k cells apart."""
    if not (1 <= k and 2 * k < m):
        raise ValueError("need 1 <= k < m/2")
    if m % k != 0:
        raise ValueError("k must divide m")
    if d < 1:
        raise ValueError("need d >= 1")
    return _lattice(m, d, f"geometric m={m} k={k} d={d}", k)


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
        n = int(need("n"))
        if n < 3:
            raise ValueError("need n >= 3")
        return torus_graph(n, 1)
    if family == "torus":
        return torus_graph(int(need("m")), int(need("d")))
    if family == "geometric":
        return geometric_graph(int(need("m")), int(need("k")), int(params.get("d", 1)))
    if family == "ising_tree":
        return ising_tree(int(need("b")), int(need("r")), float(need("beta")))
    if family == "custom":
        return TransitionGraph.load(need("path"))
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
