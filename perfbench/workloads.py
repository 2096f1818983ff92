"""The benchmark's workloads: ladders of certified ``run_experiment`` rows.

Each workload is a fixed list of instances, one ``experiments.run_experiment``
row each, chosen so that a different layer of fastmix carries the row time:

* ``torus_ladder``: the solver (LAPACK eigh, flow projection) and the dense
  Jacobi ``spectrum``; the analytic embedding bound is tight, so the solver
  value is checked for certified optimality.
* ``small_graphs``: seeded random graphs with uneven pi, where the 2^n
  vertex-expansion enumeration and the projection under uneven node budgets
  dominate and the lower bounds are loose.
* ``glauber_exact``: exact Ising-tree spectra, where the dense chain build and
  the dense spectra dominate and neither the solver nor the expansion
  enumeration runs.

Only ``small_graphs`` depends on the seed. The random graphs are written as
graph JSON and read back through the ``custom`` family, so the package sees
nothing but generated input files. This module imports no part of fastmix,
so that building the instance list is part of the measured set-up.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

GRAPH_ITERS = 3000          # the ``fastmix report`` default
RANDOM_SIZES = (12, 14, 16)
GRAPHS_PER_SIZE = 10        # many graphs per size average out per-graph cost
EXTRA_EDGES_PER_NODE = 2    # edges beyond the spanning tree, per node
PI_LOW, PI_SPAN = 0.5, 1.0  # unnormalized pi drawn from [0.5, 1.5)

GRAPH_FIELDS = ("tau2_solver", "ub_congestion", "tau2_standard")
ISING_FIELDS = ("max_width", "log_mean_bound", "log_max_bound")


@dataclass(frozen=True)
class Instance:
    """One row of a ladder.

    ``expects`` names the row fields that must be present: a row that drops
    one has skipped work and fails the check. ``tight`` asks for the solver
    value to meet the embedding bound, ``exact`` for the Glauber spectra to
    be re-derived independently. ``largest`` marks the row timed as
    ``largest_row_s``.
    """

    label: str
    family: str
    params: dict
    expects: tuple
    tight: bool = False
    exact: bool = False
    largest: bool = False


def torus_ladder(seed, workdir):
    del seed, workdir  # fixed instances
    fields = GRAPH_FIELDS + ("lb_embed",)
    return [Instance(f"torus-{m}x{m}", "torus", {"m": m, "d": 2}, fields,
                     tight=True, largest=(m == 12))
            for m in (6, 8, 12)]


def random_graph(rng, n):
    """Random spanning tree plus ``EXTRA_EDGES_PER_NODE * n`` extra edges.

    The tree attaches each node, in a random order, to a uniformly chosen
    earlier one, so the graph is connected. pi is uneven: weights are drawn
    from [PI_LOW, PI_LOW + PI_SPAN) and normalized.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    target = n - 1 + EXTRA_EDGES_PER_NODE * n
    if target > n * (n - 1) // 2:
        raise ValueError(f"n={n} is too small for {target} edges")
    while len(edges) < target:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    weights = [PI_LOW + PI_SPAN * rng.random() for _ in range(n)]
    total = sum(weights)
    return {"n": n, "edges": sorted([a, b] for a, b in edges),
            "pi": [w / total for w in weights]}


def small_graphs(seed, workdir):
    rng = random.Random(seed)
    instances = []
    for n in RANDOM_SIZES:
        for k in range(GRAPHS_PER_SIZE):
            path = Path(workdir) / f"random-n{n}-{k}.json"
            path.write_text(json.dumps(random_graph(rng, n)) + "\n")
            instances.append(Instance(
                f"random-n{n}-{k}", "custom", {"path": str(path)},
                GRAPH_FIELDS + ("lb_expansion", "ub_cheeger")))
    # 16 nodes like the largest random graphs but more edges (57), and fixed,
    # so its row time does not move with the seed
    instances.append(Instance(
        "knkn-8", "knkn", {"n": 8},
        GRAPH_FIELDS + ("lb_embed", "lb_expansion", "ub_cheeger"), largest=True))
    return instances


def glauber_exact(seed, workdir):
    del seed, workdir  # fixed instances
    exact = ISING_FIELDS + ("tau2_uniform", "tau2_rated", "prop_ok")
    return [
        Instance("ising-b2-r2", "ising_tree", {"b": 2, "r": 2, "beta": 0.5},
                 exact, exact=True),
        Instance("ising-b6-r1", "ising_tree", {"b": 6, "r": 1, "beta": 0.5},
                 exact, exact=True),
        Instance("ising-b7-r1", "ising_tree", {"b": 7, "r": 1, "beta": 0.5},
                 exact, exact=True, largest=True),
        # 8192 states: past the harness's exact cap, so bounds only; at
        # beta = 2 the majority cut is non-vacuous
        Instance("ising-b3-r2", "ising_tree", {"b": 3, "r": 2, "beta": 2.0},
                 ISING_FIELDS + ("tau2_majority_lower",)),
    ]


WORKLOADS = {"torus_ladder": torus_ladder,
             "small_graphs": small_graphs,
             "glauber_exact": glauber_exact}
