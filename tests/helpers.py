"""Shared fixtures-by-hand: random instances and reusable invariant checks.

The random-instance checks double as the property suite: module tests call
them with their documented sizes, and the acceptance runner re-executes the
key ones under a single fixed seed.
"""

import math

import numpy as np

from fastmix.chains import ReversibleChain, TransitionGraph, validate_chain
from fastmix.spectral import rayleigh_quotient, spectrum
from fastmix.upper_bounds import congestion, shortest_path_system


def random_connected_graph(rng, n, extra_edge_prob=0.4, uniform_pi=False):
    """Random spanning tree plus random extra edges; optionally random pi."""
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        attach = order[rng.integers(0, k)]
        edges.add((min(order[k], attach), max(order[k], attach)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < extra_edge_prob:
                edges.add((i, j))
    if uniform_pi:
        pi = None
    else:
        pi = rng.uniform(0.2, 1.0, size=n)
        pi = pi / pi.sum()
    return TransitionGraph(n, sorted(edges), pi)


def random_valid_chain(rng, graph):
    """Random symmetric flows scaled inside every node budget."""
    m = len(graph.edges)
    flows = rng.uniform(0.2, 1.0, size=m)
    load = np.zeros(graph.n)
    for k, (i, j) in enumerate(graph.edges):
        load[i] += flows[k]
        load[j] += flows[k]
    scale = min(graph.pi[i] / load[i] for i in range(graph.n))
    flows *= scale * rng.uniform(0.4, 0.98)
    P = np.zeros((graph.n, graph.n))
    for k, (i, j) in enumerate(graph.edges):
        P[i, j] = flows[k] / graph.pi[i]
        P[j, i] = flows[k] / graph.pi[j]
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    chain = ReversibleChain(graph, P)
    assert validate_chain(chain) == []
    return chain


def check_rayleigh_dominates_gap(seed=0, chains=200, functions=20, max_n=8):
    """rayleigh_quotient(chain, g) >= 1 - lambda2 - 1e-9 on random input."""
    rng = np.random.default_rng(seed)
    for _ in range(chains):
        graph = random_connected_graph(rng, int(rng.integers(2, max_n + 1)))
        chain = random_valid_chain(rng, graph)
        gap = 1.0 - spectrum(chain).lambda2
        for _ in range(functions):
            g = rng.normal(size=graph.n)
            if np.allclose(g, g[0]):
                continue
            assert rayleigh_quotient(chain, g) >= gap - 1e-9


def check_congestion_soundness(seed=0, cases=50, max_n=8):
    """tau2(chain) <= rho_bar(chain, shortest paths) on random valid chains."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        graph = random_connected_graph(rng, int(rng.integers(2, max_n + 1)))
        chain = random_valid_chain(rng, graph)
        tau2 = spectrum(chain).relaxation_time
        rho = congestion(chain, shortest_path_system(graph)).rho_bar
        assert tau2 <= rho + 1e-9


def vertex_expansion_reference(graph, candidates=None):
    """Per-subset loop over bit masks: the scalar reference for ``vertex_expansion``.

    Sums pi over the members in ascending node order, exactly like
    ``sum(pi[v] for v in members)``, and breaks ties towards the
    lexicographically smallest member tuple.
    """
    n, pi = graph.n, graph.pi
    neighbor_masks = [0] * n
    for i, j in graph.edges:
        neighbor_masks[i] |= 1 << j
        neighbor_masks[j] |= 1 << i

    def nodes(mask):
        out = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            out.append(v)
            mask &= mask - 1
        return tuple(out)

    if candidates is None:
        masks = range(1, (1 << n) - 1)
    else:
        masks = [sum(1 << int(v) for v in set(sub)) for sub in candidates]
    best_ratio, best_subset = math.inf, None
    for mask in masks:
        members = nodes(mask)
        reach = 0
        for v in members:
            reach |= neighbor_masks[v]
        pi_s = float(sum(pi[v] for v in members))
        pi_b = float(sum(pi[v] for v in nodes(reach & ~mask)))
        ratio = pi_b / min(pi_s, 1.0 - pi_s)
        if ratio < best_ratio or (ratio == best_ratio and members < best_subset):
            best_ratio, best_subset = ratio, members
    return best_ratio, best_subset


def expansion_witness_reference(graph, s_min):
    """Complement subset, vectors and slacks of the expansion witness, by loops."""
    n, pi = graph.n, graph.pi
    subset = tuple(v for v in range(n) if v not in set(s_min))
    in_s = np.zeros(n, dtype=bool)
    in_s[list(subset)] = True
    inner = [i for i in range(n) if in_s[i]
             and any(not in_s[j] for j in graph.neighbors(i))]
    pi_s = float(pi[in_s].sum())
    w0 = 1.0 / float(pi[inner].sum())
    slacks = np.zeros(n)
    slacks[inner] = w0
    sep = math.sqrt(w0)
    return subset, np.where(in_s, (1.0 - pi_s) * sep, -pi_s * sep), slacks
