"""Lower bounds on the optimal relaxation time of an instance.

Two routes are implemented: a geometric one, evaluating feasible Euclidean
embeddings of the graph (nodes spread as far as possible subject to per-edge
distance budgets), and a combinatorial one through the weighted vertex
expansion.  The analytic embeddings for the benchmark families are provided
as constructors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .families import torus_coordinates

FEASIBILITY_SLACK = 1e-9   # constructions hit constraints with equality
EXHAUSTIVE_NODE_CAP = 24


class Embedding:
    """Per-node vectors plus nonnegative slack weights.

    Feasible means: pi-centered vectors, slacks averaging to one under pi,
    and squared edge lengths within the endpoint slack budgets.  Vectors and
    slacks must be finite.
    """

    def __init__(self, vectors, slacks):
        vectors = np.array(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        slacks = np.array(slacks, dtype=float)
        if slacks.ndim != 1 or vectors.ndim != 2 or vectors.shape[0] != slacks.shape[0]:
            raise ValueError("vectors and slacks disagree on node count")
        if not (np.all(np.isfinite(vectors)) and np.all(np.isfinite(slacks))):
            raise ValueError("embedding vectors and slacks must be finite")
        vectors.flags.writeable = False
        slacks.flags.writeable = False
        self.vectors = vectors
        self.slacks = slacks

    @property
    def dimension(self):
        return self.vectors.shape[1]

    def to_json_dict(self):
        return {"d": self.dimension,
                "psi": [[float(x) for x in row] for row in self.vectors],
                "w": [float(x) for x in self.slacks]}

    @classmethod
    def from_json_dict(cls, data):
        return cls(np.array(data["psi"], dtype=float), np.array(data["w"], dtype=float))

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(json.loads(Path(path).read_text()))


def embedding_violations(graph, emb, slack=FEASIBILITY_SLACK):
    """List every violated feasibility constraint of an embedding.

    Every check is written as ``not (x <= tol)``, so NaN fails it.
    """
    if emb.vectors.shape[0] != graph.n:
        return [f"embedding has {emb.vectors.shape[0]} nodes, graph has {graph.n}"]
    pi = graph.pi
    report = []
    center = np.linalg.norm(pi @ emb.vectors)
    if not (center <= slack):
        report.append(f"not centered: |sum pi(k) psi(k)| = {center:.3e}")
    norm = float(pi @ emb.slacks)
    if not (abs(norm - 1.0) <= slack):
        report.append(f"slack normalization sum pi(i)w(i) = {norm!r}")
    for i in np.nonzero(~(emb.slacks >= -1e-12))[0]:
        report.append(f"negative slack w({i}) = {emb.slacks[i]:.3e}")
    for i, j in graph.edges:
        d2 = float(np.sum((emb.vectors[i] - emb.vectors[j]) ** 2))
        budget = emb.slacks[i] + emb.slacks[j]
        if not (d2 <= budget + slack):
            report.append(
                f"edge ({i},{j}): squared distance {d2!r} exceeds w(i)+w(j) = {budget!r}")
    return report


def embedding_bound(graph, emb):
    """Value of a feasible embedding: sum_k pi(k) ||psi(k)||^2.

    Every feasible embedding lower-bounds the optimal relaxation time on the
    instance; infeasible input is rejected with the violated constraint.
    """
    report = embedding_violations(graph, emb)
    if report:
        raise ValueError("infeasible embedding: " + "; ".join(report))
    return float(graph.pi @ np.sum(emb.vectors ** 2, axis=1))


def specified_chain_bound(chain, vectors):
    """Embedding-style lower bound on the relaxation time of one given chain.

    Vectors are rescaled so the edge-weighted Dirichlet sum equals one; the
    returned pi-weighted squared norm is then at most tau2(chain).
    """
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim == 1:
        vectors = vectors[:, None]
    if not np.all(np.isfinite(vectors)):
        raise ValueError("vectors must be finite")
    pi = chain.pi
    center = np.linalg.norm(pi @ vectors)
    scale = max(1.0, float(np.abs(vectors).max()))
    if not (center <= 1e-9 * scale):
        raise ValueError(f"vectors not centered under pi: |sum| = {center:.3e}")
    dirichlet = 0.0
    for i, j in chain.graph.edges:
        d2 = float(np.sum((vectors[i] - vectors[j]) ** 2))
        dirichlet += d2 * pi[i] * chain.P[i, j]
    if not (dirichlet > 1e-300):
        raise ValueError("degenerate input: all vectors equal across every edge")
    return float(pi @ np.sum(vectors ** 2, axis=1)) / dirichlet


# -- vertex expansion ----------------------------------------------------


def _boundary_mask(members_mask, neighbor_masks, n):
    reach = 0
    rest = members_mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        reach |= neighbor_masks[v]
        rest &= rest - 1
    return reach & ~members_mask


def _mask_nodes(mask):
    out = []
    while mask:
        v = (mask & -mask).bit_length() - 1
        out.append(v)
        mask &= mask - 1
    return tuple(out)


def vertex_expansion(graph, candidates=None):
    """Weighted vertex expansion: min over cuts of pi(dS)/(pi(S) ^ pi(S^c)).

    ``dS`` is the outer node boundary of S (self-loops do not count as
    adjacency).  Exhaustive over all proper nonempty subsets unless an
    explicit candidate list is given; ties go to the lexicographically
    smallest subset.
    """
    n, pi = graph.n, graph.pi
    if candidates is None and n > EXHAUSTIVE_NODE_CAP:
        raise ValueError(
            f"n={n} too large for exhaustive search (cap {EXHAUSTIVE_NODE_CAP}); "
            "pass a candidate subset list")
    neighbor_masks = [0] * n
    for i, j in graph.edges:
        neighbor_masks[i] |= 1 << j
        neighbor_masks[j] |= 1 << i

    if candidates is None:
        masks = range(1, (1 << n) - 1)
    else:
        masks = []
        for sub in candidates:
            mask = 0
            for v in sub:
                mask |= 1 << int(v)
            if mask == 0 or mask == (1 << n) - 1:
                raise ValueError("candidate subsets must be proper and nonempty")
            masks.append(mask)

    best_ratio = math.inf
    best_subset = None
    for mask in masks:
        members = _mask_nodes(mask)
        pi_s = float(sum(pi[v] for v in members))
        boundary = _boundary_mask(mask, neighbor_masks, n)
        pi_b = float(sum(pi[v] for v in _mask_nodes(boundary)))
        ratio = pi_b / min(pi_s, 1.0 - pi_s)
        if ratio < best_ratio or (ratio == best_ratio and members < best_subset):
            best_ratio, best_subset = ratio, members
    return best_ratio, best_subset


@dataclass(frozen=True)
class ExpansionBound:
    """1/(2 Upsilon) plus the two-point embedding certifying it."""

    value: float
    upsilon: float
    subset: tuple
    embedding: Embedding


def expansion_lower_bound(graph, candidates=None):
    """Vertex-expansion lower bound 1/(2 Upsilon) with its witness embedding.

    The returned subset is oriented so that the boundary carrying the slack,
    d(S^c), is the lighter one; the witness then evaluates under
    ``embedding_bound`` to exactly pi(S) pi(S^c) / pi(dS^c), which is at
    least the returned value.
    """
    upsilon, s_min = vertex_expansion(graph, candidates)
    pi = graph.pi
    n = graph.n
    # the minimizer's own outer boundary is the lighter of the two, so the
    # proof's convention pi(dS^c) <= pi(dS) holds for S = complement(s_min)
    subset = tuple(v for v in range(n) if v not in set(s_min))

    in_s = np.zeros(n, dtype=bool)
    in_s[list(subset)] = True
    inner_boundary = [i for i in range(n) if in_s[i]
                      and any(not in_s[j] for j in graph.neighbors(i))]
    pi_s = float(pi[in_s].sum())
    pi_inner = float(pi[inner_boundary].sum())

    w0 = 1.0 / pi_inner
    slacks = np.zeros(n)
    slacks[inner_boundary] = w0
    sep = math.sqrt(w0)
    vectors = np.where(in_s, (1.0 - pi_s) * sep, -pi_s * sep)
    return ExpansionBound(value=1.0 / (2.0 * upsilon), upsilon=upsilon,
                          subset=subset,
                          embedding=Embedding(vectors, slacks))


# -- analytic embeddings for the benchmark families ----------------------


def make_knkn_embedding(n):
    """One-dimensional spread of the two linked complete graphs.

    All slack goes to the two linked nodes; the value is
    ``1/2 + (n-1)(3 + 2 sqrt(2))/2``.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    x0 = math.sqrt(2.0) / 2.0 * math.sqrt(n)
    x1 = (math.sqrt(2.0) + 2.0) / 2.0 * math.sqrt(n)
    vectors = np.empty(2 * n)
    vectors[0], vectors[n] = x0, -x0
    vectors[1:n], vectors[n + 1:] = x1, -x1
    slacks = np.zeros(2 * n)
    slacks[0] = slacks[n] = float(n)
    return Embedding(vectors, slacks)


def make_cycle_embedding(n):
    """Evenly spread circle, radius sqrt(2)/(2 sin(pi/n)), uniform slacks."""
    if n < 3:
        raise ValueError("need n >= 3")
    radius = math.sqrt(2.0) / (2.0 * math.sin(math.pi / n))
    angles = 2.0 * math.pi * np.arange(n) / n
    vectors = radius * np.column_stack([np.cos(angles), np.sin(angles)])
    return Embedding(vectors, np.ones(n))


def make_torus_embedding(m, d):
    """Product of circles, one pair of coordinates per torus axis."""
    if m < 3 or d < 1:
        raise ValueError("need m >= 3, d >= 1")
    radius = math.sqrt(2.0) / (2.0 * math.sin(math.pi / m))
    n = m ** d
    vectors = np.empty((n, 2 * d))
    for i in range(n):
        coords = torus_coordinates(i, m, d)
        for axis, c in enumerate(coords):
            angle = 2.0 * math.pi * c / m
            vectors[i, 2 * axis] = radius * math.cos(angle)
            vectors[i, 2 * axis + 1] = radius * math.sin(angle)
    return Embedding(vectors, np.ones(n))


def make_geometric_embedding(m, k, d=1):
    """Collapse the k-step torus onto a single circle via its first axis."""
    if not (1 <= k < m / 2):
        raise ValueError("need 1 <= k < m/2")
    if m % k != 0:
        raise ValueError("k must divide m")
    radius = math.sqrt(2.0) / (2.0 * math.sin(k * math.pi / m))
    n = m ** d
    vectors = np.empty((n, 2))
    for i in range(n):
        first = torus_coordinates(i, m, d)[0]
        angle = 2.0 * math.pi * first / m
        vectors[i] = (radius * math.cos(angle), radius * math.sin(angle))
    return Embedding(vectors, np.ones(n))
