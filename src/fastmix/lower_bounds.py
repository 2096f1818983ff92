"""Lower bounds on the optimal relaxation time of an instance.

Two routes are implemented: a geometric one, evaluating feasible Euclidean
embeddings of the graph (nodes spread as far as possible subject to per-edge
distance budgets), and a combinatorial one through the weighted vertex
expansion.  The analytic embeddings for the benchmark families are provided
as constructors.

The vertex expansion is a minimum over cuts.  ``vertex_expansion`` takes it
over all ``2^n - 2`` proper nonempty subsets up to ``EXHAUSTIVE_NODE_CAP``
nodes, or over a candidate list at any size, through one block evaluator:
boolean (node, subset) membership blocks of ``2^9`` subsets, the outer
boundary from one adjacency product per block, and pi(S), pi(dS) and
pi(S^c) from one pass that adds pi in ascending node order, so each value
rounds exactly like the scalar sum over the members of S, of dS or of the
complement.  Memory is ``O(n 2^9)`` whatever the number of cuts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chains import _float_array, _node_ids, _read_json

FEASIBILITY_SLACK = 1e-9   # constructions hit constraints with equality
EXHAUSTIVE_NODE_CAP = 20     # 2^20 cuts take a fraction of a second


class Embedding:
    """Per-node vectors plus nonnegative slack weights.

    Feasible means: pi-centered vectors, slacks averaging to one under pi,
    and squared edge lengths within the endpoint slack budgets.  Vectors and
    slacks must be finite.
    """

    def __init__(self, vectors, slacks):
        vectors = _float_array(vectors, "embedding vectors")
        if vectors.ndim == 1:
            vectors = vectors[:, None]
        slacks = _float_array(slacks, "embedding slacks")
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
        if not isinstance(data, dict):
            raise ValueError("embedding data is not a JSON object")
        for key in ("psi", "w"):
            if key not in data:
                raise ValueError(f"embedding data lacks the key {key!r}")
        return cls(data["psi"], data["w"])

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict()) + "\n")

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(_read_json(path, "embedding"))


def embedding_violations(graph, emb, slack=FEASIBILITY_SLACK):
    """List every violated feasibility constraint of an embedding.

    Every check is written as ``not (x <= tol)``, so NaN fails it.  A
    squared edge length that overflows is a violation, also against a
    budget that overflows too.
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
    ei, ej = graph.ends.T
    with np.errstate(over="ignore"):
        d2 = np.sum((emb.vectors[ei] - emb.vectors[ej]) ** 2, axis=1)
        budget = emb.slacks[ei] + emb.slacks[ej]
        fits = (d2 <= budget + slack) & np.isfinite(d2)
    for k in np.nonzero(~fits)[0]:
        report.append(f"edge ({ei[k]},{ej[k]}): squared distance {float(d2[k])!r} "
                      f"exceeds w(i)+w(j) = {float(budget[k])!r}")
    return report


def embedding_bound(graph, emb):
    """Value of a feasible embedding: sum_k pi(k) ||psi(k)||^2.

    Every feasible embedding lower-bounds the optimal relaxation time on the
    instance; infeasible input is rejected with the violated constraint.
    Where ||psi(k)||^2 of a light node overflows, the value is summed again
    as ||sqrt(pi(k)) psi(k)||^2, which overflows only past the float range.
    """
    report = embedding_violations(graph, emb)
    if report:
        raise ValueError("infeasible embedding: " + "; ".join(report))
    with np.errstate(over="ignore"):
        value = float(graph.pi @ np.sum(emb.vectors ** 2, axis=1))
        if value == math.inf:
            value = float(np.sum((np.sqrt(graph.pi)[:, None] * emb.vectors) ** 2))
    return value


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
    ei, ej = chain.graph.ends.T
    d2 = np.sum((vectors[ei] - vectors[ej]) ** 2, axis=1)
    dirichlet = float(np.sum(d2 * chain.flows))
    if not (dirichlet > 1e-300):
        raise ValueError("degenerate input: all vectors equal across every edge")
    return float(pi @ np.sum(vectors ** 2, axis=1)) / dirichlet


# -- vertex expansion ----------------------------------------------------

_BLOCK_BITS = 9             # 2^9 subsets per evaluated block


def _subset_ids(subset, n):
    """Node ids of one candidate subset, rejecting anything that is not a node."""
    subset = list(subset)
    ids, bad = _node_ids(subset, n)
    if ids.ndim != 1:                     # nested entries are no nodes
        bad = np.ones(len(subset), dtype=bool)
    if bad.any():
        raise ValueError(f"candidate node {subset[int(np.argmax(bad))]!r} is not a node "
                         f"of the graph (0..{n - 1})")
    return ids


def _candidate_blocks(n, candidates):
    """(n, k) membership blocks of the candidate subsets, in the given order."""
    candidates = list(candidates)
    width = 1 << _BLOCK_BITS
    for start in range(0, len(candidates), width):
        chunk = candidates[start:start + width]
        member = np.zeros((n, len(chunk)), dtype=bool)
        for col, subset in enumerate(chunk):
            member[_subset_ids(subset, n), col] = True
        sizes = member.sum(axis=0)
        if np.any((sizes == 0) | (sizes == n)):
            raise ValueError("candidate subsets must be proper and nonempty")
        yield member


def _all_subsets(n):
    """(n, 2^9) membership blocks of every proper nonempty subset, in mask order.

    The low bits of a mask index the columns of a block and the high bits
    number the blocks, so only the rows of the high nodes change between
    blocks.  The yielded views share one buffer.
    """
    if n < 2:
        return
    low = min(n, _BLOCK_BITS)
    width = 1 << low
    member = np.zeros((n, width), dtype=bool)
    columns = np.arange(width)
    for v in range(low):
        member[v] = (columns >> v) & 1
    blocks = 1 << (n - low)
    for high in range(blocks):
        for v in range(low, n):
            member[v] = (high >> (v - low)) & 1
        first = 1 if high == 0 else 0                   # the empty set
        stop = width - 1 if high == blocks - 1 else width   # the full set
        yield member[:, first:stop]


def _ascending_sums(pi, member):
    """sum(pi[v] for v in S) per column S, added in ascending node order from 0.0.

    Adding ``0.0`` for a non-member leaves a partial sum unchanged, so each
    column rounds exactly like the scalar sum over its members.
    """
    total = np.zeros(member.shape[1])
    for v in range(len(pi)):
        total += member[v] * pi[v]
    return total


def _block_ratios(adjacency, pi, member):
    """pi(dS) / min(pi(S), pi(S^c)) for the subsets in the columns of ``member``.

    One ascending pass over the stacked columns ``[S | dS | S^c]`` gives all
    three sums; ``1 - pi(S)`` would round a light complement to 0.  A
    ratio past the float range is +inf, which never wins the minimum.
    """
    # neighbour counts are small integers; a positive float32 sum is never 0
    reach = adjacency @ member.astype(np.float32) > 0
    stacked = np.concatenate((member, reach & ~member, ~member), axis=1)
    pi_s, pi_b, pi_c = np.split(_ascending_sums(pi, stacked), 3)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return pi_b / np.minimum(pi_s, pi_c)


def _lex_smallest(member):
    """Lexicographically smallest sorted member tuple among the columns of ``member``.

    Walks the nodes upwards keeping the columns that agree on every node
    below ``v``: a column with no member left is a prefix of all the others
    and wins; otherwise the columns containing ``v`` beat those that skip it.
    """
    cols = np.arange(member.shape[1])
    last = member.shape[0] - 1 - np.argmax(member[::-1], axis=0)
    for v in range(member.shape[0]):
        if len(cols) == 1:
            break
        ended = last[cols] < v
        if ended.any():
            cols = cols[ended]
            break
        has = member[v, cols]
        if has.any():
            cols = cols[has]
    return tuple(np.flatnonzero(member[:, cols[0]]).tolist())


def vertex_expansion(graph, candidates=None):
    """Weighted vertex expansion: min over cuts of pi(dS)/(pi(S) ^ pi(S^c)).

    ``dS`` is the outer node boundary of S (self-loops do not count as
    adjacency).  Exhaustive over all proper nonempty subsets unless an
    explicit candidate list is given; ties go to the lexicographically
    smallest subset.  Subsets are evaluated in blocks of 2^9 as boolean
    (node, subset) membership columns, so memory stays O(n 2^9) whatever
    the number of subsets.  pi(S), pi(dS) and pi(S^c) each round exactly
    like a scalar sum over their members in ascending order; pi(S^c) is
    summed over the complement, so a light complement keeps its weight.
    """
    n, pi = graph.n, graph.pi
    if candidates is None and n > EXHAUSTIVE_NODE_CAP:
        raise ValueError(
            f"n={n} too large for exhaustive search (cap {EXHAUSTIVE_NODE_CAP}); "
            "pass a candidate subset list")
    ei, ej = graph.ends.T
    adjacency = np.zeros((n, n), dtype=np.float32)
    adjacency[ei, ej] = adjacency[ej, ei] = 1.0
    blocks = _all_subsets(n) if candidates is None else _candidate_blocks(n, candidates)

    best_ratio = math.inf
    best_subset = None
    for member in blocks:
        ratio = _block_ratios(adjacency, pi, member)
        low = np.fmin.reduce(ratio)     # NaN ratios never win
        if not low <= best_ratio:
            continue
        subset = _lex_smallest(member[:, ratio == low])
        if best_subset is None or low < best_ratio or subset < best_subset:
            best_ratio, best_subset = float(low), subset
    return best_ratio, best_subset


@dataclass(frozen=True)
class ExpansionBound:
    """1/(2 Upsilon) plus the two-point embedding certifying it, or None
    where no feasible witness exists in floats (see ``expansion_lower_bound``)."""

    value: float
    upsilon: float
    subset: tuple
    embedding: Embedding | None


def expansion_lower_bound(graph, candidates=None):
    """Vertex-expansion lower bound 1/(2 Upsilon) with its witness embedding.

    The returned subset is oriented so that the boundary carrying the slack,
    d(S^c), is the lighter one; the witness then evaluates under
    ``embedding_bound`` to exactly pi(S) pi(S^c) / pi(dS^c), which is at
    least the returned value.  The embedding is None where the witness is
    not feasible in floats: pi(inner) so light that the slack 1/pi(inner)
    overflows (no finite witness then has sum pi(i) w(i) = 1), or vectors so
    long that their rounding breaks the absolute centring tolerance.  The
    value stands either way.  Raises ValueError when there is no proper cut
    to take: a single node, or an empty candidate list.
    """
    upsilon, s_min = vertex_expansion(graph, candidates)
    if s_min is None:
        raise ValueError(f"no proper cut to bound the expansion with (n={graph.n})")
    pi = graph.pi
    n = graph.n
    # the minimizer's own outer boundary is the lighter of the two, so the
    # proof's convention pi(dS^c) <= pi(dS) holds for S = complement(s_min)
    in_s = np.ones(n, dtype=bool)
    in_s[list(s_min)] = False
    subset = tuple(np.flatnonzero(in_s).tolist())

    # inner boundary: the nodes of S with a neighbour outside S
    ends = graph.ends
    crossing = in_s[ends[:, 0]] != in_s[ends[:, 1]]
    inner = np.zeros(n, dtype=bool)
    inner[ends[crossing].ravel()] = True
    inner &= in_s
    pi_s = float(pi[in_s].sum())
    pi_c = float(pi[~in_s].sum())
    pi_inner = float(pi[inner].sum())

    w0 = 1.0 / pi_inner
    sep = math.sqrt(w0)
    vectors = np.where(in_s, pi_c * sep, -pi_s * sep)
    # every crossing edge has squared length (pi_s + pi_c)^2 / pi(inner);
    # the slack is that length as rounded, so the witness is feasible as is
    with np.errstate(over="ignore"):
        d2 = (vectors[ends[crossing, 0]] - vectors[ends[crossing, 1]]) ** 2
    slack = max(w0, float(d2.max()))        # inf when 1/pi(inner) overflows
    witness = None
    if math.isfinite(slack):
        witness = Embedding(vectors, np.where(inner, slack, 0.0))
        if embedding_violations(graph, witness):    # rounding at a huge scale
            witness = None
    return ExpansionBound(value=1.0 / (2.0 * upsilon), upsilon=upsilon,
                          subset=subset, embedding=witness)


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


def _circle_embedding(m, d, k, axes):
    """Each node's first ``axes`` torus coordinates c (row-major, as
    ``families.torus_graph`` numbers the m^d nodes) placed on one m-point
    circle table, radius * (cos, sin)(2 pi c / m) with radius
    sqrt(2)/(2 sin(k pi/m)); uniform slacks."""
    radius = math.sqrt(2.0) / (2.0 * math.sin(k * math.pi / m))
    circle = np.array([(radius * math.cos(2.0 * math.pi * c / m),
                        radius * math.sin(2.0 * math.pi * c / m)) for c in range(m)])
    coords = np.indices((m,) * d)[:axes].reshape(axes, -1)
    return Embedding(circle[coords.T].reshape(m ** d, 2 * axes), np.ones(m ** d))


def make_torus_embedding(m, d):
    """Product of circles, one pair of coordinates per axis (d = 1: the cycle)."""
    if m < 3 or d < 1:
        raise ValueError("need m >= 3, d >= 1")
    return _circle_embedding(m, d, 1, d)


def make_geometric_embedding(m, k, d=1):
    """Collapse the k-step torus onto a single circle via its first axis."""
    if not (1 <= k < m / 2):
        raise ValueError("need 1 <= k < m/2")
    if m % k != 0:
        raise ValueError("k must divide m")
    return _circle_embedding(m, d, k, 1)
