"""Glauber dynamics with site-update rates for pairwise spin systems.

The stationary law is the Gibbs measure pi(sigma) proportional to the
product of per-edge coupling factors.  A move picks a site v with
probability rho(v) and resamples its color from the heat-bath law K given
the neighbors; the chain lives on the configuration graph whose edges join
configurations differing at a single site.

Three single sources carry the dynamics: the coupling tables built once by
:class:`SpinSystem`, the per-site heat-bath kernels of
:func:`heat_bath_kernels` (tabulated per neighbor-color profile, read by the
chain build and ``kbar``), and the single-site move ``m + (c - cur) q^v`` on
mixed-radix state indices, shared by the configuration graph and the chain
build.  Chains (edge flows) are built only up to ``DENSE_STATE_CAP`` states.

The Ising specialization (colors -1/+1, couplings exp(beta * a * b)) comes
with the cut-width machinery used to pick good update rates on complete
b-ary trees: per-site congestion bounds B_v grow exponentially in the DFS
node width, so rates proportional to B_v equalize the per-site bounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .chains import ReversibleChain, TransitionGraph, _canonical_edges, _stars
from .spectral import spectrum

STATE_SPACE_CAP = 2 ** 20     # configurations enumerated at most
DENSE_STATE_CAP = 512          # states of a dense chain: exact spectra past it take minutes
# sites of a TreeSpec: its bounds cost ~1.1 KB and ~18 us a site (2.4 s, 176 MB
# peak for the 131071-site binary tree of 16 levels on a 2-CPU x86_64 machine),
# so the cap admits that tree
TREE_SITE_CAP = 2 ** 17
RATE_SUM_TOL = 1e-12


class SpinSystem:
    """Pairwise model: site graph, finite color set, positive couplings.

    ``coupling(v, w, a, b)`` is evaluated once, here, for every canonical
    edge ``v < w`` and color pair; the values are kept in ``tables``, one
    read-only q x q array per edge indexed by the color indices at ``v`` and
    ``w``.  Every value must be positive and finite, which keeps the Gibbs
    measure supported on every configuration; a coupling that overflows
    (``OverflowError``) is rejected like a non-finite one, with
    ``ValueError``.
    """

    def __init__(self, n_sites, edges, colors, coupling, beta=None):
        self.n_sites = int(n_sites)
        if self.n_sites < 1:
            raise ValueError("need at least one site")
        ends = _canonical_edges(self.n_sites, edges)
        self.edges = tuple(map(tuple, ends.tolist()))
        self.colors = tuple(colors)
        if len(self.colors) < 2:
            raise ValueError("need at least two colors")
        self.beta = beta
        offsets, _, nodes, _ = _stars(self.n_sites, ends)
        self.neighbors = tuple(tuple(star.tolist()) for star in np.split(nodes, offsets[1:-1]))
        self.tables = {}
        for v, w in self.edges:
            try:
                table = np.array([[coupling(v, w, a, b) for b in self.colors]
                                  for a in self.colors], dtype=float)
            except OverflowError as exc:      # math.exp past the float range
                raise ValueError(f"coupling on edge ({v},{w}) overflows ({exc}); "
                                 "it must be positive and finite") from None
            bad = np.argwhere(~((table > 0.0) & np.isfinite(table)))
            if len(bad):
                a, b = bad[0]
                raise ValueError(f"coupling on edge ({v},{w}) at colors "
                                 f"({self.colors[a]},{self.colors[b]}) is "
                                 f"{table[a, b]!r}; it must be positive and finite")
            table.flags.writeable = False
            self.tables[(v, w)] = table

    @classmethod
    def ising(cls, n_sites, edges, beta):
        if beta <= 0:
            raise ValueError("need beta > 0")
        return cls(n_sites, edges, colors=(-1, +1),
                   coupling=lambda v, w, a, b: math.exp(beta * a * b), beta=beta)

    @property
    def n_states(self):
        return len(self.colors) ** self.n_sites

    @property
    def max_degree(self):
        return max(len(a) for a in self.neighbors) if self.n_sites else 0


# -- configuration enumeration -------------------------------------------


def _check_enumerable(system):
    if system.n_states > STATE_SPACE_CAP:
        raise ValueError(f"state space {system.n_states} exceeds cap {STATE_SPACE_CAP}")


def state_color_indices(system):
    """(n_states, n_sites) matrix: color index of each site, mixed radix.

    Site v contributes the v-th digit of the state index, so for two colors
    the +1 color sits at bit v exactly when bit v of the index is set.
    """
    _check_enumerable(system)
    q = len(system.colors)
    states = np.arange(system.n_states)
    digits = (states[:, None] // q ** np.arange(system.n_sites)[None, :]) % q
    return digits.astype(np.int64)


def _move_targets(system, digits, v, c):
    """States reached by writing color index ``c`` at site ``v``: m + (c - cur) q^v.

    ``c`` is a scalar or one color index per state; a state whose site
    already has color ``c`` maps to itself.
    """
    q = len(system.colors)
    return np.arange(system.n_states) + (c - digits[:, v]) * q ** v


def gibbs_distribution(system):
    """Exact Gibbs probabilities over the enumerated configurations."""
    return _gibbs(system, state_color_indices(system))


def _gibbs(system, digits):
    log_w = np.zeros(system.n_states)
    for (v, w), table in system.tables.items():
        log_table = np.array([[math.log(x) for x in row] for row in table])
        log_w += log_table[digits[:, v], digits[:, w]]
    log_w -= log_w.max()
    weights = np.exp(log_w)
    return weights / weights.sum()


def _raising_moves(system, digits):
    """Every single-site move s -> t > s, as ``(v, c, s, t)`` per site v and
    new color index c, with s and t arrays of states."""
    for v in range(system.n_sites):
        for c in range(1, len(system.colors)):
            s = np.flatnonzero(digits[:, v] < c)
            yield v, c, s, _move_targets(system, digits, v, c)[s]


def configuration_graph(system):
    """Transition graph on configurations: single-site moves, Gibbs pi."""
    digits = state_color_indices(system)
    ends = zip(*((s, t) for _, _, s, t in _raising_moves(system, digits)))
    edges = np.column_stack([np.concatenate(side) for side in ends])
    return TransitionGraph(system.n_states, edges, _gibbs(system, digits))


# -- the dynamics ---------------------------------------------------------


def heat_bath_kernels(system):
    """Heat-bath law of every site, tabulated once per neighbor-color profile.

    Entry ``[p, c]`` of array ``v`` is the probability of writing color
    index ``c`` at site ``v`` when its sorted neighbors ``w_k`` carry color
    indices ``d_k`` with ``p = sum_k d_k q^k``: the product over the
    neighbors of the coupling tables, normalized over ``c``.  An isolated
    site has one profile and resamples uniformly.
    """
    q = len(system.colors)
    kernels = []
    for v, nbrs in enumerate(system.neighbors):
        profiles = np.arange(q ** len(nbrs))
        weights = np.ones((len(profiles), q))
        for k, w in enumerate(nbrs):
            # rows: color at v, columns: color at w
            table = system.tables[(v, w)] if v < w else system.tables[(w, v)].T
            weights *= table[:, profiles // q ** k % q].T
        # summed left to right like a scalar loop; numpy's row sum would
        # switch to pairwise order for long rows and round differently
        total = weights[:, 0].copy()
        for c in range(1, q):
            total += weights[:, c]
        kernels.append(weights / total[:, None])
    return tuple(kernels)


def _state_kernel(system, digits, kernels, v):
    """(n_states, q): the heat-bath law at site ``v`` in every configuration."""
    nbrs = list(system.neighbors[v])
    profile = digits[:, nbrs] @ len(system.colors) ** np.arange(len(nbrs))
    return kernels[v][profile]


@dataclass(frozen=True)
class RateVector:
    """Site-selection probabilities."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        object.__setattr__(self, "rho", rho)
        if not np.all(rho >= 0.0):
            raise ValueError("rates must be nonnegative")
        if abs(rho.sum() - 1.0) > RATE_SUM_TOL:
            raise ValueError(f"rates sum to {rho.sum()!r}, not 1")


def uniform_rates(n_sites):
    return RateVector(np.full(n_sites, 1.0 / n_sites))


def build_glauber_chain(system, rates, graph=None):
    """The rated dynamics, P(s, s_v^a) = rho(v) K_v(s, a), as its edge flows.

    Each configuration-graph edge s -> t > s, site v set to color a, gets
    pi(s) rho(v) K_v(s, a), which is reversible for the Gibbs pi; no
    n_states x n_states array is allocated.  ``graph`` is
    ``configuration_graph(system)`` when the caller already has it, so
    chains with different rates can share one.  Systems with more than
    ``DENSE_STATE_CAP`` states are rejected before anything is built.
    """
    if len(rates.rho) != system.n_sites:
        raise ValueError("one rate per site required")
    if system.n_states > DENSE_STATE_CAP:
        raise ValueError(f"state space {system.n_states} exceeds the dense chain cap "
                         f"{DENSE_STATE_CAP}")
    if graph is None:
        graph = configuration_graph(system)
    elif graph.n != system.n_states:
        raise ValueError(f"graph has {graph.n} nodes, system {system.n_states} states")
    digits = state_color_indices(system)
    kernels = heat_bath_kernels(system)
    N = system.n_states
    edge_keys = graph.ends[:, 0] * N + graph.ends[:, 1]    # ascending, as ends is sorted
    flows = np.zeros(len(edge_keys))
    for v, c, s, t in _raising_moves(system, digits):
        ids = np.minimum(np.searchsorted(edge_keys, s * N + t), len(edge_keys) - 1)
        if not np.array_equal(edge_keys[ids], s * N + t):
            raise ValueError("graph lacks a single-site move of the system")
        flows[ids] = graph.pi[s] * (rates.rho[v] * _state_kernel(system, digits, kernels, v)[s, c])
    return ReversibleChain(graph, flows)


def kbar(system):
    """Worst inverse kernel probability over all (configuration, site, color).

    Reads the per-profile kernels only, so it enumerates no configuration.
    """
    smallest = min(float(K.min()) for K in heat_bath_kernels(system))
    return math.inf if smallest <= 0.0 else 1.0 / smallest


@dataclass(frozen=True)
class RateComparisonReport:
    """Both rate-oblivious inequalities relating uniform and optimized chains."""

    tau2_uniform: float
    kbar: float
    n_sites: int
    tau2_fastest: float
    tau2_rated: float
    bound_via_fastest: float   # kbar * |V| * tau2(fastest)
    bound_via_rated: float     # |V| * tau2(rated)
    ok_fastest: bool
    ok_rated: bool


def check_rate_improvement_limits(system, fastest, rated_chain):
    """Verify the two inequalities capping what tuned rates can buy.

    ``fastest`` is the relaxation time of the unrestricted fastest chain on
    the configuration graph (or a solver result carrying ``tau2_star``);
    ``rated_chain`` is any rated Glauber chain.  Both uniform-chain bounds
    are evaluated numerically and reported with their margins.
    """
    tau_fast = getattr(fastest, "tau2_star", fastest)
    tau_uniform = spectrum(build_glauber_chain(system, uniform_rates(system.n_sites))).relaxation_time
    tau_rated = spectrum(rated_chain).relaxation_time
    kb = kbar(system)
    bound_fast = kb * system.n_sites * tau_fast
    bound_rated = system.n_sites * tau_rated
    return RateComparisonReport(
        tau2_uniform=tau_uniform, kbar=kb, n_sites=system.n_sites,
        tau2_fastest=tau_fast, tau2_rated=tau_rated,
        bound_via_fastest=bound_fast, bound_via_rated=bound_rated,
        ok_fastest=tau_uniform <= bound_fast + 1e-6,
        ok_rated=tau_uniform <= bound_rated + 1e-6)


# -- complete b-ary trees and cut widths ----------------------------------


@dataclass(frozen=True)
class TreeSpec:
    """Complete rooted b-ary tree with ``levels`` levels below the root."""

    branching: int
    levels: int

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("need branching >= 2")
        if self.levels < 1:
            raise ValueError("need at least one level")
        # b >= 2 gives at least 2^(r+1) - 1 sites: no huge power is computed
        if self.levels >= TREE_SITE_CAP.bit_length() or self.node_count > TREE_SITE_CAP:
            raise ValueError(f"a {self.branching}-ary tree of {self.levels} levels exceeds "
                             f"the cap of {TREE_SITE_CAP} sites")

    @property
    def node_count(self):
        b, r = self.branching, self.levels
        return (b ** (r + 1) - 1) // (b - 1)

    @property
    def max_degree(self):
        # internal non-root nodes have b children plus a parent
        return self.branching + 1 if self.levels >= 2 else self.branching

    def site_edges(self):
        return _tree_structure(self.branching, self.levels)["edges"]

    def parents(self):
        return _tree_structure(self.branching, self.levels)["parent"]

    def node_levels(self):
        return _tree_structure(self.branching, self.levels)["level"]

    def children(self):
        return _tree_structure(self.branching, self.levels)["children"]

    def leaves(self):
        level = self.node_levels()
        return [v for v in range(self.node_count) if level[v] == self.levels]


@functools.cache
def _tree_structure(b, r):
    """DFS preorder ids, parent/level/children arrays and edge list."""
    parent, level, edges = [-1], [0], []
    children = [[]]

    def grow(node, node_level):
        for _ in range(b):
            child = len(parent)
            parent.append(node)
            level.append(node_level + 1)
            children.append([])
            children[node].append(child)
            edges.append((node, child))
            if node_level + 1 < r:
                grow(child, node_level + 1)

    grow(0, 0)
    return {"parent": tuple(parent), "level": tuple(level),
            "children": tuple(tuple(c) for c in children), "edges": tuple(edges)}


def node_widths(tree):
    """Per-node cut widths of the DFS ordering, and their maximum.

    Tree nodes are numbered in DFS preorder, so the width of node v is the
    number of tree edges crossing the prefix ``0..v``: the
    :func:`prefix_cut_sizes` of the identity order.  The maximum stays
    within (b-1) r + 1.
    """
    widths = np.array(prefix_cut_sizes(tree.node_count, tree.site_edges(),
                                       range(tree.node_count)))
    return widths, int(widths.max())


def prefix_cut_sizes(n_nodes, edges, order):
    """Edges crossing each ordering prefix, for any site graph and any order.

    Entry k is the number of edges with exactly one endpoint among
    ``order[:k+1]``.  An edge opens at the earlier position of its ends and
    closes at the later one, so the counts are the running sum of edges
    opened minus edges closed: O(n + m) after the edge check.  Endpoints
    must be node ids 0..n-1.
    """
    if sorted(order) != list(range(n_nodes)):
        raise ValueError("order must be a permutation of the nodes")
    position = np.empty(n_nodes, dtype=np.int64)
    position[np.asarray(order, dtype=np.int64)] = np.arange(n_nodes)
    at = position[_canonical_edges(n_nodes, edges)]
    opened = np.bincount(at.min(axis=1), minlength=n_nodes)
    closed = np.bincount(at.max(axis=1), minlength=n_nodes)
    return np.cumsum(opened - closed).tolist()


# -- per-site congestion bounds and rates ---------------------------------


def _log_expm1(x):
    return math.log(math.expm1(x)) if x < 30.0 else x + math.log1p(-math.exp(-x))


def _logsumexp(values):
    m = max(values)
    return m + math.log(sum(math.exp(v - m) for v in values))


def zeta(b, beta):
    """Level growth factor (e^{4 b beta} - 1)/(e^{4 beta} - 1)."""
    lz = log_zeta(b, beta)
    return math.exp(lz) if lz < 700.0 else math.inf


def log_zeta(b, beta):
    return _log_expm1(4.0 * b * beta) - _log_expm1(4.0 * beta)


def log_site_bounds(n_sites, widths, delta, beta):
    """log B_v = 2 log|V| + (4 width + 2 delta) beta, any site graph."""
    widths = np.asarray(widths, dtype=float)
    return 2.0 * math.log(n_sites) + (4.0 * widths + 2.0 * delta) * beta


@dataclass(frozen=True)
class SiteBoundReport:
    """Per-site congestion bounds for a tree, kept in log space."""

    widths: np.ndarray
    max_width: int
    log_values: np.ndarray
    log_mean: float            # log( sum_v B_v / |V| )
    log_max: float
    log_total: float
    log_total_closed: float    # level recursion in closed form

    @property
    def values(self):
        with np.errstate(over="ignore"):
            return np.exp(self.log_values)

    @property
    def mean(self):
        return math.exp(self.log_mean) if self.log_mean < 700 else math.inf

    @property
    def max_value(self):
        return math.exp(self.log_max) if self.log_max < 700 else math.inf


def site_bounds(tree, beta):
    """B_v for every tree node plus aggregates and the closed-form total.

    The closed form sums the level recursion B^(l) = B^(l-1) zeta(b, beta)
    (with the leaf level damped by e^{-4 b beta}), so it must agree with the
    node-by-node total up to rounding.
    """
    b, r = tree.branching, tree.levels
    widths, max_width = node_widths(tree)
    log_bv = log_site_bounds(tree.node_count, widths, tree.max_degree, beta)
    log_total = _logsumexp(list(log_bv))
    lz = log_zeta(b, beta)
    log_b0 = 2.0 * math.log(tree.node_count) + (4.0 * b + 2.0 * tree.max_degree) * beta
    level_terms = [l * lz for l in range(r)] + [r * lz - 4.0 * b * beta]
    log_total_closed = log_b0 + _logsumexp(level_terms)
    return SiteBoundReport(widths=widths, max_width=max_width,
                           log_values=log_bv,
                           log_mean=log_total - math.log(tree.node_count),
                           log_max=float(log_bv.max()),
                           log_total=log_total,
                           log_total_closed=log_total_closed)


def rates_from_log_bounds(log_bv):
    """Normalize site bounds into rates in log space (a softmax)."""
    log_bv = np.asarray(log_bv, dtype=float)
    shifted = np.exp(log_bv - log_bv.max())
    return RateVector(shifted / shifted.sum())


def optimal_rates(tree, beta):
    """Rates proportional to B_v; these equalize the per-site congestion bounds."""
    return rates_from_log_bounds(site_bounds(tree, beta).log_values)


# -- recursive majority lower bound ---------------------------------------


def recursive_majority(tree, sigma):
    """Bottom-up majority of the leaf spins; internal spins are ignored."""
    if tree.branching % 2 == 0:
        raise ValueError("majority needs odd branching")
    sigma = np.asarray(sigma)
    if sigma.shape != (tree.node_count,):
        raise ValueError("one spin per tree node required")
    if not np.all(np.isin(sigma, (-1, 1))):
        raise ValueError("spins must be -1/+1")
    return int(_majority_table(tree, sigma[None, :])[0])


def _majority_table(tree, spins):
    """recursive_majority of every row of an (n_configs, n_nodes) +-1 array."""
    level = tree.node_levels()
    children = tree.children()
    m = np.array(spins, dtype=np.int64)
    for v in range(tree.node_count - 1, -1, -1):
        if level[v] < tree.levels:
            total = sum(m[:, c] for c in children[v])
            m[:, v] = np.where(total > 0, 1, -1)
    return m[:, 0]


@dataclass(frozen=True)
class MajorityCutBound:
    """Majority-cut lower bounds on the configuration-graph mixing problem."""

    epsilon: float
    flip_probability_bound: float     # (2 eps + 8 eps^2)^(r-1)
    boundary_measure_bound: float     # (3^r / 2) * flip bound
    lambda2_lower: float              # for the fastest chain, via the cut S
    uniform_lambda2_lower: float      # for the uniform-rate chain, via Phi_S
    vacuous: bool


def majority_cut_bound(tree, beta):
    """Lower bounds from the recursive-majority cut S = {m(sigma) = +1}.

    Works for branching 3.  With eps = (1 + e^{2 beta})^{-1}, a fixed-leaf
    flip changes the majority with probability at most
    (2 eps + 8 eps^2)^{r-1}; a union bound over the 3^r leaves and the spin
    flip symmetry (pi(S) = 1/2) then cap the cut boundary, and the
    vertex-expansion bound turns that into lambda2 lower bounds.
    """
    if tree.branching != 3:
        raise ValueError("the majority-cut analysis assumes branching 3")
    r = tree.levels
    eps = 1.0 / (1.0 + math.exp(2.0 * beta))
    z = 2.0 * eps + 8.0 * eps ** 2
    flip_bound = z ** (r - 1)
    boundary_bound = (3.0 ** r / 2.0) * flip_bound
    lambda2_lower = 1.0 - 2.0 * 3.0 ** r * flip_bound
    uniform_lower = 1.0 - 2.0 * flip_bound

    return MajorityCutBound(epsilon=eps,
                            flip_probability_bound=flip_bound,
                            boundary_measure_bound=boundary_bound,
                            lambda2_lower=lambda2_lower,
                            uniform_lambda2_lower=uniform_lower,
                            vacuous=lambda2_lower <= -1.0)
