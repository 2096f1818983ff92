"""Shared fixtures-by-hand: random instances and reusable invariant checks.

The random-instance checks double as the property suite: module tests call
them with their documented sizes, and the acceptance runner re-executes the
key ones under a single fixed seed.
"""

import dataclasses
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st

from fastmix import glauber, solver
from fastmix.chains import ReversibleChain, TransitionGraph, validate_chain
from fastmix.families import complete_graph, knkn_graph, torus_graph
from fastmix.spectral import rayleigh_quotient, spectrum
from fastmix.upper_bounds import congestion, shortest_path_system


# -- one-line reads of a graph's edge arrays and a tree's levels -------------


def edge_pairs(graph):
    """The canonical ``(min, max)`` pairs in edge order, as tuples."""
    return tuple(map(tuple, graph.ends.tolist()))


def edge_ids(graph):
    """Mapping canonical ``(min, max)`` pair -> its row of ``graph.ends``."""
    return {e: k for k, e in enumerate(edge_pairs(graph))}


def neighbors(graph, i):
    """Node i's neighbours, ascending, from its star."""
    return tuple(graph.star_nodes[graph.star_offsets[i]:graph.star_offsets[i + 1]].tolist())


def incident_edges(graph, i):
    """Edge ids of node i's star, in ascending neighbour order."""
    return graph.star_edges[graph.star_offsets[i]:graph.star_offsets[i + 1]].tolist()


def leaves(tree):
    """The sites on a tree's last level, in DFS preorder."""
    return [v for v, level in enumerate(tree.node_levels()) if level == tree.levels]


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
    m = len(graph.ends)
    flows = rng.uniform(0.2, 1.0, size=m)
    load = np.zeros(graph.n)
    for k, (i, j) in enumerate(edge_pairs(graph)):
        load[i] += flows[k]
        load[j] += flows[k]
    scale = min(graph.pi[i] / load[i] for i in range(graph.n))
    flows *= scale * rng.uniform(0.4, 0.98)
    P = np.zeros((graph.n, graph.n))
    for k, (i, j) in enumerate(edge_pairs(graph)):
        P[i, j] = flows[k] / graph.pi[i]
        P[j, i] = flows[k] / graph.pi[j]
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    chain = ReversibleChain.from_matrix(graph, P)
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

    Sums pi over the members, the boundary and the complement, each in
    ascending node order exactly like ``sum(pi[v] for v in members)``, and
    breaks ties towards the lexicographically smallest member tuple.
    """
    n, pi = graph.n, graph.pi
    neighbor_masks = [0] * n
    for i, j in edge_pairs(graph):
        neighbor_masks[i] |= 1 << j
        neighbor_masks[j] |= 1 << i

    def nodes(mask):
        out = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            out.append(v)
            mask &= mask - 1
        return tuple(out)

    full = (1 << n) - 1
    if candidates is None:
        masks = range(1, full)
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
        pi_c = float(sum(pi[v] for v in nodes(full & ~mask)))
        ratio = pi_b / min(pi_s, pi_c)
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
             and any(not in_s[j] for j in neighbors(graph, i))]
    pi_s = float(pi[in_s].sum())
    pi_c = float(pi[~in_s].sum())
    w0 = 1.0 / float(pi[inner].sum())
    sep = math.sqrt(w0)
    vectors = np.where(in_s, pi_c * sep, -pi_s * sep)
    for i, j in edge_pairs(graph):
        if in_s[i] != in_s[j]:
            w0 = max(w0, float((vectors[i] - vectors[j]) ** 2))
    slacks = np.zeros(n)
    slacks[inner] = w0
    return subset, vectors, slacks


def prefix_cut_sizes_reference(n_nodes, edges, order):
    """Edges with exactly one end among ``order[:k+1]``, per k, by a double loop."""
    position = {v: k for k, v in enumerate(order)}
    sizes = []
    for k in range(n_nodes):
        cut = 0
        for v, w in edges:
            if (position[v] <= k) != (position[w] <= k):
                cut += 1
        sizes.append(cut)
    return sizes


# -- the graph zoo -------------------------------------------------------


def uneven(graph, seed=0):
    """The same graph under a seeded uneven pi."""
    pi = np.random.default_rng(seed + graph.n).uniform(0.2, 1.0, size=graph.n)
    return TransitionGraph(graph.n, graph.ends, pi / pi.sum())


def tree(n, seed=0, uniform_pi=False):
    return random_connected_graph(np.random.default_rng(seed + n), n,
                                  extra_edge_prob=0.0, uniform_pi=uniform_pi)


def random_graph(n, uniform_pi=False):
    return random_connected_graph(np.random.default_rng(100 + n), n,
                                  uniform_pi=uniform_pi)


# n = 2..16; uniform-pi cycles, tori, complete graphs and linked cliques
# have many equal ratios and exercise the tie rule
REFERENCE_GRAPHS = (
    [(f"cycle{n}", lambda n=n: torus_graph(n, 1)) for n in range(3, 17)]
    + [(f"cycle{n}-uneven", lambda n=n: uneven(torus_graph(n, 1))) for n in (4, 7, 10, 13, 16)]
    + [(f"torus{m}x{m}", lambda m=m: torus_graph(m, 2)) for m in (3, 4)]
    + [(f"torus{m}x{m}-uneven", lambda m=m: uneven(torus_graph(m, 2))) for m in (3, 4)]
    + [(f"knkn{n}", lambda n=n: knkn_graph(n)) for n in range(2, 9)]
    + [(f"knkn{n}-uneven", lambda n=n: uneven(knkn_graph(n))) for n in (3, 5)]
    + [(f"complete{n}", lambda n=n: complete_graph(n)) for n in range(2, 13)]
    + [(f"complete{n}-uneven", lambda n=n: uneven(complete_graph(n))) for n in (5, 9)]
    + [(f"tree{n}-uneven", lambda n=n: tree(n)) for n in range(2, 17)]
    + [(f"tree{n}", lambda n=n: tree(n, uniform_pi=True)) for n in (5, 9, 13)]
    + [(f"random{n}-uneven", lambda n=n: random_graph(n)) for n in (6, 11, 16)]
    + [(f"random{n}", lambda n=n: random_graph(n, uniform_pi=True)) for n in (8, 12)]
)


def uneven_pi(rng, n):
    pi = rng.uniform(0.05, 1.0, size=n)
    return pi / pi.sum()


@st.composite
def layout_graphs(draw):
    """Connected graphs on 2..24 nodes with uneven pi: sparse, dense, star, path
    or complete."""
    n = draw(st.integers(2, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["sparse", "dense", "star", "path", "complete"]))
    if shape == "star":
        edges = [(0, k) for k in range(1, n)]
    elif shape == "path":
        edges = [(k, k + 1) for k in range(n - 1)]
    elif shape == "complete":
        edges = complete_graph(n).ends
    else:
        edges = random_connected_graph(
            rng, n, extra_edge_prob=0.15 if shape == "sparse" else 0.7).ends
    return TransitionGraph(n, edges, uneven_pi(rng, n))


# -- scalar references for the edge layout ---------------------------------
# The per-edge and per-node loops that the graph's edge arrays replaced.


def canonical_edges_reference(n, edges):
    """Sorted canonical (min, max) pairs of valid integer edges, by a loop."""
    seen = set()
    for i, j in edges:
        if i == j:
            raise ValueError(f"explicit self-loop ({i},{i}): self-loops are implicit")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
    return tuple(sorted(seen))


def connected_reference(n, edges):
    """Breadth-first search from node 0 over the neighbor lists."""
    nbrs = [[] for _ in range(n)]
    for i, j in edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    seen = {0}
    queue = deque([0])
    while queue:
        for v in nbrs[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def closed_neighborhood_mass_reference(graph):
    """pi_*, each neighborhood summed by ``sum`` in ascending neighbor order."""
    pi = graph.pi
    return np.array([pi[i] + sum(pi[j] for j in neighbors(graph, i))
                     for i in range(graph.n)]).max()


def max_degree_flows_reference(graph):
    """Flows pi(i) (pi(j)/pi_*) of the max-degree chain, edge by edge."""
    pi = graph.pi
    pi_star = closed_neighborhood_mass_reference(graph)
    return np.array([pi[i] * (pi[j] / pi_star) for i, j in edge_pairs(graph)])


def star_sums_reference(graph, values):
    """Per node, 0.0 plus ``values`` of its edges in ascending neighbour order, by a loop."""
    ids = edge_ids(graph)
    sums = np.zeros(graph.n)
    for i in range(graph.n):
        total = 0.0
        for j in neighbors(graph, i):
            total += float(values[ids[(min(i, j), max(i, j))]])
        sums[i] = total
    return sums


def matrix_from_flows_reference(graph, q):
    """P of the chain with edge flows ``q``, filled edge by edge, with
    1 - load/pi on the diagonal."""
    P = np.zeros((graph.n, graph.n))
    for k, (i, j) in enumerate(edge_pairs(graph)):
        P[i, j] = q[k] / graph.pi[i]
        P[j, i] = q[k] / graph.pi[j]
    np.fill_diagonal(P, 1.0 - star_sums_reference(graph, q) / graph.pi)
    return P


def jacobi_eigvalsh_reference(A, off_tol=1e-12, max_sweeps=100):
    """``spectral.jacobi_eigvalsh`` as one rotation at a time, the pairs in
    row order, with the same formulas; descending eigenvalues."""
    A = np.array(A, dtype=float, copy=True)
    n = A.shape[0]
    for _ in range(max_sweeps):
        if math.sqrt(2.0 * np.sum(np.triu(A, 1) ** 2)) < off_tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[:, p].copy(), A[:, q].copy()
                A[:, p], A[:, q] = c * rp - s * rq, s * rp + c * rq
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :], A[q, :] = c * rp - s * rq, s * rp + c * rq
                A[p, q] = A[q, p] = 0.0
    return np.sort(np.diag(A))[::-1]


def symmetrized_reference(chain):
    """S = D^{1/2} P D^{-1/2} from the dense P, averaged to kill rounding asymmetry."""
    s = np.sqrt(chain.pi)
    S = s[:, None] * chain.P / s[None, :]
    return 0.5 * (S + S.T)


def support_reference(graph):
    """validate_chain's support: off-diagonal entries allowed mass, edge by edge."""
    allowed = np.zeros((graph.n, graph.n), dtype=bool)
    for i, j in edge_pairs(graph):
        allowed[i, j] = allowed[j, i] = True
    return allowed


def congestion_reference(chain, W):
    """Per-edge loads and ratios in edge order, rho_bar and the first worst edge, by a loop."""
    graph = chain.graph
    loads, ratios = np.zeros(len(graph.ends)), np.zeros(len(graph.ends))
    rho_bar, argmax = 0.0, None
    for k, (i, j) in enumerate(edge_pairs(graph)):
        q = chain.flows[k]
        loads[k] = W[k]
        if q > 0.0:
            ratio = float(W[k] / q)
        elif W[k] > 0.0:
            ratio = math.inf
        else:
            ratio = 0.0
        ratios[k] = ratio
        if ratio > rho_bar or argmax is None:
            rho_bar, argmax = ratio, (i, j)
    return loads, ratios, rho_bar, argmax


def dirichlet_reference(chain, vectors):
    """sum over edges of |psi(i) - psi(j)|^2 Q(i, j), added edge by edge."""
    vectors = np.asarray(vectors, dtype=float).reshape(chain.graph.n, -1)
    total = 0.0
    for k, (i, j) in enumerate(edge_pairs(chain.graph)):
        total += float(np.sum((vectors[i] - vectors[j]) ** 2)) * chain.flows[k]
    return total


def tree_loads_reference(graph):
    """W per edge by loops over a BFS tree per root, summed as ``shortest_path_system`` does.

    In root y's tree each node steps to its smallest neighbour one hop closer
    to y.  ``acc[v][y]`` is pi(v) d(v, y) if v < y (else 0.0), plus the sum of
    its children's acc, added in ascending child order from 0.0; the step of
    v towards y then adds pi(y) acc[v][y] to its edge, over (v, y) ascending.
    """
    n, pi = graph.n, graph.pi
    step = [[None] * n for _ in range(n)]
    acc = [[0.0] * n for _ in range(n)]
    for y in range(n):
        dist = [-1] * n
        dist[y] = 0
        queue = [y]
        for u in queue:
            for v in neighbors(graph, u):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for v in range(n):
            if v != y:
                step[v][y] = min(w for w in neighbors(graph, v) if dist[w] == dist[v] - 1)
            acc[v][y] = pi[v] * dist[v] if v < y else 0.0
        for level in range(max(dist), 0, -1):
            children = [0.0] * n
            for v in range(n):
                if dist[v] == level:
                    children[step[v][y]] += acc[v][y]
            for v in range(n):
                if dist[v] == level - 1:
                    acc[v][y] += children[v]
    ids = edge_ids(graph)
    W = np.zeros(len(graph.ends))
    for v in range(n):
        for y in range(n):
            if v != y:
                w = step[v][y]
                W[ids[(min(v, w), max(v, w))]] += pi[y] * acc[v][y]
    return W


def equalized_rho_reference(graph, W):
    """rho* of equalize_congestion: the largest star sum of W over pi."""
    sums = star_sums_reference(graph, W)
    return max(sums[i] / graph.pi[i] for i in range(graph.n))


# -- references for the lattice families ------------------------------------
# The forms the one coordinate grid replaced: node coordinates by a per-node
# loop, edges from an N x N x d table of coordinate gaps, and the closed-form
# circle embeddings filled node by node.


def torus_coordinates_reference(index, m, d):
    """Coordinates (i_1, ..., i_d) of a row-major torus node index."""
    coords = []
    for _ in range(d):
        coords.append(index % m)
        index //= m
    return tuple(reversed(coords))


def lattice_reference(m, d, k=None):
    """The torus (k None: circular gaps summing to one) or the geometric graph
    (every circular gap at most k) from the N x N x d table of gaps."""
    n = m ** d
    coords = np.array([torus_coordinates_reference(i, m, d) for i in range(n)])
    gap = np.abs(coords[:, None] - coords[None, :])
    gap = np.minimum(gap, m - gap)
    near = gap.sum(axis=2) == 1 if k is None else np.all(gap <= k, axis=2)
    return TransitionGraph(n, np.argwhere(np.triu(near, 1)))


def torus_embedding_reference(m, d):
    """The product of circles, one node and one axis at a time."""
    radius = math.sqrt(2.0) / (2.0 * math.sin(math.pi / m))
    vectors = np.empty((m ** d, 2 * d))
    for i in range(m ** d):
        for axis, c in enumerate(torus_coordinates_reference(i, m, d)):
            angle = 2.0 * math.pi * c / m
            vectors[i, 2 * axis] = radius * math.cos(angle)
            vectors[i, 2 * axis + 1] = radius * math.sin(angle)
    return vectors


def geometric_embedding_reference(m, k, d):
    """The single circle of the first axis, one node at a time."""
    radius = math.sqrt(2.0) / (2.0 * math.sin(k * math.pi / m))
    vectors = np.empty((m ** d, 2))
    for i in range(m ** d):
        angle = 2.0 * math.pi * torus_coordinates_reference(i, m, d)[0] / m
        vectors[i] = (radius * math.cos(angle), radius * math.sin(angle))
    return vectors


# -- references for the solver ---------------------------------------------
# The forms the solver replaced: a certificate at every barrier centre, the
# incidence and the load-barrier Hessian scattered by loops and np.add.at,
# and the slack LP with one ratio test per variable block.


def newton_reference(barrier, q, gamma, t, chol):
    """``_Barrier.newton`` with the incidence built by a loop over the edges
    and the star pairs scattered by ``np.add.at``."""
    graph = barrier.graph
    ei, ej = barrier.ei, barrier.ej
    m = len(q)
    A = np.zeros((graph.n, m))
    for e, (i, j) in enumerate(edge_pairs(graph)):
        A[i, e], A[j, e] = barrier.inv_root[i], -barrier.inv_root[j]
    owners = graph.star_owners
    e, f = np.nonzero(owners[:, None] == owners[None, :])
    star_index = graph.star_edges[e] * (m + 1) + graph.star_edges[f]
    R = np.linalg.inv(chol)
    X = R.T @ R
    Y = X @ A
    G = A.T @ Y
    inv_s = 1.0 / barrier.slacks(q)
    grad = np.empty(m + 1)
    grad[:m] = inv_s[ei] + inv_s[ej] - np.diag(G) - 1.0 / q
    grad[m] = np.trace(X) - 1.0 - t
    H = np.empty((m + 1, m + 1))
    np.multiply(G, G, out=H[:m, :m])
    np.add.at(H.reshape(-1), star_index, inv_s[owners[e]] ** 2)
    H[np.arange(m), np.arange(m)] += 1.0 / q ** 2
    H[:m, m] = H[m, :m] = -np.einsum("ke,ke->e", Y, Y)
    H[m, m] = np.einsum("ij,ij->", X, X) - 1.0
    scale = 1.0 / np.sqrt(np.diag(H))
    H *= scale[:, None]
    H *= scale[None, :]
    # the Newton step and the tangent H^{-1} e_gamma, solved together
    rhs = np.zeros((m + 1, 2))
    rhs[:, 0] = -grad * scale
    rhs[m, 1] = scale[m]
    solved = np.linalg.solve(H, rhs)
    return grad, scale * solved[:, 0], scale * solved[:, 1]


def cover_slacks_reference(graph, lengths):
    """``_cover_slacks`` with w, z, x, v apart, K scattered from zeros and
    the edge sums by the star loop."""
    pi, (ei, ej) = graph.pi, graph.ends.T
    n, m = graph.n, len(lengths)
    scale = float(lengths.max())
    c = lengths / scale
    w = np.ones(n)
    z = 2.0 - c
    x = np.full(m, 0.5 * float(pi.min()) / int(np.diff(graph.star_offsets).max()))
    v = pi - star_sums_reference(graph, x)
    diag = np.arange(n)

    def edge_sum(values):
        return star_sums_reference(graph, values)

    def direction(target_zx, target_wv, r_p, r_d):
        ratio = x / z
        K = np.zeros((n, n))
        np.add.at(K, (ei, ej), ratio)
        K += K.T
        K[diag, diag] = edge_sum(ratio) + v / w
        K[diag, diag] += solver._LP_RIDGE * K[diag, diag].max()
        rhs = edge_sum(ratio * r_p + target_zx / z) + target_wv / w - r_d
        dw = np.linalg.solve(K, rhs)
        dx = ratio * (r_p - dw[ei] - dw[ej]) + target_zx / z
        return dw, (target_zx - z * dx) / x, dx, (target_wv - v * dw) / w

    def longest(values, steps):
        shrinking = steps < 0.0
        if not shrinking.any():
            return 1.0
        return min(1.0, 0.995 * float(np.min(-values[shrinking] / steps[shrinking])))

    for _ in range(solver._LP_MAX_STEPS):
        gap = float(z @ x + w @ v)
        if gap <= solver._LP_GAP * float(pi @ w):
            break
        mu = gap / (n + m)
        r_p = c - w[ei] - w[ej] + z
        r_d = pi - edge_sum(x) - v
        dw, dz, dx, dv = direction(-z * x, -w * v, r_p, r_d)
        a_p = min(longest(w, dw), longest(z, dz))
        a_d = min(longest(x, dx), longest(v, dv))
        affine = float((z + a_p * dz) @ (x + a_d * dx) + (w + a_p * dw) @ (v + a_d * dv))
        sigma = (affine / gap) ** 3
        dw, dz, dx, dv = direction(sigma * mu - z * x - dz * dx,
                                   sigma * mu - w * v - dw * dv, r_p, r_d)
        a_p = min(longest(w, dw), longest(z, dz))
        a_d = min(longest(x, dx), longest(v, dv))
        step = (w + a_p * dw, z + a_p * dz, x + a_d * dx, v + a_d * dv)
        if not all(np.all(np.isfinite(part)) for part in step):
            break
        w, z, x, v = step
    return w * scale


def solve_reference(graph, config=None):
    """``solve_fastest_mixing`` with a certificate computed at every centre.

    It follows the solver's path (``newton_reference`` for the Newton steps,
    the solver's predictor and line search) and acts only on the
    certificates the solver takes, by the same rule.  The certificates go
    through ``solver._certify``, so they use whichever ``_cover_slacks`` the
    module holds.  Returns the result and the certified gaps of the centres
    the solver skips.
    """
    config = config or solver.SolverConfig()
    n = graph.n
    barrier = solver._Barrier(graph)
    ei, ej = barrier.ei, barrier.ej
    q = 0.5 * max_degree_flows_reference(graph)
    gamma = 0.0
    chol = barrier.factor(q, gamma)
    nu = len(q) + 2 * n - 1
    t = nu * (n - 1) / float(np.sum(q / graph.pi[ei] + q / graph.pi[ej]))

    def certifiable(t, gamma):
        return nu / t <= solver.BARRIER_GROWTH ** 2 * solver.CERTIFIED_GAP * gamma

    history, best, certificates, skipped = [], None, 0, []
    while True:
        start = len(history)
        while len(history) < config.max_iters:
            grad, step, tangent = newton_reference(barrier, q, gamma, t, chol)
            tol = solver.CENTERING_TOL if certifiable(t, gamma) else solver.LOOSE_CENTERING_TOL
            if history and -float(grad @ step) <= 2.0 * tol:
                break
            moved = barrier.line_search(q, gamma, t, chol, grad, step)
            if moved is None or (moved[1] == gamma and np.array_equal(moved[0], q)):
                break
            q, gamma, chol = moved
            history.append(1.0 - gamma)
        spent = len(history) >= config.max_iters
        certified = solver._certify(barrier, q, chol)
        if spent or len(history) == start or certifiable(t, gamma):
            certificates += 1
            if best is not None and not (certified.certified_gap < best.certified_gap):
                stop = "no_improvement"
                break
            best = certified
            if best.certified_gap <= solver.CERTIFIED_GAP:
                stop = "certified"
                break
            if spent:
                stop = "newton_cap"
                break
        else:
            skipped.append(certified.certified_gap)
        q, gamma, chol = barrier.predict(q, gamma, chol,
                                         (solver.BARRIER_GROWTH - 1.0) * t * tangent)
        t *= solver.BARRIER_GROWTH
    result = dataclasses.replace(best, iterations=len(history), certificates=certificates,
                                 stop=stop, history=history)
    return result, skipped


# -- exhaustive oracles ------------------------------------------------------
# Brute-force references that no output reads: a grid search over the flows
# of graphs with very few edges, and the exact quantities behind the
# majority-cut bound on small trees.

GRID_MAX_EDGES = 4
GRID_MAX_RESOLUTION = 200
GRID_MAX_POINTS = 20_000_000
_EIG_CHUNK = 200_000


@dataclass(frozen=True)
class OracleResult:
    chain: ReversibleChain
    lambda2: float
    spacing: float


def grid_oracle(graph, resolution):
    """Exhaustive grid search over the free edge flows.

    Only meant for instances with at most four non-loop edges; every grid
    point respecting the node budgets is evaluated with a batched
    eigensolver and the minimizer is returned.
    """
    m = len(graph.ends)
    if m > GRID_MAX_EDGES:
        raise ValueError(f"{m} free edge flows exceed the grid oracle cap of {GRID_MAX_EDGES}")
    if not (1 <= resolution <= GRID_MAX_RESOLUTION):
        raise ValueError(f"resolution must be in 1..{GRID_MAX_RESOLUTION}")
    n, pi = graph.n, graph.pi
    sqrt_pi = np.sqrt(pi)
    ei, ej = graph.ends.T

    caps = np.minimum(pi[ei], pi[ej])
    axes = [np.linspace(0.0, c, resolution + 1) for c in caps]
    if (resolution + 1) ** m > GRID_MAX_POINTS:
        raise ValueError("grid too fine; lower the resolution")
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in mesh], axis=1)

    incidence = np.zeros((n, m))
    incidence[ei, np.arange(m)] = 1.0
    incidence[ej, np.arange(m)] = 1.0
    loads = points @ incidence.T
    feasible = np.all(loads <= pi + 1e-12, axis=1)
    points, loads = points[feasible], loads[feasible]

    diag = np.arange(n)
    best_lambda = math.inf
    best_q = None
    for start in range(0, len(points), _EIG_CHUNK):
        block = points[start:start + _EIG_CHUNK]
        # D^{1/2} P D^{-1/2} of every grid point in the block
        S = np.zeros((len(block), n, n))
        S[:, ei, ej] = block / (sqrt_pi[ei] * sqrt_pi[ej])
        S += S.swapaxes(1, 2)
        S[:, diag, diag] = 1.0 - loads[start:start + _EIG_CHUNK] / pi
        lams = np.linalg.eigvalsh(S)[:, -2]
        k = int(np.argmin(lams))
        if lams[k] < best_lambda:
            best_lambda = float(lams[k])
            best_q = block[k].copy()

    chain = ReversibleChain(graph, best_q)
    return OracleResult(chain=chain, lambda2=best_lambda,
                        spacing=float(caps.max() / resolution))


@dataclass(frozen=True)
class ExactMajorityStats:
    """Enumerated quantities behind the majority-cut bound."""

    pi_S: float
    flip_probability: float    # recursive majority flips when the first leaf flips
    boundary_measure: float    # pi(dS^c): S-side configurations with a cut neighbor
    phi_S: float               # conductance of S under the uniform-rate chain


def exact_majority_stats(tree, beta):
    """Enumerate the cut S = {m(sigma) = +1} of the Ising model on ``tree``.

    ``beta = 0`` is allowed: the general constructor builds the
    infinite-temperature system that ``SpinSystem.ising`` rejects.
    """
    system = glauber.SpinSystem(tree.node_count, tree.site_edges(), colors=(-1, +1),
                                coupling=lambda v, w, a, b: math.exp(beta * a * b),
                                beta=beta)
    pi = glauber.configuration_graph(system).pi
    digits = glauber.state_color_indices(system)
    kernels = glauber.heat_bath_kernels(system)
    majority = glauber._majority_table(tree, np.asarray(system.colors)[digits])
    states = np.arange(system.n_states)
    in_S = majority == 1
    last_level = leaves(tree)

    def flipped(leaf):
        return glauber._move_targets(system, digits, leaf, 1 - digits[:, leaf])

    pivotal = majority != majority[flipped(last_level[0])]
    on_boundary = np.zeros(len(states), dtype=bool)
    phi_sum = 0.0
    for leaf in last_level:
        exits = in_S & (majority[flipped(leaf)] == -1)
        on_boundary |= exits
        law = glauber._state_kernel(system, digits, kernels, leaf)
        kernel = law[states, 1 - digits[:, leaf]]
        phi_sum += float((pi[exits] * kernel[exits]).sum()) / tree.node_count
    pi_S = float(pi[in_S].sum())
    return ExactMajorityStats(pi_S=pi_S,
                              flip_probability=float(pi[pivotal].sum()),
                              boundary_measure=float(pi[on_boundary].sum()),
                              phi_S=phi_sum / pi_S)
