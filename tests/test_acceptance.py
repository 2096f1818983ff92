"""Acceptance criteria, one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.
Every expected constant is pinned to an independent derivation: closed forms
evaluated inline, brute-force grid search, or exhaustive enumeration.
"""

import math
import time

import numpy as np
import pytest

from fastmix.chains import TransitionGraph, validate_chain
from fastmix.families import (complete_graph, geometric_graph, ising_tree,
                              knkn_graph, path_graph, torus_graph)
from fastmix.glauber import (TreeSpec, build_glauber_chain,
                             check_rate_improvement_limits, configuration_graph,
                             log_site_bounds, majority_cut_bound, optimal_rates,
                             prefix_cut_sizes, rates_from_log_bounds, site_bounds,
                             uniform_rates)
from fastmix.lower_bounds import (embedding_bound, expansion_lower_bound,
                                  make_geometric_embedding, make_knkn_embedding,
                                  make_torus_embedding, vertex_expansion)
from fastmix.solver import SolverConfig, solve_fastest_mixing
from fastmix.spectral import spectrum
from fastmix.chains import max_degree_chain, symmetric_walk
from fastmix.upper_bounds import (congestion, equalize_congestion,
                                  shortest_path_system)
from helpers import (check_congestion_soundness, check_rayleigh_dominates_gap, edge_ids,
                     exact_majority_stats, grid_oracle, random_connected_graph,
                     random_valid_chain)

SLACK = 1e-6
SQ2 = math.sqrt(2.0)


def verdict(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_linked_cliques_sandwich():
    t0 = time.monotonic()
    config = SolverConfig(max_iters=3000)
    worst = ""
    ok = True
    for n in range(3, 13):
        graph = knkn_graph(n)
        lower = embedding_bound(graph, make_knkn_embedding(n))
        assert lower == pytest.approx(0.5 + (n - 1) * (3 + 2 * SQ2) / 2, abs=1e-9)
        tau_solver = solve_fastest_mixing(graph, config).tau2_star
        equalized = equalize_congestion(graph, shortest_path_system(graph))
        tau_equalized = spectrum(equalized).relaxation_time
        upper = 3 * n * (1 - 5 / (6 * n))
        chain_ok = (lower <= tau_solver + SLACK
                    and tau_solver <= tau_equalized + SLACK
                    and tau_equalized <= upper + SLACK)
        if not chain_ok:
            ok = False
            worst = f"n={n}: {lower} <= {tau_solver} <= {tau_equalized} <= {upper}"
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    verdict(1, ok, worst or
            f"embedding <= solver <= equalized spectral <= 3n(1-5/(6n)) "
            f"for n=3..12 in {elapsed:.1f}s")


def test_criterion_02_equalization_closed_forms():
    # closed forms at n=3: bridge flow (n-2/3)/(2n(2n-5/3)) = 7/78, spoke
    # flow 1/(2n(2n-5/3)) = 1/26; note 7/78 + 2 * (1/26) = 1/6, the full
    # node budget, so no other spoke value is consistent with equalization
    graph = knkn_graph(3)
    chain = equalize_congestion(graph, shortest_path_system(graph))
    ids = edge_ids(graph)
    bridge = chain.flows[ids[(0, 3)]]
    spokes = [chain.flows[ids[e]] for e in ((0, 1), (0, 2), (3, 4), (3, 5))]
    ok = abs(bridge - 7 / 78) <= 1e-8 and all(abs(q - 1 / 26) <= 1e-8 for q in spokes)
    verdict(2, ok, f"Q(bridge)={bridge:.10f} (= 7/78), spoke flows = 1/26 "
                   f"within 1e-8")


def test_criterion_03_cycle4_optimality():
    graph = torus_graph(4, 1)
    bound = embedding_bound(graph, make_torus_embedding(4, 1))
    result = solve_fastest_mixing(graph, SolverConfig(max_iters=2000))
    ok = abs(bound - 1.0) <= 1e-12 and abs(result.tau2_star - 1.0) <= 1e-3
    verdict(3, ok, f"embedding bound {bound} (1e-12), solver tau2 "
                   f"{result.tau2_star} (1e-3): lower bound attained")


def test_criterion_04_torus_tightness():
    graph = torus_graph(3, 2)
    bound = embedding_bound(graph, make_torus_embedding(3, 2))
    tau_walk = spectrum(symmetric_walk(graph)).relaxation_time
    ok = (abs(bound - 4 / 3) <= 1e-9 and bound <= tau_walk + 1e-8
          and abs(bound - tau_walk) <= 1e-8)
    verdict(4, ok, f"torus 3x3: embedding bound {bound} equals walk tau2 {tau_walk}")


def test_criterion_05_geometric_bound():
    graph = geometric_graph(6, 2)
    bound = embedding_bound(graph, make_geometric_embedding(6, 2))
    tau = solve_fastest_mixing(graph, SolverConfig(max_iters=2000)).tau2_star
    rate = 6 ** 2 / (2 * 2 ** 2 * math.pi ** 2)
    ok = abs(bound - 2 / 3) <= 1e-9 and bound <= tau + SLACK and bound >= rate
    verdict(5, ok, f"geometric(6,2): bound {bound} <= solver {tau}, "
                   f">= asymptotic rate {rate:.4f}")


def test_criterion_06_vertex_expansion():
    for n in range(2, 7):
        upsilon, _ = vertex_expansion(knkn_graph(n))
        assert upsilon == pytest.approx(1 / n, abs=1e-12)
    rng = np.random.default_rng(2024)
    config = SolverConfig(max_iters=1200)
    violations = 0
    for _ in range(30):
        graph = random_connected_graph(rng, int(rng.integers(2, 9)))
        bound = expansion_lower_bound(graph).value
        tau = solve_fastest_mixing(graph, config).tau2_star
        if bound > tau + SLACK:
            violations += 1
    verdict(6, violations == 0,
            f"Upsilon = 1/n on linked cliques (n=2..6); expansion bound <= "
            f"solver tau2 on 30 random graphs ({violations} violations)")


def test_criterion_07_congestion_soundness():
    check_congestion_soundness(seed=777, cases=50, max_n=8)
    verdict(7, True, "tau2 <= rho_bar on 50 random chains (slack 1e-9)")


def test_criterion_08_solver_vs_grid_oracle():
    path = path_graph(3)
    oracle_path = grid_oracle(path, resolution=200)
    tau_path = solve_fastest_mixing(path, SolverConfig(max_iters=3000)).tau2_star

    k2 = TransitionGraph(2, [(0, 1)])
    tau_k2 = solve_fastest_mixing(k2, SolverConfig(max_iters=300)).tau2_star

    triangle = complete_graph(3)
    oracle_tri = grid_oracle(triangle, resolution=100)
    lam_tri = solve_fastest_mixing(triangle, SolverConfig(max_iters=3000)).lambda2_star

    ok = (abs(tau_path - 2.0) <= 1e-2
          and abs(oracle_path.lambda2 - 0.5) <= 2 * oracle_path.spacing
          and abs(tau_k2 - 0.5) <= 1e-12
          and abs(oracle_tri.lambda2 - (-0.5)) <= 1e-12
          and abs(lam_tri - oracle_tri.lambda2) <= 1e-3)
    verdict(8, ok, f"path3 tau2 {tau_path} (2 +- 1e-2); K2 tau2 {tau_k2} "
                   f"(1/2 to machine precision); triangle lambda2 {lam_tri} "
                   f"vs oracle {oracle_tri.lambda2} (-1/2: the trace bound "
                   f"lambda2 >= (tr P - 1)/2 is attained by the loopless "
                   f"uniform chain)")


def test_criterion_09_glauber_correctness():
    from fastmix.glauber import SpinSystem
    ok = True
    details = []
    for beta in (0.5, 1.0):
        edge = SpinSystem.ising(2, [(0, 1)], beta)
        tree, star = ising_tree(3, 1, beta)
        for system, rates, bounds_log in (
                (edge,
                 rates_from_log_bounds(log_site_bounds(2, prefix_cut_sizes(2, edge.edges, [0, 1]), 1, beta)),
                 log_site_bounds(2, prefix_cut_sizes(2, edge.edges, [0, 1]), 1, beta)),
                (star, optimal_rates(tree, beta), site_bounds(tree, beta).log_values)):
            uniform = build_glauber_chain(system, uniform_rates(system.n_sites))
            rated = build_glauber_chain(system, rates)
            pi = configuration_graph(system).pi
            flows = pi[:, None] * uniform.P
            balance = np.max(np.abs(flows - flows.T))
            ok &= balance <= 1e-10 and validate_chain(uniform) == []
            tau_u = spectrum(uniform).relaxation_time
            tau_r = spectrum(rated).relaxation_time
            max_b = math.exp(float(np.max(bounds_log)))
            mean_b = math.exp(float(np.log(np.exp(bounds_log).sum() / system.n_sites)))
            ok &= tau_u <= max_b + SLACK and tau_r <= mean_b + SLACK
        fastest = solve_fastest_mixing(configuration_graph(edge),
                                       SolverConfig(max_iters=1500))
        edge_rates = rates_from_log_bounds(
            log_site_bounds(2, prefix_cut_sizes(2, edge.edges, [0, 1]), 1, beta))
        report = check_rate_improvement_limits(
            edge, fastest, build_glauber_chain(edge, edge_rates))
        ok &= abs(report.kbar - (1 + math.exp(2 * beta))) <= 1e-9
        ok &= report.ok_fastest and report.ok_rated
        details.append(f"beta={beta}: balance/bounds/rate-limits hold")
    verdict(9, ok, "; ".join(details))


def test_criterion_10_level_recursion_identity():
    worst = 0.0
    for b in (2, 3):
        for r in range(2, 7):
            for beta in (0.25, 0.5, 1.0):
                report = site_bounds(TreeSpec(b, r), beta)
                worst = max(worst, abs(report.log_total - report.log_total_closed))
    verdict(10, worst <= 1e-6,
            f"node-by-node log total vs level recursion: max gap {worst:.2e}")


def test_criterion_11_recursive_majority_enumeration():
    t0 = time.monotonic()
    bound = majority_cut_bound(TreeSpec(3, 2), 1.0)
    stats = exact_majority_stats(TreeSpec(3, 2), 1.0)
    eps = 1 / (1 + math.exp(2.0))
    z = 2 * eps + 8 * eps ** 2
    elapsed = time.monotonic() - t0
    ok = (abs(bound.epsilon - eps) <= 1e-12
          and stats.flip_probability <= z
          and stats.boundary_measure <= (3 ** 2 / 2) * z
          and abs(stats.pi_S - 0.5) <= 1e-12
          and elapsed < 30.0)
    verdict(11, ok, f"flip prob {stats.flip_probability:.6f} <= {z:.6f}; "
                    f"pi(dS^c) {stats.boundary_measure:.6f} <= {(9 / 2) * z:.6f}; "
                    f"pi(S) = {stats.pi_S}; {elapsed:.1f}s")


def test_criterion_12_property_suite():
    t0 = time.monotonic()
    check_rayleigh_dominates_gap(seed=0, chains=200, functions=20)
    check_congestion_soundness(seed=0, cases=50)
    rng = np.random.default_rng(0)
    for _ in range(10):
        graph = random_connected_graph(rng, int(rng.integers(2, 9)))
        chain = random_valid_chain(rng, graph)
        rows = (graph.pi[:, None] * chain.P).sum(axis=1)
        assert np.all(np.abs(rows - graph.pi) <= 1e-10)
        W = shortest_path_system(graph)
        rho_eq = congestion(equalize_congestion(graph, W), W).rho_bar
        rho_pd = congestion(max_degree_chain(graph), W).rho_bar
        assert rho_eq <= rho_pd + 1e-9
    elapsed = time.monotonic() - t0
    verdict(12, True, f"seeded property suite re-ran green in {elapsed:.1f}s")
