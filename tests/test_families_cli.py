import csv
import dataclasses
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fastmix import cli, experiments, families
from fastmix.chains import (EDGE_CAP, ReversibleChain, TransitionGraph, check_edge_count,
                            max_degree_chain)
from fastmix.lower_bounds import (embedding_bound, expansion_lower_bound,
                                  make_geometric_embedding, make_torus_embedding)
from fastmix.solver import SolverConfig, solve_fastest_mixing
from fastmix.spectral import spectrum
from fastmix.upper_bounds import congestion, equalize_congestion, shortest_path_system
from helpers import (congestion_reference, edge_pairs, geometric_embedding_reference,
                     lattice_reference, neighbors, random_connected_graph,
                     torus_coordinates_reference, torus_embedding_reference)


# hostile JSON: every kind of value, nested, in place of a field or an entry
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 8) | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.sampled_from(["n", "edges", "pi", "d", "psi", "w"]), inner,
                      max_size=3),
    max_leaves=12)


def _spoiled(draw, data):
    """``data`` as is, as any JSON value, or with fields dropped, replaced,
    resized or given a hostile entry."""
    mode = draw(st.sampled_from(["valid", "fields", "fields", "hostile"]))
    if mode == "hostile":
        return draw(_json_values)
    for key in list(data if mode == "fields" else ()):
        action = draw(st.sampled_from(["keep", "drop", "replace", "resize", "entry"]))
        value = data[key]
        if action == "drop":
            del data[key]
        elif action == "replace":
            data[key] = draw(_json_values)
        elif isinstance(value, list) and action == "resize":
            data[key] = value[:draw(st.integers(0, len(value)))] + \
                draw(st.lists(_json_values, max_size=2))
        elif isinstance(value, list) and value and action == "entry":
            value[draw(st.integers(0, len(value) - 1))] = draw(_json_values)
    return data


# nested past the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _json_text(draw, data):
    """``data`` spoiled (see ``_spoiled``) as JSON text, now and then nested too deeply."""
    if draw(st.integers(0, 15)) == 0:
        return DEEP_JSON
    return json.dumps(_spoiled(draw, data))


def _chain_csv(draw, graph):
    """The max-degree chain of ``graph`` as CSV bytes, valid or broken in one way.

    Returns the bytes and what ``spectral --chain`` must print to stderr:
    None where the file is valid, else the parse error or the first dense
    violation it holds.
    """
    n = graph.n
    P = max_degree_chain(graph).P.copy()
    edges = edge_pairs(graph)
    non_edges = [(i, j) for i in range(n) for j in range(n)
                 if i != j and (min(i, j), max(i, j)) not in edges]
    kinds = ["valid", "empty", "text", "nan", "inf", "bytes", "shape", "negative"]
    kinds += ["ragged", "balance"] if n > 1 else []
    kinds += ["off_edge"] if non_edges else []
    kind = draw(st.sampled_from(kinds))
    i, j = draw(st.sampled_from(edges)) if n > 1 else (0, 0)
    expect = None
    if kind in ("nan", "inf"):
        P[i, j] = float(kind)
        expect = f"invalid chain: negative or non-finite entry P[{i},{j}] = {P[i, j]:.3e}"
    elif kind == "negative":
        P[i, j] = -0.125
        expect = f"invalid chain: negative or non-finite entry P[{i},{j}] = -1.250e-01"
    elif kind == "off_edge":
        # mass moved from the diagonal keeps the row sum
        i, j = draw(st.sampled_from(non_edges))
        shift = P[i, i] / 2
        P[i, i] -= shift
        P[i, j] = shift
        expect = f"invalid chain: mass {shift:.3e} on non-edge ({i},{j})"
    elif kind == "balance":
        shift = P[i, i] / 2
        P[i, i] -= shift
        P[i, j] += shift
        expect = f"invalid chain: detailed balance broken on ({min(i, j)},{max(i, j)})"
    rows = [[repr(float(x)) for x in row] for row in P]
    if kind == "ragged":
        rows[0].pop()
        expect = "not an array of numbers"
    elif kind == "text":
        rows[0][0] = "abc"
        expect = "could not convert string to float: 'abc'"
    elif kind == "shape":
        rows = [row + ["0.0"] for row in rows]
        expect = f"P has shape ({n}, {n + 1}), expected ({n},{n})"
    text = "".join(",".join(row) + "\n" for row in rows).encode()
    if kind == "empty":
        return b"", "P has shape (0,), expected"
    if kind == "bytes":
        return b"\xff\xfe" + text, "invalid input: "
    return text, expect


@st.composite
def instance_files(draw):
    """Graph JSON, embedding JSON and chain CSV on up to 6 nodes.

    Each file is valid or spoiled.  ``intact`` says whether the graph file
    is the valid one, against which the CSV's expected message holds.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    graph = random_connected_graph(rng, n)
    valid = json.dumps(graph.to_json_dict())
    graph_text = _json_text(draw, graph.to_json_dict())
    embedding = {"d": 1, "psi": [[0.0]] * n, "w": [1.0] * n}
    chain, expect = _chain_csv(draw, graph)
    return {"graph": graph_text, "embedding": _json_text(draw, embedding),
            "chain": chain, "expect": expect, "intact": graph_text == valid}


class TestGenerators:
    def test_linked_cliques_counts(self):
        graph = families.knkn_graph(3)
        assert graph.n == 6
        assert len(graph.ends) == 7
        assert (0, 3) in edge_pairs(graph)

    def test_torus_counts(self):
        graph = families.torus_graph(3, 2)
        assert graph.n == 9
        assert len(graph.ends) == 18

    def test_geometric_degrees(self):
        graph = families.geometric_graph(6, 2, d=1)
        assert np.diff(graph.star_offsets).tolist() == [4] * 6

    def test_torus_indexing_row_major(self):
        # node 5 of the 3 x 3 torus is (1, 2): first coordinate slowest
        assert neighbors(families.torus_graph(3, 2), 5) == (2, 3, 4, 8)
        assert [torus_coordinates_reference(i, 3, 2) for i in range(9)] == \
            [(a, b) for a in range(3) for b in range(3)]

    @pytest.mark.parametrize("family, params", [
        ("knkn", {"n": 2}), ("knkn", {"n": 7}), ("cycle", {"n": 9}),
        ("torus", {"m": 3, "d": 1}), ("torus", {"m": 4, "d": 3}),
        ("geometric", {"m": 6, "k": 2}), ("geometric", {"m": 8, "k": 2, "d": 2}),
        ("geometric", {"m": 10, "k": 1, "d": 3})])
    def test_edge_count_from_the_parameters(self, monkeypatch, family, params):
        counts = []

        def recorded(count, what):
            counts.append(count)
            check_edge_count(count, what)

        monkeypatch.setattr(families, "check_edge_count", recorded)
        graph = families.generate(family, params)
        assert counts == [len(graph.ends)]

    def test_edge_cap_is_inclusive(self):
        check_edge_count(EDGE_CAP, "at the cap")
        with pytest.raises(ValueError, match=f"past the cap of {EDGE_CAP}"):
            check_edge_count(EDGE_CAP + 1, "past the cap")

    def test_oversized_generators_exit_2_before_building(self):
        # one child process under a 2 GB address-space limit and a timeout, so
        # a generator that built these would fail the test, not the machine
        cases = [["--family", "knkn", "--param", "n=" + "1" + "0" * 20],
                 ["--family", "cycle", "--param", "n=" + "1" + "0" * 20],
                 ["--family", "geometric", "--param", "m=4", "--param", "k=1",
                  "--param", "d=100"],
                 ["--family", "geometric", "--param", "m=" + "1" + "0" * 400,
                  "--param", "k=1"],
                 ["--family", "geometric", "--param", "m=" + "1" + "0" * 400,
                  "--param", "k=" + "1" + "0" * 399],
                 ["--family", "torus", "--param", "m=3", "--param", "d=22"],
                 ["--family", "torus", "--param", "m=1449", "--param", "d=2"]]
        script = ("import json, sys\nfrom fastmix import cli\n"
                  "print(json.dumps([cli.main(['gen'] + a) for a in json.loads(sys.argv[1])]))")

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))

        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", script, json.dumps(cases)],
                              capture_output=True, text=True, timeout=60, preexec_fn=limit,
                              env={"PYTHONPATH": str(src), "PATH": "",
                                   "OPENBLAS_NUM_THREADS": "1"})
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [cli.EXIT_VALIDATION] * len(cases)
        errors = done.stderr.splitlines()
        assert len(errors) == len(cases)
        assert all(f"past the cap of {EDGE_CAP}" in line for line in errors)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="need n >= 3"):
            families.generate("cycle", {"n": 2})
        with pytest.raises(ValueError):
            families.geometric_graph(6, 3)
        with pytest.raises(ValueError):
            families.geometric_graph(7, 2)
        with pytest.raises(ValueError):
            families.generate("nope", {})

    def test_generate_dispatch(self):
        graph = families.generate("cycle", {"n": "5"})
        assert graph.n == 5
        tree, system = families.generate("ising_tree", {"b": 3, "r": 1, "beta": 1.0})
        assert tree.node_count == 4 and system.n_sites == 4

    def test_round_trip_bitwise(self, tmp_path):
        for family, params in [("knkn", {"n": 4}), ("cycle", {"n": 6}),
                               ("torus", {"m": 3, "d": 2}),
                               ("geometric", {"m": 6, "k": 2})]:
            graph = families.generate(family, params)
            path = tmp_path / f"{family}.json"
            graph.save(path)
            back = TransitionGraph.load(path)
            assert np.array_equal(back.ends, graph.ends)
            assert np.array_equal(back.pi, graph.pi)


# the lattices whose N x N x d gap table (N = m^d) fits the edge cap, as the
# table generator admitted them: tori (k None) and geometric graphs
TABLED_LATTICES = [(m, d, k) for m in range(3, 13) for d in (1, 2, 3)
                   for k in [None] + [k for k in range(1, m) if 2 * k < m and m % k == 0]
                   if m ** (2 * d) * d <= EDGE_CAP]


class TestLattice:
    @pytest.mark.parametrize("m, d, k", TABLED_LATTICES)
    def test_graph_matches_the_gap_table(self, m, d, k):
        graph = families.torus_graph(m, d) if k is None else families.geometric_graph(m, k, d)
        reference = lattice_reference(m, d, k)
        assert graph.ends.tobytes() == reference.ends.tobytes()
        assert graph.pi.tobytes() == reference.pi.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", range(3, 13))
    def test_embeddings_match_the_node_loops(self, m, d):
        torus = make_torus_embedding(m, d)
        assert torus.vectors.tobytes() == torus_embedding_reference(m, d).tobytes()
        assert torus.slacks.tobytes() == np.ones(m ** d).tobytes()
        for k in [k for k in range(1, m) if 2 * k < m and m % k == 0]:
            geometric = make_geometric_embedding(m, k, d)
            assert geometric.vectors.tobytes() == geometric_embedding_reference(m, k, d).tobytes()
            assert geometric.slacks.tobytes() == np.ones(m ** d).tobytes()

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_is_the_one_dimensional_torus(self, n):
        cycle = families.generate("cycle", {"n": str(n)})
        assert edge_pairs(cycle) == tuple(sorted((min(i, (i + 1) % n), max(i, (i + 1) % n))
                                                 for i in range(n)))
        assert cycle.ends.tobytes() == families.torus_graph(n, 1).ends.tobytes()
        emb = experiments._family_embedding("cycle", {"n": str(n)})
        assert emb.vectors.tobytes() == torus_embedding_reference(n, 1).tobytes()

    def test_geometric_past_the_old_table(self, capsys):
        # 10^6 x 3 gap entries were past the cap; the graph has 1000 * 26 / 2 edges
        graph = families.geometric_graph(10, 1, 3)
        assert len(graph.ends) == 13_000
        assert np.diff(graph.star_offsets).tolist() == [26] * 1000
        bound = embedding_bound(graph, make_geometric_embedding(10, 1, 3))
        assert bound == pytest.approx(1 / (2 * math.sin(math.pi / 10) ** 2), rel=1e-12)
        assert cli.main(["gen", "--family", "geometric", "--param", "m=10", "--param", "k=1",
                         "--param", "d=3"]) == cli.EXIT_OK
        assert len(strict_json(capsys.readouterr().out)["edges"]) == 13_000


class TestExperiments:
    def test_cycle_row_sandwich(self):
        spec = experiments.ExperimentSpec(
            family="cycle", params={"n": 4},
            solver=SolverConfig(max_iters=1500))
        row = experiments.run_experiment(spec)
        assert row["lb_embed"] == pytest.approx(1.0, abs=1e-9)
        assert row["lb_embed"] <= row["tau2_solver"] + 1e-6
        assert row["tau2_solver"] <= row["ub_congestion"] + 1e-6
        assert row["tau2_solver"] <= row["ub_cheeger"] + 1e-6

    def test_linked_cliques_sweep_monotone(self):
        config = SolverConfig(max_iters=2000)
        rows = [experiments.run_experiment(
            experiments.ExperimentSpec(family="knkn", params={"n": n}, solver=config))
            for n in (3, 4, 5)]
        for col in ("lb_embed", "tau2_solver", "ub_congestion"):
            values = [row[col] for row in rows]
            assert values == sorted(values)
        for row in rows:
            # the two closed forms stay within a few percent of each other
            assert 1.0 <= row["ub_congestion"] / row["lb_embed"] <= 1.04

    def test_ising_row(self):
        spec = experiments.ExperimentSpec(family="ising_tree",
                                          params={"b": 3, "r": 1, "beta": 1.0})
        row = experiments.run_experiment(spec)
        assert row["prop_ok"] is True
        assert row["max_width"] == 3
        assert row["tau2_rated"] is not None

    def test_one_subset_enumeration_per_row(self, monkeypatch):
        from fastmix import lower_bounds, upper_bounds
        calls = []
        original = lower_bounds.vertex_expansion

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(lower_bounds, "vertex_expansion", counted)
        monkeypatch.setattr(upper_bounds, "vertex_expansion", counted)
        spec = experiments.ExperimentSpec(family="knkn", params={"n": 3},
                                          solver=SolverConfig(max_iters=200))
        row = experiments.run_experiment(spec)
        assert len(calls) == 1
        graph = families.knkn_graph(3)
        assert row["ub_cheeger"] == upper_bounds.cheeger_upper_bound(graph)
        assert row["lb_expansion"] == lower_bounds.expansion_lower_bound(graph).value

    def test_expansion_cap_is_the_enumeration_cap(self, tmp_path):
        from fastmix import lower_bounds
        assert not hasattr(experiments, "EXPANSION_ENUM_CAP")
        assert lower_bounds.EXHAUSTIVE_NODE_CAP == 20
        path = tmp_path / "g18.json"
        random_connected_graph(np.random.default_rng(18), 18, extra_edge_prob=0.2).save(path)
        row = experiments.run_experiment(
            experiments.ExperimentSpec(family="custom", params={"path": str(path)}))
        assert row["lb_expansion"] is not None and row["ub_cheeger"] is not None
        assert row["lb_expansion"] <= row["tau2_solver"] <= row["ub_cheeger"]

    def test_ising_row_builds_one_configuration_graph(self, monkeypatch):
        from fastmix import glauber
        calls = []
        original = glauber.configuration_graph

        def counted(system):
            calls.append(system)
            return original(system)

        monkeypatch.setattr(glauber, "configuration_graph", counted)
        spec = experiments.ExperimentSpec(family="ising_tree",
                                          params={"b": 2, "r": 2, "beta": 0.5})
        row = experiments.run_experiment(spec)
        assert len(calls) == 1
        monkeypatch.undo()
        assert row == experiments.run_experiment(spec)

    @pytest.mark.parametrize("run", ["report", "glauber"])
    def test_one_site_bound_evaluation_per_ising_run(self, monkeypatch, capsys, run):
        # the rated chain takes its rates from the row's own site bounds
        from fastmix import glauber
        calls = []
        original = glauber.site_bounds

        def counted(tree, beta):
            calls.append(tree)
            return original(tree, beta)

        monkeypatch.setattr(glauber, "site_bounds", counted)
        if run == "report":
            row = experiments.run_experiment(experiments.ExperimentSpec(
                family="ising_tree", params={"b": 2, "r": 2, "beta": 0.5}))
            assert len(calls) == 1 and row["prop_ok"] is True
        else:
            assert cli.main(["glauber", "--tree", "2,2", "--beta", "0.5", "--exact"]) == 0
            assert len(calls) == 1
            rates = json.loads(capsys.readouterr().out)["rates"]
            assert rates == glauber.optimal_rates(glauber.TreeSpec(2, 2), 0.5).rho.tolist()

    def test_bound_inversion_detected(self):
        row = {"family": "cycle", "params": {"n": 4}, "lb_embed": 2.0,
               "lb_expansion": None, "tau2_solver": 1.0,
               "ub_congestion": 3.0, "ub_cheeger": None, "tau2_standard": 1.5}
        with pytest.raises(experiments.BoundInversionError, match="lower bound"):
            experiments._check_graph_row(row)
        # the best lower bound above an upper bound: proven bounds disagree
        row.update(lb_embed=0.95, ub_congestion=0.9)
        with pytest.raises(experiments.BoundInversionError, match="upper bound"):
            experiments._check_graph_row(row)

    def test_solver_error_above_a_tight_upper_bound_passes(self):
        # the solver is within ~1e-7 relative of tau*, so on a tight row it
        # may exceed an upper bound by more than the absolute slack; what is
        # proven, lower <= tau* <= upper and lower <= tau2_solver, still holds
        row = {"family": "custom", "params": {}, "lb_embed": 20.0,
               "lb_expansion": None, "tau2_solver": 20.0000021,
               "ub_congestion": 20.000001, "ub_cheeger": None, "tau2_standard": 25.0}
        experiments._check_graph_row(row)

    def test_lower_bound_above_an_upper_bound_is_an_inversion(self):
        row = {"family": "custom", "params": {}, "lb_embed": 20.1,
               "lb_expansion": None, "tau2_solver": 20.2,
               "ub_congestion": 20.0, "ub_cheeger": None, "tau2_standard": 25.0}
        with pytest.raises(experiments.BoundInversionError,
                           match="lower bound 20.1 exceeds upper bound 20.0"):
            experiments._check_graph_row(row)

    def test_nan_graph_row_is_an_inversion(self):
        row = {"family": "cycle", "params": {"n": 4}, "lb_embed": 0.5,
               "lb_expansion": None, "tau2_solver": float("nan"),
               "ub_congestion": 3.0, "ub_cheeger": None, "tau2_standard": 1.5}
        with pytest.raises(experiments.BoundInversionError, match="lower bound"):
            experiments._check_graph_row(row)
        row.update(tau2_solver=1.0, lb_embed=None, ub_congestion=float("nan"))
        with pytest.raises(experiments.BoundInversionError, match="upper bound"):
            experiments._check_graph_row(row)

    def test_nan_majority_bound_is_an_inversion(self, monkeypatch):
        from fastmix import glauber
        original = glauber.majority_cut_bound

        def nan_bound(tree, beta):
            return dataclasses.replace(original(tree, beta), lambda2_lower=float("nan"),
                                       vacuous=False)

        monkeypatch.setattr(glauber, "majority_cut_bound", nan_bound)
        spec = experiments.ExperimentSpec(family="ising_tree",
                                          params={"b": 3, "r": 1, "beta": 1.0})
        with pytest.raises(experiments.BoundInversionError, match="majority-cut"):
            experiments.run_experiment(spec)

    def test_custom_row_carries_the_dual_bound(self, tmp_path):
        path = tmp_path / "g.json"
        random_connected_graph(np.random.default_rng(8), 10).save(path)
        row = experiments.run_experiment(
            experiments.ExperimentSpec(family="custom", params={"path": str(path)}))
        assert row["lb_embed"] is not None
        assert row["lb_expansion"] <= row["lb_embed"] <= row["tau2_solver"]
        gap = (row["tau2_solver"] - row["lb_embed"]) / row["tau2_solver"]
        assert row["certified_gap"] == pytest.approx(gap, rel=1e-12)
        assert row["certified_gap"] <= 1e-4

    def test_row_keeps_the_larger_closed_form_bound(self):
        row = experiments.run_experiment(
            experiments.ExperimentSpec(family="geometric", params={"m": 6, "k": 2}))
        # the geometric closed form is 2/3; the optimum, and the dual, is 1
        assert row["lb_embed"] == pytest.approx(1.0, rel=1e-5)
        row = experiments.run_experiment(
            experiments.ExperimentSpec(family="torus", params={"m": 5, "d": 2}))
        closed = 1 / math.sin(math.pi / 5) ** 2
        assert row["lb_embed"] == pytest.approx(closed, rel=1e-12)
        assert row["lb_embed"] >= closed
        assert row["tau2_solver"] == pytest.approx(closed, rel=1e-9)

    def test_graph_row_computes_loads_once(self, monkeypatch):
        from fastmix import upper_bounds
        calls = []
        original = upper_bounds.shortest_path_system

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(upper_bounds, "shortest_path_system", counted)
        row = experiments.run_experiment(
            experiments.ExperimentSpec(family="knkn", params={"n": 4}))
        assert len(calls) == 1
        graph = families.knkn_graph(4)
        W = upper_bounds.shortest_path_system(graph)
        alone = upper_bounds.congestion(upper_bounds.equalize_congestion(graph, W), W).rho_bar
        assert row["ub_congestion"] == alone

    def test_write_table_csv(self, tmp_path):
        spec = experiments.ExperimentSpec(
            family="cycle", params={"n": 4}, solver=SolverConfig(max_iters=1000))
        rows = [experiments.run_experiment(spec)]
        out = tmp_path / "rows.csv"
        with out.open("w", newline="") as handle:
            experiments.write_table(rows, handle, fmt="csv")
        text = out.read_text().splitlines()
        assert text[0] == ",".join(experiments.GRAPH_COLUMNS)
        assert len(text) == 2
        # the JSON row also carries certified_gap; the CSV columns do not
        assert "certified_gap" in rows[0]
        assert len(next(csv.reader([text[1]]))) == len(experiments.GRAPH_COLUMNS)


def strict_json(text):
    """``text`` parsed as strict JSON: NaN and +-Infinity are refused."""
    def refuse(constant):
        raise AssertionError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


def check_upper_payload(graph, chain, payload):
    """The ``fastmix upper`` JSON of ``chain``: W and ratios keyed "i,j" in edge
    order, bitwise the loop's values with +inf as null; argmax_edge a list
    naming the worst ratio, which is rho_bar."""
    W = shortest_path_system(graph)
    loads, ratios, rho_bar, argmax = congestion_reference(chain, W)
    keys = [f"{i},{j}" for i, j in graph.ends.tolist()]
    got = {key: math.inf if r is None else r for key, r in payload["ratios"].items()}
    rho = math.inf if payload["rho_bar"] is None else payload["rho_bar"]
    assert list(payload["W"]) == list(got) == keys
    assert np.array(list(payload["W"].values())).tobytes() == loads.tobytes()
    assert np.array(list(got.values())).tobytes() == ratios.tobytes()
    assert payload["argmax_edge"] == list(argmax)
    assert rho == rho_bar == max(got.values())
    assert got["{},{}".format(*payload["argmax_edge"])] == rho_bar


class TestCli:
    def test_gen_and_lower(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert cli.main(["gen", "--family", "knkn", "--param", "n=3",
                         "--out", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["lower", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lb_expansion"] == pytest.approx(1.5)

    def test_expansion_fields_stop_at_the_cap(self, tmp_path, capsys):
        gpath = tmp_path / "c21.json"
        families.torus_graph(21, 1).save(gpath)
        assert cli.main(["lower", str(gpath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not {"vertex_expansion", "lb_expansion", "expansion_subset"} & set(payload)
        assert cli.main(["upper", str(gpath)]) == 0
        assert "ub_cheeger" not in json.loads(capsys.readouterr().out)

    def test_lower_with_embedding(self, tmp_path, capsys):
        gpath = tmp_path / "c4.json"
        families.torus_graph(4, 1).save(gpath)
        epath = tmp_path / "emb.json"
        make_torus_embedding(4, 1).save(epath)
        assert cli.main(["lower", str(gpath), "--embedding", str(epath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lb_embed"] == pytest.approx(1.0)

    def test_upper_writes_chain(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        families.knkn_graph(3).save(gpath)
        cpath = tmp_path / "eq.csv"
        assert cli.main(["upper", str(gpath), "--out-chain", str(cpath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rho_bar"] == pytest.approx(6.5)
        assert cpath.exists()

    @pytest.mark.parametrize("graph", [families.knkn_graph(3), families.torus_graph(5, 1)],
                             ids=["knkn3", "cycle5"])
    def test_upper_json_contract(self, tmp_path, capsys, graph):
        gpath = tmp_path / "g.json"
        graph.save(gpath)
        assert cli.main(["upper", str(gpath)]) == 0
        payload = json.loads(capsys.readouterr().out)
        chain = equalize_congestion(graph, shortest_path_system(graph))
        check_upper_payload(graph, chain, payload)

    def test_upper_json_contract_with_a_zero_flow_edge(self, capsys):
        # the loaded edge (2,3) carries no flow: its ratio, and rho_bar, are
        # +inf, printed as null
        graph = families.torus_graph(4, 1)
        chain = ReversibleChain(graph, [0.25, 0.25, 0.25, 0.0])
        cli._emit(congestion(chain, shortest_path_system(graph)).to_json_dict())
        payload = strict_json(capsys.readouterr().out)
        assert payload["rho_bar"] is None and payload["argmax_edge"] == [2, 3]
        check_upper_payload(graph, chain, payload)

    def test_solve_subcommand(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        families.torus_graph(4, 1).save(gpath)
        assert cli.main(["solve", str(gpath), "--iters", "500"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["tau2_star"] == pytest.approx(1.0, abs=1e-3)
        assert payload["lower_bound"] <= payload["tau2_star"]
        assert 0.0 <= payload["certified_gap"] <= 1e-4
        assert 1 <= payload["iterations"] <= 500

    def test_solve_iters_caps_newton_steps(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        families.torus_graph(6, 1).save(gpath)
        assert cli.main(["solve", str(gpath), "--iters", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["iterations"] <= 3
        assert payload["lower_bound"] <= payload["tau2_star"]

    @pytest.mark.parametrize("iters", ["0", "-5"])
    def test_solve_rejects_bad_iters(self, tmp_path, capsys, iters):
        gpath = tmp_path / "g.json"
        families.torus_graph(4, 1).save(gpath)
        assert cli.main(["solve", str(gpath), f"--iters={iters}"]) == cli.EXIT_VALIDATION
        assert "max_iters" in capsys.readouterr().err

    def test_lower_rejects_nan_embedding(self, tmp_path, capsys):
        gpath = tmp_path / "c4.json"
        families.torus_graph(4, 1).save(gpath)
        epath = tmp_path / "nan.json"
        epath.write_text('{"d": 1, "psi": [[NaN], [NaN], [NaN], [NaN]], '
                         '"w": [NaN, NaN, NaN, NaN]}')
        assert cli.main(["lower", str(gpath), "--embedding", str(epath)]) == \
            cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    def test_spectral_rejects_nan_chain(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        families.torus_graph(4, 1).save(gpath)
        cpath = tmp_path / "nan.csv"
        cpath.write_text("\n".join(",".join(["nan"] * 4) for _ in range(4)) + "\n")
        assert cli.main(["spectral", str(gpath), "--chain", str(cpath)]) == \
            cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "non-finite" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["upper", "solve"])
    def test_chain_csv_round_trip(self, tmp_path, capsys, command):
        # the written chain, read back as its edge flows, has the spectrum of
        # the chain computed in process
        graph = random_connected_graph(np.random.default_rng(12), 8)
        gpath, cpath = tmp_path / "g.json", tmp_path / "chain.csv"
        graph.save(gpath)
        if command == "upper":
            chain = equalize_congestion(graph, shortest_path_system(graph))
        else:
            chain = solve_fastest_mixing(graph).chain
        assert cli.main([command, str(gpath), "--out-chain", str(cpath)]) == 0
        assert json.loads(capsys.readouterr().out)["chain_csv"] == str(cpath)
        assert cli.main(["spectral", str(gpath), "--chain", str(cpath)]) == 0
        expected = spectrum(chain).relaxation_time
        assert json.loads(capsys.readouterr().out)["relaxation_time"] == \
            pytest.approx(expected, rel=1e-12, abs=0)

    def test_walk_on_a_non_regular_graph_exits_2(self, tmp_path, capsys):
        gpath = tmp_path / "path.json"
        TransitionGraph(3, [(0, 1), (1, 2)]).save(gpath)
        assert cli.main(["spectral", str(gpath), "--standard", "walk"]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "not regular" in captured.err and captured.out == ""

    def test_upper_computes_loads_once(self, tmp_path, capsys, monkeypatch):
        from fastmix import upper_bounds
        calls = []
        original = upper_bounds.shortest_path_system

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(upper_bounds, "shortest_path_system", counted)
        gpath = tmp_path / "g.json"
        families.knkn_graph(4).save(gpath)
        assert cli.main(["upper", str(gpath)]) == 0
        assert len(calls) == 1
        assert json.loads(capsys.readouterr().out)["rho_bar"] == pytest.approx(
            3 * 4 * (1 - 5 / (6 * 4)))

    def test_spectral_with_chain(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        families.torus_graph(4, 1).save(gpath)
        assert cli.main(["spectral", str(gpath), "--standard", "walk"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda2"] == pytest.approx(0.0, abs=1e-10)

    def test_glauber_subcommand(self, capsys):
        assert cli.main(["glauber", "--tree", "3,1", "--beta", "1.0",
                         "--exact"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["widths"] == [3, 2, 1, 0]
        assert payload["tau2_exact"] > 0

    def test_glauber_exact_past_the_dense_cap_exits_2(self, capsys):
        # 1024 states: past glauber.DENSE_STATE_CAP, so no spectrum is taken
        assert cli.main(["glauber", "--tree", "9,1", "--beta", "0.5",
                         "--exact"]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "state space 1024 exceeds the dense chain cap 512" in captured.err

    def test_glauber_rejects_nan_beta(self, capsys):
        assert cli.main(["glauber", "--tree", "3,1", "--beta", "nan"]) == cli.EXIT_VALIDATION
        assert "positive and finite" in capsys.readouterr().err

    def test_format_belongs_to_report(self, tmp_path, capsys):
        gpath = tmp_path / "g.json"
        families.torus_graph(4, 1).save(gpath)
        with pytest.raises(SystemExit) as exit_:
            cli.main(["upper", str(gpath), "--format", "csv"])
        assert exit_.value.code == cli.EXIT_VALIDATION
        assert "--format" in capsys.readouterr().err

    def test_one_newton_step_default(self):
        parser = cli.build_parser()
        for argv in (["solve", "g.json"], ["report", "--family", "knkn", "--sweep", "n=3"]):
            assert parser.parse_args(argv).iters == SolverConfig().max_iters == 3000

    @pytest.mark.parametrize("argv", [
        ["glauber", "--tree", "3,1", "--beta", "800"],
        ["report", "--family", "ising_tree", "--sweep", "b=3;r=1;beta=800"]])
    def test_overflowing_coupling_exits_2(self, capsys, argv):
        assert cli.main(argv) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "overflows" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["spectral", "upper", "solve"])
    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # a stage that cannot allocate its dense arrays; no test asks for a
        # huge allocation itself
        def no_room(graph, *args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB")

        gpath = tmp_path / "g.json"
        families.torus_graph(4, 1).save(gpath)
        monkeypatch.setattr(cli, "max_degree_chain", no_room)
        monkeypatch.setattr(cli.upper_bounds, "shortest_path_system", no_room)
        monkeypatch.setattr(cli, "solve_fastest_mixing", no_room)
        assert cli.main([command, str(gpath)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "too large for dense storage" in captured.err and captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = cli.main(["report", "--family", "cycle", "--sweep", "n=4",
                         "--iters", "1500", "--out", str(out), "--format", "csv"])
        assert code == 0
        assert out.read_text().startswith("family,")
        # stdout carries the file's header and rows, byte for byte
        assert capsys.readouterr().out == out.read_bytes().decode()
        printed = list(csv.reader(out.read_text().splitlines()))
        assert printed[0] == list(experiments.GRAPH_COLUMNS)
        row = experiments.run_experiment(
            experiments.ExperimentSpec("cycle", {"n": "4"}, SolverConfig(max_iters=1500)))
        assert printed[1] == ["cycle", '{"n": "4"}'] + [
            str(row[key]) for key in experiments.GRAPH_COLUMNS[2:]]

    def test_report_csv_quotes_multi_parameter_rows(self, capsys):
        code = cli.main(["report", "--family", "torus", "--sweep", "m=3;d=2",
                         "--format", "csv"])
        assert code == 0
        printed = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert len(printed) == 2
        assert all(len(fields) == len(experiments.GRAPH_COLUMNS) for fields in printed)
        assert printed[1][:2] == ["torus", '{"d": "2", "m": "3"}']

    def test_report_json_file_matches_stdout(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        assert cli.main(["report", "--family", "cycle", "--sweep", "n=4",
                         "--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_validation_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"n\": 2, \"edges\": [[0, 0]]}")
        assert cli.main(["lower", str(bad)]) == cli.EXIT_VALIDATION

    def test_inversion_exit_code(self, monkeypatch, capsys):
        def boom(spec):
            raise experiments.BoundInversionError("forced")
        monkeypatch.setattr(experiments, "run_experiment", boom)
        code = cli.main(["report", "--family", "knkn", "--sweep", "n=3"])
        assert code == cli.EXIT_INVERSION

    @pytest.mark.parametrize("command", [["spectral"],
                                         ["report", "--family", "custom", "--sweep"]])
    def test_nan_pi_exit_code(self, tmp_path, capsys, command):
        bad = tmp_path / "nan.json"
        bad.write_text('{"n": 2, "edges": [[0, 1]], "pi": [NaN, NaN]}')
        target = str(bad) if command == ["spectral"] else f"path={bad}"
        assert cli.main(command + [target]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "finite" in captured.err and captured.out == ""

    def test_malformed_edge_exit_code(self, tmp_path, capsys):
        # [0, 1.9] used to be read as the edge (0, 1)
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2, "edges": [[0, 1.9]]}')
        assert cli.main(["spectral", str(bad)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert "[0, 1.9]" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command, missing", [
        (["gen", "--family", "knkn"], "'n'"),
        (["report", "--family", "torus", "--sweep", "m=6"], "'d'")])
    def test_missing_family_parameter_exit_code(self, capsys, command, missing):
        assert cli.main(command) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert f"family '{command[2]}' needs the parameter {missing}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        ('{"edges": [[0, 1]]}', "lacks the key 'n'"),
        ('{"n": 2}', "lacks the key 'edges'"),
        ('{"n": 2.9, "edges": [[0, 1]]}', "node count 2.9"),
        ('{"n": "2", "edges": [[0, 1]]}', "node count '2'"),
        ('{"n": Infinity, "edges": [[0, 1]]}', "node count inf"),
        ('[0, 1]', "not a JSON object")])
    def test_malformed_graph_file_exit_code(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert cli.main(["spectral", str(bad)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_missing_file_exit_code(self, capsys):
        assert cli.main(["spectral", "/nonexistent/g.json"]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["lower", "upper", "solve"])
    def test_one_node_graph_exit_code(self, tmp_path, capsys, command):
        # one node has no pair to route and no cut to take
        gpath = tmp_path / "one.json"
        gpath.write_text('{"n": 1, "edges": []}')
        assert cli.main([command, str(gpath)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, message", [
        ('{"d": 1, "w": [1, 1, 1, 1]}', "lacks the key 'psi'"),
        ('[1, 2]', "not a JSON object")])
    def test_malformed_embedding_file_exit_code(self, tmp_path, capsys, text, message):
        gpath = tmp_path / "c4.json"
        families.torus_graph(4, 1).save(gpath)
        epath = tmp_path / "bad.json"
        epath.write_text(text)
        assert cli.main(["lower", str(gpath), "--embedding", str(epath)]) == \
            cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(instance_files())
    @example({"graph": DEEP_JSON, "embedding": DEEP_JSON, "chain": b"1.0\n",
              "expect": None, "intact": False})
    # row sums within the dense tolerance, but a diagonal of -5e-11 from the flows
    @example({"graph": '{"n": 2, "edges": [[0, 1]]}', "embedding": "{}",
              "chain": b"0.0,1.00000000005\n1.00000000005,0.0\n",
              "expect": "invalid chain: node 0 has load 0.500000000025", "intact": True})
    # the solver's Newton system overflows (1/q^2), and its start flows underflow
    @example({"graph": '{"n": 3, "edges": [[0, 1], [1, 2]], "pi": [1e-300, 1.0, 1e-300]}',
              "embedding": "{}", "chain": b"1.0\n", "expect": None, "intact": False})
    # the expansion witness's slack 1/pi(inner) overflows; the bound stands
    @example({"graph": '{"n": 2, "edges": [[0, 1]], "pi": [5e-324, 1.0]}',
              "embedding": "{}", "chain": b"1.0\n", "expect": None, "intact": False})
    @example({"graph": '{"n": 3, "edges": [[0, 1], [1, 2]], "pi": [5e-324, 1.0, 5e-324]}',
              "embedding": "{}", "chain": b"1.0\n", "expect": None, "intact": False})
    # a light middle node: the Cheeger bound's (pi_*/pi_0)^2 overflows
    @example({"graph": '{"n": 3, "edges": [[0, 1], [1, 2]], "pi": [0.5, 1e-300, 0.5]}',
              "embedding": "{}", "chain": b"1.0\n", "expect": None, "intact": False})
    def test_hostile_files_exit_0_or_2(self, tmp_path, capsys, files):
        gpath, epath, cpath = tmp_path / "g.json", tmp_path / "e.json", tmp_path / "c.csv"
        gpath.write_text(files["graph"])
        epath.write_text(files["embedding"])
        cpath.write_bytes(files["chain"])
        for argv in (["lower", str(gpath)], ["lower", str(gpath), "--embedding", str(epath)],
                     ["upper", str(gpath)], ["solve", str(gpath)],
                     ["report", "--family", "custom", "--sweep", f"path={gpath}"],
                     ["spectral", str(gpath), "--chain", str(cpath)]):
            code = cli.main(argv)
            captured = capsys.readouterr()
            assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
            if code == cli.EXIT_VALIDATION:
                assert captured.out == ""
            else:
                strict_json(captured.out)
        # the last command read the chain CSV; on the valid graph its outcome is known
        if files["intact"] and files["expect"] is None:
            assert code == cli.EXIT_OK
        elif files["intact"]:
            assert code == cli.EXIT_VALIDATION and files["expect"] in captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("pi", [[1e-300, 1.0, 1e-300], [0.5, 1e-300, 0.5],
                                [5e-324, 1.0], [5e-324, 1.0, 5e-324]])
def test_extreme_pi_bounds_are_quiet(tmp_path, capsys, pi):
    # the Cheeger bound past the float range is +inf, printed as null (as
    # rho_bar would be), with nothing on stderr
    gpath = tmp_path / "g.json"
    TransitionGraph(len(pi), [(i, i + 1) for i in range(len(pi) - 1)], pi).save(gpath)
    assert cli.main(["upper", str(gpath)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and strict_json(captured.out)["ub_cheeger"] is None
    assert cli.main(["lower", str(gpath)]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and strict_json(captured.out)["lb_expansion"] > 0


@pytest.mark.parametrize("pi", [[5e-324, 1.0], [5e-324, 1.0, 5e-324]])
def test_overflowing_witness_leaves_the_expansion_bound(pi):
    # Upsilon = 1 is finite, but no finite witness has sum pi(i) w(i) = 1
    # with w = 1/pi(inner) = 1/5e-324
    graph = TransitionGraph(len(pi), [(i, i + 1) for i in range(len(pi) - 1)], pi)
    bound = expansion_lower_bound(graph)
    assert (bound.upsilon, bound.value, bound.embedding) == (1.0, 0.5, None)


@st.composite
def cli_commands(draw):
    """argv of a ``gen``, ``glauber`` or ``report`` run on a small instance,
    with a non-finite beta or one in [-2, 2]."""
    beta = repr(draw(st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-2.0, 2.0)))
    tree = draw(st.sampled_from(["2,1", "2,2", "3,1", "3,2"]))
    lattice = draw(st.sampled_from(["cycle;n=5", "torus;m=3;d=2", "torus;m=4;d=1",
                                    "geometric;m=6;k=2", "geometric;m=6;k=1;d=2",
                                    "knkn;n=3"]))
    family, sweep = lattice.split(";", 1)
    b, r = tree.split(",")
    return draw(st.sampled_from([
        ["gen", "--family", family] + [x for kv in sweep.split(";") for x in ("--param", kv)],
        ["gen", "--family", "ising_tree", "--param", f"b={b}", "--param", f"r={r}",
         "--param", f"beta={beta}"],
        ["glauber", "--tree", tree, f"--beta={beta}", "--exact"],
        ["glauber", "--tree", tree, f"--beta={beta}", "--rates", "uniform"],
        ["report", "--family", family, "--sweep", sweep],
        ["report", "--family", "ising_tree", "--sweep", f"b={b};r={r};beta={beta}"]]))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cli_commands())
@example(["glauber", "--tree", "3,1", "--beta", "1.0", "--exact"])
@example(["report", "--family", "torus", "--sweep", "m=3;d=2"])
def test_every_json_output_is_strict(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (cli.EXIT_OK, cli.EXIT_VALIDATION)
    if code == cli.EXIT_OK:
        strict_json(captured.out)


@pytest.mark.parametrize("value, expected", [
    (math.inf, None), (-math.inf, None), (math.nan, None), (1.5, 1.5),
    ({"a": [1, (math.inf, 2.0)]}, {"a": [1, [None, 2.0]]})])
def test_json_text_prints_non_finite_floats_as_null(value, expected):
    assert strict_json(experiments.json_text(value)) == expected
    # a finite payload is printed as before
    assert experiments.json_text({"a": [1, 2.5]}) == json.dumps({"a": [1, 2.5]}, indent=2)


def test_python_m_fastmix_solves(tmp_path):
    # the uninstalled checkout runs as ``PYTHONPATH=src python -m fastmix``
    src = Path(__file__).resolve().parent.parent / "src"
    graph = tmp_path / "g.json"
    families.generate("knkn", {"n": 3}).save(graph)
    done = subprocess.run([sys.executable, "-m", "fastmix", "solve", str(graph)],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(src), "PATH": ""})
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["certified_gap"] <= 1e-6 and payload["certificates"] >= 1
