"""Benchmark harness: one row of certified bounds per instance.

Graph families get the full sandwich (the solver's dual embedding bound, or
the analytic one where it is larger, the expansion bound, the solver value,
equalized-congestion and Cheeger upper bounds, the max-degree reference
chain, and the certified gap between the best lower bound and the solver
value, which the JSON carries but the CSV columns leave out); Ising trees get
the rate-optimization row (widths, per-site bounds, exact spectra up to
``glauber.DENSE_STATE_CAP`` states).
A graph row aborts the run unless what is proven holds: every lower bound
is at most the solver value and at most every upper bound.  The solver
value may exceed an upper bound by at most tau2_solver - lower, which
``certified_gap`` reports relative to it.  A NaN fails the checks too.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import families, glauber, lower_bounds, upper_bounds
from .chains import max_degree_chain
from .solver import SolverConfig, solve_fastest_mixing
from .spectral import spectrum

SANDWICH_SLACK = 1e-6

GRAPH_COLUMNS = ("family", "params", "lb_embed", "lb_expansion", "tau2_solver",
                 "ub_congestion", "ub_cheeger", "tau2_standard")
ISING_COLUMNS = ("family", "params", "max_width", "log_mean_bound", "log_max_bound",
                 "tau2_majority_lower", "tau2_uniform", "tau2_rated", "prop_ok")


class BoundInversionError(RuntimeError):
    """A certified inequality failed; the emitted table would be wrong."""


@dataclass(frozen=True)
class ExperimentSpec:
    family: str
    params: dict
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.family not in families.FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")


def _family_embedding(family, params):
    if family == "knkn" and int(params["n"]) >= 3:
        return lower_bounds.make_knkn_embedding(int(params["n"]))
    if family == "cycle":
        return lower_bounds.make_cycle_embedding(int(params["n"]))
    if family == "torus":
        return lower_bounds.make_torus_embedding(int(params["m"]), int(params["d"]))
    if family == "geometric":
        return lower_bounds.make_geometric_embedding(
            int(params["m"]), int(params["k"]), int(params.get("d", 1)))
    return None


def _graph_row(spec, graph):
    result = solve_fastest_mixing(graph, spec.solver)
    # the solver's dual embedding bounds every graph; a closed form may be
    # tighter by the solver's remaining gap
    lb_embed = result.lower_bound
    embedding = _family_embedding(spec.family, spec.params)
    if embedding is not None:
        lb_embed = max(lb_embed, lower_bounds.embedding_bound(graph, embedding))

    lb_expansion = ub_cheeger = None
    if graph.n <= lower_bounds.EXHAUSTIVE_NODE_CAP:
        # one 2^n enumeration serves both bounds
        expansion = lower_bounds.expansion_lower_bound(graph)
        lb_expansion = expansion.value
        ub_cheeger = upper_bounds.cheeger_bound_from_expansion(graph, expansion.upsilon)

    loads = upper_bounds.shortest_path_system(graph)
    equalized = upper_bounds.equalize_congestion(graph, loads)
    ub_congestion = upper_bounds.congestion(equalized, loads).rho_bar
    tau2_standard = spectrum(max_degree_chain(graph)).relaxation_time

    tau = result.tau2_star
    lower = lb_embed if lb_expansion is None else max(lb_embed, lb_expansion)
    row = {"family": spec.family, "params": dict(spec.params),
           "lb_embed": lb_embed, "lb_expansion": lb_expansion,
           "tau2_solver": tau,
           "ub_congestion": ub_congestion, "ub_cheeger": ub_cheeger,
           "tau2_standard": tau2_standard,
           "certified_gap": (tau - lower) / tau}
    _check_graph_row(row)
    return row


def _check_graph_row(row):
    lowers = [row[k] for k in ("lb_embed", "lb_expansion") if row[k] is not None]
    uppers = [row[k] for k in ("ub_congestion", "ub_cheeger") if row[k] is not None]
    tau = row["tau2_solver"]
    for lb in lowers:
        if not (lb <= tau + SANDWICH_SLACK):
            raise BoundInversionError(
                f"lower bound {lb!r} exceeds solver value {tau!r} on {row['family']} "
                f"{row['params']}")
    lower = max(lowers, default=-math.inf)
    for ub in uppers:
        if not (lower <= ub + SANDWICH_SLACK):
            raise BoundInversionError(
                f"lower bound {lower!r} exceeds upper bound {ub!r} on {row['family']} "
                f"{row['params']}")


def _ising_row(spec):
    tree, system = families.generate("ising_tree", spec.params)
    beta = float(spec.params["beta"])
    bounds = glauber.site_bounds(tree, beta)

    tau_major = None
    if tree.branching == 3:
        cut = glauber.majority_cut_bound(tree, beta)
        if not cut.vacuous:
            tau_major = 1.0 / (1.0 - cut.lambda2_lower)

    tau_uniform = tau_rated = None
    ok = None
    if system.n_states <= glauber.DENSE_STATE_CAP:
        # both chains live on the same configuration graph
        graph = glauber.configuration_graph(system)
        uniform = glauber.build_glauber_chain(
            system, glauber.uniform_rates(system.n_sites), graph)
        rated = glauber.build_glauber_chain(system, glauber.optimal_rates(tree, beta), graph)
        tau_uniform = spectrum(uniform).relaxation_time
        tau_rated = spectrum(rated).relaxation_time
        ok = (tau_uniform <= bounds.max_value + SANDWICH_SLACK
              and tau_rated <= bounds.mean + SANDWICH_SLACK)
        if not ok:
            raise BoundInversionError(
                f"per-site congestion bounds failed on ising_tree {spec.params}")
        if tau_major is not None and not (tau_major <= tau_rated + SANDWICH_SLACK):
            raise BoundInversionError(
                f"majority-cut lower bound exceeds the rated chain on {spec.params}")

    return {"family": spec.family, "params": dict(spec.params),
            "max_width": bounds.max_width,
            "log_mean_bound": bounds.log_mean, "log_max_bound": bounds.log_max,
            "tau2_majority_lower": tau_major,
            "tau2_uniform": tau_uniform, "tau2_rated": tau_rated, "prop_ok": ok}


def run_experiment(spec):
    """Evaluate one instance; returns the row dict."""
    if spec.family == "ising_tree":
        return _ising_row(spec)
    return _graph_row(spec, families.generate(spec.family, spec.params))


def run_sweep(specs):
    """Rows for a list of specs, ordered as given (never by completion time)."""
    return [run_experiment(s) for s in specs]


def _flatten(row):
    """The row's CSV columns, as CSV-ready values."""
    columns = ISING_COLUMNS if row["family"] == "ising_tree" else GRAPH_COLUMNS
    flat = {key: row[key] for key in columns}
    flat["params"] = json.dumps(row["params"], sort_keys=True)
    for key, value in flat.items():
        if value is None:
            flat[key] = ""
        elif value is True or value is False:
            flat[key] = int(value)
        elif isinstance(value, float) and math.isinf(value):
            flat[key] = "inf"
    return flat


def write_table(rows, handle, fmt="csv"):
    """The rows as CSV (a header, then the quoted columns) or as JSON."""
    if fmt == "json":
        handle.write(json.dumps(rows, indent=2, default=str) + "\n")
        return
    columns = ISING_COLUMNS if rows and rows[0]["family"] == "ising_tree" else GRAPH_COLUMNS
    writer = csv.DictWriter(handle, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow(_flatten(row))


def write_rows(rows, path, fmt="csv"):
    with Path(path).open("w", newline="") as handle:
        write_table(rows, handle, fmt)
