"""The benchmark's own check of every certified row.

The harness checks its sandwich with ``lb > tau + slack``, which NaN passes,
so every inequality is re-checked here in the ``not (lb <= tau + slack)``
form, together with finiteness, the fields each instance must carry, the
torus optimality certificate and an independent eigensolve of the exact
Glauber chains.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

SLACK = 1e-6        # the harness's sandwich slack
TIGHT_REL = 1e-6    # |tau2_solver - lb_embed| / lb_embed on tight instances
EXACT_REL = 1e-6    # exact Glauber tau2 against the reference eigensolve


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _exceeds(small, big, name_small, name_big):
    if not (small <= big + SLACK):
        return [f"{name_small} = {small!r} exceeds {name_big} = {big!r}"]
    return []


def _bound(log_value):
    """exp of a log-space upper bound, +inf where it would overflow."""
    return math.exp(log_value) if log_value < 700.0 else math.inf


def _graph_problems(row):
    tau = row["tau2_solver"]
    out = []
    for key in ("lb_embed", "lb_expansion"):
        if row.get(key) is not None:
            out += _exceeds(row[key], tau, key, "tau2_solver")
    for key in ("ub_congestion", "ub_cheeger"):
        if row.get(key) is not None:
            out += _exceeds(tau, row[key], "tau2_solver", key)
    return out


def _ising_problems(row):
    out = []
    uniform, rated = row.get("tau2_uniform"), row.get("tau2_rated")
    if uniform is not None:
        out += _exceeds(uniform, _bound(row["log_max_bound"]),
                        "tau2_uniform", "exp(log_max_bound)")
    if rated is not None:
        out += _exceeds(rated, _bound(row["log_mean_bound"]),
                        "tau2_rated", "exp(log_mean_bound)")
        if row.get("tau2_majority_lower") is not None:
            out += _exceeds(row["tau2_majority_lower"], rated,
                            "tau2_majority_lower", "tau2_rated")
    if row.get("prop_ok") is not None and row["prop_ok"] is not True:
        out.append(f"prop_ok = {row['prop_ok']!r}")
    return out


def row_problems(instance, row, reference=None):
    """Every way ``row`` fails its instance's checks; empty when it passes.

    ``reference`` maps exact Glauber fields to independently computed
    relaxation times (see :func:`glauber_reference`).
    """
    if not isinstance(row, dict):
        return [f"row is a {type(row).__name__}, not a dict"]
    if row.get("family") != instance.family or row.get("params") != instance.params:
        return [f"row is for {row.get('family')!r} {row.get('params')!r}"]
    out = [f"missing {key}" for key in instance.expects if row.get(key) is None]
    for key, value in row.items():
        if key in ("family", "params", "prop_ok") or value is None:
            continue
        if not _is_number(value) or not math.isfinite(value):
            out.append(f"{key} = {value!r} is not a finite number")
    if out:
        return out

    if instance.family == "ising_tree":
        out += _ising_problems(row)
    else:
        out += _graph_problems(row)
    if instance.tight:
        tau, lb = row["tau2_solver"], row["lb_embed"]
        if not (abs(tau - lb) <= TIGHT_REL * lb):
            out.append(f"tau2_solver = {tau!r} is not within {TIGHT_REL:g} "
                       f"of the tight lb_embed = {lb!r}")
    for key, expected in (reference or {}).items():
        got = row.get(key)
        if got is None or not (abs(got - expected) <= EXACT_REL * expected):
            out.append(f"{key} = {got!r} disagrees with eigvalsh {expected!r}")
    return out


def relaxation_time(P, pi):
    """1/(1 - lambda2) of a reversible chain by LAPACK ``eigvalsh``."""
    root = np.sqrt(pi)
    S = root[:, None] * P / root[None, :]
    lam2 = np.linalg.eigvalsh(0.5 * (S + S.T))[-2]
    return 1.0 / (1.0 - lam2)


def glauber_reference(params):
    """Exact uniform- and optimal-rate relaxation times of one Ising tree.

    The chains come from the package's ``build_glauber_chain``; the
    eigenvalues come from LAPACK rather than the package's spectrum.
    """
    from fastmix import families, glauber

    tree, system = families.generate("ising_tree", params)
    rates = {"tau2_uniform": glauber.uniform_rates(system.n_sites),
             "tau2_rated": glauber.optimal_rates(tree, float(params["beta"]))}
    out = {}
    for key, rate in rates.items():
        chain = glauber.build_glauber_chain(system, rate)
        out[key] = relaxation_time(chain.P, chain.pi)
    return out


def headline(row):
    """The relaxation time a row certifies, and its best certified lower bound.

    Graph rows: the solver value over the larger of the embedding and
    expansion bounds. Ising rows: the optimal-rate chain's exact value (its
    own lower bound) or, when the state space is too large for the exact
    spectrum, its mean per-site upper bound over the majority-cut bound.
    """
    if row["family"] == "ising_tree":
        if row.get("tau2_rated") is not None:
            return row["tau2_rated"], row["tau2_rated"]
        return _bound(row["log_mean_bound"]), row["tau2_majority_lower"]
    lowers = [row[k] for k in ("lb_embed", "lb_expansion") if row.get(k) is not None]
    return row["tau2_solver"], max(lowers)


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fingerprint(row):
    """Bitwise identity of a row: every float by its hex form."""
    def canon(value):
        if _is_number(value) and not isinstance(value, numbers.Integral):
            return float(value).hex()
        if isinstance(value, dict):
            return sorted((k, canon(v)) for k, v in value.items())
        return value
    return repr(canon(row))
