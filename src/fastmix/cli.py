"""Command-line front end.

Every command prints JSON; ``report``, the one command with a table, also
takes ``--format csv``.  Exit codes: 0 on success, 2 when inputs fail
validation or are too large for dense storage, 3 when a certified bound
inequality is violated by the computed table.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments, families, glauber, lower_bounds, upper_bounds
from .chains import (TransitionGraph, load_chain_csv, max_degree_chain, save_chain_csv,
                     symmetric_walk)
from .solver import SolverConfig, solve_fastest_mixing
from .spectral import spectrum

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INVERSION = 3


def _emit(data):
    print(json.dumps(data, indent=2, default=str))


def _key_values(pairs):
    """``KEY=VALUE`` strings as a dict of string values."""
    params = {}
    for pair in pairs:
        key, _, value = pair.partition("=")
        params[key] = value
    return params


def cmd_gen(args):
    out = families.generate(args.family, _key_values(args.param or []))
    if args.family == "ising_tree":
        tree, system = out
        payload = {"type": "spin_system", "b": tree.branching, "r": tree.levels,
                   "beta": system.beta, "sites": system.n_sites,
                   "edges": [list(e) for e in system.edges]}
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(payload, fh)
        _emit(payload)
        return EXIT_OK
    if args.out:
        out.save(args.out)
    _emit(out.to_json_dict())
    return EXIT_OK


def cmd_spectral(args):
    graph = TransitionGraph.load(args.graph)
    if args.chain:
        chain = load_chain_csv(graph, args.chain)
    else:
        chain = symmetric_walk(graph) if args.standard == "walk" else max_degree_chain(graph)
    # spectrum validates the chain: an invalid one raises ValueError, exit 2
    _emit(spectrum(chain).to_json_dict())
    return EXIT_OK


def cmd_lower(args):
    graph = TransitionGraph.load(args.graph)
    payload = {}
    if graph.n <= lower_bounds.EXHAUSTIVE_NODE_CAP:
        bound = lower_bounds.expansion_lower_bound(graph)
        payload["vertex_expansion"] = bound.upsilon
        payload["lb_expansion"] = bound.value
        payload["expansion_subset"] = list(bound.subset)
    if args.embedding:
        emb = lower_bounds.Embedding.load(args.embedding)
        payload["lb_embed"] = lower_bounds.embedding_bound(graph, emb)
    _emit(payload)
    return EXIT_OK


def cmd_upper(args):
    graph = TransitionGraph.load(args.graph)
    loads = upper_bounds.shortest_path_system(graph)
    equalized = upper_bounds.equalize_congestion(graph, loads)
    report = upper_bounds.congestion(equalized, loads)
    payload = report.to_json_dict()
    if graph.n <= lower_bounds.EXHAUSTIVE_NODE_CAP:
        payload["ub_cheeger"] = upper_bounds.cheeger_upper_bound(graph)
    if args.out_chain:
        save_chain_csv(equalized, args.out_chain)
        payload["chain_csv"] = args.out_chain
    _emit(payload)
    return EXIT_OK


def cmd_solve(args):
    graph = TransitionGraph.load(args.graph)
    config = SolverConfig(max_iters=args.iters)
    result = solve_fastest_mixing(graph, config)
    payload = result.to_json_dict()
    if args.out_chain:
        save_chain_csv(result.chain, args.out_chain)
        payload["chain_csv"] = args.out_chain
    _emit(payload)
    return EXIT_OK


def cmd_glauber(args):
    b, r = (int(x) for x in args.tree.split(","))
    tree, system = families.ising_tree(b, r, args.beta)
    bounds = glauber.site_bounds(tree, args.beta)
    rates = (glauber.optimal_rates(tree, args.beta) if args.rates == "optimal"
             else glauber.uniform_rates(system.n_sites))
    payload = {"b": b, "r": r, "beta": args.beta,
               "widths": [int(w) for w in bounds.widths],
               "max_width": bounds.max_width,
               "log_site_bounds": [float(x) for x in bounds.log_values],
               "log_mean_bound": bounds.log_mean,
               "log_max_bound": bounds.log_max,
               "rates": [float(x) for x in rates.rho]}
    if b == 3:
        cut = glauber.majority_cut_bound(tree, args.beta)
        payload["majority_lambda2_lower"] = cut.lambda2_lower
        payload["majority_vacuous"] = cut.vacuous
    if args.exact:
        # past glauber.DENSE_STATE_CAP states the build raises ValueError: exit 2
        chain = glauber.build_glauber_chain(system, rates)
        payload["tau2_exact"] = spectrum(chain).relaxation_time
    _emit(payload)
    return EXIT_OK


def cmd_report(args):
    config = SolverConfig(max_iters=args.iters)
    specs = [experiments.ExperimentSpec(args.family, _key_values(value.split(";")), config)
             for value in args.sweep]
    rows = experiments.run_sweep(specs)
    if args.out:
        experiments.write_rows(rows, args.out, fmt=args.format)
    experiments.write_table(rows, sys.stdout, fmt=args.format)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="fastmix",
                                     description="fastest-mixing chain toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--family", required=True, choices=families.FAMILIES)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("spectral", help="spectrum of a chain on a graph")
    p.add_argument("graph")
    p.add_argument("--chain", help="dense CSV transition matrix")
    p.add_argument("--standard", choices=("maxdeg", "walk"), default="maxdeg")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("lower", help="lower bounds for an instance")
    p.add_argument("graph")
    p.add_argument("--embedding", help="embedding JSON file")
    p.set_defaults(func=cmd_lower)

    p = sub.add_parser("upper", help="congestion and Cheeger upper bounds")
    p.add_argument("graph")
    p.add_argument("--out-chain", help="write the equalized chain as CSV")
    p.set_defaults(func=cmd_upper)

    p = sub.add_parser("solve", help="minimize lambda2 numerically")
    p.add_argument("graph")
    p.add_argument("--out-chain")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("glauber", help="Ising tree rate optimization")
    p.add_argument("--tree", required=True, metavar="B,R")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--rates", choices=("uniform", "optimal"), default="optimal")
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=cmd_glauber)

    p = sub.add_parser("report", help="bound table over a parameter sweep")
    p.add_argument("--family", required=True, choices=families.FAMILIES)
    p.add_argument("--sweep", action="append", required=True,
                   metavar="KEY=VAL[;KEY=VAL...]")
    p.add_argument("--out")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_report)

    for name in ("solve", "report"):
        sub.choices[name].add_argument("--iters", type=int, default=SolverConfig.max_iters,
                                       help="cap on Newton steps")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except experiments.BoundInversionError as exc:
        print(f"bound inversion: {exc}", file=sys.stderr)
        code = EXIT_INVERSION
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        code = EXIT_VALIDATION
    except MemoryError as exc:
        print(f"invalid input: too large for dense storage ({exc})", file=sys.stderr)
        code = EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
