"""Per-layer spans recorded from outside the package.

While a :class:`Tracer` is active, each traced fastmix function is replaced
by a timing wrapper at every module attribute that refers to it (for
example ``experiments.spectrum``, ``solver.spectrum`` and
``spectral.spectrum`` all get the same wrapper), and ``numpy.linalg.eigh``
and ``eigvalsh`` are wrapped too, recording a span only inside a solve.
Spans stay in memory. A span's self time is its duration minus that of its
child spans, so the self times of one row sum to the row's duration.
Untraced helpers count towards the traced function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

ROW = "experiments.run_experiment"
SOLVE = "solver.solve_fastest_mixing"
LAPACK = ("eigh", "eigvalsh")

TRACED = (
    ROW, "families.generate", "spectral.spectrum", SOLVE,
    "lower_bounds.vertex_expansion", "lower_bounds.expansion_lower_bound",
    "lower_bounds.embedding_bound",
    "upper_bounds.cheeger_upper_bound", "upper_bounds.shortest_path_system",
    "upper_bounds.equalize_congestion", "upper_bounds.congestion",
    "glauber.build_glauber_chain", "glauber.configuration_graph",
    "glauber.site_bounds", "glauber.majority_cut_bound",
    "chains.validate_chain", "chains.max_degree_chain",
)


def _dim(args):
    return args["chain"].graph.n


def _subsets(args):
    if args.get("candidates") is not None:
        return len(args["candidates"])
    return 2 ** args["graph"].n - 2


def _states(args):
    return args["system"].n_states


# per traced function: the size it records from its bound arguments
SIZES = {"spectral.spectrum": _dim, "lower_bounds.vertex_expansion": _subsets,
         "glauber.build_glauber_chain": _states}


class Span:
    __slots__ = ("name", "start", "end", "parent", "size", "iterations", "iters_to_best")

    def __init__(self, name, parent):
        self.name, self.parent = name, parent
        self.start = self.end = 0.0
        self.size = self.iterations = self.iters_to_best = 0


class Tracer:
    """Context manager that wraps the traced functions and records spans.

    Every wrapped attribute is restored on exit, also when the body or the
    installation itself raises. Wrappers pass arguments and results through
    untouched, so traced rows are bitwise identical to untraced ones.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()
        return False

    def _install(self):
        wrappers = {}
        for qualified in TRACED:
            module, name = qualified.split(".")
            fn = getattr(importlib.import_module(f"fastmix.{module}"), name)
            wrappers[id(fn)] = self._wrap(qualified, fn)
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fastmix" or key.startswith("fastmix.")]
        for module in modules:
            for name, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patch(module, name, wrappers[id(value)])
        for name in LAPACK:
            fn = getattr(np.linalg, name)
            self._patch(np.linalg, name, self._wrap(f"numpy.linalg.{name}", fn, SOLVE))

    def _patch(self, module, name, replacement):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def _restore(self):
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)

    def _wrap(self, qualified, fn, only_inside=None):
        size = SIZES.get(qualified)
        signature = inspect.signature(fn) if size else None
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_inside and not any(s.name == only_inside for s in stack):
                return fn(*args, **kwargs)
            span = Span(qualified, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if size:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.size = size(bound.arguments)
                if qualified == SOLVE:
                    span.iterations = result.iterations
                    span.iters_to_best = result.history.index(min(result.history)) + 1
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced


def self_times(spans):
    """Self time and inclusive time per span name, and call counts."""
    child = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child[id(span.parent)] += span.end - span.start
    own, inclusive, calls = defaultdict(float), defaultdict(float), Counter()
    for span in spans:
        duration = span.end - span.start
        own[span.name] += duration - child[id(span)]
        inclusive[span.name] += duration
        calls[span.name] += 1
    return own, inclusive, calls


# self-time metrics and the span names they add up; together they cover
# every traced name, so they sum to experiments.row_s
SELF_METRICS = {
    "spectral.spectrum_s": ("spectral.spectrum",),
    "solver.self_s": (SOLVE,),
    "solver.lapack_s": tuple(f"numpy.linalg.{n}" for n in LAPACK),
    "lower_bounds.vertex_expansion_s": ("lower_bounds.vertex_expansion",),
    "lower_bounds.expansion_lower_bound_s": ("lower_bounds.expansion_lower_bound",),
    "lower_bounds.embedding_bound_s": ("lower_bounds.embedding_bound",),
    "upper_bounds.cheeger_upper_bound_s": ("upper_bounds.cheeger_upper_bound",),
    "upper_bounds.shortest_path_system_s": ("upper_bounds.shortest_path_system",),
    "upper_bounds.equalize_congestion_s": ("upper_bounds.equalize_congestion",),
    "upper_bounds.congestion_s": ("upper_bounds.congestion",),
    "glauber.build_glauber_chain_s": ("glauber.build_glauber_chain",),
    "glauber.configuration_graph_s": ("glauber.configuration_graph",),
    "glauber.site_bounds_s": ("glauber.site_bounds",),
    "glauber.majority_cut_bound_s": ("glauber.majority_cut_bound",),
    "chains.validate_chain_s": ("chains.validate_chain",),
    "chains.max_degree_chain_s": ("chains.max_degree_chain",),
    "families.generate_s": ("families.generate",),
    "experiments.self_s": (ROW,),
}


def layer_metrics(spans):
    """Per-layer metrics per traced row, from the spans of whole rows.

    Times, calls, subsets and bytes are totals divided by the number of
    rows; dimensions and states are maxima; solver iterations are means per
    solve.
    """
    own, inclusive, calls = self_times(spans)
    rows = calls[ROW]
    if rows == 0:
        raise ValueError("no traced rows")
    out = {name: sum(own[k] for k in keys) / rows for name, keys in SELF_METRICS.items()}

    def sizes(name):
        return [s.size for s in spans if s.name == name] or [0]

    solves = [s for s in spans if s.name == SOLVE]
    iterations = sum(s.iterations for s in solves)
    to_best = sum(s.iters_to_best for s in solves)
    out.update({
        "spectral.spectrum_calls": calls["spectral.spectrum"] / rows,
        "spectral.spectrum_max_dim": max(sizes("spectral.spectrum")),
        "spectral.dense_bytes": sum(8 * n * n for n in sizes("spectral.spectrum")) / rows,
        "solver.solve_s": inclusive[SOLVE] / rows,
        "solver.lapack_calls": sum(calls[f"numpy.linalg.{n}"] for n in LAPACK) / rows,
        "solver.iterations": iterations / len(solves) if solves else 0,
        "solver.iters_to_best": to_best / len(solves) if solves else 0,
        "solver.useful_iter_frac": to_best / iterations if iterations else 0,
        "lower_bounds.vertex_expansion_calls": calls["lower_bounds.vertex_expansion"] / rows,
        "lower_bounds.subsets_enumerated": sum(sizes("lower_bounds.vertex_expansion")) / rows,
        "upper_bounds.shortest_path_system_calls":
            calls["upper_bounds.shortest_path_system"] / rows,
        "upper_bounds.equalize_congestion_calls":
            calls["upper_bounds.equalize_congestion"] / rows,
        "glauber.states": max(sizes("glauber.build_glauber_chain")),
        "glauber.dense_bytes":
            sum(8 * n * n for n in sizes("glauber.build_glauber_chain")) / rows,
        "experiments.row_s": inclusive[ROW] / rows,
    })
    return out
