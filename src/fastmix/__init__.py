"""Fastest-mixing reversible Markov chains: bounds, certificates, solvers."""

from .chains import (ReversibleChain, TransitionGraph, max_degree_chain, symmetric_walk,
                     validate_chain)
from .lower_bounds import (Embedding, embedding_bound, expansion_lower_bound,
                           specified_chain_bound, vertex_expansion)
from .solver import SolverConfig, SolverResult, solve_fastest_mixing
from .spectral import SpectralSummary, rayleigh_quotient, spectrum
from .upper_bounds import (cheeger_upper_bound, congestion, equalize_congestion,
                           shortest_path_system)

__version__ = "0.1.0"

__all__ = [
    "Embedding", "ReversibleChain", "SolverConfig", "SolverResult",
    "SpectralSummary", "TransitionGraph", "cheeger_upper_bound", "congestion",
    "embedding_bound", "equalize_congestion", "expansion_lower_bound",
    "max_degree_chain", "rayleigh_quotient", "shortest_path_system",
    "solve_fastest_mixing", "specified_chain_bound", "spectrum", "symmetric_walk",
    "validate_chain", "vertex_expansion",
]
