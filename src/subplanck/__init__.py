"""Simulation toolkit for sub-Planck phase-space metrology with coherent-state superpositions."""

from .states import (
    CoherentSuperposition,
    FockVector,
    coherent_state,
    default_n_trunc,
    displace,
    fidelity,
    inner_product,
    make_circular_state,
    mean_excitation,
    rotate,
    to_fock,
)

__all__ = [
    "CoherentSuperposition",
    "FockVector",
    "coherent_state",
    "default_n_trunc",
    "displace",
    "fidelity",
    "inner_product",
    "make_circular_state",
    "mean_excitation",
    "rotate",
    "to_fock",
]

__version__ = "0.1.0"
