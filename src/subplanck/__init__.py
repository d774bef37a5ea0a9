"""Simulation toolkit for sub-Planck phase-space metrology with coherent-state superpositions."""

__version__ = "0.1.0"
