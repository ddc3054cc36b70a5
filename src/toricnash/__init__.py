"""Exact combinatorial computation of higher Nash blowups of toric varieties."""

__version__ = "0.1.0"
