"""Exact invariants of hyperplane multiarrangements.

Logarithmic derivation and differential-form modules with minimal free
resolutions, Betti tables, regularity and Hilbert series; freeness and
tameness certificates; Solomon-Terao bi-polynomials, polynomials,
ideals and algebras; plus a verification harness and CLI.
"""

from .arrangement import Arrangement, Hyperplane, Multiplicity, parse
from .exceptions import StlogError

__all__ = ["Arrangement", "Hyperplane", "Multiplicity", "parse", "StlogError"]

__version__ = "1.0.0"
