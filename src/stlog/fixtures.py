"""Named fixture arrangements shipped with the package.

Each fixture is an `.arr` file in the `fixtures/` package directory;
`load(name)` parses it into an (Arrangement, Multiplicity) pair.
"""

from __future__ import annotations

from importlib import resources

from .arrangement import parse
from .exceptions import StructuralError

NAMES = (
    "ex1",              # x1*x2*x3*(x1+x2+x3), rank 3, tame, not free
    "ex2_A",            # rank-4 free arrangement, exponents (1,3,3,3)
    "ex2_Aprime",       # ex2_A minus x2: tame
    "ex2_B",            # ex2_A minus x1: non-tame
    "generic_3_4",      # four generic lines in rank 3
    "bool1",
    "bool2",
    "bool3",
)


def fixture_text(name: str) -> str:
    if name not in NAMES:
        raise StructuralError(
            f"unknown fixture {name!r}; available: {', '.join(NAMES)}")
    return (resources.files(__package__) / "fixtures" / f"{name}.arr").read_text()


def load(name: str):
    """Parse a named fixture into (Arrangement, Multiplicity)."""
    return parse(fixture_text(name))
