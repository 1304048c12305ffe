"""Developer tooling that ships with the reproduction.

Nothing in here runs inside a simulation.  :mod:`repro.devtools.lint`
("hclint") checks the determinism and contract invariants the paper's
claims rest on over the simulation packages, one file at a time.
"""

from . import lint

__all__ = ["lint"]
