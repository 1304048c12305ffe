"""Developer tooling that ships with the reproduction.

Nothing in here runs inside a simulation.  The package exists so that
repo-specific invariants — the ones the paper's claims rest on — have a
home that is *itself* exempt from them:

* :mod:`repro.devtools.lint` ("hclint") checks the determinism and
  contract invariants over the simulation packages, one file at a time;
* :mod:`repro.devtools.timing` is the one sanctioned wall-clock entry
  point, from which profiling instrumentation must inject its timers.
"""

from . import lint, timing

__all__ = ["lint", "timing"]
