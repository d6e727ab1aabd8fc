"""Numerical laboratory for averaged-measurement quantum-walk hitting bounds.

Modules: spectral decomposition helpers (spectral), the exact averaged-walk
engine (walk), certified lower bounds on averaged measurement probabilities
(bounds), the glued-trees traversal experiment (gluedtrees), reversible
Markov chains and their interpolation (markov), the marked-vertex search
experiment (search) and deterministic record serialization (records). The
command-line runner, ctqw.cli, is imported on demand so that
`python -m ctqw.cli` runs it once.
"""
from ._version import __version__
from . import bounds, errors, gluedtrees, markov, records, rng, search, spectral, walk

__all__ = [
    "__version__",
    "bounds",
    "errors",
    "gluedtrees",
    "markov",
    "records",
    "rng",
    "search",
    "spectral",
    "walk",
]
