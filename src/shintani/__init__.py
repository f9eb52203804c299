"""Number-theoretic objects around geodesic cycle integrals on the modular
curve: binary quadratic form classes, genus characters, CM-value traces,
regularized cycle integrals, theta-kernel sums and the identities tying
them to class numbers.

The public names below load their modules on first access (PEP 562), so
`import shintani` imports none of its submodules and neither mpmath nor
numpy.  Precision is defined here, the one import-free piece every
command needs.
"""

import importlib
from dataclasses import dataclass

__version__ = "0.1.0"


@dataclass(frozen=True)
class Precision:
    """Working precision in decimal digits."""
    working_digits: int = 30

    def __post_init__(self):
        if self.working_digits < 15:
            raise ValueError("working_digits must be >= 15")


_LAZY = {
    "SpecialValue": "specfun", "DEFAULT_PRECISION": "specfun",
    "QForm": "qforms", "ClassList": "qforms", "class_reps": "qforms",
    "hurwitz_class_number": "qforms", "genus_char": "qforms",
    "HarmonicFourierData": "forms", "build_standard_forms": "forms",
    "CycleIntegralResult": "cycles",
    "TraceResult": "cmtraces", "IdentityReport": "cmtraces",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
