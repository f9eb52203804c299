"""Number-theoretic objects around geodesic cycle integrals on the modular
curve: binary quadratic form classes, genus characters, CM-value traces,
regularized cycle integrals, theta-kernel sums and the identities tying
them to class numbers."""

__version__ = "0.1.0"

from .specfun import Precision, SpecialValue, DEFAULT_PRECISION
from .qforms import QForm, ClassList, class_reps, hurwitz_class_number, genus_char
from .forms import HarmonicFourierData, build_standard_forms
from .cycles import CycleIntegralResult
from .cmtraces import TraceResult, IdentityReport
