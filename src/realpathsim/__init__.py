"""realpathsim: path probabilities for discrete path ensembles.

Assigns a probability to each configuration-space path via a distance-
smeared amplitude rule, and provides the toy interferometry ensembles,
the particle x screen composite, geometric and Lorentz-invariant path
distances, and lattice experiments used to study where interference
survives and where it decoheres.
"""

from .distances import DistanceSpec
from .engine import (
    PathDistribution,
    final_state_probabilities,
    path_probabilities,
)
from .errors import RealPathError
from .paths import PathEnsemble
from .toymodels import (
    M1Spec,
    M2Spec,
    M3Spec,
    build_m1,
    build_m2,
    build_m3,
    m1_closed_form,
    m2_closed_form,
)

__version__ = "0.1.0"

__all__ = [
    "DistanceSpec",
    "M1Spec",
    "M2Spec",
    "M3Spec",
    "PathDistribution",
    "PathEnsemble",
    "RealPathError",
    "build_m1",
    "build_m2",
    "build_m3",
    "final_state_probabilities",
    "m1_closed_form",
    "m2_closed_form",
    "path_probabilities",
]
