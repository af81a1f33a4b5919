"""realpathsim: path probabilities for discrete path ensembles.

Assigns a probability to each configuration-space path via a distance-
smeared amplitude rule, and provides the toy interferometry ensembles,
geometric and Lorentz-invariant path distances, composite-path rules,
and lattice experiments used to study where interference survives and
where it decoheres.
"""

from .distances import (
    DistanceSpec,
    exp_index_distance,
    galilean_distance,
    weight,
)
from .engine import (
    PathDistribution,
    final_state_probabilities,
    path_probabilities,
)
from .errors import RealPathError
from .paths import (
    CompositePath,
    PathEnsemble,
    SpacetimePath,
    compose,
    free_action,
    make_indexed_ensemble,
)
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
    "CompositePath",
    "DistanceSpec",
    "M1Spec",
    "M2Spec",
    "M3Spec",
    "PathDistribution",
    "PathEnsemble",
    "RealPathError",
    "SpacetimePath",
    "build_m1",
    "build_m2",
    "build_m3",
    "compose",
    "exp_index_distance",
    "final_state_probabilities",
    "free_action",
    "galilean_distance",
    "m1_closed_form",
    "m2_closed_form",
    "make_indexed_ensemble",
    "path_probabilities",
    "weight",
]
