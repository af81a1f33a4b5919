"""The path ensemble every model in the package builds.

``PathEnsemble`` is a finite indexed family of paths carrying unit-modulus
complex amplitudes.  Indices run 1..N in the order given, the convention
used throughout for toy ensembles.

Units are natural (hbar = c = 1); the amplitude convention is
A(P) = exp(-i S(P)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyEnsemble, NonUnitAmplitude

UNIT_MODULUS_ATOL = 1e-12


def _require_unit_modulus(amps: np.ndarray, atol: float):
    """Raise NonUnitAmplitude at the first A with ||A| - 1| > atol or NaN."""
    dev = np.abs(amps)
    dev -= 1.0
    np.abs(dev, out=dev)
    ok = dev <= atol
    if not ok.all():
        i = int(np.argmin(ok))
        raise NonUnitAmplitude(i + 1, complex(amps[i]))


@dataclass(frozen=True)
class PathEnsemble:
    """Finite set of paths with unit-modulus amplitudes, indexed 1..N."""

    amplitudes: np.ndarray
    endpoint_tag: str = "B"

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.ndim != 1 or amps.size == 0:
            raise EmptyEnsemble("ensemble needs a non-empty 1-d amplitude list")
        _require_unit_modulus(amps, UNIT_MODULUS_ATOL)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_paths(self) -> int:
        return int(self.amplitudes.size)

    @property
    def indices(self) -> np.ndarray:
        """1-based path indices, matching the labelling P_1 .. P_N."""
        return np.arange(1, self.n_paths + 1)

    def amplitude(self, index: int) -> complex:
        """Amplitude of path P_index (1-based)."""
        return complex(self.amplitudes[index - 1])
